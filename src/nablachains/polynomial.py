"""Sparse multivariate polynomials over exact rationals.

Variables are x1..xn; internally a term is an exponent tuple of length
n_vars mapped to a nonzero int or Fraction (3 == Fraction(3), with the same
hash, so either may stand for an integer).  Canonical form (no zero
coefficients) makes structural equality decide polynomial equality, which
is all the zero-operator decision procedure needs.  The operators are
linear with constant coefficients, so polynomials support +, -, scaling
and partial derivatives, and not products.
"""

from __future__ import annotations

import re
import sys
from collections.abc import Iterable, Mapping
from fractions import Fraction

from .graph import check_bound

Exponents = tuple[int, ...]
Scalar = int | Fraction


class Polynomial:
    __slots__ = ("n_vars", "terms")

    def __init__(self, n_vars: int, terms: Mapping[Exponents, Scalar] | None = None):
        """Keys, after tuple(), must be distinct tuples of n_vars ints >= 0,
        not bools, and coefficients ints or Fractions; terms with a zero
        coefficient are dropped.  No like terms are summed: a key given twice
        raises ValueError, as a malformed key or an inexact coefficient does."""
        check_bound(n_vars, "variable count", 1)
        # key by key, raising at the first fault
        canon: dict[Exponents, Scalar] = {}
        for exps, coeff in (terms or {}).items():
            key = tuple(exps)
            if len(key) != n_vars or not all(
                    isinstance(e, int) and type(e) is not bool and e >= 0 for e in key):
                raise ValueError(f"bad exponent tuple {key} for {n_vars} variables")
            if key in canon:
                raise ValueError(f"exponent tuple {key} given twice")
            canon[key] = _exact(coeff)
        self.n_vars = n_vars
        self.terms = canon if all(canon.values()) else {e: c for e, c in canon.items() if c}

    # construction helpers

    @classmethod
    def zero(cls, n_vars: int) -> "Polynomial":
        return cls(n_vars)

    @classmethod
    def monomial(cls, n_vars: int, exps: Iterable[int], coeff: Scalar = 1) -> "Polynomial":
        return cls(n_vars, {tuple(exps): coeff})

    # linear operations

    def __add__(self, other: "Polynomial") -> "Polynomial":
        if self.n_vars != other.n_vars:
            raise ValueError("polynomials over different variable sets")
        terms = dict(self.terms)
        for e, c in other.terms.items():
            old = terms.get(e)
            if old is None:
                terms[e] = c
                continue
            s = old + c
            if s:
                terms[e] = s
            else:
                del terms[e]  # the zero this sum made
        return _built(self.n_vars, terms)

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        return self + (-other)

    def __neg__(self) -> "Polynomial":
        return _built(self.n_vars, {e: -c for e, c in self.terms.items()})

    def scale(self, c: Scalar) -> "Polynomial":
        # polynomials are never mutated, so scaling by 1 may return self
        c = _exact(c)
        if c == 1:
            return self
        if c == -1:
            return -self
        if not c:
            return _built(self.n_vars, {})
        return _built(self.n_vars, {e: c * v for e, v in self.terms.items()})

    def diff(self, i: int) -> "Polynomial":
        """Partial derivative with respect to x_i (1-based), exact power rule."""
        check_bound(i, "variable index", 1, self.n_vars)
        # Lowering the i-th exponent maps distinct exponents to distinct ones,
        # so each surviving term lands on its own key.
        j = i - 1
        terms: dict[Exponents, Scalar] = {}
        for e, c in self.terms.items():
            p = e[j]
            if p:
                lowered = list(e)
                lowered[j] = p - 1
                terms[tuple(lowered)] = c * p if p > 1 else c
        return _built(self.n_vars, terms)

    # predicates and comparison

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.n_vars == other.n_vars and self.terms == other.terms

    def __hash__(self) -> int:
        return hash((self.n_vars, frozenset(self.terms.items())))

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __reduce__(self):
        # pickle and copy rebuild through the constructor; protocols 0 and 1 refuse bare __slots__
        return (Polynomial, (self.n_vars, self.terms))

    # rendering

    def __str__(self) -> str:
        ordered = sorted(self.terms.items(), key=lambda t: (sum(t[0]), t[0]), reverse=True)
        names = [f"x{i}" for i in range(1, self.n_vars + 1)]
        terms: list[tuple[int, str]] = []
        try:
            for e, c in ordered:
                # an int is its own numerator over 1, and a Fraction gives
                # both at once; as ints they make no Fraction for abs() or a
                # comparison
                num, den = (c, 1) if type(c) is int else c.as_integer_ratio()
                mag = str(abs(num))
                if den != 1:
                    mag = f"{mag}/{den}"
                factors = [names[i] if p == 1 else f"{names[i]}^{p}" for i, p in enumerate(e) if p]
                if not factors:
                    body = mag
                elif mag == "1":
                    body = "*".join(factors)
                else:
                    body = "*".join([mag] + factors)
                terms.append((num, body))
        except ValueError:
            # str() refused an int over the digit limit, with advice that a
            # CLI user cannot act on; the longest part is named instead
            longest = max(max(abs(c.numerator), c.denominator) for c in self.terms.values())
            limit = sys.get_int_max_str_digits()
            raise ValueError(
                f"coefficient too long to print: {_decimal_digits(longest)} digits (limit {limit})"
            ) from None
        return join_signed(terms)

    def __repr__(self) -> str:
        return f"Polynomial({self.n_vars}, {self})"


def _decimal_digits(m: int) -> int:
    """Decimal digits of an int m >= 1, without its text: r, (bits - 1/2) *
    log10(2) rounded, is within 0.66 of log10(m), so m has r or r + 1 digits."""
    r = ((2 * m.bit_length() - 1) * 30102999566398 + 10**14) // (2 * 10**14)
    return r + (m >= 10**r)


def _built(n_vars: int, terms: dict[Exponents, Scalar]) -> Polynomial:
    """A Polynomial of terms that are canonical by construction: valid,
    distinct keys and nonzero int or Fraction coefficients.  diff, scale,
    - and + build their results so, and nothing re-checks them."""
    p = object.__new__(Polynomial)
    p.n_vars = n_vars
    p.terms = terms
    return p


def _exact(c: Scalar) -> Scalar:
    """c as an int or Fraction, a bool or other int subclass as an int.
    Fraction() would also take a float at its binary value or parse a
    string, so anything else raises."""
    if type(c) is int or type(c) is Fraction:
        return c
    if isinstance(c, int):
        return int(c)
    if isinstance(c, Fraction):
        return Fraction(c)
    raise ValueError(f"coefficient must be an int or Fraction, got {c!r}")


def join_signed(terms: Iterable[tuple[int, str]]) -> str:
    """Render (sign, body) pairs as a signed sum, sign being a nonzero int
    with the term's sign (its coefficient or that coefficient's numerator)
    and body the magnitude's rendering: the first term bare or with a
    leading '-', later ones prefixed '+ ' or '- ', and the empty sum as '0'."""
    parts: list[str] = []
    for c, body in terms:
        if not parts:
            parts.append(body if c > 0 else f"-{body}")
        else:
            parts.append(("+ " if c > 0 else "- ") + body)
    return " ".join(parts) if parts else "0"


# The docstring's grammar as one regex: a factor, then factors each after a
# '*' or a run of signs, with whitespace around any token.  Each step is
# read as (?=(step))\N, an atomic group: the match never backtracks into a
# step it has read, so a text it refuses fails in one pass, and the match
# holds about 120 bytes of state a factor, where plain groups hold 500-700.
_GRAMMAR = r"[-+\s]*(?=({0}))\1(?:(?=(\s*(?:\*\s*|[-+][-+\s]*){0}))\2)*\s*".format(
    r"(?:x[0-9]+(?:\s*\^\s*[0-9]+)?|[0-9]+(?:/[0-9]+)?)"
)
# A factor of a text the grammar accepts, with the signs and whitespace
# before it and the '*' after it, as (signs, numerator, denominator,
# variable digits, power, star); the grammar has checked the order of its
# parts.
_FACTOR = r"([-+\s]*)(?:([0-9]+)/?([0-9]*)|x([0-9]+)[\s^]*([0-9]*))\s*(\*?)"
# A token and the whitespace before it, as (num, var, op, bad), one group
# non-empty; bad is a character no token starts with, so the tokens cover
# the text up to trailing whitespace.
_TOKEN = r"\s*(?:(?P<num>[0-9]+(?:/[0-9]+)?)|(?P<var>x[0-9]+)|(?P<op>[-+*^])|(?P<bad>\S))"


def parse_polynomial(text: str, n_vars: int) -> Polynomial:
    """Parse syntax like ``3/2*x1^2*x3 - x2 + 4``, by this grammar (EBNF):

        polynomial = {sign}, term, {sign, {sign}, term} ;   sign = "+" | "-" ;
        term = factor, {"*", factor} ;   factor = number | "x", digits, ["^", digits] ;
        number = digits, ["/", digits] ;   (* one token; whitespace only between tokens *)

    digits are ASCII 0-9, and "x", digits is one token too.  A term's signs
    multiply, so ``x1 - -x2`` is x1 + x2.  A text the grammar accepts is read
    factor by factor; one it refuses, or whose reading fails, is walked token
    by token, and the walk names the fault."""
    check_bound(n_vars, "variable count", 1)
    if re.fullmatch(_GRAMMAR, text):
        try:
            return _read(re.findall(_FACTOR, text), n_vars)
        except (ValueError, ZeroDivisionError):
            pass  # a number over the digit limit, a zero denominator or a variable out of range
    _refuse(text, n_vars)


def _read(factors: list[tuple[str, str, str, str, str, str]], n_vars: int) -> Polynomial:
    """The polynomial an accepted text spells, from its factors as _FACTOR
    reads them.  A term is a single monomial, whose numerator and
    denominator multiply as ints, so one Fraction is made per term whose
    denominator is not 1.  A fault raises with no message."""
    terms: dict[Exponents, Scalar] = {}
    num = den = 1
    exps = [0] * n_vars
    for signs, top, bottom, var, power, star in factors:
        if var:
            i = int(var)
            if not 0 < i <= n_vars:
                raise ValueError
            exps[i - 1] += int(power) if power else 1
        else:
            num *= int(top)
            if bottom:
                den *= int(bottom)
        if signs and signs.count("-") & 1:
            num = -num
        if not star:
            key = tuple(exps)
            c = num if den == 1 else Fraction(num, den)
            # adding to one dict keeps parsing linear in the number of terms
            old = terms.get(key)
            terms[key] = c if old is None else old + c
            num = den = 1
            exps = [0] * n_vars
    # the keys are tuples of n_vars ints >= 0 and each sum an int or
    # Fraction, so only the zeros that cancelling terms made are dropped
    return _built(n_vars, terms if all(terms.values()) else {e: c for e, c in terms.items() if c})


def _refuse(text: str, n_vars: int) -> None:
    """Raise the fault of a text that parse_polynomial cannot read: the
    first character no token starts with or number over the digit limit, in
    text order, else the first fault met walking the tokens by the grammar,
    so a variable or denominator fault comes before a later grammar fault."""
    # int() refuses digit strings over this limit (0: none; Python before
    # 3.10.7 has none) with advice that a CLI user cannot act on
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    tokens = []
    for m in re.finditer(_TOKEN, text):
        if m.lastgroup == "bad":
            raise ValueError(f"cannot parse polynomial near {text[m.start():]!r}")
        tok = m.group(m.lastgroup)
        if limit and len(tok) > limit:
            digits = max(len(part) for part in tok.lstrip("x").split("/"))
            if digits > limit:
                raise ValueError(f"number too long: {digits} digits (limit {limit})")
        tokens.append(m.groups(""))
    if not tokens:
        raise ValueError("empty polynomial")
    idx, end = 0, len(tokens)
    while True:
        # a term: a run of signs, then factors joined by '*'
        while idx < end and tokens[idx][2] in ("+", "-"):
            idx += 1
        while True:
            if idx == end:
                raise ValueError("unexpected end of polynomial")
            number, var, op, _ = tokens[idx]
            idx += 1
            if number:
                _, _, bottom = number.partition("/")
                if bottom and not int(bottom):
                    raise ValueError(f"zero denominator in {number!r}")
            elif var:
                if not 1 <= int(var[1:]) <= n_vars:
                    raise ValueError(f"variable {var} out of range for n={n_vars}")
                if idx < end and tokens[idx][2] == "^":
                    idx += 1
                    if idx == end or not tokens[idx][0] or "/" in tokens[idx][0]:
                        raise ValueError("expected integer exponent after '^'")
                    idx += 1
            else:
                raise ValueError(f"unexpected token {op!r}")
            if idx == end or tokens[idx][2] != "*":
                break
            idx += 1
        if idx == end:
            raise AssertionError(f"the grammar refuses {text!r}, which the token walk reads")
        # the next term's signs separate it from this one
        number, var, op, _ = tokens[idx]
        if op not in ("+", "-"):
            raise ValueError(f"expected '+' or '-', got {number or var or op!r}")
