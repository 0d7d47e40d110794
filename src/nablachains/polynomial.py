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


# A factor of the docstring's grammar and what stands before and after it,
# as (signs, numerator, denominator, variable digits, '^', power, other,
# star): a run of signs and whitespace, then a number, a variable with an
# optional power (read as a number token, so that x1^2/3 is refused at its
# power), one character no factor starts with, or the end of the text, then
# a '*' if one follows.  Every text is a run of these matches, the last at
# its end, so one findall reads it and _read checks their order.
_FACTOR = (r"\s*([-+][-+\s]*|)(?:([0-9]+)(?:/([0-9]+))?"
           r"|x([0-9]+)(?:\s*(\^)\s*([0-9]+(?:/[0-9]+)?)?)?|(\S)|\Z)\s*(\*?)")


def parse_polynomial(text: str, n_vars: int) -> Polynomial:
    """Parse syntax like ``3/2*x1^2*x3 - x2 + 4``, by this grammar (EBNF):

        polynomial = {sign}, term, {sign, {sign}, term} ;   sign = "+" | "-" ;
        term = factor, {"*", factor} ;   factor = number | "x", digits, ["^", digits] ;
        number = digits, ["/", digits] ;   (* one token; whitespace only between tokens *)

    digits are ASCII 0-9, and "x", digits is one token too.  A term's signs
    multiply, so ``x1 - -x2`` is x1 + x2.  A refused text is named by one
    fault: the first character no token starts with or number over the
    digit limit, in text order, else the first grammar, variable or zero
    denominator fault in token order, so ``x9 + 7 x1`` names x9."""
    check_bound(n_vars, "variable count", 1)
    try:
        return _read(re.findall(_FACTOR, text), n_vars)
    except ValueError:
        fault = _text_fault(text)
        if fault is None:
            raise
    raise ValueError(fault)


def _read(factors: list[tuple[str, ...]], n_vars: int) -> Polynomial:
    """The polynomial a text spells, from its matches of _FACTOR, walked
    by the grammar: a term after the first needs signs, and a factor after
    a '*' has none.  A term is a single monomial, whose numerator and
    denominator multiply as ints, so one Fraction is made per term whose
    denominator is not 1.  Raises ValueError at the first grammar, variable
    or zero denominator fault; at a number over the digit limit, int()
    raises its own, which parse_polynomial renames."""
    terms: dict[Exponents, Scalar] = {}
    num = den = 1
    exps = [0] * n_vars
    after = 0  # what the last factor ended: 0 none yet, 1 a term, 2 a '*'
    for signs, top, bottom, var, caret, power, other, star in factors:
        if signs:
            if after == 2:
                raise ValueError(f"unexpected token {signs[0]!r}")
            if signs.count("-") & 1:
                num = -num
        elif after == 1:
            if not (top or var or other):
                break  # the end of the text
            token = f"x{var}" if var else other or (f"{top}/{bottom}" if bottom else top)
            raise ValueError(f"expected '+' or '-', got {token!r}")
        if top:
            num *= int(top)
            if bottom:
                d = int(bottom)
                if not d:
                    raise ValueError(f"zero denominator in '{top}/{bottom}'")
                den *= d
        elif var:
            i = int(var)
            if not 0 < i <= n_vars:
                raise ValueError(f"variable x{var} out of range for n={n_vars}")
            if not caret:
                exps[i - 1] += 1
            elif power and "/" not in power:
                exps[i - 1] += int(power)
            else:
                raise ValueError("expected integer exponent after '^'")
        elif other:
            raise ValueError(f"unexpected token {other!r}")
        else:
            raise ValueError("unexpected end of polynomial" if signs or after else "empty polynomial")
        if star:
            after = 2
        else:
            key = tuple(exps)
            c = num if den == 1 else Fraction(num, den)
            # adding to one dict keeps parsing linear in the number of terms
            old = terms.get(key)
            terms[key] = c if old is None else old + c
            num = den = 1
            exps = [0] * n_vars
            after = 1
    # the keys are tuples of n_vars ints >= 0 and each sum an int or
    # Fraction, so only the zeros that cancelling terms made are dropped
    return _built(n_vars, terms if all(terms.values()) else {e: c for e, c in terms.items() if c})


def _text_fault(text: str) -> str | None:
    """The message of the first character no token starts with or number
    over the digit limit in text, in text order, or None if it has none."""
    # int() refuses digit strings over this limit (0: none; Python before
    # 3.10.7 has none) with advice that a CLI user cannot act on
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    for m in re.finditer(_FACTOR, text):
        _, top, bottom, var, _, power, other, _ = m.groups("")
        if other and other not in "*^":
            before = text[:m.start(7)].rstrip()  # up to the end of the token before it
            return f"cannot parse polynomial near {text[len(before):]!r}"
        if limit:
            for token in (f"{top}/{bottom}", var, power):
                digits = max(len(part) for part in token.split("/"))
                if digits > limit:
                    return f"number too long: {digits} digits (limit {limit})"
    return None
