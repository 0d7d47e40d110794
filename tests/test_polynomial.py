import re
import sys
import time
from enum import IntEnum
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from nablachains import Polynomial, parse_polynomial
from nablachains.polynomial import _decimal_digits
from nablachains.cli import main


def poly_strategy(n_vars=3, max_degree=3, max_terms=4):
    exps = st.tuples(*[st.integers(0, max_degree) for _ in range(n_vars)])
    coeff = st.fractions(
        min_value=-5, max_value=5, max_denominator=4
    )
    return st.dictionaries(exps, coeff, max_size=max_terms).map(
        lambda terms: Polynomial(n_vars, terms)
    )


def test_canonical_form_drops_zeros():
    p = Polynomial(2, {(1, 0): 1, (0, 1): 0})
    assert (0, 1) not in p.terms
    q = Polynomial(2, {(1, 0): 1}) - Polynomial(2, {(1, 0): 1})
    assert q.is_zero()
    assert q == Polynomial.zero(2)


def test_arithmetic():
    x1 = Polynomial.monomial(2, (1, 0))
    x2 = Polynomial.monomial(2, (0, 1))
    p = (x1 + x2) - (x1 - x2)
    assert p == x2.scale(2)
    assert -p == x2.scale(-2)
    assert p.scale(Fraction(1, 2)).scale(2) == p
    assert p.scale(0).is_zero()


@given(
    st.integers(1, 4).flatmap(
        lambda n: st.tuples(
            st.just(n),
            st.dictionaries(
                st.tuples(*[st.integers(0, 3)] * n),
                st.integers(-2, 2) | st.fractions(-2, 2, max_denominator=3),
            ),
        )
    )
)
def test_constructor_keeps_exactly_the_nonzero_terms(case):
    n, d = case
    assert Polynomial(n, d).terms == {e: Fraction(c) for e, c in d.items() if c}


@pytest.mark.parametrize("key", [(0.5,), (1.0,), ("1",), (-1,), (1, 0), (), (True,), (False,)])
def test_constructor_rejects_malformed_exponents(key):
    with pytest.raises(ValueError, match="bad exponent tuple"):
        Polynomial(1, {key: 1})


def test_a_bool_exponent_is_refused_and_an_int_subclass_taken():
    # a bool is refused as every int argument of the package refuses one;
    # another int subclass is an int, as check_bound takes one
    with pytest.raises(ValueError) as info:
        Polynomial.monomial(3, (True, 0, 0))
    assert str(info.value) == "bad exponent tuple (True, 0, 0) for 3 variables"
    two = IntEnum("Two", {"TWO": 2}).TWO
    assert Polynomial(3, {(two, 0, 0): 5}).terms == {(2, 0, 0): 5}


@pytest.mark.parametrize("coeff", [0.1, 1.0, "1/3", None, 1j])
def test_constructor_and_scale_reject_inexact_coefficients(coeff):
    # Fraction() would take 0.1 at its binary value and parse "1/3"
    with pytest.raises(ValueError, match="coefficient must be an int or Fraction"):
        Polynomial.monomial(2, (1, 0), coeff)
    with pytest.raises(ValueError, match="coefficient must be an int or Fraction"):
        Polynomial.monomial(2, (1, 0)).scale(coeff)


@pytest.mark.parametrize("first", [1, 0])
def test_constructor_rejects_a_key_repeated_after_tuple(first):
    with pytest.raises(ValueError, match=r"exponent tuple \(1, 0\) given twice"):
        Polynomial(2, {(1, 0): first, range(1, -1, -1): 2})


@pytest.mark.parametrize("build, n_vars", [
    pytest.param(lambda: Polynomial(2.0, {(1, 1): 1}), 2.0, id="Polynomial-2.0"),
    pytest.param(lambda: Polynomial(True, {(1,): 1}), True, id="Polynomial-True"),
    pytest.param(lambda: parse_polynomial("x1", True), True, id="parse_polynomial-True"),
    pytest.param(lambda: parse_polynomial("x1", 2.0), 2.0, id="parse_polynomial-2.0"),
    pytest.param(lambda: Polynomial("2", {(1, 1): 1}), "2", id="Polynomial-str"),
    pytest.param(lambda: parse_polynomial("x1", "1"), "1", id="parse_polynomial-str"),
])
def test_variable_count_must_be_an_int(build, n_vars):
    # each was once built, with n_vars 2.0 or True
    with pytest.raises(ValueError) as info:
        build()
    assert str(info.value) == f"variable count must be an int, got {n_vars!r}"


def test_zero_variables_is_refused():
    with pytest.raises(ValueError) as info:
        Polynomial(0)
    assert str(info.value) == "variable count must be >= 1, got 0"


@pytest.mark.parametrize("i, message", [
    pytest.param(0, "variable index 0 out of range 1..3", id="0"),
    pytest.param(4, "variable index 4 out of range 1..3", id="4"),
    pytest.param(True, "variable index must be an int, got True", id="True"),
    pytest.param(1.0, "variable index must be an int, got 1.0", id="1.0"),
    pytest.param("1", "variable index must be an int, got '1'", id="str"),
])
def test_diff_refuses_a_variable_index_out_of_range_or_not_an_int(i, message):
    # diff(True) and diff(1.0) once differentiated by x1; '1' is named as given
    with pytest.raises(ValueError) as info:
        Polynomial.monomial(3, (1, 1, 1)).diff(i)
    assert str(info.value) == message


def test_equality_with_a_non_polynomial_is_not_implemented():
    p = Polynomial.monomial(1, (0,), 3)
    assert p.__eq__(3) is NotImplemented
    assert p != 3 and p != "3"


def test_a_fraction_subclass_coefficient_is_stored_as_a_fraction():
    class Half(Fraction):
        pass

    p = Polynomial(1, {(1,): Half(1, 2)})
    assert type(p.terms[(1,)]) is Fraction and p.terms[(1,)] == Fraction(1, 2)
    assert str(p) == "1/2*x1"


def test_diff_power_rule():
    # d/dx1 (x1^3 * x2) = 3 x1^2 x2
    p = Polynomial(2, {(3, 1): 1})
    assert p.diff(1) == Polynomial(2, {(2, 1): 3})
    assert p.diff(2) == Polynomial(2, {(3, 0): 1})
    assert Polynomial.monomial(2, (0, 0), 5).diff(1).is_zero()


def test_mixed_partials_commute():
    p = Polynomial(3, {(2, 1, 0): Fraction(3, 2), (1, 1, 1): -2})
    assert p.diff(1).diff(2) == p.diff(2).diff(1)


def test_parse_basic():
    p = parse_polynomial("3/2*x1^2*x3 - x2", 3)
    assert p == Polynomial(3, {(2, 0, 1): Fraction(3, 2), (0, 1, 0): -1})
    assert parse_polynomial("0", 3).is_zero()
    assert parse_polynomial("-x1 + 4", 2) == Polynomial(
        2, {(1, 0): -1, (0, 0): 4}
    )


def test_parse_errors():
    with pytest.raises(ValueError):
        parse_polynomial("x9", 3)
    with pytest.raises(ValueError):
        parse_polynomial("x1 +", 3)
    with pytest.raises(ValueError):
        parse_polynomial("y1", 3)
    with pytest.raises(ValueError):
        parse_polynomial("", 3)


@pytest.mark.parametrize("text", ["9" * 4400, "x1^" + "9" * 4400, "1/" + "7" * 4400, "x" + "1" * 4400])
def test_parse_rejects_numbers_over_the_digit_limit(text):
    limit = sys.get_int_max_str_digits()
    with pytest.raises(ValueError, match=f"^number too long: 4400 digits \\(limit {limit}\\)$"):
        parse_polynomial(text, 3)


def test_parse_takes_numbers_at_the_digit_limit():
    limit = sys.get_int_max_str_digits()
    p = parse_polynomial("9" * limit + "*x1^" + "0" * (limit - 1) + "2", 3)
    assert p.terms == {(2, 0, 0): Fraction(10**limit - 1)}


@pytest.mark.parametrize(
    "coeff, digits",
    [(2 * (10**4300 - 1), 4301), (-(10**4400), 4401), (Fraction(3, 10**4300), 4301)],
    ids=["numerator", "negative", "denominator"],
)
def test_str_refuses_coefficients_over_the_digit_limit(coeff, digits):
    # str() of an int that long raises, with advice a CLI user cannot act on
    limit = sys.get_int_max_str_digits()
    p = Polynomial(3, {(1, 0, 0): coeff, (0, 0, 0): 1})
    with pytest.raises(
        ValueError, match=f"^coefficient too long to print: {digits} digits \\(limit {limit}\\)$"
    ):
        str(p)


@pytest.mark.parametrize("k", [sys.get_int_max_str_digits(), 299_999])
@pytest.mark.parametrize("delta", [-1, 0], ids=["10^k-1", "10^k"])
def test_decimal_digits_agree_with_the_decimal_count(k, delta):
    # m has d decimal digits exactly when 10^(d-1) <= m < 10^d: two powers,
    # where a count through the decimal text is quadratic in the digits
    m = 10**k + delta
    d = _decimal_digits(m)
    assert 10 ** (d - 1) <= m < 10**d


@pytest.mark.parametrize(
    "terms, digits",
    [({(i,): 10**20_000 - 1 - i for i in range(200)}, 20_000),
     ({(1,): Fraction(-1, 10**300_000 - 7)}, 300_000)],
    ids=["200 coefficients of 20 000 digits", "one of 300 000 digits"],
)
def test_str_refuses_long_coefficients_at_once(terms, digits):
    p = Polynomial(1, terms)
    start = time.perf_counter()
    with pytest.raises(ValueError, match=f"^coefficient too long to print: {digits} digits "):
        str(p)
    assert time.perf_counter() - start < 0.2


@pytest.mark.parametrize("text", ["1/0", "1/00", "x1 + 2/0*x2"])
def test_parse_zero_denominator_names_the_token(text):
    with pytest.raises(ValueError, match="zero denominator in '[0-9]+/0+'"):
        parse_polynomial(text, 3)


# Unicode decimal digits that are not ASCII: Arabic-Indic three and one,
# fullwidth three, Devanagari one
@pytest.mark.parametrize(
    "text", ["x1^\u0663", "\u0663*x1", "x\u0661", "1/\u0663", "x1^\uff13", "\u0967"]
)
def test_parse_rejects_non_ascii_digits(text):
    with pytest.raises(ValueError):
        parse_polynomial(text, 3)


def test_str_round_trip_examples():
    for text in ["3/2*x1^2*x3 - x2", "x1*x2 + 1", "-x3^4", "7"]:
        p = parse_polynomial(text, 3)
        assert parse_polynomial(str(p), 3) == p


@given(poly_strategy())
@settings(max_examples=200)
def test_render_parse_round_trip(p):
    assert parse_polynomial(str(p), p.n_vars) == p


@given(poly_strategy(), poly_strategy())
def test_addition_commutes(p, q):
    assert p + q == q + p


@given(poly_strategy(), poly_strategy(), st.integers(1, 3))
def test_diff_is_linear(p, q, i):
    assert (p + q).diff(i) == p.diff(i) + q.diff(i)


def test_mismatched_variable_counts_rejected():
    with pytest.raises(ValueError):
        Polynomial.monomial(2, (1, 0)) + Polynomial.monomial(3, (1, 0, 0))


def test_parse_merges_repeated_and_cancelling_monomials():
    p = parse_polynomial("x1 + 2*x2 - x1 + x2*1", 3)
    assert p == Polynomial(3, {(0, 1, 0): 3})
    assert str(p) == "3*x2"
    assert parse_polynomial("x1 - x1", 3).is_zero()
    assert parse_polynomial("2*x1*x1^2 - x1^3*2 + 0*x2", 3).is_zero()
    assert parse_polynomial("-x1*3/2 + x1", 3) == Polynomial(3, {(1, 0, 0): Fraction(-1, 2)})


@given(
    st.lists(
        st.tuples(
            st.sampled_from(["+", "-"]),
            st.integers(0, 4),
            st.tuples(*[st.integers(0, 2) for _ in range(3)]),
        ),
        min_size=1,
        max_size=8,
    )
)
def test_parse_agrees_with_polynomial_sum(terms):
    # Repeated monomials are likely here; the sum built with Polynomial.__add__
    # is the reference for the parser's accumulation.
    text, expected = "", Polynomial.zero(3)
    for sign, c, exps in terms:
        factors = [str(c)] + [f"x{i + 1}^{e}" for i, e in enumerate(exps)]
        text += f" {sign} " + "*".join(factors)
        term = Polynomial.monomial(3, exps, c)
        expected = expected + term if sign == "+" else expected - term
    assert parse_polynomial(text, 3) == expected


# ---------------------------------------------------------------- oracles
# The fast paths in polynomial.py are checked against these slow ones.

ORACLE_TOKEN = re.compile(
    r"\s*(?:(?P<num>[0-9]+(?:/[0-9]+)?)|(?P<var>x[0-9]+)|(?P<op>[-+*^]))"
)


def fraction_per_factor_parse(text: str, n_vars: int) -> Polynomial:
    """The parser as it was before terms were multiplied as ints: a
    Fraction per factor, one token match per step, and a run of signs
    before a term's first factor.  The oracle for parse_polynomial's
    values and messages."""
    # int() refuses digit strings over this limit (0: none; Python before
    # 3.10.7 has none) with advice that a CLI user cannot act on
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    tokens: list[str] = []
    kinds: list[str] = []  # the ORACLE_TOKEN group each token matched
    pos = 0
    while pos < len(text):
        m = ORACLE_TOKEN.match(text, pos)
        if m is None:
            if text[pos:].strip() == "":
                break
            raise ValueError(f"cannot parse polynomial near {text[pos:]!r}")
        tok = m.group(m.lastgroup)
        if limit and len(tok) > limit:
            digits = max(len(part) for part in tok.lstrip("x").split("/"))
            if digits > limit:
                raise ValueError(f"number too long: {digits} digits (limit {limit})")
        tokens.append(tok)
        kinds.append(m.lastgroup)
        pos = m.end()

    idx = 0
    terms = {}

    def parse_factor(sign_allowed: bool = False) -> tuple[Fraction, list[int]]:
        """One factor as (coefficient, exponents)."""
        nonlocal idx
        if idx >= len(tokens):
            raise ValueError("unexpected end of polynomial")
        tok = tokens[idx]
        if tok == "-" and sign_allowed:
            idx += 1
            c, exps = parse_factor(sign_allowed=True)
            return -c, exps
        if tok == "+" and sign_allowed:
            idx += 1
            return parse_factor(sign_allowed=True)
        exps = [0] * n_vars
        if kinds[idx] == "num":
            idx += 1
            try:
                return Fraction(tok), exps
            except ZeroDivisionError:
                raise ValueError(f"zero denominator in {tok!r}") from None
        if kinds[idx] == "var":
            i = int(tok[1:])
            if not 1 <= i <= n_vars:
                raise ValueError(f"variable {tok} out of range for n={n_vars}")
            idx += 1
            power = 1
            if idx < len(tokens) and tokens[idx] == "^":
                idx += 1
                if idx >= len(tokens) or kinds[idx] != "num" or "/" in tokens[idx]:
                    raise ValueError("expected integer exponent after '^'")
                power = int(tokens[idx])
                idx += 1
            exps[i - 1] = power
            return Fraction(1), exps
        raise ValueError(f"unexpected token {tok!r}")

    def add_term(sign: int) -> None:
        # A term is a product of factors, so a single monomial; adding it to
        # one dict keeps parsing linear in the number of terms.
        nonlocal idx
        c, exps = parse_factor(sign_allowed=True)
        while idx < len(tokens) and tokens[idx] == "*":
            idx += 1
            c2, exps2 = parse_factor()
            c *= c2
            exps = [a + b for a, b in zip(exps, exps2)]
        key = tuple(exps)
        terms[key] = terms.get(key, 0) + sign * c

    if not tokens:
        raise ValueError("empty polynomial")
    add_term(1)
    while idx < len(tokens):
        op = tokens[idx]
        if op not in "+-":
            raise ValueError(f"expected '+' or '-', got {op!r}")
        idx += 1
        add_term(1 if op == "+" else -1)
    return Polynomial(n_vars, terms)


def canonical_key_by_key(n_vars, terms):
    """The constructor's checks written out apart from it: one key at a
    time, raising at the first fault.  The oracle for the constructor's
    results and messages."""
    canon = {}
    for exps, coeff in (terms or {}).items():
        key = tuple(exps)
        if len(key) != n_vars or not all(
                isinstance(e, int) and not isinstance(e, bool) and e >= 0 for e in key):
            raise ValueError(f"bad exponent tuple {key} for {n_vars} variables")
        if key in canon:
            raise ValueError(f"exponent tuple {key} given twice")
        if not isinstance(coeff, (int, Fraction)):
            raise ValueError(f"coefficient must be an int or Fraction, got {coeff!r}")
        canon[key] = Fraction(coeff)
    return {e: c for e, c in canon.items() if c}


def outcome(fn, *args):
    """fn's result, or the type and message of what it raised."""
    try:
        return fn(*args)
    except Exception as exc:  # noqa: BLE001 - the message is what is compared
        return type(exc).__name__, str(exc)


@st.composite
def rational_polynomials(draw):
    n = draw(st.integers(1, 8))
    exps = st.tuples(*[st.integers(0, 6) for _ in range(n)])
    coeff = st.fractions(max_denominator=10**6) | st.integers(-(10**30), 10**30)
    return Polynomial(n, draw(st.dictionaries(exps, coeff, max_size=12)))


@given(rational_polynomials())
@settings(max_examples=300)
def test_parse_round_trips_and_agrees_with_the_oracle(p):
    text = str(p)
    assert parse_polynomial(text, p.n_vars) == p
    assert fraction_per_factor_parse(text, p.n_vars) == p


# pieces that make valid and invalid text: numbers, zero denominators,
# variables in and out of range, stray operators, whitespace, a
# non-ASCII digit and characters no token starts with
PIECES = ["0", "7", "12", "3/4", "0/0", "5/00", "x1", "x2", "x4", "x0", "x", "^", "^2", "^1/2",
          "*", "+", "-", " ", "\t", "\u0663", "y", "/", "."]


@given(st.lists(st.sampled_from(PIECES), max_size=14), st.integers(1, 3))
@settings(max_examples=600)
def test_parse_values_and_messages_agree_with_the_oracle(pieces, n):
    text = "".join(pieces)
    assert outcome(parse_polynomial, text, n) == outcome(fraction_per_factor_parse, text, n)


@pytest.mark.parametrize(
    "text",
    ["1" * 5000 + " ?", "x1 ? " + "2" * 5000, "1/" + "0" * 5000, " " * 5000 + "x1 + 2", "x1" + " " * 5000],
)
def test_long_text_messages_agree_with_the_oracle(text):
    # the first bad token or over-long number in the text names the fault,
    # wherever the parse stopped, and long whitespace is no fault
    assert outcome(parse_polynomial, text, 2) == outcome(fraction_per_factor_parse, text, 2)


@pytest.mark.parametrize("text, want", [
    ("x1 ^ 2", {(2, 0, 0): 1}),
    ("x1^ 2", {(2, 0, 0): 1}),
    ("3 * x1", {(1, 0, 0): 3}),
    ("- - x1", {(1, 0, 0): 1}),
    ("+x1", {(1, 0, 0): 1}),
    ("2*3*x1", {(1, 0, 0): 6}),
    ("x1*x1", {(2, 0, 0): 1}),
    ("x1 - -x2", {(1, 0, 0): 1, (0, 1, 0): 1}),
    ("4/2*x1", {(1, 0, 0): 2}),
])
def test_grammar_edges_that_are_read(text, want):
    # whitespace around a token, runs of signs and products of factors
    assert parse_polynomial(text, 3) == fraction_per_factor_parse(text, 3) == Polynomial(3, want)


@pytest.mark.parametrize("text, message", [
    ("3 /4", "cannot parse polynomial near ' /4'"),
    ("3/ 4", "cannot parse polynomial near '/ 4'"),
    ("x 1", "cannot parse polynomial near 'x 1'"),
    ("x1 x2", "expected '+' or '-', got 'x2'"),
    ("7 x1", "expected '+' or '-', got 'x1'"),
    ("x1^2^3", "expected '+' or '-', got '^'"),
    ("x1^2/3", "expected integer exponent after '^'"),
    ("-", "unexpected end of polynomial"),
    ("x1 +", "unexpected end of polynomial"),
    ("", "empty polynomial"),
    # a factor after '*' has no sign, and a term starts with no '*'
    ("x1*-x2", "unexpected token '-'"),
    ("*x1", "unexpected token '*'"),
    # a variable or denominator fault before a later grammar fault is the
    # one named, and of two such faults the first in token order
    ("x9 + 7 x1", "variable x9 out of range for n=3"),
    ("0/0*x9", "zero denominator in '0/0'"),
    ("x9*0/0", "variable x9 out of range for n=3"),
])
def test_grammar_edges_that_are_refused(text, message):
    assert outcome(parse_polynomial, text, 3) == outcome(fraction_per_factor_parse, text, 3) \
        == ("ValueError", message)


LONG_TEXT = " + ".join(f"{k % 97 + 1}/{k % 7 + 2}*x1^{k % 5}*x2 - -x3^{k % 11}" for k in range(8700))


@pytest.mark.parametrize("text", [LONG_TEXT, LONG_TEXT[:-1] + "?"], ids=["valid", "bad last character"])
def test_a_long_text_is_matched_in_one_pass(text):
    # about 200 000 characters: a grammar regex that backtracked over the
    # terms would take time quadratic in them, minutes at this length
    assert len(text) > 195_000
    start = time.perf_counter()
    got = outcome(parse_polynomial, text, 3)
    assert time.perf_counter() - start < 2
    assert got == outcome(fraction_per_factor_parse, text, 3)


@pytest.fixture
def digit_limit_640():
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    yield
    sys.set_int_max_str_digits(old)


# PIECES with numbers just over a 640-digit limit in each place a number
# goes, and one at it
LONG_PIECES = PIECES + ["9" * 641, "x" + "1" * 641, "^" + "2" * 641, "7" * 640]


@given(st.lists(st.sampled_from(LONG_PIECES), max_size=14), st.integers(1, 3))
@settings(max_examples=600, suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_messages_under_the_digit_limit_agree_with_the_oracle(digit_limit_640, pieces, n):
    text = "".join(pieces)
    assert outcome(parse_polynomial, text, n) == outcome(fraction_per_factor_parse, text, n)


KEYS = [(0, 0), (1, 0), (0, 1), range(1, -1, -1), (True, 0), (0.5, 0), (-1, 0), ("1", 0), (1,), (0, 0, 0), 5]
COEFFS = [0, 1, -3, Fraction(2, 3), Fraction(0), True, 0.5, "1", None]


@given(st.lists(st.tuples(st.sampled_from(KEYS), st.sampled_from(COEFFS)), max_size=5))
@settings(max_examples=600)
def test_constructor_agrees_with_the_key_by_key_oracle(items):
    terms = dict(items)
    got = outcome(lambda: Polynomial(2, terms).terms)
    assert got == outcome(canonical_key_by_key, 2, terms)


@pytest.mark.parametrize(
    "terms, message",
    [
        # a bad key with a bad coefficient: the key is checked first
        ({(0.5, 0): 0.1}, r"bad exponent tuple \(0.5, 0\) for 2 variables"),
        # faults in two terms: the first term's wins
        ({(1, 0): 0.1, (0.5, 0): 1}, "coefficient must be an int or Fraction, got 0.1"),
        ({(0.5, 0): 1, (1, 0): 0.1}, r"bad exponent tuple \(0.5, 0\)"),
        # a duplicate key with a bad key: whichever comes first
        ({(1, 0): 1, range(1, -1, -1): 2, (0.5, 0): 1}, r"exponent tuple \(1, 0\) given twice"),
        ({(0.5, 0): 1, (1, 0): 1, range(1, -1, -1): 2}, r"bad exponent tuple \(0.5, 0\)"),
    ],
)
def test_first_fault_names_the_message(terms, message):
    with pytest.raises(ValueError, match=f"^{message}"):
        Polynomial(2, terms)


@given(rational_polynomials())
def test_identity_scales_equal_general_arithmetic(p):
    n = p.n_vars
    assert p.scale(1) == Polynomial(n, {e: c * 1 for e, c in p.terms.items()}) == p
    assert p.scale(Fraction(1)) == p
    assert p.scale(-1) == Polynomial(n, {e: c * -1 for e, c in p.terms.items()}) == -p
    assert p.scale(Fraction(-1)) == -p
    assert p.scale(-1).scale(-1) == p


@given(rational_polynomials(), st.integers(1, 8))
def test_diff_equals_the_general_power_rule(p, i):
    i = (i - 1) % p.n_vars + 1
    power_rule = {
        e[: i - 1] + (e[i - 1] - 1,) + e[i:]: c * e[i - 1]
        for e, c in p.terms.items()
        if e[i - 1]
    }
    assert p.diff(i) == Polynomial(p.n_vars, power_rule)


@st.composite
def polynomial_pairs(draw):
    """Two polynomials over the same variables, with few keys and small
    coefficients, so that sums often cancel."""
    n = draw(st.integers(1, 4))
    exps = st.tuples(*[st.integers(0, 2) for _ in range(n)])
    coeff = st.integers(-3, 3) | st.fractions(-3, 3, max_denominator=3)
    p, q = (Polynomial(n, draw(st.dictionaries(exps, coeff, max_size=6))) for _ in range(2))
    return p, q


def assert_canonical(r):
    assert Polynomial(r.n_vars, r.terms).terms == r.terms
    assert all(r.terms.values())
    assert {type(c) for c in r.terms.values()} <= {int, Fraction}


@given(polynomial_pairs(), st.integers(1, 4),
       st.sampled_from([0, 1, -1, 2, -3, Fraction(1, 2), Fraction(-2, 3), Fraction(0), Fraction(1)]))
@settings(max_examples=300)
def test_results_are_canonical_by_construction(pair, i, c):
    # diff, scale, - and + skip the constructor's checks; what they build
    # must be what the constructor would accept and keep unchanged
    p, q = pair
    i = (i - 1) % p.n_vars + 1
    for r in (p.diff(i), p.scale(c), -p, p + q, p - q, p + (-p), p - p):
        assert_canonical(r)
    assert (p + q).terms == canonical_key_by_key(
        p.n_vars, {e: p.terms.get(e, 0) + q.terms.get(e, 0) for e in {*p.terms, *q.terms}}
    )
    assert p.scale(c).terms == canonical_key_by_key(p.n_vars, {e: c * v for e, v in p.terms.items()})


def test_integer_coefficients_stay_integers():
    assert type(Polynomial(1, {(1,): True}).terms[(1,)]) is int
    assert {type(c) for c in parse_polynomial("3*x1 - 2*x2 + 6 - x1^2*2", 2).terms.values()} == {int}
    assert type(parse_polynomial("1/2*x1", 1).terms[(1,)]) is Fraction
    p = Polynomial(2, {(3, 1): 2, (0, 2): -5})
    for r in (p.diff(1), p.diff(2), p.scale(3), -p, p + p, p - p.scale(2)):
        assert {type(c) for c in r.terms.values()} <= {int}
    # equal to the Fraction form, with the same hash and rendering
    q = Polynomial(2, {e: Fraction(c) for e, c in p.terms.items()})
    assert p == q and hash(p) == hash(q) and str(p) == str(q)


@given(
    st.lists(
        st.tuples(
            st.sampled_from(["+", "-"]),
            st.sampled_from(["0", "1", "2", "1/2", "3/6", "4/2", "0/5"]),
            st.tuples(*[st.integers(0, 2) for _ in range(3)]),
        ),
        min_size=1,
        max_size=8,
    )
)
def test_parsed_results_are_canonical(terms):
    # the parser builds its result without the constructor's checks; repeated
    # monomials with coefficients like 1/2 and 3/6 cancel or sum to integers
    text = " ".join(f"{sign} {c}*x1^{a}*x2^{b}*x3^{e}" for sign, c, (a, b, e) in terms)
    assert_canonical(parse_polynomial(text, 3))


@pytest.mark.parametrize("text", ["x1 - x1", "1/2*x1 - 1/2*x1", "0", "2/4*x2 + 0 - 1/2*x2"])
def test_parse_drops_the_zeros_that_terms_make(text):
    p = parse_polynomial(text, 3)
    assert p.terms == {} and p.is_zero() and str(p) == "0"


@pytest.mark.parametrize("text", ["3", "1/2 - 1/2", "0"])
@pytest.mark.parametrize("n_vars", [0, -1])
def test_parse_needs_at_least_one_variable(text, n_vars):
    with pytest.raises(ValueError) as info:
        parse_polynomial(text, n_vars)
    assert str(info.value) == f"variable count must be >= 1, got {n_vars}"


# ------------------------------------------------------------ the grammar
# Text drawn from the grammar in parse_polynomial's docstring, with
# whitespace between tokens, runs of signs and leading zeros, and the
# polynomial that the drawn structure spells.

def digits(draw, value):
    return "0" * draw(st.integers(0, 2)) + str(value)


@st.composite
def grammar_texts(draw, n):
    tokens, expected = [], Polynomial.zero(n)
    for t in range(draw(st.integers(1, 5))):
        signs = draw(st.text("+-", min_size=0 if t == 0 else 1, max_size=3))
        tokens += signs
        coeff, exps = Fraction((-1) ** signs.count("-")), [0] * n
        for f in range(draw(st.integers(1, 3))):
            if f:
                tokens.append("*")
            if draw(st.booleans()):
                num, den = draw(st.integers(0, 12)), draw(st.none() | st.integers(1, 9))
                tokens.append(digits(draw, num) + ("" if den is None else "/" + digits(draw, den)))
                coeff *= Fraction(num, den or 1)
            else:
                i, power = draw(st.integers(1, n)), draw(st.none() | st.integers(0, 4))
                tokens.append("x" + digits(draw, i))
                if power is not None:
                    tokens += ["^", digits(draw, power)]
                exps[i - 1] += 1 if power is None else power
        expected = expected + Polynomial.monomial(n, exps, coeff)
    space = st.text(" \t\n", max_size=2)
    text = draw(space) + "".join(tok + draw(space) for tok in tokens)
    return n, text, expected


@given(st.integers(1, 4).flatmap(grammar_texts))
@settings(max_examples=200)
def test_grammar_texts_parse_to_what_they_spell(case):
    n, text, expected = case
    p = parse_polynomial(text, n)
    assert p == expected
    assert parse_polynomial(str(p), n) == p


# every message the parser raises on text within the digit limit
PARSER_MESSAGES = re.compile(
    r"empty polynomial|unexpected end of polynomial|zero denominator in '[0-9]+/[0-9]+'"
    r"|variable x[0-9]+ out of range for n=[0-9]+|expected integer exponent after '\^'"
    r"|unexpected token '[-+*^]'|expected '\+' or '-', got '[^']+'"
    r"|cannot parse polynomial near '.*'",
    re.DOTALL,
)


@given(st.integers(3, 5).flatmap(grammar_texts), st.data())
@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_one_changed_character_parses_or_is_refused_as_a_usage_error(capsys, case, data):
    # the vector syntax around a polynomial takes ',', '[' and ']', so the
    # change draws none of them
    n, text, _ = case
    pos = data.draw(st.integers(0, len(text) - 1))
    text = text[:pos] + data.draw(st.sampled_from("0123456789x+-*/^ \t" + "y?._(٣")) + text[pos + 1:]
    got = outcome(parse_polynomial, text, n)
    if not isinstance(got, Polynomial):
        assert got[0] == "ValueError" and PARSER_MESSAGES.fullmatch(got[1])
    # as the only component of apply's input, whose items are stripped
    code = main(["apply", "--n", str(n), "--word", "1", "--input", f"[{text}]", "--format", "plain"])
    out, err = capsys.readouterr()
    got = outcome(parse_polynomial, text.strip(), n)
    if isinstance(got, Polynomial):
        grad = ", ".join(str(got.diff(i)) for i in range(1, n + 1))
        assert (code, out, err) == (0, f"[{grad}]\n", "")
    else:
        assert (code, out, err) == (2, "", f"error: bad polynomial: {got[1]}\n")
