import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nablachains import Polynomial, parse_polynomial


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


@pytest.mark.parametrize("key", [(0.5,), (1.0,), ("1",), (-1,), (1, 0), ()])
def test_constructor_rejects_malformed_exponents(key):
    with pytest.raises(ValueError, match="bad exponent tuple"):
        Polynomial(1, {key: 1})


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
