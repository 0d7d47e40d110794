"""Recurrence derivation tests.

The total-count sequence needs the reference table's row in full only at
n = 3, 4, 5, 7 and 9, and rows 7 and 8 were once shipped with slips (kept
below in MISTRANSCRIBED_ROWS); reference_recurrences' docstring states the
finding in full.
"""

import math
import sys
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from nablachains import (
    CountSequence,
    IntegerPolynomial,
    Recurrence,
    build_adjacency,
    characteristic_polynomial,
    count_sequence,
    minimal_recurrence,
    recurrence_from_polynomial,
    reference_recurrences,
    verify_recurrence,
)
from nablachains.graph import total_count_polynomial
from nablachains.polynomial import join_signed

# reference rows the total-count sequence needs in full
TABLE_MATCHES_MINIMAL = (3, 4, 5, 7, 9)
# rows that hold; the total sequence satisfies a shorter divisor
TABLE_VALID_NOT_MINIMAL = (6, 8, 10)
# rows corrected after being shipped with a slip
TABLE_CORRECTED = (7, 8)

# the rows as shipped before the correction; neither holds on the counts
MISTRANSCRIBED_ROWS = {
    7: (0, 1, 3, -2, -1),
    8: (4, 0, 0, -3),
}

# independently derived minimal recurrences (order, coefficients)
TRUE_MINIMAL = {
    3: (1, 1),
    4: (0, 2),
    5: (1, 2, -1),
    6: (1, 1),
    7: (1, 3, -2, -1),
    8: (0, 3),
    9: (1, 4, -3, -3, 1),
    10: (1, 2, -1),
}


def test_characteristic_polynomial_n3():
    p = characteristic_polynomial(build_adjacency(3))
    assert p.coefficients == (0, -1, -1, 1)


def test_characteristic_polynomial_identity():
    ident = [[1 if i == j else 0 for j in range(3)] for i in range(3)]
    p = characteristic_polynomial(ident)
    # (t - 1)^3
    assert p.coefficients == (-1, 3, -3, 1)


@pytest.mark.parametrize("n", range(3, 13))
def test_characteristic_polynomial_is_monic_degree_n(n):
    p = characteristic_polynomial(build_adjacency(n))
    assert p.degree == n
    assert p.is_monic()


def test_characteristic_polynomial_rejects_non_square():
    for bad in ([[1, 2, 3], [4, 5, 6]], [[1], [2, 3]], [[1, 2]]):
        with pytest.raises(ValueError, match="matrix must be square"):
            characteristic_polynomial(bad)
    assert characteristic_polynomial([]).coefficients == (1,)


@pytest.mark.parametrize(
    "a, message",
    [
        ([[0.5]], "matrix entry 0.5 at row 0, column 0 is not an int"),
        ([[1, 2], [3, "4"]], "matrix entry '4' at row 1, column 1 is not an int"),
        ([[0, True], [1, 0]], "matrix entry True at row 0, column 1 is not an int"),
        ([[1, Fraction(1, 2)], [0, 1]], "matrix entry Fraction(1, 2) at row 0, column 1 is not an int"),
    ],
    ids=["float", "str", "bool", "Fraction"],
)
def test_characteristic_polynomial_names_an_entry_that_is_not_an_int(a, message):
    with pytest.raises(ValueError) as info:
        characteristic_polynomial(a)
    assert str(info.value) == message


def test_characteristic_polynomial_takes_a_zero_of_any_type():
    # a zero adds nothing to any power of the matrix
    assert characteristic_polynomial([[1, 0.0], [False, 2]]).coefficients == (2, -3, 1)


def _bareiss_det(m: list[list[int]]) -> int:
    """Determinant by fraction-free (Bareiss) elimination; every // is exact."""
    m = [row[:] for row in m]
    size, sign, prev = len(m), 1, 1
    for k in range(size - 1):
        if m[k][k] == 0:
            pivot = next((i for i in range(k + 1, size) if m[i][k]), None)
            if pivot is None:
                return 0
            m[k], m[pivot] = m[pivot], m[k]
            sign = -sign
        for i in range(k + 1, size):
            for j in range(k + 1, size):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
        prev = m[k][k]
    return sign * m[-1][-1] if size else 1


@st.composite
def _integer_matrices(draw):
    """Square integer matrices of size 0..7: dense, or at most two nonzeros a row."""
    size = draw(st.integers(0, 7))
    entry = st.integers(-1000, 1000)
    if draw(st.booleans()):
        return [draw(st.lists(entry, min_size=size, max_size=size)) for _ in range(size)]
    matrix = [[0] * size for _ in range(size)]
    for row in matrix:
        for s in draw(st.lists(st.integers(0, size - 1), max_size=2)):
            row[s] = draw(entry)
    return matrix


def _assert_agrees_with_bareiss(a: list[list[int]]) -> None:
    p = characteristic_polynomial(a).coefficients
    size = len(a)
    assert len(p) == size + 1 and p[-1] == 1
    # size + 1 points fix a polynomial of degree size
    for x in range(size + 1):
        shifted = [[(x if r == c else 0) - a[r][c] for c in range(size)] for r in range(size)]
        assert sum(c * x**i for i, c in enumerate(p)) == _bareiss_det(shifted)


@settings(max_examples=300, deadline=None)
@given(a=_integer_matrices())
def test_characteristic_polynomial_agrees_with_bareiss_determinant(a):
    _assert_agrees_with_bareiss(a)


def _count_hankel(n: int, d: int) -> list[list[int]]:
    """The d x d Hankel matrix of total counts, as verify builds it."""
    values = count_sequence(n, 2 * d).values
    return [list(values[i : i + d]) for i in range(d)]


_BIG = 10**40

# Matrices whose powers meet the bound |(A^k)[r][s]| <= R^k that sizes the
# packed digits (R the largest absolute row sum): a single entry, or a whole
# row, of A^n equal to +-R^n, negative entries that need the digit offset,
# and entries far wider than a machine word.
WIDTH_EDGE_MATRICES = {
    **{f"ones{m}": [[1] * m for _ in range(m)] for m in (1, 2, 3, 5, 8)},
    **{f"neg{r}": [[-r]] for r in (1, 2, 3, 5, 7, 2**64 - 1, _BIG + 1)},
    **{f"diag{r}": [[-r, 0], [0, r]] for r in (1, 3, 5, 2**31 + 1, _BIG)},
    "neg_ones3": [[-1] * 3 for _ in range(3)],
    "big_signs": [
        [_BIG, -_BIG, _BIG, -_BIG],
        [-_BIG, -_BIG, _BIG, _BIG],
        [_BIG, _BIG, -_BIG, _BIG],
        [-_BIG, _BIG, _BIG, -_BIG],
    ],
    "big_sparse": [[0, _BIG, 0], [0, 0, -_BIG], [_BIG, 0, 0]],
    **{f"hankel{n}_{d}": _count_hankel(n, d) for n, d in ((3, 2), (5, 3), (9, 5), (10, 6), (12, 7))},
}


@pytest.mark.parametrize("name", sorted(WIDTH_EDGE_MATRICES))
def test_characteristic_polynomial_at_the_digit_width_bound(name):
    a = WIDTH_EDGE_MATRICES[name]
    _assert_agrees_with_bareiss(a)
    assert characteristic_polynomial(a).coefficients == _dense_faddeev_leverrier(a)


def test_characteristic_polynomial_of_width_edge_closed_forms():
    for m in (1, 2, 3, 5, 8):
        # J_m has eigenvalues m and 0 (m - 1 times): t^(m-1) (t - m)
        ones = WIDTH_EDGE_MATRICES[f"ones{m}"]
        assert characteristic_polynomial(ones).coefficients == (0,) * (m - 1) + (-m, 1)
    for r in (3, _BIG + 1):
        assert characteristic_polynomial([[-r]]).coefficients == (r, 1)
    for r in (3, _BIG):
        assert characteristic_polynomial([[-r, 0], [0, r]]).coefficients == (-r * r, 0, 1)


def _dense_faddeev_leverrier(a: list[list[int]]) -> tuple[int, ...]:
    """Faddeev-LeVerrier with every product A M_k formed densely, entry by entry."""
    n = len(a)
    mk = [[1 if r == c else 0 for c in range(n)] for r in range(n)]
    coefs = [1]
    for k in range(1, n + 1):
        am = [[sum(a[r][s] * mk[s][c] for s in range(n)) for c in range(n)] for r in range(n)]
        ck, rem = divmod(-sum(am[r][r] for r in range(n)), k)
        assert rem == 0
        coefs.append(ck)
        mk = [[am[r][c] + (ck if r == c else 0) for c in range(n)] for r in range(n)]
    return tuple(reversed(coefs))


@pytest.mark.parametrize("n", range(3, 41))
def test_characteristic_polynomial_matches_dense_products(n):
    a = build_adjacency(n)
    assert characteristic_polynomial(a).coefficients == _dense_faddeev_leverrier(a)


def test_recurrence_from_polynomial_transcription():
    r = recurrence_from_polynomial(IntegerPolynomial((0, -1, -1, 1)))
    assert r.coefficients == (1, 1, 0)
    assert r.valid_from == 4

    r = recurrence_from_polynomial(IntegerPolynomial((-1, -1, 1)))
    assert r.coefficients == (1, 1)

    r = recurrence_from_polynomial(IntegerPolynomial((-2, 0, 1)))
    assert r.coefficients == (0, 2)
    assert r.relation_string() == "f(i+2)=2 f(i)"


def test_recurrence_from_polynomial_requires_monic():
    with pytest.raises(ValueError):
        recurrence_from_polynomial(IntegerPolynomial((1, 1, 2)))


@pytest.mark.parametrize("n", range(3, 13))
def test_characteristic_recurrence_annihilates_counts(n):
    rec = recurrence_from_polynomial(characteristic_polynomial(build_adjacency(n)))
    seq = count_sequence(n, n + 20)
    assert verify_recurrence(rec, seq)


def _holds_at_every_index(r, values):
    # the check verify_recurrence makes, as a plain loop; None: nothing to test
    results = []
    for k in range(1, len(values) + 1):
        if k >= r.valid_from and k > r.order:
            rhs = 0
            for t, c in enumerate(r.coefficients, start=1):
                rhs += c * values[k - t - 1]
            results.append(values[k - 1] == rhs)
    return all(results) if results else None


FIB = (1, 1, 2, 3, 5, 8, 13, 21)


@pytest.mark.parametrize(
    "r, values, expected",
    [
        (Recurrence((1, 1), valid_from=3), FIB, True),
        (Recurrence((1, 1), valid_from=3), FIB[:3], True),  # one applicable index
        (Recurrence((1, 1), valid_from=1), FIB, True),  # from order + 1, not valid_from
        (Recurrence((1, 1), valid_from=5), (9, 9) + FIB[2:], True),  # f(1), f(2) unread
        (Recurrence((1, 1), valid_from=3), (1, 1, 3) + FIB[3:], False),  # only the first breaks
        (Recurrence((1, 1), valid_from=3), FIB[:-1] + (22,), False),  # only the last breaks
        (Recurrence((1, 1), valid_from=3), (1, 1, 7), False),  # the one index breaks
        (Recurrence((2,), valid_from=2), (1, 2, 4, 8, 16), True),
        (Recurrence((2,), valid_from=2), (1, 2, 4, 8, 17), False),
    ],
)
def test_verify_recurrence_at_its_edges(r, values, expected):
    assert _holds_at_every_index(r, values) is expected
    assert verify_recurrence(r, CountSequence(3, values)) is expected


@pytest.mark.parametrize(
    "r, values",
    [
        (Recurrence((1, 1), valid_from=3), (1, 1)),  # order 2 needs a third term
        (Recurrence((1, 1), valid_from=9), FIB),  # valid only past the end
        (Recurrence((2,), valid_from=1), (5,)),
        (Recurrence((2,), valid_from=1), ()),
    ],
)
def test_verify_recurrence_refuses_a_sequence_with_no_applicable_index(r, values):
    assert _holds_at_every_index(r, values) is None
    with pytest.raises(ValueError, match="^sequence too short to test the recurrence$"):
        verify_recurrence(r, CountSequence(3, values))


def test_minimal_recurrence_n3():
    r = minimal_recurrence(count_sequence(3, 14))
    assert r.coefficients == (1, 1)
    assert r.relation_string() == "f(i+2)=f(i+1) + f(i)"


def test_minimal_recurrence_constant_sequence():
    r = minimal_recurrence(CountSequence(3, (7,) * 12))
    assert r.coefficients == (1,)


def test_minimal_recurrence_needs_enough_terms():
    with pytest.raises(ValueError):
        minimal_recurrence(count_sequence(3, 9))


def test_no_fit_raises():
    # factorial growth has no fixed-order linear recurrence
    values = tuple(math.factorial(k) for k in range(1, 12))
    with pytest.raises(ValueError, match="no linear recurrence of order <= 3"):
        minimal_recurrence(CountSequence(3, values))


def test_all_zero_sequence_raises():
    with pytest.raises(ValueError, match="no linear recurrence of order <= 3"):
        minimal_recurrence(CountSequence(3, (0,) * 10))


def test_relation_ending_in_zero_raises():
    # f(k) = 2 f(k-1) holds only from k = 3: the shortest relation from the
    # first term is f(k) = 2 f(k-1) + 0 f(k-2), and c_d = 0 is rejected
    values = (5,) + tuple(2**k for k in range(1, 12))
    with pytest.raises(ValueError, match="no linear recurrence of order <= 3"):
        minimal_recurrence(CountSequence(3, values))


@pytest.mark.parametrize("n", range(3, 11))
def test_minimal_recurrence_matches_independent_derivation(n):
    r = minimal_recurrence(count_sequence(n, 2 * n + 8))
    assert r.coefficients == TRUE_MINIMAL[n]


@pytest.mark.parametrize("n", range(3, 11))
def test_minimal_recurrence_holds_far_beyond_fit_window(n):
    r = minimal_recurrence(count_sequence(n, 2 * n + 8))
    assert verify_recurrence(r, count_sequence(n, 80))


@pytest.mark.parametrize("n", TABLE_MATCHES_MINIMAL)
def test_reference_rows_that_are_minimal(n):
    r = minimal_recurrence(count_sequence(n, 2 * n + 8))
    assert r == reference_recurrences()[n]


@pytest.mark.parametrize("n", TABLE_VALID_NOT_MINIMAL)
def test_reference_rows_valid_but_not_minimal(n):
    ref = reference_recurrences()[n]
    seq = count_sequence(n, 60)
    assert verify_recurrence(ref, seq)
    r = minimal_recurrence(count_sequence(n, 2 * n + 8))
    assert r.order < ref.order
    assert _poly_divides(_recurrence_polynomial(r), _recurrence_polynomial(ref))


@pytest.mark.parametrize("n", range(3, 11))
def test_reference_rows_are_characteristic_recurrence_without_zero_roots(n):
    p = characteristic_polynomial(build_adjacency(n)).coefficients
    e = next(i for i, c in enumerate(p) if c)
    expected = recurrence_from_polynomial(IntegerPolynomial(p[e:]))
    assert reference_recurrences()[n] == expected


@pytest.mark.parametrize("n", TABLE_CORRECTED)
def test_reference_rows_that_fail_on_the_true_counts(n):
    seq = count_sequence(n, 60)
    old = MISTRANSCRIBED_ROWS[n]
    assert not verify_recurrence(Recurrence(old, valid_from=len(old) + 1), seq)
    assert verify_recurrence(reference_recurrences()[n], seq)


def test_row7_is_the_minimal_relation_shifted():
    # The old n=7 row had the minimal order-4 coefficients under an order-5
    # left side; the unshifted relation is the true one and is now shipped.
    assert MISTRANSCRIBED_ROWS[7] == (0,) + TRUE_MINIMAL[7]
    ref = reference_recurrences()[7]
    assert ref.coefficients == TRUE_MINIMAL[7]
    assert verify_recurrence(ref, count_sequence(7, 60))


def test_row8_is_the_characteristic_relation_with_lead_swapped():
    # t^4 - 4t^2 + 3 gives (0, 4, 0, -3); the old row swapped c_1 and c_2
    old = MISTRANSCRIBED_ROWS[8]
    ref = reference_recurrences()[8]
    assert ref.coefficients == (0, 4, 0, -3)
    assert (old[1], old[0]) + old[2:] == ref.coefficients


def _hankel_nonsingular(values: tuple[int, ...], d: int) -> bool:
    """The d x d Hankel matrix [values[i:i+d] for i < d] is nonsingular.

    A relation of order e < d holding from the first term makes column e a
    combination of columns 0..e-1, so nonsingularity rules out every shorter
    relation.  det(-H) is the constant term of the characteristic polynomial.
    """
    hankel = [list(values[i : i + d]) for i in range(d)]
    return characteristic_polynomial(hankel).coefficients[0] != 0


@pytest.mark.parametrize("n", range(3, 11))
def test_minimality_no_shorter_recurrence_fits(n):
    values = count_sequence(n, 2 * n + 8).values
    r = minimal_recurrence(count_sequence(n, 2 * n + 8))
    assert _hankel_nonsingular(values, r.order)


def test_minimal_recurrence_annihilates_and_is_certified_n3_to_32():
    for n in range(3, 33):
        r = minimal_recurrence(count_sequence(n, 2 * n + 8))
        long_seq = count_sequence(n, 4 * n + 16)
        assert verify_recurrence(r, long_seq), n
        assert _hankel_nonsingular(long_seq.values, r.order), n


@settings(max_examples=200, deadline=None)
@given(
    coeffs=st.lists(st.integers(-5, 5), min_size=1, max_size=6).filter(lambda c: c[-1]),
    start=st.lists(st.integers(-5, 5), min_size=6, max_size=6),
)
def test_minimal_recurrence_of_generated_sequence(coeffs, start):
    # a sequence made by an integer recurrence of order g <= 6 with c_g != 0
    g = len(coeffs)
    values = start[:g]
    assume(any(values))
    while len(values) < 2 * 6 + 4:
        values.append(sum(c * values[-t] for t, c in enumerate(coeffs, start=1)))
    seq = CountSequence(6, tuple(values))
    r = minimal_recurrence(seq)
    assert r.order <= g
    assert r.coefficients[-1] != 0
    assert verify_recurrence(r, seq)
    assert _hankel_nonsingular(seq.values, r.order)


def _rational_berlekamp_massey(seq: CountSequence) -> Recurrence:
    """Berlekamp-Massey over the rationals, as the library once computed
    minimal_recurrence: the same pass, with conn kept monic in x^0."""
    n, values = seq.n, seq.values
    if len(values) < 2 * n + 4:
        raise ValueError(
            f"need at least {2 * n + 4} terms for n={n}, got {len(values)}"
        )
    conn, prev = [Fraction(1)], [Fraction(1)]
    order, gap, prev_disc = 0, 1, Fraction(1)
    for k in range(len(values)):
        disc = sum(c * v for c, v in zip(conn, values[k::-1]))
        if disc:
            new = conn + [Fraction(0)] * (gap + len(prev) - len(conn))
            scale = disc / prev_disc
            for i, c in enumerate(prev):
                new[gap + i] -= scale * c
            if 2 * order <= k:
                prev, prev_disc, order, gap = conn, disc, k + 1 - order, 0
            conn = new
        gap += 1
    coeffs = [-c for c in (conn + [Fraction(0)] * order)[1 : order + 1]]
    if not 0 < order <= n or coeffs[-1] == 0 or any(c.denominator != 1 for c in coeffs):
        raise ValueError(
            f"no linear recurrence of order <= {n} fits the sequence for n={n}"
        )
    return Recurrence(tuple(int(c) for c in coeffs), valid_from=order + 1)


def _assert_matches_rational_berlekamp_massey(seq: CountSequence) -> None:
    try:
        expected = _rational_berlekamp_massey(seq)
    except ValueError as exc:
        with pytest.raises(ValueError) as info:
            minimal_recurrence(seq)
        assert str(info.value) == str(exc)
    else:
        assert minimal_recurrence(seq) == expected


@st.composite
def _integer_sequences(draw):
    """CountSequences for n = 1..6: random terms, or terms of a recurrence with
    rational coefficients cleared of denominators, so that some fits have
    integer coefficients and some do not."""
    n = draw(st.integers(1, 6))
    length = draw(st.integers(2 * n + 2, 2 * n + 10))
    if draw(st.booleans()):
        terms = draw(st.lists(st.integers(-50, 50), min_size=length, max_size=length))
        return CountSequence(n, tuple(terms))
    order = draw(st.integers(1, n + 1))
    coeffs = [
        Fraction(draw(st.integers(-6, 6)), draw(st.sampled_from((1, 1, 1, 2, 3))))
        for _ in range(order)
    ]
    terms = [Fraction(draw(st.integers(-9, 9))) for _ in range(order)]
    while len(terms) < length:
        terms.append(sum(c * terms[-t] for t, c in enumerate(coeffs, start=1)))
    scale = math.lcm(*(t.denominator for t in terms))
    return CountSequence(n, tuple(int(t * scale) for t in terms))


@settings(max_examples=500, deadline=None)
@given(seq=_integer_sequences())
def test_minimal_recurrence_matches_rational_berlekamp_massey(seq):
    _assert_matches_rational_berlekamp_massey(seq)


@pytest.mark.parametrize(
    "seq",
    [
        # all zeros: order 0
        CountSequence(3, (0,) * 10),
        # factorials: no fit of order <= n
        CountSequence(3, tuple(math.factorial(k) for k in range(1, 12))),
        # f(k) = 2 f(k-1) only from k = 3: c_d = 0
        CountSequence(3, (5,) + tuple(2**k for k in range(1, 12))),
        # f(k) = 3/2 f(k-1): a fit whose coefficient is not an integer
        CountSequence(1, (32, 48, 72, 108, 162, 243)),
        CountSequence(3, tuple(2 ** (9 - k) * 3**k for k in range(10))),
        # too short
        CountSequence(3, (1, 1, 2, 3, 5)),
        # a leading zero, then a fit of full order
        CountSequence(2, (0, 1, 1, 2, 3, 5, 8, 13)),
        # constant and alternating
        CountSequence(2, (7,) * 8),
        CountSequence(2, (1, -1) * 4),
    ],
    ids=[
        "zeros", "factorials", "last_zero", "three_halves_n1", "three_halves_n3",
        "short", "leading_zero", "constant", "alternating",
    ],
)
def test_minimal_recurrence_matches_rational_berlekamp_massey_on_edge_cases(seq):
    _assert_matches_rational_berlekamp_massey(seq)


@pytest.mark.parametrize("n", range(3, 65))
def test_minimal_recurrence_of_counts_matches_rational_berlekamp_massey(n):
    _assert_matches_rational_berlekamp_massey(count_sequence(n, 2 * n + 8))


def _recurrence_polynomial(r: Recurrence) -> tuple[int, ...]:
    """t^d - c_1 t^{d-1} - ... - c_d, ascending coefficients."""
    return tuple(-c for c in reversed(r.coefficients)) + (1,)


def _poly_divides(divisor: tuple[int, ...], dividend: tuple[int, ...]) -> bool:
    """Exact division check for integer polynomials, ascending coefficients."""
    rem = [Fraction(c) for c in dividend]
    d = len(divisor) - 1
    while len(rem) - 1 >= d and any(rem):
        if not rem[-1]:
            rem.pop()
            continue
        factor = rem[-1] / divisor[-1]
        shift = len(rem) - 1 - d
        for i, c in enumerate(divisor):
            rem[shift + i] -= factor * c
        rem.pop()
    return not any(rem)


@pytest.mark.parametrize("n", range(3, 65))
def test_closed_form_is_the_minimal_polynomial_of_the_counts(n):
    r = minimal_recurrence(count_sequence(n, 2 * n + 8))
    assert total_count_polynomial(n) == _recurrence_polynomial(r)


@pytest.mark.parametrize("n", range(3, 11))
def test_minimal_charpoly_divides_matrix_charpoly_times_power_of_t(n):
    r = minimal_recurrence(count_sequence(n, 2 * n + 8))
    minimal_poly = _recurrence_polynomial(r)
    charpoly = characteristic_polynomial(build_adjacency(n)).coefficients
    # multiply the matrix polynomial by t^d to absorb any zero roots
    padded = (0,) * r.order + charpoly
    assert _poly_divides(minimal_poly, padded)


def test_order_zero_renders_its_left_side_as_f_i():
    # f(k) = 0 for k >= valid_from: the left side drops a +0 shift, as the right side does
    assert Recurrence((), 1).relation_string() == "f(i)=0"


def test_relation_rendering():
    assert Recurrence((4, 0, 0, -3), 5).relation_string() == "f(i+4)=4 f(i+3) - 3 f(i)"
    assert Recurrence((0, 5, 0, -6, 0, 1), 7).relation_string() == (
        "f(i+6)=5 f(i+4) - 6 f(i+2) + f(i)"
    )


def _term_loop_str(self) -> str:
    # IntegerPolynomial.__str__ as it was written before it rendered through
    # polynomial's renderer, kept as the oracle
    terms = []
    for p in range(self.degree, -1, -1):
        c = self.coefficients[p]
        if c == 0:
            continue
        mag = abs(c)
        if p == 0:
            body = str(mag)
        else:
            power = "t" if p == 1 else f"t^{p}"
            body = power if mag == 1 else f"{mag}*{power}"
        terms.append((c, body))
    return join_signed(terms)


_DIGIT_LIMIT = sys.get_int_max_str_digits()


@st.composite
def _integer_polynomials(draw):
    # zeros and +-1 often, and magnitudes up to the digit limit: all nines
    # of any length, or any negative int that str() writes
    coefficient = st.one_of(
        st.sampled_from([0, 1, -1]),
        st.integers(-1000, 1000),
        st.integers(1, _DIGIT_LIMIT).map(lambda d: 10**d - 1),
        st.integers(1 - 10**_DIGIT_LIMIT, -1),
    )
    coefficients = draw(st.lists(coefficient, min_size=1, max_size=8))
    while len(coefficients) > 1 and coefficients[-1] == 0:
        coefficients.pop()
    return IntegerPolynomial(coefficients)


@given(_integer_polynomials())
@example(IntegerPolynomial((0,)))
@example(IntegerPolynomial((-7,)))
@example(IntegerPolynomial((1, -1)))
@example(IntegerPolynomial((-2, 0, 1)))
@example(IntegerPolynomial((0, 1, 0, -1)))
@example(IntegerPolynomial((1 - 10**_DIGIT_LIMIT, 10**_DIGIT_LIMIT - 1, -3)))
@settings(max_examples=200, deadline=None)
def test_integer_polynomial_renders_as_its_term_loop(p):
    assert str(p) == _term_loop_str(p)


@pytest.mark.parametrize("coefficients", [(10**_DIGIT_LIMIT, 1), (1, -(10**_DIGIT_LIMIT), 0, 1)])
def test_integer_polynomial_refuses_a_coefficient_past_the_digit_limit(coefficients):
    with pytest.raises(ValueError, match=(
        f"^coefficient too long to print: {_DIGIT_LIMIT + 1} digits \\(limit {_DIGIT_LIMIT}\\)$"
    )):
        str(IntegerPolynomial(coefficients))


@pytest.mark.parametrize("coefficients", [
    (10**_DIGIT_LIMIT,), (1, 0, -(10**_DIGIT_LIMIT), 10**(_DIGIT_LIMIT - 1)),
])
def test_relation_refuses_a_coefficient_past_the_digit_limit(coefficients):
    # named by its digits, as a polynomial's coefficient is, not with str()'s advice
    with pytest.raises(ValueError, match=(
        f"^coefficient too long to print: {_DIGIT_LIMIT + 1} digits \\(limit {_DIGIT_LIMIT}\\)$"
    )):
        Recurrence(coefficients, 1).relation_string()
