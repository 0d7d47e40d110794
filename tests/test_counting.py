import itertools
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nablachains import (
    CompositionWord,
    EnumerationCapError,
    TrivialityClass,
    brute_force_count,
    build_adjacency,
    classify_word,
    count_per_start,
    count_sequence,
    count_total,
    enumerate_words,
    is_composable,
    successors,
)
from nablachains import counting
from nablachains.graph import total_count_polynomial


def fib(k: int) -> int:
    a, b = 1, 1
    for _ in range(k - 1):
        a, b = b, a + b
    return a


def test_per_start_k1_is_all_ones():
    assert count_per_start(3, 1) == (1, 1, 1)
    assert count_per_start(7, 1) == (1,) * 7


def test_per_start_small_n3():
    assert count_per_start(3, 2) == (2, 2, 1)
    assert count_per_start(3, 3) == (3, 3, 2)


def test_count_total_known_values():
    assert count_total(3, 0) == 1
    assert count_total(3, 5) == 21
    assert count_total(3, 10) == 233
    assert count_total(4, 3) == 8


def test_count_sequence_known_values():
    assert count_sequence(3, 5).values == (3, 5, 8, 13, 21)
    assert count_sequence(4, 4).values == (4, 6, 8, 12)
    assert count_sequence(3, 1).values == (3,)


def test_count_sequence_agrees_with_count_total():
    for n in (3, 4, 5, 7):
        seq = count_sequence(n, 12)
        for k in range(1, 13):
            assert seq.values[k - 1] == count_total(n, k)


def test_domain_errors():
    with pytest.raises(ValueError):
        count_per_start(3, 0)
    with pytest.raises(ValueError):
        count_total(3, -1)
    with pytest.raises(ValueError):
        count_sequence(3, 0)
    with pytest.raises(ValueError):
        count_total(2, 3)


def test_enumerate_words_n3_k2():
    words = enumerate_words(3, 2)
    assert [w.indices for w in words] == [(1, 2), (1, 3), (2, 2), (2, 3), (3, 1)]


def test_enumerate_words_k1():
    assert [w.indices for w in enumerate_words(3, 1)] == [(1,), (2,), (3,)]


def test_enumerate_words_n4_k2_cardinality():
    assert len(enumerate_words(4, 2)) == 6


def test_enumerate_words_lexicographic_and_meaningful():
    for n in (3, 4, 5):
        for k in (2, 3, 4):
            words = [w.indices for w in enumerate_words(n, k)]
            assert words == sorted(words)
            assert len(set(words)) == len(words)
            for w in words:
                assert all(is_composable(a, b, n) for a, b in zip(w, w[1:]))


@pytest.mark.parametrize("n", range(3, 8))
@pytest.mark.parametrize("k", range(1, 7))
def test_enumerate_words_is_the_composable_product(n, k):
    # the oracle filters every index tuple by the predicate, in product
    # order, and never asks for successors
    want = [
        t for t in itertools.product(range(1, n + 1), repeat=k)
        if all(is_composable(a, b, n) for a, b in zip(t, t[1:]))
    ]
    assert [w.indices for w in enumerate_words(n, k)] == want


def _searched_words(n, k):
    """Every meaningful length-k word, in order, by plain depth-first search
    over successors: the oracle for the walk's rows."""
    found = []

    def extend(word):
        if len(word) == k:
            found.append(word)
            return
        for j in successors(word[-1], n):
            extend(word + (j,))

    for i in range(1, n + 1):
        extend((i,))
    return found


@pytest.mark.parametrize("n", range(3, 9))
def test_walk_rows_are_the_searched_words_with_their_zero_flag(n):
    for k in range(1, 8):
        rows = list(counting._iter_words(n, k))
        assert [w for w, _ in rows] == _searched_words(n, k)
        for w, zero in rows:
            assert zero == (classify_word(CompositionWord(n, w)) is TrivialityClass.ZERO)


@pytest.mark.parametrize("n", range(3, 13))
def test_cap_walk_returns_the_total_it_reached(n):
    for k in range(1, 21):
        total = count_total(n, k)
        assert counting._check_enumeration_cap(n, k, cap=total) == total
        with pytest.raises(EnumerationCapError):
            counting._check_enumeration_cap(n, k, cap=total - 1)


def test_enumeration_cap():
    with pytest.raises(EnumerationCapError) as exc:
        enumerate_words(3, 10, cap=10)
    assert "10" in str(exc.value)


@pytest.mark.parametrize("length", [25_000, 10_000_000])
def test_enumeration_cap_stops_at_first_total_above_it(length):
    # f(k) at these lengths has thousands to millions of digits; the cap
    # check must neither compute it nor format it
    start = time.monotonic()
    with pytest.raises(EnumerationCapError) as exc:
        enumerate_words(3, length)
    assert time.monotonic() - start < 5.0
    assert exc.value.count == fib(31)  # f(28), the first total above 10**6
    assert str(exc.value) == (
        "enumeration of at least 1346269 words exceeds the cap of 1000000"
    )


def test_brute_force_known_values():
    assert brute_force_count(3, 4) == 13
    assert brute_force_count(4, 2) == 6
    assert brute_force_count(3, 0) == 1


@pytest.mark.parametrize("n", range(3, 9))
def test_oracle_equivalence(n):
    # k runs past n + d, the last stepped value, for every n here
    for k in range(1, 16):
        assert brute_force_count(n, k) == count_total(n, k)


def test_fibonacci_law():
    for k in range(1, 31):
        assert count_total(3, k) == fib(k + 3)


@pytest.mark.parametrize("n", range(3, 7))
def test_decomposition(n):
    for k in range(1, 9):
        assert sum(count_per_start(n, k)) == count_total(n, k)


@pytest.mark.parametrize("n", range(3, 7))
def test_enumeration_matches_counts(n):
    for k in range(1, 6):
        assert len(enumerate_words(n, k)) == brute_force_count(n, k)


@pytest.mark.parametrize("n", range(3, 13))
def test_sequence_positive_and_nondecreasing(n):
    seq = count_sequence(n, 64)
    assert all(v > 0 for v in seq.values)
    assert all(b >= a for a, b in zip(seq.values, seq.values[1:]))


def test_counts_exceed_64_bits_without_overflow():
    # Fibonacci growth passes 2^63 near k = 90 for n = 3
    assert count_total(3, 200) > 2**63


def stepped_total(n: int, k: int) -> int:
    return sum(count_per_start(n, k)) if k else 1


@settings(max_examples=200, deadline=None)
@given(n=st.integers(3, 64), k=st.integers(0, 3000))
def test_jumps_agree_with_stepping(n, k):
    assert count_total(n, k) == stepped_total(n, k)


@pytest.mark.parametrize(
    "n, wrong_g",
    [
        (5, (-1, -1, 1)),  # n = 3's polynomial
        (64, (-1,) + total_count_polynomial(64)[1:]),  # constant term off by one
        (9, total_count_polynomial(9)[:-1] + (0, 1)),  # true g with t^d raised to t^(d+1)
    ],
)
def test_uncertified_polynomial_falls_back_to_stepping(monkeypatch, n, wrong_g):
    d = len(wrong_g) - 1
    values = count_sequence(n, n + d).values
    # the certificate's first window already fails, so a jump would be wrong
    assert sum(c * f for c, f in zip(wrong_g, values))
    monkeypatch.setattr(counting, "total_count_polynomial", lambda n: wrong_g)
    for k in (n + d + 1, 3 * n + 40, 700):
        assert count_total(n, k) == stepped_total(n, k)


def walk_counter(monkeypatch) -> list[int]:
    """Patch counting._walk to count the vectors its callers take; the list
    holds one count per call."""
    taken, walk = [], counting._walk

    def counted(*args):
        taken.append(0)
        for v in walk(*args):
            taken[-1] += 1
            yield v

    monkeypatch.setattr(counting, "_walk", counted)
    return taken


@pytest.mark.parametrize("n", range(3, 65))
def test_jump_boundary(monkeypatch, n):
    # k <= d + 2 returns a stepped vector's total and k = d + 3 is the first
    # jump, made after the d + 2 vectors that certify g
    d = len(total_count_polynomial(n)) - 1
    ks = (d + 1, d + 2, d + 3)
    want = [stepped_total(n, k) for k in ks]
    taken = walk_counter(monkeypatch)
    assert [count_total(n, k) for k in ks] == want
    assert taken == [d + 1, d + 2, d + 2]


@pytest.mark.parametrize("n", range(3, 65))
def test_certificate_holds_on_d_plus_2_vectors(monkeypatch, n):
    # the true g is certified at every n here, so no total steps on past the
    # d + 2 vectors of the certificate; n + d - 1..n + d + 1 straddled the
    # first jump of an older certificate on n windows of f(1..n+d)
    d = len(total_count_polynomial(n)) - 1
    ks = (n + d - 1, n + d, n + d + 1, 3 * n + 40, 700)
    want = [stepped_total(n, k) for k in ks]
    taken = walk_counter(monkeypatch)
    assert [count_total(n, k) for k in ks] == want
    assert taken == [d + 2] * 5


@pytest.mark.parametrize("n", [*range(3, 65), 100, 127, 128, 255])
def test_vector_check_implies_the_scalar_check(n):
    # rows i and n - i of A are both {i + 1, n + 1 - i} and row n is {1}, so
    # w^T A = 2 1^T for this w; A g(A) 1 = 0 then gives 2 1^T g(A) 1 = 0,
    # which is why count_total checks only the vector A g(A) 1
    a = build_adjacency(n)
    w = [1] * n
    w[n - 1] = 2
    if n % 2 == 0:
        w[n // 2 - 1] = 2
    assert [sum(wi * row[j] for wi, row in zip(w, a)) for j in range(n)] == [2] * n


@pytest.mark.parametrize("n", [3, 4, 8, 9, 16, 63, 64])
def test_polynomial_passing_only_the_scalar_check_falls_back(monkeypatch, n):
    # g + f(2) - f(1) t keeps h(1) = sum_i g_i f(i+1) at zero, but A g(A) 1,
    # sum_i g_i v(i+2), is not zero, so the jump it would make is wrong
    g = total_count_polynomial(n)
    d = len(g) - 1
    values = count_sequence(n, d + 2).values
    wrong_g = (g[0] + values[1], g[1] - values[0]) + g[2:]
    assert sum(c * f for c, f in zip(wrong_g, values)) == 0
    vectors = [count_per_start(n, s) for s in range(2, d + 3)]
    assert any(sum(c * v[j] for c, v in zip(wrong_g, vectors)) for j in range(n))
    jump = sum(r * f for r, f in zip(counting._power_mod(699, wrong_g), values))
    assert jump != stepped_total(n, 700)
    ks = (d + 3, 3 * n + 40, 700)
    want = [stepped_total(n, k) for k in ks]
    monkeypatch.setattr(counting, "total_count_polynomial", lambda n: wrong_g)
    taken = walk_counter(monkeypatch)
    assert [count_total(n, k) for k in ks] == want
    assert taken == list(ks)
