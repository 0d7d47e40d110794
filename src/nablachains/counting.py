"""Exact counts of meaningful operator chains.

f_i(k) counts length-k meaningful words whose first-applied operator is
nabla_i; f(k) is the total over all starting operators.  Sequences step
(f_1, ..., f_n) along each operator's successors from all ones; a single
total jumps to f(k) through a certified recurrence.  The depth-first
brute_force_count is a deliberately independent oracle for both.  All
arithmetic is on Python ints, so counts are exact at any size.
"""

from __future__ import annotations

from collections.abc import Iterable
from itertools import islice

from ._record import Record
from .errors import EnumerationCapError
from .graph import _successors, check_bound, check_ints, successors, total_count_polynomial
from .words import CompositionWord

DEFAULT_ENUMERATION_CAP = 10**6


class CountSequence(Record):
    """Totals f(1), ..., f(k_max); values[k-1] is f(k), an int and not a
    bool.  n, an int >= 1, bounds the order minimal_recurrence fits."""

    __match_args__ = ("n", "values")

    def __init__(self, n: int, values: Iterable[int]):
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "values", tuple(values))
        check_bound(n, "n", 1)
        check_ints(self.values, "value")


def _walk(n: int, k: int, one=1):
    """Yield (f_1(t), ..., f_n(t)) for t = 1..k; a step sums, per operator, the
    counts of its one or two successors.  Only the current vector is kept.
    The counts are sums of copies of one: ints by default."""
    # 0-based successor pairs; index n stands for a missing second successor
    # and reads the 0 appended to each padded copy of the vector
    succ = [_successors(i, n) for i in range(1, n + 1)]
    pairs = [(s[0] - 1, s[1] - 1 if len(s) == 2 else n) for s in succ]
    v = [one] * n
    yield v
    for _ in range(k - 1):
        w = v + [0]
        v = [w[a] + w[b] for a, b in pairs]
        yield v


def count_per_start(n: int, k: int) -> tuple[int, ...]:
    """f_i(k) for i = 1..n, via k-1 successor steps from all-ones."""
    check_bound(n, "dimension", 3)
    check_bound(k, "order k", 1)
    for v in _walk(n, k):
        pass
    return tuple(v)


def _power_mod(e: int, g: tuple[int, ...]) -> list[int]:
    """Ascending coefficients of t^e mod g, for monic g of degree d >= 1, by
    binary powering: per bit of e, square, then multiply by t if it is set.
    Each step costs O(d^2) products, so the whole O(d^2 log e)."""
    d = len(g) - 1
    # the nonzero low coefficients; for even n about half of them are zero
    low = [(i, c) for i, c in enumerate(g[:d]) if c]

    def reduce(p: list[int]) -> list[int]:
        # cancel the top coefficient with a multiple of g until degree < d
        while len(p) > d:
            c = p.pop()
            if c:
                base = len(p) - d
                for i, gi in low:
                    p[base + i] -= c * gi
        return p

    r = [1] + [0] * (d - 1)
    for bit in bin(e)[2:]:
        sq = [0] * (2 * d - 1)
        for i, a in enumerate(r):
            if a:
                sq[2 * i] += a * a
                twice = 2 * a
                for j in range(i + 1, d):
                    sq[i + j] += twice * r[j]
        r = reduce(sq)
        if bit == "1":
            r = reduce([0] + r)
    return r


def count_total(n: int, k: int) -> int:
    """f(k); f(0) = 1 by the empty-chain convention.

    With A the adjacency matrix, the walk vectors are v(s) = A^(s-1) 1 and
    f(s) = 1^T v(s).  count_total steps only v(1..d+2), d being the degree
    of g = graph.total_count_polynomial(n), and certifies g by checking
    that the vector sum_i g_i v(i+2) = A g(A) 1 is zero.  Then the g-shifted
    sequence h(s) = sum_i g_i f(s+i) = 1^T A^(s-1) g(A) 1 is zero at every
    s >= 2, as 1^T A^(s-2) (A g(A) 1), and at s = 1 as well: rows i and n - i
    of A are equal for 1 <= i < n and row n is e_1, so w^T A = 2 1^T for w = 1
    but w_n = 2 (and w_{n/2} = 2 at even n), and 2 h(1) = w^T A g(A) 1 = 0.
    So g annihilates f from f(1) on, and the vector is the whole check.
    (g(A) 1 itself need not be zero: at n = 8, 16, 24, ... it is a nonzero
    vector in the kernel of A.)  Then f(k) = sum_i r_i f(i+1) with
    r = t^(k-1) mod g (C. M. Fiduccia, SIAM J. Comput. 14(1), 1985).  For
    k <= d + 2, or if the check fails, the value is stepped instead.
    """
    check_bound(n, "dimension", 3)
    check_bound(k, "order k", 0)
    if k == 0:
        return 1
    g = total_count_polynomial(n)
    d = len(g) - 1
    walk = _walk(n, k)
    vectors = list(islice(walk, d + 2))
    if k <= d + 2:
        return sum(vectors[k - 1])
    prefix = [sum(v) for v in vectors]
    shifted = [0] * n  # A g(A) 1
    for c, v in zip(g, vectors[1:]):
        if c:
            shifted = [x + c * y for x, y in zip(shifted, v)]
    if any(shifted):
        for v in walk:  # g is not certified: step on to f(k)
            pass
        return sum(v)
    return sum(r * f for r, f in zip(_power_mod(k - 1, g), prefix))


def count_sequence(n: int, k_max: int) -> CountSequence:
    """f(1)..f(k_max) in one pass (one successor step per k)."""
    check_bound(n, "dimension", 3)
    check_bound(k_max, "k_max", 1)
    return CountSequence(n, (sum(v) for v in _walk(n, k_max)))


def _check_enumeration_cap(n: int, k: int, cap: int = DEFAULT_ENUMERATION_CAP) -> int:
    """Return f(k) for a length k that check_bound admits (an int >= 1), or
    raise EnumerationCapError if f(k) > cap, an int >= 0.  Totals never
    decrease (every operator has a predecessor), so the first one above the
    cap rules k out before f(k) itself is computed."""
    check_bound(k, "length k", 1)
    check_bound(cap, "cap", 0)
    for v in _walk(n, k):
        if (total := sum(v)) > cap:
            raise EnumerationCapError(total, cap)
    return total


def enumerate_words(
    n: int, k: int, cap: int = DEFAULT_ENUMERATION_CAP
) -> list[CompositionWord]:
    """All meaningful length-k words in lexicographic order of the index tuple."""
    check_bound(n, "dimension", 3)
    _check_enumeration_cap(n, k, cap)
    return [CompositionWord(n, w) for w, _ in _iter_words(n, k)]


def _iter_words(n: int, k: int):
    """The meaningful length-k words of enumerate_words, made one at a time
    as rows (indices, zero).

    Each of k - 1 chained generators extends every word of the one before by
    each successor of its last index, in ascending order, so the words come
    in lexicographic order and each is meaningful by construction.  zero
    tells whether a word has a d-squared step j = i + 1: its prefix's flag
    or its last step's.  The chain nests k generators deep, and Python's
    recursion limit stops it near k = 1 000; the enumeration cap keeps that
    out of reach, as f(1 000) has at least 151 digits for every n in 3..64.
    """
    # per index, each successor as the 1-tuple a word gains, built once, and its d-squared flag
    steps = {i: [((j,), j == i + 1) for j in successors(i, n)] for i in range(1, n + 1)}
    rows = (((i,), False) for i in range(1, n + 1))
    for _ in range(k - 1):
        rows = ((w + step, zero or d2) for w, zero in rows for step, d2 in steps[w[-1]])
    return rows


def brute_force_count(n: int, k: int) -> int:
    """Count meaningful length-k words by plain depth-first search.

    Independent of the successor stepping on purpose; no memoization.
    """
    check_bound(n, "dimension", 3)
    check_bound(k, "order k", 0)
    if k == 0:
        return 1
    succ = {i: successors(i, n) for i in range(1, n + 1)}

    def walk(i: int, remaining: int) -> int:
        if remaining == 0:
            return 1
        return sum(walk(j, remaining - 1) for j in succ[i])

    return sum(walk(i, k - 1) for i in range(1, n + 1))
