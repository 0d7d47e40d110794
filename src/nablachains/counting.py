"""Exact counts of meaningful operator chains.

f_i(k) counts length-k meaningful words whose first-applied operator is
nabla_i; f(k) is the total over all starting operators.  The fast path steps
(f_1, ..., f_n) along each operator's successors from all ones; the
depth-first brute_force_count is a deliberately independent oracle for it.
All arithmetic is on Python ints, so counts are exact at any size.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import EnumerationCapError
from .graph import as_dim, successors
from .words import CompositionWord

DEFAULT_ENUMERATION_CAP = 10**6


@dataclass(frozen=True)
class CountSequence:
    """Totals f(1), ..., f(k_max); values[k-1] is f(k)."""

    n: int
    values: tuple[int, ...]


def _walk(n: int, k: int):
    """Yield (f_1(t), ..., f_n(t)) for t = 1..k; a step sums, per operator, the
    counts of its at most two successors.  Only the current vector is kept."""
    succ = [[j - 1 for j in successors(i, n)] for i in range(1, n + 1)]
    v = [1] * n
    yield v
    for _ in range(k - 1):
        v = [sum(v[j] for j in s) for s in succ]
        yield v


def count_per_start(n: int, k: int) -> tuple[int, ...]:
    """f_i(k) for i = 1..n, via k-1 successor steps from all-ones."""
    n = as_dim(n)
    if k < 1:
        raise ValueError(f"order k must be >= 1, got {k}")
    for v in _walk(n, k):
        pass
    return tuple(v)


def count_total(n: int, k: int) -> int:
    """f(k); f(0) = 1 by the empty-chain convention."""
    n = as_dim(n)
    if k < 0:
        raise ValueError(f"order k must be >= 0, got {k}")
    if k == 0:
        return 1
    return sum(count_per_start(n, k))


def count_sequence(n: int, k_max: int) -> CountSequence:
    """f(1)..f(k_max) in one pass (one successor step per k)."""
    n = as_dim(n)
    if k_max < 1:
        raise ValueError(f"k_max must be >= 1, got {k_max}")
    return CountSequence(n, tuple(sum(v) for v in _walk(n, k_max)))


def enumerate_words(
    n: int, k: int, cap: int = DEFAULT_ENUMERATION_CAP
) -> list[CompositionWord]:
    """All meaningful length-k words in lexicographic order of the index tuple."""
    n = as_dim(n)
    if k < 1:
        raise ValueError(f"length k must be >= 1, got {k}")
    # Totals never decrease (every operator has a predecessor), so the first
    # one above the cap rules k out before f(k) itself is computed.
    for v in _walk(n, k):
        if (total := sum(v)) > cap:
            raise EnumerationCapError(total, cap)
    succ = {i: successors(i, n) for i in range(1, n + 1)}
    out: list[CompositionWord] = []
    stack: list[int] = []

    def extend(i: int) -> None:
        stack.append(i)
        if len(stack) == k:
            out.append(CompositionWord(n, tuple(stack)))
        else:
            for j in succ[i]:
                extend(j)
        stack.pop()

    for i in range(1, n + 1):
        extend(i)
    return out


def brute_force_count(n: int, k: int) -> int:
    """Count meaningful length-k words by plain depth-first search.

    Independent of the successor stepping on purpose; no memoization.
    """
    n = as_dim(n)
    if k < 0:
        raise ValueError(f"order k must be >= 0, got {k}")
    if k == 0:
        return 1
    succ = {i: successors(i, n) for i in range(1, n + 1)}

    def walk(i: int, remaining: int) -> int:
        if remaining == 0:
            return 1
        return sum(walk(j, remaining - 1) for j in succ[i])

    return sum(walk(i, k - 1) for i in range(1, n + 1))
