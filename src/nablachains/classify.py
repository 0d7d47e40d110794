"""Triviality classification of operator chains and the alternating
non-trivial families.

A composable pair (k then j) is the zero operator exactly when j = k + 1
(a d-squared step); it survives when k + j = n + 1; anything else is not
a function at all.  One zero step annihilates a whole chain, so the words
that remain non-trivial are precisely the alternating chains k, j, k, ...
with k + j = n + 1; from length 3 on this forces 2k, 2j != n, while at
length 2 only the d-squared exclusion 2k != n applies.
"""

from __future__ import annotations

import enum

from .graph import check_bound
from .words import CompositionWord, WordLike, as_word


class TrivialityClass(enum.Enum):
    ZERO = "zero"
    NONTRIVIAL = "non-trivial"
    UNDEFINED = "undefined"


def classify_pair(k: int, j: int, n: int) -> TrivialityClass:
    """Classify the second-order composition: nabla_j applied after nabla_k."""
    return classify_word((k, j), n)


def classify_word(w: WordLike, n: int | None = None) -> TrivialityClass:
    """Classify a chain; single operators are non-trivial by convention."""
    if n is None:
        if not isinstance(w, CompositionWord):
            raise ValueError("n is required when w is a bare index sequence")
        word = w
    else:
        word = as_word(w, n)
    if word.first_invalid_pair() is not None:
        return TrivialityClass.UNDEFINED
    if any(b == a + 1 for a, b in zip(word.indices, word.indices[1:])):
        return TrivialityClass.ZERO
    return TrivialityClass.NONTRIVIAL


def _nontrivial_starts(n: int, length: int) -> list[int]:
    # first indices k of the non-trivial chains of length >= 2: 2k != n keeps
    # the pair (k, n+1-k) from being a d-squared step, and from length 3 on
    # 2(n+1-k) != n does the same for the pair (n+1-k, k)
    return [
        k for k in range(1, n + 1)
        if 2 * k != n and (length < 3 or 2 * (n + 1 - k) != n)
    ]


def enumerate_nontrivial(n: int, length: int) -> list[CompositionWord]:
    """All non-trivial chains of the given length, ordered by starting index:
    every word of length 1, and from length 2 on the alternating words
    (k, n+1-k, k, ...) with no d-squared step."""
    check_bound(n, "dimension", 3)
    check_bound(length, "length", 1)
    if length == 1:
        return [CompositionWord(n, (k,)) for k in range(1, n + 1)]
    return [
        CompositionWord(n, tuple(k if t % 2 == 0 else n + 1 - k for t in range(length)))
        for k in _nontrivial_starts(n, length)
    ]


def count_nontrivial(n: int, length: int) -> int:
    """Number of non-trivial chains of the given length (>= 2)."""
    check_bound(n, "dimension", 3)
    check_bound(length, "length", 2)
    return len(_nontrivial_starts(n, length))
