"""Composition words: finite chains of operator indices in application order."""

from __future__ import annotations

from collections.abc import Iterable, Sequence

from ._record import Record
from .errors import NotComposableError
from .graph import _shown, _successors, check_bound


class _NablaNames(dict):
    def __missing__(self, i: int) -> str:
        # made once per index, from its int value: True and 1 are both ∇_1
        self[i] = name = f"∇_{i:d}"
        return name


# Operator names by index: ∇_i in any dimension, grad/curl/div at n = 3.
NABLA_NAMES = _NablaNames()
N3_NAMES = {1: "grad", 2: "curl", 3: "div"}


def notation(indices: Sequence[int], names: dict[int, str] = NABLA_NAMES) -> str:
    """Render a chain by its names, the last-applied operator leftmost."""
    return " ∘ ".join([names[i] for i in reversed(indices)])


class CompositionWord(Record):
    """A nonempty chain (i_1, ..., i_k); i_1 is applied first."""

    __match_args__ = ("n", "indices")

    def __init__(self, n: int, indices: Iterable[int]):
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "indices", tuple(indices))
        check_bound(self.n, "dimension", 3)
        if not self.indices:
            raise ValueError("composition word must be nonempty")
        for i in self.indices:
            check_bound(i, "operator index", 1, self.n)

    def __len__(self) -> int:
        return len(self.indices)

    def first_invalid_pair(self) -> tuple[int, int] | None:
        """First consecutive pair that is not composable, or None."""
        for a, b in zip(self.indices, self.indices[1:]):
            if b not in _successors(a, self.n):
                return (a, b)
        return None

    def require_meaningful(self) -> None:
        bad = self.first_invalid_pair()
        if bad is not None:
            raise NotComposableError(bad[0], bad[1], self.n)

    def composition_notation(self) -> str:
        return notation(self.indices)

    def named_notation(self) -> str | None:
        """grad/curl/div rendering, available only for n = 3."""
        return notation(self.indices, N3_NAMES) if self.n == 3 else None


WordLike = CompositionWord | Sequence[int]


def as_word(w: WordLike, n: int) -> CompositionWord:
    check_bound(n, "dimension", 3)
    if isinstance(w, CompositionWord):
        if w.n != n:
            raise ValueError(f"word is for n={_shown(w.n, format)}, expected n={_shown(n, format)}")
        return w
    return CompositionWord(n, w)
