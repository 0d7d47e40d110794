"""Composability relation between the operators nabla_1..nabla_n on R^n.

nabla_j can be applied after nabla_i exactly when j = i + 1 or i + j = n + 1.
This module materializes it as an adjacency matrix and as successor lists;
the rest of the package (counting, classification, symbolics) is driven by it.

Indices are 1-based throughout the public surface.
"""

from __future__ import annotations


def as_dim(n: int) -> int:
    """Validate a dimension argument (n >= 3)."""
    if n < 3:
        raise ValueError(f"dimension must be >= 3, got {n}")
    return int(n)


def check_index(i: int, n: int) -> None:
    """Reject an operator index outside 1..n."""
    if not 1 <= i <= n:
        raise ValueError(f"operator index {i} out of range 1..{n}")


def _composable(i: int, j: int, n: int) -> bool:
    # The rule itself, for indices the caller has already validated.
    return j == i + 1 or i + j == n + 1


def is_composable(i: int, j: int, n: int) -> bool:
    """True iff nabla_j may be applied after nabla_i in dimension n."""
    n = as_dim(n)
    check_index(i, n)
    check_index(j, n)
    return _composable(i, j, n)


def build_adjacency(n: int) -> list[list[int]]:
    """The n x n 0/1 matrix with entry (i, j) = is_composable(i, j, n).

    Rows/columns are returned 0-based (entry [i-1][j-1] for operators i, j).
    """
    n = as_dim(n)
    return [
        [1 if _composable(i, j, n) else 0 for j in range(1, n + 1)]
        for i in range(1, n + 1)
    ]


def successors(i: int, n: int) -> list[int]:
    """Ascending list of all j composable after i."""
    n = as_dim(n)
    check_index(i, n)
    return [j for j in range(1, n + 1) if _composable(i, j, n)]
