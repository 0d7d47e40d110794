"""Composability relation between the operators nabla_1..nabla_n on R^n.

nabla_j can be applied after nabla_i exactly when j = i + 1 or i + j = n + 1.
It is stated once, by _successors in closed form: i + 1 (for i < n) and
n + 1 - i, one index when the two coincide (2i = n).  The predicate is
membership in that list.  The adjacency matrix, the counting walks and the
word checks all read it, and the rest of the package is driven by them.

Indices are 1-based throughout the public surface.  Every bounded integer
argument of the package, from a dimension to a variable count, is checked by
one rule, check_bound: a non-int (a bool included) is named as a non-int,
and an int out of its bounds by its range.  check_ints states the same int
test for unbounded data, such as a recurrence's coefficients.
"""

from __future__ import annotations


def check_bound(value: int, name: str, low: int, high: int | None = None) -> None:
    """Reject a bounded integer argument that is not an int, or is a bool,
    then one outside low..high (no upper end when high is None)."""
    if type(value) is not int and (isinstance(value, bool) or not isinstance(value, int)):
        raise ValueError(f"{name} must be an int, got {value!r}")
    if value < low or high is not None and value > high:
        raise ValueError(f"{name} must be >= {low}, got {value!r}" if high is None
                         else f"{name} {value!r} out of range {low}..{high}")


def check_ints(values: tuple, name: str) -> None:
    """Reject an entry of unbounded integer data that is not an int, or is a bool."""
    for v in values:
        if not isinstance(v, int) or isinstance(v, bool):
            raise ValueError(f"{name} {v!r} is not an int")


def is_composable(i: int, j: int, n: int) -> bool:
    """True iff nabla_j may be applied after nabla_i in dimension n."""
    check_bound(n, "dimension", 3)
    check_bound(i, "operator index", 1, n)
    check_bound(j, "operator index", 1, n)
    return j in _successors(i, n)


def _successors(i: int, n: int) -> list[int]:
    # {i + 1, n + 1 - i} within 1..n, ascending: n + 1 - i is always in
    # range, i + 1 is when i < n, and the two coincide when 2i = n
    j = n + 1 - i
    if i == n or j == i + 1:
        return [j]
    return [i + 1, j] if i < j else [j, i + 1]


def build_adjacency(n: int) -> list[list[int]]:
    """The n x n 0/1 matrix with entry (i, j) = is_composable(i, j, n).

    Rows/columns are returned 0-based (entry [i-1][j-1] for operators i, j).
    """
    check_bound(n, "dimension", 3)
    rows = []
    for i in range(1, n + 1):
        row = [0] * n
        for j in _successors(i, n):
            row[j - 1] = 1
        rows.append(row)
    return rows


def successors(i: int, n: int) -> list[int]:
    """Ascending list of all j composable after i."""
    check_bound(n, "dimension", 3)
    check_bound(i, "operator index", 1, n)
    return _successors(i, n)


def total_count_polynomial(n: int) -> tuple[int, ...]:
    """Ascending coefficients of the monic g that annihilates the total chain
    counts f(1), f(2), ... in dimension n, in closed form.

    Let N = n + 2 for odd n and N = n/2 + 2 for even n.  For odd N,
    g = r_{(N-1)/2} with r_0 = 1, r_1 = t - 1 and r_{j+1} = t r_j - r_{j-1}
    (the characteristic polynomial of a path with a loop at one end).  For
    even N, g = L_{N/2}, where L_0 = 2, L_1 = t and the same three-term rule
    give the Vieta-Lucas polynomials, divided by t when N/2 is odd.  Its
    roots are 2cos(j pi / N) for odd j < N, less 0 (for even n, the main
    eigenvalues of the adjacency matrix; P. Rowlinson, Appl. Anal. Discrete
    Math. 1, 2007).  The tests check that g is the minimal polynomial of the
    counts for n <= 64; count_total certifies it on the counts before use.
    """
    check_bound(n, "dimension", 3)
    big_n = n + 2 if n % 2 else n // 2 + 2
    if big_n % 2:
        prev, cur, m = [1], [-1, 1], (big_n - 1) // 2
    else:
        prev, cur, m = [2], [0, 1], big_n // 2
    for _ in range(m):
        nxt = [0] + cur
        for i, c in enumerate(prev):
            nxt[i] -= c
        prev, cur = cur, nxt
    # prev is now r_m or L_m; L_m(0) = 0 exactly when m is odd
    return tuple(prev[1:] if big_n % 2 == 0 and m % 2 else prev)
