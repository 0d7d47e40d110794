"""Linear recurrences for the chain-count sequences.

Two routes to a recurrence, kept deliberately separate so they can check one
another: the characteristic polynomial of the adjacency matrix (which always
annihilates the counts for k > n), and the minimal recurrence of the computed
sequence itself, found by Berlekamp-Massey over the rationals: the shortest
relation that holds from the first term, with a nonzero last coefficient.
A reference table for n = 3..10 is shipped for regression comparison: each
row is the recurrence of the characteristic polynomial with its zero roots
removed, p(t)/t^e.  Every walk count obeys that relation; the minimal
recurrence of the total-count sequence divides it, and is a proper divisor
at n = 6, 8 and 10.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .counting import CountSequence
from .polynomial import join_signed


@dataclass(frozen=True)
class IntegerPolynomial:
    """Dense integer polynomial; coefficients ascending by power."""

    coefficients: tuple[int, ...]

    def __post_init__(self):
        if len(self.coefficients) > 1 and self.coefficients[-1] == 0:
            raise ValueError("leading coefficient must be nonzero")

    @property
    def degree(self) -> int:
        return len(self.coefficients) - 1

    def is_monic(self) -> bool:
        return self.coefficients[-1] == 1

    def __str__(self) -> str:
        return render_polynomial(self.coefficients)


@dataclass(frozen=True)
class Recurrence:
    """f(k) = c_1 f(k-1) + ... + c_d f(k-d), asserted for k >= valid_from."""

    coefficients: tuple[int, ...]
    valid_from: int

    @property
    def order(self) -> int:
        return len(self.coefficients)

    def relation_string(self) -> str:
        """Render in the shifted style f(i+d) = c_1 f(i+d-1) + ..."""
        d = self.order
        terms = []
        for t, c in enumerate(self.coefficients, start=1):
            if c == 0:
                continue
            shift = d - t
            term = f"f(i+{shift})" if shift else "f(i)"
            mag = abs(c)
            terms.append((c, term if mag == 1 else f"{mag} {term}"))
        return f"f(i+{d})={join_signed(terms)}"


def render_polynomial(coefficients: tuple[int, ...]) -> str:
    terms = []
    for p in range(len(coefficients) - 1, -1, -1):
        c = coefficients[p]
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


def characteristic_polynomial(a: list[list[int]]) -> IntegerPolynomial:
    """Monic characteristic polynomial det(tI - A) of an integer matrix.

    Faddeev-LeVerrier iteration; all divisions are exact over the integers.
    Row r of A M_k is the combination of the rows M_k[s] weighted by the
    nonzero entries a[r][s], so a matrix with at most two nonzeros per row
    (the composability graph) costs O(n^3) in all, and a dense one O(n^4).
    Raises ValueError if the matrix is not square.
    """
    n = len(a)
    for r, row in enumerate(a):
        if len(row) != n:
            raise ValueError(
                f"matrix must be square: {n} rows, but row {r} has length {len(row)}"
            )
    nonzero = [[(s, x) for s, x in enumerate(row) if x] for row in a]
    mk = [[1 if r == c else 0 for c in range(n)] for r in range(n)]
    coefs = [1]  # descending: coefficient of t^n first
    for k in range(1, n + 1):
        am = []
        for entries in nonzero:
            row = [0] * n
            for s, x in entries:
                row = [acc + x * m for acc, m in zip(row, mk[s])]
            am.append(row)
        tr = sum(am[r][r] for r in range(n))
        ck, rem = divmod(-tr, k)
        assert rem == 0, "Faddeev-LeVerrier division must be exact"
        coefs.append(ck)
        for r in range(n):
            am[r][r] += ck
        mk = am
    ascending = tuple(reversed(coefs))
    return IntegerPolynomial(ascending)


def recurrence_from_polynomial(p: IntegerPolynomial) -> Recurrence:
    """Transcribe a monic polynomial t^d - c_1 t^{d-1} - ... - c_d into the
    recurrence f(k) = c_1 f(k-1) + ... + c_d f(k-d), valid for k > d."""
    if not p.is_monic():
        raise ValueError("polynomial must be monic")
    d = p.degree
    coeffs = tuple(-p.coefficients[d - t] for t in range(1, d + 1))
    return Recurrence(coeffs, valid_from=d + 1)


def minimal_recurrence(seq: CountSequence) -> Recurrence:
    """Shortest integer recurrence that holds on seq from its first term.

    Returns f(k) = c_1 f(k-1) + ... + c_d f(k-d) for all k > d, with c_d != 0
    and valid_from = d + 1, d being the least order of any relation holding
    from the first term.  One Berlekamp-Massey pass over the rationals (J. L.
    Massey, IEEE Trans. Inf. Theory 15(1), 1969).  At least 2n + 4 terms are
    required, so a relation of order d <= n is unique.  Raises ValueError when
    d is 0 (all terms zero) or exceeds n, when c_d = 0, or when a coefficient
    is not an integer.
    """
    n, values = seq.n, seq.values
    if len(values) < 2 * n + 4:
        raise ValueError(
            f"need at least {2 * n + 4} terms for n={n}, got {len(values)}"
        )
    # conn = 1 - c_1 x - ... - c_d x^d annihilates the terms read so far;
    # prev is conn as it was before the last change of order, when its
    # discrepancy was prev_disc, `gap` terms ago.
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


def verify_recurrence(r: Recurrence, seq: CountSequence) -> bool:
    """Exact check of r at every applicable index of seq (values are f(1)..)."""
    d = r.order
    values = seq.values
    checked = False
    for k in range(max(r.valid_from, d + 1), len(values) + 1):
        checked = True
        lhs = values[k - 1]
        rhs = sum(r.coefficients[t - 1] * values[k - t - 1] for t in range(1, d + 1))
        if lhs != rhs:
            return False
    if not checked:
        raise ValueError("sequence too short to test the recurrence")
    return True


def reference_recurrences() -> dict[int, Recurrence]:
    """Reference recurrences for n = 3..10 (regression data).

    Row n is the recurrence of det(tI - A) / t^e for A = build_adjacency(n),
    where t^e is the factor of zero roots.  The minimal recurrence of the
    total-count sequence divides the row's polynomial; it equals the row at
    n = 3, 4, 5, 7 and 9 and is a proper divisor at n = 6, 8 and 10, where
    the all-ones start vector lies in a smaller A-invariant subspace.
    """
    table = {
        3: (1, 1),
        4: (0, 2),
        5: (1, 2, -1),
        6: (0, 3, 0, -1),
        7: (1, 3, -2, -1),
        8: (0, 4, 0, -3),
        9: (1, 4, -3, -3, 1),
        10: (0, 5, 0, -6, 0, 1),
    }
    return {
        n: Recurrence(coeffs, valid_from=len(coeffs) + 1)
        for n, coeffs in table.items()
    }
