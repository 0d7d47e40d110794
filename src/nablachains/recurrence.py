"""Linear recurrences for the chain-count sequences.

Two routes to a recurrence, kept deliberately separate so they can check one
another: the characteristic polynomial of the adjacency matrix (which always
annihilates the counts for k > n), and exact minimal-order fitting against
the computed sequence itself.  A reference table for n = 3..10 is shipped
for regression comparison: each row is the recurrence of the characteristic
polynomial with its zero roots removed, p(t)/t^e.  Every walk count obeys
that relation; the minimal recurrence of the total-count sequence divides it,
and is a proper divisor at n = 6, 8 and 10.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .counting import CountSequence
from .errors import RecurrenceFitError
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

    def __str__(self) -> str:
        return self.relation_string()


def render_polynomial(coefficients: tuple[int, ...], var: str = "t") -> str:
    terms = []
    for p in range(len(coefficients) - 1, -1, -1):
        c = coefficients[p]
        if c == 0:
            continue
        mag = abs(c)
        if p == 0:
            body = str(mag)
        else:
            power = var if p == 1 else f"{var}^{p}"
            body = power if mag == 1 else f"{mag}*{power}"
        terms.append((c, body))
    return join_signed(terms)


def characteristic_polynomial(a: list[list[int]]) -> IntegerPolynomial:
    """Monic characteristic polynomial det(tI - A) of an integer matrix.

    Faddeev-LeVerrier iteration; all divisions are exact over the integers.
    """
    n = len(a)
    ident = [[1 if r == c else 0 for c in range(n)] for r in range(n)]
    mk = ident
    coefs = [1]  # descending: coefficient of t^n first
    for k in range(1, n + 1):
        am = [
            [sum(a[r][s] * mk[s][c] for s in range(n)) for c in range(n)]
            for r in range(n)
        ]
        tr = sum(am[r][r] for r in range(n))
        ck, rem = divmod(-tr, k)
        assert rem == 0, "Faddeev-LeVerrier division must be exact"
        coefs.append(ck)
        mk = [
            [am[r][c] + (ck if r == c else 0) for c in range(n)] for r in range(n)
        ]
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


def _fit_order(values: tuple[int, ...], d: int) -> Optional[tuple[int, ...]]:
    """Exact-rational least-order fit: solve for c_1..c_d satisfying
    values[k] = sum c_t values[k-t] for every applicable k, or None."""
    rows = [
        [Fraction(values[k - t]) for t in range(1, d + 1)] + [Fraction(values[k])]
        for k in range(d, len(values))
    ]
    if not rows:
        return None
    ncols = d
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        pivot = next((i for i in range(r, len(rows)) if rows[i][c] != 0), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        pr = rows[r]
        inv = 1 / pr[c]
        rows[r] = [x * inv for x in pr]
        for i in range(len(rows)):
            if i != r and rows[i][c] != 0:
                factor = rows[i][c]
                rows[i] = [x - factor * y for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
    # inconsistent system: a zero row with nonzero rhs
    for i in range(r, len(rows)):
        if rows[i][-1] != 0:
            return None
    sol = [Fraction(0)] * ncols
    for row_idx, c in enumerate(pivots):
        sol[c] = rows[row_idx][-1]
    if any(x.denominator != 1 for x in sol):
        return None
    coeffs = tuple(int(x) for x in sol)
    # re-verify against every provided term (guards the free-variable choice)
    for k in range(d, len(values)):
        if values[k] != sum(coeffs[t - 1] * values[k - t] for t in range(1, d + 1)):
            return None
    return coeffs


def minimal_recurrence(seq: CountSequence) -> Recurrence:
    """Shortest integer recurrence satisfied by all terms of seq.

    Requires at least 2n + 4 terms so an order <= n recurrence is pinned
    with a safety margin.
    """
    n = seq.n
    values = seq.values
    if len(values) < 2 * n + 4:
        raise ValueError(
            f"need at least {2 * n + 4} terms for n={n}, got {len(values)}"
        )
    for d in range(1, n + 1):
        coeffs = _fit_order(values, d)
        if coeffs is None:
            continue
        if coeffs and coeffs[-1] == 0:
            # trailing zeros mean an even shorter relation; it would have been
            # found at a smaller d, so treat this as non-minimal and move on
            continue
        return Recurrence(coeffs, valid_from=d + 1)
    raise RecurrenceFitError(
        f"no linear recurrence of order <= {n} fits the sequence for n={n}"
    )


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
