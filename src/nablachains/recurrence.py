"""Linear recurrences for the chain-count sequences.

Two routes to a recurrence, kept deliberately separate so they can check one
another: the characteristic polynomial of the adjacency matrix (which always
annihilates the counts for k > n), found from the traces of its powers with
each row packed into one int, and the minimal recurrence of the computed
sequence itself, found by fraction-free Berlekamp-Massey: the shortest
relation that holds from the first term, with a nonzero last coefficient.
Both work on Python ints only.
IntegerPolynomial renders through polynomial's renderer, as Polynomial does.
A reference table for n = 3..10 is shipped for regression comparison;
reference_recurrences states how its rows relate to the counts.
"""

from __future__ import annotations

import math
from collections.abc import Iterable

from ._record import Record
from .counting import CountSequence
from .graph import _shown, _too_long, check_bound, check_ints
from .polynomial import _render, join_signed


class IntegerPolynomial(Record):
    """Dense integer polynomial; coefficients ascending by power, each an
    int and not a bool.  The zero polynomial is (0,); an empty tuple is
    refused."""

    __match_args__ = ("coefficients",)

    def __init__(self, coefficients: Iterable[int]):
        object.__setattr__(self, "coefficients", tuple(coefficients))
        if not self.coefficients:
            raise ValueError("polynomial needs at least one coefficient")
        check_ints(self.coefficients, "coefficient")
        if len(self.coefficients) > 1 and self.coefficients[-1] == 0:
            raise ValueError("leading coefficient must be nonzero")

    @property
    def degree(self) -> int:
        return len(self.coefficients) - 1

    def is_monic(self) -> bool:
        return self.coefficients[-1] == 1

    def __str__(self) -> str:
        items = [((p,), c) for p in range(self.degree, -1, -1) if (c := self.coefficients[p])]
        return _render(items, ["t"])


class Recurrence(Record):
    """f(k) = c_1 f(k-1) + ... + c_d f(k-d), asserted for k >= valid_from;
    each c_t an int and not a bool, valid_from an int >= 1."""

    __match_args__ = ("coefficients", "valid_from")

    def __init__(self, coefficients: Iterable[int], valid_from: int):
        object.__setattr__(self, "coefficients", tuple(coefficients))
        object.__setattr__(self, "valid_from", valid_from)
        check_ints(self.coefficients, "coefficient")
        check_bound(valid_from, "valid_from", 1)

    @property
    def order(self) -> int:
        return len(self.coefficients)

    def relation_string(self) -> str:
        """Render in the shifted style f(i+d) = c_1 f(i+d-1) + ...; a
        coefficient str() refuses is refused as a polynomial's is."""
        lhs, *names = [f"f(i+{s})" if s else "f(i)" for s in range(self.order, -1, -1)]
        try:
            terms = [(c, name if abs(c) == 1 else f"{abs(c)} {name}")
                     for c, name in zip(self.coefficients, names) if c]
        except ValueError:
            raise _too_long(max(map(abs, self.coefficients)), "coefficient") from None
        return f"{lhs}={join_signed(terms)}"


def characteristic_polynomial(a: list[list[int]]) -> IntegerPolynomial:
    """Monic characteristic polynomial det(tI - A) of an integer matrix.

    LeVerrier's trace method: p_k = tr(A^k) for k = 1..n, then Newton's
    identities k c_k = -(c_{k-1} p_1 + ... + c_0 p_k), c_0 = 1, give
    det(tI - A) = t^n + c_1 t^{n-1} + ... + c_n.  Each c_k is an integer
    (the determinant of an integer matrix is a polynomial in its entries
    with integer coefficients) and the identity fixes it uniquely, so the
    sum is an exact multiple of k.

    Row r of A^k is held as one int, the sum of (A^k)[r][s] 2^(w s), and
    A^(k+1) = A A^k combines those ints over the nonzero entries of A's
    rows: one or two bigint additions a row for the composability graph.
    With R the largest absolute row sum of A, the infinity norm is
    submultiplicative, so |(A^k)[r][s]| <= R^k <= R^n < 2^(w-1) for k <= n,
    with w = bit_length(R^n) + 1.  Adding 2^(w-1) to every w-bit
    digit then leaves each digit in [0, 2^w), so the diagonal entry is read
    off without a borrow from the digits below.  Raises ValueError if the
    matrix is not square or a nonzero entry is not an int.
    """
    n = len(a)
    for r, row in enumerate(a):
        if len(row) != n:
            raise ValueError(
                f"matrix must be square: {n} rows, but row {r} has length {len(row)}"
            )
    nonzero = [[(s, x) for s, x in enumerate(row) if x] for row in a]
    for r, entries in enumerate(nonzero):
        for s, x in entries:
            if not isinstance(x, int) or isinstance(x, bool):
                raise ValueError(f"matrix entry {_shown(x)} at row {r}, column {s} is not an int")
    bound = max((sum(abs(x) for _, x in entries) for entries in nonzero), default=0)
    w = (bound**n).bit_length() + 1
    mask, half = (1 << w) - 1, 1 << (w - 1)
    offset = half * (((1 << (w * n)) - 1) // mask)  # half in every digit
    rows = [1 << (w * r) for r in range(n)]  # A^0 = I, packed
    traces = [0]  # traces[k] = tr(A^k); index 0 unused
    for _ in range(n):
        new = []
        for entries in nonzero:
            acc = 0
            for s, x in entries:
                # a 0/1 matrix, such as the composability graph, needs no products
                acc += rows[s] if x == 1 else x * rows[s]
            new.append(acc)
        rows = new
        traces.append(
            sum(((row + offset) >> (w * r) & mask) - half for r, row in enumerate(rows))
        )
    coefs = [1]  # descending: coefficient of t^n first
    for k in range(1, n + 1):
        ck, rem = divmod(-sum(coefs[k - i] * traces[i] for i in range(1, k + 1)), k)
        assert rem == 0, "Newton's identities must divide exactly"
        coefs.append(ck)
    return IntegerPolynomial(reversed(coefs))


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
    from the first term.  One Berlekamp-Massey pass (J. L. Massey, IEEE
    Trans. Inf. Theory 15(1), 1969), fraction-free: each connection
    polynomial is an integer multiple of the rational one, with its content
    divided out.  At least 2n + 4 terms are required, so a relation of order
    d <= n is unique.  Raises ValueError when d is 0 (all terms zero) or
    exceeds n, when c_d = 0, or when a coefficient is not an integer.
    """
    n, values = seq.n, seq.values
    if len(values) < 2 * n + 4:
        raise ValueError(f"need at least {_shown(2 * n + 4, format)} terms "
                         f"for n={_shown(n, format)}, got {len(values)}")
    # conn = lead * (1 - c_1 x - ... - c_d x^d) annihilates the terms read so
    # far; prev is conn as it was before the last change of order, when its
    # discrepancy was prev_disc, `gap` terms ago.  prev_disc * conn -
    # disc * x^gap * prev is prev_disc times the rational update
    # conn - (disc / prev_disc) x^gap prev, whatever the scales of conn and
    # prev, since disc and prev_disc carry those same scales.
    conn, prev = [1], [1]
    order, gap, prev_disc = 0, 1, 1
    for k in range(len(values)):
        disc = sum(c * v for c, v in zip(conn, values[k::-1]))
        if disc:
            new = [prev_disc * c for c in conn]
            new += [0] * (gap + len(prev) - len(conn))
            for i, c in enumerate(prev):
                new[gap + i] -= disc * c
            content = math.gcd(*new)
            new = [c // content for c in new]
            if 2 * order <= k:
                prev, prev_disc, order, gap = conn, disc, k + 1 - order, 0
            conn = new
        gap += 1
    # x^gap * prev never reaches the constant term, so lead = conn[0] != 0
    lead = conn[0]
    coeffs = [-c for c in (conn + [0] * order)[1 : order + 1]]
    if not 0 < order <= n or coeffs[-1] == 0 or any(c % lead for c in coeffs):
        raise ValueError(
            f"no linear recurrence of order <= {n} fits the sequence for n={n}"
        )
    return Recurrence((c // lead for c in coeffs), valid_from=order + 1)


def verify_recurrence(r: Recurrence, seq: CountSequence) -> bool:
    """Exact check of r at every applicable index of seq (values are f(1)..)."""
    d = r.order
    values = seq.values
    applicable = range(max(r.valid_from, d + 1), len(values) + 1)
    if not applicable:
        raise ValueError("sequence too short to test the recurrence")
    return all(
        values[k - 1] == sum(r.coefficients[t - 1] * values[k - t - 1] for t in range(1, d + 1))
        for k in applicable
    )


def reference_recurrences() -> dict[int, Recurrence]:
    """Reference recurrences for n = 3..10 (regression data).

    Row n is the recurrence of p(t)/t^e, p(t) = det(tI - A) the characteristic
    polynomial of A = build_adjacency(n) and t^e its factor of zero roots;
    every walk count obeys it.  The total count f(k) starts from the all-ones
    vector, which at n = 6, 8 and 10 lies in a smaller A-invariant subspace:
    there the recurrence minimal_recurrence fits to the total counts is a
    proper divisor of the row (t^2 - t - 1, t^2 - 3, t^3 - t^2 - 2t + 1), and
    at n = 3, 4, 5, 7 and 9 it is the row.  Rows 7 and 8 were once shipped
    with slips that annihilate nothing: (0, 1, 3, -2, -1), an extra leading
    zero, and (4, 0, 0, -3), the first two coefficients swapped.
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
