"""Independent reference computations for the benchmark's output checks.

Nothing here imports nablachains.  Each function rebuilds what it needs from
the paper's composability rule (nabla_j may follow nabla_i iff j = i + 1 or
i + j = n + 1) or from plain calculus, so a check can disagree with the
program instead of repeating it.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from itertools import combinations, islice
from typing import Iterable, Iterator

# ---------------------------------------------------------------- counting


def successors(i: int, n: int) -> tuple[int, ...]:
    """Operators that may follow nabla_i in dimension n, by the paper's rule."""
    return tuple(sorted({j for j in (i + 1, n + 1 - i) if 1 <= j <= n}))


def walk_totals(n: int) -> Iterator[int]:
    """f(1), f(2), ...: meaningful words of each length, by sparse stepping
    from the all-ones vector (v[i-1] counts the words starting with nabla_i)."""
    succ = [successors(i, n) for i in range(1, n + 1)]
    v = [1] * n
    while True:
        yield sum(v)
        v = [sum(v[j - 1] for j in s) for s in succ]


def walk_counts(n: int, k_max: int) -> list[int]:
    """f(1)..f(k_max)."""
    return list(islice(walk_totals(n), k_max))


def walk_counts_at(n: int, ks: Iterable[int]) -> dict[int, int]:
    """f(k) for each k in ks, in one pass; f(0) = 1 (the empty chain)."""
    ks = set(ks)
    out = {0: 1} if 0 in ks else {}
    last = max(ks)
    for k, f in enumerate(walk_totals(n), start=1):
        if k > last:
            break
        if k in ks:
            out[k] = f
    return out


def fibonacci(m: int) -> int:
    """F(m) with F(1) = F(2) = 1, by fast doubling."""

    def pair(k: int) -> tuple[int, int]:  # (F(k), F(k+1))
        if k == 0:
            return 0, 1
        a, b = pair(k >> 1)
        c = a * (2 * b - a)
        d = a * a + b * b
        return (d, c + d) if k & 1 else (c, d)

    return pair(m)[0]


def growth_bits_per_step(n: int) -> float:
    """Bits the total count gains per unit of k, read off f(400)..f(402)."""
    f = walk_counts(n, 402)
    return (math.log2(f[401]) - math.log2(f[399])) / 2


# ------------------------------------------------------------- recurrences


def closed_walk_traces(n: int) -> list[int]:
    """tr(A^k) for k = 1..n, A the adjacency matrix of the rule."""
    succ = [successors(i, n) for i in range(1, n + 1)]
    rows = [{i: 1} for i in range(n)]  # sparse rows of A^k, 0-based columns
    traces = []
    for _ in range(n):
        nxt = []
        for row in rows:
            acc: dict[int, int] = {}
            for j, c in row.items():
                for s in succ[j]:
                    acc[s - 1] = acc.get(s - 1, 0) + c
            nxt.append(acc)
        rows = nxt
        traces.append(sum(rows[i].get(i, 0) for i in range(n)))
    return traces


def charpoly_newton(n: int) -> list[int]:
    """Coefficients of det(tI - A), ascending by power, by Newton's identities
    applied to the closed-walk counts."""
    p = closed_walk_traces(n)
    e = [1]  # e[k]: coefficient of t^(n-k)
    for k in range(1, n + 1):
        s = sum(e[k - i] * p[i - 1] for i in range(1, k + 1))
        q, r = divmod(-s, k)
        if r:
            raise ArithmeticError("Newton's identities gave a non-integer coefficient")
        e.append(q)
    return e[::-1]


def hankel_rank(values: list[int], size: int) -> int:
    """Rank over Q of the size x size Hankel matrix H[i][j] = values[i + j]."""
    rows = [[values[i + j] for j in range(size)] for i in range(size)]
    rank = 0
    for col in range(size):
        piv = next((r for r in range(rank, size) if rows[r][col]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        p = rows[rank]
        for r in range(rank + 1, size):
            a = rows[r][col]
            if a:
                row = [p[col] * x - a * y for x, y in zip(rows[r], p)]
                g = 0
                for x in row:
                    g = math.gcd(g, x)
                rows[r] = [x // g for x in row] if g > 1 else row
        rank += 1
    return rank


def annihilates(coeffs: list[int], values: list[int]) -> bool:
    """f(k) = c_1 f(k-1) + ... + c_d f(k-d) for every k with d terms before it."""
    d = len(coeffs)
    return all(
        values[k] == sum(c * values[k - t] for t, c in enumerate(coeffs, start=1))
        for k in range(d, len(values))
    )


def divides(coeffs: list[int], charpoly_ascending: list[int]) -> bool:
    """Whether t^d - c_1 t^(d-1) - ... - c_d divides the monic charpoly."""
    d = len(coeffs)
    rem = list(charpoly_ascending)
    # reduce t^m -> c_1 t^(m-1) + ... + c_d t^(m-d), highest power first
    for m in range(len(rem) - 1, d - 1, -1):
        lead = rem[m]
        if lead:
            rem[m] = 0
            for t, c in enumerate(coeffs, start=1):
                rem[m - t] += lead * c
    return not any(rem[:d])


# ------------------------------------------------------------- zero test


def is_zero_chain(word: tuple[int, ...]) -> bool:
    """The paper's rule: a meaningful chain is zero iff some step is d-squared."""
    return any(b == a + 1 for a, b in zip(word, word[1:]))


def meaningful_words(n: int, length: int) -> list[tuple[int, ...]]:
    """Every meaningful word of the given length, in lexicographic order."""
    words = [(i,) for i in range(1, n + 1)]
    for _ in range(length - 1):
        words = [w + (j,) for w in words for j in successors(w[-1], n)]
    return words


# ----------------------------------------------------- polynomials, calculus

Poly = dict  # exponent tuple -> nonzero Fraction


def domain_level(i: int, n: int) -> int:
    return min(i - 1, n - i + 1)


def codomain_level(i: int, n: int) -> int:
    return min(i, n - i)


def p_add(*polys: Poly) -> Poly:
    out: Poly = {}
    for p in polys:
        for e, c in p.items():
            s = out.get(e, 0) + c
            if s:
                out[e] = s
            else:
                out.pop(e, None)
    return out


def p_scale(p: Poly, c: int) -> Poly:
    return {e: c * v for e, v in p.items()}


def p_diff(p: Poly, t: int) -> Poly:
    """Partial derivative in x_t (1-based)."""
    out: Poly = {}
    for e, c in p.items():
        k = e[t - 1]
        if k:
            out[e[: t - 1] + (k - 1,) + e[t:]] = c * k
    return out


def gradient(f: Poly, n: int) -> list[Poly]:
    return [p_diff(f, t) for t in range(1, n + 1)]


def divergence(v: list[Poly]) -> Poly:
    return p_add(*(p_diff(p, t) for t, p in enumerate(v, start=1)))


def curl3(v: list[Poly]) -> list[Poly]:
    a, b, c = v
    return [
        p_add(p_diff(c, 2), p_scale(p_diff(b, 3), -1)),
        p_add(p_diff(a, 3), p_scale(p_diff(c, 1), -1)),
        p_add(p_diff(b, 1), p_scale(p_diff(a, 2), -1)),
    ]


def complement_pair_sign(s: tuple[int, ...]) -> int:
    """Sign of the permutation (S, complement of S) of 1..n, S ascending.

    Each s_j (1-based position j) jumps over the s_j - j smaller elements of
    the complement, so the inversion count is sum(s_j - j).
    """
    return -1 if (sum(s) - len(s) * (len(s) + 1) // 2) % 2 else 1


def forms_nabla(i: int, comps: list[Poly], n: int) -> list[Poly]:
    """nabla_i as lift, exterior derivative, push down, written from the
    definitions: a level-l vector lifts to a degree-l form on the wedge basis
    in lexicographic order, or to a degree n-l form by dx_S -> sign * dx_T,
    T the complement of S."""
    m = n // 2
    level, deg = domain_level(i, n), i - 1
    slots = list(combinations(range(1, n + 1), level))
    if deg <= m:
        form = dict(zip(slots, comps))
    else:
        form = {
            tuple(x for x in range(1, n + 1) if x not in s): p_scale(p, complement_pair_sign(s))
            for s, p in zip(slots, comps)
        }
    out: dict[tuple[int, ...], Poly] = {}
    for s, g in form.items():
        for t in range(1, n + 1):
            if t not in s:
                sign = -1 if sum(x < t for x in s) % 2 else 1
                key = tuple(sorted(s + (t,)))
                out[key] = p_add(out.get(key, {}), p_scale(p_diff(g, t), sign))
    level = codomain_level(i, n)
    slots = list(combinations(range(1, n + 1), level))
    if deg + 1 <= m:
        return [out.get(s, {}) for s in slots]
    return [
        p_scale(out.get(tuple(x for x in range(1, n + 1) if x not in s), {}), complement_pair_sign(s))
        for s in slots
    ]


def apply_chain(word: tuple[int, ...], comps: list[Poly], n: int) -> list[Poly]:
    """The chain applied by classical formulas where they exist (nabla_1 is
    the gradient for every n; at n = 3 nabla_2 and nabla_3 are curl and
    divergence) and by forms_nabla elsewhere."""
    for i in word:
        if i == 1:
            comps = gradient(comps[0], n)
        elif n == 3:
            comps = curl3(comps) if i == 2 else [divergence(comps)]
        else:
            comps = forms_nabla(i, comps, n)
    return comps


def render(p: Poly) -> str:
    """The program's input syntax, e.g. ``3/2*x1^2*x3 - x2 + 4``."""
    parts = []
    for e, c in p.items():
        factors = [f"x{i}" if k == 1 else f"x{i}^{k}" for i, k in enumerate(e, 1) if k]
        body = "*".join([str(abs(c))] + factors)
        if not parts:
            parts.append(f"-{body}" if c < 0 else body)
        else:
            parts.append(("- " if c < 0 else "+ ") + body)
    return " ".join(parts) if parts else "0"


_TERM = re.compile(r"\s*([+-])?\s*(\d+(?:/\d+)?)?((?:\*?x\d+(?:\^\d+)?)*)")
_FACTOR = re.compile(r"x(\d+)(?:\^(\d+))?")


def parse(text: str, n: int) -> Poly:
    """Read a rendered polynomial back; raises ValueError on anything else."""
    text = text.strip()
    if text == "0":
        return {}
    out: Poly = {}
    pos = 0
    while pos < len(text):
        m = _TERM.match(text, pos)
        if m is None or m.end() == pos or not (m.group(2) or m.group(3)):
            raise ValueError(f"unreadable term at {text[pos:pos + 20]!r}")
        coeff = Fraction(m.group(2) or 1)
        if m.group(1) == "-":
            coeff = -coeff
        exps = [0] * n
        for var, power in _FACTOR.findall(m.group(3)):
            exps[int(var) - 1] += int(power or 1)
        key = tuple(exps)
        total = out.get(key, 0) + coeff
        if total:
            out[key] = total
        else:
            out.pop(key, None)
        pos = m.end()
    return out
