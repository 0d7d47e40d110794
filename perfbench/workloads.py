"""The four workloads: seeded operation lists and the checks on their outputs.

Every operation is one call into the program, looked up on its module at call
time so that the traced run's wrappers are the ones called.  Each check
compares the output with reference.py, which never imports the program.
A check returns None when the output is right and a message otherwise.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional

from nablachains import cli, counting, forms

import reference as ref


@dataclass
class Op:
    label: str
    call: Callable[[], object]
    check: Callable[[object], Optional[str]]


def run_cli(argv: list[str]) -> str:
    """cli.main in-process with its output captured, as the shell would see
    it; a non-zero exit code raises."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(argv)
    if rc != 0:
        raise RuntimeError(f"exit code {rc}: {err.getvalue().strip()}")
    return out.getvalue()


# ------------------------------------------------------------------- count

# (n, k) whose cost the ROADMAP tracks; both are in every list.
COUNT_ANCHORS = ((3, 10**5), (64, 5000))


def count_specs(rng: random.Random, small: bool) -> list[tuple[int, int]]:
    """(n, k) pairs: the anchors, an n sweep and a k sweep.

    The n sweep has k near 300 for n = 3..64, so its cost grows as the n^2
    products of each dense step, which sparse stepping removes.  The k sweep
    has n = 3..8 and answers of 1000 to 12000 bits, where jumps would act.
    The seed moves each k by up to 3 %, which changes every answer but
    hardly the cost.
    """
    if small:
        return [(3, 40 + rng.randrange(5)), (6, 30 + rng.randrange(5)), (64, 12)]
    specs = list(COUNT_ANCHORS)
    for j in range(25):
        specs.append((3 + 61 * j // 24, round(300 * rng.uniform(0.97, 1.03))))
    for j in range(25):
        n = 3 + j % 6
        bits = 1000 * 12 ** (j / 24) * rng.uniform(0.97, 1.03)
        specs.append((n, round(bits / ref.growth_bits_per_step(n))))
    return specs


def count_op(n: int, k: int, expected: Callable[[int, int], int]) -> Op:
    def check(got) -> Optional[str]:
        if got != expected(n, k):
            return f"count_total({n}, {k}) differs from the sparse walk count"
        if n == 3 and got != ref.fibonacci(k + 3):
            return f"count_total(3, {k}) != F({k + 3})"
        return None

    return Op(f"count_total({n}, {k})", lambda: counting.count_total(n, k), check)


def count_workload(rng: random.Random, small: bool) -> list[Op]:
    specs = count_specs(rng, small)
    ks: dict[int, set[int]] = {}
    for n, k in specs:
        ks.setdefault(n, set()).add(k)
    walks: dict[int, dict[int, int]] = {}

    def expected(n: int, k: int) -> int:
        """One walk per n serves every k drawn for it."""
        if n not in walks:
            walks[n] = ref.walk_counts_at(n, ks[n])
        return walks[n][k]

    return [count_op(n, k, expected) for n, k in specs]


# -------------------------------------------------------------- recurrence

# Fixed multiset of n.  recurrence's output depends on n alone and its cost
# grows about as n^4, a fifth from one n to the next near the median, so a
# seed-drawn multiset would move the percentiles by that much: the seed
# orders this list instead.
RECURRENCE_NS = list(range(3, 25)) + list(range(3, 15)) + list(range(26, 37, 2)) + [40, 64]
RECURRENCE_NS_SMALL = [3, 4, 6, 7, 10]


def recurrence_op(n: int) -> Op:
    def check(out) -> Optional[str]:
        got = json.loads(out)
        coeffs = [int(c) for c in got["coefficients"]]
        charpoly = [int(c) for c in got["characteristic_coefficients"]]
        counts = ref.walk_counts(n, 4 * n + 16)
        if charpoly != ref.charpoly_newton(n):
            return f"n={n}: characteristic coefficients differ from Newton's identities"
        if got["order"] != len(coeffs) or got["valid_from"] != len(coeffs) + 1:
            return f"n={n}: order or valid_from inconsistent with the coefficients"
        if not ref.annihilates(coeffs, counts):
            return f"n={n}: relation fails on the counts up to k={4 * n + 16}"
        if len(coeffs) != ref.hankel_rank(counts, n + 1):
            return f"n={n}: order differs from the Hankel rank of the counts"
        if not ref.divides(coeffs, charpoly):
            return f"n={n}: relation polynomial does not divide the characteristic polynomial"
        return None

    argv = ["recurrence", "--n", str(n), "--format", "json"]
    return Op(f"recurrence --n {n}", lambda: run_cli(argv), check)


def recurrence_workload(rng: random.Random, small: bool) -> list[Op]:
    ns = list(RECURRENCE_NS_SMALL if small else RECURRENCE_NS)
    rng.shuffle(ns)
    return [recurrence_op(n) for n in ns]


# --------------------------------------------------------------- zero test

ZERO_TEST_GRID = [(3, 1), (3, 2), (3, 3), (3, 4), (4, 1), (4, 2), (4, 3),
                  (5, 1), (5, 2), (5, 3), (6, 1), (6, 2)]
ZERO_TEST_GRID_SMALL = [(3, 2), (3, 3), (4, 2)]


def zero_test_op(n: int, word: tuple[int, ...]) -> Op:
    def check(got) -> Optional[str]:
        if got is not ref.is_zero_chain(word):
            return f"n={n} word {word}: verdict {got} contradicts the d-squared rule"
        return None

    return Op(f"is_zero_operator({word}, {n})", lambda: forms.is_zero_operator(word, n), check)


def zero_test_workload(rng: random.Random, small: bool) -> list[Op]:
    ops = [
        zero_test_op(n, w)
        for n, length in (ZERO_TEST_GRID_SMALL if small else ZERO_TEST_GRID)
        for w in ref.meaningful_words(n, length)
    ]
    rng.shuffle(ops)
    return ops


# ------------------------------------------------------------------- apply

# (n, word, terms per component); the seed draws each component's monomials
# (degree 6..10) and rational coefficients.  Words are non-trivial
# alternating chains and zero chains; their count is held fixed per slot so
# that the seed moves the inputs and not the amount of work.
APPLY_SLOTS = [
    *[(3, w, t) for w in [(1,), (2,), (3,), (1, 3), (3, 1), (2, 2), (1, 2), (2, 3),
                          (1, 3, 1), (2, 2, 2), (3, 1, 3), (1, 2, 2)]
      for t in (50, 100)],
    (3, (1,), 200), (3, (1, 3, 1), 200),
    *[(n, w, 50) for n, words in [
        (4, [(1,), (1, 4), (4, 1), (3, 2), (2, 3), (1, 4, 1)]),
        (5, [(1,), (1, 5), (2, 4), (1, 2)]),
        (6, [(1,), (1, 6), (2, 5), (3, 4), (1, 6, 1)]),
        (8, [(1,), (1, 8, 1), (2, 7), (2, 3), (8, 1, 2)]),
    ] for w in words],
]
APPLY_SLOTS_SMALL = [(3, (1, 3), 6), (3, (2, 2), 4), (3, (1, 2), 5), (5, (2, 4), 3), (6, (1, 6, 1), 4)]


def random_monomial(rng: random.Random, n: int, degree: int) -> tuple[int, ...]:
    """A uniform draw from the exponent tuples in n variables of total degree
    at most degree: n bars among degree + n places, the gaps before each bar
    being the exponents (stars and bars, the last gap the unused degree)."""
    exps, prev = [], -1
    for bar in sorted(rng.sample(range(degree + n), n)):
        exps.append(bar - prev - 1)
        prev = bar
    return tuple(exps)


def random_poly(rng: random.Random, n: int, terms: int) -> ref.Poly:
    """terms distinct monomials of degree at most d, d drawn from the degrees
    in 6..10 that have that many, with coefficients +-a/b, a <= 99, b <= 9."""
    low = next(d for d in range(6, 11) if math.comb(n + d, n) >= terms)
    degree = rng.randint(low, 10)
    chosen: dict[tuple[int, ...], None] = {}
    while len(chosen) < terms:
        chosen[random_monomial(rng, n, degree)] = None
    return {e: Fraction(rng.choice([-1, 1]) * rng.randint(1, 99), rng.randint(1, 9)) for e in chosen}


def apply_op(n: int, word: tuple[int, ...], comps: list[ref.Poly]) -> Op:
    def check(out) -> Optional[str]:
        got = json.loads(out)["components"]
        size = math.comb(n, ref.codomain_level(word[-1], n))
        if len(got) != size:
            return f"n={n} word {word}: {len(got)} components, expected C({n}, level) = {size}"
        if ref.is_zero_chain(word) and any(c != "0" for c in got):
            return f"n={n} word {word}: a zero chain gave a non-zero component"
        want = ref.apply_chain(word, comps, n)
        for slot, (text, poly) in enumerate(zip(got, want)):
            if ref.parse(text, n) != poly:
                return f"n={n} word {word}: component {slot} differs from the reference"
        return None

    argv = ["apply", "--n", str(n), "--word", ",".join(map(str, word)),
            "--input", "[" + ", ".join(ref.render(p) for p in comps) + "]", "--format", "json"]
    return Op(f"apply --n {n} --word {word}", lambda: run_cli(argv), check)


def apply_workload(rng: random.Random, small: bool) -> list[Op]:
    ops = []
    for n, word, terms in APPLY_SLOTS_SMALL if small else APPLY_SLOTS:
        size = math.comb(n, ref.domain_level(word[0], n))
        ops.append(apply_op(n, word, [random_poly(rng, n, terms) for _ in range(size)]))
    rng.shuffle(ops)
    return ops


# ------------------------------------------------------ speed calibration
# The machine's speed moves by up to a half for tens of seconds with other
# guests' load on the host.  Each operation's time is divided by the time of
# a fixed kernel of the same kind of work, run around it (Tally.scale in
# run.py), and multiplied by that kernel's best time on the reference
# machine (a 2-vCPU Xeon VM, Python 3.11.7).  The kernels never call the
# program, so the ratio moves only when the program does.


def bigint_kernel() -> None:
    """Sparse bigint stepping, as count_total and the characteristic
    polynomial do."""
    ref.walk_counts_at(4, [800])


def fraction_kernel() -> None:
    """Tuple-keyed dicts of Fractions, as Polynomial does."""
    d = {(i, i % 13, i % 7): Fraction(i, 7) for i in range(600)}
    sum(v.numerator for v in d.values())


# (kernel, its best time in seconds on the reference machine) per workload.
KERNELS = {
    "count": (bigint_kernel, 1.65e-3),
    "recurrence": (bigint_kernel, 1.65e-3),
    "zero-test": (fraction_kernel, 0.46e-3),
    "apply": (fraction_kernel, 0.46e-3),
}

WORKLOADS = {
    "count": count_workload,
    "recurrence": recurrence_workload,
    "zero-test": zero_test_workload,
    "apply": apply_workload,
}

# One small operation of each workload's kind, run in a fresh interpreter
# for setup_s, with the line it must print.
SETUP_CODE = {
    "count": ("from nablachains import count_total; print(count_total(3, 1))", "3"),
    "recurrence": (
        "from nablachains.cli import main; "
        "main(['recurrence', '--n', '3', '--format', 'json'])",
        '"coefficients": ["1", "1"]',
    ),
    "zero-test": ("from nablachains import is_zero_operator; print(is_zero_operator((1, 2), 3))", "True"),
    "apply": (
        "from nablachains.cli import main; "
        "main(['apply', '--n', '3', '--word', '1', '--input', '[x1^2]', '--format', 'json'])",
        '"components": ["2*x1", "0", "0"]',
    ),
}
