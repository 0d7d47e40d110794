"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
report.

Criteria 1, 2, 4 and 6 each take their verdict from one check of
`nablachains verify`, defined once in cli.SUITES.  Criterion 3 checks the
reference table for n = 3..10, which the total-count sequence needs in full
only at n = 3, 4, 5, 7 and 9, as reference_recurrences' docstring states.
"""

import contextlib
import io
import json
import math
import random
import time
from fractions import Fraction

import pytest

from nablachains import (
    ComponentVector,
    IntegerPolynomial,
    Polynomial,
    apply_word,
    build_adjacency,
    characteristic_polynomial,
    cli,
    count_sequence,
    count_total,
    enumerate_nontrivial,
    enumerate_words,
    is_zero_operator,
    iso_from_components,
    iso_to_components,
    minimal_recurrence,
    nabla,
    recurrence_from_polynomial,
    reference_recurrences,
    verify_recurrence,
)
from nablachains.forms import DifferentialForm, domain_level, subsets


def _report(number: int, name: str, ok: bool, detail: str = "") -> None:
    line = f"ACCEPTANCE {number} [{name}]: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f" - {detail}"
    print(line)


def _verdict(number, title, scope, check, bound=math.inf, failure=""):
    """Report and assert criterion `number`: failure if given, else the named
    check of `nablachains verify --scope <scope> --format json`, within bound
    seconds.  Its exit code is unread; the recurrence scope fails by design."""
    with contextlib.redirect_stdout(io.StringIO()) as out:
        cli.main(["verify", "--scope", scope, "--format", "json"])
    (entry,) = [c for c in json.loads(out.getvalue())["checks"] if c["name"] == check]
    elapsed = entry["elapsed_s"]
    failure = failure or entry.get("detail") or (f"over {bound}s" if elapsed >= bound else "")
    _report(number, title, not failure, "; ".join(filter(None, (failure, f"{elapsed:.3f}s"))))
    assert not failure, failure


def _rand_poly(rng, n, terms=3, max_exp=2):
    d = {}
    for _ in range(terms):
        e = tuple(rng.randrange(0, max_exp + 1) for _ in range(n))
        d[e] = Fraction(rng.randrange(-9, 10), rng.randrange(1, 5))
    return Polynomial(n, d)


def test_criterion_1_fibonacci_counts():
    first = count_sequence(3, 5).values
    failure = "" if first == (3, 5, 8, 13, 21) else f"count_sequence(3, 5) is {first}"
    _verdict(1, "Fibonacci counts n=3", "counting",
             "n=3 counts are shifted Fibonacci, k=1..30", 1.0, failure)


def test_criterion_2_counting_oracle():
    _verdict(2, "matrix counts equal brute force", "counting",
             "oracle equality n=3..6, k=1..10", 10.0)


# n at which the total-count sequence needs the whole reference row; at the
# other n its minimal recurrence is a proper divisor of the row
SEQUENCE_MINIMAL_ROWS = (3, 4, 5, 7, 9)


def _recurrence_polynomial(rec) -> tuple[int, ...]:
    """t^d - c_1 t^{d-1} - ... - c_d, ascending coefficients."""
    return tuple(-c for c in reversed(rec.coefficients)) + (1,)


def _monic_divides(divisor: tuple[int, ...], dividend: tuple[int, ...]) -> bool:
    rem = list(dividend)
    d = len(divisor) - 1
    for shift in range(len(rem) - 1 - d, -1, -1):
        q = rem[shift + d]
        for i, c in enumerate(divisor):
            rem[shift + i] -= q * c
    return not any(rem)


def test_criterion_3_recurrence_table():
    start = time.monotonic()
    reference = reference_recurrences()
    mismatches = {}
    for n in range(3, 11):
        row = reference[n]
        p = characteristic_polynomial(build_adjacency(n)).coefficients
        e = next(i for i, c in enumerate(p) if c)
        expected = recurrence_from_polynomial(IntegerPolynomial(p[e:]))
        minimal = minimal_recurrence(count_sequence(n, 2 * n + 8))
        problems = []
        if row != expected:
            problems.append(
                f"reference {row.relation_string()!r} is not the recurrence of "
                f"p(t)/t^{e}, {expected.relation_string()!r}"
            )
        if not verify_recurrence(row, count_sequence(n, 60)):
            problems.append(f"reference {row.relation_string()!r} fails on the counts")
        if not _monic_divides(
            _recurrence_polynomial(minimal), _recurrence_polynomial(row)
        ):
            problems.append(
                f"derived {minimal.relation_string()!r} does not divide "
                f"reference {row.relation_string()!r}"
            )
        elif (minimal.order == row.order) != (n in SEQUENCE_MINIMAL_ROWS):
            problems.append(
                f"derived {minimal.relation_string()!r} vs reference "
                f"{row.relation_string()!r}: expected "
                + ("equal order" if n in SEQUENCE_MINIMAL_ROWS else "a proper divisor")
            )
        if problems:
            mismatches[n] = "; ".join(problems)
    elapsed = time.monotonic() - start
    ok = not mismatches and elapsed < 5.0
    detail = f"{8 - len(mismatches)}/8 rows reproduced in {elapsed:.3f}s"
    detail += "".join(f"; n={n}: {why}" for n, why in mismatches.items())
    _report(3, "reference table is the characteristic recurrence", ok, detail)
    assert ok, detail


def test_criterion_4_characteristic_recurrence():
    _verdict(4, "characteristic recurrence annihilates counts", "recurrence",
             "characteristic recurrence annihilates counts n=3..12")


def test_criterion_5_vector_calculus_identities():
    rng = random.Random(51)
    n = 3

    # generic symbolic input with distinct random rational coefficients
    f = _rand_poly(rng, n, terms=6)
    grad = nabla(1, ComponentVector(n, 0, (f,)))
    ok = grad.entries == (f.diff(1), f.diff(2), f.diff(3))

    fs = tuple(_rand_poly(rng, n, terms=6) for _ in range(3))
    v = ComponentVector(n, 1, fs)
    curl = nabla(2, v)
    ok = ok and curl.entries == (
        fs[2].diff(2) - fs[1].diff(3),
        fs[0].diff(3) - fs[2].diff(1),
        fs[1].diff(1) - fs[0].diff(2),
    )
    div = nabla(3, v)
    ok = ok and div.entries == (fs[0].diff(1) + fs[1].diff(2) + fs[2].diff(3),)

    for _ in range(50):
        scalar = ComponentVector(n, 0, (_rand_poly(rng, n),))
        ok = ok and apply_word((1, 2), scalar).is_zero()
    for _ in range(50):
        field = ComponentVector(n, 1, tuple(_rand_poly(rng, n) for _ in range(3)))
        ok = ok and apply_word((2, 3), field).is_zero()

    _report(5, "n=3 operator identities and d^2 = 0", ok)
    assert ok


def test_criterion_6_triviality_concordance():
    _verdict(6, "symbolic/combinatorial triviality concordance", "calculus",
             "triviality concordance (n=3..6, length=1..4)", 60.0)


def test_criterion_7_alternating_families_n3():
    ok = True
    for length in range(2, 6):
        expected = []
        for k in (1, 2, 3):
            j = 4 - k
            expected.append(tuple(k if t % 2 == 0 else j for t in range(length)))
        got = [w.indices for w in enumerate_nontrivial(3, length)]
        ok = ok and got == expected
    _report(7, "three alternating non-trivial families for n=3", ok)
    assert ok


def test_criterion_8_round_trip_and_linearity():
    rng = random.Random(88)
    ok = True

    cases = 0
    while cases < 500:
        n = rng.randrange(3, 6)
        degree = rng.randrange(0, n + 1)
        form = DifferentialForm(
            n, degree, {s: _rand_poly(rng, n) for s in subsets(n, degree)}
        )
        ok = ok and iso_from_components(iso_to_components(form), degree) == form
        cases += 1

    while cases < 1000:
        n = rng.randrange(3, 6)
        words = enumerate_words(n, 2)
        w = words[rng.randrange(len(words))]
        level = domain_level(w.indices[0], n)
        size = math.comb(n, level)
        u = ComponentVector(n, level, tuple(_rand_poly(rng, n) for _ in range(size)))
        v = ComponentVector(n, level, tuple(_rand_poly(rng, n) for _ in range(size)))
        a = Fraction(rng.randrange(-7, 8), rng.randrange(1, 5))
        b = Fraction(rng.randrange(-7, 8), rng.randrange(1, 5))
        lhs = apply_word(w, u.scale(a) + v.scale(b))
        rhs = apply_word(w, u).scale(a) + apply_word(w, v).scale(b)
        ok = ok and lhs == rhs
        cases += 1

    _report(8, "iso round-trips and chain linearity, 1000 cases", ok)
    assert ok


@pytest.mark.parametrize("name, fault, number, detail", [
    ("count_total", lambda n, k: count_total(n, k) + ((n, k) == (3, 30)), 1,
     "k=30: f(k) != Fib(k+3)"),
    ("count_total", lambda n, k: count_total(n, k) + ((n, k) == (6, 10)), 2,
     f"n=6 k=10: count_total {count_total(6, 10) + 1} != brute force {count_total(6, 10)}"),
    ("characteristic_polynomial", lambda a: IntegerPolynomial(tuple(
        c + ((i, len(a)) == (1, 12)) for i, c in enumerate(characteristic_polynomial(a).coefficients)
    )), 4, "n=12: characteristic recurrence fails"),
    ("is_zero_operator", lambda w, n: is_zero_operator(w, n) is not ((n, len(w)) == (6, 4)), 6,
     "mismatch at n=6, word (1, 2, 3, 4)"),
])
def test_a_fault_planted_in_cli_fails_only_its_criterion(
    capsys, monkeypatch, name, fault, number, detail
):
    """Each fault fails only the criterion that reads its check; criteria 3, 5,
    7 and 8 call the library directly, where a fault in cli cannot reach."""
    monkeypatch.setattr(cli, name, fault)
    criteria = {
        1: test_criterion_1_fibonacci_counts, 2: test_criterion_2_counting_oracle,
        4: test_criterion_4_characteristic_recurrence, 6: test_criterion_6_triviality_concordance,
    }
    failures = {}
    for k, criterion in criteria.items():
        try:
            criterion()
        except AssertionError as exc:
            failures[k] = str(exc).splitlines()[0]
    assert failures == {number: detail}
    lines = capsys.readouterr().out.splitlines()
    assert [f": FAIL - {detail}; " in line for line in lines] == [k == number for k in criteria]
