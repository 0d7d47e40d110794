#!/usr/bin/env python3
"""Plant each listed fault in a copy of the repository and check that its
killing test fails.

A mutant is (file, old text, new text, killing test).  All run in one
temporary copy of the repository: the old text, which must occur exactly
once in the file, is replaced, `pytest -x -q` runs on the killing test (a
test file or a node id), and the file is restored.  A failing run kills the
mutant.  The killing tests first run together, in one pytest process, on
the unchanged copy, since a test that fails anyway kills nothing; if that
run fails, each runs alone, and every one that fails is named.  Prints
killed or survived per mutant, then a summary that ends with the run's wall
time, and exits 1 if any survived, 2 if an edit or a baseline run is
refused.
EQUIVALENT lists edits that change no answer, each with its argument; their
old text is checked as a mutant's is, but they are not run.

    python3 scripts/mutants.py

Standard library only; the tests need pytest and the test dependencies.
"""

import os
import pathlib
import shutil
import subprocess
import sys
import tempfile
import time

ROOT = pathlib.Path(__file__).resolve().parents[1]

MUTANTS = [
    # the composability rule, stated once as the successors' closed form
    ("src/nablachains/graph.py", "j = n + 1 - i", "j = n - i",
     "tests/test_graph.py::test_adjacency_agrees_with_is_composable"),
    # the bound rule for dimensions, indices, orders, lengths, levels and
    # degrees: its least value is taken, and a bool is refused, as an
    # operator index too
    ("src/nablachains/graph.py", "value < low", "value <= low",
     "tests/test_graph.py::test_bound_takes_its_least_value_and_refuses_the_one_below"),
    ("src/nablachains/graph.py", "isinstance(value, bool) or ", "",
     "tests/test_graph.py::test_bound_refuses_a_bool_or_non_int"),
    ("src/nablachains/graph.py", "isinstance(value, bool) or ", "",
     "tests/test_graph.py::test_operator_index_message_is_shared"),
    # a non-int whose value is in range is named as a non-int, not taken
    ("src/nablachains/graph.py", 'raise ValueError(f"{name} must be an int, got {value!r}")', "pass",
     "tests/test_graph.py::test_dimension_message_is_shared"),
    # a form's keys are its basis subsets, each strictly ascending, and
    # complement_sign reads its subset through the same table
    ("src/nablachains/forms.py", "s for s in itertools.combinations(range(1, n + 1), size)}",
     "s for s in itertools.combinations_with_replacement(range(1, n + 1), size)}",
     "tests/test_forms.py::test_cached_tables_equal_their_derivations"),
    ("src/nablachains/forms.py", "    s = _subset(_basis(n, len(s)), s, len(s))\n", "",
     "tests/test_forms.py::test_form_and_vector_checks_name_the_fault"),
    # the identification of degrees with levels: the low side runs up to
    # n // 2 inclusive, and the high side's sign is the parity of (S, T)
    ("src/nablachains/forms.py", "if degree <= n // 2:", "if degree < n // 2:",
     "tests/test_forms.py::test_cached_tables_equal_their_derivations"),
    ("src/nablachains/forms.py", "return t, -1 if (sum(s) - len(s) * (len(s) + 1) // 2) % 2 else 1",
     "return t, 1 if (sum(s) - len(s) * (len(s) + 1) // 2) % 2 else -1",
     "tests/test_forms.py::test_complement_sign_n3"),
    # the lift is the one level check on the nabla path
    ("src/nablachains/forms.py", "if (expected := _level(target_degree, v.n)) != v.level:",
     "if False and (expected := _level(target_degree, v.n)) != v.level:",
     "tests/test_forms.py::test_nabla_level_mismatch"),
    # the zero test: a word of length 1 or 2 is read from the table, a longer
    # word is refused before its pairs are read, and a zero pair ends the
    # decision with no whole-word probe
    ("src/nablachains/forms.py", "if len(word) <= 2:", "if len(word) <= 1:",
     "tests/test_forms.py::test_short_words_are_decided_once"),
    ("src/nablachains/forms.py", "    word.require_meaningful()\n    if any(", "    if any(",
     "tests/test_forms.py::test_is_zero_operator_refuses_a_word_before_reading_its_pairs"),
    ("src/nablachains/forms.py", "if any(_zero_short(", "if False and any(_zero_short(",
     "tests/test_forms.py::test_is_zero_operator_ends_at_a_zero_pair"),
    # the probe's exponents are the word's length, so every derivative of
    # that order leaves a term: one less reads nabla_2 at n = 3 as zero on 1
    ("src/nablachains/forms.py", "Polynomial.monomial(n, (len(word),) * n)",
     "Polynomial.monomial(n, (len(word) - 1,) * n)",
     "tests/test_forms.py::test_is_zero_operator_known_pairs"),
    # an enumeration's least length, checked before the cap
    ("src/nablachains/counting.py", '"length k", 1)', '"length k", 0)',
     "tests/test_graph.py::test_bound_takes_its_least_value_and_refuses_the_one_below"),
    # the parser's walk: a term after the first needs signs (7 x1 is not
    # 7 + x1), a factor after '*' has none (x1*-x2 is not -x1*x2), a
    # character no token starts with outranks a grammar fault (3 /4 is named
    # by its /), and a term's signs multiply; then apply_word gives an
    # integral coefficient as an int, clears by the lcm of the denominators,
    # takes a D of exactly the cutoff's bits, and past the cutoff divides by
    # 1, not D
    ("src/nablachains/polynomial.py", """raise ValueError(f"expected '+' or '-', got {token!r}")""", "pass",
     "tests/test_polynomial.py::test_grammar_edges_that_are_refused"),
    ("src/nablachains/polynomial.py", 'raise ValueError(f"unexpected token {signs[0]!r}")', "pass",
     "tests/test_polynomial.py::test_grammar_edges_that_are_refused"),
    ("src/nablachains/polynomial.py", "fault = _text_fault(text)", "fault = None",
     "tests/test_polynomial.py::test_grammar_edges_that_are_refused"),
    ("src/nablachains/polynomial.py", 'if signs.count("-") & 1:',
     'if not signs.count("-") & 1:', "tests/test_polynomial.py::test_parse_basic"),
    ("src/nablachains/forms.py", "out[e] = q if not r else", "out[e] = Fraction(c, d) if True else",
     "tests/test_forms.py::test_apply_word_gives_an_int_for_each_integral_coefficient"),
    ("src/nablachains/forms.py", "math.lcm(d, den)", "max(d, den)",
     "tests/test_forms.py::test_apply_word_folds_over_one_shared_denominator"),
    ("src/nablachains/forms.py", "if d.bit_length() > _CLEARED_DENOMINATOR_BITS:",
     "if d.bit_length() >= _CLEARED_DENOMINATOR_BITS:",
     "tests/test_forms.py::test_apply_word_clears_a_denominator_of_exactly_the_cutoff_bits"),
    ("src/nablachains/forms.py", "d, cleared = 1, False", "cleared = False",
     "tests/test_forms.py::test_apply_word_folds_over_one_shared_denominator"),
    # a polynomial's exponent tuples are distinct
    ("src/nablachains/polynomial.py", "if key in canon:", "if key is canon:",
     "tests/test_polynomial.py::test_constructor_rejects_a_key_repeated_after_tuple"),
    # characteristic_polynomial: the sign of Newton's identities and the
    # packing width, whose bound is tight; Berlekamp-Massey's order update
    ("src/nablachains/recurrence.py", "divmod(-sum(", "divmod(sum(",
     "tests/test_recurrence.py::test_characteristic_polynomial_identity"),
    ("src/nablachains/recurrence.py", "bit_length() + 1", "bit_length()",
     "tests/test_recurrence.py::test_characteristic_polynomial_identity"),
    ("src/nablachains/recurrence.py", "if 2 * order <= k:", "if 2 * order < k:",
     "tests/test_recurrence.py::test_minimal_recurrence_matches_rational_berlekamp_massey"),
    # verify_recurrence: the comparison, and each end of the applicable range
    ("src/nablachains/recurrence.py", "values[k - 1] == sum(", "values[k - 1] >= sum(",
     "tests/test_recurrence.py::test_verify_recurrence_at_its_edges"),
    ("src/nablachains/recurrence.py", "max(r.valid_from, d + 1)", "max(r.valid_from, d + 2)",
     "tests/test_recurrence.py::test_verify_recurrence_at_its_edges"),
    ("src/nablachains/recurrence.py", "len(values) + 1)", "len(values))",
     "tests/test_recurrence.py::test_verify_recurrence_at_its_edges"),
    # the CLI budgets, each at its edge
    ("src/nablachains/cli.py", "if bits > MAX_COUNT_BITS:", "if bits >= MAX_COUNT_BITS:",
     "tests/test_cli.py::test_count_bit_budget_boundary"),
    ("src/nablachains/cli.py", "if bits > MAX_SEQUENCE_BITS:", "if bits >= MAX_SEQUENCE_BITS:",
     "tests/test_cli.py::test_sequence_bit_budget_boundary"),
    # each verify check, narrowed or emptied, is caught by its planted fault
    ("src/nablachains/cli.py", "range(1, 11)", "range(1, 10)",
     "tests/test_cli.py::test_verify_oracle_runs_every_pair"),
    ("src/nablachains/cli.py", "range(1, 31)", "range(1, 30)",
     "tests/test_cli.py::test_verify_fibonacci_runs_every_k_and_catches_a_wrong_count"),
    ("src/nablachains/cli.py", "range(3, 11)", "range(3, 10)",
     "tests/test_cli.py::test_verify_minimal_recurrences_runs_every_n_and_catches_faults"),
    ("src/nablachains/cli.py", "range(3, 13)", "range(3, 12)",
     "tests/test_cli.py::test_verify_characteristic_recurrences_runs_every_n_and_catches_a_wrong_charpoly"),
    ("src/nablachains/cli.py", "reference.items()", "list(reference.items())[1:]",
     "tests/test_cli.py::test_verify_reference_table_compares_every_row"),
    ("src/nablachains/cli.py", "range(0, n + 1)", "range(0, n)",
     "tests/test_cli.py::test_verify_d_squared_runs_every_form_and_catches_a_wrong_d"),
    ("src/nablachains/cli.py", "if grad != ", "if False and grad != ",
     "tests/test_cli.py::test_verify_identities_catch_a_wrong_nabla"),
    ("src/nablachains/cli.py", "if nabla(2, ComponentVector(3, 1, fs)) !=",
     "if False and nabla(2, ComponentVector(3, 1, fs)) !=",
     "tests/test_cli.py::test_verify_identities_catch_a_wrong_nabla"),
    ("src/nablachains/cli.py", "if nabla(3, ComponentVector(3, 1, fs)) !=",
     "if False and nabla(3, ComponentVector(3, 1, fs)) !=",
     "tests/test_cli.py::test_verify_identities_catch_a_wrong_nabla"),
    ("src/nablachains/cli.py", "range(1, 5)", "range(1, 4)",
     "tests/test_cli.py::test_verify_concordance_covers_n6_length4"),
    ("src/nablachains/counting.py", "if (total := sum(v)) > cap:", "if (total := sum(v)) >= cap:",
     "tests/test_counting.py::test_cap_walk_returns_the_total_it_reached"),
    # count_total's certificate: a wrong g fails it, and the total is stepped
    ("src/nablachains/counting.py", "if any(shifted):", "if False:",
     "tests/test_counting.py::test_polynomial_passing_only_the_scalar_check_falls_back"),
    # fast paths, each against its slow oracle: squaring in the power ladder,
    # the alternation flag of each enumeration step, classify_word's d^2
    # rule, and the sign of each wedge exterior_derivative reads
    ("src/nablachains/counting.py", "twice = 2 * a", "twice = a",
     "tests/test_counting.py::test_jumps_agree_with_stepping"),
    ("src/nablachains/counting.py", "((j,), j == i + 1)", "((j,), j == i - 1)",
     "tests/test_counting.py::test_walk_rows_are_the_searched_words_with_their_zero_flag"),
    ("src/nablachains/classify.py", "b == a + 1", "b == a - 1",
     "tests/test_classify.py::test_symbolic_concordance_small"),
    ("src/nablachains/forms.py", "-1 if pos % 2 else 1))", "1 if pos % 2 else -1))",
     "tests/test_forms.py::test_cached_tables_equal_their_derivations"),
]

# Edits that change no answer, so no test can kill them; each is listed with
# the argument for it and is not run.  Its old text is checked like a
# mutant's, so the list cannot outlive the code it names.
EQUIVALENT = [
    # an int's denominator is 1, so reading it too clears an all-int vector
    # at D = 1 and divides each output term by 1, which changes no value
    ("src/nablachains/forms.py", "\n            if isinstance(c, Fraction)}", "}"),
]


def misplaced(root: pathlib.Path) -> list[str]:
    """Why each listed edit, mutant or equivalent, cannot be made under root:
    its old text does not occur exactly once in its file."""
    faults = []
    for path, old, *_ in MUTANTS + EQUIVALENT:
        found = (root / path).read_text(encoding="utf-8").count(old)
        if found != 1:
            faults.append(f"{old!r} occurs {found} times in {path}, not once")
    return faults


def run_pytest(copy: pathlib.Path, *args: str) -> tuple[bool, float]:
    """(passed, seconds) of `pytest -q *args` in the copy.  No bytecode is
    written, so a mutant never runs from a cache of the file it changed."""
    env = dict(os.environ, PYTHONPATH=str(copy / "src"), PYTHONDONTWRITEBYTECODE="1")
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", *args],
        cwd=copy, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
    )
    return proc.returncode == 0, time.perf_counter() - start


def main() -> int:
    start = time.perf_counter()
    with tempfile.TemporaryDirectory(prefix="mutants-") as tmp:
        copy = pathlib.Path(tmp) / "repo"
        shutil.copytree(ROOT, copy, ignore=shutil.ignore_patterns(
            ".git", "__pycache__", ".pytest_cache", ".hypothesis", "results"))
        faults = misplaced(copy)
        for fault in faults:
            print(f"refused: {fault}")
        if faults:
            return 2
        # every killing test in one run, as pytest's start-up is most of a run;
        # only if that fails is each run on its own, to name the failing ones
        targets = list(dict.fromkeys(t for *_, t in MUTANTS))
        passed, seconds = run_pytest(copy, *targets)
        print(f"baseline  {'passed' if passed else 'FAILED'}  "
              f"{len(targets)} killing tests in one run  ({seconds:.1f} s)")
        if not passed:
            failing = [t for t in targets if not run_pytest(copy, t)[0]]
            for target in failing:
                print(f"baseline  FAILED  {target}")
            if not failing:
                print("baseline  FAILED  only when the killing tests run together")
            return 2
        survivors = 0
        for path, old, new, target in MUTANTS:
            source = copy / path
            original = source.read_text(encoding="utf-8")
            source.write_text(original.replace(old, new), encoding="utf-8")
            try:
                passed, seconds = run_pytest(copy, "-x", target)
            finally:
                source.write_text(original, encoding="utf-8")
            survivors += passed
            verdict = "SURVIVED" if passed else "killed"
            print(f"{verdict:8}  {path}: {old!r} -> {new!r}  by {target}  ({seconds:.1f} s)")
    print(f"{len(MUTANTS) - survivors} of {len(MUTANTS)} mutants killed; "
          f"{len(EQUIVALENT)} listed as equivalent, not run; "
          f"{time.perf_counter() - start:.0f} s wall")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
