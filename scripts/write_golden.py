#!/usr/bin/env python3
"""Rewrite the golden corpus under tests/golden/ from the current code.

Each file tests/golden/<subcommand>.json lists entries of (argv, exit code,
stdout, stderr), one per call of `nablachains.cli.main` made in process;
tests/golden/reproduce_results.txt is the stdout of
scripts/reproduce_results.py.  tests/test_golden.py replays every entry and
compares bytes, so an unchanged corpus shows that the CLI's output did not
change.  `verify --format json` reports each check's `elapsed_s`, which is
masked on both sides.  argparse wraps its usage text to the terminal width,
so every call runs with COLUMNS=80.

    PYTHONPATH=src python3 scripts/write_golden.py

A change that rewrites an entry should say which, and why.
"""

import argparse
import contextlib
import importlib.util
import io
import json
import os
import pathlib
import re
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]
GOLDEN = ROOT / "tests" / "golden"
COLUMNS = "80"
_ELAPSED = re.compile(r'("elapsed_s": )[^,}]+')


def mask(stdout: str) -> str:
    """stdout with every `elapsed_s` value replaced by a fixed "*"."""
    return _ELAPSED.sub(r'\1"*"', stdout)


def _apply(n: int, word: str, vector: str, *extra: str) -> list[str]:
    return ["apply", "--n", str(n), "--word", word, "--input", vector, *extra]


# subcommand -> argv of each call; refusals (exit 1 and 2) follow the answers
CALLS = {
    "count": [
        ["count", "--n", "3", "--k", "5"],
        ["count", "--n", "3", "--k", "0"],
        ["count", "--n", "4", "--k", "10", "--format", "json"],
        ["count", "--n", "64", "--k", "5000"],
        ["count", "--n", "63", "--k", "300", "--format", "json"],
        # integers: -?[0-9]+ within int()'s digit limit, else exit 2
        ["count", "--n", "3", "--k", "5_000"],
        ["count", "--n", "3", "--k", "+5"],
        ["count", "--n", "3", "--k", " 5"],
        ["count", "--n", "3", "--k", "٣"],
        ["count", "--n", "3", "--k", "1" * 4301],
        ["count", "--n", "3", "--k"],
        ["count", "--n", "3"],
        # in the grammar but out of range or over budget: exit 1
        ["count", "--n", "3", "--k", "-1"],
        ["count", "--n", "2", "--k", "5"],
        ["count", "--n", "65", "--k", "5"],
        ["count", "--n", "3", "--k", "131100"],
    ],
    "sequence": [
        ["sequence", "--n", "3", "--k-max", "10"],
        ["sequence", "--n", "3", "--k-max", "10", "--format", "json"],
        ["sequence", "--n", "5", "--k-max", "12", "--format", "csv"],
        ["sequence", "--n", "64", "--k-max", "20", "--format", "json"],
        ["sequence", "--n", "3", "--k-max", "0"],
        ["sequence", "--n", "3", "--k-max", "40000"],
        ["sequence", "--n", "3", "--k-max", "1.5"],
    ],
    "recurrence": [
        ["recurrence", "--n", str(n), "--format", fmt]
        for n in range(3, 65) for fmt in ("plain", "json")
    ] + [
        ["recurrence", "--n", "65"],
        ["recurrence", "--n", "-3"],
    ],
    "enumerate": [
        ["enumerate", "--n", str(n), "--length", str(length), "--format", fmt, *extra]
        for n, length in ((3, 4), (4, 5), (7, 3), (64, 2))
        for fmt in ("json", "csv", "plain") for extra in ([], ["--nontrivial"])
    ] + [
        ["enumerate", "--n", "3", "--length", "28"],
        ["enumerate", "--n", "3", "--length", "0"],
        ["enumerate", "--n", "65", "--length", "2"],
        ["enumerate", "--n", "3", "--length", "x"],
    ],
    "apply": [
        _apply(3, "1", "[1/2*x1^2 + 1/3*x2]", "--format", "plain"),
        _apply(3, "1,3", "[1/2*x1^2*x2 + 1/3*x3^3]", "--format", "plain"),
        _apply(3, "1", "[--x1]"),
        _apply(4, "3,2", "[x1^3*x2, -x2*x3^2, 7/3*x4, x1*x2*x3*x4, 0, x3^4]"),
        # rationals whose shared denominator is 1, and one past the cutoff
        # (2^521 - 1 has 521 bits) that apply_word folds without clearing
        _apply(3, "1", "[4/2*x1^2 + 6/3*x2]"),
        _apply(3, "1", f"[1/{2**521 - 1}*x1^2 + 1/2*x2^2 + 1/3*x2]", "--format", "plain"),
        # words: integers separated by ','
        _apply(3, "1,,2", "[x1]"),
        _apply(3, "-1,2", "[x1]"),
        _apply(3, "1,x", "[x1]"),
        _apply(3, "1,4", "[x1]"),
        _apply(3, "1,1", "[x1]"),
        _apply(13, "1", "[x1]"),
        # vectors: a bracketed list of as many polynomials as the level needs
        _apply(3, "1", "x1"),
        _apply(3, "2", "[x1, x2]"),
        # polynomials
        _apply(3, "1", "[x4]"),
        _apply(3, "1", "[x1^]"),
        _apply(3, "1", "[1/0]"),
        _apply(3, "1", "[x1**2]"),
    ],
    "verify": [
        ["verify", "--format", "json"],
        ["verify", "--scope", "counting"],
        ["verify", "--scope", "calculus"],
        ["verify"],
    ],
}


def call(argv: list[str]) -> dict:
    """One in-process call of the CLI, as a corpus entry."""
    from nablachains.cli import main

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return {"argv": argv, "exit": code, "stdout": mask(out.getvalue()), "stderr": err.getvalue()}


def reproduce_results() -> str:
    """stdout of scripts/reproduce_results.py, run in process."""
    spec = importlib.util.spec_from_file_location("reproduce_results",
                                                  ROOT / "scripts" / "reproduce_results.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    out = io.StringIO()
    argv, sys.argv = sys.argv, ["reproduce_results.py"]
    try:
        with contextlib.redirect_stdout(out):
            code = module.main()
    finally:
        sys.argv = argv
    if code != 0:
        raise SystemExit(f"reproduce_results.py exited {code}")
    return out.getvalue()


def main() -> int:
    argparse.ArgumentParser(description=__doc__,
                            formatter_class=argparse.RawDescriptionHelpFormatter).parse_args()
    os.environ["COLUMNS"] = COLUMNS
    GOLDEN.mkdir(parents=True, exist_ok=True)
    for name, calls in CALLS.items():
        entries = [call(argv) for argv in calls]
        text = json.dumps(entries, indent=1, ensure_ascii=False) + "\n"
        (GOLDEN / f"{name}.json").write_text(text, encoding="utf-8")
        print(f"{name}: {len(entries)} entries")
    (GOLDEN / "reproduce_results.txt").write_text(reproduce_results(), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
