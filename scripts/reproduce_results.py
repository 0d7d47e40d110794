#!/usr/bin/env python3
"""Reproduce the headline results at desk scale.

Prints the composability table and count tree values for n=3, the count
sequences and derived minimal recurrences for n=3..10 (with the shipped
reference table alongside, whose rows the total sequence needs in full only
at n = 3, 4, 5, 7 and 9; see reference_recurrences), and the non-trivial chain
families, then runs the counting and calculus suites of `nablachains verify`
(counts against the brute-force oracle, vector-calculus identities, and the
chain classification against the symbolic engine).  The recurrence suite is
left to `verify`: its reference-table check reports the n = 6, 8, 10
disagreement shown row by row above.
"""

import argparse
import sys

import nablachains as nc
from nablachains.cli import main as nablachains_main

N_RANGE = range(3, 11)  # the n shown for recurrences and non-trivial chains


def show_n3_basics() -> None:
    print("composability matrix, n=3 (rows: first applied):")
    for i, row in enumerate(nc.build_adjacency(3), start=1):
        print(f"  nabla_{i}: {row}")
    print()
    print("counts f(0)..f(10) for n=3 (shifted Fibonacci):")
    print(" ", [nc.count_total(3, k) for k in range(11)])
    print()


def show_recurrences() -> None:
    reference = nc.reference_recurrences()
    print("derived minimal recurrences (sequences of 2n + 8 terms):")
    for n in N_RANGE:
        seq = nc.count_sequence(n, 2 * n + 8)
        rec = nc.minimal_recurrence(seq)
        line = f"  n={n:2d}: {rec.relation_string()}"
        ref = reference.get(n)
        if ref is not None:
            if rec == ref:
                line += "   [matches reference table]"
            else:
                valid = nc.verify_recurrence(ref, nc.count_sequence(n, 60))
                status = (
                    "holds; total sequence satisfies a shorter divisor"
                    if valid
                    else "does not hold on the counts"
                )
                line += f"   [reference row {ref.relation_string()!r}: {status}]"
        print(line)
    print()


def show_nontrivial() -> None:
    print("non-trivial chains of length 4:")
    for n in N_RANGE:
        words = nc.enumerate_nontrivial(n, 4)
        rendered = ", ".join(str(w.indices) for w in words)
        print(f"  n={n:2d}: {rendered}")
    print()


def main() -> int:
    argparse.ArgumentParser(description=__doc__).parse_args()
    show_n3_basics()
    show_recurrences()
    show_nontrivial()
    print("cross-checks:")
    codes = [nablachains_main(["verify", "--scope", s]) for s in ("counting", "calculus")]
    return max(codes)


if __name__ == "__main__":
    sys.exit(main())
