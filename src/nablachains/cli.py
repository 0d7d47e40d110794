"""Command-line interface.

Subcommands: count, sequence, recurrence, enumerate, apply, verify.
Counts are emitted as decimal strings in JSON so arbitrary precision
survives any downstream consumer.  Exit codes: 0 success, 1 domain or
computation failure (any ValueError, the package's own errors included),
2 usage/parse failure (UsageError).

Input rules, each an exit 2 when broken:
- integer: every integer flag and each index of a word is -?[0-9]+, ASCII
  digits with an optional leading '-' and nothing around them, within
  int()'s digit limit; a flag out of range (--k -1) is an exit 1;
- word (--word): integers separated by ',', each with any whitespace
  around it, first applied first;
- vector (--input): '[' and ']' around polynomials separated by ',', each
  with any whitespace around it, in polynomial.parse_polynomial's grammar;
- a --word or --input value that starts with a single '-' is that flag's
  value (--word -1,2 reads as --word=-1,2), so it meets the rules above.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import random
import re
import sys
import time
from collections.abc import Iterable
from decimal import (
    MAX_EMAX,
    MAX_PREC,
    Context,
    Decimal,
    Inexact,
    Overflow,
    Rounded,
    localcontext,
)

from . import __version__
from .classify import TrivialityClass, classify_word, enumerate_nontrivial
from .counting import (
    _check_enumeration_cap,
    _iter_words,
    _walk,
    brute_force_count,
    count_sequence,
    count_total,
    enumerate_words,
)
from .forms import (
    ComponentVector,
    DifferentialForm,
    apply_word,
    domain_level,
    exterior_derivative,
    is_zero_operator,
    nabla,
    subsets,
)
from .graph import build_adjacency, check_bound
from .polynomial import Polynomial, parse_polynomial
from .recurrence import (
    characteristic_polynomial,
    minimal_recurrence,
    recurrence_from_polynomial,
    reference_recurrences,
    verify_recurrence,
)
from .words import N3_NAMES, CompositionWord, notation

MAX_COUNTING_N = 64
MAX_SYMBOLIC_N = 12
# bits of f(k) that count admits; the slowest admitted is n = 63, k = 2^17 - 5
MAX_COUNT_BITS = 2**17
# bits of f(1) + ... + f(k_max) that sequence admits, about k_max^2 / 2: a
# bound on the work, as only one step's counts are held at a time; n = 3 at
# k_max = 30 000 needs 450 045 000, and n = 64 is admitted to 32 761
MAX_SEQUENCE_BITS = 2**29
_INTEGER = re.compile(r"-?[0-9]+")


class UsageError(Exception):
    """Bad flags or unparseable input; maps to exit code 2."""


def _int(text: str) -> int:
    """The integer rule: -?[0-9]+, within int()'s digit limit.  int() alone
    also takes '+5', '5_000', ' 5' and '٣'.  An argparse type: argparse
    prints an ArgumentTypeError's message as it is."""
    if _INTEGER.fullmatch(text):
        try:
            return int(text)
        except ValueError:  # more digits than int() reads
            pass
    raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")


def _decimal(count: int) -> str:
    """Decimal digits of a count of any size.

    str() refuses ints longer than sys.get_int_max_str_digits() (4300 digits
    by default); the conversion through Decimal is not held to that limit.
    """
    return str(Decimal(count))


def _write_joined(sep: str, pieces: Iterable[str]) -> None:
    """Write sep.join(pieces) to stdout a piece at a time.  With sep ", ",
    the separator json.dumps puts between list items, a JSON list can be
    spliced into the json.dumps text of the rest of its payload."""
    write = sys.stdout.write
    for i, piece in enumerate(pieces):
        if i:
            write(sep)
        write(piece)


# subcommand implementations


def cmd_count(args) -> int:
    check_bound(args.n, "n", 3, MAX_COUNTING_N)
    # f(k) <= n * 2^(k-1), since each operator has at most two successors
    bits = args.k - 1 + args.n.bit_length()
    if bits > MAX_COUNT_BITS:
        raise ValueError(
            f"f(k) may need up to {_decimal(bits)} bits, over the budget of {MAX_COUNT_BITS} bits"
        )
    value = count_total(args.n, args.k)
    if args.format == "json":
        print(json.dumps({"n": args.n, "k": args.k, "count": _decimal(value)}))
    else:
        print(_decimal(value))
    return 0


def cmd_sequence(args) -> int:
    check_bound(args.n, "n", 3, MAX_COUNTING_N)
    # count_sequence's rule: the walk below is run here, not through it
    check_bound(args.k_max, "k_max", 1)
    # count's bound on the bits of f(k), k - 1 + n.bit_length(), summed
    k_max = args.k_max
    bits = k_max * (k_max - 1) // 2 + k_max * args.n.bit_length()
    if bits > MAX_SEQUENCE_BITS:
        raise ValueError(
            f"f(1..k_max) may need up to {_decimal(bits)} bits in all, "
            f"over the budget of {MAX_SEQUENCE_BITS} bits"
        )
    # Each value is written as it is made, and none is kept.  The walk steps
    # in Decimal, whose str() is linear in the digits where _decimal's
    # conversion from int is quadratic.  It stays exact: the walk only adds
    # integers, so a sum is exact unless it is rounded, and any rounding
    # (Rounded, Inexact) or overflow traps instead of passing.
    exact = Context(prec=MAX_PREC, Emax=MAX_EMAX, traps=[Inexact, Overflow, Rounded])
    write = sys.stdout.write
    with localcontext(exact):
        values = (str(sum(v)) for v in _walk(args.n, k_max, Decimal(1)))
        if args.format == "json":
            write(json.dumps({"n": args.n, "k_max": k_max})[:-1] + ', "values": [')
            _write_joined(", ", (f'"{v}"' for v in values))
            write("]}\n")
        elif args.format == "csv":
            write("k,f_k\n")
            for k, v in enumerate(values, start=1):
                write(f"{k},{v}\n")
        else:
            _write_joined(",", values)
            write("\n")
    return 0


def cmd_recurrence(args) -> int:
    check_bound(args.n, "n", 3, MAX_COUNTING_N)
    n = args.n
    seq = count_sequence(n, 2 * n + 8)
    rec = minimal_recurrence(seq)
    charpoly = characteristic_polynomial(build_adjacency(n))
    payload = {
        "n": n,
        "order": rec.order,
        "coefficients": [str(c) for c in rec.coefficients],
        "valid_from": rec.valid_from,
        "relation": rec.relation_string(),
        "characteristic_polynomial": str(charpoly),
        "characteristic_coefficients": [str(c) for c in charpoly.coefficients],
    }
    row = reference_recurrences().get(n)
    if row is not None:
        payload["matches_reference_table"] = rec == row
    if args.format == "json":
        print(json.dumps(payload))
    else:
        print(payload["relation"])
        print(f"characteristic polynomial: {payload['characteristic_polynomial']}")
        if row is not None:
            print(f"matches_reference_table: {str(payload['matches_reference_table']).lower()}")
    return 0


def cmd_enumerate(args) -> int:
    check_bound(args.n, "n", 3, MAX_COUNTING_N)
    # the refusals enumerate_words makes, before any output; it returns f(length)
    count = _check_enumeration_cap(args.n, args.length)
    if args.nontrivial:
        # the closed-form families
        words = enumerate_nontrivial(args.n, args.length)
        count = len(words)
        rows = ((w.indices, False) for w in words)
    else:
        # each row (indices, zero) is written as it is made, so the count comes first
        rows = _iter_words(args.n, args.length)
    label = {True: TrivialityClass.ZERO.value, False: TrivialityClass.NONTRIVIAL.value}
    write = sys.stdout.write
    if args.format == "json":
        head = {
            "n": args.n,
            "length": args.length,
            "nontrivial_only": bool(args.nontrivial),
            "count": str(count),
        }

        def entry(w: tuple[int, ...], zero: bool) -> str:
            e = {"applied": list(w), "composition": notation(w), "class": label[zero]}
            if args.n == 3:
                e["named"] = notation(w, N3_NAMES)
            return json.dumps(e)

        write(json.dumps(head)[:-1] + ', "words": [')
        _write_joined(", ", (entry(w, zero) for w, zero in rows))
        write("]}\n")
    elif args.format == "csv":
        write("applied,composition,class\n")
        for w, zero in rows:
            write(f"{' '.join(map(str, w))},{notation(w)},{label[zero]}\n")
    else:
        for w, zero in rows:
            write(f"{w}  {notation(w)}  [{label[zero]}]\n")
    return 0


def _parse_word(text: str, n: int) -> CompositionWord:
    try:
        indices = tuple(_int(part.strip()) for part in text.split(","))
        return CompositionWord(n, indices)
    except (argparse.ArgumentTypeError, ValueError) as exc:
        raise UsageError(f"bad word {text!r}: {exc}") from exc


def _parse_vector(text: str, n: int, level: int) -> ComponentVector:
    text = text.strip()
    if not (text.startswith("[") and text.endswith("]")):
        raise UsageError("input vector must be bracketed, e.g. [x1*x2, 0, x3]")
    parts = [p.strip() for p in text[1:-1].split(",")]
    expected = math.comb(n, level)
    if len(parts) != expected:
        raise ValueError(
            f"word starting with that operator needs {expected} input components "
            f"at level {level}, got {len(parts)}"
        )
    try:
        entries = tuple(parse_polynomial(p, n) for p in parts)
    except ValueError as exc:
        raise UsageError(f"bad polynomial: {exc}") from exc
    return ComponentVector(n, level, entries)


def cmd_apply(args) -> int:
    check_bound(args.n, "symbolic n", 3, MAX_SYMBOLIC_N)
    word = _parse_word(args.word, args.n)
    word.require_meaningful()
    level = domain_level(word.indices[0], args.n)
    vector = _parse_vector(args.input, args.n, level)
    result = apply_word(word, vector)
    components = [str(p) for p in result.entries]
    if args.format == "json":
        print(
            json.dumps(
                {
                    "n": args.n,
                    "word": list(word.indices),
                    "level": result.level,
                    "components": components,
                }
            )
        )
    else:
        print("[" + ", ".join(components) + "]")
    return 0


# verification checks: each returns the first failure's detail, or "" on a pass


def _oracle_equality() -> str:
    for n in range(3, 7):
        for k in range(1, 11):
            fast, slow = count_total(n, k), brute_force_count(n, k)
            if fast != slow:
                return f"n={n} k={k}: count_total {fast} != brute force {slow}"
    return ""


def _shifted_fibonacci() -> str:
    fib, next_fib = 3, 5  # Fib(k+3) and Fib(k+4), from k = 1
    for k in range(1, 31):
        if count_total(3, k) != fib:
            return f"k={k}: f(k) != Fib(k+3)"
        fib, next_fib = next_fib, fib + next_fib
    return ""


def _minimal_recurrences() -> str:
    for n in range(3, 11):
        seq = count_sequence(n, 2 * n + 8)
        rec = minimal_recurrence(seq)
        if not verify_recurrence(rec, count_sequence(n, 60)):
            return f"n={n}: derived recurrence fails on longer sequence"
        # a relation of order < d from the first term makes the d x d Hankel
        # matrix singular; det(-H) is the constant term of its charpoly
        d = rec.order
        hankel = [list(seq.values[i : i + d]) for i in range(d)]
        if characteristic_polynomial(hankel).coefficients[0] == 0:
            return f"n={n}: a shorter recurrence also fits"
    return ""


def _characteristic_recurrences() -> str:
    for n in range(3, 13):
        rec = recurrence_from_polynomial(characteristic_polynomial(build_adjacency(n)))
        if not verify_recurrence(rec, count_sequence(n, n + 20)):
            return f"n={n}: characteristic recurrence fails"
    return ""


def _reference_table() -> str:
    reference = reference_recurrences()
    mismatches = [
        n
        for n, expected in reference.items()
        if minimal_recurrence(count_sequence(n, 2 * n + 8)) != expected
    ]
    if not mismatches:
        return ""
    return (
        f"{len(reference) - len(mismatches)}/{len(reference)} rows match; derived "
        f"minimal recurrences disagree with the reference table at n={mismatches}"
    )


def _random_form(rng: random.Random, n: int, degree: int) -> DifferentialForm:
    comps = {}
    for s in subsets(n, degree):
        terms = {}
        for _ in range(3):
            exps = tuple(rng.randrange(0, 3) for _ in range(n))
            terms[exps] = rng.randrange(-5, 6)
        comps[s] = Polynomial(n, terms)
    return DifferentialForm(n, degree, comps)


def _d_squared() -> str:
    rng = random.Random(20260823)
    for n in range(3, 7):
        for degree in range(0, n + 1):
            for _ in range(10):
                form = _random_form(rng, n, degree)
                if not exterior_derivative(exterior_derivative(form)).is_zero():
                    return f"d^2 != 0 at n={n} degree={degree}"
    return ""


# classical identities for n=3 on generic inputs
def _grad_identity() -> str:
    f = Polynomial(3, {(2, 0, 0): 3, (1, 1, 0): -2, (0, 1, 2): 7, (0, 0, 1): 1})
    grad = nabla(1, ComponentVector(3, 0, (f,)))
    if grad != ComponentVector(3, 1, tuple(f.diff(i) for i in (1, 2, 3))):
        return "first-operator output disagrees with componentwise gradient"
    return ""


def _vector_field() -> tuple[Polynomial, ...]:
    return tuple(
        Polynomial(3, {(1, 1, 0): 2, (0, 0, 2): idx + 1, (1, 0, 1): -idx})
        for idx in range(3)
    )


def _curl_identity() -> str:
    fs = _vector_field()
    expected = (
        fs[2].diff(2) - fs[1].diff(3),
        fs[0].diff(3) - fs[2].diff(1),
        fs[1].diff(1) - fs[0].diff(2),
    )
    if nabla(2, ComponentVector(3, 1, fs)) != ComponentVector(3, 1, expected):
        return "second-operator output disagrees with the curl formula"
    return ""


def _div_identity() -> str:
    fs = _vector_field()
    expected = (fs[0].diff(1) + fs[1].diff(2) + fs[2].diff(3),)
    if nabla(3, ComponentVector(3, 1, fs)) != ComponentVector(3, 0, expected):
        return "third-operator output disagrees with the divergence formula"
    return ""


def _triviality_concordance() -> str:
    for n in range(3, 7):
        for length in range(1, 5):
            for w in enumerate_words(n, length):
                symbolic_zero = is_zero_operator(w, n)
                combinatorial_zero = classify_word(w) is TrivialityClass.ZERO
                if symbolic_zero != combinatorial_zero:
                    return f"mismatch at n={n}, word {w.indices}"
    return ""


# scope -> (name, check) pairs, in the order verify runs and reports them
SUITES = {
    "counting": [
        ("oracle equality n=3..6, k=1..10", _oracle_equality),
        ("n=3 counts are shifted Fibonacci, k=1..30", _shifted_fibonacci),
    ],
    "recurrence": [
        ("derived minimal recurrences annihilate and are minimal n=3..10", _minimal_recurrences),
        ("characteristic recurrence annihilates counts n=3..12", _characteristic_recurrences),
        ("minimal recurrences match reference table n=3..10", _reference_table),
    ],
    "calculus": [
        ("d^2 == 0 on random polynomial forms", _d_squared),
        ("grad identity (n=3)", _grad_identity),
        ("curl identity (n=3)", _curl_identity),
        ("div identity (n=3)", _div_identity),
        ("triviality concordance (n=3..6, length=1..4)", _triviality_concordance),
    ],
}


def cmd_verify(args) -> int:
    scope = args.scope
    scopes = list(SUITES) if scope == "all" else [scope]
    checks = []  # (name, detail, seconds)
    for s in scopes:
        for name, check in SUITES[s]:
            start = time.perf_counter()
            detail = check()
            checks.append((name, detail, time.perf_counter() - start))
    passed = not any(detail for _, detail, _ in checks)
    if args.format == "json":
        print(
            json.dumps(
                {
                    "scope": scope,
                    "passed": passed,
                    "checks": [
                        {"name": name, "passed": not d, **({"detail": d} if d else {}), "elapsed_s": t}
                        for name, d, t in checks
                    ],
                }
            )
        )
    else:
        for name, detail, _ in checks:
            line = f"{'FAIL' if detail else 'PASS'}  {name}"
            if detail:
                line += f"  ({detail})"
            print(line)
    return 0 if passed else 1


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser, built on first use and then shared by every main() call:
    parse_args returns a fresh namespace and keeps no state between calls."""
    parser = argparse.ArgumentParser(
        prog="nablachains",
        description="Count, classify and symbolically verify chains of the "
        "differential operations on R^n.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_format(p, default, choices=("plain", "json", "csv")):
        p.add_argument("--format", choices=choices, default=default)

    dim = argparse.ArgumentParser(add_help=False)
    dim.add_argument("--n", type=_int, required=True)

    p = sub.add_parser("count", parents=[dim], help="number of meaningful chains of order k")
    p.add_argument("--k", type=_int, required=True)
    add_format(p, "plain", ("plain", "json"))
    p.set_defaults(func=cmd_count)

    p = sub.add_parser("sequence", parents=[dim], help="counts for k = 1..k_max")
    p.add_argument("--k-max", dest="k_max", type=_int, required=True)
    add_format(p, "plain")
    p.set_defaults(func=cmd_sequence)

    p = sub.add_parser("recurrence", parents=[dim], help="minimal recurrence for the counts")
    add_format(p, "json", ("plain", "json"))
    p.set_defaults(func=cmd_recurrence)

    p = sub.add_parser("enumerate", parents=[dim], help="list meaningful chains")
    p.add_argument("--length", type=_int, required=True)
    p.add_argument("--nontrivial", action="store_true")
    add_format(p, "json")
    p.set_defaults(func=cmd_enumerate)

    p = sub.add_parser("apply", parents=[dim], help="apply an operator chain to polynomial input")
    p.add_argument("--word", required=True, help="comma-separated indices, first applied first")
    p.add_argument("--input", required=True, help="bracketed polynomial components")
    add_format(p, "json", ("plain", "json"))
    p.set_defaults(func=cmd_apply)

    p = sub.add_parser("verify", help="run the built-in cross-check suites")
    p.add_argument("--scope", choices=(*SUITES, "all"), default="all")
    add_format(p, "plain", ("plain", "json"))
    p.set_defaults(func=cmd_verify)

    return parser


# Flags whose value may start with '-': a word (-1,2) or a vector (-x1).
_DASH_VALUE_FLAGS = ("--word", "--input")


def _join_dash_values(argv: Iterable[str]) -> list[str]:
    """argv with each single-dash value of a _DASH_VALUE_FLAGS flag, or of
    an abbreviation argparse takes for one, joined to it as --flag=value.
    argparse reads a value that starts with '-' and is not a plain negative
    number as an option, and then refuses the flag with 'expected one
    argument'; a value that starts with '--' stays an option, so a missing
    value is still a usage error."""
    joined: list[str] = []
    for arg in argv:
        flag = joined[-1] if joined else ""
        if (len(flag) > 2 and any(f.startswith(flag) for f in _DASH_VALUE_FLAGS)
                and arg[:1] == "-" and arg[:2] != "--"):
            joined[-1] += "=" + arg
        else:
            joined.append(arg)
    return joined


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(_join_dash_values(sys.argv[1:] if argv is None else argv))
    except SystemExit as exc:
        return exc.code if exc.code is not None else 2
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
