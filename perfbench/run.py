"""Benchmark of nablachains: four workloads, timed end to end and per layer.

    python3 perfbench/run.py --workload count --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --self-test
    python3 perfbench/run.py --compare BEFORE_DIR AFTER_DIR

A run builds the workload's operation list from the seed and times whole
rounds of it in this process, one operation at a time.  Every output is then
checked against reference.py.  The last line of stdout is one JSON object
with the operations attempted and failed and the metrics that BENCHMARK.json
names: the end-to-end ones with --trace 0, the per-layer ones with --trace 1.
A copy goes to perfbench/results/ for --compare.  See README.md.
"""

from __future__ import annotations

import argparse
import bisect
import contextlib
import gc
import io
import json
import math
import random
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"

# Fresh interpreters started for setup_s, after one that writes bytecode.
SETUP_STARTS = 15
# Each of them first times this kernel, which uses builtins only so that it
# imports nothing the program would, and prints its CPU time; the set-up
# time is scaled by it as operations are scaled by KERNELS in workloads.py.
# 0.65 ms is the kernel's best batch median on the reference machine.
SETUP_KERNEL = (
    "import time; t = time.process_time(); "
    "d = {(i, i % 13, i % 7): i * 7 for i in range(2000)}; sum(d.values()); del d; "
    "print('kernel', time.process_time() - t); "
)
SETUP_KERNEL_REF = 0.65e-3
# A run times at least this many rounds, so that each operation's latency,
# its median over the rounds, is the middle of three or more times, and at
# most MAX_ROUNDS, so that the times it keeps stay small next to the
# program's memory in peak_rss_mb however fast the program gets.
MIN_ROUNDS = 3
MAX_ROUNDS = 40


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


# ------------------------------------------------------------------ timing


def kernel_time(kernel) -> float:
    """CPU time of one run of a calibration kernel, with no collection."""
    gc.disable()
    t0 = time.process_time()
    kernel()
    elapsed = time.process_time() - t0
    gc.enable()
    return elapsed


class Tally:
    """Per-operation timings and output verdicts over whole rounds.

    times holds CPU times scaled to the reference speed (see KERNELS in
    workloads.py); raw holds them unscaled.  outputs counts each operation's
    distinct outputs, so that the outputs kept do not grow with the rounds.
    """

    def __init__(self, ops, kernel) -> None:
        self.ops = ops
        self.kernel, self.kernel_ref = kernel
        self.times: list[list[float]] = [[] for _ in ops]
        self.raw: list[list[float]] = [[] for _ in ops]
        self.outputs: list[Counter] = [Counter() for _ in ops]

    def round(self) -> float:
        """Run every operation once, with a kernel run before each one and
        after the last; return the round's wall time."""
        gc.collect()
        clock, wall = time.process_time, time.perf_counter
        kernels: list[tuple[float, float]] = []  # (wall time at start, CPU time)
        spans: list[tuple[float, float, float]] = []  # (wall start, wall end, CPU time)
        start = wall()
        for i, op in enumerate(self.ops):
            kernels.append((wall(), kernel_time(self.kernel)))
            w0, t0 = wall(), clock()
            try:
                out = op.call()
            except Exception as exc:  # a failed operation, counted below
                out = exc
            spans.append((w0, wall(), clock() - t0))
            self.outputs[i][out] += 1
        kernels.append((wall(), kernel_time(self.kernel)))
        elapsed = wall() - start
        self.scale(kernels, spans)
        return elapsed

    def scale(self, kernels: list[tuple[float, float]], spans: list[tuple[float, float, float]]) -> None:
        """Scale each operation's CPU time by the mean kernel time over the
        kernel runs that started within its own duration of it, and always
        the ones just before and after it.  A short operation is scaled by
        the speed at that moment; a long one, during which the speed moves,
        by the speed around it."""
        starts = [w for w, _ in kernels]
        for i, (w0, w1, cpu) in enumerate(spans):
            reach = w1 - w0
            lo = min(i, bisect.bisect_left(starts, w0 - reach))
            hi = max(i + 2, bisect.bisect_right(starts, w1 + reach))
            kernel = statistics.fmean(k for _, k in kernels[lo:hi])
            self.raw[i].append(cpu)
            self.times[i].append(cpu * self.kernel_ref / kernel)

    def verdicts(self) -> tuple[int, int, int, list[str]]:
        """(attempted, failed, wrong, messages): an operation fails when it
        raises or its output is wrong; wrong counts the latter alone."""
        attempted = failed = wrong = 0
        messages: list[str] = []
        for op, outputs in zip(self.ops, self.outputs):
            for out, times in outputs.items():
                attempted += times
                if isinstance(out, Exception):
                    failed += times
                    messages.append(f"{op.label}: {type(out).__name__}: {out}")
                    continue
                try:
                    verdict = op.check(out)
                except Exception as exc:  # unreadable output is a wrong output
                    verdict = f"unreadable output ({type(exc).__name__}: {exc})"
                if verdict is not None:
                    failed += times
                    wrong += times
                    messages.append(f"{op.label}: {verdict}")
        return attempted, failed, wrong, messages


def measure_setup(workload: str) -> float:
    """Median CPU time of a fresh interpreter importing the package and
    answering one small operation of the workload's kind, less the
    child's SETUP_KERNEL and scaled by it.

    -S leaves out the interpreter's site hooks, which belong to the machine
    and not to the program.
    """
    from workloads import SETUP_CODE

    code, expect = SETUP_CODE[workload]
    argv = [sys.executable, "-S", "-c",
            f"{SETUP_KERNEL}import sys; sys.path.insert(0, {str(SRC)!r}); {code}"]
    times = []
    for i in range(SETUP_STARTS + 1):
        before = resource.getrusage(resource.RUSAGE_CHILDREN)
        proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=60)
        after = resource.getrusage(resource.RUSAGE_CHILDREN)
        if proc.returncode != 0 or expect not in proc.stdout:
            raise RuntimeError(f"set-up operation failed: {proc.stdout!r} {proc.stderr!r}")
        kernel = float(proc.stdout.split()[1])
        elapsed = after.ru_utime + after.ru_stime - before.ru_utime - before.ru_stime - kernel
        if i:
            times.append(elapsed * SETUP_KERNEL_REF / kernel)
    return statistics.median(times)


def run_tail() -> None:
    """The four set-up operations in this process, so that every layer's
    spans are entered on every workload's traced run."""
    from workloads import SETUP_CODE

    for code, expect in SETUP_CODE.values():
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            exec(code, {})
        if expect not in buf.getvalue():
            raise RuntimeError(f"set-up operation gave {buf.getvalue()!r}")


def timing_metrics(times: list[list[float]]) -> dict:
    """ops_per_s is the operations timed over their total time.  Each
    operation's latency is its median time over the rounds, an estimate
    whose centre does not move with the number of rounds, which a faster
    program raises."""
    return {
        "ops_per_s": sum(map(len, times)) / sum(map(sum, times)),
        "latency_p50_ms": statistics.median(statistics.median(t) * 1e3 for t in times),
    }


def end_to_end(tally: Tally, workload: str) -> tuple[dict, dict]:
    """The metrics, and the same timings unscaled (kept in the result file)."""
    values = timing_metrics(tally.times)
    values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    values["setup_s"] = measure_setup(workload)
    return values, timing_metrics(tally.raw)


def per_layer(tracer, untraced_s: float, traced_s: float) -> dict:
    values: dict[str, float] = {}
    for name, calls in tracer.calls.items():
        values[f"{name}.calls"] = calls
        values[f"{name}.self_s"] = tracer.self_s[name]
    values.update(tracer.counters)
    values["forms.decisions_per_probe"] = (
        tracer.calls["forms.is_zero_operator"] / tracer.calls["forms.apply_word"]
    )
    values["trace.untraced_wall_s"] = untraced_s
    values["trace.traced_wall_s"] = traced_s
    return values


def run(workload: str, seed: int, seconds: int, trace: bool) -> tuple[dict, dict]:
    """The result object, and details for the result file."""
    from workloads import KERNELS, WORKLOADS

    spec = load_spec()
    ops = WORKLOADS[workload](random.Random(f"{workload}:{seed}"), small=False)
    tally = Tally(ops, KERNELS[workload])
    raw: dict = {}
    first = tally.round()
    if trace:
        import tracing

        tracer = tracing.Tracer()
        tracer.install()
        start = time.perf_counter()
        tally.round()
        run_tail()
        traced = time.perf_counter() - start
        values = per_layer(tracer, first, traced)
        metrics = spec["per_layer"]
    else:
        rounds = min(MAX_ROUNDS, max(MIN_ROUNDS, round(seconds / first)))
        for _ in range(rounds - 1):
            tally.round()
        values, raw = end_to_end(tally, workload)
        metrics = spec["end_to_end"]
    attempted, failed, wrong, messages = tally.verdicts()
    for line in messages[:20]:
        print(f"FAILED {line}", file=sys.stderr)
    result = {
        "correct": wrong == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in metrics},
    }
    op_ms = [(op.label, statistics.median(t) * 1e3) for op, t in zip(ops, tally.times)]
    return result, {"raw_metrics": raw, "op_median_ms": op_ms}


# --------------------------------------------------------------- self-test


def self_test() -> int:
    """References against the program's own oracles at small sizes, each
    workload at small sizes, and each check shown to catch a wrong output."""
    from fractions import Fraction

    from nablachains import CompositionWord, TrivialityClass, brute_force_count, classify_word

    import reference as ref
    from workloads import KERNELS, WORKLOADS, Op

    problems = []

    for n in range(3, 8):
        walk = ref.walk_counts_at(n, range(10))
        for k in range(10):
            if walk[k] != brute_force_count(n, k):
                problems.append(f"walk count differs from brute_force_count at n={n} k={k}")
    for k, f in enumerate(ref.walk_counts(3, 40), start=1):
        if f != ref.fibonacci(k + 3):
            problems.append(f"walk count at n=3 k={k} is not F(k+3)")
    for n in range(3, 7):
        for length in range(1, 5):
            for w in ref.meaningful_words(n, length):
                zero = classify_word(CompositionWord(n, w)) is TrivialityClass.ZERO
                if zero != ref.is_zero_chain(w):
                    problems.append(f"d-squared rule disagrees with classify_word at n={n} {w}")
    rng = random.Random(0)
    for n in range(3, 9):
        for i in ([1, 2, 3] if n == 3 else [1]):
            comps = [
                {tuple(rng.randrange(3) for _ in range(n)): Fraction(rng.randint(1, 9), rng.randint(1, 4))
                 for _ in range(5)}
                for _ in range(math.comb(n, ref.domain_level(i, n)))
            ]
            if ref.forms_nabla(i, comps, n) != ref.apply_chain((i,), comps, n):
                problems.append(f"forms reference disagrees with the classical formula for nabla_{i}, n={n}")

    def edit_json(change):
        def corrupt(text: str) -> str:
            got = json.loads(text)
            change(got)
            return json.dumps(got)

        return corrupt

    def bump_charpoly(got: dict) -> None:
        got["characteristic_coefficients"][0] = str(int(got["characteristic_coefficients"][0]) + 1)

    def bump_relation(got: dict) -> None:
        got["coefficients"][-1] = str(int(got["coefficients"][-1]) + 1)

    def charpoly_relation(got: dict) -> None:
        """The characteristic polynomial's relation: it holds on the counts
        and divides the polynomial, but is not minimal (zero roots kept)."""
        a = [int(c) for c in got["characteristic_coefficients"]]
        n = len(a) - 1
        got["coefficients"] = [str(-a[n - t]) for t in range(1, n + 1)]
        got["order"], got["valid_from"] = n, n + 1

    def add_one(got: dict) -> None:
        got["components"][0] += " + 1"

    # Each corruption must be caught on every operation it is applied to.
    corruptions = {
        "count": [("count off by one", lambda out: out + 1)],
        "recurrence": [
            ("characteristic coefficient off by one", edit_json(bump_charpoly)),
            ("relation coefficient off by one", edit_json(bump_relation)),
            ("non-minimal relation", edit_json(charpoly_relation)),
        ],
        "zero-test": [("flipped verdict", lambda out: not out)],
        "apply": [
            ("component plus one", edit_json(add_one)),
            ("component dropped", edit_json(lambda got: got["components"].pop())),
        ],
    }
    for name, build in WORKLOADS.items():
        ops = build(random.Random(f"{name}:self-test"), small=True)
        tally = Tally(ops, KERNELS[name])
        tally.round()
        attempted, failed, _, messages = tally.verdicts()
        if failed:
            problems += [f"{name} at small sizes: {m}" for m in messages]
        print(f"{name}: {len(ops)} small operations pass")
        for what, corrupt in corruptions[name]:
            bad = [Op(op.label, lambda op=op: corrupt(op.call()), op.check) for op in ops]
            tally = Tally(bad, KERNELS[name])
            tally.round()
            attempted, failed, wrong, _ = tally.verdicts()
            if not failed == wrong == attempted:
                problems.append(f"{name}, {what}: {attempted - wrong} of {attempted} passed the check")
            print(f"  {what}: {wrong}/{attempted} caught")
    for p in problems:
        print(f"PROBLEM {p}")
    print("self-test " + ("failed" if problems else "passed"))
    return 1 if problems else 0


# ----------------------------------------------------------------- compare


def compare(before: Path, after: Path) -> int:
    """Median and quartiles of each end-to-end metric on each side, and
    whether the after side stays within the metric's bound."""

    def load(d: Path) -> dict[str, list[dict]]:
        runs: dict[str, list[dict]] = {}
        for f in sorted(d.glob("*.json")):
            rec = json.loads(f.read_text())
            if not rec["trace"]:
                runs.setdefault(rec["workload"], []).append(rec)
        return runs

    def quartiles(xs: list[float]) -> tuple[float, float, float]:
        if len(xs) < 2:
            return xs[0], xs[0], xs[0]
        q1, q2, q3 = statistics.quantiles(xs, n=4)
        return q1, q2, q3

    a, b = load(before), load(after)
    regressions = 0
    for workload in sorted(set(a) & set(b)):
        print(f"{workload}: {len(a[workload])} runs before, {len(b[workload])} after")
        for side, runs in (("before", a[workload]), ("after", b[workload])):
            share = sum(r["failed"] for r in runs) / sum(r["attempted"] for r in runs)
            print(f"  failed share {side}: {share:.6f}")
        for m in load_spec()["end_to_end"]:
            xa = [r["metrics"][m["name"]]["value"] for r in a[workload]]
            xb = [r["metrics"][m["name"]]["value"] for r in b[workload]]
            qa, qb = quartiles(xa), quartiles(xb)
            change = (qb[1] - qa[1]) / qa[1]
            worse = change if m["better"] == "lower" else -change
            verdict = "within bound" if worse <= m["bound"] else "WORSE than bound"
            if worse > m["bound"]:
                regressions += 1
            print(
                f"  {m['name']:<15} before {qa[1]:.6g} [{qa[0]:.6g}, {qa[2]:.6g}]"
                f"  after {qb[1]:.6g} [{qb[0]:.6g}, {qb[2]:.6g}]"
                f"  change {change:+.1%} (bound {m['bound']:.0%}, {m['better']} is better): {verdict}"
            )
    return 1 if regressions else 0


# -------------------------------------------------------------------- main


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=["count", "recurrence", "zero-test", "apply"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--self-test", action="store_true")
    parser.add_argument("--compare", nargs=2, type=Path, metavar=("BEFORE_DIR", "AFTER_DIR"))
    args = parser.parse_args()
    if args.compare:
        return compare(*args.compare)
    if not (SRC / "nablachains" / "__init__.py").is_file():
        print(f"error: no program to measure at {SRC / 'nablachains'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.self_test:
        return self_test()
    if args.workload is None:
        parser.error("--workload, --self-test or --compare is required")
    started = time.perf_counter()
    result, details = run(args.workload, args.seed, args.seconds, bool(args.trace))
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "wall_s": time.perf_counter() - started, **result, **details}
    RESULTS.mkdir(exist_ok=True)
    name = f"{args.workload}.seed{args.seed}.trace{args.trace}.json"
    (RESULTS / name).write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
