"""randtest benchmark: three workloads, measured end to end and by layer.

    python3 perfbench/run.py --workload {analyze,ci,simulate} --seed N \
        --seconds S --trace {0,1}

Run it from the repository root. The library is imported from `src/` there,
never from an installed copy; without `src/randtest` the run exits with
code 1 and prints no result. Each workload is a closed loop with one caller
cycling through a fixed list of calls (see `workloads.py`).

With --trace 0 it reports the end-to-end metrics, times scaled to a
reference loop's speed (see Reference):

- setup_s: import randtest, make the inputs from the seed, and make one
  untimed warm-up call; the median of three set-ups, one in this process
  and two in fresh interpreters.
- ops_per_s: work units per second over one cycle of the workload, from
  the median time of each call in the cycle, every call timed at least
  MIN_CYCLES times. The unit is a CLI analyze or permlm call on `analyze`,
  a returned interval on `ci`, and a scenario repetition (12 p-values) on
  `simulate`.
- peak_rss_mb: peak resident memory of this process, which includes the
  16 MB array of the reference loops.

With --trace 1 every call runs twice in a row, untraced then traced, whole
cycles at a time. The per-layer metrics of `spans.py` are reported per
traced cycle and unscaled, with the tracing overhead (traced minus untraced
wall time) and the share of calls that failed. The spans are written to
perfbench/out/trace-<workload>-seed<seed>.json at the end.

Every call's output is checked; a call that raises or fails its check
counts as failed. The last line of stdout is one JSON object with the keys
correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from collections import defaultdict
from pathlib import Path

ROOT = Path.cwd()
SRC = ROOT / "src"
OUT = ROOT / "perfbench" / "out"
WORKLOADS = ("analyze", "ci", "simulate")
SETUP_SUBPROCESSES = 2
# Untraced runs time every call of the cycle at least this often, so each
# per-call median has more than one sample on a machine whose speed drifts.
MIN_CYCLES = 2


def import_randtest():
    init = SRC / "randtest" / "__init__.py"
    sys.path.insert(0, str(SRC))
    import randtest

    if Path(randtest.__file__).resolve() != init.resolve():
        sys.exit(f"perfbench: imported randtest from {randtest.__file__}, not {init}")
    return randtest


class Reference:
    """Two fixed loops that never touch randtest, timed to track the machine.

    The machine's speed drifts: on a shared host the same call takes from 1x
    to 2x its best time within a minute, and run-to-run medians follow.
    Reported times are scaled by NOMINAL_S over the reference time measured
    right before and after the timed work, which divides out most of the
    drift. The reference time is the geometric mean of an interpreter-bound
    loop and a memory-bound pass over a 16 MB array (beyond the per-core
    cache): of the loops tried, this pair tracked all three workloads best.
    It runs between calls, never during one.
    """

    NOMINAL_S = 0.008

    def __init__(self):
        import numpy as np

        self._np = np
        self._array = np.ones(2_000_000)

    def seconds(self) -> float:
        start = time.perf_counter()
        total = 0
        for j in range(100_000):
            total += j * j % 7
        middle = time.perf_counter()
        for _ in range(3):
            self._np.multiply(self._array, 1.0, out=self._array)
            self._array.sum()
        return math.sqrt((middle - start) * (time.perf_counter() - middle))

    def scaled(self, seconds: float, before: float, after: float) -> float:
        return seconds * self.NOMINAL_S / (0.5 * (before + after))


def set_up(workload: str, seed: int, workdir: Path, tally: "Tally"):
    """Import, build the inputs and make the warm-up call.

    Returns the ops, a Reference and the scaled set-up time. The reference
    loops run after the set-up and are not part of its time.
    """
    start = time.perf_counter()
    rt = import_randtest()
    import workloads

    ops = workloads.WORKLOADS[workload](rt, seed, workdir)
    tally.run(ops[0])
    elapsed = time.perf_counter() - start
    reference = Reference()
    return ops, reference, reference.scaled(elapsed, reference.seconds(), reference.seconds())


def setup_in_fresh_interpreter(workload: str, seed: int, workdir: Path) -> float:
    done = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--setup-only", "--workload", workload,
         "--seed", str(seed), "--workdir", str(workdir)],
        cwd=ROOT, capture_output=True, text=True, timeout=150, check=True,
    )
    return float(done.stdout.strip().splitlines()[-1])


class Tally:
    """Runs calls, checks their outputs and counts attempts and failures."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def run(self, op, call=None) -> float:
        """Wall seconds of one call; a raised error or failed check counts."""
        self.attempted += 1
        start = time.perf_counter()
        try:
            output = (call or op.call)()
            elapsed = time.perf_counter() - start
            op.check(output)
        except Exception:
            self.failed += 1
            print(f"perfbench: {op.kind} failed", file=sys.stderr)
            traceback.print_exc(file=sys.stderr)
            return time.perf_counter() - start
        return elapsed


def run_untraced(ops, seconds: float, tally: Tally, reference: Reference):
    """Cycle through ops until `seconds` have passed and MIN_CYCLES are done.

    Returns each call kind's scaled times.
    """
    times = defaultdict(list)
    start = time.perf_counter()
    before = reference.seconds()
    for i in itertools.count():
        op = ops[i % len(ops)]
        elapsed = tally.run(op)
        after = reference.seconds()
        times[op.kind].append(reference.scaled(elapsed, before, after))
        before = after
        if i + 1 >= MIN_CYCLES * len(ops) and time.perf_counter() - start >= seconds:
            return times


def run_traced(ops, seconds: float, tally: Tally, recorder, root) -> tuple[int, float, float]:
    """Whole cycles of untraced/traced call pairs; (cycles, untraced s, traced s)."""
    name, layer, attrs = root
    cycles, plain, traced = 0, 0.0, 0.0
    start = time.perf_counter()
    while cycles == 0 or time.perf_counter() - start < seconds:
        for op in ops:
            plain += tally.run(op)
            with recorder.installed():
                traced += tally.run(op, lambda: recorder.call(name, layer, attrs, op.call))
        cycles += 1
    return cycles, plain, traced


def machine() -> dict:
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "RANDTEST_THREADS": os.environ.get("RANDTEST_THREADS"),
    }


def metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--workdir", type=Path, help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "randtest" / "__init__.py").is_file():
        print(f"perfbench: no {SRC}/randtest; run from the root of a randtest checkout",
              file=sys.stderr)
        return 1
    if args.setup_only:
        print(set_up(args.workload, args.seed, args.workdir, Tally())[2])
        return 0

    workdir = OUT / f"{args.workload}-seed{args.seed}-pid{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        return measure(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def measure(args, workdir: Path) -> int:
    tally = Tally()
    ops, reference, setup_s = set_up(args.workload, args.seed, workdir, tally)
    info = machine()
    print(f"perfbench: {args.workload} seed={args.seed} {json.dumps(info)}", file=sys.stderr)

    if args.trace == 0:
        setups = [setup_s]
        for k in range(SETUP_SUBPROCESSES):
            sub = workdir / f"setup{k}"
            sub.mkdir()
            setups.append(setup_in_fresh_interpreter(args.workload, args.seed, sub))
        times = run_untraced(ops, args.seconds, tally, reference)
        cycle_s = sum(statistics.median(times[op.kind]) for op in ops)
        for op in ops:
            print(f"perfbench: {op.kind:16s} n={len(times[op.kind])} "
                  f"median={statistics.median(times[op.kind]):.4f}s "
                  f"samples={[round(t, 4) for t in times[op.kind]]}", file=sys.stderr)
        metrics = {
            "setup_s": metric(statistics.median(setups), "s"),
            "ops_per_s": metric(sum(op.units for op in ops) / cycle_s, "1/s"),
            "peak_rss_mb": metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
    else:
        import spans

        recorder = spans.Recorder()
        for name in recorder.missing:
            print(f"perfbench: missing span {name}: the wrapped name no longer exists",
                  file=sys.stderr)
        cycles, plain, traced = run_traced(
            ops, args.seconds, tally, recorder, spans.ROOTS[args.workload]
        )
        metrics = {
            name: metric(value, unit)
            for name, (value, unit) in spans.layer_metrics(
                recorder.spans, recorder.missing, cycles
            ).items()
        }
        metrics["trace.overhead_s"] = metric((traced - plain) / cycles, "s")
        metrics["trace.overhead_frac"] = metric((traced - plain) / plain, "ratio")
        metrics["trace.missing_spans"] = metric(len(recorder.missing), "count")
        metrics["trace.spans"] = metric(len(recorder.spans) / cycles, "count")
        metrics["failed_frac"] = metric(tally.failed / tally.attempted, "ratio")
        trace_file = OUT / f"trace-{args.workload}-seed{args.seed}.json"
        trace_file.write_text(json.dumps({
            "workload": args.workload,
            "seed": args.seed,
            "cycles": cycles,
            "machine": info,
            "missing_spans": recorder.missing,
            "untraced_s": plain,
            "traced_s": traced,
            "self_s_by_layer_and_thread": spans.self_by_thread(recorder.spans),
            "span_columns": ["id", "parent", "name", "layer", "thread", "start", "end", "attrs"],
            "spans": spans.dump(recorder.spans),
        }))
        print(f"perfbench: {len(recorder.spans)} spans written to {trace_file}", file=sys.stderr)

    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
