"""Repeat the benchmark over seeds and summarise each metric.

    python3 perfbench/spread.py --workload analyze --seeds 1-10 [--seconds 25] [--trace 0]

Runs `perfbench/run.py` once per seed, one run at a time, from the current
directory, and prints one JSON object: per metric the values, their
median, and the quartile spread (third minus first quartile of
`statistics.quantiles(values, n=4)`) as a share of the median.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().with_name("run.py")


def seeds(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    parser.add_argument("--seconds", type=int, default=25)  # run_seconds in BENCHMARK.json
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    values, failed, incorrect = {}, 0, 0
    for seed in args.seeds:
        done = subprocess.run(
            [sys.executable, str(RUN), "--workload", args.workload, "--seed", str(seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=600, check=True,
        )
        result = json.loads(done.stdout.strip().splitlines()[-1])
        failed += result["failed"]
        incorrect += not result["correct"]
        for name, m in result["metrics"].items():
            values.setdefault(name, {"unit": m["unit"], "values": []})["values"].append(m["value"])
        print(f"seed {seed}: " + ", ".join(
            f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()
            if v["value"] is not None), file=sys.stderr)

    summary = {"workload": args.workload, "seeds": args.seeds, "seconds": args.seconds,
               "failed": failed, "incorrect_runs": incorrect, "metrics": {}}
    for name, entry in values.items():
        vals = [v for v in entry["values"] if v is not None]
        med = statistics.median(vals) if vals else None
        spread = None
        if len(vals) >= 2 and med:
            q1, _, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / abs(med)
        summary["metrics"][name] = {"unit": entry["unit"], "median": med,
                                    "spread": spread, "values": entry["values"]}
    print(json.dumps(summary, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
