"""Steadiness check: run workloads repeatedly and compare each metric's spread with its bound.

    python3 bench/steady.py [--workload NAME ...] [--runs 10] [--first-seed 1] [--seconds S]

Runs ``bench/run.py`` once per seed, one process at a time, for every
workload in ``BENCHMARK.json`` (or the ones named).  For each end-to-end
metric it prints the median, the quartiles (``statistics.quantiles(n=4)``),
the spread ``(q3 - q1) / median`` and that spread as a share of the
metric's bound; ``steady`` means the spread is below a third of the bound.
It also prints the share of failed operations of every run.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    args = parser.parse_args(argv)
    names = args.workload or [w["name"] for w in spec["workloads"]]
    steady = True
    for name in names:
        values: dict[str, list[float]] = {}
        shares = []
        for seed in range(args.first_seed, args.first_seed + args.runs):
            cmd = spec["command"] + [
                "--workload", name, "--seed", str(seed), "--seconds", str(args.seconds), "--trace", "0"
            ]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=180)
            if proc.returncode != 0:
                print(proc.stderr, file=sys.stderr)
                raise SystemExit(f"{name} seed {seed}: exit {proc.returncode}")
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            shares.append(f"{result['failed']}/{result['attempted']}")
            for metric, entry in result["metrics"].items():
                values.setdefault(metric, []).append(entry["value"])
            print(f"{name} seed {seed}: " + "  ".join(
                f"{m}={v[-1]:.6g}" for m, v in values.items()), flush=True)
        print(f"\n{name}: {args.runs} runs of {args.seconds} s, failed/attempted {' '.join(shares)}")
        print(f"  {'metric':<14}{'median':>14}{'q1':>14}{'q3':>14}{'spread':>9}{'bound':>7}{'/bound':>8}")
        for metric in spec["end_to_end"]:
            vals = values[metric["name"]]
            q1, median, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / median
            ok = metric["name"] == "setup_s" or spread < metric["bound"] / 3.0
            steady &= ok
            print(
                f"  {metric['name']:<14}{median:>14.6g}{q1:>14.6g}{q3:>14.6g}{spread:>9.4f}"
                f"{metric['bound']:>7.2f}{spread / metric['bound']:>8.2f}  {'steady' if ok else 'NOT STEADY'}"
            )
        print(flush=True)
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
