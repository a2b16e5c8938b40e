#!/usr/bin/env python3
"""Runs one workload on several seeds and prints each metric's spread.

    python3 perfbench/spread.py --workload <name> [--seeds 1,2,3] [--seconds 20] [--trace 0]

Spread is the distance between the first and third quartiles
(`statistics.quantiles(values, n=4)`) as a share of the median: the
figure a benchmark metric's bound in BENCHMARK.json must exceed.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1,2,3,4,5,6,7,8,9,10")
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    runs = []
    for seed in [int(s) for s in args.seeds.split(",")]:
        cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", args.workload,
               "--seed", str(seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
        last = proc.stdout.strip().splitlines()[-1] if proc.stdout.strip() else ""
        if proc.returncode != 0 or not last.startswith("{"):
            sys.exit(f"seed {seed}: run failed with exit code {proc.returncode}")
        result = json.loads(last)
        runs.append(result)
        values = ", ".join(f"{k}={v['value']:.4g}" for k, v in result["metrics"].items())
        print(f"seed {seed}: correct={result['correct']} {values}", flush=True)

    print(f"\n{args.workload}: {len(runs)} runs")
    for name in runs[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in runs]
        med = statistics.median(values)
        if len(values) >= 2:
            q1, _, q3 = statistics.quantiles(values, n=4)
        else:
            q1 = q3 = values[0]
        spread = (q3 - q1) / med if med else float("inf")
        unit = runs[0]["metrics"][name]["unit"]
        print(f"  {name:<30} median {med:12.5g} {unit:<8} Q1 {q1:12.5g}  Q3 {q3:12.5g}  "
              f"spread {spread:7.2%}")


if __name__ == "__main__":
    main()
