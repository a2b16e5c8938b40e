#!/usr/bin/env python3
"""Builds the program and the benchmark from source, then runs one workload.

    python3 perfbench/run.py --workload <name|all> --seed <n> --seconds <s> --trace <0|1>

Run it from the root of a checkout. `pae-serve` and the benchmark binary
are built into $CARGO_TARGET_DIR (default `.bench_build`), offline. The
last line of standard output is the run's JSON result; with
`--workload all` every workload runs on the seed and the last line
combines them, with metric names prefixed by the workload.
"""

import argparse
import json
import os
import subprocess
import sys

WORKLOADS = ["extract_stream", "extract_backfill", "train_bundle"]
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def build(target_dir):
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir)
    for cmd in (
        ["cargo", "build", "--release", "--offline", "-p", "pae-serve", "--bin", "pae-serve"],
        ["cargo", "build", "--release", "--offline", "--manifest-path",
         os.path.join(ROOT, "perfbench", "Cargo.toml")],
    ):
        # Build output goes to stderr: stdout ends with the result line.
        if subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr).returncode != 0:
            sys.exit("perfbench: build failed: " + " ".join(cmd))


def run_one(target_dir, workload, args, capture):
    release = os.path.join(target_dir, "release")
    cmd = [
        os.path.join(release, "perfbench"),
        "--workload", workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--server-bin", os.path.join(release, "pae-serve"),
        "--work-dir", os.path.join(target_dir, "perfbench-work"),
    ]
    # The program reads PAE_* settings from its environment; the
    # benchmark fixes every one it depends on itself.
    env = {k: v for k, v in os.environ.items() if not k.startswith("PAE_")}
    if not capture:
        return subprocess.run(cmd, cwd=ROOT, env=env).returncode, None
    proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True)
    sys.stdout.write(proc.stdout)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    return proc.returncode, result


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    for required in ("Cargo.toml", os.path.join("crates", "pae-serve", "Cargo.toml")):
        if not os.path.isfile(os.path.join(ROOT, required)):
            sys.exit(f"perfbench: {required} not found; run from a full checkout")
    target_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or
                                 os.path.join(ROOT, ".bench_build"))
    build(target_dir)

    if args.workload != "all":
        code, _ = run_one(target_dir, args.workload, args, capture=False)
        sys.exit(code)

    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    worst = 0
    for workload in WORKLOADS:
        code, result = run_one(target_dir, workload, args, capture=True)
        worst = worst or code
        if result is None:
            combined["correct"] = False
            continue
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            combined["metrics"][f"{workload}.{name}"] = metric
    print(json.dumps(combined))
    sys.exit(worst or (0 if combined["correct"] else 1))


if __name__ == "__main__":
    main()
