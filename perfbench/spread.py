#!/usr/bin/env python3
"""Runs workloads over several seeds and reports each metric's spread.

    python3 perfbench/spread.py [--runs 10] [--first-seed 1] [--workload NAME ...]

For every workload in BENCHMARK.json (or those named), runs perfbench/run.py
once per seed, then prints each end-to-end metric's median and the distance
between its first and third quartiles (statistics.quantiles, n=4) as a share
of the median, beside the metric's bound. A spread above its bound, or above
a third of it, is marked; setup_s is exempt from the spread check.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def main():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workload", action="append",
                        choices=[w["name"] for w in spec["workloads"]])
    args = parser.parse_args()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    status = 0
    for workload in workloads:
        values = {}
        for seed in range(args.first_seed, args.first_seed + args.runs):
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(spec["run_seconds"]),
                 "--trace", "0"], stdout=subprocess.PIPE, text=True)
            if proc.returncode != 0:
                print(f"{workload} seed {seed}: exit code {proc.returncode}")
                status = 1
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
            print(f"{workload} seed {seed}: " + ", ".join(
                f"{k} {v['value']:.4g}" for k, v in result["metrics"].items()),
                flush=True)
        for name, vals in values.items():
            if len(vals) < 2:
                continue
            q1, _, q3 = statistics.quantiles(vals, n=4)
            median = statistics.median(vals)
            spread = (q3 - q1) / median if median else float("inf")
            bound = bounds[name]
            mark = ""
            if name != "setup_s" and spread > bound:
                mark = "  OVER BOUND"
                status = 1
            elif name != "setup_s" and spread > bound / 3:
                mark = "  over a third of bound"
            print(f"  {workload:18s} {name:18s} median {median:<12.6g} "
                  f"spread {spread:.4f}  bound {bound}{mark}")
    return status


if __name__ == "__main__":
    sys.exit(main())
