#!/usr/bin/env python3
"""Builds the benchmark from source and runs one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --selftest

Run it from the root of a checkout. The first run configures and builds the
program library and the benchmark binary with CMake under
$CARGO_TARGET_DIR/perfbench (default: .bench_build/perfbench in the checkout);
later runs only bring that build up to date. Build output goes to standard
error. The binary's standard output is passed through: its last line is the
result JSON, the line before it the diagnostics. Workloads and metrics are
described in perfbench/LAYERS.md.

--selftest runs the benchmark's own unit checks, then a tiny-size smoke run
of every workload, timed and traced, and checks each prints exactly the
metrics BENCHMARK.json declares, all finite.
"""

import argparse
import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ["glsc_window_reads", "sz_window_reads", "sz_ingest"]
RUN_TIMEOUT_S = 175


def build_dir():
    root = os.environ.get("CARGO_TARGET_DIR") or str(HERE.parent / ".bench_build")
    return Path(root).resolve() / "perfbench"


def build(targets):
    out = build_dir()
    out.mkdir(parents=True, exist_ok=True)
    steps = []
    if not (out / "Makefile").exists():
        steps.append(["cmake", "-S", str(HERE), "-B", str(out),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(out), "--target", *targets, "-j", "4"])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr).returncode != 0:
            sys.exit("error: building the benchmark failed: " + " ".join(step))
    return out


def run_binary(out, args, capture=False):
    work = out / f"work-{os.getpid()}"
    cmd = [str(out / "glsc_perfbench"), *args, "--work-dir", str(work),
           "--out-dir", str(out / "traces")]
    try:
        return subprocess.run(cmd, timeout=RUN_TIMEOUT_S, text=True,
                              stdout=subprocess.PIPE if capture else None)
    except subprocess.TimeoutExpired:
        sys.exit(f"error: run exceeded {RUN_TIMEOUT_S} s")
    finally:
        shutil.rmtree(work, ignore_errors=True)


def selftest(out):
    if subprocess.run([str(out / "perfbench_selftest")]).returncode != 0:
        return 1
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    failures = 0
    for workload in WORKLOADS:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            expected = [m["name"] for m in spec[key]]
            proc = run_binary(out, ["--workload", workload, "--seed", "1",
                                    "--seconds", "1", "--trace", str(trace),
                                    "--tiny"], capture=True)
            problem = None
            if proc.returncode != 0:
                problem = f"exit code {proc.returncode}"
            else:
                result = json.loads(proc.stdout.strip().splitlines()[-1])
                metrics = result["metrics"]
                if list(metrics) != expected:
                    problem = f"metric names {list(metrics)}"
                elif not all(math.isfinite(m["value"]) for m in metrics.values()):
                    problem = "a metric is not finite"
                elif not result["correct"] or result["attempted"] < 1:
                    problem = "result not correct"
            print(f"smoke {workload} trace={trace}: {problem or 'ok'}")
            failures += problem is not None
    return 1 if failures else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    if args.selftest:
        return selftest(build(["glsc_perfbench", "perfbench_selftest"]))
    if args.workload is None:
        parser.error("--workload is required")
    out = build(["glsc_perfbench"])
    sys.stdout.flush()
    return run_binary(out, ["--workload", args.workload, "--seed", str(args.seed),
                            "--seconds", str(args.seconds),
                            "--trace", str(args.trace)]).returncode


if __name__ == "__main__":
    sys.exit(main())
