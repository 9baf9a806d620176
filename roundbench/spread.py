#!/usr/bin/env python3
"""Run-to-run spread of the round benchmark.

    python3 roundbench/spread.py --workloads flat-exact,fig4-suite \\
        --seeds 1-10 --seconds 20 [--trace 0]

Runs run.py once per (workload, seed), one run at a time, and prints for
every metric its median, its quartiles as statistics.quantiles(n=4) gives
them, and the spread: (q3 - q1) / median.  BENCHMARK.json's bound for an
end-to-end metric is the largest spread a run set may show.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def seeds_of(text):
    if "-" in text:
        first, last = text.split("-")
        return list(range(int(first), int(last) + 1))
    return [int(seed) for seed in text.split(",")]


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workloads", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as f:
        bounds = {m["name"]: m.get("bound") for m in json.load(f)["end_to_end"]}

    status = 0
    for workload in args.workloads.split(","):
        values = {}
        for seed in seeds_of(args.seeds):
            done = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"),
                 "--workload", workload, "--seed", str(seed),
                 "--seconds", str(args.seconds), "--trace", str(args.trace)],
                capture_output=True, text=True, check=False)
            lines = done.stdout.strip().splitlines()
            result = json.loads(lines[-1]) if lines else None
            if done.returncode != 0 or result is None:
                status = 1
                print(f"{workload} seed {seed}: exit {done.returncode}",
                      file=sys.stderr)
                continue
            share = result["failed"] / result["attempted"]
            print(f"{workload} seed {seed}: attempted {result['attempted']} "
                  f"failed share {share:.6f}", file=sys.stderr)
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
        print(f"## {workload}")
        for name, series in sorted(values.items()):
            if len(series) < 2:
                continue
            q1, q2, q3 = statistics.quantiles(series, n=4)
            middle = statistics.median(series)
            spread = (q3 - q1) / middle if middle else float("nan")
            bound = bounds.get(name)
            verdict = ""
            if bound is not None:
                verdict = " ok" if spread <= bound / 3 else (
                    " within bound" if spread <= bound else " OVER BOUND")
            print(f"{name:28s} n={len(series):2d} median={middle:.6g} "
                  f"q1={q1:.6g} q3={q3:.6g} spread={spread:.4f}{verdict}")
    return status


if __name__ == "__main__":
    sys.exit(main())
