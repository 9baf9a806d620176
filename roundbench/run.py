#!/usr/bin/env python3
"""FAIR-BFL round benchmark: build from source, run one workload, report.

    python3 roundbench/run.py --workload flat-exact --seed 1 --seconds 20 \\
        --trace 0
    python3 roundbench/run.py --self-test    # the benchmark's own tests

Builds the library and the roundbench binary from the sources next to this
directory into .bench_build/roundbench (Release), then runs the workload in
a child process whose fan-out pool has as many threads as this process
may use CPUs.
--trace 0 runs it with FAIRBFL_TELEMETRY=off and reports the end-to-end
metrics; --trace 1 runs it with telemetry on and reports the per-layer
metrics.  Prints a "# fingerprint" line, then, as the last line, one JSON
object with the keys correct, attempted, failed and metrics.  Exits 0 when
every output check held, 1 when one failed, 2 when the build or the run
could not complete.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "roundbench")
WORKLOADS = ("flat-exact", "shard-async", "signed-chain", "fig4-suite")
RUN_TIMEOUT_S = 170


def cpus():
    return len(os.sched_getaffinity(0))


def build(target):
    """Configures once, then builds `target`; cmake's output goes to stderr."""
    steps = []
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "--target", target,
                  "-j", str(cpus())])
    for step in steps:
        done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                              check=False)
        if done.returncode != 0:
            print(f"run.py: build step failed: {' '.join(step)}",
                  file=sys.stderr)
            return False
    return True


def git_sha():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown (not a git checkout)"
    done = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                          capture_output=True, text=True, check=False)
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def run(args):
    env = dict(os.environ)
    if args.trace:
        env.pop("FAIRBFL_TELEMETRY", None)
    else:
        env["FAIRBFL_TELEMETRY"] = "off"
    command = [os.path.join(BUILD_DIR, "roundbench"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
    try:
        done = subprocess.run(command, env=env, capture_output=True,
                              text=True, timeout=RUN_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        print(f"run.py: {args.workload} did not finish in {RUN_TIMEOUT_S} s",
              file=sys.stderr)
        return 2
    sys.stderr.write(done.stderr)
    lines = done.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        print(f"run.py: no result from roundbench (exit {done.returncode})",
              file=sys.stderr)
        return 2
    fingerprint = dict(result["fingerprint"], git_sha=git_sha(),
                       workload=args.workload, seed=args.seed,
                       trace=args.trace)
    print("# fingerprint " + json.dumps(fingerprint, sort_keys=True))
    for check in result["checks"]:
        print(f"# check failed: {check}")
    print(json.dumps({key: result[key] for key in
                      ("correct", "attempted", "failed", "metrics")}))
    return 0 if result["correct"] and done.returncode == 0 else 1


def self_test():
    if not build("roundbench_tests"):
        return 2
    return subprocess.run([os.path.join(BUILD_DIR, "roundbench_tests")],
                          check=False).returncode


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if args.self_test:
        return self_test()
    if args.workload is None:
        parser.error("--workload is required")
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    if not build("roundbench"):
        return 2
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
