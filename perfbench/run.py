#!/usr/bin/env python3
"""Repository benchmark entry point.

Builds the benchmark harness (perfbench/CMakeLists.txt: libclgen_core,
the clgen-serve daemon and the harness, Release) into .bench_build and
runs one workload:

    python3 perfbench/run.py --workload synth-stream --seed 1 \
        --seconds 30 --trace 0

--workload all runs the three workloads in turn (for people; each
prints its own result line). Run from the repository root. The last
line of standard output is the JSON result of the (last) workload;
build output goes to standard error. The exit code is not 0 when the
build or the run fails, and then no result line is printed.
"""

import argparse
import json
import os
import signal
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD_DIR = os.path.join(ROOT, ".bench_build")
HARNESS = os.path.join(BUILD_DIR, "perfbench_harness")
WORKLOADS = ["synth-stream", "serve-mix", "experiment-cold"]
RUN_TIMEOUT_S = 175


def build():
    jobs = str(max(1, len(os.sched_getaffinity(0))))
    steps = [
        ["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B", BUILD_DIR,
         "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", BUILD_DIR, "--target", "perfbench_harness",
         "-j", jobs],
    ]
    # The Makefile exists only once a configure step has succeeded.
    if os.path.exists(os.path.join(BUILD_DIR, "Makefile")):
        steps = steps[1:]
    for step in steps:
        if subprocess.run(step, cwd=ROOT, stdout=sys.stderr,
                          stderr=sys.stderr).returncode != 0:
            return False
    return True


def expected_metrics(trace):
    """Metric names BENCHMARK.json promises for this kind of run."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}


def echo_without_result(out):
    """Shows a failed run's output, minus any result line it printed."""
    lines = out.rstrip("\n").split("\n")
    if lines and lines[-1].startswith("{"):
        lines = lines[:-1]
    print("\n".join(lines))


def run_workload(args, workload):
    cmd = [HARNESS, "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    # Own process group: on a timeout the harness and any clgen-serve
    # daemon it started are killed together, then reaped.
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        out, _ = proc.communicate()
        echo_without_result(out)
        print(f"perfbench: {workload} did not finish within "
              f"{RUN_TIMEOUT_S} s", file=sys.stderr)
        return None
    lines = out.rstrip("\n").split("\n")
    if proc.returncode != 0:
        echo_without_result(out)
        print(f"perfbench: {workload} exited with {proc.returncode}",
              file=sys.stderr)
        return None
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        echo_without_result(out)
        print("perfbench: the harness printed no result line",
              file=sys.stderr)
        return None
    got = set(result["metrics"])
    want = expected_metrics(args.trace)
    if got != want:
        echo_without_result(out)
        print(f"perfbench: metrics differ from BENCHMARK.json: missing "
              f"{sorted(want - got)}, unexpected {sorted(got - want)}",
              file=sys.stderr)
        return None
    print("\n".join(lines[:-1]))
    return result


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")

    if not build():
        print("perfbench: build failed", file=sys.stderr)
        return 1
    workloads = WORKLOADS if args.workload == "all" else [args.workload]
    result = None
    for workload in workloads:
        result = run_workload(args, workload)
        if result is None:
            return 1
        if workload != workloads[-1]:
            print(json.dumps(result))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
