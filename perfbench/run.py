#!/usr/bin/env python3
"""AgoraDB end-to-end benchmark.

    python3 perfbench/run.py --workload tpch_olap --seed 1 --seconds 15 --trace 0

Builds perfbench_driver from this checkout (CMake, Release build type,
into .bench_build/), runs one workload against an AgoraDB HTTP server
on a loopback port and prints the result as one JSON object on the last
line of standard output:

    {"correct": true, "attempted": N, "failed": F, "metrics": {...}}

--trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones
and writes the spans to .bench_build/traces/. Build output and progress
go to standard error. If the build or the run fails, the script exits
non-zero without printing a result. See perfbench/README.md.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import time

WORKLOADS = ("tpch_olap", "wide_results", "mixed_rw")
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD_DIR = os.path.join(ROOT, ".bench_build")
DRIVER = os.path.join(BUILD_DIR, "perfbench_driver")


def log(message):
    print("[run.py] " + message, file=sys.stderr, flush=True)


def build():
    """Configures once, then lets CMake rebuild whatever changed."""
    for required in ("CMakeLists.txt", os.path.join("src", "CMakeLists.txt")):
        if not os.path.isfile(os.path.join(ROOT, required)):
            log("no AgoraDB source tree here: %s is missing" % required)
            return False
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        configure = ["cmake", "-S", os.path.join(ROOT, "perfbench"),
                     "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.call(configure, stdout=sys.stderr) != 0:
            return False
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    return subprocess.call(
        ["cmake", "--build", BUILD_DIR, "--target", "perfbench_driver",
         "-j", jobs], stdout=sys.stderr) == 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    started = time.monotonic()
    if not build():
        log("build failed")
        return 1
    log("build checked in %.1f s" % (time.monotonic() - started))

    command = [DRIVER, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        traces = os.path.join(BUILD_DIR, "traces")
        os.makedirs(traces, exist_ok=True)
        command += ["--trace-out", os.path.join(
            traces, "%s-seed%d.json" % (args.workload, args.seed))]
    # The benchmark fixes the engine's configuration itself; knobs from
    # the caller's environment (AGORA_THREADS, AGORA_MEM_BUDGET, ...)
    # would change what is measured.
    env = {k: v for k, v in os.environ.items() if not k.startswith("AGORA_")}
    try:
        run = subprocess.run(command, cwd=ROOT, env=env,
                             stdout=subprocess.PIPE, text=True,
                             timeout=min(170, 4 * args.seconds + 60))
    except subprocess.TimeoutExpired:
        log("driver timed out and was killed")
        return 1
    if run.returncode != 0:
        log("driver exited with code %d" % run.returncode)
        return 1
    lines = run.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        log("driver printed no JSON result")
        return 1
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        log("driver result has unexpected keys: %s" % sorted(result))
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
