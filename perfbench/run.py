#!/usr/bin/env python3
"""End-to-end sort benchmark of hds: builds hds_perfbench from source and
runs one workload of it.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --selftest

Run from the root of a checkout. The build goes to .bench_build/perfbench
(CMake, RelWithDebInfo; the first run compiles, later runs reuse it). The
last line of standard output is the benchmark's JSON result; build output
goes to standard error. With --trace 1 the span log is written to
.bench_build/perfbench/spans/. --selftest builds and runs the benchmark's
own test of its failure accounting instead. See perfbench/README.md.
"""
import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
WORKLOADS = ("bulk-uniform-p4", "latency-fewdistinct-p4", "scale-sampled-p128")
# A run must end within 180 s; the benchmark itself needs --seconds plus
# about ten seconds of set-up.
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 880


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def build(target):
    if not os.path.isfile(os.path.join(ROOT, "src", "core", "histogram_sort.h")):
        fail(f"hds sources not found under {os.path.join(ROOT, 'src')}")
    tmp = os.path.join(BUILD, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps.append(["cmake", "--build", BUILD, "-j", jobs, "--target", target])
    for cmd in steps:
        try:
            done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                                  env=env, timeout=BUILD_TIMEOUT_S)
        except (OSError, subprocess.TimeoutExpired) as e:
            fail(f"build failed: {e}")
        if done.returncode != 0:
            fail(f"build failed: {' '.join(cmd)} exited {done.returncode}")
    return os.path.join(BUILD, target)


def run(cmd):
    try:
        return subprocess.run(cmd, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        fail(f"no result within {RUN_TIMEOUT_S} s")
    except OSError as e:
        fail(str(e))


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--selftest", action="store_true")
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1))
    args = ap.parse_args()

    if args.selftest:
        sys.exit(run([build("hds_perfbench_selftest")]))
    if None in (args.workload, args.seed, args.seconds, args.trace):
        ap.error("--workload, --seed, --seconds and --trace are required")
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")

    exe = build("hds_perfbench")
    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace)]
    if args.trace == 1:
        spans = os.path.join(BUILD, "spans")
        os.makedirs(spans, exist_ok=True)
        cmd += ["--spans-out",
                os.path.join(spans, f"{args.workload}-seed{args.seed}.jsonl")]
    sys.exit(run(cmd))


if __name__ == "__main__":
    main()
