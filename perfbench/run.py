#!/usr/bin/env python3
"""Build and run the HAPE host-cost benchmark for one workload.

    python3 perfbench/run.py --workload serve_replay --seed 17 \
        --seconds 30 --trace 0

Builds perfbench/ (which compiles the engine from src/) into .bench_build
at the checkout root, then runs one workload. Set-up, the measured loop
and every result check happen in the hape_perfbench binary; its last
stdout line is the result object. Build output goes to stderr. Traced runs
write their spans to .bench_out/. The exit code is non-zero when the
build fails, the sources are missing, or any result check fails.
"""

import argparse
import os
import subprocess
import sys

WORKLOADS = ("serve_replay", "tpch_solo", "batch_fairshare")
DEFAULT_SEED = 17
HELD_OUT_SEED = 23
RUN_TIMEOUT_S = 170


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")

    bench_dir = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(bench_dir)
    if not os.path.isfile(os.path.join(root, "src", "engine", "engine.h")):
        sys.exit("perfbench: engine sources (src/) not found next to "
                 "perfbench/; run from a full checkout")
    build_dir = os.path.join(root, ".bench_build")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    for cmd in (["cmake", "-S", bench_dir, "-B", build_dir,
                 "-DCMAKE_BUILD_TYPE=Release"],
                ["cmake", "--build", build_dir, "-j", jobs]):
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            sys.exit("perfbench: build failed: " + " ".join(cmd))

    binary = os.path.join(build_dir, "hape_perfbench")
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--out", os.path.join(root, ".bench_out")]
    sys.stdout.flush()
    try:
        proc = subprocess.run(cmd, cwd=root, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit("perfbench: workload run exceeded %d s" % RUN_TIMEOUT_S)
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
