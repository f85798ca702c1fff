#!/usr/bin/env python3
"""End-to-end FETI benchmark.

Builds the benchmark and the library from the repository's own sources into
perfbench/_build (Release), then runs one workload:

    python3 perfbench/run.py --workload <transient-3d|steady-2d|service-mix> \
        --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --self-test
    python3 perfbench/run.py --breakeven

The last line of standard output is the run's JSON result; build output goes
to standard error. The traced run (--trace 1) also writes its spans to
perfbench/_out/trace-<workload>-seed<n>.jsonl.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BUILD = os.path.join(HERE, "_build")
OUT = os.path.join(HERE, "_out")
BINARY = os.path.join(BUILD, "perfbench")
WORKLOADS = ("transient-3d", "steady-2d", "service-mix")
# The program's threads stay well within the 4 cores the benchmark was tuned
# on: with 4 OpenMP threads plus 4 virtual-GPU workers the median step of
# transient-3d moved several times more between runs than with 2 + 2.
THREADS = {"OMP_NUM_THREADS": "2", "FETI_VGPU_WORKERS": "2"}
# A run must end within 180 s; a hung run is killed before that.
RUN_TIMEOUT_S = 170


def build():
    if not os.path.exists(BINARY):
        subprocess.run(["cmake", "-S", HERE, "-B", BUILD,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", BUILD, "-j", "4"],
                   check=True, stdout=sys.stderr)


def run(argv):
    env = dict(os.environ, **THREADS)
    proc = subprocess.Popen([BINARY] + argv, env=env)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        print("perfbench: run exceeded %d s and was killed" % RUN_TIMEOUT_S,
              file=sys.stderr)
        return 3


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true",
                        help="show that every output check rejects bad input")
    parser.add_argument("--breakeven", action="store_true",
                        help="measure the expl modern vs impl mkl break-even "
                             "iteration count on the transient-3d problem")
    args = parser.parse_args()
    if not (args.workload or args.self_test or args.breakeven):
        parser.error("one of --workload, --self-test, --breakeven is needed")

    try:
        build()
    except (OSError, subprocess.CalledProcessError) as e:
        print("perfbench: build failed: %s" % e, file=sys.stderr)
        return 2

    if args.self_test:
        return run(["--self-test"])
    if args.breakeven:
        return run(["--breakeven"])
    argv = ["--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        os.makedirs(OUT, exist_ok=True)
        argv += ["--trace-out", os.path.join(
            OUT, "trace-%s-seed%d.jsonl" % (args.workload, args.seed))]
    return run(argv)


if __name__ == "__main__":
    sys.exit(main())
