#!/usr/bin/env python3
"""Build the chainckpt library and the benchmark from source, then run one workload.

    python3 perfbench/run.py --workload solve_mix --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --selftest        # the benchmark's own tests

Run from the root of a checkout.  The build goes to $CARGO_TARGET_DIR
(default .bench_build); traced runs write their spans to <build>/traces/.
The last line of stdout is the result object of the perfbench binary.
"""
import argparse
import os
import pathlib
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
# One run measures --seconds plus set-up and checking; the binary gets the
# rest of the 180 s budget before it is stopped.
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build_dir():
    path = pathlib.Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    return path if path.is_absolute() else ROOT / path


def build(out, target):
    if not (ROOT / "src" / "core" / "optimizer.hpp").is_file():
        fail(f"no chainckpt sources under {ROOT / 'src'}")
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not (out / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(out),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(out), "-j", jobs, "--target", target])
    for step in steps:
        # Build chatter goes to stderr so stdout ends with the result line.
        done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            fail(f"build step failed: {' '.join(step)}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=["edge_hits", "solve_mix", "solo_large"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", choices=["0", "1"], default="0")
    parser.add_argument("--selftest", action="store_true",
                        help="build and run the benchmark's own tests")
    args = parser.parse_args()
    if not args.selftest and args.workload is None:
        parser.error("--workload is required")

    out = build_dir()
    if args.selftest:
        build(out, "perfbench_test")
        sys.exit(subprocess.run([str(out / "perfbench_test")]).returncode)

    build(out, "perfbench")
    traces = out / "traces"
    traces.mkdir(parents=True, exist_ok=True)
    command = [str(out / "perfbench"), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", args.trace, "--trace-dir", str(traces)]
    sys.stdout.flush()
    try:
        done = subprocess.run(command, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"run exceeded {RUN_TIMEOUT_S} s")
    sys.exit(done.returncode)


if __name__ == "__main__":
    main()
