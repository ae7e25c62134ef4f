#!/usr/bin/env python3
"""Builds the repository benchmark from source and runs one workload.

    python3 perfbench/run.py --workload <batch_full|crawl_epochs|query_mix> \
        --seed <n> --seconds <s> --trace <0|1> [--smoke]

Run it from anywhere inside a checkout. The first run configures and
builds perfbench (CMake, RelWithDebInfo) under .bench_build/ at the root
of the checkout; later runs only rebuild what changed. Build output goes
to stderr, so the last line of stdout is the benchmark's result object.

Every OGDP_* environment variable is dropped before the benchmark starts:
all knobs are pinned through API options. Each run gets a private scratch
directory under .bench_build/runs/, removed when the run ends, whether it
passed, failed or timed out. Traced runs leave their Chrome-trace span
dump in .bench_build/traces/.
"""

import argparse
import os
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_ROOT = os.path.join(ROOT, ".bench_build")
BUILD_DIR = os.path.join(BUILD_ROOT, "perfbench")
BINARY = os.path.join(BUILD_DIR, "ogdp_perfbench")
WORKLOADS = ("batch_full", "crawl_epochs", "query_mix")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def fail(message, code=2):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail(f"no ogdp sources next to {HERE}; run from a full checkout")
    commands = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        commands.append(["cmake", "-S", HERE, "-B", BUILD_DIR, *generator,
                         "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    commands.append(["cmake", "--build", BUILD_DIR, "--target",
                     "ogdp_perfbench", "--parallel", "4"])
    for command in commands:
        try:
            subprocess.run(command, stdout=sys.stderr, stderr=sys.stderr,
                           check=True, timeout=BUILD_TIMEOUT_S)
        except (OSError, subprocess.SubprocessError) as error:
            fail(f"build failed: {error}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    parser.add_argument("--smoke", action="store_true",
                        help="tiny corpora, for the self-test")
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        fail("--seed must be >= 0 and --seconds > 0")

    build()
    env = {k: v for k, v in os.environ.items() if not k.startswith("OGDP_")}
    runs = os.path.join(BUILD_ROOT, "runs")
    traces = os.path.join(BUILD_ROOT, "traces")
    os.makedirs(runs, exist_ok=True)
    os.makedirs(traces, exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=runs)
    command = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds), "--trace", args.trace,
               "--work-dir", work, "--trace-file",
               os.path.join(traces, f"{args.workload}-seed{args.seed}.json")]
    if args.smoke:
        command.append("--smoke")
    try:
        # stdout is inherited: the benchmark prints the result line itself.
        return subprocess.run(command, env=env, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        fail(f"run exceeded {RUN_TIMEOUT_S} s", code=124)
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
