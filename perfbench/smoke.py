#!/usr/bin/env python3
"""Smoke self-test of the repository benchmark.

    python3 perfbench/smoke.py

Runs every workload at tiny scale (--smoke) for one second, untraced and
traced, through run.py. Fails (exit 1) when a run exits non-zero, prints
no result line, or reports an incorrect output or a failed operation.
Takes about a minute after the first build.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("batch_full", "crawl_epochs", "query_mix")


def run(workload, trace):
    command = [sys.executable, os.path.join(HERE, "run.py"),
               "--workload", workload, "--seed", "7", "--seconds", "1",
               "--trace", trace, "--smoke"]
    proc = subprocess.run(command, capture_output=True, text=True,
                          timeout=900)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return f"exit {proc.returncode}: {proc.stderr.strip()[-400:]}"
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        return f"unparsable result line: {lines[-1][:200]}"
    if not result["correct"] or result["failed"] or result["attempted"] < 1:
        problems = json.loads(lines[-2])["perfbench"]["problems"]
        return (f"correct={result['correct']} attempted={result['attempted']}"
                f" failed={result['failed']} {problems[:3]}")
    return None


def main():
    failures = 0
    for workload in WORKLOADS:
        for trace in ("0", "1"):
            problem = run(workload, trace)
            status = "ok" if problem is None else f"FAIL {problem}"
            print(f"{workload:13s} trace={trace}: {status}", flush=True)
            failures += problem is not None
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
