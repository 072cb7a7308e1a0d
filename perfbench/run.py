#!/usr/bin/env python3
"""Builds and runs the SAGED repository benchmark.

Usage, from the repository root:

    python3 perfbench/run.py --workload detect-mem --seed 1 --seconds 27 --trace 0

Configures and builds perfbench/ (the saged library from src/ plus the
saged_perfbench binary) into .bench_build/ on first use, then runs one
workload. The binary's stdout is passed through; its last line is one JSON
object with the keys correct, attempted, failed and metrics. Before printing
that line this script checks that its metric names and units are exactly the
set BENCHMARK.json lists for the mode (end_to_end for --trace 0, per_layer
for --trace 1); on any build or run failure it exits non-zero without a
result line.
"""
import argparse
import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = ROOT / "perfbench"
BUILD_DIR = ROOT / ".bench_build"
BINARY = BUILD_DIR / "saged_perfbench"
RUN_TIMEOUT_S = 175
BUILD_JOBS = "4"


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail("no src/CMakeLists.txt next to perfbench/: nothing to build")
    if not (BUILD_DIR / "CMakeCache.txt").is_file():
        configure = ["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
                     "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            fail("configure failed")
    compile_cmd = ["cmake", "--build", str(BUILD_DIR), "-j", BUILD_JOBS,
                   "--target", "saged_perfbench"]
    if subprocess.run(compile_cmd, stdout=sys.stderr).returncode != 0:
        fail("build failed")


def expected_metrics(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def check_result(line, trace):
    try:
        result = json.loads(line)
    except json.JSONDecodeError:
        fail("the last output line is not JSON")
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail("the result has the wrong keys")
    printed = {name: m.get("unit") for name, m in result["metrics"].items()}
    if printed != expected_metrics(trace):
        fail("printed metrics differ from BENCHMARK.json")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, choices=["0", "1"])
    args = parser.parse_args()

    build()
    command = [str(BINARY), "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", args.trace]
    child = subprocess.Popen(command, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    try:
        stdout, _ = child.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        child.kill()
        child.wait()
        fail("run timed out")
    finally:
        # The binary removes its scratch directory itself; this only matters
        # when it died early.
        shutil.rmtree(ROOT / ".bench_run" / f"{args.workload}-{child.pid}",
                      ignore_errors=True)
    lines = stdout.rstrip("\n").split("\n")
    if child.returncode != 0 or not lines or not lines[-1].startswith("{"):
        sys.stdout.write(stdout)
        fail(f"run failed (exit code {child.returncode})")
    check_result(lines[-1], args.trace == "1")
    sys.stdout.write(stdout)
    sys.stdout.flush()


if __name__ == "__main__":
    main()
