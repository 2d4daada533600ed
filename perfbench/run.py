#!/usr/bin/env python3
"""Build and run the PaMO benchmark from the root of a source checkout.

    python3 perfbench/run.py --workload fleet_3k --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 0

Builds perfbench/ (the library layers from src/ plus pamo_perfbench) with
CMake into $CARGO_TARGET_DIR (default .bench_build), then runs one
workload. The last line of standard output is one JSON object with the
keys correct, attempted, failed and metrics. `--workload all` runs every
workload in turn and ends with a combined line whose metric names are
prefixed with the workload. Exits non-zero without a result line when
the sources are missing, the build fails or a run times out; a failed
correctness check passes through the program's "correct": false line and
exits non-zero too.
"""
import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

WORKLOADS = ["fleet_3k", "daemon_churn", "service_faults"]
ROOT = Path(__file__).resolve().parent.parent
RUN_TIMEOUT_S = 170


def log(message):
    print(f"perfbench: {message}", file=sys.stderr, flush=True)


def build(build_dir):
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        log(f"no PaMO sources under {ROOT / 'src'}")
        return None
    configure = ["cmake", "-S", str(ROOT / "perfbench"), "-B", str(build_dir),
                 "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
    if shutil.which("ninja") and not (build_dir / "CMakeCache.txt").exists():
        configure += ["-G", "Ninja"]
    jobs = str(min(4, os.cpu_count() or 1))
    for step in (configure,
                 ["cmake", "--build", str(build_dir), "--target",
                  "pamo_perfbench", "-j", jobs]):
        done = subprocess.run(step, cwd=ROOT, stdout=sys.stderr,
                              stderr=sys.stderr)
        if done.returncode != 0:
            log("build failed")
            return None
    return build_dir / "pamo_perfbench"


def git_describe():
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        done = subprocess.run(["git", "describe", "--always", "--dirty"],
                              cwd=ROOT, env=env, capture_output=True,
                              text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "none"
    return done.stdout.strip() if done.returncode == 0 else "none"


def run_one(binary, workload, args, scratch, describe):
    command = [str(binary), "--workload", workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--scratch", str(scratch), "--git-describe", describe]
    try:
        done = subprocess.run(command, cwd=ROOT, capture_output=True,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"{workload}: no result within {RUN_TIMEOUT_S} s")
        return None
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    sys.stderr.write(done.stderr)
    if done.returncode != 0:
        print(done.stdout, end="")
        log(f"{workload}: exit code {done.returncode}")
        return None
    lines = done.stdout.rstrip("\n").split("\n")
    print("\n".join(lines[:-1]))
    return lines[-1]


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], required=True)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")

    build_dir = ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    binary = build(build_dir)
    if binary is None:
        return 1
    describe = git_describe()
    scratch = build_dir / f"scratch-{os.getpid()}"

    if args.workload != "all":
        result = run_one(binary, args.workload, args, scratch, describe)
        if result is None:
            return 1
        print(result)
        return 0

    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        result = run_one(binary, workload, args, scratch, describe)
        if result is None:
            return 1
        print(result)
        parsed = json.loads(result)
        combined["correct"] = combined["correct"] and parsed["correct"]
        combined["attempted"] += parsed["attempted"]
        combined["failed"] += parsed["failed"]
        for name, metric in parsed["metrics"].items():
            combined["metrics"][f"{workload}.{name}"] = metric
    print(json.dumps(combined))
    return 0


if __name__ == "__main__":
    sys.exit(main())
