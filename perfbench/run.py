#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload solve-large --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --selftest

Run from the root of a checkout. The first run configures the build under
.bench_build/perfbench; every run then builds only the program its mode needs
(later runs rebuild only what changed): `perfbench` for --trace 0,
`perfbench_traced` (the same sources with each workload's traced branch, the
per-layer metric table and the solver-layer replay compiled in) for --trace 1
and `perfbench_selftest` for --selftest. A change to the library's layer
counters or the dual step's internals can thus break the traced run and the
self-test but not the untraced numbers. Lines starting with '#' describe the run; the last
line of standard output is the JSON result, printed only when the program
finished and its metrics match BENCHMARK.json. The exit code is the
program's: 0 when every answer passed its gates, non-zero otherwise or when
the build fails. `--workload all` runs the three workloads one after another
(a result line each) and exits non-zero if any of them did.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
TRACES = os.path.join(ROOT, ".bench_build", "traces")
RUN_TIMEOUT_S = 170
WORKLOADS = ["solve-large", "serve-poisson", "serve-hot"]


def log(message):
    print(f"run.py: {message}", file=sys.stderr, flush=True)


def build(target):
    """Configures once, then builds `target` and what it links; cmake output
    goes to stderr so stdout carries only the run."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j", jobs, "--target", target])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            log("build failed: " + " ".join(step))
            return False
    return True


def source_digest():
    """SHA-256 over the files the build reads, so a result names its code
    even where the checkout carries no git metadata."""
    digest = hashlib.sha256()
    paths = [os.path.join(ROOT, "CMakeLists.txt")]
    for top in ("src", "perfbench"):
        for directory, _, files in os.walk(os.path.join(ROOT, top)):
            paths.extend(os.path.join(directory, name) for name in files)
    for path in sorted(paths):
        if not os.path.isfile(path):
            continue
        digest.update(os.path.relpath(path, ROOT).encode())
        with open(path, "rb") as handle:
            digest.update(handle.read())
    return digest.hexdigest()[:16]


def git_revision():
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "--short=12", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "none"
    return out.stdout.strip() if out.returncode == 0 and out.stdout.strip() else "none"


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    rows = spec["per_layer"] if trace else spec["end_to_end"]
    return {row["name"]: row["unit"] for row in rows}


def check_result(line, trace):
    """The result line must carry exactly the metrics BENCHMARK.json names
    for this mode, with the same units."""
    result = json.loads(line)
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        return "result keys are " + ", ".join(sorted(result))
    expected = expected_metrics(trace)
    got = {name: metric.get("unit") for name, metric in result["metrics"].items()}
    if got != expected:
        missing = sorted(set(expected) - set(got))
        extra = sorted(set(got) - set(expected))
        wrong = sorted(n for n in set(got) & set(expected) if got[n] != expected[n])
        return f"metrics differ from BENCHMARK.json: missing {missing}, extra {extra}, unit {wrong}"
    return None


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--selftest", action="store_true",
                        help="build and run the benchmark's own tests, then exit")
    args = parser.parse_args()
    if not args.selftest and (args.workload is None or args.seed is None):
        parser.error("--workload and --seed are required")

    if args.selftest:
        target = "perfbench_selftest"
    else:
        target = "perfbench_traced" if args.trace else "perfbench"
    if not build(target):
        return 2
    if args.selftest:
        return subprocess.run([os.path.join(BUILD, target)]).returncode
    workloads = WORKLOADS if args.workload == "all" else [args.workload]
    return max(run_workload(name, args) for name in workloads)


def run_workload(workload, args):
    program = "perfbench_traced" if args.trace else "perfbench"
    command = [os.path.join(BUILD, program), "--workload", workload,
               "--seed", str(args.seed), "--seconds", repr(args.seconds),
               "--trace", str(args.trace), "--rev", git_revision(),
               "--source", source_digest()]
    if args.trace:
        os.makedirs(TRACES, exist_ok=True)
        command += ["--trace-dir", TRACES]
    try:
        run = subprocess.run(command, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"{program} exceeded {RUN_TIMEOUT_S} s and was stopped")
        return 2
    sys.stderr.write(run.stderr)
    lines = run.stdout.splitlines()
    if not lines or not lines[-1].startswith("{"):
        sys.stdout.write(run.stdout)
        log(f"{program} printed no result (exit {run.returncode})")
        return run.returncode or 2
    problem = check_result(lines[-1], args.trace)
    if problem:
        sys.stdout.write("\n".join(lines[:-1]) + "\n")
        log(problem)
        return 2
    sys.stdout.write(run.stdout)
    sys.stdout.flush()
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
