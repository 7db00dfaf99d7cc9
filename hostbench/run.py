#!/usr/bin/env python3
"""Run one hostbench workload and print its result as the last stdout line.

    python3 hostbench/run.py --workload attach_churn --seed 1 --seconds 20 --trace 0
    python3 hostbench/run.py --smoke

Run from the root of a checkout. The first run configures and builds the
benchmark (hostbench/CMakeLists.txt, which builds ../src) under
$CARGO_TARGET_DIR/hostbench (default .bench_build/hostbench). Build output
goes to stderr. Each run leaves a run record in .bench_runs/: seed, workload
sizes, commit (or a source digest when the checkout is not a git tree),
nproc, the 1-minute load average before the run, the simulated length of the
timed phase, why the workload exists, and the result. Traced runs also leave
their span file there.

Exit status is non-zero, with no result printed, when the build fails, the
simulated outcome breaks an invariant, or the result is malformed.
"""
import argparse
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUNS_DIR = os.path.join(ROOT, ".bench_runs")
BUILD_TIMEOUT_S = 700
RUN_TIMEOUT_S = 170
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def log(msg):
    print(f"hostbench: {msg}", file=sys.stderr, flush=True)


def run_checked(cmd, timeout, **kwargs):
    """subprocess.run that always reaps the child, even on timeout."""
    try:
        return subprocess.run(cmd, timeout=timeout, **kwargs)
    except subprocess.TimeoutExpired:
        log(f"timed out after {timeout} s: {' '.join(cmd)}")
        sys.exit(1)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("no simulator sources (src/CMakeLists.txt) next to hostbench/")
        sys.exit(2)
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    build_dir = os.path.join(ROOT, target, "hostbench")
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", build_dir,
                     "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if run_checked(configure, BUILD_TIMEOUT_S,
                       stdout=sys.stderr).returncode != 0:
            log("configure failed")
            sys.exit(1)
    jobs = str(os.cpu_count() or 1)
    if run_checked(["cmake", "--build", build_dir, "-j", jobs],
                   BUILD_TIMEOUT_S, stdout=sys.stderr).returncode != 0:
        log("build failed")
        sys.exit(1)
    return os.path.join(build_dir, "hostbench")


def source_identity():
    """The commit when this is a git tree; always a digest of the sources."""
    commit = None
    if os.path.exists(os.path.join(ROOT, ".git")):
        try:
            out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                 capture_output=True, text=True, timeout=10)
            if out.returncode == 0:
                commit = out.stdout.strip()
        except (OSError, subprocess.TimeoutExpired):
            pass
    digest = hashlib.sha256()
    for top in ("src", "hostbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return commit, digest.hexdigest()


def benchmark_spec():
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            return json.load(f)
    except (OSError, ValueError):
        return None


def validate(result, spec, trace):
    if set(result) != RESULT_KEYS or result["correct"] is not True:
        return "result keys or correctness flag wrong"
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        return "attempted must be a whole number >= 1"
    if spec is not None:
        wanted = {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}
        if set(result["metrics"]) != wanted:
            return ("metrics differ from BENCHMARK.json: "
                    f"{sorted(set(result['metrics']) ^ wanted)}")
    return None


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="every workload at tiny size (the benchmark's "
                             "own test)")
    args = parser.parse_args()
    if not args.smoke and not args.workload:
        parser.error("--workload is required")

    binary = build()
    if args.smoke:
        sys.exit(run_checked([binary, "--smoke"], RUN_TIMEOUT_S).returncode)

    os.makedirs(RUNS_DIR, exist_ok=True)
    load1 = os.getloadavg()[0]
    proc = run_checked(
        [binary, "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", repr(args.seconds), "--trace", str(args.trace),
         "--out-dir", RUNS_DIR],
        RUN_TIMEOUT_S, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.splitlines()
    for line in lines[:-1]:
        print(line)
    if proc.returncode != 0 or not lines:
        log(f"{args.workload} failed (exit {proc.returncode})")
        sys.exit(proc.returncode or 1)

    spec = benchmark_spec()
    try:
        result = json.loads(lines[-1])
    except ValueError:
        result = None
    problem = "last line is not JSON" if result is None else validate(
        result, spec, args.trace == 1)
    if problem:
        log(f"malformed result: {problem}")
        sys.exit(1)

    record = {}
    for line in lines:
        if line.startswith("RUN_RECORD "):
            record.update(json.loads(line[len("RUN_RECORD "):]))
        elif line.startswith("TRACE_REPORT "):
            record["trace_report"] = json.loads(line[len("TRACE_REPORT "):])
    commit, source_sha256 = source_identity()
    why = {w["name"]: w["why"] for w in (spec or {}).get("workloads", [])}
    record.update({
        "commit": commit,
        "source_sha256": source_sha256,
        "nproc": os.cpu_count(),
        "load1_before": load1,
        "why": why.get(args.workload),
        "result": result,
    })
    path = os.path.join(
        RUNS_DIR, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w") as f:
        json.dump(record, f, indent=2)
        f.write("\n")
    print(f"run record: {os.path.relpath(path, ROOT)}")
    print(lines[-1], flush=True)


if __name__ == "__main__":
    main()
