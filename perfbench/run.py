#!/usr/bin/env python3
"""Builds and runs the repository's end-to-end benchmark.

Usage, from the repository root:

    python3 perfbench/run.py --workload ind-filter --seed 1 --seconds 20 \
        --trace 0

Configures and builds perfbench/ (which compiles the libraries under src/)
into $CARGO_TARGET_DIR, default .bench_build, then runs one workload in its
own process, so peak RSS belongs to that workload. The last line of stdout
is the run's JSON result; its metric names and units are checked against
BENCHMARK.json. Build output goes to stderr. The exit code is non-zero when
the build fails, an answer check fails, or the result does not match
BENCHMARK.json.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def build(build_dir):
    """Configures once, then builds; returns the benchmark binary's path."""
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        gen = ["-G", "Ninja"] if shutil.which("ninja") else []
        cfg = ["cmake", "-S", HERE, "-B", build_dir,
               "-DCMAKE_BUILD_TYPE=Release"] + gen
        if subprocess.run(cfg, stdout=sys.stderr).returncode != 0:
            fail("configure failed")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    cmd = ["cmake", "--build", build_dir, "-j", jobs]
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        fail("build failed")
    return os.path.join(build_dir, "utk_perfbench")


def check_result(line, spec, trace):
    """The result must list exactly BENCHMARK.json's metrics for the mode."""
    try:
        result = json.loads(line)
    except ValueError:
        fail("last output line is not JSON: " + line)
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        fail("result keys are " + ", ".join(sorted(result)))
    want = {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}
    got = {k: v.get("unit") for k, v in result["metrics"].items()}
    if got != want:
        fail("metrics differ from BENCHMARK.json: missing %s, extra or "
             "mis-united %s" % (sorted(set(want) - set(got)),
                                sorted(k for k in got if want.get(k) !=
                                       got[k])))
    return result


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--inject-fault", action="store_true",
                    help="corrupt one checked answer; the run must fail")
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        fail("unknown workload " + args.workload)

    build_dir = os.path.join(ROOT,
                             os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    binary = build(build_dir)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        traces = os.path.join(build_dir, "traces")
        os.makedirs(traces, exist_ok=True)
        cmd += ["--trace-out", os.path.join(
            traces, "%s-seed%d.json" % (args.workload, args.seed))]
    if args.inject_fault:
        cmd.append("--inject-fault")

    work = tempfile.mkdtemp(prefix="run-", dir=build_dir)
    try:
        proc = subprocess.run(cmd + ["--work-dir", work], cwd=ROOT,
                              stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("run exceeded %d s" % RUN_TIMEOUT_S)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        sys.stdout.write(proc.stdout)
        fail("%s seed %d exited with %d" % (args.workload, args.seed,
                                           proc.returncode))
    for line in lines[:-1]:
        print(line)
    result = check_result(lines[-1], spec, args.trace)
    if not result["correct"] or result["failed"]:
        fail("%s seed %d reported failures" % (args.workload, args.seed))
    print(lines[-1])


if __name__ == "__main__":
    main()
