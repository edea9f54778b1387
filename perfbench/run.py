#!/usr/bin/env python3
"""Build and run the vmprim application benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere inside a checkout: the library is built from ../src into
.bench_build/perfbench at the checkout root (first run only), then the
benchmark program runs one workload.  The last line of stdout is the JSON
result; see perfbench/README.md for the workloads and metrics.

Beyond the benchmark program's own in-process checks, the exact counters
and result digest of every run are kept per (binary, workload, seed) under
.bench_build/perfbench/exact, and a later run of the same binary and seed
that disagrees is reported as incorrect.
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
BINARY = os.path.join(BUILD, "vmp_perfbench")
WORKLOADS = ("gauss_lu", "cg_dense", "simplex_lp_faults")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def fail(msg, code=2):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("library sources not found: expected src/ beside perfbench/")
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    # Keep the compiler's temporary files inside the checkout as well.
    env = dict(os.environ, TMPDIR=os.path.join(BUILD, "tmp"))
    os.makedirs(env["TMPDIR"], exist_ok=True)
    steps.append(["cmake", "--build", BUILD, "-j", jobs,
                  "--target", "vmp_perfbench"])
    for cmd in steps:
        try:
            # Build output goes to stderr: stdout carries only the result.
            proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                                  env=env, timeout=BUILD_TIMEOUT_S)
        except (OSError, subprocess.TimeoutExpired) as e:
            fail("build failed: %s" % e)
        if proc.returncode != 0:
            fail("build failed: %s exited %d" % (cmd[0], proc.returncode))


def check_exact(line, workload, seed):
    """Compare the run's exact record with earlier runs of this binary."""
    with open(BINARY, "rb") as f:
        binary_id = hashlib.sha256(f.read()).hexdigest()[:16]
    store = os.path.join(BUILD, "exact")
    os.makedirs(store, exist_ok=True)
    path = os.path.join(store, "%s-%s-%d.json" % (binary_id, workload, seed))
    record = json.loads(line[len("exact "):])
    if os.path.isfile(path):
        with open(path) as f:
            earlier = json.load(f)
        if earlier != record:
            print("perfbench: exact counters differ from an earlier run of "
                  "this binary and seed:\n  earlier %s\n  now     %s"
                  % (json.dumps(earlier), json.dumps(record)), file=sys.stderr)
            return False
        return True
    with open(path, "w") as f:
        json.dump(record, f)
    return True


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()
    if not 1 <= args.seconds <= 60:
        fail("--seconds must be within 1..60")
    if args.seed < 0:
        fail("--seed must be non-negative")

    build()
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace == 1:
        cmd += ["--trace-out", os.path.join(
            BUILD, "spans-%s-%d.json" % (args.workload, args.seed))]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("run exceeded %d s" % RUN_TIMEOUT_S, 1)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines or not lines[-1].startswith("{"):
        sys.stderr.write(proc.stdout)
        fail("benchmark exited %d without a result" % proc.returncode, 1)

    result = json.loads(lines[-1])
    for line in lines[:-1]:
        print(line)
        if line.startswith("exact ") and not check_exact(
                line, args.workload, args.seed):
            result["correct"] = False
    print(json.dumps(result))


if __name__ == "__main__":
    main()
