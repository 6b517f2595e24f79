#!/usr/bin/env python3
"""Repo benchmark: build perfbench from this checkout's sources, run one workload.

    python3 perfbench/run.py --workload batch_headers --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --smoke
    python3 perfbench/run.py --workload batch_headers --mix

Run from the root of a checkout.  The build lives in $CARGO_TARGET_DIR
(default .bench_build) under perfbench/, scratch inputs under work/, and the
traced run's Chrome trace-event file under results/.  The last line of
standard output is the result JSON printed by the perfbench program.
--smoke runs every workload once at a tiny scale with the same output
checks, and checks the printed metric names against BENCHMARK.json.
--mix prints how a workload's shaped inputs differ from its dataset
(batch_headers and daemon_payload; it measures nothing).
"""

import argparse
import json
import os
import subprocess
import sys

WORKLOADS = ["batch_headers", "daemon_payload", "cluster_loopback"]
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def build(root, build_dir):
    if not os.path.isfile(os.path.join(root, "src", "CMakeLists.txt")):
        fail("no entrace sources beside perfbench/ (expected src/CMakeLists.txt)")
    cmake = ["cmake", "-S", os.path.join(root, "perfbench"), "-B", build_dir]
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        cmake.append("-DCMAKE_BUILD_TYPE=RelWithDebInfo")
    steps = [cmake, ["cmake", "--build", build_dir, "-j4", "--target", "perfbench",
                     "entrace_worker"]]
    for step in steps:
        # Build chatter goes to stderr: stdout ends with the result line.
        done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            fail("build failed: " + " ".join(step))


def git_sha(root):
    if not os.path.isdir(os.path.join(root, ".git")):
        return "unknown"
    try:
        out = subprocess.run(["git", "-C", root, "rev-parse", "HEAD"], capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() or "unknown"


def run_workload(root, out_dir, build_dir, workload, seed, seconds, trace, smoke):
    work_dir = os.path.join(out_dir, "work", f"{workload}-{os.getpid()}")
    results = os.path.join(out_dir, "results")
    os.makedirs(results, exist_ok=True)
    cmd = [os.path.join(build_dir, "perfbench"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace), "--work-dir", work_dir,
           "--worker-bin", os.path.join(build_dir, "entrace_worker"), "--git-sha", git_sha(root),
           "--trace-out", os.path.join(results, f"{workload}-seed{seed}.trace.json")]
    if smoke:
        cmd.append("--smoke")
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{workload} did not finish within {RUN_TIMEOUT_S} s")
    sys.stdout.write(done.stdout)
    sys.stdout.flush()
    if done.returncode != 0:
        fail(f"{workload} exited with code {done.returncode}")
    lines = done.stdout.strip().splitlines()
    if not lines:
        fail(f"{workload} printed no result")
    return json.loads(lines[-1])


def mix(out_dir, build_dir, workload):
    work_dir = os.path.join(out_dir, "work", f"{workload}-mix-{os.getpid()}")
    cmd = [os.path.join(build_dir, "perfbench"), "--workload", workload, "--mix",
           "--work-dir", work_dir]
    return subprocess.run(cmd).returncode


def smoke(root, out_dir, build_dir):
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        spec = json.load(f)
    declared = {0: [m["name"] for m in spec["end_to_end"]],
                1: [m["name"] for m in spec["per_layer"]]}
    ok = True
    for workload in WORKLOADS:
        for trace in (0, 1):
            result = run_workload(root, out_dir, build_dir, workload, 1, 1, trace, True)
            names = sorted(result["metrics"])
            if not result["correct"] or result["failed"] != 0:
                print(f"smoke: {workload} trace={trace}: output check failed", file=sys.stderr)
                ok = False
            if names != sorted(declared[trace]):
                print(f"smoke: {workload} trace={trace}: metrics differ from BENCHMARK.json",
                      file=sys.stderr)
                ok = False
    print(json.dumps({"smoke": "ok" if ok else "failed"}))
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--mix", action="store_true")
    args = parser.parse_args()
    if not args.smoke and args.workload is None:
        parser.error("--workload is required (or --smoke)")
    if args.mix and args.workload not in ("batch_headers", "daemon_payload"):
        parser.error("--mix needs --workload batch_headers or daemon_payload")
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "perfbench", "run.py")):
        fail("run from the root of the checkout")
    out_dir = os.path.join(root, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    build_dir = os.path.join(out_dir, "perfbench")
    build(root, build_dir)
    if args.smoke:
        return smoke(root, out_dir, build_dir)
    if args.mix:
        return mix(out_dir, build_dir, args.workload)
    result = run_workload(root, out_dir, build_dir, args.workload, args.seed, args.seconds,
                          args.trace, False)
    return 0 if result.get("attempted", 0) >= 1 else 1


if __name__ == "__main__":
    sys.exit(main())
