#!/usr/bin/env python3
"""Entry point of the repository benchmark (the "command" of BENCHMARK.json).

    python3 bench_suite/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run it from the repository root. It builds bench_suite/ (CMake, Release) in
$CARGO_TARGET_DIR/bench_suite (default .bench_build/bench_suite), runs the
bench_suite binary with its temporary inputs under that build directory,
checks the binary's report, and prints as the last line of standard output
one JSON object {"correct", "attempted", "failed", "metrics"} holding the
end-to-end metrics named in BENCHMARK.json (--trace 0) or its per-layer
metrics (--trace 1, which also writes a Chrome trace next to the build).
Exits non-zero when the sources are missing, the build fails, or a check
fails.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def fail(message, code=1):
    print(f"run.py: {message}", file=sys.stderr)
    sys.exit(code)


def jobs():
    return max(1, min(4, len(os.sched_getaffinity(0))))


def build(build_dir):
    steps = [
        ["cmake", "-S", "bench_suite", "-B", build_dir,
         "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", build_dir, "-j", str(jobs()),
         "--target", "bench_suite"],
    ]
    for step in steps:
        # Build chatter goes to stderr: stdout's last line is the result.
        done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=BUILD_TIMEOUT_S)
        if done.returncode != 0:
            fail(f"build step failed: {' '.join(step)}")


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    for needed in ("BENCHMARK.json", "CMakeLists.txt", "src/CMakeLists.txt",
                   "bench_suite/CMakeLists.txt", "bench_suite/bench_suite.cc"):
        if not os.path.isfile(needed):
            fail(f"{needed} not found; run from the repository root", 2)
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        fail(f"unknown workload {args.workload!r}", 2)
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    build_dir = os.path.join(os.environ.get("CARGO_TARGET_DIR", ".bench_build"),
                             "bench_suite")
    build(build_dir)

    run_dir = os.path.join(build_dir, "run")
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(run_dir)
    report_path = os.path.join(run_dir, "report.json")
    trace_path = os.path.join(build_dir, f"trace_{args.workload}.json")
    command = [os.path.join(build_dir, "bench_suite"),
               f"--workload={args.workload}", f"--seed={args.seed}",
               f"--seconds={args.seconds}", f"--json_out={report_path}"]
    if args.trace:
        command.append(f"--trace_out={trace_path}")
    # The generated input bundles live in a private directory under run_dir.
    env = dict(os.environ, TMPDIR=os.path.abspath(run_dir))
    sys.stdout.flush()
    try:
        done = subprocess.run(command, env=env, timeout=RUN_TIMEOUT_S)
        ok = done.returncode == 0
    except subprocess.TimeoutExpired:
        print(f"run.py: bench_suite exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        ok = False

    result = {"correct": False, "attempted": 1, "failed": 1, "metrics": {}}
    if ok:
        with open(report_path) as f:
            report = json.load(f)
        ok = (report["correct"] and not report["smoke"]
              and report["workload"] == args.workload
              and report["seed"] == args.seed)
        if args.trace:
            with open(trace_path) as f:
                trace = json.load(f)
            ok = ok and len(trace.get("traceEvents", [])) > 0
        metrics = {}
        for m in wanted:
            got = report["metrics"].get(m["name"])
            if got is None or got["unit"] != m["unit"]:
                print(f"run.py: metric {m['name']} missing or in the wrong "
                      f"unit", file=sys.stderr)
                ok = False
                continue
            metrics[m["name"]] = {"value": got["value"], "unit": m["unit"]}
        result = {"correct": ok, "attempted": report["attempted"],
                  "failed": report["failed"], "metrics": metrics}
    shutil.rmtree(run_dir, ignore_errors=True)
    print(json.dumps(result))
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
