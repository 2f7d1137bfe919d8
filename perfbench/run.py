#!/usr/bin/env python3
"""End-to-end benchmark entry point.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --workload sweep_wide --seed <n> --unit <round>:<point>:<slot>

Builds the repo's libraries, mcs_serve and the benchmark harness from source
(perfbench/CMakeLists.txt, build tree under $CARGO_TARGET_DIR or
.bench_build), runs one workload and prints its result as one JSON object on
the last line of standard output.  --unit re-runs one sweep unit alone with
telemetry on (the command the traced run prints for its slowest units).
Exits non-zero without a result when the build or the run fails.
"""
import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("sweep_wide", "serve_mixed")
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build(build_root):
    build_dir = os.path.join(build_root, "perfbench")
    log_path = os.path.join(build_root, "perfbench-build.log")
    os.makedirs(build_root, exist_ok=True)
    with open(log_path, "w") as log:
        if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
            configure = ["cmake", "-S", HERE, "-B", build_dir,
                         "-DCMAKE_BUILD_TYPE=Release"]
            if shutil.which("ninja"):
                configure += ["-G", "Ninja"]
            if subprocess.call(configure, stdout=log, stderr=log) != 0:
                shutil.rmtree(build_dir, ignore_errors=True)
                fail(f"configure failed, see {log_path}")
        jobs = str(os.cpu_count() or 1)
        if subprocess.call(["cmake", "--build", build_dir, "-j", jobs,
                            "--target", "perfbench_harness", "mcs_serve"],
                           stdout=log, stderr=log) != 0:
            fail(f"build failed, see {log_path}")
    return (os.path.join(build_dir, "perfbench_harness"),
            os.path.join(build_dir, "mcs", "tools", "mcs_serve"))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=2020)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--unit", help="<round>:<point>:<slot> of a sweep")
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        fail("--seed must be >= 0 and --seconds > 0")

    build_root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(build_root):
        build_root = os.path.join(ROOT, build_root)
    harness, serve = build(build_root)
    out_dir = os.path.join(build_root, "perfbench-out", args.workload)
    os.makedirs(out_dir, exist_ok=True)

    cmd = [harness, f"--workload={args.workload}", f"--seed={args.seed}",
           f"--seconds={args.seconds}", f"--trace={args.trace}",
           f"--serve-binary={serve}",
           f"--out-dir={os.path.relpath(out_dir, ROOT)}"]
    if args.unit:
        cmd.append(f"--unit={args.unit}")
    # The program's own knobs stay at their defaults; the harness switches
    # telemetry on only for the traced pass.
    env = {k: v for k, v in os.environ.items() if not k.startswith("MCS_")}
    env["MCS_TELEMETRY"] = "0"
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                            text=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.terminate()
        try:
            proc.communicate(timeout=10)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
        fail(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s")
    if proc.returncode != 0:
        sys.stdout.write(out)
        fail(f"harness exited with {proc.returncode}")
    if args.unit:
        sys.stdout.write(out)
        return
    lines = out.rstrip("\n").split("\n")
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail("harness printed an unexpected result object")
    for line in lines[:-1]:
        print(line)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
