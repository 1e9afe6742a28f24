#!/usr/bin/env python3
"""Builds the benchmark from source and runs one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --selftest

Run from the root of the repository. The build goes to
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench), scratch files
to .bench_work. Standard output carries the environment block as one JSON
line, marked comparable or not against baseline_env.json, the sample count
of each end-to-end metric as another, and then, as the last line, the
result JSON. Build logs and diagnostics go to standard error.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORK_DIR = ".bench_work"
# The environment fields that must match the baseline for two results to
# be compared: a different build type or flags reorders the stencil kernels,
# a different CPU count changes every serving number.
COMPARABLE_KEYS = ("compiler", "build_type", "flags", "nproc")
RUN_TIMEOUT_S = 170


def log(message):
    print(f"perfbench: {message}", file=sys.stderr, flush=True)


def build(build_dir, targets, env):
    """Configures (once) and builds `targets`; False on any failure."""
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", build_dir,
                     "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if subprocess.run(configure, stdout=sys.stderr, env=env).returncode:
            return False
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    command = ["cmake", "--build", build_dir, "-j", jobs, "--target", *targets]
    return subprocess.run(command, stdout=sys.stderr, env=env).returncode == 0


def mark_comparable(env_line):
    """Adds "comparable" to the environment block: whether it matches the
    environment the committed baseline was measured in."""
    block = json.loads(env_line)
    with open(os.path.join(HERE, "baseline_env.json")) as handle:
        baseline = json.load(handle)
    block["env"]["comparable"] = all(
        block["env"].get(key) == baseline.get(key) for key in COMPARABLE_KEYS)
    return json.dumps(block)


def selftest(build_dir, env):
    if not build(build_dir, ["perfbench", "perfbench_selftest"], env):
        return 1
    if subprocess.run([os.path.join(build_dir, "perfbench_selftest")],
                      env=env).returncode:
        return 1
    listed = subprocess.run([os.path.join(build_dir, "perfbench"),
                             "--list-metrics"], env=env, capture_output=True,
                            text=True, check=True)
    catalog = json.loads(listed.stdout)
    with open(os.path.join(HERE, "..", "BENCHMARK.json")) as handle:
        declared = json.load(handle)
    ok = True
    for section in ("end_to_end", "per_layer"):
        have = [(m["name"], m["unit"]) for m in declared[section]]
        want = [(m["name"], m["unit"]) for m in catalog[section]]
        if have != want:
            log(f"BENCHMARK.json {section} differs from the metric catalog")
            ok = False
    better = {m["name"]: m["better"] for m in catalog["end_to_end"]}
    for metric in declared["end_to_end"]:
        if better.get(metric["name"]) != metric["better"]:
            log(f"BENCHMARK.json has the wrong direction for {metric['name']}")
            ok = False
    print("selftest:", "ok" if ok else "FAILED")
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", choices=("0", "1"), default="0")
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()

    build_dir = os.path.join(os.environ.get("CARGO_TARGET_DIR", ".bench_build"),
                             "perfbench")
    # Compilers and the benchmark keep their scratch files in the checkout.
    tmp = os.path.abspath(os.path.join(WORK_DIR, "tmp"))
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)

    if args.selftest:
        return selftest(build_dir, env)
    if not args.workload:
        parser.error("--workload is required")
    if not build(build_dir, ["perfbench"], env):
        log("build failed")
        return 1

    command = [os.path.join(build_dir, "perfbench"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", args.trace,
               "--work-dir", WORK_DIR]
    try:
        done = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                              env=env, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s")
        return 1
    lines = [line for line in done.stdout.splitlines() if line.strip()]
    if done.returncode != 0 or len(lines) < 2:
        log(f"{args.workload} failed (exit {done.returncode})")
        return 1
    for line in lines[:-1]:
        print(mark_comparable(line) if line.startswith('{"env"') else line)
    print(lines[-1], flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
