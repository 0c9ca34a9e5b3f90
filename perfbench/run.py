#!/usr/bin/env python3
"""Builds e2e_replay from this checkout's sources and runs one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of the repository. The build lives in
.bench_build/perfbench; the first run configures and compiles it, later runs
only check that it is up to date. Build output goes to stderr. The last line
on stdout is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

whose metrics are BENCHMARK.json's `end_to_end` list with --trace 0 and its
`per_layer` list with --trace 1 (the traced run also writes its spans to
.bench_build/perfbench/trace-<workload>-<seed>.json). `correct` is false if a
replay failed its checks or if the run's outcome digest differs from the one
pinned for the workload and seed in perfbench/digests.json: simulated
behaviour must not change. Exits non-zero without printing a result if the
build or the benchmark itself breaks.
"""
import argparse
import json
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "e2e_replay")
DIGESTS = os.path.join(ROOT, "perfbench", "digests.json")
# A run measures for --seconds, plus set-up and the traced replays' last
# round; anything near the three-minute limit is a hang.
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"run.py: {message}", file=sys.stderr)
    sys.exit(2)


def check_call(cmd):
    # Build chatter goes to stderr so stdout ends with the result line, and
    # the compiler's temporary files stay inside the build directory.
    tmp = os.path.join(BUILD, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                      env=env).returncode:
        fail(f"command failed: {' '.join(cmd)}")


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail(f"no repository sources in {ROOT}/src to build the benchmark from")
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        cmd = ["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B", BUILD,
               "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        check_call(cmd)
    check_call(["cmake", "--build", BUILD, "--target", "e2e_replay",
                "-j", str(os.cpu_count() or 1)])


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=[0, 1])
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        fail("--seed must be >= 0 and --seconds > 0")

    build()
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds)]
    if args.trace:
        cmd += ["--trace", os.path.join(
            BUILD, f"trace-{args.workload}-{args.seed}.json")]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"e2e_replay did not finish within {RUN_TIMEOUT_S} s")
    sys.stdout.write(proc.stdout)
    # 0: every check passed; 1: a replay failed its checks; else: broken.
    if proc.returncode not in (0, 1):
        fail(f"e2e_replay exited with status {proc.returncode}")

    printed = {}
    digest = None
    for line in proc.stdout.splitlines():
        fields = line.split()
        if len(fields) == 4 and fields[0] == "metric":
            printed[fields[1]] = (float(fields[2]), fields[3])
        elif len(fields) == 2 and fields[0] == "digest":
            digest = fields[1]
    if digest is None:
        fail("e2e_replay did not print its outcome digest")
    with open(DIGESTS) as f:
        pinned = json.load(f)[args.workload].get(str(args.seed))
    if pinned is None:
        print(f"run.py: no digest pinned for seed {args.seed}; only the "
              "run's own checks apply", file=sys.stderr)
    elif digest != pinned:
        print(f"run.py: outcome digest {digest} differs from the pinned "
              f"{pinned}: simulated behaviour changed", file=sys.stderr)
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    metrics = {}
    for metric in wanted:
        name = metric["name"]
        if name not in printed or printed[name][1] != metric["unit"]:
            fail(f"e2e_replay did not print {name} in {metric['unit']}")
        metrics[name] = {"value": printed[name][0], "unit": metric["unit"]}
    if "replays" not in printed or "replays_failed" not in printed:
        fail("e2e_replay did not print its replay counts")
    attempted = int(printed["replays"][0])
    failed = int(printed["replays_failed"][0])
    print(json.dumps({
        "correct": (proc.returncode == 0 and failed == 0 and
                    pinned in (None, digest)),
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))


if __name__ == "__main__":
    main()
