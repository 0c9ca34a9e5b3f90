#!/usr/bin/env python3
"""Writes perfbench/digests.json: every workload's outcome digest per seed.

    python3 perfbench/pin_digests.py

Run from the root of the repository. Replays each trace of seeds 0-99 once
(`e2e_replay --reps 1`) and records the run digest that run.py then
requires. Re-pin only when a change to simulated behaviour is intended, and
say so in its description: a re-pinned digest is a changed outcome, not a
speed-up. Takes about ten minutes on a 4-core machine.
"""
import concurrent.futures
import json
import os
import subprocess

import run

SEEDS = range(100)
JOBS = 3


def digest_of(workload, seed):
    out = subprocess.run(
        [run.BINARY, "--workload", workload, "--seed", str(seed),
         "--reps", "1"],
        stdout=subprocess.PIPE, text=True, check=True).stdout
    for line in out.splitlines():
        fields = line.split()
        if len(fields) == 2 and fields[0] == "digest":
            return fields[1]
    run.fail(f"e2e_replay printed no digest for {workload} seed {seed}")


def main():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
        workloads = [w["name"] for w in json.load(f)["workloads"]]
    run.build()
    with concurrent.futures.ThreadPoolExecutor(JOBS) as pool:
        futures = {(w, s): pool.submit(digest_of, w, s)
                   for w in workloads for s in SEEDS}
        pinned = {w: {str(s): futures[(w, s)].result() for s in SEEDS}
                  for w in workloads}
    with open(run.DIGESTS, "w") as f:
        json.dump(pinned, f, indent=1)
        f.write("\n")


if __name__ == "__main__":
    main()
