#!/usr/bin/env python3
"""Run the benchmark on several seeds and report each metric's spread.

    python3 perfbench/stability.py [--workloads cold_build,spmd_run]
                                   [--seeds 10] [--first-seed 1]
                                   [--out .bench_build/stability.json]

For every workload and end-to-end metric this prints the median of the
runs and the distance between the first and third quartile
(statistics.quantiles(values, n=4)) as a share of the median, next to the
metric's bound from BENCHMARK.json. A spread at or above a third of its
bound is flagged: the benchmark is not steady enough for that metric to
resolve a change of that size. setup_s is reported but not flagged.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--out", default=os.path.join(ROOT, ".bench_build", "stability.json"))
    args = parser.parse_args()

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    summary = {"nproc": len(os.sched_getaffinity(0)), "seconds": args.seconds,
               "seeds": list(range(args.first_seed, args.first_seed + args.seeds)),
               "workloads": {}}
    steady = True
    for workload in args.workloads.split(","):
        values = {name: [] for name in bounds}
        for seed in summary["seeds"]:
            cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                   "--seed", str(seed), "--seconds", repr(args.seconds), "--trace", "0"]
            proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
            result = json.loads(proc.stdout.strip().split("\n")[-1])
            if proc.returncode != 0 or not result["correct"]:
                print("%s seed %d: run failed (exit %d)" % (workload, seed, proc.returncode))
                return 1
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])
        rows = {}
        print("%s (%d seeds)" % (workload, len(summary["seeds"])))
        for name, vals in values.items():
            q1, med, q3 = statistics.quantiles(vals, n=4)
            median = statistics.median(vals)
            spread = (q3 - q1) / median if median else float("inf")
            flag = name != "setup_s" and spread >= bounds[name] / 3
            steady &= not flag
            rows[name] = {"median": median, "q1": q1, "q3": q3, "spread": spread, "values": vals}
            print("  %-18s median %-14.6g spread %6.3f  bound %.3f%s" % (
                name, median, spread, bounds[name], "  <-- not steady" if flag else ""))
        summary["workloads"][workload] = rows
    os.makedirs(os.path.dirname(args.out), exist_ok=True)
    with open(args.out, "w") as f:
        json.dump(summary, f, indent=1)
    print("written to %s; %s" % (args.out, "steady" if steady else "NOT steady"))
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
