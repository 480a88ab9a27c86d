#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics, checked against BENCHMARK.json.

Runs perfbench/run.py once per seed on each workload (untraced) and prints,
per metric, the median of the runs and the spread: the distance between the
first and third quartile (statistics.quantiles(values, n=4)) as a share of
the median. A spread at or above the metric's bound is marked; setup_s is
reported but not held to it.

    python3 perfbench/spread.py                       # 10 seeds, every workload
    python3 perfbench/spread.py --seeds 5 --workload wire_c1_camera
"""

import argparse
import json
import os
import statistics
import subprocess
import sys


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--workload", default="all")
    args = ap.parse_args()
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    workloads = [w["name"] for w in bench["workloads"]]
    if args.workload != "all":
        workloads = [args.workload]

    worst = 0.0
    for w in workloads:
        values = {}
        for seed in range(args.first_seed, args.first_seed + args.seeds):
            cmd = [sys.executable, "perfbench/run.py", "--workload", w,
                   "--seed", str(seed), "--seconds",
                   str(bench["run_seconds"]), "--trace", "0"]
            out = subprocess.run(cmd, stdout=subprocess.PIPE,
                                 stderr=subprocess.DEVNULL)
            line = out.stdout.decode().strip().splitlines()[-1:]
            result = json.loads(line[0]) if line else None
            if out.returncode != 0 or not result or not result["correct"]:
                print("%s seed %d: failed (exit %d)" % (w, seed,
                                                         out.returncode))
                return 1
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
        print("%s, %d seeds" % (w, args.seeds))
        for name, v in values.items():
            med = statistics.median(v)
            q = statistics.quantiles(v, n=4)
            spread = (q[2] - q[0]) / med if med else float("inf")
            bound = bounds.get(name, float("nan"))
            flag = ""
            if name != "setup_s":
                worst = max(worst, spread / bound)
                flag = "  OVER BOUND" if spread >= bound else (
                    "  over bound/3" if spread >= bound / 3 else "")
            print("  %-18s median %12.6g  spread %6.3f  bound %.3f%s" % (
                name, med, spread, bound, flag))
        sys.stdout.flush()
    print("worst spread / bound (setup_s excluded): %.3f" % worst)
    return 0


if __name__ == "__main__":
    sys.exit(main())
