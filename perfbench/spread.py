#!/usr/bin/env python3
"""Run-to-run spread of the benchmark's end-to-end metrics.

    python3 perfbench/spread.py --workloads fig4_pack,service_mix --seeds 10

Runs perfbench/run.py once per seed (1..N) on each workload, untraced, and
prints for every end-to-end metric its median and the spread: the distance
between the first and third quartile (statistics.quantiles, n=4) as a share
of the median, next to a third of the metric's bound from BENCHMARK.json.
Exits 1 when a spread exceeds its bound or a run fails.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run(workload, seed, seconds):
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        sys.stderr.write(out.stdout + out.stderr)
        raise SystemExit("%s seed %d failed (exit %d)" %
                         (workload, seed, out.returncode))
    return json.loads(lines[-1])


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        manifest = json.load(f)
    ap = argparse.ArgumentParser()
    ap.add_argument("--workloads",
                    default=",".join(w["name"] for w in manifest["workloads"]))
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=manifest["run_seconds"])
    args = ap.parse_args()
    bounds = {m["name"]: m["bound"] for m in manifest["end_to_end"]}

    worst = 0
    for workload in args.workloads.split(","):
        values = {name: [] for name in bounds}
        for seed in range(args.first_seed, args.first_seed + args.seeds):
            result = run(workload, seed, args.seconds)
            if not result["correct"] or result["failed"]:
                raise SystemExit("%s seed %d: incorrect result" %
                                 (workload, seed))
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])
        print("%s (%d seeds)" % (workload, args.seeds))
        for name, v in values.items():
            q1, med, q3 = statistics.quantiles(v, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            flag = ""
            if spread > bounds[name] / 3:
                flag = "  above bound/3"
            if spread > bounds[name]:
                flag = "  ABOVE BOUND"
                worst = 1
            print("  %-18s median %14.4f  spread %.4f  (bound/3 %.4f)%s" %
                  (name, med, spread, bounds[name] / 3, flag))
            print("      " + " ".join("%.6g" % x for x in v))
        sys.stdout.flush()
    return worst


if __name__ == "__main__":
    sys.exit(main())
