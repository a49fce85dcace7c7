"""Steadiness check: repeat workloads over seeds, print each end-to-end
metric's spread against its bound in BENCHMARK.json.

    python3 bench/steady.py --runs 10                 # every workload, 10 seeds
    python3 bench/steady.py --runs 5 --workloads reconstruct-twobox --sets 2

Each run is `bench/run.py --trace 0` in a child process, one at a time, with
the seconds from BENCHMARK.json and seeds numbered from 1.  Before them, each
workload runs once at seed 0, the acceptance geometry, as a correctness gate.
Spread is (q3 - q1) / median over the runs' values, quartiles from
statistics.quantiles(values, n=4).  A metric is "steady" below a third of its
bound and "within" up to the bound.  With --sets 2, the second set (fresh
seeds) must not be worse than the first by more than the bound.  Exits 1 if
any spread or drift is out of bound or any run reports incorrect output.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)


def run_once(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(BENCH_DIR, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300)
    if out.returncode != 0:
        sys.exit(f"{workload} seed {seed}: exit {out.returncode}\n{out.stderr}")
    return json.loads(out.stdout.strip().splitlines()[-1])


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q2, (q3 - q1) / q2


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    names = [w["name"] for w in bench["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--sets", type=int, choices=(1, 2), default=1)
    ap.add_argument("--workloads", default=",".join(names))
    args = ap.parse_args()

    good = True
    for workload in args.workloads.split(","):
        if not run_once(workload, 0, bench["run_seconds"])["correct"]:
            print(f"{workload} seed 0: incorrect output")
            good = False
        sets = []
        for k in range(args.sets):
            results = []
            for i in range(args.runs):
                seed = 1 + k * args.runs + i
                res = run_once(workload, seed, bench["run_seconds"])
                if not res["correct"]:
                    print(f"{workload} seed {seed}: incorrect output")
                    good = False
                results.append(res)
            sets.append(results)
        print(f"\n{workload}: {args.sets} x {args.runs} runs")
        for metric in bench["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            print(f"  {name} ({metric['unit']}, bound {bound})")
            meds = []
            for k, results in enumerate(sets):
                values = [r["metrics"][name]["value"] for r in results]
                med, sprd = spread(values)
                status = ("steady" if sprd < bound / 3
                          else "within" if sprd <= bound else "WIDE")
                good &= status != "WIDE"
                line = f"    set {k + 1}: median {med:.6g}  spread {sprd:.4f}  {status}"
                if meds:
                    worse = (med - meds[0]) / meds[0] * (1 if metric["better"] == "lower" else -1)
                    good &= worse <= bound
                    line += f"  {worse:+.4f} worse than set 1  " + \
                            ("ok" if worse <= bound else "DRIFT")
                meds.append(med)
                print(line)
                print("      runs " + " ".join(f"{v:.4g}" for v in values))
    return 0 if good else 1


if __name__ == "__main__":
    sys.exit(main())
