#!/usr/bin/env python3
"""Steadiness report: repeat one workload and summarise every metric.

    python3 perfbench/steady.py --workload adhoc-cold --runs 10 \
        [--first-seed 1] [--same-seed]

Runs `perfbench/run.py` --runs times from the repository root, each
for BENCHMARK.json's run_seconds (the run length the bounds rest on), with
seeds first-seed, first-seed+1, ... (or first-seed every time with
--same-seed), and prints for each end-to-end metric its median, first
and third quartiles (statistics.quantiles, n=4) and the spread
(Q3 - Q1) / median next to the metric's bound in BENCHMARK.json.  Also
prints the share of failed operations of each run, which must be
identical across runs, and the machine's state in each run's window
(busy, idle and stolen-by-the-host shares).  Across seeds, the qerr
rows show how far a change that draws different but equally valid
samples can move them.
"""
import argparse
import json
import statistics
import subprocess
import sys


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--same-seed", action="store_true")
    a = ap.parse_args()
    spec = json.load(open("BENCHMARK.json"))
    seconds = spec["run_seconds"]
    metrics = spec["end_to_end"]
    values = {m["name"]: [] for m in metrics}
    shares = []
    for i in range(a.runs):
        seed = a.first_seed if a.same_seed else a.first_seed + i
        out = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", a.workload, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", "0"],
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True, check=True).stdout
        lines = out.strip().splitlines()
        result = json.loads(lines[-1])
        machine = [l for l in lines if l.startswith("machine in the window:")]
        if not result["correct"]:
            print("seed %d: correct is false" % seed)
        shares.append(result["failed"] / result["attempted"])
        for name in values:
            values[name].append(result["metrics"][name]["value"])
        print("seed %d: %s  (%s)" % (seed, " ".join(
            "%s=%.4g" % (n, v[-1]) for n, v in values.items()),
            machine[0].split(": ", 1)[1] if machine else "machine state not printed"),
            flush=True)
    print("\n%-44s %12s %12s %12s %8s %6s" % ("metric", "median", "q1", "q3", "spread", "bound"))
    for m in metrics:
        v = values[m["name"]]
        q1, med, q3 = statistics.quantiles(v, n=4)
        spread = (q3 - q1) / med if med else float("nan")
        bound = m.get("bound")
        flag = "" if bound is None else ("  ok" if spread <= bound / 3 else
                                          ("  within bound" if spread <= bound else "  OVER"))
        print("%-44s %12.5g %12.5g %12.5g %8.4f %6s%s" % (
            m["name"], med, q1, q3, spread, "" if bound is None else bound, flag))
    print("failed share per run: %s" % sorted(set(shares)))


if __name__ == "__main__":
    main()
