#!/usr/bin/env python3
"""Steadiness command: runs every workload in two interleaved sets of runs
and prints, per end-to-end metric, each set's median and quartiles, the
spread (quartile distance over median) of all runs together and the
set-to-set difference of the medians, against the bound in BENCHMARK.json.

Usage (from the repository root):
  python3 perfbench/steady.py [--runs 5] [--trace]

--runs is per set, so each workload runs 2 x runs times, each time with
another seed (set A: 1001.., set B: 2001..). --trace adds a traced run
after each untraced run of set A, with the same seed, and reports the
tracing overhead: the median of the traced runs' end-to-end figures
against the median of set A's untraced runs.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "1" if trace else "0"]
    out = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                         stderr=subprocess.PIPE, text=True, check=True)
    lines = out.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        for line in out.stderr.splitlines():
            if line.startswith(("CHECK FAILED", "FAILED OP")):
                print("  %s seed %d: %s" % (workload, seed, line))
    traced = None
    for line in lines:
        if line.startswith("traced_e2e "):
            traced = json.loads(line[len("traced_e2e "):])
    return result, traced


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--runs", type=int, default=5)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    workloads = [w["name"] for w in bench["workloads"]]
    seconds = bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    values = {w: {"A": {}, "B": {}} for w in workloads}
    fails = {w: {"A": [], "B": []} for w in workloads}
    traced = {w: {} for w in workloads}
    for i in range(args.runs):
        for name, base in (("A", 1001), ("B", 2001)):
            for w in workloads:
                result, _ = run(w, base + i, seconds, False)
                if not result["correct"]:
                    print("INCORRECT: %s seed %d" % (w, base + i))
                fails[w][name].append(
                    (result["failed"], result["attempted"]))
                for metric, entry in result["metrics"].items():
                    values[w][name].setdefault(metric, []).append(
                        entry["value"])
                if args.trace and name == "A":
                    result, e2e = run(w, base + i, seconds, True)
                    if not result["correct"]:
                        print("INCORRECT: %s seed %d traced" % (w, base + i))
                    for metric, entry in e2e.items():
                        traced[w].setdefault(metric, []).append(
                            entry["value"])
                print("  done %s set %s seed %d" % (w, name, base + i),
                      file=sys.stderr, flush=True)

    worst = 0.0
    worst_setup = 0.0
    for w in workloads:
        print("\n== %s (%d runs per set, %d s each)" % (w, args.runs, seconds))
        print("%-20s %12s %24s %12s %24s %8s %8s %6s" % (
            "metric", "A median", "A [q1, q3]", "B median", "B [q1, q3]",
            "spread", "A->B", "bound"))
        for metric in sorted(values[w]["A"]):
            a = values[w]["A"][metric]
            b = values[w]["B"][metric]
            qa, qb = quartiles(a), quartiles(b)
            q_all = quartiles(a + b)
            spread = (q_all[2] - q_all[0]) / q_all[1]
            diff = (qb[1] - qa[1]) / qa[1]
            bound = bounds.get(metric, float("nan"))
            if metric == "setup_s":
                worst_setup = max(worst_setup, spread / bound)
            else:
                worst = max(worst, spread / bound)
            print("%-20s %12.5g %24s %12.5g %24s %7.1f%% %+7.1f%% %5.0f%%" % (
                metric, qa[1], "[%.5g, %.5g]" % (qa[0], qa[2]), qb[1],
                "[%.5g, %.5g]" % (qb[0], qb[2]), 100 * spread, 100 * diff,
                100 * bound))
        shares = {f / a for f, a in fails[w]["A"] + fails[w]["B"]}
        print("failed/attempted shares: %s" % sorted(shares))
    print("\nworst spread as a share of its bound: %.2f (setup_s: %.2f)" % (
        worst, worst_setup))

    if args.trace:
        print("\n== tracing overhead (median of traced runs vs median of "
              "set A, same seeds)")
        for w in workloads:
            for metric in sorted(traced[w]):
                t = statistics.median(traced[w][metric])
                u = statistics.median(values[w]["A"][metric])
                print("%-12s %-20s traced %12.5g untraced %12.5g  %+6.1f%%" % (
                    w, metric, t, u, 100 * (t - u) / u))


if __name__ == "__main__":
    main()
