#!/usr/bin/env python3
"""A/B comparison and steadiness checks over run.py results.

Compare two checkouts (each a directory holding the sources, BENCHMARK.json
and perfbench/), alternating which runs first in each pair:

    python3 perfbench/ab.py --base DIR --change DIR [--workloads a,b]

It makes ten pairs of runs per workload, pair i on seed i, each run lasting
the base's run_seconds. For every (metric, workload) pair it prints each
side's median and quartiles, the share of pairs the change wins (ties count
for neither side), and whether the gap between the medians exceeds both the
base's quartile spread and the metric's bound.

Check one checkout's run-to-run spread the way the benchmark's acceptance
does: ten runs per workload on seeds 1 to 10, and the quartile distance of
each end-to-end metric as a share of its median. It exits 1 when any
spread is above its metric's bound:

    python3 perfbench/ab.py --steady DIR [--workloads a,b]
"""

import argparse
import json
import os
import subprocess
import sys

import benchstats

RUNS = 10  # runs (or pairs) per workload, on seeds 1..RUNS


def load_spec(checkout):
    with open(os.path.join(checkout, "BENCHMARK.json")) as f:
        spec = json.load(f)
    problems = benchstats.check_benchmark(spec)
    if problems:
        sys.exit("%s/BENCHMARK.json: %s" % (checkout, "; ".join(problems)))
    return spec


def run_once(checkout, spec, workload, seed):
    """One run.py invocation in `checkout`; returns its result object."""
    cmd = spec["command"] + ["--workload", workload, "--seed", str(seed),
                             "--seconds", str(spec["run_seconds"]),
                             "--trace", "0"]
    r = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True,
                       timeout=900)
    lines = r.stdout.strip().splitlines()
    if r.returncode != 0 or not lines:
        sys.stderr.write(r.stdout + r.stderr)
        sys.exit("run failed in %s: %s" % (checkout, " ".join(cmd)))
    result = json.loads(lines[-1])
    if not result["correct"]:
        sys.stderr.write(r.stdout)
        sys.exit("incorrect result in %s: %s" % (checkout, " ".join(cmd)))
    return result


def steady(args):
    spec = load_spec(args.steady)
    workloads = args.workloads or [w["name"] for w in spec["workloads"]]
    ok = True
    for w in workloads:
        runs = []
        for seed in range(1, RUNS + 1):
            runs.append(run_once(args.steady, spec, w, seed))
            print("  %s seed %d: %s" % (w, seed, " ".join(
                "%s=%.6g" % (k, v["value"])
                for k, v in runs[-1]["metrics"].items())), flush=True)
        print("%-12s %-16s %12s %12s %12s %8s %6s" % (
            "workload", "metric", "q1", "median", "q3", "spread", "bound"))
        for m in spec["end_to_end"]:
            values = [r["metrics"][m["name"]]["value"] for r in runs]
            q1, med, q3 = benchstats.quartiles(values)
            sp = benchstats.spread(values)
            flag = "" if sp <= m["bound"] / 3 else (
                " above bound/3" if sp <= m["bound"] else " ABOVE BOUND")
            if sp > m["bound"]:
                ok = False
            print("%-12s %-16s %12.6g %12.6g %12.6g %8.4f %6.3f%s" % (
                w, m["name"], q1, med, q3, sp, m["bound"], flag), flush=True)
    return 0 if ok else 1


def compare(args):
    spec = load_spec(args.base)
    workloads = args.workloads or [w["name"] for w in spec["workloads"]]
    for w in workloads:
        base, change = [], []
        for seed in range(1, RUNS + 1):
            order = [(args.base, base), (args.change, change)]
            if seed % 2 == 0:
                order.reverse()
            for checkout, out in order:
                out.append(run_once(checkout, spec, w, seed))
        print("%-12s %-16s %-6s %12s %12s %12s %6s %8s %s" % (
            "workload", "metric", "side", "q1", "median", "q3", "wins",
            "worse_by", "verdict"))
        for m in spec["end_to_end"]:
            b = [r["metrics"][m["name"]]["value"] for r in base]
            c = [r["metrics"][m["name"]]["value"] for r in change]
            bq, cq = benchstats.quartiles(b), benchstats.quartiles(c)
            wins = benchstats.win_fraction(b, c, m["better"])
            worse = benchstats.worse_by(bq[1], cq[1], m["better"])
            base_spread = benchstats.spread(b)
            gap_beyond = abs(worse) > base_spread and abs(worse) > m["bound"]
            always_better = all(benchstats.worse_by(x, y, m["better"]) < 0
                                for x in b for y in c)
            if worse > m["bound"]:
                verdict = "regression" if gap_beyond else "unresolved"
            elif worse < 0 and gap_beyond and wins >= 0.9:
                verdict = "gain"
            elif base_spread > m["bound"] and not always_better:
                verdict = "unresolved (spread wider than bound)"
            else:
                verdict = "within bound"
            print("%-12s %-16s %-6s %12.6g %12.6g %12.6g" % (
                w, m["name"], "base", *bq))
            print("%-12s %-16s %-6s %12.6g %12.6g %12.6g %6.2f %+8.4f %s%s" % (
                w, m["name"], "change", *cq, wins, worse, verdict,
                " (gap exceeds spread and bound)" if gap_beyond else ""))
        fails = sum(r["failed"] for r in change)
        print("%-12s attempted %d failed %d (change side)" % (
            w, sum(r["attempted"] for r in change), fails))
    return 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--base")
    ap.add_argument("--change")
    ap.add_argument("--steady")
    ap.add_argument("--workloads", type=lambda s: s.split(","))
    args = ap.parse_args()
    if args.steady:
        if args.base or args.change:
            ap.error("--steady takes no --base/--change")
        return steady(args)
    if not (args.base and args.change):
        ap.error("give --base and --change, or --steady")
    return compare(args)


if __name__ == "__main__":
    sys.exit(main())
