#!/usr/bin/env python3
"""Steadiness check: two sets of benchmark runs, taken apart in time.

    python3 perfbench/steady.py [--workloads a,b] [--runs 10] [--gap 60]
                                [--out FILE]

Runs every workload --runs times for BENCHMARK.json's run_seconds, with
a new --seed each time from 101 on, and one traced run per workload
(set A); waits --gap seconds, then runs set B with the following seeds.
For each workload and end-to-end metric it prints both sets' medians
and quartiles, the spread (q3 - q1) / median of each set, and the gap
between the medians in the metric's worse direction, next to the bound
in BENCHMARK.json.  A spread or a gap beyond the bound is marked FAIL,
as is a failed-operation share that differs between the sets.  It also
sets the traced run's wall_s against the untraced median.  Raw results
go to --out as JSON.  Run from the root of a checkout; exits 1 on any
FAIL.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    t0 = time.monotonic()
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, cwd=ROOT)
    took = time.monotonic() - t0
    lines = proc.stdout.decode().strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr.decode()[-2000:])
        raise SystemExit("run failed: %s seed %d" % (workload, seed))
    res = json.loads(lines[-1])
    res["took_s"] = took
    res["seed"] = seed
    return res


def quartiles(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", default="")
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--gap", type=float, default=60.0)
    ap.add_argument("--out", default=os.path.join(".bench_build", "perfbench-out",
                                                  "steady.json"))
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    seconds = bench["run_seconds"]
    names = [w["name"] for w in bench["workloads"]]
    if args.workloads:
        names = [n for n in args.workloads.split(",") if n]
    bounds = {m["name"]: m for m in bench["end_to_end"]}

    sets = {"A": {}, "B": {}}
    traced = {}
    seed = 101
    for label in ("A", "B"):
        if label == "B" and args.gap > 0:
            print("waiting %.0f s between the sets" % args.gap, file=sys.stderr)
            time.sleep(args.gap)
        for name in names:
            runs = sets[label].setdefault(name, [])
            for _ in range(args.runs):
                runs.append(run_once(name, seed, seconds, 0))
                r = runs[-1]
                print("%s %-12s seed %-4d %5.1fs  %s" % (
                    label, name, seed, r["took_s"],
                    " ".join("%s=%.4g" % (k, v["value"]) for k, v in r["metrics"].items())),
                    file=sys.stderr)
                seed += 1
            if label == "A":
                traced[name] = run_once(name, seed, seconds, 1)
                seed += 1

    failures = 0
    for name in names:
        print("\n== %s ==" % name)
        print("%-14s %-5s %12s %12s %12s %8s   %s" % (
            "metric", "set", "q1", "median", "q3", "spread", "bound"))
        share = {}
        for label in ("A", "B"):
            runs = sets[label][name]
            share[label] = sorted({r["failed"] / r["attempted"] for r in runs})
            if not all(r["correct"] for r in runs):
                print("  FAIL: set %s has runs with correct=false" % label)
                failures += 1
        for metric, spec in bounds.items():
            med = {}
            for label in ("A", "B"):
                vals = [r["metrics"][metric]["value"] for r in sets[label][name]]
                q1, m, q3 = quartiles(vals)
                med[label] = m
                spread = (q3 - q1) / m if m else float("inf")
                bad = spread > spec["bound"]
                failures += bad
                print("%-14s %-5s %12.6g %12.6g %12.6g %7.1f%%   %.0f%%%s" % (
                    metric, label, q1, m, q3, 100 * spread, 100 * spec["bound"],
                    "  FAIL" if bad else ""))
            worse = (med["B"] - med["A"]) / med["A"]
            if spec["better"] == "higher":
                worse = -worse
            bad = worse > spec["bound"]
            failures += bad
            print("%-14s gap B vs A: %+.1f%% (worse direction)%s" % (
                metric, 100 * worse, "  FAIL" if bad else ""))
        print("failed share: A %s  B %s%s" % (
            share["A"], share["B"],
            "" if share["A"] == share["B"] and len(share["A"]) == 1 else "  FAIL"))
        failures += not (share["A"] == share["B"] and len(share["A"]) == 1)
        if name in traced:
            t = traced[name]["metrics"]
            tw = t["trace.wall_s"]["value"]
            uw = statistics.median(r["metrics"]["wall_s"]["value"] for r in sets["A"][name])
            print("tracing: one traced run's wall_s %.4g vs untraced median %.4g (%+.1f%%); "
                  "estimated span recording cost %.3f%% of the traced run" % (
                      tw, uw, 100 * (tw / uw - 1), t["trace.overhead_pct"]["value"]))

    os.makedirs(os.path.dirname(os.path.abspath(args.out)), exist_ok=True)
    with open(args.out, "w") as f:
        json.dump({"sets": sets, "traced": traced}, f, indent=1)
    print("\nraw results: %s" % args.out)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
