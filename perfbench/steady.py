#!/usr/bin/env python3
"""Steadiness self-check for the benchmark in BENCHMARK.json.

Run from the repository root:

    python3 perfbench/steady.py                       # 2 sets x 10 seeds, every workload
    python3 perfbench/steady.py --sets 1 --runs 5 --workloads miss

Each set runs the benchmark once per seed on every workload (seeds differ
between sets), untraced. Per set, workload and end-to-end metric it prints
the median and the spread, the distance between the first and third
quartiles (statistics.quantiles, n=4) as a share of the median, and whether
the spread is within the metric's bound and within a third of it (setup_s is
exempt from the spread check). Across sets it checks that the later median
is not worse than the first by more than the bound. Each set also makes one
traced run per workload and reports the tracing overhead: the traced
window's req_per_s and p50_ms against the untraced medians.

Exits 0 when every check passes, 1 otherwise. The last line is a JSON
summary.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time


def run_once(cmd, workload, seed, seconds, trace):
    args = cmd + ["--workload", workload, "--seed", str(seed),
                  "--seconds", str(seconds), "--trace", str(trace)]
    t0 = time.time()
    p = subprocess.run(args, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    wall = time.time() - t0
    lines = p.stdout.strip().splitlines()
    if p.returncode != 0 or not lines:
        raise RuntimeError("%s seed %d: exit %d\n%s" % (workload, seed, p.returncode, p.stderr[-2000:]))
    result = json.loads(lines[-1])
    report = {}
    for line in lines[:-1]:
        parts = line.split()
        if len(parts) >= 3 and parts[0] == "#":
            try:
                report[parts[1]] = float(parts[2])
            except ValueError:
                pass
    return result, report, wall


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return med, (q3 - q1) / med if med else float("inf")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--runs", type=int, default=10, help="seeds per set")
    ap.add_argument("--sets", type=int, default=2)
    ap.add_argument("--workloads", default="", help="comma-separated subset")
    ap.add_argument("--seconds", type=int, default=0, help="override run_seconds")
    ap.add_argument("--no-trace", action="store_true", help="skip the traced runs")
    opts = ap.parse_args()

    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    workloads = [w["name"] for w in spec["workloads"]]
    if opts.workloads:
        workloads = [w for w in opts.workloads.split(",") if w in workloads]
    seconds = opts.seconds or spec["run_seconds"]
    metrics = spec["end_to_end"]
    ok = True
    medians = {}  # (set, workload, metric) -> median
    summary = {"spread": {}, "drift": {}, "trace_overhead": {}, "failures": []}

    for k in range(opts.sets):
        values = {(w, m["name"]): [] for w in workloads for m in metrics}
        for i in range(opts.runs):
            seed = 1 + k * opts.runs + i
            for w in workloads:
                result, _, wall = run_once(spec["command"], w, seed, seconds, 0)
                if not result["correct"] or result["failed"]:
                    ok = False
                    summary["failures"].append("%s seed %d: %d of %d failed" %
                                               (w, seed, result["failed"], result["attempted"]))
                for m in metrics:
                    values[(w, m["name"])].append(result["metrics"][m["name"]]["value"])
                print("set %d seed %3d %-8s %5.1fs  %s" % (k + 1, seed, w, wall, "  ".join(
                    "%s=%.4g" % (m["name"], result["metrics"][m["name"]]["value"]) for m in metrics)),
                    flush=True)
        print("\nset %d: median, spread (IQR/median), bound" % (k + 1))
        for w in workloads:
            for m in metrics:
                name, bound = m["name"], m["bound"]
                med, sp = spread(values[(w, name)])
                medians[(k, w, name)] = med
                exempt = name == "setup_s"
                within = exempt or sp <= bound
                steady = exempt or sp <= bound / 3
                ok = ok and within
                summary["spread"]["%d/%s/%s" % (k + 1, w, name)] = round(sp, 4)
                print("  %-8s %-12s median %12.5g  spread %6.3f  bound %.2f  %s" % (
                    w, name, med, sp, bound,
                    "exempt" if exempt else ("steady" if steady else ("within" if within else "OVER"))))
        if not opts.no_trace:
            print("\nset %d: tracing overhead (traced window against the untraced median)" % (k + 1))
            for w in workloads:
                _, report, _ = run_once(spec["command"], w, 1 + k * opts.runs, seconds, 1)
                for name in ("req_per_s", "p50_ms"):
                    base = medians[(k, w, name)]
                    over = report.get(name, float("nan")) / base - 1 if base else float("nan")
                    summary["trace_overhead"]["%d/%s/%s" % (k + 1, w, name)] = round(over, 4)
                    print("  %-8s %-10s traced %12.5g  untraced %12.5g  change %+.1f%%" % (
                        w, name, report.get(name, float("nan")), base, 100 * over))

    for k in range(1, opts.sets):
        print("\nset %d against set 1: change of the median (positive = worse)" % (k + 1))
        for w in workloads:
            for m in metrics:
                name, bound = m["name"], m["bound"]
                a, b = medians[(0, w, name)], medians[(k, w, name)]
                worse = (b - a) / a if m["better"] == "lower" else (a - b) / a
                within = worse <= bound
                ok = ok and within
                summary["drift"]["%d/%s/%s" % (k + 1, w, name)] = round(worse, 4)
                print("  %-8s %-12s %+7.3f  bound %.2f  %s" % (w, name, worse, bound, "ok" if within else "OVER"))

    summary["ok"] = ok
    print(json.dumps(summary))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
