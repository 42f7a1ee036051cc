#!/usr/bin/env python3
"""Steadiness of the benchmark: run a workload repeatedly and compare sets.

    python3 perfbench/steady.py --workload pagerank-256 --runs 10 \
        --out .bench_build/steady-pr-a.json
    python3 perfbench/steady.py --compare A.json B.json

Run i calls perfbench/run.py with seed i (1, 2, ...) and keeps the
final JSON line. For every metric the tool
prints the median, the quartiles, the spread (Q3 - Q1) / median and
the min/max ratio. An end-to-end metric is flagged SPREAD when its
spread exceeds its bound in BENCHMARK.json and TIGHT when it exceeds a
third of the bound. --compare reads two saved sets and flags every
end-to-end metric whose second median is worse than the first by more
than its bound. The exit code is 1 when anything is flagged.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}


def collect(workload, runs, seconds, trace):
    results = []
    for seed in range(1, runs + 1):
        cmd = [sys.executable, os.path.join(HERE, "run.py"),
               "--workload", workload, "--seed", str(seed),
               "--trace", str(trace)]
        if seconds:
            cmd += ["--seconds", str(seconds)]
        r = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
        lines = r.stdout.strip().splitlines()
        if r.returncode != 0 or not lines:
            sys.exit("run with seed %d failed with exit %d"
                     % (seed, r.returncode))
        res = json.loads(lines[-1])
        res["seed"] = seed
        results.append(res)
        print("seed %3d: %s" % (seed, " ".join(
            "%s=%.6g" % (k, v["value"])
            for k, v in res["metrics"].items())), flush=True)
    return {"workload": workload, "trace": trace, "runs": results}


def values(runs, name):
    return [r["metrics"][name]["value"] for r in runs
            if name in r["metrics"]]


def summarize(data, spec):
    runs = data["runs"]
    flagged = False
    print("%-26s %12s %12s %12s %8s %8s %6s" % (
        "metric", "median", "q1", "q3", "spread", "min/max", "bound"))
    for name in runs[0]["metrics"]:
        v = values(runs, name)
        med = statistics.median(v)
        q1, _, q3 = statistics.quantiles(v, n=4) if len(v) > 1 else (
            v[0], v[0], v[0])
        spread = (q3 - q1) / med if med else 0.0
        lo, hi = min(v), max(v)
        mm = lo / hi if hi else 1.0
        bound = spec.get(name, {}).get("bound")
        flag = ""
        if bound is not None:
            if spread > bound:
                flag, flagged = "SPREAD", True
            elif spread > bound / 3:
                flag, flagged = "TIGHT", True
        print("%-26s %12.6g %12.6g %12.6g %7.2f%% %8.4f %6s %s" % (
            name, med, q1, q3, 100 * spread, mm,
            "" if bound is None else bound, flag))
    return flagged


def compare(a, b, spec):
    flagged = False
    print("%-26s %12s %12s %8s %6s" % (
        "metric", "median A", "median B", "worse", "bound"))
    for name, s in spec.items():
        if "bound" not in s:
            continue
        va, vb = values(a["runs"], name), values(b["runs"], name)
        if not va or not vb:
            continue
        ma, mb = statistics.median(va), statistics.median(vb)
        worse = (mb - ma) / ma if s["better"] == "lower" else (ma - mb) / ma
        flag = "WORSE" if worse > s["bound"] else ""
        flagged = flagged or bool(flag)
        print("%-26s %12.6g %12.6g %7.2f%% %6s %s" % (
            name, ma, mb, 100 * worse, s["bound"], flag))
    return flagged


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", help="save the runs as JSON")
    ap.add_argument("--compare", nargs=2, metavar=("A", "B"))
    args = ap.parse_args()
    spec = load_spec()
    if args.compare:
        sets = []
        for path in args.compare:
            with open(path) as f:
                sets.append(json.load(f))
        for s in sets:
            print("== %s: %d runs" % (s["workload"], len(s["runs"])))
            summarize(s, spec)
        return 1 if compare(sets[0], sets[1], spec) else 0
    if not args.workload:
        ap.error("--workload or --compare is required")
    data = collect(args.workload, args.runs, args.seconds, args.trace)
    if args.out:
        with open(args.out, "w") as f:
            json.dump(data, f, indent=1)
    return 1 if summarize(data, spec) else 0


if __name__ == "__main__":
    sys.exit(main())
