#!/usr/bin/env python3
"""Benchmark of the soNUMA simulator: one command, every metric, checked.

    python3 perfbench/run.py --workload read-stream-64 --seed 1 \
        --seconds 10 --trace 0

Run from the repository root. Builds the simulator from src/ together
with the benchmark's workload process (perfbench/CMakeLists.txt) into
.bench_build/, then runs the workload in its own single-threaded
process and prints every metric by name with its unit, one per line.
The last line of standard output is one JSON object:

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

--trace 0 reports the end-to-end metrics of BENCHMARK.json. --trace 1
runs the workload twice, untraced and then traced, and reports the
per-layer metrics of the traced run plus the tracing overhead on
host_ops_per_s. --workload all runs every workload in turn.

The exit code is 0 only when the build succeeded, the workload ran and
its outputs passed the correctness checks.
"""

import argparse
import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "perfbench_sim")
SPEC = os.path.join(ROOT, "BENCHMARK.json")

# Every run must finish within this many seconds, build included.
DEADLINE_S = 175


class BenchError(Exception):
    pass


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configure once, then build incrementally; output goes to stderr."""
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "--target", "perfbench_sim",
                  "-j", "4"])
    for cmd in steps:
        r = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if r.returncode != 0:
            raise BenchError("build step failed: " + " ".join(cmd))


def run_process(workload, seed, seconds, trace, deadline):
    """Run one workload process; return its parsed JSON result."""
    cmd = [BINARY, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds)]
    if trace:
        cmd.append("--trace")
    left = deadline - time.monotonic()
    if left <= 0:
        raise BenchError("out of time before running " + workload)
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=left)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise BenchError("%s did not finish in time" % workload)
    lines = out.strip().splitlines()
    if not lines:
        raise BenchError("%s printed no result (exit %d)"
                         % (workload, proc.returncode))
    try:
        result = json.loads(lines[-1])
    except ValueError:
        raise BenchError("%s printed no JSON result" % workload)
    if proc.returncode not in (0, 1):
        raise BenchError("%s exited with %d" % (workload, proc.returncode))
    return result


def show(result, label):
    """Print every metric of one process by name, unit and samples."""
    print("== %s %s (seed %d): correct=%s attempted=%d failed=%d"
          % (result["workload"], label, result["seed"],
             str(result["correct"]).lower(), result["attempted"],
             result["failed"]))
    if result["first_failure"]:
        print("   first failure: " + result["first_failure"])
    for name, m in result["metrics"].items():
        n = " (n=%d)" % m["samples"] if "samples" in m else ""
        print("   %-28s %.6g %s%s" % (name, m["value"], m["unit"], n))


def pick(result, specs, extra=None):
    """The contract's metrics, in BENCHMARK.json order."""
    have = dict(result["metrics"])
    have.update(extra or {})
    out = {}
    for s in specs:
        m = have.get(s["name"])
        if m is None:
            raise BenchError("%s did not report %s"
                             % (result["workload"], s["name"]))
        if m["unit"] != s["unit"]:
            raise BenchError("%s reports %s in %s, not %s"
                             % (result["workload"], s["name"], m["unit"],
                                s["unit"]))
        out[s["name"]] = {"value": m["value"], "unit": m["unit"]}
    return out


def bench(spec, workload, seed, seconds, trace, deadline):
    """Run one workload; return the contract's result object."""
    plain = run_process(workload, seed, seconds, False, deadline)
    show(plain, "untraced")
    runs = [plain]
    if not trace:
        metrics = pick(plain, spec["end_to_end"])
    else:
        traced = run_process(workload, seed, seconds, True, deadline)
        show(traced, "traced")
        runs.append(traced)
        fast = plain["metrics"]["host_ops_per_s"]["value"]
        slow = traced["metrics"]["host_ops_per_s"]["value"]
        overhead = {
            "trace.host_ops_per_s": {"value": slow, "unit": "1/s"},
            "trace.overhead_frac": {"value": 1.0 - slow / fast,
                                    "unit": "ratio"},
        }
        print("   tracing overhead on host_ops_per_s: %.6g -> %.6g 1/s "
              "(%.2f%%)" % (fast, slow, 100.0 * (1.0 - slow / fast)))
        metrics = pick(traced, spec["per_layer"], overhead)
    return {
        "correct": all(r["correct"] for r in runs),
        "attempted": sum(r["attempted"] for r in runs),
        "failed": sum(r["failed"] for r in runs),
        "metrics": metrics,
    }


def main():
    start = time.monotonic()
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", default="all")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=None)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    try:
        with open(SPEC) as f:
            spec = json.load(f)
        names = [w["name"] for w in spec["workloads"]]
        todo = names if args.workload == "all" else [args.workload]
        for w in todo:
            if w not in names:
                raise BenchError("unknown workload %r (have %s)"
                                 % (w, ", ".join(names)))
        seconds = args.seconds or spec["run_seconds"]
        build()
        deadline = start + DEADLINE_S * len(todo)
        results = [bench(spec, w, args.seed, seconds, args.trace, deadline)
                   for w in todo]
    except (BenchError, OSError, ValueError, KeyError) as e:
        log("perfbench: error: %s" % e)
        return 2
    for r in results:
        print(json.dumps(r))
    return 0 if all(r["correct"] for r in results) else 1


if __name__ == "__main__":
    sys.exit(main())
