#!/usr/bin/env python3
"""Self-test of the benchmark: determinism and sensitivity to the seed.

    python3 perfbench/selftest.py [--workload W] [--seconds 1]

For each workload, two traced runs with the same seed must report the
same input digest and identical values for every metric that does not
depend on the host: the simulated metrics (sim_*), the per-layer
counts and ratios, simulated span times and the failure counts. A run
with another seed must report a different input digest, i.e. the seed
changes the generated inputs. Exits 1 on the first violation.
"""

import argparse
import os
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run as bench  # noqa: E402

# Metrics measured on the host clock or the host's memory: exempt.
HOST_METRICS = {
    "setup_s", "host_ops_per_s", "wall_ops_per_s", "peak_rss_mb",
    "sim.host_ns_per_event", "api.post_host_ns", "api.barrier_host_ms",
    "app.kv_put_host_ns", "app.install_s", "app.verify_s", "node.build_s",
    "node.rss_mb_per_node",
}


def check_workload(workload, seconds):
    deadline = time.monotonic() + 3 * bench.DEADLINE_S
    a = bench.run_process(workload, 1, seconds, True, deadline)
    b = bench.run_process(workload, 1, seconds, True, deadline)
    c = bench.run_process(workload, 2, seconds, False, deadline)
    problems = []
    for r in (a, b, c):
        if not r["correct"]:
            problems.append("seed %d failed its correctness gate: %s"
                            % (r["seed"], r["first_failure"]))
    if a["input_digest"] != b["input_digest"]:
        problems.append("same seed gave different inputs")
    if a["input_digest"] == c["input_digest"]:
        problems.append("seeds 1 and 2 gave the same inputs")
    compared = 0
    for name, m in a["metrics"].items():
        if name in HOST_METRICS:
            continue
        other = b["metrics"].get(name)
        compared += 1
        if other is None or other["value"] != m["value"]:
            problems.append("%s differs between two runs of seed 1: %r vs %r"
                            % (name, m["value"],
                               other and other["value"]))
    for key in ("attempted", "failed"):
        if a[key] != b[key]:
            problems.append("%s differs between two runs of seed 1" % key)
    return compared, problems


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", default="all")
    ap.add_argument("--seconds", type=float, default=1)
    args = ap.parse_args()
    names = ["read-stream-64", "pagerank-256", "kv-mixed-16"]
    todo = names if args.workload == "all" else [args.workload]
    bench.build()
    failed = False
    for w in todo:
        compared, problems = check_workload(w, args.seconds)
        print("%-16s %s (%d simulated metrics compared)"
              % (w, "ok" if not problems else "FAILED", compared))
        for p in problems:
            print("   " + p)
        failed = failed or bool(problems)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
