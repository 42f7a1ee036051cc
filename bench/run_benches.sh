#!/usr/bin/env bash
# Build Release and run the tracked benchmarks, writing BENCH_*.json
# artifacts with a stable schema so future PRs can compare runs.
#
#   BENCH_sim_core.json           - written by bench_sim_core itself
#                                   (events/sec, ns/event, legacy A/B
#                                   speedup, allocs/event, peak RSS)
#   BENCH_fig7_remote_read.json   - written here (wall seconds, peak RSS)
#   BENCH_sweep/SWEEP_*.json      - one JSON per sweep cell (64-node
#                                   torus uniform-read matrix)
#   BENCH_sweep/FIG9_*.json       - fig9 PageRank scale study: fine-grain
#                                   PageRank at 64/256/512 nodes on 3D
#                                   tori (strong scaling, ranks verified)
#   BENCH_sweep/DEGRADED_*.json   - degraded-mode study: goodput, drop
#                                   counts and p50/p95/p99 under node
#                                   kill/recover, link kill (adaptive
#                                   routing), an incast storm, and a
#                                   silent drop window recovered purely
#                                   by RMC retransmission (retransmits,
#                                   dup_suppressed, unrecoverable)
#
# Usage: bench/run_benches.sh [--smoke] [build-dir]
#                             (default build dir: build-release)
#
# --smoke: fast CI sanity — build the bench binaries, run each tracked
# bench on a reduced budget, verify the guard script against the
# checked-in baseline, and write NOTHING into the repository.

set -euo pipefail

REPO_ROOT="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
SMOKE=0
if [[ "${1:-}" == "--smoke" ]]; then
    SMOKE=1
    shift
fi
BUILD_DIR="${1:-$REPO_ROOT/build-release}"

cmake -B "$BUILD_DIR" -S "$REPO_ROOT" -DCMAKE_BUILD_TYPE=Release \
      -DSONUMA_BUILD_TESTS=OFF >/dev/null
cmake --build "$BUILD_DIR" -j"$(nproc)" \
      --target bench_sim_core bench_fig7_remote_read bench_sweep \
               bench_table2_comparison >/dev/null

cd "$REPO_ROOT"

if [[ "$SMOKE" == 1 ]]; then
    SMOKE_DIR="$(mktemp -d)"
    trap 'rm -rf "$SMOKE_DIR"' EXIT
    echo "== smoke: sim_core guard (ratio check vs checked-in baseline) =="
    python3 "$REPO_ROOT/bench/check_sim_core.py" \
        --binary "$BUILD_DIR/bench_sim_core" \
        --baseline "$REPO_ROOT/BENCH_sim_core.json" \
        --threshold 0.10 --events 400000
    echo "== smoke: sweep (quick matrix incl. qpCount cell, JSON schema check) =="
    "$BUILD_DIR/bench_sweep" --quick --qps=1,2 --batching=1 \
        --out-dir="$SMOKE_DIR" >/dev/null
    python3 - "$SMOKE_DIR" <<'PY'
import json, pathlib, sys
cells = list(pathlib.Path(sys.argv[1]).glob("SWEEP_*.json"))
assert cells, "sweep wrote no cells"
qp_counts = set()
for c in cells:
    d = json.loads(c.read_text())
    for key in ("bench", "schema", "nodes", "topology", "request_bytes",
                "qp_depth", "qp_count", "doorbell_batching", "mops",
                "mean_latency_ns"):
        assert key in d, f"{c}: missing {key}"
    qp_counts.add(d["qp_count"])
assert qp_counts == {1, 2}, f"expected qp_count cells 1 and 2, got {qp_counts}"
print(f"{len(cells)} sweep cell(s) OK (qp_counts {sorted(qp_counts)})")
PY
    echo "== smoke: degraded-mode cell (node kill/recover, accounting) =="
    "$BUILD_DIR/bench_sweep" --quick --nodes=16 --topo=4x4 --sizes=64 \
        --depths=16 --ops=32 --faults=node-kill@20us+40us \
        --out-dir="$SMOKE_DIR" >/dev/null
    python3 - "$SMOKE_DIR" <<'PY'
import json, pathlib, sys
cells = list(pathlib.Path(sys.argv[1]).glob("DEGRADED_*node-kill.json"))
assert cells, "degraded sweep wrote no DEGRADED_*node-kill cells"
for c in cells:
    d = json.loads(c.read_text())
    assert d["fault_scenario"].startswith("node-kill@"), c
    # The run must make progress through the fault...
    assert d["goodput_mops"] > 0, f"{c}: no goodput under faults"
    # ...and the degraded accounting must balance exactly.
    assert d["ok_ops"] + d["failed_ops"] == d["ops"], \
        f"{c}: ok {d['ok_ops']} + failed {d['failed_ops']} != ops {d['ops']}"
    assert d["aborted_ops"] == d["retried_ops"] + d["failed_ops"], \
        f"{c}: aborted {d['aborted_ops']} != retried {d['retried_ops']} " \
        f"+ failed {d['failed_ops']}"
    assert d["dropped_messages"] > 0, f"{c}: node kill dropped nothing"
print(f"{len(cells)} degraded cell(s) OK (goodput > 0, exact accounting)")
PY
    echo "== smoke: recovery cell (silent drop window, RMC retransmission) =="
    # Workload-level retries are OFF (--retries=0): every dropped packet
    # must be recovered by the RMC's timeout-driven retransmission
    # alone, and the ok + unrecoverable == ops identity must close.
    "$BUILD_DIR/bench_sweep" --quick --nodes=16 --topo=4x4 --sizes=64 \
        --depths=16 --ops=32 --faults=drop@10us+60us --max-attempts=6 \
        --retries=0 --out-dir="$SMOKE_DIR" >/dev/null
    python3 - "$SMOKE_DIR" <<'PY'
import json, pathlib, sys
cells = list(pathlib.Path(sys.argv[1]).glob("DEGRADED_*_drop.json"))
assert cells, "drop sweep wrote no DEGRADED_*_drop cells"
for c in cells:
    d = json.loads(c.read_text())
    assert d["fault_scenario"].startswith("drop@"), c
    assert d["dropped_messages"] > 0, f"{c}: drop window dropped nothing"
    assert d["retransmits"] > 0, f"{c}: drops but no retransmissions"
    assert d["unrecoverable"] == 0, f"{c}: {d['unrecoverable']} ops lost"
    assert d["ok_ops"] + d["unrecoverable"] == d["ops"], \
        f"{c}: ok {d['ok_ops']} + unrecoverable {d['unrecoverable']} " \
        f"!= ops {d['ops']}"
    assert d["ok_ops"] == d["ops"], \
        f"{c}: ok {d['ok_ops']} != ops {d['ops']} despite retransmission"
print(f"{len(cells)} recovery cell(s) OK (drops retransmitted, none lost)")
PY
    echo "== smoke: fig9 pagerank workload cell (8 nodes, tiny graph) =="
    "$BUILD_DIR/bench_sweep" --workload=pagerank --nodes=8 --ndims=3 \
        --sizes=64 --depths=16 --pr-vertices=1024 --pr-degree=4 \
        --out-dir="$SMOKE_DIR" >/dev/null
    python3 - "$SMOKE_DIR" <<'PY'
import json, pathlib, sys
cells = list(pathlib.Path(sys.argv[1]).glob("FIG9_*.json"))
assert cells, "pagerank sweep wrote no FIG9 cells"
for c in cells:
    d = json.loads(c.read_text())
    assert d["workload"] == "pagerank", c
    for key in ("nodes", "topology", "ops", "mops", "vertices", "edges",
                "cross_edge_fraction", "sim_us"):
        assert key in d, f"{c}: missing {key}"
    assert d["topology"].count("x") == 2, f"{c}: expected a 3D torus"
print(f"{len(cells)} FIG9 cell(s) OK (ranks verified in-process)")
PY
    echo "== smoke: observability cell (8 nodes, sampling on, OBS schema) =="
    "$BUILD_DIR/bench_sweep" --quick --nodes=8 --sizes=64 --depths=16 \
        --ops=32 --obs-period-ns=200 --out-dir="$SMOKE_DIR" >/dev/null
    python3 - "$SMOKE_DIR" <<'PY'
import json, pathlib, sys
obs = list(pathlib.Path(sys.argv[1]).glob("OBS_*.json"))
assert obs, "obs-enabled sweep wrote no OBS_* sidecars"
for o in obs:
    d = json.loads(o.read_text())
    assert d["bench"] == "obs" and d["schema"] == 1, o
    assert d["period_ns"] == 200, f"{o}: period {d['period_ns']}"
    assert d["series_count"] == len(d["series"]) >= 1, \
        f"{o}: no live series sampled"
    for s in d["series"]:
        for key in ("name", "unit", "dropped", "samples"):
            assert key in s, f"{o}: series missing {key}"
        ts = [t for t, _ in s["samples"]]
        assert ts == sorted(ts), f"{o}: {s['name']} timestamps not sorted"
print(f"{len(obs)} OBS sidecar(s) OK (schema 1, sorted timestamps)")
PY
    echo "== smoke: fig7 (hw side only, binary runs) =="
    "$BUILD_DIR/bench_fig7_remote_read" --platform=hw >/dev/null
    echo "== smoke: JSON validity (every emitted artifact) =="
    for f in "$SMOKE_DIR"/*.json; do
        python3 -m json.tool "$f" >/dev/null || {
            echo "invalid JSON: $f" >&2; exit 1; }
    done
    echo "smoke OK (no repository artifacts touched)"
    exit 0
fi

echo "== sim_core =="
"$BUILD_DIR/bench_sim_core" --out="$REPO_ROOT/BENCH_sim_core.json"

echo "== sweep (64-node torus fig9-style matrix) =="
mkdir -p "$REPO_ROOT/BENCH_sweep"
"$BUILD_DIR/bench_sweep" --nodes=64 --topologies=torus \
    --sizes=64,512 --depths=16,64 --ops=64 \
    --out-dir="$REPO_ROOT/BENCH_sweep"

echo "== sweep exemplar (8-node cell byte-compared by observability_test) =="
"$BUILD_DIR/bench_sweep" --nodes=8 --sizes=64 --depths=16 \
    --out-dir="$REPO_ROOT/BENCH_sweep"

echo "== table2 IOPS-vs-qpCount curve (Table 2 QP axis, OBS sampled) =="
# Sampling is read-only (observability_test proves the cell artifact is
# unchanged), so the curve and its OBS_TABLE2_* sidecars come from the
# same run.
"$BUILD_DIR/bench_table2_comparison" --curve-only --obs-period-ns=10000 \
    --out-dir="$REPO_ROOT/BENCH_sweep"

echo "== fig9 PageRank scale study (64/256/512 nodes, 3D tori) =="
# One fixed graph across node counts (strong scaling). 65536 vertices
# keep >= 128 owned vertices per node at 512 nodes, so compute still
# dominates the O(N) barrier broadcast and the mops curve stays
# near-linear through the whole 64-512 sweep.
"$BUILD_DIR/bench_sweep" --workload=pagerank --nodes=64,256,512 --ndims=3 \
    --depths=64 --pr-vertices=65536 --out-dir="$REPO_ROOT/BENCH_sweep"

echo "== degraded-mode study (node kill, link kill + adaptive, incast) =="
# The kill lands mid-flight (in-flight ops to the victim peak in the
# first ~15 simulated us) so the abort/retry accounting is exercised,
# not just the recovery.
# The node-kill cell also carries the observability exemplar: sampling
# every 10 simulated us writes an OBS_*_node-kill.json sidecar next to
# the (unchanged) DEGRADED artifact.
"$BUILD_DIR/bench_sweep" --nodes=64 --topo=4x4x4 --sizes=64 --depths=16 \
    --ops=64 --faults=node-kill@10us+100us --obs-period-ns=10000 \
    --out-dir="$REPO_ROOT/BENCH_sweep"
"$BUILD_DIR/bench_sweep" --nodes=64 --topo=4x4x4 --sizes=64 --depths=16 \
    --ops=64 --routing=adaptive --faults=link-kill@10us \
    --out-dir="$REPO_ROOT/BENCH_sweep"
"$BUILD_DIR/bench_sweep" --nodes=64 --topo=4x4x4 --sizes=64 --depths=16 \
    --ops=64 --faults=incast \
    --out-dir="$REPO_ROOT/BENCH_sweep"
# Silent drop window, workload retries off: recovery is carried by RMC
# retransmission alone (retransmits > 0, unrecoverable == 0).
"$BUILD_DIR/bench_sweep" --nodes=64 --topo=4x4x4 --sizes=64 --depths=16 \
    --ops=64 --faults=drop@10us+100us --max-attempts=6 --retries=0 \
    --out-dir="$REPO_ROOT/BENCH_sweep"

echo "== fig7_remote_read =="
# Wrap the paper benchmark: wall-clock seconds and peak RSS, schema v1.
FIG7_JSON="$REPO_ROOT/BENCH_fig7_remote_read.json"
read -r WALL PEAK_RSS <<<"$(python3 - "$BUILD_DIR/bench_fig7_remote_read" <<'PY'
import resource
import subprocess
import sys
import time

t0 = time.time()
with open("BENCH_fig7_remote_read.txt", "w") as out:
    subprocess.run([sys.argv[1]], stdout=out, check=True)
wall = time.time() - t0
rss_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
print(f"{wall:.3f} {rss_kb * 1024}")
PY
)"

cat > "$FIG7_JSON" <<EOF
{
  "bench": "fig7_remote_read",
  "schema": 1,
  "wall_seconds": $WALL,
  "peak_rss_bytes": $PEAK_RSS,
  "output": "BENCH_fig7_remote_read.txt"
}
EOF
echo "wrote $FIG7_JSON (wall ${WALL}s)"

echo "== JSON validity (every tracked artifact) =="
for f in "$REPO_ROOT"/BENCH_*.json "$REPO_ROOT"/BENCH_sweep/*.json; do
    python3 -m json.tool "$f" >/dev/null || {
        echo "invalid JSON: $f" >&2; exit 1; }
done
echo "all artifacts are valid JSON"
