#!/usr/bin/env bash
# Build Release and regenerate every tracked benchmark artifact in place:
#
#   BENCH_sim_core.json           - written by bench_sim_core itself
#                                   (events/sec, ns/event, legacy A/B
#                                   speedup, allocs/event, peak RSS)
#   every line of bench/artifacts.txt
#                                 - BENCH_sweep/ (SWEEP, FIG9, DEGRADED,
#                                   TABLE2 and OBS cells) and
#                                   BENCH_fig7_remote_read.txt; ctest
#                                   byte-compares the same lines
#   BENCH_fig7_remote_read.json   - wall seconds and peak RSS of the
#                                   fig7 run, schema v1
#
# Usage: bench/run_benches.sh [build-dir]   (default: build-release)

set -euo pipefail

REPO_ROOT="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
BUILD_DIR="${1:-$REPO_ROOT/build-release}"
MANIFEST="$REPO_ROOT/bench/artifacts.txt"

# The data lines of the manifest: name tier artifacts bench [flags...].
manifest_lines() { grep '^[^#]' "$MANIFEST"; }

cmake -B "$BUILD_DIR" -S "$REPO_ROOT" -DCMAKE_BUILD_TYPE=Release \
      -DSONUMA_BUILD_TESTS=OFF >/dev/null
# shellcheck disable=SC2046 # one target per word
cmake --build "$BUILD_DIR" -j"$(nproc)" --target bench_sim_core \
      $(manifest_lines | awk '{print $4}' | sort -u) >/dev/null

cd "$REPO_ROOT"

echo "== sim_core =="
"$BUILD_DIR/bench_sim_core" --out="$REPO_ROOT/BENCH_sim_core.json"

while read -r name tier artifacts bench flags <&3; do
    echo "== $name ($tier) =="
    read -ra flags <<<"$flags"
    if [[ "$artifacts" == *.txt && "$artifacts" != *,* ]]; then
        # stdout is the artifact; time the run for its .json sidecar.
        read -r WALL PEAK_RSS <<<"$(python3 - "$artifacts" \
            "$BUILD_DIR/$bench" "${flags[@]}" <<'PY'
import resource
import subprocess
import sys
import time

t0 = time.time()
with open(sys.argv[1], "w") as out:
    subprocess.run(sys.argv[2:], stdout=out, check=True)
wall = time.time() - t0
rss_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
print(f"{wall:.3f} {rss_kb * 1024}")
PY
)"
        cat > "${artifacts%.txt}.json" <<EOF
{
  "bench": "${bench#bench_}",
  "schema": 1,
  "wall_seconds": $WALL,
  "peak_rss_bytes": $PEAK_RSS,
  "output": "$artifacts"
}
EOF
        echo "wrote ${artifacts%.txt}.json (wall ${WALL}s)"
    else
        "$BUILD_DIR/$bench" "${flags[@]}" \
            --out-dir="$REPO_ROOT/$(dirname "${artifacts%%,*}")" >/dev/null
    fi
done 3< <(manifest_lines)

echo "== JSON validity (every tracked artifact) =="
for f in "$REPO_ROOT"/BENCH_*.json "$REPO_ROOT"/BENCH_sweep/*.json; do
    python3 -m json.tool "$f" >/dev/null || {
        echo "invalid JSON: $f" >&2; exit 1; }
done
echo "all artifacts are valid JSON"
