#!/usr/bin/env bash
# Records benchmark history: runs the std-only bench binaries with --json
# and appends their one-line machine-readable records (plus a timestamp and
# the current commit) to JSONL history files at the repo root:
#
#   BENCH_serve.json    — cluster_scaling ({"bench":"cluster_scaling",...})
#   BENCH_scenario.json — scenario_scaling ({"bench":"scenario_scaling",...})
#   BENCH_games.json    — games_scaling ({"bench":"games_scaling",...})
#
# Table 2 sweep and serve hit-path timings come from the bvcbench benchmark
# (`bvcbench/`, workloads `small-ratio` and `serve-hot`), not from here.
#
# Usage:
#   scripts/bench_record.sh             # quick shapes, suitable for CI boxes
#   scripts/bench_record.sh --full      # the real workloads (slow)
#
# Each line is self-contained JSON, so `jq -s` over the file reconstructs
# the whole history. Runs are release builds; the script is offline-safe.
set -euo pipefail
cd "$(dirname "$0")/.."
export CARGO_NET_OFFLINE=true

full=false
[[ "${1:-}" == "--full" ]] && full=true

stamp=$(date -u +%Y-%m-%dT%H:%M:%SZ)
commit=$(git rev-parse --short HEAD 2>/dev/null || echo unknown)

echo "==> building bench binaries (release)"
cargo build --release --offline -q -p bvc-bench \
    --bin cluster_scaling --bin scenario_scaling --bin games_scaling

# annotate <record-line> — prefix the JSON object with run metadata.
annotate() {
    printf '{"recorded":"%s","commit":"%s",%s\n' "$stamp" "$commit" "${1#\{}"
}

run_and_append() { # run_and_append <outfile> <bench-name> <cmd...>
    local outfile=$1 name=$2
    shift 2
    local log record
    log=$(mktemp)
    "$@" | tee "$log"
    record=$(grep -o "{\"bench\":\"$name\".*}" "$log" | tail -1)
    rm -f "$log"
    if [[ -z "$record" ]]; then
        echo "FAIL: $name emitted no JSON record" >&2
        exit 1
    fi
    annotate "$record" >> "$outfile"
    echo "==> appended $name record to $outfile"
}

if $full; then
    scaling_args=(--workers 1,2,4)
    scenario_args=(--nodes 100,400,1000 --blocks 400 --threads 1,2,4)
    games_args=(--miners 20,22,24 --size 8 --threads 1,2,4)
else
    scaling_args=(--quick --workers 1,2)
    scenario_args=(--quick)
    games_args=(--quick)
fi

echo "==> cluster_scaling ${scaling_args[*]}"
run_and_append BENCH_serve.json cluster_scaling \
    target/release/cluster_scaling "${scaling_args[@]}" --json

echo "==> scenario_scaling ${scenario_args[*]}"
run_and_append BENCH_scenario.json scenario_scaling \
    target/release/scenario_scaling "${scenario_args[@]}" --json

echo "==> games_scaling ${games_args[*]}"
run_and_append BENCH_games.json games_scaling \
    target/release/games_scaling "${games_args[@]}" --json

echo "==> bench records OK"
