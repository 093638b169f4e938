#!/usr/bin/env bash
# Sweep-workload smoke: one job-registry workload run three ways, all
# demanded byte-identical:
#
#   scenario — scenario-crossval (20 MDP-replay network cells) through
#              `scenario_crossval`;
#   games    — games-frontier (26 committed-coalition frontier shards of
#              the block size increasing game) through
#              `games_map --frontier`, which must also reproduce the pinned
#              Figure 4 frontier layer.
#
#   1. locally, single-threaded, journaled -> the reference journal;
#   2. interrupted (SIGKILL mid-run with cells already journaled) and then
#      resumed from the same journal — the completed cells must replay
#      (not re-solve) and the final journal must be byte-identical to the
#      reference (`cmp`, not `diff`);
#   3. distributed (`--cluster`) with two local workers, one of which
#      claims a batch, solves one cell and then hangs
#      (--die-after 1 --die-mode hang), so its cells only come back
#      through lease expiry / straggler re-dispatch — and the cluster
#      journal must still be byte-identical to the local reference.
#
# Usage: scripts/workload_smoke.sh scenario|games
# Set BVC_BIN and SCENARIO_BIN (scenario) or GAMES_BIN (games) to prebuilt
# binaries to skip the cargo builds.
set -euo pipefail
cd "$(dirname "$0")/.."
export CARGO_NET_OFFLINE=true

# Everything the two workloads differ in: binary, extra flag, cell count,
# port base, pacing of the victim run, and the Figure 4 check.
kind=${1:-}
case "$kind" in
    scenario)
        bin_name=scenario_crossval
        bin=${SCENARIO_BIN:-}
        extra=()
        cells=20
        port_base=21000
        pacing=()
        figure4=false
        ;;
    games)
        bin_name=games_map
        bin=${GAMES_BIN:-}
        extra=(--frontier)
        cells=26
        port_base=23000
        # Frontier shards solve in microseconds, so the victim run is paced
        # with chaos latency on its journal appends (a pure stall: the bytes
        # written are untouched) to open a reliable kill window mid-journal.
        pacing=(--chaos "seed=7,latency_ms=400")
        figure4=true
        ;;
    *)
        echo "usage: scripts/workload_smoke.sh scenario|games" >&2
        exit 2
        ;;
esac
tag=$(echo "$kind" | tr '[:lower:]' '[:upper:]')
fail() {
    echo "$tag SMOKE FAILED: $*" >&2
    exit 1
}

if [[ -z "${BVC_BIN:-}" || -z "$bin" ]]; then
    echo "==> building release binaries (bvc, $bin_name)"
    cargo build --release --offline -q -p bvc-cli -p bvc-repro \
        --bin bvc --bin "$bin_name"
fi
BVC_BIN=${BVC_BIN:-target/release/bvc}
bin=${bin:-target/release/$bin_name}

workdir=$(mktemp -d)
pids=()
cleanup() {
    for pid in "${pids[@]}"; do kill -9 "$pid" 2>/dev/null || true; done
    rm -rf "$workdir"
}
trap cleanup EXIT

lines() { [[ -f "$1" ]] && wc -l < "$1" || echo 0; }

echo "==> [1/3] local reference run (single-threaded, journaled)"
"$bin" "${extra[@]}" --threads 1 --journal "$workdir/ref.jsonl" > "$workdir/ref.txt"
if ! grep -q "solved $cells" "$workdir/ref.txt"; then
    cat "$workdir/ref.txt" >&2
    fail "reference run did not solve all $cells cells"
fi
if $figure4 && ! grep -q 'reproduced' "$workdir/ref.txt"; then
    cat "$workdir/ref.txt" >&2
    fail "pinned Figure 4 frontier layer not reproduced"
fi

echo "==> [2/3] SIGKILL mid-run, then resume from the torn journal"
"$bin" "${extra[@]}" --threads 1 --journal "$workdir/resume.jsonl" "${pacing[@]}" \
    > "$workdir/interrupted.txt" 2>&1 &
victim=$!
pids+=("$victim")
for _ in $(seq 100); do
    [[ "$(lines "$workdir/resume.jsonl")" -ge 3 ]] && break
    sleep 0.1
done
count=$(lines "$workdir/resume.jsonl")
if [[ "$count" -lt 3 || "$count" -ge "$cells" ]]; then
    fail "wanted to SIGKILL mid-run, journal has $count lines"
fi
{ kill -9 "$victim" && wait "$victim"; } 2>/dev/null || true
"$bin" "${extra[@]}" --threads 1 --journal "$workdir/resume.jsonl" \
    > "$workdir/resumed.txt"
if ! grep -qE "solved $cells \([1-9][0-9]* replayed\)" "$workdir/resumed.txt"; then
    cat "$workdir/resumed.txt" >&2
    fail "resume did not replay the journaled cells"
fi
if ! cmp "$workdir/ref.jsonl" "$workdir/resume.jsonl"; then
    diff "$workdir/ref.jsonl" "$workdir/resume.jsonl" >&2 || true
    fail "resumed journal differs from the reference"
fi

echo "==> [3/3] distributed run: one healthy worker, one killed mid-batch"
port=$(( (RANDOM % 2000) + port_base ))
addr="127.0.0.1:$port"
"$bin" "${extra[@]}" --cluster "$addr" --journal "$workdir/cluster.jsonl" \
    --lease 1 --cluster-batch 4 > "$workdir/coordinator.txt" 2>&1 &
coord_pid=$!
pids+=("$coord_pid")

# Worker A claims a batch of 4, solves one cell, then hangs (heartbeats
# stop, socket stays open); its cells come back only via lease expiry or
# straggler re-dispatch. Workers retry the connect, so racing the
# coordinator's bind is fine.
"$BVC_BIN" cluster work --connect "$addr" --die-after 1 --die-mode hang \
    > "$workdir/worker_a.txt" 2>&1 &
pids+=("$!")
sleep 0.5
"$BVC_BIN" cluster work --connect "$addr" > "$workdir/worker_b.txt" 2>&1 &
pids+=("$!")

if ! wait "$coord_pid"; then
    cat "$workdir/coordinator.txt" >&2
    fail "cluster coordinator exited nonzero"
fi
wait || true # the workers; the hung one wakes up and exits on its own

if ! grep -q "solved $cells" "$workdir/coordinator.txt"; then
    cat "$workdir/coordinator.txt" >&2
    fail "cluster run did not solve all $cells cells"
fi
if ! cmp "$workdir/ref.jsonl" "$workdir/cluster.jsonl"; then
    diff "$workdir/ref.jsonl" "$workdir/cluster.jsonl" >&2 || true
    fail "cluster journal differs from the local reference"
fi

echo "==> $kind smoke OK (resume replay, killed-worker recovery," \
     "byte-identical journals)"
