#!/usr/bin/env bash
# Sweep-workload smoke: one job-registry workload run three ways, all
# demanded byte-identical:
#
#   table2   — table2-setting1 (the 21 Table 2 setting-1 cells) through
#              `table2 --setting1-only`, plus the two crash-recovery
#              stages below;
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
#      through lease expiry / straggler re-dispatch — the coordinator must
#      record at least one of the two, and the cluster journal must still
#      be byte-identical to the local reference.
#
# The table2 kind adds real coordinator deaths (the in-process fault matrix
# is `chaos_soak`), each ending byte-identical to the reference journal:
#
#   4. planned crash — `bvc cluster coordinate` runs under
#      `BVC_CHAOS=crash_at=journal.after_append:5` and exits 137 after
#      journaling exactly 5 cells, twice (same plan, same line count: the
#      failure schedule replays). A restarted coordinator over the same
#      journal replays the 5-line prefix and finishes; the worker rides
#      the outage via `--reconnect`.
#   5. kill -9 — a latency-paced worker keeps the run slow enough to
#      SIGKILL the coordinator mid-run with at least 5 cells journaled;
#      the restarted coordinator (fsync-per-append, over a possibly torn
#      tail) finishes.
#
# Usage: scripts/workload_smoke.sh table2|scenario|games
# Set BVC_BIN and TABLE2_BIN (table2), SCENARIO_BIN (scenario) or
# GAMES_BIN (games) to prebuilt binaries to skip the cargo builds.
set -euo pipefail
cd "$(dirname "$0")/.."
export CARGO_NET_OFFLINE=true

# Everything the three workloads differ in: binary, extra flag, cell count,
# port base, pacing of the victim run, the Figure 4 check, and the registry
# workload the crash-recovery stages coordinate (empty: no such stages).
kind=${1:-}
case "$kind" in
    table2)
        bin_name=table2
        bin=${TABLE2_BIN:-}
        extra=(--setting1-only)
        cells=21
        port_base=19000
        # The setting-1 cells solve in about a millisecond each, so the
        # victim run is paced like the games kind's (see there).
        pacing=(--chaos "seed=7,latency_ms=400")
        figure4=false
        chaos_workload=table2-setting1
        ;;
    scenario)
        bin_name=scenario_crossval
        bin=${SCENARIO_BIN:-}
        extra=()
        cells=20
        port_base=21000
        pacing=()
        figure4=false
        chaos_workload=
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
        chaos_workload=
        ;;
    *)
        echo "usage: scripts/workload_smoke.sh table2|scenario|games" >&2
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
    { for pid in "${pids[@]}"; do kill -9 "$pid" || true; done; wait; } \
        2>/dev/null || true
    rm -rf "$workdir"
}
trap cleanup EXIT

lines() { [[ -f "$1" ]] && wc -l < "$1" || echo 0; }
stages=3
[[ -n "$chaos_workload" ]] && stages=5

echo "==> [1/$stages] local reference run (single-threaded, journaled)"
"$bin" "${extra[@]}" --threads 1 --journal "$workdir/ref.jsonl" > "$workdir/ref.txt"
if ! grep -q "solved $cells" "$workdir/ref.txt"; then
    cat "$workdir/ref.txt" >&2
    fail "reference run did not solve all $cells cells"
fi
if $figure4 && ! grep -q 'reproduced' "$workdir/ref.txt"; then
    cat "$workdir/ref.txt" >&2
    fail "pinned Figure 4 frontier layer not reproduced"
fi

echo "==> [2/$stages] SIGKILL mid-run, then resume from the torn journal"
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

echo "==> [3/$stages] distributed run: one healthy worker, one killed mid-batch"
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
if ! grep -qE 'cluster_(lease_expiries|straggler_dispatches)_total [1-9]' \
        "$workdir/coordinator.txt"; then
    cat "$workdir/coordinator.txt" >&2
    fail "no lease expiry or straggler re-dispatch recorded for the killed worker"
fi
if ! cmp "$workdir/ref.jsonl" "$workdir/cluster.jsonl"; then
    diff "$workdir/ref.jsonl" "$workdir/cluster.jsonl" >&2 || true
    fail "cluster journal differs from the local reference"
fi

if [[ -n "$chaos_workload" ]]; then
    addr="127.0.0.1:$(( (RANDOM % 2000) + port_base ))"
    echo "==> [4/$stages] planned crash: coordinator exits 137 after 5 journal appends" \
         "(x2), then restart-resume"
    for round in a b; do
        rm -f "$workdir/crash.jsonl"
        BVC_CHAOS="seed=42,crash_at=journal.after_append:5" "$BVC_BIN" cluster coordinate \
            --workload "$chaos_workload" --addr "$addr" --journal "$workdir/crash.jsonl" \
            --quiet > "$workdir/crash_$round.txt" 2>&1 &
        coord_pid=$!
        pids+=("$coord_pid")
        if [[ "$round" == "a" ]]; then
            # One worker for the whole stage; --reconnect carries it across
            # both planned crashes and into the restarted coordinator below.
            "$BVC_BIN" cluster work --connect "$addr" --reconnect 25 \
                > "$workdir/crash_worker.txt" 2>&1 &
            pids+=("$!")
        fi
        status=0
        wait "$coord_pid" || status=$?
        if [[ "$status" -ne 137 ]]; then
            cat "$workdir/crash_$round.txt" >&2
            fail "crash run $round exited $status, want 137"
        fi
        count=$(lines "$workdir/crash.jsonl")
        [[ "$count" -eq 5 ]] || fail "crash run $round journaled $count lines, want" \
            "exactly 5 (the crash schedule must replay)"
    done
    if ! "$BVC_BIN" cluster coordinate --workload "$chaos_workload" --addr "$addr" \
            --journal "$workdir/crash.jsonl" > "$workdir/crash_resume.txt" 2>&1; then
        cat "$workdir/crash_resume.txt" >&2
        fail "restarted coordinator exited nonzero"
    fi
    if ! grep -qE "$cells/$cells cells ok \(5 replayed" "$workdir/crash_resume.txt"; then
        cat "$workdir/crash_resume.txt" >&2
        fail "restart did not replay the 5-line prefix"
    fi
    cmp "$workdir/ref.jsonl" "$workdir/crash.jsonl" ||
        fail "crash-resumed journal differs from the local reference"

    addr="127.0.0.1:$(( (RANDOM % 2000) + port_base ))"
    echo "==> [5/$stages] kill -9 mid-run, restart with --durability always"
    "$BVC_BIN" cluster coordinate --workload "$chaos_workload" --addr "$addr" \
        --journal "$workdir/kill.jsonl" --quiet > "$workdir/kill_a.txt" 2>&1 &
    coord_pid=$!
    pids+=("$coord_pid")
    # The worker's chaos plan paces every frame op so the journal grows
    # slowly enough to kill the coordinator mid-run with cells left over.
    "$BVC_BIN" cluster work --connect "$addr" --reconnect 25 \
        --chaos "seed=7,latency_ms=120" --chaos-site pacer \
        > "$workdir/kill_worker.txt" 2>&1 &
    pids+=("$!")
    for _ in $(seq 200); do
        [[ "$(lines "$workdir/kill.jsonl")" -ge 5 ]] && break
        sleep 0.1
    done
    count=$(lines "$workdir/kill.jsonl")
    if [[ "$count" -lt 5 || "$count" -ge "$cells" ]]; then
        fail "wanted to SIGKILL mid-run, journal has $count lines"
    fi
    { kill -9 "$coord_pid" && wait "$coord_pid"; } 2>/dev/null || true
    if ! "$BVC_BIN" cluster coordinate --workload "$chaos_workload" --addr "$addr" \
            --journal "$workdir/kill.jsonl" --durability always \
            > "$workdir/kill_b.txt" 2>&1; then
        cat "$workdir/kill_b.txt" >&2
        fail "post-SIGKILL coordinator exited nonzero"
    fi
    if ! grep -qE "$cells/$cells cells ok" "$workdir/kill_b.txt"; then
        cat "$workdir/kill_b.txt" >&2
        fail "not every cell solved after the SIGKILL restart"
    fi
    cmp "$workdir/ref.jsonl" "$workdir/kill.jsonl" ||
        fail "post-SIGKILL journal differs from the local reference"
fi

echo "==> $kind smoke OK ($stages stages, byte-identical journals)"
