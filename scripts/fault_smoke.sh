#!/usr/bin/env bash
# Fault-injection smoke for the resilient sweep runner (crates/repro/src/sweep.rs).
#
# Exercises the full degradation story on the real Table 2 workload
# (setting 1 only — the sweep itself takes milliseconds):
#
#   1. clean run                          -> reference output, exit 0;
#   2. run with an injected panic and an injected NoConvergence, journaled
#                                         -> FAIL(...) cells, nonzero exit,
#                                            every healthy cell still solved;
#   3. resume from the journal with the injection removed
#                                         -> only the failed cells re-solve,
#                                            and the grid is byte-identical
#                                            to the clean run.
#
# Usage: scripts/fault_smoke.sh
# Set TABLE2_BIN to a prebuilt table2 binary to skip the cargo invocations
# (defaults to `cargo run --release --offline -p bvc-repro --bin table2`).
set -euo pipefail
cd "$(dirname "$0")/.."

workdir=$(mktemp -d)
trap 'rm -rf "$workdir"' EXIT
journal="$workdir/table2.jsonl"

run_table2() {
    if [[ -n "${TABLE2_BIN:-}" ]]; then
        "$TABLE2_BIN" "$@"
    else
        cargo run --release --offline -q -p bvc-repro --bin table2 -- "$@"
    fi
}

echo "==> [1/3] clean Table 2 run (setting 1)"
run_table2 --setting1-only > "$workdir/clean.txt"

# The faulted and resumed runs pass --solve-threads 2 (sharding forced onto
# these small models) while the clean reference run stays serial. Table 2's
# ratio cells probe by exact renewal passes, which never shard, so the grid
# diff below checks the thread options leave values untouched; the sharded
# Bellman kernel's end-to-end determinism diff runs Table 3 in verify.sh.
echo "==> [2/3] injected faults: one panicking cell, one non-converging cell"
if run_table2 --setting1-only --journal "$journal" \
        --threads 1 --solve-threads 2 --shard-min-states 1 \
        --inject-panic 'b:g=1:1 a=15%' --inject-noconv 'b:g=1:2 a=20%' \
        > "$workdir/injected.txt" 2> "$workdir/injected.stderr"; then
    echo "FAULT SMOKE FAILED: injected run exited zero" >&2
    exit 1
fi
grep -q 'FAIL(panic)'   "$workdir/injected.txt" || { echo "missing FAIL(panic) cell" >&2; exit 1; }
grep -q 'FAIL(no-conv)' "$workdir/injected.txt" || { echo "missing FAIL(no-conv) cell" >&2; exit 1; }
# Isolation: the 19 healthy cells must all have solved around the faults.
grep -q 'solved 19' "$workdir/injected.txt" || { echo "healthy cells did not all solve" >&2; exit 1; }

echo "==> [3/3] resume from the journal with the faults removed"
run_table2 --setting1-only --journal "$journal" \
    --threads 1 --solve-threads 2 --shard-min-states 1 > "$workdir/resumed.txt"
grep -q '(19 replayed)' "$workdir/resumed.txt" || { echo "resume did not replay the 19 checkpointed cells" >&2; exit 1; }

# The '# sweep' diagnostics differ (replay counts, wall time); the grid and
# every other printed line must be byte-identical to the clean run.
if ! diff <(grep -v '^# sweep' "$workdir/clean.txt") \
          <(grep -v '^# sweep' "$workdir/resumed.txt"); then
    echo "FAULT SMOKE FAILED: resumed grid differs from the clean run" >&2
    exit 1
fi

echo "==> fault smoke OK (isolation, degraded rendering, checkpoint resume, thread-option determinism)"
