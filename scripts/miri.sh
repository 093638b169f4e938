#!/usr/bin/env bash
# Best-effort Miri pass over the lock-free hot spot: the serve metrics
# counters (bvc_serve::metrics). The module carries concurrent tests sized
# specifically to finish quickly under Miri's interpreter.
#
# Miri ships only with nightly and needs a one-time setup step, so this
# script detects the prerequisites and SKIPS cleanly (exit 0) when they
# are missing — the authoritative concurrency gate is the bvc-check model
# suite (scripts/verify.sh, "model-check").
#
#   scripts/miri.sh          # run if nightly+miri present, else skip
set -uo pipefail
cd "$(dirname "$0")/.."

export CARGO_NET_OFFLINE=true

if ! command -v rustup >/dev/null 2>&1; then
    echo "==> MIRI SKIPPED: rustup not installed"
    exit 0
fi
if ! rustup toolchain list 2>/dev/null | grep -q '^nightly'; then
    echo "==> MIRI SKIPPED: no nightly toolchain (offline container ships stable only)"
    exit 0
fi
if ! rustup component list --toolchain nightly 2>/dev/null | grep -q 'miri (installed)'; then
    echo "==> MIRI SKIPPED: miri component not installed on nightly"
    exit 0
fi

echo "==> Miri: bvc_serve::metrics unit tests"
# MIRIFLAGS: -Zmiri-many-seeds exercises several weak-memory schedules per
# test; isolation stays on (the targeted tests touch no clock or fs).
CARGO_TARGET_DIR=target/miri \
MIRIFLAGS="-Zmiri-many-seeds=0..4" \
cargo +nightly miri test -q --offline -p bvc-serve --lib metrics::
status=$?
if [[ $status -ne 0 ]]; then
    echo "==> MIRI FAILED"
    exit $status
fi
echo "==> MIRI OK"
