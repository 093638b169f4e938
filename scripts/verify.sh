#!/usr/bin/env bash
# Tier-1 verification gate, offline-friendly.
#
# Everything this workspace depends on lives in-tree (the proptest API shim
# is the path crate `crates/propcheck`), so the whole gate must pass with no
# registry or network access.
#
#   scripts/verify.sh           # build + full workspace tests + timing smoke
#   scripts/verify.sh --no-smoke  # skip the sweep_timing smoke run
set -euo pipefail
cd "$(dirname "$0")/.."

# --offline makes "accidentally grew a registry dependency" a hard error
# rather than a hidden network fetch.
export CARGO_NET_OFFLINE=true

echo "==> lint gate (fmt + clippy + solver-robustness lints)"
scripts/lint.sh

echo "==> cargo build --release (offline)"
cargo build --release --offline --workspace

echo "==> cargo test (offline, all workspace crates)"
cargo test -q --offline --workspace

echo "==> model-check gate (bvc-check scheduler + cache/coordinator/parallel_map models)"
# Exhaustive interleaving exploration of the three ported concurrency
# algorithms under the bvc-check controlled scheduler (preemption bound 2).
# The shims only compile in under --cfg bvc_check; the isolated target dir
# keeps the instrumented artifacts out of the production build cache.
RUSTFLAGS="--cfg bvc_check" CARGO_TARGET_DIR=target/check \
    cargo test -q --offline -p bvc-check -p bvc-serve -p bvc-cluster -p bvc-repro \
    --test selfcheck --test model

echo "==> sharded-kernel gate (bit-identity proptests + threaded Table 2 and Bitcoin Table 3 pins)"
# Explicitly re-run the tests that pin the threaded kernel's determinism
# contract (bit-identical gain/bias/policy for every solve_threads), so a
# threading regression names this gate instead of drowning in the full
# workspace test list above. The Bitcoin Table 3 pin is the one that
# reaches the sharded kernel from a table cell: every BU cell solves by
# exact renewal passes, the Bitcoin models by RVI.
cargo test -q --offline -p bvc-mdp --test proptest_solvers -- \
    sharded_rvi_bit_identical_across_thread_counts threaded_rvi_matches_reference
cargo test -q --offline -p bvc-bu --test table2_pins
cargo test -q --offline -p bvc-bitcoin --test table3_pins

echo "==> ratio-search gate (secant search vs nested reference, bisection and enumeration)"
# On models with a cycle avoiding state 0 (RVI probes) the secant search on
# rho must take the same probes and inner iterations on the compiled and
# nested paths; it must land within the tolerance of plain bisection with at
# most three times its inner solves; and on regenerative models (exact
# renewal probes) within the tolerance of the best enumerated policy.
cargo test -q --offline -p bvc-mdp --test proptest_solvers -- \
    compiled_ratio_matches_nested ratio_search_matches_bisection_oracle \
    renewal_ratio_matches_policy_enumeration

echo "==> gain-oracle gate (RVI gain vs every enumerated policy, nested RVI and renewal)"
# RVI's gain must be the best deterministic policy's rate: no enumerated
# policy beats it (all of them, at most 32 per random model) and its own
# policy attains it. RVI must also match the nested reference, and on
# regenerative models the renewal gain must match RVI and enumeration.
cargo test -q --offline -p bvc-mdp --test proptest_solvers -- \
    rvi_gain_matches_policy_evaluation rvi_dominates_enumerated_policies \
    compiled_rvi_matches_nested renewal_gain_matches_rvi_and_enumeration

echo "==> model-build gate (pinned model fingerprints + Table 1 generator rows)"
# Every BU and Bitcoin model of the pinned grids must hash to the recorded
# fingerprint (same states, ids, transitions and reward bits), and the BU
# generator must still reproduce the corrected Table 1 row by row.
cargo test -q --offline -p bvc-bu -p bvc-bitcoin --test model_fingerprint
cargo test -q --offline -p bvc-bu --lib table1

echo "==> cell-identity gate (solve token pin + cluster and serve cell keys + table-cell parsers)"
# Every journal fingerprint and serve cache key hashes the default solve
# token and a cell key; a drift in either orphans old journals and turns
# preloaded serve hits into misses. Re-run the pins so such a drift fails
# under this name. The table-cell contract runs one parameter table through
# serve's GET query and POST body parsers and `bvc solve`'s flags: the same
# config (bit-equal alpha) or the same rejected parameter from all three.
cargo test -q --offline -p bvc-cluster --lib -- solve_token_is_pinned keys_
cargo test -q --offline -p bvc-serve --lib -- _key
cargo test -q --offline -p bvc-cli -- table_cell_parsers_agree

echo "==> benchmark self-tests (exact counts repeat, decomposition is bit-exact)"
# The benchmark is its own Cargo workspace, so the workspace test run above
# does not reach it; its decomposition check requires run_jobs and the
# layer-by-layer solve to agree bit for bit.
cargo test -q --release --offline --manifest-path bvcbench/Cargo.toml

if [[ "${1:-}" != "--no-smoke" ]]; then
    echo "==> sweep_timing smoke (Table 2, quick column)"
    cargo run --release --offline -p bvc-bench --bin sweep_timing -- --quick

    echo "==> sharded-kernel determinism diff (Bitcoin Table 3 grid, --solve-threads 4)"
    # The same grid solved serially and through the sharded kernel must
    # write cmp-identical journals (every value's full f64 bits). The
    # Bitcoin models are the table cells still solved by RVI; every BU cell
    # solves by exact renewal passes and never reaches the sharded kernel.
    jdir=$(mktemp -d)
    target/release/table3_bitcoin --threads 1 --journal "$jdir/serial.jnl" > /dev/null
    target/release/table3_bitcoin --threads 1 --solve-threads 4 --shard-min-states 1 \
        --journal "$jdir/sharded.jnl" > /dev/null
    if ! cmp "$jdir/serial.jnl" "$jdir/sharded.jnl"; then
        echo "VERIFY FAILED: sharded Bitcoin table3 journal diverged from serial" >&2
        rm -rf "$jdir"
        exit 1
    fi
    rm -rf "$jdir"

    echo "==> sweep-runner fault-injection smoke (panic/no-conv/resume)"
    TABLE2_BIN=target/release/table2 scripts/fault_smoke.sh

    echo "==> serve smoke (HTTP cache hit/miss, audit 422, shedding, drain)"
    BVC_BIN=target/release/bvc scripts/serve_smoke.sh

    echo "==> cluster smoke (killed worker, lease recovery, byte-identical journal)"
    BVC_BIN=target/release/bvc TABLE2_BIN=target/release/table2 scripts/cluster_smoke.sh

    echo "==> scenario smoke (SIGKILL resume + killed worker, byte-identical journals)"
    BVC_BIN=target/release/bvc SCENARIO_BIN=target/release/scenario_crossval \
        scripts/workload_smoke.sh scenario

    echo "==> games smoke (frontier SIGKILL resume + killed worker, byte-identical journals)"
    BVC_BIN=target/release/bvc GAMES_BIN=target/release/games_map \
        scripts/workload_smoke.sh games

    echo "==> chaos soak (in-process fault matrix: churn, drops, torn appends)"
    cargo run --release --offline -q -p bvc-bench --bin chaos_soak

    echo "==> chaos smoke (crash points, SIGKILL restart-resume, reconnect)"
    timeout 90 env BVC_BIN=target/release/bvc TABLE2_BIN=target/release/table2 \
        scripts/chaos_smoke.sh
fi

echo "==> OK"
