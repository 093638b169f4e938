#!/usr/bin/env bash
# Tier-1 verification gate, offline-friendly.
#
# Everything this workspace depends on lives in-tree (the proptest API shim
# is the path crate `crates/propcheck`), so the whole gate must pass with no
# registry or network access.
#
#   scripts/verify.sh             # lint, build, workspace tests, named gates, smokes
#   scripts/verify.sh --no-smoke  # skip the journal diffs and the smoke scripts
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

echo "==> model-check gate (bvc-check scheduler + cache/coordinator/claim-loop models)"
# Exhaustive interleaving exploration of the three ported concurrency
# algorithms under the bvc-check controlled scheduler (preemption bound 2).
# The shims only compile in under --cfg bvc_check; the isolated target dir
# keeps the instrumented artifacts out of the production build cache. The
# claim loop's own models (exactly-once claims, panic propagation) are
# bvc-repro unit tests; its `tests/model.rs` checks the sweep's fail-fast stop.
RUSTFLAGS="--cfg bvc_check" CARGO_TARGET_DIR=target/check \
    cargo test -q --offline -p bvc-check -p bvc-serve -p bvc-cluster -p bvc-repro \
    --test selfcheck --test model
RUSTFLAGS="--cfg bvc_check" CARGO_TARGET_DIR=target/check \
    cargo test -q --offline -p bvc-repro --lib -- model::

echo "==> table pins (Table 2 and Bitcoin Table 3 cells at their reproduced values)"
# Explicitly re-run the published-cell pins, so a solver regression names
# this gate instead of drowning in the full workspace test list above. Every
# solve is exact: BU cells by renewal passes over the cycle from state 0,
# the Bitcoin cells by policy iteration over a regeneration set of 80 of
# 3,981 states at cap 40, so the Bitcoin Table 3 pin is the table cell that reaches the LU
# evaluation.
cargo test -q --offline -p bvc-bu --test table2_pins
cargo test -q --offline -p bvc-bitcoin --test table3_pins

echo "==> ratio gate (Dinkelbach loop vs reference bisection and enumeration; Table 2 vs reference; Bitcoin u1 pins)"
# Every ratio solve is one Dinkelbach loop of exact steps. On models with a
# cycle avoiding state 0 (gain solves by policy iteration) its value must
# lie within the tolerance of the plain reference bisection on rho
# (`solve::reference`, RVI probes on the same CSR model, no shared search
# code), equal the returned policy's own evaluated (N - eps) / D to 1e-12,
# and equal the enumerated crossing max (N - eps) / D over every policy
# (dense-solve rates) to 1e-12. On regenerative models (renewal passes)
# the value must be within the tolerance of the best enumerated policy and
# equal, to 1e-12, the enumerated crossing max (N - eps*L) / D.
cargo test -q --offline -p bvc-mdp --test proptest_solvers -- \
    ratio_matches_bisection_reference ratio_equals_the_enumerated_crossing_on_cyclic_models \
    renewal_ratio_matches_policy_enumeration renewal_ratio_equals_the_enumerated_crossing
# The same reference bisection on real cells: the six α = 10% Table 2
# cells, production (renewal loop) within the ratio tolerance of the
# reference (RVI probes).
cargo test -q --offline -p bvc-bu --test table2_pins -- \
    table2_alpha10_column_matches_reference_solver
# The policy-iteration steps on real cells: twelve Bitcoin u1 cells within
# half a tolerance of the values the earlier search on rho gave, each equal
# to its own policy's (N - eps) / D to 1e-9.
cargo test -q --offline -p bvc-bitcoin --test ratio_pins

echo "==> gain-oracle gate (exact gain and bias vs every enumerated policy, its own policy and reference RVI)"
# The gain must be the best deterministic policy's rate: equal to the
# enumerated optimum (all policies, at most 32 per random model, each by a
# dense solve) and to its own policy's evaluated rate, both to 1e-12, and
# within reference RVI's tolerance of RVI's gain, on models with a cycle
# avoiding state 0, with the bias solving its policy's average-reward
# equations to 1e-9; on regenerative models the renewal gain and bias must
# match enumeration, reference RVI and those equations likewise.
cargo test -q --offline -p bvc-mdp --test proptest_solvers -- \
    gain_matches_policy_evaluation gain_equals_the_enumerated_optimum \
    gain_matches_reference_rvi renewal_gain_matches_rvi_and_enumeration

echo "==> exact-evaluation gate (exact policy evaluation and first passages vs dense solves and references; real-cell pins)"
# Fixed-policy evaluation is exact on every model: one forward pass on
# regenerative models (every BU model), an LU solve on the regeneration set
# plus one forward pass otherwise; a first passage is one backward pass.
# The stationary law and rates must equal a dense solve of pi P = pi to
# 1e-12 on models with a cycle avoiding state 0 and the reference power
# method's to 1e-9 on regenerative ones, a multichain policy must be the
# structured MultichainPolicy error, and first-passage probabilities and
# steps must equal a dense linear solve's to 1e-12. On the paper's cells,
# every Table 3 optimal policy must evaluate to its solved u2 within
# 1e-12, honest Table 2 policies to u1 = u2 = alpha within 1e-15, and the
# ablation-ad episode metrics must hold the values the iterative solvers
# found to 1e-9 relative.
cargo test -q --offline -p bvc-mdp --test proptest_solvers -- \
    eval_matches_dense_stationary_solve multichain_policy_is_a_structured_error \
    exact_eval_matches_reference first_passage_matches_dense_solve
cargo test -q --offline -p bvc-cluster --test exact_evaluation

echo "==> model-build gate (pinned model fingerprints + Table 1 generator rows + writer errors + sparse scalarization)"
# Every BU and Bitcoin model of the pinned grids must hash to the recorded
# fingerprint (same states, ids, transitions and reward bits) and pass the
# audit's CSR-layout check, the BU generator must still reproduce the
# corrected Table 1 row by row, and explore's CSR writer must report every
# malformed expansion with the error explore-then-validate returned. BU and
# Bitcoin builds re-weight the thread's last graph of the same key: every
# model of both BU grids and of the Bitcoin grid, built forward and
# reversed, must equal a cold explore with no refill fallback, and refill
# must return explore's model or error, or no model when the expansion's
# graph differs. refill checks the weights in flat passes and names an
# error only through the ordered per-arm check, so
# refill_fallback_names_explores_first_error holds that check to explore's
# first error where several passes fail (a bad sum before a NaN reward, a
# NaN probability after a negative one) or an infinite reward. The sparse
# scalarization skips zero weights; scalarize_into_matches_the_dense_dot
# holds it to the dense serial dot product bit for bit on random models
# with signed zeros, cancelling terms and zero weights.
cargo test -q --offline -p bvc-bu -p bvc-bitcoin --test model_fingerprint
cargo test -q --offline -p bvc-bu --lib table1
cargo test -q --offline -p bvc-mdp --test explore_errors -- \
    explore_errors_match_explore_then_validate refill_errors_match_explore \
    refill_matches_explore_or_falls_back refill_fallback_names_explores_first_error
cargo test -q --offline -p bvc-mdp --test proptest_solvers -- \
    scalarize_into_matches_the_dense_dot

echo "==> replay lockstep gate (every chain-replay step lands in its MDP row; grid replay cell pinned)"
# The chain replay (bvc_sim::attack, one replay for the three-miner and the
# N-node worlds) derives the MDP state from real BU node views after every
# block and panics unless it is a destination of the policy's arm in the
# previous state; successor_id's unit test holds the check to accepting
# exactly the row's successors. The consistency tests run long replays of
# optimal policies through it, and the scenario grid's MDP-replay cell is
# pinned bit for bit, so a silent change to the replay's stream fails here.
# At every agreement the replay resets its block tree and node views in
# place; the chain test holds a reset pair equal to a fresh one.
cargo test -q --offline -p bvc-chain --lib -- reset_equals_a_fresh_tree_and_view
cargo test -q --offline -p bvc-sim --lib -- attack::
cargo test -q --offline -p bvc --test chain_model_consistency
cargo test -q --offline -p bvc-scenario --lib -- grid_mdp_cell_is_pinned \
    mdp_replay_cell_matches_exact_u1

echo "==> cell-identity gate (solve token pin + cell keys + table-cell parsers + route bodies)"
# Every journal fingerprint and serve cache key hashes the default solve
# token and a cell key; a drift in either orphans old journals and turns
# preloaded serve hits into misses. Re-run the pins so such a drift fails
# under this name; the workload pin folds every registry workload's cell
# fingerprints into one literal per workload. The table-cell contract runs one parameter table through
# serve's GET query and POST body parsers and `bvc solve`'s flags: the same
# config (bit-equal alpha) or the same rejected parameter from all three.
# The schema-cell contract (scenario, game-map and frontier cells, one
# `Cell` impl each) holds serve's metric names to `bvc … --json`'s, in
# order. The body pins hold every cached route's full response bodies,
# miss → hit → hit, so a hit answered from the cell's stored reply is
# byte-identical to a rendered one; the alias pin holds two alphas that
# share one cell key to replies that each echo their own alpha, beta and
# gamma.
cargo test -q --offline -p bvc-cluster --lib -- solve_token_is_pinned keys_ \
    workload_fingerprints_are_pinned
cargo test -q --offline -p bvc-serve --lib -- _key cell_route_bodies_are_pinned \
    table_route_bodies_are_pinned alpha_alias_replies_echo_their_own_inputs
cargo test -q --offline -p bvc-cli -- table_cell_parsers_agree cell_metric_keys_agree

echo "==> decoder gate (journal lines, cluster frames, job specs, chaos specs, HTTP requests)"
# Every decoder of bytes that arrive from outside the process (a journal
# torn by a crash, a frame or job spec off the socket, a --chaos or
# BVC_CHAOS fault plan, an HTTP request stream) runs over every
# proper prefix and every single-byte delimiter replacement of valid
# encodings (`proptest::mutate`): each must return a value or an error,
# never panic, and no torn journal line may parse.
cargo test -q --offline -p bvc-journal --lib -- journal_line_mutants_never_panic
cargo test -q --offline -p bvc-cluster --lib -- frame_mutants_never_panic \
    decode_never_panics_on_truncated_or_corrupted_wire
cargo test -q --offline -p bvc-chaos --lib -- plan_mutants_never_panic
cargo test -q --offline -p bvc-serve --lib -- request_mutants_never_panic

echo "==> benchmark self-tests (exact counts repeat, decomposition is bit-exact)"
# The benchmark is its own Cargo workspace, so the workspace test run above
# does not reach it; its decomposition check requires run_jobs and the
# layer-by-layer solve to agree bit for bit.
cargo test -q --release --offline --manifest-path bvcbench/Cargo.toml

if [[ "${1:-}" != "--no-smoke" ]]; then
    echo "==> graph-reuse determinism diff (Table 3 and Table 4 grids, --threads 1 vs --threads 2)"
    # Each sweep thread re-weights its own last graph, so which cells hit
    # the cache depends on the thread count; the journals (every value's
    # full f64 bits) must not. Table 4's 18 cells use two graph keys, so
    # its threads mix exploring and re-weighting builds.
    jdir=$(mktemp -d)
    for table in table3 table4; do
        target/release/$table --threads 1 --journal "$jdir/$table-one.jnl" > /dev/null
        target/release/$table --threads 2 --journal "$jdir/$table-two.jnl" > /dev/null
        if ! cmp "$jdir/$table-one.jnl" "$jdir/$table-two.jnl"; then
            echo "VERIFY FAILED: $table journal at --threads 2 diverged from --threads 1" >&2
            rm -rf "$jdir"
            exit 1
        fi
    done
    rm -rf "$jdir"

    echo "==> sweep-runner fault-injection smoke (panic/no-conv/resume)"
    TABLE2_BIN=target/release/table2 scripts/fault_smoke.sh

    echo "==> serve smoke (HTTP cache hit/miss, audit 422, shedding, drain)"
    BVC_BIN=target/release/bvc scripts/serve_smoke.sh

    echo "==> table2 smoke (SIGKILL resume, killed worker, coordinator crash points and" \
         "SIGKILL restart; byte-identical journals)"
    timeout 120 env BVC_BIN=target/release/bvc TABLE2_BIN=target/release/table2 \
        scripts/workload_smoke.sh table2

    echo "==> scenario smoke (SIGKILL resume + killed worker, byte-identical journals)"
    BVC_BIN=target/release/bvc SCENARIO_BIN=target/release/scenario_crossval \
        scripts/workload_smoke.sh scenario

    echo "==> games smoke (frontier SIGKILL resume + killed worker, byte-identical journals)"
    BVC_BIN=target/release/bvc GAMES_BIN=target/release/games_map \
        scripts/workload_smoke.sh games

    echo "==> chaos soak (in-process fault matrix: churn, drops, torn appends)"
    cargo run --release --offline -q -p bvc-bench --bin chaos_soak
fi

echo "==> OK"
