#!/usr/bin/env bash
# Workspace lint gate, offline-friendly.
#
#   scripts/lint.sh             # fmt check + clippy -D warnings + rustdoc
#                               # -D warnings + custom lints
#   scripts/lint.sh --no-clippy # only fmt + the custom grep lints (fast path)
#
# The custom lint enforces the solver-robustness contract introduced with
# the sweep runner and the audit subsystem: inside the numeric hot paths
# (crates/mdp/src/solve/ and the fault-tolerant sweep runner) non-test code
# must not contain `.unwrap()` / `.expect(` (all failure paths return
# structured MdpError values so one poisoned cell cannot kill a sweep) and
# must not compare floats with `==` / `!=` (tolerance-based comparisons
# only). Test modules (everything at and below a `#[cfg(test)]` marker) are
# exempt.
set -uo pipefail
cd "$(dirname "$0")/.."

export CARGO_NET_OFFLINE=true

fail=0

echo "==> cargo fmt --check"
if ! cargo fmt --check; then
    fail=1
fi

if [[ "${1:-}" != "--no-clippy" ]]; then
    echo "==> cargo clippy --workspace --all-targets -- -D warnings"
    if ! cargo clippy --workspace --all-targets --offline -- -D warnings; then
        fail=1
    fi

    # Broken or private intra-doc links fail the build, so the rendered
    # API docs never point at an item that does not exist.
    echo "==> RUSTDOCFLAGS=\"-D warnings\" cargo doc --no-deps --workspace"
    if ! RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace --offline; then
        fail=1
    fi
fi

echo "==> custom lint: no unwrap/expect/float-eq in solver hot paths"
# The cluster runtime (framing, leases, journal, chaos injection) is held
# to the same contract: a malformed frame, torn journal tail or poisoned
# lock must surface as a structured error, never a panic — the no-unwrap
# lint covers those crates wholesale. Bench binaries are included too:
# they feed BENCH history and CI smokes, so a bad flag or failed solve
# must exit with a structured error, not a panic backtrace. The §5 game
# solvers (crates/games) and the distributed game engine (crates/gamesweep)
# joined the contract when their cells became cluster workloads: a bad
# GameSpec must come back as a structured decode/validate error, and
# equilibrium checks on power fractions must never use exact float
# equality. The CLI's generic cell runner joined with the `Cell` schema
# it shares with serve and the job codec.
targets=(
    crates/mdp/src/solve/*.rs
    crates/mdp/src/shard.rs
    crates/repro/src/sweep.rs
    crates/cluster/src/*.rs
    crates/journal/src/*.rs
    crates/chaos/src/*.rs
    crates/serve/src/*.rs
    crates/bench/src/bin/*.rs
    crates/sim/src/*.rs
    crates/chain/src/*.rs
    crates/scenario/src/*.rs
    crates/games/src/*.rs
    crates/gamesweep/src/*.rs
    crates/cli/src/commands/cell.rs
)
# jobs.rs is exempt from the float-eq lint only: it hosts the ported
# crossval cell whose exact-zero guard is an intentional bitwise
# comparison. Its unwrap-free obligation still applies.
floateq_exempt=(crates/cluster/src/jobs.rs)
for f in "${targets[@]}"; do
    # Strip everything from the first #[cfg(test)] marker on; the lint
    # governs production code only.
    pretest=$(awk '/#\[cfg\(test\)\]/{exit}{print}' "$f")

    hits=$(printf '%s\n' "$pretest" | grep -nE '\.unwrap\(\)|\.expect\(' | grep -vE '^\s*[0-9]+:\s*//')
    if [[ -n "$hits" ]]; then
        echo "LINT: $f: unwrap()/expect() in non-test solver code:"
        printf '%s\n' "$hits" | sed 's/^/    /'
        fail=1
    fi

    skip_floateq=0
    for exempt in "${floateq_exempt[@]}"; do
        [[ "$f" == "$exempt" ]] && skip_floateq=1
    done
    [[ "$skip_floateq" -eq 1 ]] && continue

    # Float equality: a == or != with a float literal (digits '.' digits,
    # or exponent form) on either side.
    floateq=$(printf '%s\n' "$pretest" \
        | grep -nE '(==|!=)[[:space:]]*-?[0-9]+\.[0-9]|-?[0-9]+\.[0-9]+([eE][-+]?[0-9]+)?[[:space:]]*(==|!=)|(==|!=)[[:space:]]*f64::|f64::(NAN|INFINITY|NEG_INFINITY)[[:space:]]*(==|!=)' \
        | grep -vE '^\s*[0-9]+:\s*//')
    if [[ -n "$floateq" ]]; then
        echo "LINT: $f: float == / != comparison in non-test solver code:"
        printf '%s\n' "$floateq" | sed 's/^/    /'
        fail=1
    fi
done

echo "==> custom lint: every atomic Ordering is justified"
# Memory-ordering choices are easy to cargo-cult and hard to review after
# the fact. Every `Ordering::` use in non-test code must carry a
# `// ordering: <why this ordering is sufficient>` comment on the same
# line or the line directly above it. The model checker (crates/check)
# explores interleavings but NOT weak memory, so these justifications are
# the only recorded reasoning about ordering strength.
while IFS= read -r f; do
    bad=$(awk '/#\[cfg\(test\)\]/{exit}
        {
            if ($0 ~ /Ordering::(Relaxed|Acquire|Release|AcqRel|SeqCst)/ \
                && $0 !~ /^[[:space:]]*\/\// \
                && $0 !~ /ordering:/ && prev !~ /ordering:/) {
                print NR": "$0
            }
            prev=$0
        }' "$f")
    if [[ -n "$bad" ]]; then
        echo "LINT: $f: Ordering:: without an \"// ordering:\" justification:"
        printf '%s\n' "$bad" | sed 's/^/    /'
        fail=1
    fi
done < <(find crates -path '*/src/*' -name '*.rs' | sort)

if [[ "$fail" -ne 0 ]]; then
    echo "==> LINT FAILED"
    exit 1
fi
echo "==> LINT OK"
