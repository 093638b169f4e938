//! The solver workloads: `small-ratio`, `large-rvi` and `large-ratio`.
//!
//! Every op is one cell through `bvc_repro::sweep::run_jobs` with one
//! thread, no journal and the default solve options: the entry point the
//! table binaries use. Cells run in passes, each pass in a seeded order,
//! and a cell's time is its best of the k repeats the run gets.

use std::time::Instant;

use bvc_bu::AttackModel;
use bvc_chaos::SplitMix64;
use bvc_mdp::solve::ratio::maximize_ratio_compiled;
use bvc_mdp::solve::rvi::relative_value_iteration_compiled;
use bvc_mdp::CompiledMdp;
use bvc_repro::sweep::{run_jobs, SweepOptions};

use crate::report::{Outcome, Stop};
use crate::stats::{median, BestOf};
use crate::trace::{SpanId, Tracer};
use crate::workload::{
    golden_for, ratio_options, rvi_options, Cell, Solve, Workload, GOLDEN_TOLERANCE,
};

/// The set-up is repeated between passes at most this often. Set-up takes
/// a few milliseconds, shorter than the host's speed phases, so its best
/// over repeats spread across the run is what repeats from run to run.
const SETUP_EVERY_S: f64 = 1.0;

/// Layer spans of the decomposed solve, in call order.
const LAYERS: [&str; 5] = ["core.build", "mdp.compile", "mdp.scalarize", "mdp.ratio", "mdp.rvi"];
const OP_SPAN: &str = "sweep.run_jobs";
const DECOMPOSED_SPAN: &str = "bench.decomposed";

struct Prepared {
    cells: Vec<Cell>,
    golden: Vec<f64>,
}

fn sweep_options() -> SweepOptions {
    SweepOptions { threads: Some(1), ..SweepOptions::default() }
}

/// One op: the cell through `run_jobs`. Returns the value, or why the op
/// failed (solver error, retry, or a value off its golden value); adds
/// the op's retries to `retries`.
fn run_op(cell: &Cell, golden: f64, retries: &mut u64) -> Result<f64, String> {
    let report = run_jobs("bench", std::slice::from_ref(&cell.job), &sweep_options());
    let result = report.cells.first().ok_or_else(|| format!("{}: empty report", cell.key))?;
    *retries += u64::from(result.attempts.saturating_sub(1));
    let values = result.outcome.as_ref().map_err(|e| format!("{}: {e:?}", cell.key))?;
    if result.attempts != 1 {
        return Err(format!("{}: solved after {} attempts", cell.key, result.attempts));
    }
    let [value] = values[..] else {
        return Err(format!("{}: expected one value, got {values:?}", cell.key));
    };
    if (value - golden).abs() > GOLDEN_TOLERANCE {
        return Err(format!("{}: value {value} is off golden {golden}", cell.key));
    }
    Ok(value)
}

/// Everything before the first timed op: the cell list, its golden values,
/// and one untimed warm-up op (first-touch page faults, allocator arenas).
fn setup(workload: Workload) -> Result<Prepared, String> {
    let cells = workload.cells();
    let golden = golden_for(&cells)?;
    let warm = Workload::SmallRatio.cells().swap_remove(0);
    let warm_golden = golden_for(std::slice::from_ref(&warm))?[0];
    run_op(&warm, warm_golden, &mut 0)?;
    Ok(Prepared { cells, golden })
}

fn timed_setup(workload: Workload, times: &mut Vec<(Instant, f64)>) -> Result<Prepared, String> {
    let t = Instant::now();
    let prepared = setup(workload)?;
    times.push((t, t.elapsed().as_secs_f64()));
    Ok(prepared)
}

/// The op id of cell `cell` in pass `pass`: the cell index in the low 32
/// bits, so spans map back to their cell with no per-op bookkeeping.
fn op_id(pass: u32, cell: usize) -> u64 {
    u64::from(pass) << 32 | cell as u64
}

fn cell_of(op: u64) -> usize {
    (op & 0xffff_ffff) as usize
}

/// A seeded permutation of `0..n` (Fisher–Yates).
fn shuffled(n: usize, rng: &mut SplitMix64) -> Vec<usize> {
    let mut order: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        order.swap(i, rng.next_range(i as u64 + 1) as usize);
    }
    order
}

/// Exact work counts of one cell, from its decomposed solve.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CellCounts {
    pub states: u64,
    pub transitions: u64,
    pub ratio_inner_solves: u64,
    pub rvi_iterations: u64,
}

/// Solves `cell` layer by layer under spans and returns its value and
/// counts: build, compile, then the ratio solver or scalarize + RVI, with
/// the options `JobSpec::solve` uses.
fn decomposed(
    cell: &Cell,
    op: u64,
    tracer: &mut Tracer,
    root: SpanId,
) -> Result<(f64, CellCounts), String> {
    let fail = |e: bvc_mdp::MdpError| format!("{} (decomposed): {e}", cell.key);
    let span = tracer.enter("core.build", op, Some(root));
    let model = AttackModel::build(cell.config.clone()).map_err(fail)?;
    tracer.exit(span);

    let span = tracer.enter("mdp.compile", op, Some(root));
    let compiled = CompiledMdp::compile(model.mdp()).map_err(fail)?;
    match &cell.solve {
        Solve::Ratio(num, den) => {
            compiled.validate_objective(num).map_err(fail)?;
            compiled.validate_objective(den).map_err(fail)?;
        }
        Solve::Rvi(objective) => compiled.validate_objective(objective).map_err(fail)?,
    }
    tracer.exit(span);

    let mut counts = CellCounts {
        states: model.num_states() as u64,
        transitions: compiled.num_transitions() as u64,
        ..CellCounts::default()
    };
    let value = match &cell.solve {
        Solve::Ratio(num, den) => {
            let span = tracer.enter("mdp.ratio", op, Some(root));
            let sol =
                maximize_ratio_compiled(&compiled, num, den, &ratio_options()).map_err(fail)?;
            tracer.exit(span);
            counts.ratio_inner_solves = sol.inner_solves as u64;
            sol.value
        }
        Solve::Rvi(objective) => {
            let span = tracer.enter("mdp.scalarize", op, Some(root));
            let rewards = compiled.scalarize(objective);
            tracer.exit(span);
            let span = tracer.enter("mdp.rvi", op, Some(root));
            let sol = relative_value_iteration_compiled(&compiled, &rewards, &rvi_options())
                .map_err(fail)?;
            tracer.exit(span);
            counts.rvi_iterations = sol.iterations as u64;
            sol.gain
        }
    };
    Ok((value, counts))
}

/// Runs a solver workload. With `trace`, passes alternate between traced
/// passes (each op followed by its decomposed solve, all under spans) and
/// untraced ones, which gives the tracing overhead within one run.
pub fn run(workload: Workload, seed: u64, stop: Stop, trace: bool) -> Result<Outcome, String> {
    let mut setups = Vec::new();
    let Prepared { cells, golden } = timed_setup(workload, &mut setups)?;
    let n = cells.len();

    let epoch = Instant::now();
    let mut tracer = Tracer::new(epoch);
    let mut out = Outcome::default();
    let mut untraced = BestOf::new(n);
    let mut traced = BestOf::new(n);
    let mut counts: Vec<Option<CellCounts>> = vec![None; n];
    let mut mismatches = 0u64;
    let mut retries = 0u64;
    let mut rng = SplitMix64::new(seed);
    let mut pass = 0u32;
    'passes: loop {
        if setups.last().is_some_and(|(t, _)| t.elapsed().as_secs_f64() >= SETUP_EVERY_S) {
            timed_setup(workload, &mut setups)?;
        }
        let traced_pass = trace && pass.is_multiple_of(2);
        for i in shuffled(n, &mut rng) {
            let done = untraced.complete() && (!trace || traced.complete());
            if done && stop.reached(epoch, pass) {
                break 'passes;
            }
            let cell = &cells[i];
            let op = op_id(pass, i);
            out.attempted += 1;
            let t = Instant::now();
            let span = traced_pass.then(|| tracer.enter(OP_SPAN, op, None));
            let result = run_op(cell, golden[i], &mut retries);
            let elapsed = t.elapsed().as_secs_f64();
            if let Some(span) = span {
                tracer.exit(span);
            }
            if traced_pass { &mut traced } else { &mut untraced }.record(i, elapsed);
            let value = match result {
                Ok(v) => v,
                Err(e) => {
                    out.fail(e);
                    continue;
                }
            };
            if !traced_pass {
                continue;
            }
            let root = tracer.enter(DECOMPOSED_SPAN, op, None);
            let (dvalue, c) = decomposed(cell, op, &mut tracer, root)?;
            tracer.exit(root);
            if dvalue.to_bits() != value.to_bits() {
                mismatches += 1;
                out.note(format!("{}: decomposed {dvalue} != run_jobs {value}", cell.key));
            }
            if *counts[i].get_or_insert(c) != c {
                mismatches += 1;
                out.note(format!("{}: work counts changed between passes", cell.key));
            }
        }
        pass += 1;
    }
    out.correct = out.failed == 0 && mismatches == 0;
    out.note(format!(
        "{n} cells, {pass} passes, {} set-ups, fewest repeats per cell {}",
        setups.len(),
        if trace {
            traced.min_repeats().min(untraced.min_repeats())
        } else {
            untraced.min_repeats()
        }
    ));

    if !trace {
        let best = untraced.values();
        let best_ms: Vec<f64> = best.iter().map(|s| s * 1e3).collect();
        let tail = best_ms.iter().copied().fold(0.0, f64::max);
        out.note(format!("p50_ms and tail_ms: median and slowest of {n} per-cell best-of-k times"));
        out.metric("throughput_per_s", n as f64 / untraced.sum());
        out.metric("p50_ms", median(&best_ms));
        out.metric("tail_ms", tail);
        out.metric("peak_heap_mb", crate::alloc::peak_bytes() as f64 / 1e6);
        out.metric("setup_s", setups.iter().map(|&(_, s)| s).fold(f64::INFINITY, f64::min));
        return Ok(out);
    }

    layer_metrics(&mut out, &tracer, n, &counts, &traced, &untraced);
    out.metric("sweep.retries", retries as f64);
    out.tracer = Some(tracer);
    Ok(out)
}

/// Per-layer metrics from the spans: each layer's self time, best of k per
/// cell, summed over cells; plus the exact work counts.
fn layer_metrics(
    out: &mut Outcome,
    tracer: &Tracer,
    n: usize,
    counts: &[Option<CellCounts>],
    traced: &BestOf,
    untraced: &BestOf,
) {
    let self_ns = tracer.self_ns();
    let names: Vec<&str> = LAYERS.iter().copied().chain([OP_SPAN, DECOMPOSED_SPAN]).collect();
    let mut best: Vec<BestOf> = names.iter().map(|_| BestOf::new(n)).collect();
    for (id, span) in tracer.spans().iter().enumerate() {
        let Some(slot) = names.iter().position(|&name| name == span.name) else { continue };
        // The decomposed root is timed whole; layers by their self time.
        let ns = if span.name == DECOMPOSED_SPAN { span.duration_ns() } else { self_ns[id] };
        best[slot].record(cell_of(span.op), ns as f64 / 1e6);
    }
    let total_ms = |name: &str| -> f64 {
        let slot = names.iter().position(|&n| n == name).expect("known span name");
        best[slot].values().iter().filter(|v| v.is_finite()).fold(0.0, |a, v| a + v)
    };
    let total: CellCounts =
        counts.iter().flatten().fold(CellCounts::default(), |a, c| CellCounts {
            states: a.states + c.states,
            transitions: a.transitions + c.transitions,
            ratio_inner_solves: a.ratio_inner_solves + c.ratio_inner_solves,
            rvi_iterations: a.rvi_iterations + c.rvi_iterations,
        });
    let visits: u64 = counts.iter().flatten().map(|c| c.rvi_iterations * c.transitions).sum();
    let op_ms = total_ms(OP_SPAN);
    let layers_ms: f64 = LAYERS.iter().map(|l| total_ms(l)).sum();
    let per = |num: f64, den: u64| if den == 0 { 0.0 } else { num / den as f64 };
    let throughput = |b: &BestOf| if b.complete() { n as f64 / b.sum() } else { 0.0 };

    out.metric("core.build_ms", total_ms("core.build"));
    out.metric("core.states", total.states as f64);
    out.metric("core.transitions", total.transitions as f64);
    out.metric("mdp.compile_ms", total_ms("mdp.compile"));
    out.metric("mdp.scalarize_ms", total_ms("mdp.scalarize"));
    out.metric("mdp.ratio_ms", total_ms("mdp.ratio"));
    out.metric("mdp.ratio_inner_solves", total.ratio_inner_solves as f64);
    out.metric(
        "mdp.ratio_ms_per_inner_solve",
        per(total_ms("mdp.ratio"), total.ratio_inner_solves),
    );
    out.metric("mdp.rvi_ms", total_ms("mdp.rvi"));
    out.metric("mdp.rvi_iterations", total.rvi_iterations as f64);
    out.metric("mdp.rvi_transition_visits", visits as f64);
    out.metric("mdp.rvi_ns_per_transition", per(total_ms("mdp.rvi") * 1e6, visits));
    out.metric("sweep.op_ms", op_ms);
    out.metric("sweep.self_ms", op_ms - total_ms(DECOMPOSED_SPAN));
    out.metric("trace.coverage", if op_ms > 0.0 { layers_ms / op_ms } else { 0.0 });
    let (t, u) = (throughput(traced), throughput(untraced));
    out.metric("trace.throughput_per_s", t);
    out.metric("trace.untraced_throughput_per_s", u);
    out.metric("trace.overhead_pct", if u > 0.0 { (u - t) / u * 100.0 } else { 0.0 });
}

#[cfg(test)]
mod tests {
    use super::*;

    fn counts(outcome: &Outcome) -> Vec<(&'static str, f64)> {
        const EXACT: [&str; 6] = [
            "core.states",
            "core.transitions",
            "mdp.ratio_inner_solves",
            "mdp.rvi_iterations",
            "mdp.rvi_transition_visits",
            "sweep.retries",
        ];
        outcome.metrics.iter().filter(|(name, _)| EXACT.contains(name)).copied().collect()
    }

    /// The exact counts repeat across two runs with the same seed, and the
    /// decomposed solves match `run_jobs` bit for bit (`correct`).
    #[test]
    fn exact_counts_repeat_and_decomposition_matches() {
        for workload in [Workload::SmallRatio, Workload::SmallRvi] {
            let a = run(workload, 7, Stop::Work(1), true).expect("first run");
            let b = run(workload, 7, Stop::Work(1), true).expect("second run");
            assert!(a.correct && b.correct, "{}: {:?}", workload.name(), a.notes);
            assert_eq!(a.failed, 0);
            assert_eq!(counts(&a).len(), 6);
            assert_eq!(counts(&a), counts(&b), "{}", workload.name());
            let nonzero = |name: &str| counts(&a).iter().any(|&(n, v)| n == name && v > 0.0);
            assert!(nonzero("core.states") && nonzero("core.transitions"));
            match workload {
                Workload::SmallRvi => assert!(nonzero("mdp.rvi_iterations")),
                _ => assert!(nonzero("mdp.ratio_inner_solves")),
            }
        }
    }

    #[test]
    fn shuffle_is_a_seeded_permutation() {
        let a = shuffled(30, &mut SplitMix64::new(1));
        let mut sorted = a.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..30).collect::<Vec<_>>());
        assert_eq!(a, shuffled(30, &mut SplitMix64::new(1)));
        assert_ne!(a, shuffled(30, &mut SplitMix64::new(2)));
    }
}
