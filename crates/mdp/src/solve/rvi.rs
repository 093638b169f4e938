//! Average-reward (gain-optimal) solving of undiscounted MDPs: exact
//! renewal passes on regenerative models, relative value iteration
//! otherwise.
//!
//! The paper's mining models are unichain average-reward MDPs
//! ("undiscounted average reward MDP" per Sapirshtein et al.), where the
//! quantity of interest is the long-run expected reward per step (the
//! *gain*).
//!
//! ## Engine dispatch
//!
//! One place, `GainEngine`, chooses the engine, once per solve, for both
//! [`relative_value_iteration_compiled`] (and so
//! [`relative_value_iteration`]) and every probe of the ratio solver: it
//! validates the shared options and checks whether state 0 is a
//! regeneration state ([`regeneration_order`]). Every BU attack model is,
//! with state 0 = `BASE`; their gain solves (Table 3's `u2`) then run one
//! [`renewal`](crate::solve::renewal) Dinkelbach loop, each step one
//! backward DP pass, and return the **exact** gain, its policy and that
//! policy's bias. Models with a cycle that avoids state 0 (the Bitcoin
//! baselines, for one) run the RVI kernel below. [`RviSolution::engine`]
//! names the engine that ran. Both engines share the error contract (bad
//! `aperiodicity_tau`, wrong-length rewards or warm start, budget and
//! cancellation once per iteration or pass); a renewal solve ignores a
//! correctly sized warm start and never reports `NoConvergence`.
//!
//! ## The RVI kernel
//!
//! To guarantee convergence on periodic chains (common in mining models,
//! where deterministic reset cycles occur), the kernel applies the standard
//! aperiodicity transform: each action is mixed with a probability-`tau`
//! self-loop of zero reward. The transform scales the gain by `(1 - tau)`
//! and leaves optimal policies unchanged; the reported gain is rescaled back.
//!
//! The Bellman sweeps run on a [`CompiledMdp`]: rewards are collapsed to one
//! expected scalar per arm up front ([`CompiledMdp::scalarize`]) and the
//! inner loop walks flat probability/destination arrays. The low-level
//! [`rvi_kernel`] works entirely in caller-owned buffers — zero heap
//! allocation per iteration *and* per solve — which is what lets the ratio
//! solver warm-start every RVI probe of its search on ρ in place.
//!
//! ## Execution modes
//!
//! The kernel has two sweep strategies, selected by [`RviOptions`]:
//!
//! * **Single-threaded Jacobi** (the default): one pass per iteration,
//!   restructured for auto-vectorization — streaming cursors over the CSR
//!   arrays, a hoisted aperiodicity blend, branch-free max selection, and
//!   the reference-state normalization fused into the sweep.
//! * **Sharded Jacobi** (`solve_threads > 1`): the state range is split
//!   across a pool of workers that persists for the whole solve; each shard
//!   writes a disjoint slice of the next iterate and reports a local span,
//!   reduced with order-independent `min`/`max`. Results are **bit-identical
//!   to the single-threaded path for every thread count** — see
//!   `crate::shard` for the argument.

use std::sync::mpsc;

use crate::budget::SolveBudget;
use crate::compiled::CompiledMdp;
use crate::error::MdpError;
use crate::model::{Objective, Policy};
use crate::shard::{
    effective_threads, shard_ranges, AtomicBias, BiasRead, CANCEL_POLL_CHUNK,
    DEFAULT_SHARD_MIN_STATES,
};
use crate::solve::ratio::ProbeEngine;
use crate::solve::renewal::{optimal_gain, regeneration_order, ArmRewards};

/// Options for [`relative_value_iteration`].
#[derive(Debug, Clone)]
pub struct RviOptions {
    /// Stop when the span seminorm of successive bias differences falls
    /// below this; the reported gain is then within `tolerance` of optimal.
    pub tolerance: f64,
    /// Iteration budget.
    pub max_iterations: usize,
    /// Aperiodicity mixing weight in `[0, 1)`. `0` disables the transform.
    pub aperiodicity_tau: f64,
    /// Optional initial bias vector (warm start), e.g. from a previous solve
    /// of a nearby model. Must have one entry per state if present.
    pub warm_start: Option<Vec<f64>>,
    /// Wall-clock deadline and cooperative cancellation, checked at each
    /// iteration boundary (and, in sharded sweeps, the cancel flag every
    /// [`CANCEL_POLL_CHUNK`] states inside each shard). Unlimited by
    /// default.
    pub budget: SolveBudget,
    /// Worker threads sharding each Bellman sweep. `0` and `1` (default)
    /// keep the solve single-threaded; higher values are capped so every
    /// shard keeps at least `shard_min_states` states. Gain, bias, and
    /// policy are bit-identical for every value.
    pub solve_threads: usize,
    /// Minimum states per shard before an extra worker thread is engaged
    /// (default [`DEFAULT_SHARD_MIN_STATES`]); below it, per-iteration
    /// barrier costs outweigh the sweep work. Lower it only in tests and
    /// smokes that must exercise the sharded path on small models.
    pub shard_min_states: usize,
}

impl Default for RviOptions {
    fn default() -> Self {
        RviOptions {
            tolerance: 1e-7,
            max_iterations: 2_000_000,
            aperiodicity_tau: 0.05,
            warm_start: None,
            budget: SolveBudget::unlimited(),
            solve_threads: 1,
            shard_min_states: DEFAULT_SHARD_MIN_STATES,
        }
    }
}

/// Result of [`relative_value_iteration`].
#[derive(Debug, Clone)]
pub struct RviSolution {
    /// Optimal long-run average reward per step (identical for every start
    /// state under the unichain assumption).
    pub gain: f64,
    /// Relative (bias) values, normalized so `bias[0] == 0`. On the renewal
    /// engine, the returned policy's `R(s) − gain·L(s)`: its cycle reward
    /// minus the gain times its cycle length, from `s` back to state 0.
    pub bias: Vec<f64>,
    /// A gain-optimal policy.
    pub policy: Policy,
    /// Work performed: Bellman sweeps on the RVI engine, backward DP passes
    /// on the renewal engine.
    pub iterations: usize,
    /// Which engine solved the model (see the module docs).
    pub engine: ProbeEngine,
}

/// Computes the optimal gain of a unichain average-reward MDP.
pub fn relative_value_iteration(
    mdp: &CompiledMdp,
    objective: &Objective,
    opts: &RviOptions,
) -> Result<RviSolution, MdpError> {
    mdp.validate_objective(objective)?;
    let exp_reward = mdp.scalarize(objective);
    relative_value_iteration_compiled(mdp, &exp_reward, opts)
}

/// [`relative_value_iteration`] on pre-scalarized per-arm expected rewards
/// (one entry per global arm, from [`CompiledMdp::scalarize`]). Use this
/// form when solving the same model under many objectives.
pub fn relative_value_iteration_compiled(
    compiled: &CompiledMdp,
    exp_reward: &[f64],
    opts: &RviOptions,
) -> Result<RviSolution, MdpError> {
    let arms = compiled.num_arms();
    if exp_reward.len() != arms {
        return Err(MdpError::Shape {
            what: "exp_reward",
            found: exp_reward.len(),
            expected: arms,
        });
    }
    let engine = GainEngine::select(compiled, opts)?;
    let n = compiled.num_states();
    let mut h = opts.warm_start.clone().unwrap_or_else(|| vec![0.0; n]);
    let mut h_next = vec![0.0f64; n];
    let mut policy = Policy::zeros(n);
    let mut iterations = 0;
    let gain = engine.solve(
        compiled,
        ArmRewards::plain(exp_reward),
        &mut Vec::new(),
        &mut h,
        &mut h_next,
        &mut policy,
        opts,
        &mut iterations,
    )?;
    if let GainEngine::Renewal(_) = engine {
        // The passes left the policy's cycle rewards R in `h` and lengths L
        // in `h_next`. Its bias is R − g·L; state 0's entries of R and L
        // are zero, so h[0] = 0.
        for (r, l) in h.iter_mut().zip(&h_next) {
            *r -= gain * l;
        }
    }
    Ok(RviSolution { gain, bias: h, policy, iterations, engine: engine.kind() })
}

/// Name the budget and error paths report for this solver.
const SOLVER: &str = "relative_value_iteration";

/// The engine of a model's average-reward solves, chosen once per solve
/// from the model's structure (see the module docs). Plain gain solves and
/// every probe of the ratio solver run through it.
pub(crate) enum GainEngine {
    /// State 0 is a regeneration state: exact DP passes in this order.
    Renewal(Vec<u32>),
    /// Some cycle avoids state 0: the RVI kernel.
    Rvi,
}

impl GainEngine {
    /// Validates the options both engines share — `aperiodicity_tau` in
    /// `[0, 1)`, a warm start of one entry per state — and picks the engine.
    pub(crate) fn select(compiled: &CompiledMdp, opts: &RviOptions) -> Result<Self, MdpError> {
        let tau = opts.aperiodicity_tau;
        if !(0.0..1.0).contains(&tau) {
            return Err(MdpError::BadOption { what: "aperiodicity_tau", value: tau });
        }
        let n = compiled.num_states();
        if let Some(w) = &opts.warm_start {
            if w.len() != n {
                return Err(MdpError::Shape { what: "warm start", found: w.len(), expected: n });
            }
        }
        Ok(match regeneration_order(compiled) {
            Some(order) => GainEngine::Renewal(order),
            None => GainEngine::Rvi,
        })
    }

    /// The engine's name in solutions and reports.
    pub(crate) fn kind(&self) -> ProbeEngine {
        match self {
            GainEngine::Renewal(_) => ProbeEngine::Renewal,
            GainEngine::Rvi => ProbeEngine::Rvi,
        }
    }

    /// The optimal gain of the per-arm rewards `rewards`, solved in the
    /// caller's buffers (`h`, `h_next` and `policy` hold one entry per
    /// state). Leaves a gain-optimal policy in `policy` and adds the work
    /// done — DP passes or RVI sweeps — to `work`.
    ///
    /// The renewal passes warm-start from the incoming `policy` and leave
    /// its cycle rewards in `h` and cycle lengths in `h_next`. The RVI kernel
    /// combines the rewards into `exp_w` (resized to one entry per arm),
    /// warm-starts from the bias in `h` and leaves the final bias there.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn solve(
        &self,
        compiled: &CompiledMdp,
        rewards: ArmRewards<'_>,
        exp_w: &mut Vec<f64>,
        h: &mut Vec<f64>,
        h_next: &mut Vec<f64>,
        policy: &mut Policy,
        opts: &RviOptions,
        work: &mut usize,
    ) -> Result<f64, MdpError> {
        match self {
            GainEngine::Renewal(order) => {
                optimal_gain(compiled, order, rewards, h, h_next, policy, &opts.budget, work)
            }
            GainEngine::Rvi => {
                exp_w.resize(compiled.num_arms(), 0.0);
                CompiledMdp::combine_scalarized_into_threaded(
                    rewards.num,
                    rewards.den,
                    rewards.rho,
                    exp_w,
                    opts.solve_threads,
                );
                let (gain, sweeps) = rvi_kernel(compiled, exp_w, h, h_next, policy, opts)?;
                *work += sweeps;
                Ok(gain)
            }
        }
    }
}

/// The allocation-light RVI core: runs Bellman sweeps inside the
/// caller-owned buffers `h` (bias in/out — pre-fill for a warm start),
/// `h_next` (scratch) and `policy` (out). All three must have one entry per
/// state; `exp_reward` one entry per global arm, and `opts` is already
/// validated ([`GainEngine::select`]). On success `h` holds the final bias
/// normalized to `h[0] == 0`.
///
/// `opts.warm_start` is ignored here — the warm start *is* the incoming
/// content of `h`. With `solve_threads > 1` the sweeps shard across a
/// scoped worker pool that lives for this one call (the only allocations
/// past setup); results are bit-identical to the single-threaded path.
fn rvi_kernel(
    compiled: &CompiledMdp,
    exp_reward: &[f64],
    h: &mut Vec<f64>,
    h_next: &mut Vec<f64>,
    policy: &mut Policy,
    opts: &RviOptions,
) -> Result<(f64, usize), MdpError> {
    let tau = opts.aperiodicity_tau;
    let n = compiled.num_states();
    for (what, found, expected) in [
        ("bias buffer", h.len(), n),
        ("scratch buffer", h_next.len(), n),
        ("policy buffer", policy.choices.len(), n),
    ] {
        if found != expected {
            return Err(MdpError::Shape { what, found, expected });
        }
    }

    let threads = effective_threads(opts.solve_threads, n, opts.shard_min_states);
    if threads > 1 {
        kernel_sharded(compiled, exp_reward, h, policy, opts, tau, threads)
    } else {
        kernel_single(compiled, exp_reward, h, h_next, policy, opts, tau)
    }
}

/// One Bellman backup of state `s` against the bias iterate `src`: returns
/// `(best, best_arm, diff)` — the blended optimal value, the local index of
/// an arm attaining it (first wins ties), and `best - src[s]` (the span
/// contribution).
///
/// This is the only place sweep arithmetic lives: the single-threaded and
/// sharded paths both monomorphize it, so every path executes the identical
/// operation sequence — the root of the thread-count bit-identity guarantee.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn bellman_state<S: BiasRead + ?Sized>(
    s: usize,
    src: &S,
    arm_offsets: &[u32],
    tr_offsets: &[u32],
    next: &[u32],
    prob: &[f64],
    exp_reward: &[f64],
    tau: f64,
    one_minus_tau: f64,
) -> (f64, usize, f64) {
    let hs = src.get(s);
    // Aperiodicity transform, hoisted: `tau * h[s]` is shared by every arm.
    let blend = tau * hs;
    let a0 = arm_offsets[s] as usize;
    let a1 = arm_offsets[s + 1] as usize;
    let mut best = f64::NEG_INFINITY;
    let mut best_arm = 0usize;
    let mut t0 = tr_offsets[a0] as usize;
    for arm in a0..a1 {
        let t1 = tr_offsets[arm + 1] as usize;
        let mut acc = exp_reward[arm];
        // Transition-major streaming over the flat prob/next arrays, in CSR
        // order — the same serial accumulation the reference solver
        // performs, so near-tie argmax decisions cannot drift between the
        // compiled and reference paths.
        for (p, &to) in prob[t0..t1].iter().zip(&next[t0..t1]) {
            acc += p * src.get(to as usize);
        }
        t0 = t1;
        let q = one_minus_tau * acc + blend;
        // Strict `>` keeps first-wins ties, matching the reference solver.
        if q > best {
            best = q;
            best_arm = arm - a0;
        }
    }
    (best, best_arm, best - hs)
}

/// The default single-threaded Jacobi kernel.
fn kernel_single(
    compiled: &CompiledMdp,
    exp_reward: &[f64],
    h: &mut Vec<f64>,
    h_next: &mut Vec<f64>,
    policy: &mut Policy,
    opts: &RviOptions,
    tau: f64,
) -> Result<(f64, usize), MdpError> {
    let one_minus_tau = 1.0 - tau;
    let (arm_offsets, tr_offsets) = compiled.raw_offsets();
    let (next, prob) = (compiled.raw_next(), compiled.raw_prob());

    // Span seminorm of the last completed sweep, rescaled to the caller's
    // (untransformed) reward units so it compares directly to `tolerance`.
    let mut last_residual = f64::INFINITY;
    for iter in 0..opts.max_iterations {
        opts.budget.check(SOLVER, iter)?;
        // State 0 first: its raw value is the normalization offset, which
        // lets the offset subtraction fuse into the sweep instead of
        // costing a second pass over `h_next`.
        let (best0, arm0, d0) = bellman_state(
            0,
            &h[..],
            arm_offsets,
            tr_offsets,
            next,
            prob,
            exp_reward,
            tau,
            one_minus_tau,
        );
        // `best0` is finite (validated model), so subtracting it from
        // itself is exactly +0.0 — the same bits the sharded kernel's
        // normalization phase produces for state 0.
        h_next[0] = 0.0;
        policy.choices[0] = arm0;
        let mut span_lo = d0;
        let mut span_hi = d0;
        for (s, h_out) in h_next.iter_mut().enumerate().skip(1) {
            let (best, arm, d) = bellman_state(
                s,
                &h[..],
                arm_offsets,
                tr_offsets,
                next,
                prob,
                exp_reward,
                tau,
                one_minus_tau,
            );
            *h_out = best - best0;
            policy.choices[s] = arm;
            span_lo = span_lo.min(d);
            span_hi = span_hi.max(d);
        }
        std::mem::swap(h, h_next);

        last_residual = (span_hi - span_lo) / one_minus_tau;
        if span_hi - span_lo < opts.tolerance * one_minus_tau {
            // The per-step gain of the *transformed* chain lies in
            // [span_lo, span_hi]; undo the (1 - tau) reward scaling.
            let gain = 0.5 * (span_lo + span_hi) / one_minus_tau;
            return Ok((gain, iter + 1));
        }
    }
    Err(MdpError::NoConvergence {
        solver: SOLVER,
        iterations: opts.max_iterations,
        residual: last_residual,
    })
}

/// Replays the argmax of one Bellman sweep against the iterate `src` into
/// `policy` — exactly the choices a sweep reading `src` records. The
/// sharded kernel's sweeps skip per-state policy stores (which would need
/// yet another shared atomic buffer) and pay this single serial pass at
/// publish time instead.
fn extract_policy<S: BiasRead + ?Sized>(
    compiled: &CompiledMdp,
    exp_reward: &[f64],
    src: &S,
    policy: &mut Policy,
    tau: f64,
) {
    let one_minus_tau = 1.0 - tau;
    let (arm_offsets, tr_offsets) = compiled.raw_offsets();
    let (next, prob) = (compiled.raw_next(), compiled.raw_prob());
    for (s, choice) in policy.choices.iter_mut().enumerate() {
        let (_, arm, _) = bellman_state(
            s,
            src,
            arm_offsets,
            tr_offsets,
            next,
            prob,
            exp_reward,
            tau,
            one_minus_tau,
        );
        *choice = arm;
    }
}

/// A shard worker's report for one sweep phase.
struct Swept {
    lo: f64,
    hi: f64,
    /// The worker saw the cancel flag mid-sweep and stopped early; its
    /// slice of the iterate is incomplete (the solve is being torn down).
    aborted: bool,
}

/// Coordinator-to-worker commands; buffers are shared through the scope,
/// so commands carry only phase data.
enum Cmd {
    /// Sweep the worker's shard, reading iterate `src` (0 or 1) and
    /// writing the other buffer.
    Sweep { src: usize },
    /// Subtract `offset` over the worker's slice of iterate `dst`.
    Normalize { dst: usize, offset: f64 },
}

/// Worker-to-coordinator replies.
enum Reply {
    Swept(Swept),
    Normalized,
}

/// The sharded Jacobi kernel: `threads - 1` scoped workers plus the
/// calling thread (which owns shard 0 and the base state), persistent
/// across all iterations of this one solve. Bit-identical to
/// [`kernel_single`] — see `crate::shard` for the determinism argument.
fn kernel_sharded(
    compiled: &CompiledMdp,
    exp_reward: &[f64],
    h: &mut [f64],
    policy: &mut Policy,
    opts: &RviOptions,
    tau: f64,
    threads: usize,
) -> Result<(f64, usize), MdpError> {
    let n = compiled.num_states();
    let one_minus_tau = 1.0 - tau;
    let (arm_offsets, tr_offsets) = compiled.raw_offsets();
    let (next, prob) = (compiled.raw_next(), compiled.raw_prob());

    // Balance shards by transition count (+1 per state for the fixed
    // per-state cost), so one dense region cannot serialize the sweep.
    let weight = |s: usize| {
        let a0 = arm_offsets[s] as usize;
        let a1 = arm_offsets[s + 1] as usize;
        (tr_offsets[a1] - tr_offsets[a0]) as usize + 1
    };
    let ranges = shard_ranges(weight, n, threads);

    // Double-buffered iterates as shared atomics (see `crate::shard` for
    // why not `&mut` splits).
    let bufs = [AtomicBias::zeros(n), AtomicBias::zeros(n)];
    bufs[0].copy_from(h);

    let budget = &opts.budget;
    // Sweep of one shard, running [`bellman_state`] — the same microkernel
    // as [`kernel_single`] — over the shard's state range, writing the
    // shard's disjoint slice of `dst`. The cancel flag is polled every
    // [`CANCEL_POLL_CHUNK`] states.
    let sweep_shard = |range: std::ops::Range<usize>, src: &AtomicBias, dst: &AtomicBias| {
        let mut lo = f64::INFINITY;
        let mut hi = f64::NEG_INFINITY;
        let mut since_poll = 0usize;
        for s in range {
            since_poll += 1;
            if since_poll >= CANCEL_POLL_CHUNK {
                since_poll = 0;
                if budget.is_cancelled() {
                    return Swept { lo, hi, aborted: true };
                }
            }
            let (best, _, d) = bellman_state(
                s,
                src,
                arm_offsets,
                tr_offsets,
                next,
                prob,
                exp_reward,
                tau,
                one_minus_tau,
            );
            dst.set(s, best);
            lo = lo.min(d);
            hi = hi.max(d);
        }
        Swept { lo, hi, aborted: false }
    };
    let normalize_shard = |range: std::ops::Range<usize>, dst: &AtomicBias, offset: f64| {
        for s in range {
            dst.set(s, dst.get(s) - offset);
        }
    };

    // Copy the final (or last completed) iterate back out of the shared
    // buffers into the caller's, and replay the final sweep's argmax
    // against the iterate it read (`src_buf` is only read, never written,
    // during a sweep — so it still holds that iterate verbatim). Like the
    // single-threaded path, the iterated sweeps skip per-state policy
    // stores and pay this one extra pass at the end.
    let publish =
        |dst_buf: &AtomicBias, src_buf: &AtomicBias, h: &mut [f64], policy: &mut Policy| {
            dst_buf.copy_to(h);
            extract_policy(compiled, exp_reward, src_buf, policy, tau);
        };

    std::thread::scope(|scope| {
        let mut channels = Vec::with_capacity(ranges.len().saturating_sub(1));
        for range in ranges.iter().skip(1) {
            let (cmd_tx, cmd_rx) = mpsc::channel::<Cmd>();
            let (reply_tx, reply_rx) = mpsc::channel::<Reply>();
            let sweep_shard = &sweep_shard;
            let normalize_shard = &normalize_shard;
            let bufs = &bufs;
            scope.spawn(move || {
                // Exits when the coordinator drops its sender (normal
                // teardown and every error path alike).
                while let Ok(cmd) = cmd_rx.recv() {
                    let reply = match cmd {
                        Cmd::Sweep { src } => {
                            Reply::Swept(sweep_shard(range.clone(), &bufs[src], &bufs[1 - src]))
                        }
                        Cmd::Normalize { dst, offset } => {
                            normalize_shard(range.clone(), &bufs[dst], offset);
                            Reply::Normalized
                        }
                    };
                    if reply_tx.send(reply).is_err() {
                        return;
                    }
                }
            });
            channels.push((cmd_tx, reply_rx));
        }

        // A worker can only stop answering if it panicked, which scoped
        // join will propagate as soon as this closure returns — so channel
        // failures here just cut the coordinator loop short.
        let dead = || MdpError::Cancelled { solver: SOLVER, iterations: 0 };

        let mut last_residual = f64::INFINITY;
        let mut last_dst = 0usize;
        for iter in 0..opts.max_iterations {
            opts.budget.check(SOLVER, iter)?;
            let src = iter % 2;
            let dst = 1 - src;
            last_dst = dst;
            for (cmd_tx, _) in &channels {
                cmd_tx.send(Cmd::Sweep { src }).map_err(|_| dead())?;
            }
            let own = sweep_shard(ranges[0].clone(), &bufs[src], &bufs[dst]);
            let mut span_lo = own.lo;
            let mut span_hi = own.hi;
            let mut aborted = own.aborted;
            for (_, reply_rx) in &channels {
                match reply_rx.recv().map_err(|_| dead())? {
                    Reply::Swept(s) => {
                        // Order-independent span reduction: min/max over
                        // finite values commute, so shard arrival order
                        // cannot change the reduced pair.
                        span_lo = span_lo.min(s.lo);
                        span_hi = span_hi.max(s.hi);
                        aborted |= s.aborted;
                    }
                    Reply::Normalized => return Err(dead()),
                }
            }
            if aborted {
                // Some shard saw the cancel flag mid-sweep; report the
                // same structured error the budget check would.
                opts.budget.check(SOLVER, iter)?;
                return Err(MdpError::Cancelled { solver: SOLVER, iterations: iter });
            }

            // Normalize against the base state to keep the bias bounded.
            // State 0 lives in the coordinator's own shard, so its raw
            // value is already visible here.
            let offset = bufs[dst].get(0);
            for (cmd_tx, _) in &channels {
                cmd_tx.send(Cmd::Normalize { dst, offset }).map_err(|_| dead())?;
            }
            normalize_shard(ranges[0].clone(), &bufs[dst], offset);
            for (_, reply_rx) in &channels {
                match reply_rx.recv().map_err(|_| dead())? {
                    Reply::Normalized => {}
                    Reply::Swept(_) => return Err(dead()),
                }
            }

            last_residual = (span_hi - span_lo) / one_minus_tau;
            if span_hi - span_lo < opts.tolerance * one_minus_tau {
                publish(&bufs[dst], &bufs[src], h, policy);
                let gain = 0.5 * (span_lo + span_hi) / one_minus_tau;
                return Ok((gain, iter + 1));
            }
        }
        if opts.max_iterations > 0 {
            // Match the single-threaded path's NoConvergence state: `h`
            // holds the last completed normalized iterate, `policy` the
            // last sweep's argmax choices.
            publish(&bufs[last_dst], &bufs[1 - last_dst], h, policy);
        }
        Err(MdpError::NoConvergence {
            solver: SOLVER,
            iterations: opts.max_iterations,
            residual: last_residual,
        })
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{Mdp, Transition};

    fn solve(m: &Mdp, w: Vec<f64>) -> RviSolution {
        relative_value_iteration(&CompiledMdp::of(m), &Objective::new(w), &RviOptions::default())
            .unwrap()
    }

    /// State 0 steps to state 1 (reward 1), which loops on itself or returns
    /// (reward 3 either way): the self-loop is a cycle avoiding state 0, so
    /// solves of this model run the RVI kernel. Gain 1/3 · 1 + 2/3 · 3 = 7/3.
    fn cyclic_pair() -> Mdp {
        let mut m = Mdp::new(1);
        let a = m.add_state();
        let b = m.add_state();
        m.add_action(a, 0, vec![Transition::new(b, 1.0, vec![1.0])]);
        m.add_action(
            b,
            0,
            vec![Transition::new(b, 0.5, vec![3.0]), Transition::new(a, 0.5, vec![3.0])],
        );
        m
    }

    #[test]
    fn self_loop_gain_is_reward() {
        let mut m = Mdp::new(1);
        let s = m.add_state();
        m.add_action(s, 0, vec![Transition::new(s, 1.0, vec![3.5])]);
        let sol = solve(&m, vec![1.0]);
        assert!((sol.gain - 3.5).abs() < 1e-6, "gain {}", sol.gain);
    }

    /// State 0 steps into the deterministic 2-cycle 1 → 2 → 1 with rewards
    /// 1 and 3 (gain 2). The cycle avoids state 0, so the solve runs the RVI
    /// kernel.
    fn periodic_chain() -> Mdp {
        let mut m = Mdp::new(1);
        let s: Vec<_> = (0..3).map(|_| m.add_state()).collect();
        m.add_action(s[0], 0, vec![Transition::new(s[1], 1.0, vec![0.0])]);
        m.add_action(s[1], 0, vec![Transition::new(s[2], 1.0, vec![1.0])]);
        m.add_action(s[2], 0, vec![Transition::new(s[1], 1.0, vec![3.0])]);
        m
    }

    /// Without the aperiodicity transform plain RVI oscillates on the
    /// period-2 cycle of [`periodic_chain`] (its span stays 2); with it the
    /// kernel converges to the gain.
    #[test]
    fn periodic_two_cycle_converges() {
        let m = periodic_chain();
        let sol = solve(&m, vec![1.0]);
        assert_eq!(sol.engine, ProbeEngine::Rvi);
        assert!((sol.gain - 2.0).abs() < 1e-6, "gain {}", sol.gain);

        let plain =
            RviOptions { aperiodicity_tau: 0.0, max_iterations: 1000, ..Default::default() };
        match relative_value_iteration(&CompiledMdp::of(&m), &Objective::new(vec![1.0]), &plain) {
            Err(MdpError::NoConvergence { residual, .. }) => assert_eq!(residual, 2.0),
            other => panic!("expected NoConvergence, got {other:?}"),
        }

        // The same cycle through state 0 (0 → 1 → 0) is regenerative: the
        // renewal engine solves it exactly, transform or not.
        let mut m = Mdp::new(1);
        let a = m.add_state();
        let b = m.add_state();
        m.add_action(a, 0, vec![Transition::new(b, 1.0, vec![1.0])]);
        m.add_action(b, 0, vec![Transition::new(a, 1.0, vec![3.0])]);
        let sol = solve(&m, vec![1.0]);
        assert_eq!(sol.engine, ProbeEngine::Renewal);
        assert_eq!(sol.gain, 2.0);
    }

    /// From state 1, a choice between a 1-reward self-loop and entering a
    /// 2-cycle with average 2.5: the optimal policy takes the cycle. Both
    /// cycles avoid state 0, so the solve runs the RVI kernel.
    #[test]
    fn prefers_higher_average_cycle() {
        let mut m = Mdp::new(1);
        let s: Vec<_> = (0..3).map(|_| m.add_state()).collect();
        m.add_action(s[0], 0, vec![Transition::new(s[1], 1.0, vec![0.0])]);
        m.add_action(s[1], 0, vec![Transition::new(s[1], 1.0, vec![1.0])]);
        m.add_action(s[1], 1, vec![Transition::new(s[2], 1.0, vec![2.0])]);
        m.add_action(s[2], 0, vec![Transition::new(s[1], 1.0, vec![3.0])]);
        let sol = solve(&m, vec![1.0]);
        assert_eq!(sol.engine, ProbeEngine::Rvi);
        assert_eq!(sol.policy.choices[s[1]], 1);
        assert!((sol.gain - 2.5).abs() < 1e-6, "gain {}", sol.gain);
    }

    /// On a regenerative model the solve runs the renewal engine: the exact
    /// gain, and the bias `R − g·L` of the policy (here the 2-cycle through
    /// state 0, `R(c) = 3`, `L(c) = 1`), which solves the average-reward
    /// equations `g + h(s) = r + h(next)`.
    #[test]
    fn regenerative_model_solves_exactly_by_renewal() {
        let mut m = Mdp::new(1);
        let s = m.add_state();
        let c = m.add_state();
        m.add_action(s, 0, vec![Transition::new(s, 1.0, vec![1.0])]);
        m.add_action(s, 1, vec![Transition::new(c, 1.0, vec![2.0])]);
        m.add_action(c, 0, vec![Transition::new(s, 1.0, vec![3.0])]);
        let sol = solve(&m, vec![1.0]);
        assert_eq!(sol.engine, ProbeEngine::Renewal);
        assert_eq!(sol.gain, 2.5);
        assert_eq!(sol.policy.choices, vec![1, 0]);
        assert_eq!(sol.bias, vec![0.0, 0.5]);
        // Evaluate the self-loop, step to the cycle, confirm it.
        assert_eq!(sol.iterations, 3);

        // A cycle avoiding state 0 keeps the RVI kernel.
        let sol = solve(&cyclic_pair(), vec![1.0]);
        assert_eq!(sol.engine, ProbeEngine::Rvi);
        assert!((sol.gain - 7.0 / 3.0).abs() < 1e-6, "gain {}", sol.gain);
    }

    /// Two-state chain with symmetric switching: stationary distribution is
    /// (2/3, 1/3) for leave-probabilities (0.1, 0.2); gain = 2/3*r_a + 1/3*r_b
    /// with per-state rewards attached to outgoing transitions.
    #[test]
    fn stochastic_chain_gain_matches_stationary_average() {
        let mut m = Mdp::new(1);
        let a = m.add_state();
        let b = m.add_state();
        m.add_action(
            a,
            0,
            vec![Transition::new(a, 0.9, vec![6.0]), Transition::new(b, 0.1, vec![6.0])],
        );
        m.add_action(
            b,
            0,
            vec![Transition::new(b, 0.8, vec![0.0]), Transition::new(a, 0.2, vec![0.0])],
        );
        let sol = solve(&m, vec![1.0]);
        assert_eq!(sol.engine, ProbeEngine::Rvi);
        assert!((sol.gain - 4.0).abs() < 1e-5, "gain {}", sol.gain);
    }

    #[test]
    fn vector_rewards_scalarized_by_objective() {
        let mut m = Mdp::new(2);
        let s = m.add_state();
        m.add_action(s, 0, vec![Transition::new(s, 1.0, vec![1.0, 10.0])]);
        let sol = solve(&m, vec![0.0, 1.0]);
        assert!((sol.gain - 10.0).abs() < 1e-6);
        let sol = solve(&m, vec![1.0, -0.5]);
        assert!((sol.gain + 4.0).abs() < 1e-6);
    }

    #[test]
    fn warm_start_accepted_and_converges() {
        let m = cyclic_pair();
        let cold = solve(&m, vec![1.0]);
        let opts = RviOptions { warm_start: Some(cold.bias.clone()), ..Default::default() };
        let warm =
            relative_value_iteration(&CompiledMdp::of(&m), &Objective::new(vec![1.0]), &opts)
                .unwrap();
        assert_eq!(warm.engine, ProbeEngine::Rvi);
        assert!((warm.gain - 7.0 / 3.0).abs() < 1e-6);
        assert!(warm.iterations <= cold.iterations);
    }

    /// The kernel's bias is normalized to `h[0] = 0` and, the transform
    /// leaving it unscaled, solves `g + h(s) = r + h(next)` on
    /// [`periodic_chain`]: `h = [0, 2, 3]`.
    #[test]
    fn bias_is_normalized_to_reference_state() {
        let sol = solve(&periodic_chain(), vec![1.0]);
        assert_eq!(sol.engine, ProbeEngine::Rvi);
        assert_eq!(sol.bias[0], 0.0);
        for (h, want) in sol.bias.iter().zip([0.0, 2.0, 3.0]) {
            assert!((h - want).abs() < 1e-5, "bias {:?}", sol.bias);
        }
    }

    /// A one-state self-loop (renewal engine) and [`cyclic_pair`] (RVI).
    fn one_model_per_engine() -> [Mdp; 2] {
        let mut m = Mdp::new(1);
        let s = m.add_state();
        m.add_action(s, 0, vec![Transition::new(s, 1.0, vec![1.0])]);
        [m, cyclic_pair()]
    }

    /// Wrong-length warm starts and per-arm rewards are shape errors on both
    /// engines.
    #[test]
    fn wrong_length_warm_start_is_a_shape_error() {
        for m in one_model_per_engine() {
            let n = m.num_states();
            let opts = RviOptions { warm_start: Some(vec![0.0; 5]), ..Default::default() };
            let err =
                relative_value_iteration(&CompiledMdp::of(&m), &Objective::new(vec![1.0]), &opts)
                    .unwrap_err();
            assert_eq!(err, MdpError::Shape { what: "warm start", found: 5, expected: n });

            let compiled = CompiledMdp::compile(&m).unwrap();
            let err =
                relative_value_iteration_compiled(&compiled, &[0.0; 7], &RviOptions::default())
                    .unwrap_err();
            assert_eq!(err, MdpError::Shape { what: "exp_reward", found: 7, expected: n });
        }
    }

    #[test]
    fn bad_tau_is_a_structured_error() {
        for m in one_model_per_engine() {
            for tau in [-0.1, 1.0, 1.5, f64::NAN] {
                let opts = RviOptions { aperiodicity_tau: tau, ..Default::default() };
                let err = relative_value_iteration(
                    &CompiledMdp::of(&m),
                    &Objective::new(vec![1.0]),
                    &opts,
                )
                .unwrap_err();
                assert!(
                    matches!(err, MdpError::BadOption { what: "aperiodicity_tau", .. }),
                    "tau={tau}: {err:?}"
                );
            }
        }
    }

    /// Exhausting the iteration budget reports the actual span-seminorm
    /// residual, not NaN (the retry policy keys its escalation off it).
    #[test]
    fn no_convergence_carries_finite_residual() {
        let m = cyclic_pair();
        let opts = RviOptions { max_iterations: 3, ..Default::default() };
        let err = relative_value_iteration(&CompiledMdp::of(&m), &Objective::new(vec![1.0]), &opts)
            .unwrap_err();
        match err {
            MdpError::NoConvergence { iterations, residual, .. } => {
                assert_eq!(iterations, 3);
                assert!(residual.is_finite() && residual > 0.0, "residual {residual}");
            }
            other => panic!("expected NoConvergence, got {other:?}"),
        }
    }

    #[test]
    fn pre_expired_deadline_stops_the_solve() {
        for m in one_model_per_engine() {
            let opts = RviOptions {
                budget: SolveBudget::with_timeout(std::time::Duration::ZERO),
                ..Default::default()
            };
            std::thread::sleep(std::time::Duration::from_millis(2));
            let err =
                relative_value_iteration(&CompiledMdp::of(&m), &Objective::new(vec![1.0]), &opts)
                    .unwrap_err();
            assert!(matches!(err, MdpError::DeadlineExceeded { .. }), "{err:?}");
        }
    }

    #[test]
    fn raised_cancel_flag_stops_the_solve() {
        use std::sync::atomic::AtomicBool;
        use std::sync::Arc;
        for m in one_model_per_engine() {
            let flag = Arc::new(AtomicBool::new(true));
            let opts = RviOptions {
                budget: SolveBudget::unlimited().with_cancel(flag),
                ..Default::default()
            };
            let err =
                relative_value_iteration(&CompiledMdp::of(&m), &Objective::new(vec![1.0]), &opts)
                    .unwrap_err();
            assert!(err.is_cancellation(), "{err:?}");
        }
    }

    /// The compiled entry point solves the same model under two objectives
    /// without recompiling, and agrees with the front-door call.
    #[test]
    fn compiled_entry_point_reuses_model() {
        let mut m = Mdp::new(2);
        let s = m.add_state();
        let c = m.add_state();
        m.add_action(s, 0, vec![Transition::new(s, 1.0, vec![1.0, 0.0])]);
        m.add_action(s, 1, vec![Transition::new(c, 1.0, vec![2.0, 1.0])]);
        m.add_action(c, 0, vec![Transition::new(s, 1.0, vec![3.0, 0.5])]);
        let compiled = CompiledMdp::compile(&m).unwrap();
        let opts = RviOptions::default();
        for weights in [vec![1.0, 0.0], vec![0.0, 1.0], vec![1.0, -2.0]] {
            let obj = Objective::new(weights);
            let exp = compiled.scalarize(&obj);
            let fast = relative_value_iteration_compiled(&compiled, &exp, &opts).unwrap();
            let front = relative_value_iteration(&CompiledMdp::of(&m), &obj, &opts).unwrap();
            assert!((fast.gain - front.gain).abs() < 1e-12);
            assert_eq!(fast.policy, front.policy);
        }
    }

    /// A 4-state chain solved with every thread count (the shard threshold
    /// lowered so sharding actually engages): gain, bias, and policy must
    /// be bit-identical across all of them. The cycle 1 → 2 → 3 → 1 avoids
    /// state 0, so every solve reaches the kernel.
    #[test]
    fn sharded_solve_is_bit_identical_across_thread_counts() {
        let mut m = Mdp::new(1);
        let states: Vec<_> = (0..4).map(|_| m.add_state()).collect();
        for (i, &s) in states.iter().enumerate() {
            let to = states[i % 3 + 1];
            m.add_action(s, 0, vec![Transition::new(to, 1.0, vec![i as f64])]);
            m.add_action(
                s,
                1,
                vec![
                    Transition::new(states[0], 0.5, vec![0.25]),
                    Transition::new(to, 0.5, vec![1.5]),
                ],
            );
        }
        let obj = Objective::new(vec![1.0]);
        let base =
            relative_value_iteration(&CompiledMdp::of(&m), &obj, &RviOptions::default()).unwrap();
        assert_eq!(base.engine, ProbeEngine::Rvi);
        for threads in [2usize, 3, 4, 7] {
            let opts =
                RviOptions { solve_threads: threads, shard_min_states: 1, ..Default::default() };
            let sol = relative_value_iteration(&CompiledMdp::of(&m), &obj, &opts).unwrap();
            assert_eq!(sol.gain.to_bits(), base.gain.to_bits(), "threads={threads}");
            assert_eq!(sol.iterations, base.iterations, "threads={threads}");
            assert_eq!(sol.policy.choices, base.policy.choices, "threads={threads}");
            for (a, b) in sol.bias.iter().zip(&base.bias) {
                assert_eq!(a.to_bits(), b.to_bits(), "threads={threads}");
            }
        }
    }

    /// Above-threshold thread requests are capped by the state count, so a
    /// tiny model never pays sharding overhead: the kernel solves
    /// [`cyclic_pair`] exactly as with one thread.
    #[test]
    fn small_models_stay_single_threaded() {
        let m = cyclic_pair();
        let obj = Objective::new(vec![1.0]);
        let serial =
            relative_value_iteration(&CompiledMdp::of(&m), &obj, &RviOptions::default()).unwrap();
        let opts = RviOptions { solve_threads: 8, ..Default::default() };
        let sol = relative_value_iteration(&CompiledMdp::of(&m), &obj, &opts).unwrap();
        assert_eq!(sol.engine, ProbeEngine::Rvi);
        assert_eq!(sol.gain.to_bits(), serial.gain.to_bits());
        assert_eq!(sol.iterations, serial.iterations);
        assert!((sol.gain - 7.0 / 3.0).abs() < 1e-6);
    }

    /// A pre-raised cancel flag stops a sharded solve too (the flag is
    /// polled inside shard sweeps as well as at iteration boundaries).
    #[test]
    fn sharded_solve_honours_cancellation() {
        use std::sync::atomic::AtomicBool;
        use std::sync::Arc;
        let m = cyclic_pair();
        let flag = Arc::new(AtomicBool::new(true));
        let opts = RviOptions {
            solve_threads: 2,
            shard_min_states: 1,
            budget: SolveBudget::unlimited().with_cancel(flag),
            ..Default::default()
        };
        let err = relative_value_iteration(&CompiledMdp::of(&m), &Objective::new(vec![1.0]), &opts)
            .unwrap_err();
        assert!(err.is_cancellation(), "{err:?}");
    }

    /// A cancel flag raised *while* a sharded solve is running must stop
    /// it from inside the shard workers (the chunk-granularity poll), not
    /// only at the next iteration boundary. `tolerance: 0.0` makes
    /// convergence impossible, so cancellation is the only way out. The ring
    /// closes at state 1, not 0, so the solve reaches the kernel.
    #[test]
    fn sharded_solve_cancels_mid_solve() {
        use std::sync::atomic::{AtomicBool, Ordering};
        use std::sync::Arc;
        let n = 3000;
        let mut m = Mdp::new(1);
        for _ in 0..n {
            m.add_state();
        }
        for s in 0..n {
            m.add_action(
                s,
                0,
                vec![
                    Transition::new(s % (n - 1) + 1, 0.9, vec![(s % 7) as f64]),
                    Transition::new(0, 0.1, vec![0.0]),
                ],
            );
        }
        let flag = Arc::new(AtomicBool::new(false));
        let raiser = {
            let flag = Arc::clone(&flag);
            std::thread::spawn(move || {
                std::thread::sleep(std::time::Duration::from_millis(30));
                flag.store(true, Ordering::SeqCst);
            })
        };
        let opts = RviOptions {
            solve_threads: 2,
            shard_min_states: 1,
            tolerance: 0.0,
            max_iterations: usize::MAX,
            budget: SolveBudget::unlimited().with_cancel(flag),
            ..Default::default()
        };
        let err = relative_value_iteration(&CompiledMdp::of(&m), &Objective::new(vec![1.0]), &opts)
            .unwrap_err();
        raiser.join().unwrap();
        assert!(err.is_cancellation(), "{err:?}");
    }
}
