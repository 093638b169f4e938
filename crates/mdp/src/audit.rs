//! Static certification of solver preconditions ("model audit").
//!
//! Every average-reward solver in this crate ([`crate::solve`]) is only
//! correct under structural preconditions the solve loops themselves never
//! check: the model must be a *unichain* MDP (every stationary policy
//! induces a Markov chain with a single recurrent class), every state must
//! be reachable from the start state, and every transition row must be a
//! genuine probability distribution. A model violating them does not make
//! the solvers crash — they converge to a *wrong number*, which is the
//! worst possible failure mode for a reproduction study.
//!
//! This module is a static analysis pass that runs **without solving**:
//!
//! * **Layout and numeric invariants** — CSR offset monotonicity, every
//!   state with an action and every arm with a transition, index bounds,
//!   per-arm probability mass within tolerance, no negative/NaN/infinite
//!   probabilities or rewards.
//! * **Graph analysis** — Tarjan SCC over the full transition graph and
//!   over policy-closed subgraphs, maximal end-component (MEC)
//!   decomposition, forward reachability from a start state,
//!   absorbing-state detection, and the size of the regeneration set the
//!   exact solvers run on (`regeneration`, informational).
//! * **A structured [`AuditReport`]** — per-check pass/warn/fail with
//!   offending state/arm ids, rendered as text (`bvc audit --json` renders
//!   it as JSON), and convertible
//!   into a structured [`MdpError::AuditFailed`] via [`AuditReport::gate`].
//!
//! ## The unichain verdict
//!
//! Deciding the unichain property exactly is NP-hard (Tsitsiklis 2007), so
//! the `unichain` check is deliberately three-valued:
//!
//! * **Fail** — the model is *certainly multichain*: it has two or more
//!   disjoint maximal end components (a policy staying inside each yields
//!   two disjoint recurrent classes).
//! * **Pass** — the model is *certifiably unichain*: some state `t` is
//!   reachable with positive probability from every state under **every**
//!   policy (a `forall`-attractor fixed point covers the whole state
//!   space), so every policy's every recurrent class contains `t` and is
//!   therefore unique.
//! * **Warn** — neither certificate applies; the single-MEC necessary
//!   condition holds but universal reachability could not be established
//!   from the candidate states tried.
//!
//! For a *specific* policy the question is easy: [`audit_policy`] runs SCC
//! over the policy-closed subgraph and counts its recurrent (closed)
//! classes exactly.
//!
//! All passes are linear or near-linear in the model size: Tarjan and BFS
//! are `O(V + E)`, the MEC fixed point is `O(rounds · E)` with `rounds`
//! bounded by the SCC nesting depth (2–3 in practice), and the attractor
//! certificate is `O(E)` per candidate state.

use std::fmt;

use crate::compiled::CompiledMdp;
use crate::error::MdpError;
use crate::model::{Mdp, Policy, StateId, Transition, PROB_SUM_TOLERANCE};
use crate::solve::renewal::regeneration_set;

/// Outcome of a single audit check.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum AuditStatus {
    /// The precondition is certified to hold.
    Pass,
    /// The precondition could not be certified either way, or a benign
    /// irregularity was found; solving may still be correct.
    Warn,
    /// The precondition is certainly violated; solver output for this
    /// model is untrustworthy.
    Fail,
}

impl fmt::Display for AuditStatus {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            AuditStatus::Pass => "PASS",
            AuditStatus::Warn => "WARN",
            AuditStatus::Fail => "FAIL",
        })
    }
}

/// Result of one named audit check.
#[derive(Debug, Clone)]
pub struct CheckResult {
    /// Stable check identifier (used in `FAIL(audit: <name>)` sweep cells).
    pub name: &'static str,
    /// The verdict.
    pub status: AuditStatus,
    /// Human-readable explanation of the verdict.
    pub detail: String,
    /// Offending state or arm ids (capped at
    /// [`AuditOptions::max_offenders`]; `detail` says which kind and how
    /// many in total).
    pub offenders: Vec<usize>,
}

impl CheckResult {
    fn pass(name: &'static str, detail: impl Into<String>) -> Self {
        CheckResult {
            name,
            status: AuditStatus::Pass,
            detail: detail.into(),
            offenders: Vec::new(),
        }
    }

    fn warn(name: &'static str, detail: impl Into<String>, offenders: Vec<usize>) -> Self {
        CheckResult { name, status: AuditStatus::Warn, detail: detail.into(), offenders }
    }

    fn fail(name: &'static str, detail: impl Into<String>, offenders: Vec<usize>) -> Self {
        CheckResult { name, status: AuditStatus::Fail, detail: detail.into(), offenders }
    }
}

/// Configuration of an audit pass.
#[derive(Debug, Clone)]
pub struct AuditOptions {
    /// Tolerance for per-arm probability mass (`|sum − 1| ≤ tolerance`).
    pub prob_tolerance: f64,
    /// State forward reachability is checked from (the model's designated
    /// start / base state).
    pub start_state: StateId,
    /// Maximum number of offending ids reported per check.
    pub max_offenders: usize,
    /// How many candidate states to try for the universal-reachability
    /// unichain certificate before giving up with a Warn.
    pub unichain_candidates: usize,
}

impl Default for AuditOptions {
    fn default() -> Self {
        AuditOptions {
            prob_tolerance: PROB_SUM_TOLERANCE,
            start_state: 0,
            max_offenders: 8,
            unichain_candidates: 8,
        }
    }
}

/// Everything an audit pass found, one entry per check.
#[derive(Debug, Clone)]
pub struct AuditReport {
    /// Number of states in the audited model.
    pub num_states: usize,
    /// Number of (state, action) arms.
    pub num_arms: usize,
    /// Number of stored transitions.
    pub num_transitions: usize,
    /// Per-check results, in execution order.
    pub checks: Vec<CheckResult>,
}

impl AuditReport {
    /// True when no check failed (warnings allowed).
    pub fn passed(&self) -> bool {
        self.checks.iter().all(|c| c.status != AuditStatus::Fail)
    }

    /// True when every check passed outright (no warnings either).
    pub fn clean(&self) -> bool {
        self.checks.iter().all(|c| c.status == AuditStatus::Pass)
    }

    /// The worst status across all checks.
    pub fn worst(&self) -> AuditStatus {
        self.checks.iter().map(|c| c.status).max().unwrap_or(AuditStatus::Pass)
    }

    /// Looks up a check by name.
    pub fn check(&self, name: &str) -> Option<&CheckResult> {
        self.checks.iter().find(|c| c.name == name)
    }

    /// Appends an externally computed check (e.g. a [`audit_policy`]
    /// result) to the report.
    pub fn push_check(&mut self, check: CheckResult) {
        self.checks.push(check);
    }

    /// Converts the report into a pre-solve gate: `Err(AuditFailed)` naming
    /// the first failed check, `Ok(())` when nothing failed.
    pub fn gate(&self) -> Result<(), MdpError> {
        match self.checks.iter().find(|c| c.status == AuditStatus::Fail) {
            Some(c) => Err(MdpError::AuditFailed { check: c.name, detail: c.detail.clone() }),
            None => Ok(()),
        }
    }

    /// Renders the report as aligned human-readable text.
    pub fn render_text(&self) -> String {
        use fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "model audit: {} states, {} arms, {} transitions",
            self.num_states, self.num_arms, self.num_transitions
        );
        let name_w = self.checks.iter().map(|c| c.name.len()).max().unwrap_or(0);
        for c in &self.checks {
            let _ = write!(out, "  [{}] {:<name_w$}  {}", c.status, c.name, c.detail);
            if !c.offenders.is_empty() {
                let ids: Vec<String> = c.offenders.iter().map(|i| i.to_string()).collect();
                let _ = write!(out, " [ids: {}]", ids.join(", "));
            }
            let _ = writeln!(out);
        }
        let failed = self.checks.iter().filter(|c| c.status == AuditStatus::Fail).count();
        let warned = self.checks.iter().filter(|c| c.status == AuditStatus::Warn).count();
        let _ = writeln!(
            out,
            "verdict: {} ({failed} failed, {warned} warning{})",
            self.worst(),
            if warned == 1 { "" } else { "s" }
        );
        out
    }
}

// ---------------------------------------------------------------------------
// Entry points
// ---------------------------------------------------------------------------

/// Audits a [`CompiledMdp`]: the CSR layout invariants the flat solvers
/// rely on, the numeric invariants of every arm, then (when the layout is
/// sound) the graph analysis.
pub fn audit_compiled(c: &CompiledMdp, opts: &AuditOptions) -> AuditReport {
    let mut report = AuditReport {
        num_states: c.num_states(),
        num_arms: c.num_arms(),
        num_transitions: c.num_transitions(),
        checks: Vec::new(),
    };
    let structural = csr_layout_check(c, opts, &mut report.checks);
    numeric_checks(c, opts, &mut report.checks);
    if structural {
        let graph = AuditGraph::from_compiled(c);
        graph_checks(&graph, opts, &mut report.checks);
        report.checks.push(regeneration_check(c));
    } else {
        skip_graph_checks(&mut report.checks);
    }
    report
}

/// Certifies the unichain property of one *specific* policy exactly: Tarjan
/// SCC over the policy-closed subgraph, counting recurrent (closed)
/// classes. Returns a `policy-unichain` check: Pass iff the induced chain
/// has exactly one recurrent class.
pub fn audit_policy(mdp: &CompiledMdp, policy: &Policy, opts: &AuditOptions) -> CheckResult {
    const NAME: &str = "policy-unichain";
    if mdp.validate_policy(policy).is_err() {
        return CheckResult::fail(
            NAME,
            "policy does not fit the model; cannot analyze the induced chain",
            Vec::new(),
        );
    }
    let graph = AuditGraph::from_compiled(mdp);
    let (adj_off, adj) = graph.policy_adjacency(policy);
    let scc = tarjan_scc(&adj_off, &adj);
    let closed = closed_components(&scc, &adj_off, &adj);
    if closed.len() == 1 {
        CheckResult::pass(
            NAME,
            format!(
                "policy-induced chain has exactly one recurrent class ({} of {} states)",
                scc.members(closed[0]).len(),
                graph.n()
            ),
        )
    } else {
        let reps: Vec<usize> =
            closed.iter().take(opts.max_offenders).map(|&c| scc.members(c)[0]).collect();
        CheckResult::fail(
            NAME,
            format!(
                "policy-induced chain has {} disjoint recurrent classes (representative states listed)",
                closed.len()
            ),
            reps,
        )
    }
}

// ---------------------------------------------------------------------------
// Structural checks
// ---------------------------------------------------------------------------

/// Pushes offending `id` keeping the cap; returns the total count via the
/// caller's counter.
fn push_offender(offenders: &mut Vec<usize>, id: usize, cap: usize) {
    if offenders.len() < cap {
        offenders.push(id);
    }
}

/// CSR layout invariants of a model: offset arrays anchored at zero,
/// strictly increasing (every state has an action, every arm a
/// transition), ending at the buffer lengths; all destination indices in
/// range. Returns whether the graph passes can run safely.
fn csr_layout_check(c: &CompiledMdp, opts: &AuditOptions, checks: &mut Vec<CheckResult>) -> bool {
    const NAME: &str = "csr-layout";
    let (arm_offsets, tr_offsets) = c.raw_offsets();
    let next = c.raw_next();
    let mut problems = Vec::new();
    if arm_offsets.first() != Some(&0) || tr_offsets.first() != Some(&0) {
        problems.push("offset arrays not anchored at 0".to_string());
    }
    if arm_offsets.windows(2).any(|w| w[0] > w[1]) {
        problems.push("arm offsets not monotone".to_string());
    }
    if tr_offsets.windows(2).any(|w| w[0] > w[1]) {
        problems.push("transition offsets not monotone".to_string());
    }
    let no_actions = arm_offsets.windows(2).filter(|w| w[0] == w[1]).count();
    if no_actions > 0 {
        problems.push(format!("{no_actions} state(s) without actions"));
    }
    let empty_arms = tr_offsets.windows(2).filter(|w| w[0] == w[1]).count();
    if empty_arms > 0 {
        problems.push(format!("{empty_arms} arm(s) with no transitions"));
    }
    if arm_offsets.last().copied().unwrap_or(0) as usize != c.num_arms() {
        problems.push("arm offsets do not cover the arm buffer".to_string());
    }
    if tr_offsets.last().copied().unwrap_or(0) as usize != c.num_transitions() {
        problems.push("transition offsets do not cover the transition buffer".to_string());
    }
    if c.raw_rewards().len() != c.num_transitions() * c.reward_components() {
        problems.push("reward buffer length mismatch".to_string());
    }
    let n = c.num_states() as u32;
    let mut offenders = Vec::new();
    let mut out_of_range = 0usize;
    for (t, &dest) in next.iter().enumerate() {
        if dest >= n {
            out_of_range += 1;
            push_offender(&mut offenders, t, opts.max_offenders);
        }
    }
    if out_of_range > 0 {
        problems.push(format!("{out_of_range} destination index(es) out of range"));
    }
    if problems.is_empty() && c.num_states() > 0 {
        checks.push(CheckResult::pass(
            NAME,
            "every state has >=1 action, every arm >=1 transition; offsets anchored, \
             all indices in bounds",
        ));
        true
    } else {
        if c.num_states() == 0 {
            problems.push("model has no states".to_string());
        }
        checks.push(CheckResult::fail(NAME, problems.join("; "), offenders));
        false
    }
}

// ---------------------------------------------------------------------------
// Numeric checks
// ---------------------------------------------------------------------------

/// Probability range/finiteness, per-arm mass, reward finiteness.
fn numeric_checks(c: &CompiledMdp, opts: &AuditOptions, checks: &mut Vec<CheckResult>) {
    let mut bad_prob_arms = Vec::new();
    let mut bad_prob_count = 0usize;
    let mut bad_mass_arms = Vec::new();
    let mut bad_mass_count = 0usize;
    let mut worst_mass_dev = 0.0f64;
    let mut bad_reward_arms = Vec::new();
    let mut bad_reward_count = 0usize;

    for arm in 0..c.num_arms() {
        let mut mass = 0.0f64;
        let mut arm_bad_prob = false;
        let mut arm_bad_reward = false;
        let mut any = false;
        for (_, p, reward) in c.transitions(arm) {
            any = true;
            if !p.is_finite() || p < 0.0 || p > 1.0 + opts.prob_tolerance {
                arm_bad_prob = true;
            }
            mass += p;
            if reward.iter().any(|r| !r.is_finite()) {
                arm_bad_reward = true;
            }
        }
        if arm_bad_prob {
            bad_prob_count += 1;
            push_offender(&mut bad_prob_arms, arm, opts.max_offenders);
        }
        // An arm with no transitions has zero mass; `structure` already
        // reports it, but the mass check flags it too (it cannot sum to 1).
        let dev = (mass - 1.0).abs();
        if !any || dev.is_nan() || dev > opts.prob_tolerance {
            bad_mass_count += 1;
            push_offender(&mut bad_mass_arms, arm, opts.max_offenders);
        }
        if dev.is_finite() {
            worst_mass_dev = worst_mass_dev.max(dev);
        } else {
            worst_mass_dev = f64::INFINITY;
        }
        if arm_bad_reward {
            bad_reward_count += 1;
            push_offender(&mut bad_reward_arms, arm, opts.max_offenders);
        }
    }

    checks.push(if bad_prob_count == 0 {
        CheckResult::pass("prob-finite", "all probabilities finite and within [0, 1]")
    } else {
        CheckResult::fail(
            "prob-finite",
            format!("{bad_prob_count} arm(s) carry negative, >1, or non-finite probabilities"),
            bad_prob_arms,
        )
    });
    checks.push(if bad_mass_count == 0 {
        CheckResult::pass(
            "prob-mass",
            format!("every arm's mass within {:.1e} of 1 (worst dev {:.2e})", opts.prob_tolerance, worst_mass_dev),
        )
    } else {
        CheckResult::fail(
            "prob-mass",
            format!(
                "{bad_mass_count} arm(s) with probability mass off 1 by more than {:.1e} (worst dev {:.2e})",
                opts.prob_tolerance, worst_mass_dev
            ),
            bad_mass_arms,
        )
    });
    checks.push(if bad_reward_count == 0 {
        CheckResult::pass("reward-finite", "all reward components finite")
    } else {
        CheckResult::fail(
            "reward-finite",
            format!("{bad_reward_count} arm(s) carry NaN or infinite reward components"),
            bad_reward_arms,
        )
    });
}

// ---------------------------------------------------------------------------
// Graph analysis
// ---------------------------------------------------------------------------

/// The model's transition structure with probabilities erased: per-arm
/// positive-probability target lists in CSR form. All graph checks operate
/// on this view.
struct AuditGraph {
    /// `arm_offsets[s]..arm_offsets[s+1]` indexes state `s`'s arms.
    arm_offsets: Vec<usize>,
    /// `tr_offsets[a]..tr_offsets[a+1]` indexes arm `a`'s targets.
    tr_offsets: Vec<usize>,
    /// Positive-probability transition targets.
    to: Vec<usize>,
}

impl AuditGraph {
    fn from_compiled(c: &CompiledMdp) -> Self {
        let mut arm_offsets = Vec::with_capacity(c.num_states() + 1);
        let mut tr_offsets = Vec::with_capacity(c.num_arms() + 1);
        let mut to = Vec::with_capacity(c.num_transitions());
        arm_offsets.push(0);
        tr_offsets.push(0);
        for s in 0..c.num_states() {
            for arm in c.arm_range(s) {
                let (probs, dests) = c.arm_transitions(arm);
                for (&p, &d) in probs.iter().zip(dests) {
                    if p > 0.0 {
                        to.push(d as usize);
                    }
                }
                tr_offsets.push(to.len());
            }
            arm_offsets.push(tr_offsets.len() - 1);
        }
        AuditGraph { arm_offsets, tr_offsets, to }
    }

    fn n(&self) -> usize {
        self.arm_offsets.len() - 1
    }

    fn num_arms(&self) -> usize {
        self.tr_offsets.len() - 1
    }

    fn arms_of(&self, s: usize) -> std::ops::Range<usize> {
        self.arm_offsets[s]..self.arm_offsets[s + 1]
    }

    fn targets(&self, arm: usize) -> &[usize] {
        &self.to[self.tr_offsets[arm]..self.tr_offsets[arm + 1]]
    }

    /// Union adjacency: all positive-probability edges of all arms, as a
    /// state-level CSR (duplicates retained; the algorithms tolerate them).
    fn union_adjacency(&self) -> (Vec<usize>, Vec<usize>) {
        let mut off = Vec::with_capacity(self.n() + 1);
        off.push(0);
        let mut adj = Vec::with_capacity(self.to.len());
        for s in 0..self.n() {
            for arm in self.arms_of(s) {
                adj.extend_from_slice(self.targets(arm));
            }
            off.push(adj.len());
        }
        (off, adj)
    }

    /// Adjacency of the policy-closed subgraph: only the chosen arm's edges.
    fn policy_adjacency(&self, policy: &Policy) -> (Vec<usize>, Vec<usize>) {
        let mut off = Vec::with_capacity(self.n() + 1);
        off.push(0);
        let mut adj = Vec::new();
        for s in 0..self.n() {
            let arm = self.arm_offsets[s] + policy.choices[s];
            adj.extend_from_slice(self.targets(arm));
            off.push(adj.len());
        }
        (off, adj)
    }
}

/// Strongly connected components, component id per node.
struct Sccs {
    comp: Vec<usize>,
    count: usize,
    /// Nodes grouped by component (computed lazily from `comp`).
    groups: Vec<Vec<usize>>,
}

impl Sccs {
    fn members(&self, comp: usize) -> &[usize] {
        &self.groups[comp]
    }
}

/// Iterative Tarjan over a CSR adjacency (explicit stacks; safe for the
/// 100k+-state setting-2 models where recursion would overflow).
fn tarjan_scc(adj_off: &[usize], adj: &[usize]) -> Sccs {
    let n = adj_off.len() - 1;
    const UNSEEN: usize = usize::MAX;
    let mut index = vec![UNSEEN; n];
    let mut low = vec![0usize; n];
    let mut comp = vec![UNSEEN; n];
    let mut on_stack = vec![false; n];
    let mut stack: Vec<usize> = Vec::new();
    let mut call: Vec<(usize, usize)> = Vec::new();
    let mut next_index = 0usize;
    let mut count = 0usize;

    for root in 0..n {
        if index[root] != UNSEEN {
            continue;
        }
        index[root] = next_index;
        low[root] = next_index;
        next_index += 1;
        stack.push(root);
        on_stack[root] = true;
        call.push((root, adj_off[root]));
        while let Some(&mut (v, ref mut edge)) = call.last_mut() {
            if *edge < adj_off[v + 1] {
                let w = adj[*edge];
                *edge += 1;
                if index[w] == UNSEEN {
                    index[w] = next_index;
                    low[w] = next_index;
                    next_index += 1;
                    stack.push(w);
                    on_stack[w] = true;
                    call.push((w, adj_off[w]));
                } else if on_stack[w] {
                    low[v] = low[v].min(index[w]);
                }
            } else {
                call.pop();
                if let Some(&mut (u, _)) = call.last_mut() {
                    low[u] = low[u].min(low[v]);
                }
                if low[v] == index[v] {
                    while let Some(w) = stack.pop() {
                        on_stack[w] = false;
                        comp[w] = count;
                        if w == v {
                            break;
                        }
                    }
                    count += 1;
                }
            }
        }
    }

    let mut groups = vec![Vec::new(); count];
    for (node, &c) in comp.iter().enumerate() {
        groups[c].push(node);
    }
    Sccs { comp, count, groups }
}

/// Component ids with no outgoing edge to another component ("bottom" /
/// closed components) — each closed component traps every policy that
/// enters it.
fn closed_components(scc: &Sccs, adj_off: &[usize], adj: &[usize]) -> Vec<usize> {
    let mut closed = vec![true; scc.count];
    for v in 0..adj_off.len() - 1 {
        for &w in &adj[adj_off[v]..adj_off[v + 1]] {
            if scc.comp[v] != scc.comp[w] {
                closed[scc.comp[v]] = false;
            }
        }
    }
    (0..scc.count).filter(|&c| closed[c]).collect()
}

/// Maximal end-component decomposition: the standard prune-to-fixpoint over
/// SCCs. Each returned component is a set of states closed under at least
/// one arm per state whose edges stay inside the set.
fn maximal_end_components(g: &AuditGraph) -> Vec<Vec<usize>> {
    let n = g.n();
    let mut state_alive = vec![true; n];
    let mut arm_alive = vec![true; g.num_arms()];

    loop {
        // Adjacency over alive states via alive arms.
        let mut off = Vec::with_capacity(n + 1);
        off.push(0);
        let mut adj = Vec::new();
        for s in 0..n {
            if state_alive[s] {
                for arm in g.arms_of(s) {
                    if arm_alive[arm] {
                        for &t in g.targets(arm) {
                            if state_alive[t] {
                                adj.push(t);
                            }
                        }
                    }
                }
            }
            off.push(adj.len());
        }
        let scc = tarjan_scc(&off, &adj);

        let mut changed = false;
        for s in 0..n {
            if !state_alive[s] {
                continue;
            }
            let mut any_arm = false;
            for arm in g.arms_of(s) {
                if !arm_alive[arm] {
                    continue;
                }
                // An arm survives only if every positive-probability edge
                // stays inside s's current component.
                let leaves =
                    g.targets(arm).iter().any(|&t| !state_alive[t] || scc.comp[t] != scc.comp[s]);
                if leaves {
                    arm_alive[arm] = false;
                    changed = true;
                } else {
                    any_arm = true;
                }
            }
            if !any_arm {
                state_alive[s] = false;
                changed = true;
            }
        }
        if !changed {
            // Group surviving states by component.
            let mut by_comp: Vec<Vec<usize>> = vec![Vec::new(); scc.count];
            for s in 0..n {
                if state_alive[s] {
                    by_comp[scc.comp[s]].push(s);
                }
            }
            return by_comp.into_iter().filter(|c| !c.is_empty()).collect();
        }
    }
}

/// The `forall`-attractor certificate: counts the states from which
/// `target` is reached with positive probability under **every** policy
/// (fixed point: a state joins when *all* of its arms have at least one
/// edge into the set). Linear in the number of edges via a
/// predecessor-indexed worklist.
fn forall_attractor_size(g: &AuditGraph, pred: &PredIndex, target: usize) -> usize {
    let n = g.n();
    let mut in_set = vec![false; n];
    let mut arm_hit = vec![false; g.num_arms()];
    let mut sat_arms = vec![0usize; n];
    let mut queue = vec![target];
    in_set[target] = true;
    let mut size = 1usize;
    while let Some(u) = queue.pop() {
        for &arm in pred.arms_into(u) {
            if arm_hit[arm] {
                continue;
            }
            arm_hit[arm] = true;
            let s = pred.owner[arm];
            sat_arms[s] += 1;
            let total = g.arms_of(s).len();
            if sat_arms[s] == total && !in_set[s] {
                in_set[s] = true;
                size += 1;
                queue.push(s);
            }
        }
    }
    size
}

/// Transition-reversed index: for each state, which arms have an edge into
/// it; plus each arm's owning state.
struct PredIndex {
    off: Vec<usize>,
    arms: Vec<usize>,
    owner: Vec<usize>,
}

impl PredIndex {
    fn build(g: &AuditGraph) -> Self {
        let n = g.n();
        let mut owner = vec![0usize; g.num_arms()];
        let mut counts = vec![0usize; n];
        for s in 0..n {
            for arm in g.arms_of(s) {
                owner[arm] = s;
                for &t in g.targets(arm) {
                    counts[t] += 1;
                }
            }
        }
        let mut off = Vec::with_capacity(n + 1);
        off.push(0);
        for c in &counts {
            off.push(off.last().copied().unwrap_or(0) + c);
        }
        let mut cursor = off.clone();
        let mut arms = vec![0usize; off[n]];
        for s in 0..n {
            for arm in g.arms_of(s) {
                for &t in g.targets(arm) {
                    arms[cursor[t]] = arm;
                    cursor[t] += 1;
                }
            }
        }
        PredIndex { off, arms, owner }
    }

    fn arms_into(&self, state: usize) -> &[usize] {
        &self.arms[self.off[state]..self.off[state + 1]]
    }
}

/// Placeholder results when structural failures make graph analysis
/// meaningless.
fn skip_graph_checks(checks: &mut Vec<CheckResult>) {
    for name in ["reachable", "absorbing", "end-components", "unichain", "regeneration"] {
        checks.push(CheckResult::warn(
            name,
            "skipped: structural failures prevent graph analysis",
            Vec::new(),
        ));
    }
}

/// The regeneration set `S` the exact solvers run on
/// ([`regeneration_set`]): its size, and the cycle avoiding state 0 that
/// makes it larger than `{0}`. Informational; it always passes.
fn regeneration_check(c: &CompiledMdp) -> CheckResult {
    let reg = regeneration_set(c);
    let k = reg.set.len();
    CheckResult::pass(
        "regeneration",
        match &reg.avoiding_cycle {
            None => "|S| = 1: every cycle passes state 0, so each exact solve step is one pass \
                     over the cycle from it"
                .to_string(),
            Some(cycle) => format!(
                "|S| = {k} of {} states: a {}-state cycle through state {} avoids state 0, \
                 so each exact evaluation factors a {k}x{k} system",
                c.num_states(),
                cycle.states.len(),
                cycle.states[0]
            ),
        },
    )
}

/// Reachability, absorbing states, MEC decomposition, unichain verdict.
fn graph_checks(g: &AuditGraph, opts: &AuditOptions, checks: &mut Vec<CheckResult>) {
    let n = g.n();

    // Forward reachability (BFS over the union graph).
    let (adj_off, adj) = g.union_adjacency();
    let start = opts.start_state.min(n.saturating_sub(1));
    let mut seen = vec![false; n];
    let mut queue = std::collections::VecDeque::new();
    seen[start] = true;
    queue.push_back(start);
    let mut reached = 1usize;
    while let Some(u) = queue.pop_front() {
        for &w in &adj[adj_off[u]..adj_off[u + 1]] {
            if !seen[w] {
                seen[w] = true;
                reached += 1;
                queue.push_back(w);
            }
        }
    }
    if reached == n {
        checks.push(CheckResult::pass(
            "reachable",
            format!("all {n} states reachable from start state {start}"),
        ));
    } else {
        let mut offenders = Vec::new();
        for (s, &ok) in seen.iter().enumerate() {
            if !ok {
                push_offender(&mut offenders, s, opts.max_offenders);
            }
        }
        checks.push(CheckResult::fail(
            "reachable",
            format!("{} of {n} states unreachable from start state {start}", n - reached),
            offenders,
        ));
    }

    // Absorbing states: every arm a pure self-loop.
    let mut absorbing = Vec::new();
    let mut absorbing_count = 0usize;
    for s in 0..n {
        let arms = g.arms_of(s);
        if !arms.is_empty() && arms.clone().all(|a| g.targets(a).iter().all(|&t| t == s)) {
            absorbing_count += 1;
            push_offender(&mut absorbing, s, opts.max_offenders);
        }
    }
    checks.push(match absorbing_count {
        0 => CheckResult::pass("absorbing", "no absorbing states"),
        1 => CheckResult::warn(
            "absorbing",
            "1 absorbing state (harmless iff it is the unique recurrent class)",
            absorbing,
        ),
        k => CheckResult::fail(
            "absorbing",
            format!("{k} disjoint absorbing states — the model is certainly multichain"),
            absorbing,
        ),
    });

    // Maximal end components.
    let mecs = maximal_end_components(g);
    let mec_check_failed = mecs.len() != 1;
    checks.push(match mecs.len() {
        0 => CheckResult::fail(
            "end-components",
            "no end component found (no policy has a recurrent class — model is malformed)",
            Vec::new(),
        ),
        1 => CheckResult::pass(
            "end-components",
            format!("exactly one maximal end component ({} states)", mecs[0].len()),
        ),
        k => {
            let reps: Vec<usize> = mecs.iter().take(opts.max_offenders).map(|m| m[0]).collect();
            CheckResult::fail(
                "end-components",
                format!(
                    "{k} disjoint maximal end components (representative states listed) — \
                     some policy has {k} recurrent classes"
                ),
                reps,
            )
        }
    });

    // Unichain verdict.
    if mec_check_failed {
        checks.push(CheckResult::fail(
            "unichain",
            "certainly multichain: multiple disjoint end components (see end-components)",
            Vec::new(),
        ));
        return;
    }
    let pred = PredIndex::build(g);
    let mut certified_by = None;
    for &candidate in mecs[0].iter().take(opts.unichain_candidates) {
        if forall_attractor_size(g, &pred, candidate) == n {
            certified_by = Some(candidate);
            break;
        }
    }
    checks.push(match certified_by {
        Some(t) => CheckResult::pass(
            "unichain",
            format!(
                "certified: state {t} is reachable from every state under every policy, \
                 so every policy has a single recurrent class"
            ),
        ),
        None => CheckResult::warn(
            "unichain",
            format!(
                "inconclusive: single end component, but universal reachability could not be \
                 certified from {} candidate state(s) (exact check is NP-hard)",
                mecs[0].len().min(opts.unichain_candidates)
            ),
            Vec::new(),
        ),
    });
}

// ---------------------------------------------------------------------------
// Demo models
// ---------------------------------------------------------------------------

/// A hand-built certainly-multichain model: the start state falls into
/// either of two disjoint absorbing traps — the canonical shape every
/// solver precondition forbids. Auditing it fails the `unichain` check.
/// Used by `bvc audit --demo multichain` and the serve API to show what a
/// failing report looks like.
pub fn demo_multichain() -> CompiledMdp {
    let mut m = Mdp::new(1);
    let start = m.add_state();
    let left = m.add_state();
    let right = m.add_state();
    m.add_action(
        start,
        0,
        vec![Transition::new(left, 0.5, vec![0.0]), Transition::new(right, 0.5, vec![0.0])],
    );
    m.add_action(left, 0, vec![Transition::new(left, 1.0, vec![1.0])]);
    m.add_action(right, 0, vec![Transition::new(right, 1.0, vec![0.0])]);
    CompiledMdp::compile(&m).expect("the demo model is well-formed")
}

/// A healthy two-state cycle plus a state nothing transitions into.
/// Auditing it fails the `reachable` check.
pub fn demo_unreachable() -> CompiledMdp {
    let mut m = Mdp::new(1);
    let a = m.add_state();
    let b = m.add_state();
    let orphan = m.add_state();
    m.add_action(a, 0, vec![Transition::new(b, 1.0, vec![1.0])]);
    m.add_action(b, 0, vec![Transition::new(a, 1.0, vec![0.0])]);
    m.add_action(orphan, 0, vec![Transition::new(a, 1.0, vec![0.0])]);
    CompiledMdp::compile(&m).expect("the demo model is well-formed")
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Audits a hand-built model as written, checks skipped, so broken
    /// models reach the auditor.
    fn audit(m: &Mdp, opts: &AuditOptions) -> AuditReport {
        audit_compiled(&CompiledMdp::compile_unchecked(m), opts)
    }

    /// Two states cycling deterministically: irreducible, unichain.
    fn cycle2() -> Mdp {
        let mut m = Mdp::new(1);
        let a = m.add_state();
        let b = m.add_state();
        m.add_action(a, 0, vec![Transition::new(b, 1.0, vec![1.0])]);
        m.add_action(b, 0, vec![Transition::new(a, 1.0, vec![0.0])]);
        m
    }

    /// Two disjoint absorbing states reachable from a common start: the
    /// canonical multichain shape.
    fn two_traps() -> Mdp {
        let mut m = Mdp::new(1);
        let start = m.add_state();
        let left = m.add_state();
        let right = m.add_state();
        m.add_action(
            start,
            0,
            vec![Transition::new(left, 0.5, vec![0.0]), Transition::new(right, 0.5, vec![0.0])],
        );
        m.add_action(left, 0, vec![Transition::new(left, 1.0, vec![0.0])]);
        m.add_action(right, 0, vec![Transition::new(right, 1.0, vec![0.0])]);
        m
    }

    #[test]
    fn clean_model_passes_everything() {
        let report = audit(&cycle2(), &AuditOptions::default());
        assert!(report.clean(), "{}", report.render_text());
        assert_eq!(report.check("unichain").map(|c| c.status), Some(AuditStatus::Pass));
        report.gate().expect("clean model gates through");
    }

    #[test]
    fn demo_models_fail_their_named_check() {
        let opts = AuditOptions::default();
        let multichain = audit_compiled(&demo_multichain(), &opts);
        assert_eq!(multichain.check("unichain").map(|c| c.status), Some(AuditStatus::Fail));
        let unreachable = audit_compiled(&demo_unreachable(), &opts);
        assert_eq!(unreachable.check("reachable").map(|c| c.status), Some(AuditStatus::Fail));
        assert_eq!(unreachable.check("csr-layout").map(|c| c.status), Some(AuditStatus::Pass));
    }

    #[test]
    fn multichain_model_fails_unichain_and_end_components() {
        let report = audit(&two_traps(), &AuditOptions::default());
        assert!(!report.passed(), "{}", report.render_text());
        let ec = report.check("end-components").expect("check exists");
        assert_eq!(ec.status, AuditStatus::Fail);
        assert_eq!(report.check("unichain").map(|c| c.status), Some(AuditStatus::Fail));
        assert_eq!(report.check("absorbing").map(|c| c.status), Some(AuditStatus::Fail));
        // The gate surfaces a structured error naming the first failed check.
        let err = report.gate().expect_err("must gate");
        assert!(matches!(err, MdpError::AuditFailed { .. }), "{err:?}");
    }

    #[test]
    fn unreachable_state_is_reported_by_id() {
        let mut m = cycle2();
        let orphan = m.add_state();
        m.add_action(orphan, 0, vec![Transition::new(0, 1.0, vec![0.0])]);
        let report = audit(&m, &AuditOptions::default());
        let r = report.check("reachable").expect("check exists");
        assert_eq!(r.status, AuditStatus::Fail);
        assert_eq!(r.offenders, vec![orphan]);
    }

    #[test]
    fn nan_probability_and_reward_are_flagged() {
        let mut m = Mdp::new(1);
        let s = m.add_state();
        m.add_action(
            s,
            0,
            vec![
                Transition::new(s, f64::NAN, vec![0.0]),
                Transition::new(s, 1.0, vec![f64::INFINITY]),
            ],
        );
        let report = audit(&m, &AuditOptions::default());
        assert_eq!(report.check("prob-finite").map(|c| c.status), Some(AuditStatus::Fail));
        assert_eq!(report.check("prob-mass").map(|c| c.status), Some(AuditStatus::Fail));
        assert_eq!(report.check("reward-finite").map(|c| c.status), Some(AuditStatus::Fail));
    }

    #[test]
    fn non_stochastic_row_fails_mass_only() {
        let mut m = Mdp::new(1);
        let s = m.add_state();
        m.add_action(s, 0, vec![Transition::new(s, 0.5, vec![0.0])]);
        let report = audit(&m, &AuditOptions::default());
        assert_eq!(report.check("prob-mass").map(|c| c.status), Some(AuditStatus::Fail));
        assert_eq!(report.check("prob-finite").map(|c| c.status), Some(AuditStatus::Pass));
    }

    #[test]
    fn structural_breakage_skips_graph_analysis() {
        let mut m = Mdp::new(1);
        m.add_state(); // no actions at all
        let report = audit(&m, &AuditOptions::default());
        let layout = report.check("csr-layout").expect("check exists");
        assert_eq!(layout.status, AuditStatus::Fail);
        assert!(layout.detail.contains("1 state(s) without actions"), "{}", layout.detail);
        assert_eq!(report.check("unichain").map(|c| c.status), Some(AuditStatus::Warn));

        let mut m = Mdp::new(1);
        let s = m.add_state();
        m.add_action(s, 0, vec![]);
        let layout = audit(&m, &AuditOptions::default()).check("csr-layout").cloned();
        assert!(layout.is_some_and(|c| c.detail.contains("1 arm(s) with no transitions")));
    }

    #[test]
    fn policy_unichain_distinguishes_policies() {
        // State 0 has a "stay" arm and a "join cycle" arm; states 1/2 cycle.
        let mut m = Mdp::new(1);
        let a = m.add_state();
        let b = m.add_state();
        let c = m.add_state();
        m.add_action(a, 0, vec![Transition::new(a, 1.0, vec![0.0])]); // stay
        m.add_action(a, 1, vec![Transition::new(b, 1.0, vec![0.0])]); // join
        m.add_action(b, 0, vec![Transition::new(c, 1.0, vec![0.0])]);
        m.add_action(c, 0, vec![Transition::new(b, 1.0, vec![0.0])]);
        let opts = AuditOptions::default();
        // Staying policy: {0} and {1,2} are both recurrent → multichain.
        let c = CompiledMdp::compile(&m).unwrap();
        let split = audit_policy(&c, &Policy { choices: vec![0, 0, 0] }, &opts);
        assert_eq!(split.status, AuditStatus::Fail);
        assert_eq!(split.offenders.len(), 2);
        // Joining policy: only {1,2} recurrent → unichain.
        let joined = audit_policy(&c, &Policy { choices: vec![1, 0, 0] }, &opts);
        assert_eq!(joined.status, AuditStatus::Pass, "{}", joined.detail);
        // The *model* is multichain (the staying policy witnesses it).
        let report = audit(&m, &opts);
        assert_eq!(report.check("unichain").map(|c| c.status), Some(AuditStatus::Fail));
    }

    #[test]
    fn mec_detection_catches_non_bottom_end_component() {
        // 0 can stay (self-loop arm) or fall into absorbing 1: two MECs
        // ({0}, {1}) although the union graph has a single bottom SCC {1}.
        let mut m = Mdp::new(1);
        let a = m.add_state();
        let b = m.add_state();
        m.add_action(a, 0, vec![Transition::new(a, 1.0, vec![0.0])]);
        m.add_action(a, 1, vec![Transition::new(b, 1.0, vec![0.0])]);
        m.add_action(b, 0, vec![Transition::new(b, 1.0, vec![0.0])]);
        let report = audit(&m, &AuditOptions::default());
        let ec = report.check("end-components").expect("exists");
        assert_eq!(ec.status, AuditStatus::Fail, "{}", ec.detail);
        assert!(ec.detail.contains("2 disjoint"), "{}", ec.detail);
    }

    #[test]
    fn transient_states_do_not_break_unichain() {
        // 0 → 1 → 1: state 0 transient, single recurrent class {1}.
        let mut m = Mdp::new(1);
        let a = m.add_state();
        let b = m.add_state();
        m.add_action(a, 0, vec![Transition::new(b, 1.0, vec![0.0])]);
        m.add_action(b, 0, vec![Transition::new(b, 1.0, vec![0.0])]);
        let report = audit(&m, &AuditOptions::default());
        assert_eq!(report.check("unichain").map(|c| c.status), Some(AuditStatus::Pass));
        assert_eq!(report.check("absorbing").map(|c| c.status), Some(AuditStatus::Warn));
        assert!(report.passed());
    }

    #[test]
    fn zero_probability_edges_are_ignored_by_graph_analysis() {
        // The structural edge 1 → 0 has probability zero: state 1 is
        // effectively absorbing, and 0 cannot actually be re-entered.
        let mut m = Mdp::new(1);
        let a = m.add_state();
        let b = m.add_state();
        m.add_action(a, 0, vec![Transition::new(b, 1.0, vec![0.0])]);
        m.add_action(
            b,
            0,
            vec![Transition::new(a, 0.0, vec![0.0]), Transition::new(b, 1.0, vec![0.0])],
        );
        let report = audit(&m, &AuditOptions::default());
        assert_eq!(report.check("absorbing").map(|c| c.status), Some(AuditStatus::Warn));
        assert_eq!(report.check("unichain").map(|c| c.status), Some(AuditStatus::Pass));
    }

    #[test]
    fn render_text_is_well_formed() {
        let report = audit(&two_traps(), &AuditOptions::default());
        let text = report.render_text();
        assert!(text.contains("[FAIL]"), "{text}");
        assert!(text.contains("verdict: FAIL"), "{text}");
    }

    #[test]
    fn offender_lists_are_capped() {
        let mut m = Mdp::new(1);
        let hub = m.add_state();
        // 20 unreachable states.
        let mut orphans = Vec::new();
        for _ in 0..20 {
            orphans.push(m.add_state());
        }
        m.add_action(hub, 0, vec![Transition::new(hub, 1.0, vec![0.0])]);
        for &o in &orphans {
            m.add_action(o, 0, vec![Transition::new(hub, 1.0, vec![0.0])]);
        }
        let opts = AuditOptions { max_offenders: 4, ..Default::default() };
        let report = audit(&m, &opts);
        let r = report.check("reachable").expect("exists");
        assert_eq!(r.status, AuditStatus::Fail);
        assert_eq!(r.offenders.len(), 4);
        assert!(r.detail.contains("20 of 21"), "{}", r.detail);
    }
}
