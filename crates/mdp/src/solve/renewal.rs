//! Exact average-reward and ratio solves, fixed-policy evaluation and first
//! passages on every model: renewal over a regeneration set.
//!
//! [`regeneration_set`] finds, once per graph, a set `S` of states that
//! every cycle of the state graph of all arms together (so of every policy
//! at once) passes: state 0 and those targets of a depth-first search's back
//! edges from state 0 that some cycle needs. With the edges into `S`
//! removed the graph is acyclic, and [`Regeneration::order`] is a
//! topological order of it. Every BU attack model has `S = {0}` (state 0 =
//! `BASE`); the Bitcoin models (Sapirshtein et al.'s) have 80 of their 3,981
//! states in `S` at cap 40.
//!
//! Under a fixed policy, an *excursion* from a state runs until the chain
//! enters `S`. One pass over the order gives each excursion's expected
//! reward `r`, length `τ` and entry law `P_S` into `S` exactly, since each
//! state only reads states the pass has finished. The policy's gain `g` and
//! its bias `h` on `S` then solve the semi-Markov system
//!
//! ```text
//! h(i) = r(i) − g·τ(i) + Σ_j P_S(i, j)·h(j)   for i in S,   h(0) = 0.
//! ```
//!
//! * **`S = {0}`** (every BU model): the system is `g = r(0) / τ(0)`, the
//!   renewal-reward theorem over one cycle from state 0 back to it. A
//!   backward pass gives both sums, so evaluation costs nothing beyond the
//!   pass.
//! * **`|S| > 1`**: the `|S| × |S|` system is solved by LU with partial
//!   pivoting. It is singular exactly when the embedded chain on `S` has
//!   more than one recurrent class, which is
//!   [`MdpError::MultichainPolicy`], not a NaN.
//!
//! Improvement is one greedy backward pass with `h` fixed on `S`: each state
//! takes the arm maximizing `r − λ·τ` plus the value of where it leads
//! (first wins ties). That is Howard's policy iteration on the semi-Markov
//! decision process over `S`: every evaluation is exact, and it ends in
//! finitely many steps, once a pass changes no choice or raises no state of
//! `S` beyond rounding (`TIE`).
//!
//! A gain solve (Table 3's `u2`, through
//! [`relative_value_iteration_compiled`]) on `S = {0}` is Dinkelbach's loop
//! on the cycle ratio, a greedy pass carrying its policy's own cycle sums;
//! on a larger set it is that policy iteration. A ratio solve (`u1`, `u3`,
//! through [`maximize_ratio_compiled`]) is the ratio solver's Dinkelbach
//! loop, each step one greedy pass on `S = {0}` or one policy iteration.
//!
//! The stationary law ([`evaluate_policy`](crate::solve::eval::evaluate_policy))
//! is one forward pass seeded with the embedded chain's law on `S`: the
//! expected visits of every state per excursion. [`first_passage`] carries,
//! on a model with `S = {0}`, the probability of entering a target set
//! before a stop set or the return to state 0, and the expected steps until
//! the first of those (the episode metrics of `bvc-bu`).
//!
//! [`relative_value_iteration_compiled`]: crate::solve::rvi::relative_value_iteration_compiled
//! [`maximize_ratio_compiled`]: crate::solve::ratio::maximize_ratio_compiled

use crate::budget::SolveBudget;
use crate::compiled::CompiledMdp;
use crate::error::MdpError;
use crate::model::Policy;
use crate::solve::lu::Lu;
use crate::solve::ratio::{dinkelbach, dinkelbach_from_zero};
use std::ops::Range;

/// Name the budget and error paths report for this solver.
const SOLVER: &str = "renewal";

/// The slot of a state outside the regeneration set.
const OUTSIDE: u32 = u32::MAX;

/// An improvement of a state of `S` by at most this fraction of the
/// magnitudes it is computed from is rounding, not progress: it stops the
/// policy iteration on a set larger than `{0}`.
const TIE: f64 = 1e-12;

/// A cycle of a model's state graph that avoids state 0: the witness that
/// state 0 is not a regeneration state on its own. Each state steps to the
/// next by a transition of one of its arms, and the last steps back to the
/// first.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AvoidingCycle {
    /// The states on the cycle, in the order a path walks them; never 0.
    pub states: Vec<u32>,
}

/// A model's regeneration set and pass order (see the module docs), found
/// once per graph by [`regeneration_set`].
#[derive(Debug)]
pub struct Regeneration {
    /// The regeneration set `S`, ascending: state 0 and the targets of the
    /// search's back edges that some cycle needs.
    pub set: Vec<u32>,
    /// Every state, in a topological order of the state graph without the
    /// edges into `S` that starts with `S`.
    pub order: Vec<u32>,
    /// The cycle closed by the search's first back edge to a state other
    /// than 0: present exactly when `S` is larger than `{0}`.
    pub avoiding_cycle: Option<AvoidingCycle>,
    /// Each state's index in `set`, or [`OUTSIDE`].
    slot: Vec<u32>,
}

/// The regeneration set of `compiled`'s graph and its pass order.
///
/// Computed on the first call for a graph (a depth-first search from state
/// 0, then from every state it did not reach; one search per back-edge
/// target other than 0 to drop those no cycle needs; Kahn's algorithm over
/// the graph without the edges into `S`) and shared after that by every
/// model on the same structure arrays. On `S = {0}` the order is Kahn's over
/// the graph without the edges into state 0, sources in index order.
pub fn regeneration_set(compiled: &CompiledMdp) -> &Regeneration {
    compiled.structure().regeneration().get_or_init(|| find_set(compiled))
}

/// [`regeneration_set`] without the memo.
fn find_set(compiled: &CompiledMdp) -> Regeneration {
    let n = compiled.num_states();
    let (arm_offsets, tr_offsets) = compiled.raw_offsets();
    let next = compiled.raw_next();
    // A state's arms, and so their transitions, are contiguous in CSR order.
    let edges = |s: usize| {
        tr_offsets[arm_offsets[s] as usize] as usize
            ..tr_offsets[arm_offsets[s + 1] as usize] as usize
    };
    // Depth-first search with an explicit stack of (state, next edge);
    // `open` marks the states on the stack, `seen` every state entered, and
    // `slot` the members of `S` until they are numbered.
    let (mut seen, mut open, mut slot) = (vec![false; n], vec![false; n], vec![OUTSIDE; n]);
    slot[0] = 0;
    let mut avoiding_cycle = None;
    let mut stack: Vec<(u32, usize)> = Vec::new();
    for root in 0..n {
        if seen[root] {
            continue;
        }
        seen[root] = true;
        open[root] = true;
        stack.push((root as u32, edges(root).start));
        while let Some(top) = stack.last_mut() {
            let s = top.0 as usize;
            let e = top.1;
            if e == edges(s).end {
                open[s] = false;
                stack.pop();
                continue;
            }
            top.1 += 1;
            let to = next[e] as usize;
            if open[to] {
                // A back edge: `to` is on the stack, so the stack from `to`
                // up is a cycle, and one avoiding state 0 unless `to` is 0.
                slot[to] = 0;
                if to != 0 && avoiding_cycle.is_none() {
                    let from = stack.iter().position(|&(v, _)| v as usize == to).unwrap_or(0);
                    let states = stack[from..].iter().map(|e| e.0).collect();
                    avoiding_cycle = Some(AvoidingCycle { states });
                }
            } else if !seen[to] {
                seen[to] = true;
                open[to] = true;
                stack.push((to as u32, edges(to).start));
            }
        }
    }
    // Every cycle holds a back edge, so the targets cut every cycle, but
    // often more of them than needed.
    if avoiding_cycle.is_some() {
        drop_unneeded_targets(next, edges, &mut slot);
    }
    // Without the edges into `S` the graph is acyclic and Kahn's algorithm
    // orders every state. `order` doubles as its FIFO queue, `S` first: its
    // states have no counted in-edges.
    let set: Vec<u32> = (0..n as u32).filter(|&s| slot[s as usize] != OUTSIDE).collect();
    for (j, &s) in set.iter().enumerate() {
        slot[s as usize] = j as u32;
    }
    let outside = |to: &&u32| slot[**to as usize] == OUTSIDE;
    let mut in_degree = vec![0u32; n];
    for &to in next.iter().filter(outside) {
        in_degree[to as usize] += 1;
    }
    let mut order = set.clone();
    order.extend((0..n as u32).filter(|&s| in_degree[s as usize] == 0 && outside(&&s)));
    let mut head = 0;
    while let Some(&s) = order.get(head) {
        head += 1;
        for &to in next[edges(s as usize)].iter().filter(outside) {
            let d = &mut in_degree[to as usize];
            *d -= 1;
            if *d == 0 {
                order.push(to);
            }
        }
    }
    debug_assert_eq!(order.len(), n, "the graph without the edges into S is acyclic");
    Regeneration { set, order, avoiding_cycle, slot }
}

/// Drops from the back-edge targets marked in `slot` each that lies on no
/// cycle through the states outside the set, last state first (state 0
/// stays): a backward search from it over predecessors outside the set
/// does not come back to it. Every cycle still passes the set. On the
/// cap-40 Bitcoin model 208 targets shrink to 80; searching backward reads
/// a few times fewer states there than searching forward.
fn drop_unneeded_targets(next: &[u32], edges: impl Fn(usize) -> Range<usize>, slot: &mut [u32]) {
    let n = slot.len();
    let mut pred = vec![Vec::new(); n];
    for s in 0..n {
        for &to in &next[edges(s)] {
            pred[to as usize].push(s as u32);
        }
    }
    // `stamp` marks the states each search entered.
    let (mut stamp, mut todo) = (vec![OUTSIDE; n], Vec::new());
    for c in (1..n).rev() {
        if slot[c] == OUTSIDE {
            continue;
        }
        stamp[c] = c as u32;
        todo.clear();
        todo.push(c);
        let mut on_cycle = false;
        while let (false, Some(s)) = (on_cycle, todo.pop()) {
            for &from in &pred[s] {
                let from = from as usize;
                on_cycle |= from == c;
                if slot[from] == OUTSIDE && stamp[from] != c as u32 {
                    stamp[from] = c as u32;
                    todo.push(from);
                }
            }
        }
        if !on_cycle {
            slot[c] = OUTSIDE;
        }
    }
}

/// What [`first_passage`] finds for every state.
#[derive(Debug, Clone, PartialEq)]
pub struct FirstPassage {
    /// The probability of entering the target set before the stop set or
    /// the return to state 0: 1 on a target state, 0 on a stop state.
    pub hit: Vec<f64>,
    /// The expected steps until the first of those three events: 0 on a
    /// target or stop state.
    pub steps: Vec<f64>,
}

/// The first passage of the chain `policy` induces into the states marked
/// in `target`, cut at the states marked in `stop` and at the return to
/// state 0, from every state: one exact backward pass in reverse
/// [`Regeneration::order`]. State 0's own entry starts a cycle, so it reads
/// its successors like any other unmarked state; a target mark wins over a
/// stop mark.
///
/// A mask whose length is not the state count is an [`MdpError::Shape`]
/// error, and a model whose regeneration set is larger than `{0}` an
/// [`MdpError::NotRegenerative`] one.
pub fn first_passage(
    compiled: &CompiledMdp,
    policy: &Policy,
    target: &[bool],
    stop: &[bool],
) -> Result<FirstPassage, MdpError> {
    compiled.validate_policy(policy)?;
    let n = compiled.num_states();
    for (mask, what) in [(target, "first-passage target mask"), (stop, "first-passage stop mask")] {
        if mask.len() != n {
            return Err(MdpError::Shape { what, found: mask.len(), expected: n });
        }
    }
    let reg = regeneration_set(compiled);
    if let Some(witness) = &reg.avoiding_cycle {
        return Err(MdpError::NotRegenerative { witness: witness.clone() });
    }
    let (mut hit, mut steps) = (vec![0.0; n], vec![0.0; n]);
    // State 0 comes first in the order, so it is finished last: until then
    // its zero entries stand for the return that ends the cycle.
    for &s in reg.order.iter().rev() {
        let s = s as usize;
        if target[s] {
            hit[s] = 1.0;
        } else if !stop[s] {
            let (probs, nexts) = compiled.arm_transitions(compiled.policy_arm(policy, s));
            let (mut h, mut t) = (0.0, 1.0);
            for (p, &to) in probs.iter().zip(nexts) {
                h += p * hit[to as usize];
                t += p * steps[to as usize];
            }
            (hit[s], steps[s]) = (h, t);
        }
    }
    Ok(FirstPassage { hit, steps })
}

/// The stationary law of the chain the arms `chosen` (one per state)
/// induce, exactly; a multichain chain is [`MdpError::MultichainPolicy`].
pub(crate) fn stationary_law(
    compiled: &CompiledMdp,
    reg: &Regeneration,
    chosen: &[usize],
) -> Result<Vec<f64>, MdpError> {
    let seed = match reg.set.len() {
        1 => vec![1.0],
        _ => Embedded::new(compiled, reg, chosen, None)?.entry_law(),
    };
    Ok(law_from(compiled, reg, chosen, &seed))
}

/// The expected visits of every state per excursion from the law `seed`
/// on `S`, over their sum: one forward pass over the order, each state's
/// visits only coming from states before it and an entry into `S` ending
/// the excursion.
fn law_from(
    compiled: &CompiledMdp,
    reg: &Regeneration,
    chosen: &[usize],
    seed: &[f64],
) -> Vec<f64> {
    let mut visits = vec![0.0; compiled.num_states()];
    for (&s, &mass) in reg.set.iter().zip(seed) {
        visits[s as usize] = mass;
    }
    for &s in &reg.order {
        let mass = visits[s as usize];
        if mass <= 0.0 {
            continue;
        }
        let (probs, nexts) = compiled.arm_transitions(chosen[s as usize]);
        for (p, &to) in probs.iter().zip(nexts) {
            if reg.slot[to as usize] == OUTSIDE {
                visits[to as usize] += mass * p;
            }
        }
    }
    let total: f64 = visits.iter().sum();
    for x in visits.iter_mut() {
        *x /= total;
    }
    visits
}

/// The semi-Markov system of one policy on a regeneration set larger than
/// `{0}`, factored: row `i` holds the expected length `τ(i)` of the
/// excursion from `S`'s `i`-th state in column 0 (the gain's) and
/// `δ(i, j) − P_S(i, j)` in the columns `j ≥ 1` (the bias's, `h(0) = 0`).
struct Embedded {
    lu: Lu,
    /// The excursions' expected rewards `r`, when the system was built with
    /// per-arm rewards.
    reward: Vec<f64>,
}

impl Embedded {
    /// One forward pass from each state of `S` under the arms `chosen`,
    /// then the LU factorization. A singular system is
    /// [`MdpError::MultichainPolicy`].
    fn new(
        compiled: &CompiledMdp,
        reg: &Regeneration,
        chosen: &[usize],
        exp_reward: Option<&[f64]>,
    ) -> Result<Self, MdpError> {
        let k = reg.set.len();
        let mut m = vec![0.0; k * k];
        let mut reward = vec![0.0; k];
        let mut visits = vec![0.0; compiled.num_states()];
        for (i, (&s, row)) in reg.set.iter().zip(m.chunks_exact_mut(k)).enumerate() {
            // Each state passes its visits on and is left at zero; the pass
            // ends when no state holds any (`pending` counts those that do).
            visits[s as usize] = 1.0;
            let (mut pending, mut steps, mut r) = (1usize, 0.0, 0.0);
            for &s in &reg.order {
                let mass = visits[s as usize];
                if mass <= 0.0 {
                    continue;
                }
                visits[s as usize] = 0.0;
                let arm = chosen[s as usize];
                steps += mass;
                r += exp_reward.map_or(0.0, |w| mass * w[arm]);
                let (probs, nexts) = compiled.arm_transitions(arm);
                for (p, &to) in probs.iter().zip(nexts) {
                    match reg.slot[to as usize] {
                        OUTSIDE => {
                            let v = &mut visits[to as usize];
                            pending += usize::from(*v <= 0.0);
                            *v += mass * p;
                        }
                        j => row[j as usize] -= mass * p,
                    }
                }
                pending -= 1;
                if pending == 0 {
                    break;
                }
            }
            row[i] += 1.0;
            row[0] = steps;
            reward[i] = r;
        }
        let lu = Lu::factor(m, k)
            .map_err(|column| MdpError::MultichainPolicy { state: reg.set[column] as usize })?;
        Ok(Embedded { lu, reward })
    }

    /// The gain `g` and the bias `h` on `S` (`h(0) = 0`).
    fn gain_and_bias(&self) -> (f64, Vec<f64>) {
        let mut x = self.reward.clone();
        self.lu.solve(&mut x);
        let gain = x[0];
        x[0] = 0.0;
        (gain, x)
    }

    /// The embedded chain's stationary law on `S` over its mean excursion
    /// length: the seed of [`law_from`].
    fn entry_law(&self) -> Vec<f64> {
        let mut x = vec![0.0; self.reward.len()];
        x[0] = 1.0;
        self.lu.solve_transposed(&mut x);
        x
    }
}

/// The per-arm weights a step adds to the two excursion sums: arm `a` adds
/// `num[a] − shift` to `A`, and `den[a]` to `B`, or one step when `den` is
/// `None`.
#[derive(Debug, Clone, Copy)]
pub(crate) struct CycleWeights<'a> {
    /// Expected numerator reward per arm.
    pub(crate) num: &'a [f64],
    /// Subtracted from every arm's numerator: the ratio solve's `ε`.
    pub(crate) shift: f64,
    /// Expected denominator reward per arm; `None` counts steps.
    pub(crate) den: Option<&'a [f64]>,
}

/// One solve's passes over a model: its regeneration set, the budget
/// checked before every pass and evaluation, their buffers and their count.
pub(crate) struct Passes<'m> {
    compiled: &'m CompiledMdp,
    reg: &'m Regeneration,
    budget: &'m SolveBudget,
    /// Every state's excursion sums `A` and `B` under the last pass's
    /// policy; the entries of `S` hold the values the pass read there.
    a: Vec<f64>,
    b: Vec<f64>,
    /// The sums of `S`'s states, by slot.
    at_set: Vec<(f64, f64)>,
    /// Passes and evaluations run.
    pub(crate) count: usize,
}

impl<'m> Passes<'m> {
    pub(crate) fn new(compiled: &'m CompiledMdp, budget: &'m SolveBudget) -> Self {
        let reg = regeneration_set(compiled);
        let n = compiled.num_states();
        let at_set = vec![(0.0, 0.0); reg.set.len()];
        Passes { compiled, reg, budget, a: vec![0.0; n], b: vec![0.0; n], at_set, count: 0 }
    }

    /// Checks the budget, then counts one pass or evaluation.
    fn tick(&mut self) -> Result<(), MdpError> {
        self.budget.check(SOLVER, self.count)?;
        self.count += 1;
        Ok(())
    }

    /// The exact optimal gain of the per-arm expected rewards `exp_reward`
    /// and the bias of the optimal policy it leaves in `policy` (`bias[0] =
    /// 0`), warm-started from the incoming `policy`.
    pub(crate) fn optimal_gain(
        &mut self,
        exp_reward: &[f64],
        policy: &mut Policy,
    ) -> Result<(f64, Vec<f64>), MdpError> {
        let weights = CycleWeights { num: exp_reward, shift: 0.0, den: None };
        let gain = if self.reg.set.len() == 1 {
            self.pass(weights, None, &[0.0], policy)?;
            let (r, l) = self.at_set[0];
            dinkelbach(r / l, |rho| {
                let changed = self.pass(weights, Some(rho), &[0.0], policy)?;
                Ok((self.at_set[0].0, self.at_set[0].1, changed))
            })?
        } else {
            let (gain, h, _) = self.howard(exp_reward, policy)?;
            // One evaluating pass leaves the final policy's sums against
            // its own `h`.
            self.pass(weights, None, &h, policy)?;
            gain
        };
        // The passes left the policy's excursion values in `a` and lengths
        // in `b` (`h` and 0 on `S`). Its bias is their difference at the
        // gain.
        for (r, l) in self.a.iter_mut().zip(&self.b) {
            *r -= gain * l;
        }
        Ok((gain, std::mem::take(&mut self.a)))
    }

    /// Howard's policy iteration for the gain of the per-arm expected
    /// rewards `exp_reward` on a regeneration set larger than `{0}`, from the
    /// incoming `policy`: an LU evaluation, then a greedy pass at the gain
    /// with `h` fixed on `S` and an evaluation of its policy, until a pass
    /// changes nothing or raises no state of `S` by more than [`TIE`] of
    /// the values it compares. Returns the final policy's gain, its bias on
    /// `S` and its system.
    fn howard(
        &mut self,
        exp_reward: &[f64],
        policy: &mut Policy,
    ) -> Result<(f64, Vec<f64>, Embedded), MdpError> {
        let weights = CycleWeights { num: exp_reward, shift: 0.0, den: None };
        let evaluate = |passes: &mut Self, policy: &Policy| {
            passes.tick()?;
            let chosen = chosen_arms(passes.compiled, policy);
            let system = Embedded::new(passes.compiled, passes.reg, &chosen, Some(exp_reward))?;
            let (gain, h) = system.gain_and_bias();
            Ok::<_, MdpError>((gain, h, system))
        };
        let (mut gain, mut h, mut system) = evaluate(self, policy)?;
        loop {
            if !self.pass(weights, Some(gain), &h, policy)? {
                return Ok((gain, h, system));
            }
            // Each state of `S` improves by its greedy value less its bias.
            let scale = h.iter().fold(0.0f64, |m, x| m.max(x.abs()));
            let progress = self.at_set.iter().zip(&h).any(|(&(a, b), &hi)| {
                a - gain * b - hi > TIE * (a.abs() + (gain * b).abs() + scale)
            });
            (gain, h, system) = evaluate(self, policy)?;
            if !progress {
                return Ok((gain, h, system));
            }
        }
    }

    /// The exact `max_π A(π) / B(π)` over stationary policies, `A` and `B`
    /// summing `weights`, or `0` when no policy has `A > 0`: the ratio
    /// solver's Dinkelbach loop, from `ρ = 0`.
    ///
    /// On `S = {0}` each step is one greedy backward pass over the cycle
    /// sums, and `inner_solves` is 1; on a larger set each step is one
    /// policy iteration on `num − shift − ρ·den`, warm-started from the
    /// last step's policy and counted in `inner_solves`, and that policy's
    /// rates from its stationary law. The last policy is left in `policy`,
    /// and the value is its own `A / B`. A policy with `A > 0` and `B = 0`
    /// makes the ratio unbounded ([`MdpError::UnboundedRatio`]).
    pub(crate) fn optimal_ratio(
        &mut self,
        weights: CycleWeights<'_>,
        policy: &mut Policy,
        inner_solves: &mut usize,
    ) -> Result<f64, MdpError> {
        if self.reg.set.len() == 1 {
            *inner_solves = 1;
            return dinkelbach_from_zero(|rho| {
                let changed = self.pass(weights, Some(rho), &[0.0], policy)?;
                Ok((self.at_set[0].0, self.at_set[0].1, changed))
            });
        }
        let CycleWeights { num, shift, den } = weights;
        let den = |arm: usize| den.map_or(1.0, |d| d[arm]);
        let mut w = vec![0.0; num.len()];
        dinkelbach_from_zero(|rho| {
            for (arm, x) in w.iter_mut().enumerate() {
                *x = num[arm] - shift - rho * den(arm);
            }
            let before = policy.clone();
            let (_, _, system) = self.howard(&w, policy)?;
            *inner_solves += 1;
            let chosen = chosen_arms(self.compiled, policy);
            let law = law_from(self.compiled, self.reg, &chosen, &system.entry_law());
            let (mut sum_a, mut sum_b) = (0.0, 0.0);
            for (mass, &arm) in law.iter().zip(&chosen) {
                sum_a += mass * (num[arm] - shift);
                sum_b += mass * den(arm);
            }
            Ok((sum_a, sum_b, *policy != before))
        })
    }

    /// One backward pass in reverse order, after the budget check. With
    /// `rho = None` it evaluates `policy`; with `Some(λ)` it replaces
    /// `policy` by the arms maximizing `A − λ·B` (first wins ties). An entry
    /// into `S` ends the excursion: its state contributes its fixed value
    /// from `h_set` (by slot) to `A` and nothing to `B`. The pass stores the
    /// resulting policy's `A` and `B` for every state outside `S` and in
    /// `at_set` for each state of `S`, and returns whether a choice changed.
    fn pass(
        &mut self,
        CycleWeights { num, shift, den }: CycleWeights<'_>,
        rho: Option<f64>,
        h_set: &[f64],
        policy: &mut Policy,
    ) -> Result<bool, MdpError> {
        self.tick()?;
        let (arm_offsets, tr_offsets) = self.compiled.raw_offsets();
        let (next, prob) = (self.compiled.raw_next(), self.compiled.raw_prob());
        let (reg, sum_a, sum_b, at_set) =
            (self.reg, &mut self.a[..], &mut self.b[..], &mut self.at_set[..]);
        for (&s, &h) in reg.set.iter().zip(h_set) {
            sum_a[s as usize] = h;
            sum_b[s as usize] = 0.0;
        }
        let lambda = rho.unwrap_or(0.0);
        let mut changed = false;
        // The order starts with `S`, so its states come last and keep their
        // fixed values for every state that reads them.
        for (i, &s) in reg.order.iter().enumerate().rev() {
            let s = s as usize;
            let a0 = arm_offsets[s] as usize;
            let arms = match rho {
                Some(_) => a0..arm_offsets[s + 1] as usize,
                None => a0 + policy.choices[s]..a0 + policy.choices[s] + 1,
            };
            let (mut best, mut best_arm, mut best_ab) = (f64::NEG_INFINITY, a0, (0.0, 0.0));
            for arm in arms {
                let t = tr_offsets[arm] as usize..tr_offsets[arm + 1] as usize;
                let (mut a, mut b) = (num[arm] - shift, den.map_or(1.0, |d| d[arm]));
                for (p, &to) in prob[t.clone()].iter().zip(&next[t]) {
                    a += p * sum_a[to as usize];
                    b += p * sum_b[to as usize];
                }
                let q = a - lambda * b;
                if q > best {
                    (best, best_arm, best_ab) = (q, arm, (a, b));
                }
            }
            changed |= policy.choices[s] != best_arm - a0;
            policy.choices[s] = best_arm - a0;
            match at_set.get_mut(i) {
                Some(at) => *at = best_ab,
                None => (sum_a[s], sum_b[s]) = best_ab,
            }
        }
        Ok(changed)
    }
}

/// The global arm `policy` takes in every state.
pub(crate) fn chosen_arms(compiled: &CompiledMdp, policy: &Policy) -> Vec<usize> {
    (0..compiled.num_states()).map(|s| compiled.policy_arm(policy, s)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::indexer::{explore, refill, Expansion};
    use crate::model::{Mdp, Transition};
    use std::sync::atomic::AtomicBool;
    use std::sync::Arc;

    fn compile(m: &Mdp) -> CompiledMdp {
        CompiledMdp::compile(m).unwrap()
    }

    /// The witness of a model with no order: every step of the cycle,
    /// the last back to the first, is a transition of some arm, and state
    /// 0 is never on it.
    fn assert_avoiding_cycle(c: &CompiledMdp) -> Vec<u32> {
        let cycle = &regeneration_set(c).avoiding_cycle.as_ref().expect("a cycle avoids 0").states;
        assert!(!cycle.is_empty() && !cycle.contains(&0), "cycle {cycle:?}");
        for (i, &from) in cycle.iter().enumerate() {
            let to = cycle[(i + 1) % cycle.len()] as usize;
            let edge = c
                .arm_range(from as usize)
                .any(|arm| c.transitions(arm).any(|(target, _, _)| target == to));
            assert!(edge, "{from} → {to} is no transition of cycle {cycle:?}");
        }
        cycle.clone()
    }

    /// 0 → 1 → 2 → 0 plus a shortcut 0 → 2: `S = {0}`, ordered, state 0
    /// first.
    #[test]
    fn orders_a_regenerative_model_with_state_zero_first() {
        let mut m = Mdp::new(1);
        let s: Vec<_> = (0..3).map(|_| m.add_state()).collect();
        m.add_action(s[0], 0, vec![Transition::new(s[1], 1.0, vec![0.0])]);
        m.add_action(s[0], 1, vec![Transition::new(s[2], 1.0, vec![0.0])]);
        m.add_action(s[1], 0, vec![Transition::new(s[2], 1.0, vec![0.0])]);
        m.add_action(s[2], 0, vec![Transition::new(s[0], 1.0, vec![0.0])]);
        let c = compile(&m);
        let reg = regeneration_set(&c);
        assert_eq!(
            (&reg.set[..], &reg.order[..], &reg.avoiding_cycle),
            (&[0][..], &[0, 1, 2][..], &None)
        );
    }

    /// 1 ⇄ 2 avoids state 0 (on a second arm of state 1 only): state 1
    /// joins the set, and that cycle is the witness.
    #[test]
    fn a_cycle_avoiding_state_zero_grows_the_set() {
        let mut m = Mdp::new(1);
        let s: Vec<_> = (0..4).map(|_| m.add_state()).collect();
        m.add_action(s[0], 0, vec![Transition::new(s[1], 1.0, vec![0.0])]);
        m.add_action(s[1], 0, vec![Transition::new(s[0], 1.0, vec![0.0])]);
        m.add_action(
            s[1],
            1,
            vec![Transition::new(s[2], 0.5, vec![0.0]), Transition::new(s[0], 0.5, vec![0.0])],
        );
        // State 3 hangs off the cycle without being on one.
        m.add_action(
            s[2],
            0,
            vec![Transition::new(s[1], 0.5, vec![0.0]), Transition::new(s[3], 0.5, vec![0.0])],
        );
        m.add_action(s[3], 0, vec![Transition::new(s[0], 1.0, vec![0.0])]);
        let c = compile(&m);
        let mut cycle = assert_avoiding_cycle(&c);
        cycle.sort_unstable();
        assert_eq!(cycle, vec![1, 2]);
        // Without the edges into {0, 1} the graph is acyclic: 2 before 3.
        let reg = regeneration_set(&c);
        assert_eq!((&reg.set[..], &reg.order[..]), (&[0, 1][..], &[0, 1, 2, 3][..]));

        // A self-loop on a state other than 0 is such a cycle too.
        let mut m = Mdp::new(1);
        let a = m.add_state();
        let b = m.add_state();
        m.add_action(a, 0, vec![Transition::new(b, 1.0, vec![0.0])]);
        m.add_action(
            b,
            0,
            vec![Transition::new(b, 0.5, vec![0.0]), Transition::new(a, 0.5, vec![0.0])],
        );
        let c = compile(&m);
        assert_eq!(assert_avoiding_cycle(&c), vec![1]);
        assert_eq!(regeneration_set(&c).set, [0, 1]);
    }

    /// 0 → 1 → 2, then 2 → 1 or 2 → 3 → 2: the search closes 1 → 2 → 1 and
    /// 2 → 3 → 2 with back edges into 1 and 2, but state 2 alone cuts both
    /// cycles, so state 1 leaves the set.
    #[test]
    fn targets_no_cycle_needs_leave_the_set() {
        let mut m = Mdp::new(1);
        let s: Vec<_> = (0..4).map(|_| m.add_state()).collect();
        m.add_action(s[0], 0, vec![Transition::new(s[1], 1.0, vec![0.0])]);
        m.add_action(s[1], 0, vec![Transition::new(s[2], 1.0, vec![0.0])]);
        m.add_action(s[1], 1, vec![Transition::new(s[0], 1.0, vec![0.0])]);
        m.add_action(
            s[2],
            0,
            vec![Transition::new(s[1], 0.5, vec![0.0]), Transition::new(s[3], 0.5, vec![0.0])],
        );
        m.add_action(s[3], 0, vec![Transition::new(s[2], 1.0, vec![0.0])]);
        let c = compile(&m);
        assert_eq!(assert_avoiding_cycle(&c), vec![1, 2]);
        let reg = regeneration_set(&c);
        assert_eq!((&reg.set[..], &reg.order[..]), (&[0, 2][..], &[0, 2, 1, 3][..]));
    }

    /// On a model with a cycle avoiding state 0 the first passage is not
    /// one backward pass: the error carries the cycle `regeneration_set`
    /// found. Masks of the wrong length are shape errors.
    #[test]
    fn first_passage_needs_an_order_and_full_masks() {
        let mut m = Mdp::new(1);
        let s: Vec<_> = (0..3).map(|_| m.add_state()).collect();
        m.add_action(s[0], 0, vec![Transition::new(s[1], 1.0, vec![0.0])]);
        m.add_action(
            s[1],
            0,
            vec![Transition::new(s[2], 0.5, vec![0.0]), Transition::new(s[0], 0.5, vec![0.0])],
        );
        m.add_action(s[2], 0, vec![Transition::new(s[1], 1.0, vec![0.0])]);
        let c = compile(&m);
        let witness = assert_avoiding_cycle(&c);
        let policy = Policy::zeros(3);
        let none = [false; 3];
        assert_eq!(
            first_passage(&c, &policy, &none, &none),
            Err(MdpError::NotRegenerative { witness: AvoidingCycle { states: witness } })
        );
        assert_eq!(
            first_passage(&c, &policy, &[false; 2], &none),
            Err(MdpError::Shape { what: "first-passage target mask", found: 2, expected: 3 })
        );
        assert_eq!(
            first_passage(&c, &policy, &none, &[false; 4]),
            Err(MdpError::Shape { what: "first-passage stop mask", found: 4, expected: 3 })
        );
    }

    /// 0 → 1 → {2 (target) or 3 (stop)} → 0, with a shortcut 1 → 0: the
    /// hit probability and expected steps from each state, by hand.
    #[test]
    fn first_passage_on_a_small_cycle() {
        let mut m = Mdp::new(1);
        let s: Vec<_> = (0..4).map(|_| m.add_state()).collect();
        m.add_action(s[0], 0, vec![Transition::new(s[1], 1.0, vec![0.0])]);
        m.add_action(
            s[1],
            0,
            vec![
                Transition::new(s[2], 0.5, vec![0.0]),
                Transition::new(s[3], 0.25, vec![0.0]),
                Transition::new(s[0], 0.25, vec![0.0]),
            ],
        );
        m.add_action(s[2], 0, vec![Transition::new(s[0], 1.0, vec![0.0])]);
        m.add_action(s[3], 0, vec![Transition::new(s[0], 1.0, vec![0.0])]);
        let target = [false, false, true, false];
        let stop = [false, false, false, true];
        let passage = first_passage(&compile(&m), &Policy::zeros(4), &target, &stop).unwrap();
        assert_eq!(passage.hit, vec![0.5, 0.5, 1.0, 0.0]);
        assert_eq!(passage.steps, vec![2.0, 1.0, 0.0, 0.0]);
    }

    /// `s → s + 1` up to 3, then back to 0, with one reward per step scaled
    /// by `w`: regenerative, and the same graph for every `w`.
    fn chain(w: f64) -> impl FnMut(&u32, &mut Expansion<u32>) {
        move |s: &u32, x: &mut Expansion<u32>| {
            x.action(0).outcome((s + 1) % 4, 1.0, &[w * f64::from(*s)]);
        }
    }

    /// The order is found once per graph: a model refilled on an explored
    /// graph reads the same memoized order, and a fresh explore of the same
    /// model finds its own.
    #[test]
    fn the_order_is_memoized_per_graph() {
        let explored = explore(1, [0u32], chain(1.0)).unwrap();
        let reg = regeneration_set(&explored.mdp);
        assert_eq!(reg.order, &[0, 1, 2, 3]);
        let refilled = refill(&explored.graph(), 1, chain(2.0)).unwrap().unwrap();
        assert!(refilled.mdp.shares_structure(&explored.mdp));
        assert!(std::ptr::eq(regeneration_set(&refilled.mdp), reg));
        let fresh = explore(1, [0u32], chain(2.0)).unwrap();
        let own = regeneration_set(&fresh.mdp);
        assert_eq!(own.order, reg.order);
        assert!(!std::ptr::eq(own, reg));
    }

    /// State 0 chooses between three cycles: a self-loop paying 1 (gain 1),
    /// ten steps paying 1.1 each (gain 1.1) and two steps paying 1.3 each
    /// (gain 1.3). From the self-loop the first greedy step prefers the long
    /// cycle (`R − L` = 1 against 0.6), so reaching the optimum takes a
    /// second Dinkelbach step.
    fn three_cycles() -> CompiledMdp {
        let mut m = Mdp::new(1);
        let s: Vec<_> = (0..11).map(|_| m.add_state()).collect();
        m.add_action(s[0], 0, vec![Transition::new(s[0], 1.0, vec![1.0])]);
        m.add_action(s[0], 1, vec![Transition::new(s[1], 1.0, vec![1.1])]);
        m.add_action(s[0], 2, vec![Transition::new(s[10], 1.0, vec![1.3])]);
        for i in 1..10 {
            let to = if i == 9 { s[0] } else { s[i + 1] };
            m.add_action(s[i], 0, vec![Transition::new(to, 1.0, vec![1.1])]);
        }
        m.add_action(s[10], 0, vec![Transition::new(s[0], 1.0, vec![1.3])]);
        compile(&m)
    }

    /// Solves the gain of component 0 with `optimal_gain`, warm-started
    /// from `policy`: the gain, the passes and the bias.
    fn gain(
        c: &CompiledMdp,
        policy: &mut Policy,
        budget: &SolveBudget,
    ) -> Result<(f64, usize, Vec<f64>), MdpError> {
        let exp_reward = c.scalarize(&crate::model::Objective::new(vec![1.0]));
        let mut passes = Passes::new(c, budget);
        let (gain, bias) = passes.optimal_gain(&exp_reward, policy)?;
        Ok((gain, passes.count, bias))
    }

    #[test]
    fn optimal_gain_is_the_best_cycle_ratio() {
        let c = three_cycles();
        let mut policy = Policy::zeros(11);
        let budget = SolveBudget::unlimited();
        // Evaluate the self-loop, step to the long cycle, step to the short
        // one, confirm it.
        let (g, passes, _) = gain(&c, &mut policy, &budget).unwrap();
        assert_eq!((g, passes), (1.3, 4));
        assert_eq!(policy.choices[0], 2);
        // Warm started from the optimum: evaluate, then one unchanged pass.
        let (g, passes, _) = gain(&c, &mut policy, &budget).unwrap();
        assert_eq!((g, passes), (1.3, 2));
    }

    /// The ratio loop on [`three_cycles`] with a denominator of one per
    /// step is the gain solve shifted by `shift`, started from a greedy
    /// pass at ρ = 0 instead of an evaluation: the long cycle (largest
    /// `A`), then the short one, confirmed.
    #[test]
    fn optimal_ratio_runs_dinkelbach_from_zero() {
        let c = three_cycles();
        let num = c.scalarize(&crate::model::Objective::new(vec![1.0]));
        let den = vec![1.0; c.num_arms()];
        let budget = SolveBudget::unlimited();
        let solve = |shift: f64| {
            let (mut policy, mut inner) = (Policy::zeros(11), 0);
            let mut passes = Passes::new(&c, &budget);
            let weights = CycleWeights { num: &num, shift, den: Some(&den) };
            let value = passes.optimal_ratio(weights, &mut policy, &mut inner);
            assert_eq!(inner, 1);
            (value, policy.choices[0], passes.count)
        };
        assert_eq!(solve(0.0), (Ok(1.3), 2, 3));
        assert_eq!(solve(0.25), (Ok(1.3 - 0.25), 2, 3));
        // No policy's shifted numerator is positive: the value is 0 after
        // one pass.
        assert_eq!(solve(1.5).0, Ok(0.0));
        assert_eq!(solve(1.5).2, 1);
    }

    /// State 0 steps to state 1, which chooses between a 1-reward
    /// self-loop and the 2-cycle 1 → 2 → 1 paying 2 and 3; state 2 may also
    /// return to 0. Both cycles avoid state 0, so `S = {0, 1}` and every
    /// step solves the 2 × 2 system: the exact gain 2.5 of the 2-cycle,
    /// and the bias solving `g + h(s) = r + h(next)`.
    #[test]
    fn policy_iteration_on_a_larger_set_is_exact() {
        let mut m = Mdp::new(1);
        let s: Vec<_> = (0..3).map(|_| m.add_state()).collect();
        m.add_action(s[0], 0, vec![Transition::new(s[1], 1.0, vec![0.0])]);
        m.add_action(s[1], 0, vec![Transition::new(s[1], 1.0, vec![1.0])]);
        m.add_action(s[1], 1, vec![Transition::new(s[2], 1.0, vec![2.0])]);
        m.add_action(s[2], 0, vec![Transition::new(s[1], 1.0, vec![3.0])]);
        m.add_action(s[2], 1, vec![Transition::new(s[0], 1.0, vec![0.0])]);
        let c = compile(&m);
        assert_eq!(regeneration_set(&c).set, [0, 1]);
        let mut policy = Policy::zeros(3);
        let (g, _, bias) = gain(&c, &mut policy, &SolveBudget::unlimited()).unwrap();
        assert_eq!(g, 2.5);
        assert_eq!(policy.choices, vec![0, 1, 0]);
        assert_eq!(bias, vec![0.0, 2.5, 3.0]);
    }

    /// A policy whose chain has two recurrent classes makes the system on
    /// the set singular: a structured error from the solve and from the
    /// evaluation, not a NaN.
    #[test]
    fn a_multichain_policy_is_a_structured_error() {
        let c = crate::audit::demo_multichain();
        assert_eq!(regeneration_set(&c).set, [0, 1, 2]);
        let err = gain(&c, &mut Policy::zeros(3), &SolveBudget::unlimited()).unwrap_err();
        assert_eq!(err, MdpError::MultichainPolicy { state: 2 });
        let err = crate::solve::eval::evaluate_policy(&c, &Policy::zeros(3)).unwrap_err();
        assert_eq!(err, MdpError::MultichainPolicy { state: 2 });
    }

    #[test]
    fn cancel_flag_aborts_the_passes() {
        let mut m = Mdp::new(1);
        let s = m.add_state();
        m.add_action(s, 0, vec![Transition::new(s, 1.0, vec![1.0])]);
        let budget = SolveBudget::unlimited().with_cancel(Arc::new(AtomicBool::new(true)));
        let err = gain(&compile(&m), &mut Policy::zeros(1), &budget).unwrap_err();
        assert_eq!(err, MdpError::Cancelled { solver: SOLVER, iterations: 0 });
    }
}
