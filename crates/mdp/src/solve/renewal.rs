//! Exact average-reward and ratio solves on regenerative models.
//!
//! State 0 is a *regeneration state* of a model when, with the edges into
//! state 0 removed, the state graph of all arms together (so of every
//! policy at once) is acyclic. Every path then returns to state 0 within
//! `n` steps under every stationary policy, and by the renewal-reward
//! theorem every long-run rate of a policy is a ratio of sums over one
//! cycle from state 0 back to it.
//!
//! Both solves here maximize such a cycle ratio `A(π) / B(π)` over
//! stationary policies, where each step adds an arm's per-arm weights to
//! the cycle sums:
//!
//! ```text
//! gain solve:  A = E_0[reward until the return to 0],  B = E_0[steps]
//! ratio solve: A = E_0[N − ε per step],                 B = E_0[D]
//! ```
//!
//! A fixed policy's `A` and `B` come out of one backward pass over a
//! topological order, exactly: each state's sums only read successors the
//! pass has already finished, and a return to state 0 ends the cycle. The
//! maximum is found by Dinkelbach's method: a backward pass at `ρ` picks,
//! state by state, the arm maximizing `A − ρ·B` (first wins ties) and
//! carries that greedy policy's own `A` and `B`; their ratio at state 0 is
//! the next `ρ`. `ρ` never decreases, and once the greedy policy stops
//! changing it is optimal (the policy-iteration argument on the cycle
//! MDP). Each pass is exact backward induction on an acyclic graph, so the
//! greedy policy attains `max_π A(π) − ρ·B(π)` exactly.
//!
//! * `optimal_gain` (Table 3's `u2`, through
//!   [`relative_value_iteration_compiled`]) starts from the incoming
//!   policy's own gain, one evaluation pass, and reports the policy's bias
//!   `A(s) − g·B(s)`.
//! * `optimal_ratio` (Table 2's `u1` and Table 4's `u3`, through
//!   [`maximize_ratio_compiled`]) starts with a greedy pass at `ρ = 0`.
//!   Its value is `max_π (N − ε·L) / D` with `ε` = the ratio solver's
//!   crossing level (a tenth of its tolerance): exactly where the optimal
//!   gain of `N − ρ·D` crosses `ε`, since `g(ρ) > ε` holds iff some policy
//!   has `N − ε·L − ρ·D > 0`. The loop itself is the ratio solver's, shared
//!   with its RVI engine; only the passes here are renewal's.
//!
//! A fixed policy's first passages come out of one such backward pass too:
//! [`first_passage`] carries, for each state, the probability of entering a
//! target set before a stop set or the return to state 0, and the expected
//! steps until the first of those (the episode metrics of `bvc-bu`).
//!
//! [`regeneration_order`] is the precondition check. It is a pure function
//! of the graph, computed once per graph and shared by every model
//! re-weighted from it ([`refill`](crate::indexer::refill)). One dispatch
//! in [`rvi`](crate::solve::rvi) reads it once per solve, and one in
//! [`evaluate_policy`](crate::solve::eval::evaluate_policy) once per
//! evaluation.
//!
//! [`relative_value_iteration_compiled`]: crate::solve::rvi::relative_value_iteration_compiled
//! [`maximize_ratio_compiled`]: crate::solve::ratio::maximize_ratio_compiled

use crate::budget::SolveBudget;
use crate::compiled::CompiledMdp;
use crate::error::MdpError;
use crate::model::Policy;
use crate::solve::ratio::{dinkelbach, dinkelbach_from_zero};

/// Name the budget and error paths report for this solver.
const SOLVER: &str = "renewal";

/// A cycle of a model's state graph that avoids state 0: the witness that
/// state 0 is not a regeneration state. Each state steps to the next by a
/// transition of one of its arms, and the last steps back to the first.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AvoidingCycle {
    /// The states on the cycle, in the order a path walks them; never 0.
    pub states: Vec<u32>,
}

/// What [`regeneration_order`] finds, memoized once per graph.
pub(crate) type Regeneration = Result<Vec<u32>, AvoidingCycle>;

/// A topological order of all states with state 0 first, ignoring edges
/// into state 0, or a cycle that avoids state 0 when there is none (so
/// state 0 is not a regeneration state).
///
/// Computed on the first call for a graph (Kahn's algorithm over every
/// transition of every arm, O(states + transitions)) and shared after that
/// by every model on the same structure arrays.
pub fn regeneration_order(compiled: &CompiledMdp) -> Result<&[u32], &AvoidingCycle> {
    compiled.structure().regeneration().get_or_init(|| find_order(compiled)).as_deref()
}

/// [`regeneration_order`] without the memo.
fn find_order(compiled: &CompiledMdp) -> Regeneration {
    let n = compiled.num_states();
    let (arm_offsets, tr_offsets) = compiled.raw_offsets();
    let next = compiled.raw_next();
    // A state's arms, and so their transitions, are contiguous in CSR order.
    let successors = |s: usize| {
        let t0 = tr_offsets[arm_offsets[s] as usize] as usize;
        let t1 = tr_offsets[arm_offsets[s + 1] as usize] as usize;
        next[t0..t1].iter().filter(|&&to| to != 0)
    };
    let mut in_degree = vec![0u32; n];
    for &to in next.iter().filter(|&&to| to != 0) {
        in_degree[to as usize] += 1;
    }
    // `order` doubles as Kahn's FIFO queue; state 0 has no counted in-edges,
    // so it is enqueued first.
    let mut order: Vec<u32> = (0..n as u32).filter(|&s| in_degree[s as usize] == 0).collect();
    let mut head = 0;
    while let Some(&s) = order.get(head) {
        head += 1;
        for &to in successors(s as usize) {
            let d = &mut in_degree[to as usize];
            *d -= 1;
            if *d == 0 {
                order.push(to);
            }
        }
    }
    // A state is ordered once its count of in-edges reaches zero.
    let left = |s: usize| in_degree[s] > 0;
    let Some(mut s) = (0..n).find(|&s| left(s)) else {
        return Ok(order);
    };
    // The states left over keep an in-edge from another left-over state:
    // the edge from a finished state was counted off when it finished.
    // Walking such edges backwards from any of them must repeat a state.
    let mut pred = vec![0u32; n];
    for s in (0..n).filter(|&s| left(s)) {
        for &to in successors(s) {
            pred[to as usize] = s as u32;
        }
    }
    let mut step_of = vec![usize::MAX; n];
    let mut walk = Vec::new();
    while step_of[s] == usize::MAX {
        step_of[s] = walk.len();
        walk.push(s as u32);
        s = pred[s] as usize;
    }
    let mut states = walk.split_off(step_of[s]);
    states.reverse();
    Err(AvoidingCycle { states })
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
/// [`regeneration_order`]. State 0's own entry starts a cycle, so it reads
/// its successors like any other unmarked state; a target mark wins over a
/// stop mark.
///
/// A mask whose length is not the state count is an [`MdpError::Shape`]
/// error, and a model with no order an [`MdpError::NotRegenerative`] one.
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
    let order = regeneration_order(compiled)
        .map_err(|witness| MdpError::NotRegenerative { witness: witness.clone() })?;
    let (mut hit, mut steps) = (vec![0.0; n], vec![0.0; n]);
    // State 0 comes first in the order, so it is finished last: until then
    // its zero entries stand for the return that ends the cycle.
    for &s in order.iter().rev() {
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

/// The per-arm weights a step adds to the two cycle sums: arm `a` adds
/// `num[a] − shift` to `A`, and `den[a]` to `B`, or one step when `den` is
/// `None`.
#[derive(Debug, Clone, Copy)]
pub(crate) struct CycleWeights<'a> {
    /// Expected numerator reward per arm.
    pub num: &'a [f64],
    /// Subtracted from every arm's numerator: the ratio solve's `ε`.
    pub shift: f64,
    /// Expected denominator reward per arm; `None` counts steps.
    pub den: Option<&'a [f64]>,
}

/// The exact optimal gain of the per-arm expected rewards `exp_reward` on a
/// model with regeneration order `order` (from [`regeneration_order`]).
///
/// Warm starts from the incoming `policy`, whose gain one evaluation pass
/// finds first, and leaves an optimal policy in it. `reward` and `length`
/// are scratch buffers with one entry per state; they end holding that
/// policy's cycle reward and length from each state other than 0. Every
/// pass adds one to `passes` and checks `budget` first.
#[allow(clippy::too_many_arguments)]
pub(crate) fn optimal_gain(
    compiled: &CompiledMdp,
    order: &[u32],
    exp_reward: &[f64],
    reward: &mut [f64],
    length: &mut [f64],
    policy: &mut Policy,
    budget: &SolveBudget,
    passes: &mut usize,
) -> Result<f64, MdpError> {
    let weights = CycleWeights { num: exp_reward, shift: 0.0, den: None };
    let mut pass = |rho: Option<f64>| {
        budget.check(SOLVER, *passes)?;
        *passes += 1;
        Ok(backward_pass(compiled, order, weights, rho, policy, reward, length))
    };
    let (r, l, _) = pass(None)?;
    dinkelbach(r / l, |rho| pass(Some(rho)))
}

/// The exact `max_π A(π) / B(π)` of `weights` over stationary policies, or
/// `0` when no policy has `A > 0`, on a model with regeneration order
/// `order`: the ratio solver's Dinkelbach loop over backward passes.
///
/// Starts with a greedy pass at `ρ = 0` and leaves the last greedy policy
/// in `policy`; the value is that policy's own `A / B`. A policy with
/// `A > 0` and `B = 0` makes the ratio unbounded
/// ([`MdpError::UnboundedRatio`]). `a` and `b` are scratch buffers with
/// one entry per state. Every pass adds one to `passes` and checks
/// `budget` first.
#[allow(clippy::too_many_arguments)]
pub(crate) fn optimal_ratio(
    compiled: &CompiledMdp,
    order: &[u32],
    weights: CycleWeights<'_>,
    a: &mut [f64],
    b: &mut [f64],
    policy: &mut Policy,
    budget: &SolveBudget,
    passes: &mut usize,
) -> Result<f64, MdpError> {
    dinkelbach_from_zero(|rho| {
        budget.check(SOLVER, *passes)?;
        *passes += 1;
        Ok(backward_pass(compiled, order, weights, Some(rho), policy, a, b))
    })
}

/// One backward pass in reverse `order`. With `rho = None` it evaluates
/// `policy`; with `Some(ρ)` it replaces `policy` by the arms maximizing
/// `A − ρ·B` (first wins ties). Either way it stores the resulting policy's
/// cycle sums `A` and `B` for every state but 0, and returns state 0's
/// `(A, B)` and whether any choice changed.
fn backward_pass(
    compiled: &CompiledMdp,
    order: &[u32],
    CycleWeights { num, shift, den }: CycleWeights<'_>,
    rho: Option<f64>,
    policy: &mut Policy,
    sum_a: &mut [f64],
    sum_b: &mut [f64],
) -> (f64, f64, bool) {
    let (arm_offsets, tr_offsets) = compiled.raw_offsets();
    let (next, prob) = (compiled.raw_next(), compiled.raw_prob());
    // A return to state 0 ends the cycle: its entries stay zero, and state
    // 0's own sums are returned instead of stored.
    sum_a[0] = 0.0;
    sum_b[0] = 0.0;
    let lambda = rho.unwrap_or(0.0);
    let mut changed = false;
    let mut base = (0.0, 0.0);
    for &s in order.iter().rev() {
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
        if s == 0 {
            base = best_ab;
        } else {
            (sum_a[s], sum_b[s]) = best_ab;
        }
    }
    (base.0, base.1, changed)
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
        let cycle = &regeneration_order(c).expect_err("no order").states;
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

    /// 0 → 1 → 2 → 0 plus a shortcut 0 → 2: ordered, state 0 first.
    #[test]
    fn orders_a_regenerative_model_with_state_zero_first() {
        let mut m = Mdp::new(1);
        let s: Vec<_> = (0..3).map(|_| m.add_state()).collect();
        m.add_action(s[0], 0, vec![Transition::new(s[1], 1.0, vec![0.0])]);
        m.add_action(s[0], 1, vec![Transition::new(s[2], 1.0, vec![0.0])]);
        m.add_action(s[1], 0, vec![Transition::new(s[2], 1.0, vec![0.0])]);
        m.add_action(s[2], 0, vec![Transition::new(s[0], 1.0, vec![0.0])]);
        assert_eq!(regeneration_order(&compile(&m)), Ok(&[0, 1, 2][..]));
    }

    /// 1 ⇄ 2 avoids state 0 (on a second arm of state 1 only): no order,
    /// and that cycle is the witness.
    #[test]
    fn a_cycle_avoiding_state_zero_has_no_order() {
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
        let mut cycle = assert_avoiding_cycle(&compile(&m));
        cycle.sort_unstable();
        assert_eq!(cycle, vec![1, 2]);

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
        assert_eq!(assert_avoiding_cycle(&compile(&m)), vec![1]);
    }

    /// On a model with a cycle avoiding state 0 the first passage is not
    /// one backward pass: the error carries the cycle `regeneration_order`
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
        let order = regeneration_order(&explored.mdp).unwrap();
        assert_eq!(order, &[0, 1, 2, 3]);
        let refilled = refill(&explored.graph(), 1, chain(2.0)).unwrap().unwrap();
        assert!(refilled.mdp.shares_structure(&explored.mdp));
        assert!(std::ptr::eq(regeneration_order(&refilled.mdp).unwrap(), order));
        let fresh = explore(1, [0u32], chain(2.0)).unwrap();
        let own = regeneration_order(&fresh.mdp).unwrap();
        assert_eq!(own, order);
        assert!(!std::ptr::eq(own, order));
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

    #[test]
    fn optimal_gain_is_the_best_cycle_ratio() {
        let c = three_cycles();
        let order = regeneration_order(&c).unwrap();
        let exp_reward = c.scalarize(&crate::model::Objective::new(vec![1.0]));
        let (mut reward, mut length) = (vec![0.0; 11], vec![0.0; 11]);
        let mut policy = Policy::zeros(11);
        let budget = SolveBudget::unlimited();
        let mut solve = |policy: &mut Policy| {
            let mut passes = 0;
            let gain = optimal_gain(
                &c,
                order,
                &exp_reward,
                &mut reward,
                &mut length,
                policy,
                &budget,
                &mut passes,
            )
            .unwrap();
            (gain, passes)
        };
        // Evaluate the self-loop, step to the long cycle, step to the short
        // one, confirm it.
        assert_eq!(solve(&mut policy), (1.3, 4));
        assert_eq!(policy.choices[0], 2);
        // Warm started from the optimum: evaluate, then one unchanged pass.
        assert_eq!(solve(&mut policy), (1.3, 2));
    }

    /// The ratio loop on [`three_cycles`] with a denominator of one per
    /// step is the gain solve shifted by `shift`, started from a greedy
    /// pass at ρ = 0 instead of an evaluation: the long cycle (largest
    /// `A`), then the short one, confirmed.
    #[test]
    fn optimal_ratio_runs_dinkelbach_from_zero() {
        let c = three_cycles();
        let order = regeneration_order(&c).unwrap();
        let num = c.scalarize(&crate::model::Objective::new(vec![1.0]));
        let den = vec![1.0; c.num_arms()];
        let budget = SolveBudget::unlimited();
        let solve = |shift: f64| {
            let weights = CycleWeights { num: &num, shift, den: Some(&den) };
            let (mut policy, mut passes) = (Policy::zeros(11), 0);
            let value = optimal_ratio(
                &c,
                order,
                weights,
                &mut [0.0; 11],
                &mut [0.0; 11],
                &mut policy,
                &budget,
                &mut passes,
            );
            (value, policy.choices[0], passes)
        };
        assert_eq!(solve(0.0), (Ok(1.3), 2, 3));
        assert_eq!(solve(0.25), (Ok(1.3 - 0.25), 2, 3));
        // No policy's shifted numerator is positive: the value is 0 after
        // one pass.
        assert_eq!(solve(1.5).0, Ok(0.0));
        assert_eq!(solve(1.5).2, 1);
    }

    #[test]
    fn cancel_flag_aborts_the_passes() {
        let mut m = Mdp::new(1);
        let s = m.add_state();
        m.add_action(s, 0, vec![Transition::new(s, 1.0, vec![1.0])]);
        let c = compile(&m);
        let order = regeneration_order(&c).unwrap();
        let budget = SolveBudget::unlimited().with_cancel(Arc::new(AtomicBool::new(true)));
        let err = optimal_gain(
            &c,
            order,
            &[1.0],
            &mut [0.0],
            &mut [0.0],
            &mut Policy::zeros(1),
            &budget,
            &mut 0,
        )
        .unwrap_err();
        assert_eq!(err, MdpError::Cancelled { solver: SOLVER, iterations: 0 });
    }
}
