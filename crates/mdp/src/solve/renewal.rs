//! Exact average-reward solves on regenerative models.
//!
//! State 0 is a *regeneration state* of a model when, with the edges into
//! state 0 removed, the state graph of all arms together (so of every
//! policy at once) is acyclic. Every path then returns to state 0 within
//! `n` steps under every stationary policy, and by the renewal-reward
//! theorem a policy's long-run gain is one cycle's ratio
//!
//! ```text
//! gain(π) = R(π) / L(π),   R = E_0[reward until the return to 0],
//!                          L = E_0[steps until the return to 0].
//! ```
//!
//! Both cycle expectations of a fixed policy come out of one backward pass
//! over a topological order, exactly: each state's value only reads
//! successors the pass has already finished, and a return to state 0 ends
//! the cycle.
//!
//! The optimal gain `g = max_π R(π) / L(π)` is itself a ratio, found by
//! Dinkelbach's method. Start from `λ` = the gain of a known policy. A
//! backward pass picks, state by state, the arm maximizing `R − λ·L` and
//! carries that greedy policy's own `R` and `L` along; their ratio is the
//! next `λ`. `λ` never decreases, and once the greedy policy stops changing
//! it is optimal (the policy-iteration argument on the cycle MDP). Warm
//! started from a nearby solve's policy this takes two or three passes.
//!
//! [`regeneration_order`] is the precondition check. One dispatch in
//! [`rvi`](crate::solve::rvi) runs it once per solve, for both
//! average-reward entry points:
//!
//! * a gain solve ([`relative_value_iteration_compiled`], Table 3's `u2`)
//!   runs `optimal_gain` once, from the all-zeros policy, on the plain
//!   per-arm rewards, and reports the policy's bias `R(s) − g·L(s)`;
//! * the ratio solver ([`maximize_ratio_compiled`], `u1` and `u3`) runs it
//!   once per probe on ρ, on `N − ρ·D`.
//!
//! [`relative_value_iteration_compiled`]: crate::solve::rvi::relative_value_iteration_compiled
//! [`maximize_ratio_compiled`]: crate::solve::ratio::maximize_ratio_compiled

use crate::budget::SolveBudget;
use crate::compiled::CompiledMdp;
use crate::error::MdpError;
use crate::model::Policy;

/// Name the budget and error paths report for this solver.
const SOLVER: &str = "renewal";

/// A topological order of all states with state 0 first, ignoring edges
/// into state 0, or `None` when there is none: some cycle avoids state 0,
/// so state 0 is not a regeneration state. Kahn's algorithm over every
/// transition of every arm, O(states + transitions).
pub fn regeneration_order(compiled: &CompiledMdp) -> Option<Vec<u32>> {
    let n = compiled.num_states();
    if n == 0 {
        return None;
    }
    let (arm_offsets, tr_offsets) = compiled.raw_offsets();
    let next = compiled.raw_next();
    // A state's arms, and so their transitions, are contiguous in CSR order.
    let successors = |s: usize| {
        let t0 = tr_offsets[arm_offsets[s] as usize] as usize;
        let t1 = tr_offsets[arm_offsets[s + 1] as usize] as usize;
        &next[t0..t1]
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
        for &to in successors(s as usize).iter().filter(|&&to| to != 0) {
            let d = &mut in_degree[to as usize];
            *d -= 1;
            if *d == 0 {
                order.push(to);
            }
        }
    }
    (order.len() == n).then_some(order)
}

/// Per-arm expected rewards `num[a] − rho · den[a]` (a ratio probe's, or a
/// gain solve's with [`ArmRewards::plain`]), combined as the passes read
/// them: the same arithmetic as [`CompiledMdp::combine_scalarized_into`],
/// without the buffer.
#[derive(Debug, Clone, Copy)]
pub(crate) struct ArmRewards<'a> {
    /// Expected numerator reward per arm.
    pub num: &'a [f64],
    /// Expected denominator reward per arm.
    pub den: &'a [f64],
    /// The probe's ρ; 0 for a gain solve.
    pub rho: f64,
}

impl<'a> ArmRewards<'a> {
    /// The plain per-arm rewards of a gain solve: `r − 0·r` is exactly `r`
    /// for every finite `r`.
    pub(crate) fn plain(exp_reward: &'a [f64]) -> Self {
        ArmRewards { num: exp_reward, den: exp_reward, rho: 0.0 }
    }

    #[inline]
    fn at(&self, arm: usize) -> f64 {
        self.num[arm] - self.rho * self.den[arm]
    }
}

/// The exact optimal gain of the per-arm expected rewards `exp_w` on a
/// model with regeneration order `order` (from [`regeneration_order`]).
///
/// Warm starts from the incoming `policy` and leaves an optimal policy in
/// it. `reward` and `length` are scratch buffers with one entry per state;
/// they end holding that policy's cycle reward and length from each state
/// other than 0. Every pass adds one to `passes` and checks `budget` first.
#[allow(clippy::too_many_arguments)]
pub(crate) fn optimal_gain(
    compiled: &CompiledMdp,
    order: &[u32],
    exp_w: ArmRewards<'_>,
    reward: &mut [f64],
    length: &mut [f64],
    policy: &mut Policy,
    budget: &SolveBudget,
    passes: &mut usize,
) -> Result<f64, MdpError> {
    // A return to state 0 ends the cycle: its entries stay zero, and the
    // passes keep state 0's own values out of the buffers.
    reward[0] = 0.0;
    length[0] = 0.0;
    let mut pass = |gain: Option<f64>| {
        budget.check(SOLVER, *passes)?;
        *passes += 1;
        Ok::<_, MdpError>(backward_pass(compiled, order, exp_w, gain, policy, reward, length))
    };
    let (r, l, _) = pass(None)?;
    let mut gain = r / l;
    loop {
        let (r, l, changed) = pass(Some(gain))?;
        let next = r / l;
        // Without a change the greedy policy is the last one: optimal. A
        // change that does not raise the ratio is a tie.
        if !changed || next <= gain {
            return Ok(next);
        }
        gain = next;
    }
}

/// One backward pass in reverse `order`. With `gain = None` it evaluates
/// `policy`; with `Some(λ)` it replaces `policy` by the arms maximizing
/// `R − λ·L` (first wins ties). Either way it stores the resulting policy's
/// cycle reward and length for every state but 0, and returns state 0's
/// `(R, L)` and whether any choice changed.
fn backward_pass(
    compiled: &CompiledMdp,
    order: &[u32],
    exp_w: ArmRewards<'_>,
    gain: Option<f64>,
    policy: &mut Policy,
    reward: &mut [f64],
    length: &mut [f64],
) -> (f64, f64, bool) {
    let (arm_offsets, tr_offsets) = compiled.raw_offsets();
    let (next, prob) = (compiled.raw_next(), compiled.raw_prob());
    let lambda = gain.unwrap_or(0.0);
    let mut changed = false;
    let mut base = (0.0, 0.0);
    for &s in order.iter().rev() {
        let s = s as usize;
        let a0 = arm_offsets[s] as usize;
        let arms = match gain {
            Some(_) => a0..arm_offsets[s + 1] as usize,
            None => a0 + policy.choices[s]..a0 + policy.choices[s] + 1,
        };
        let (mut best, mut best_arm, mut best_rl) = (f64::NEG_INFINITY, a0, (0.0, 0.0));
        for arm in arms {
            let t = tr_offsets[arm] as usize..tr_offsets[arm + 1] as usize;
            let (mut r, mut l) = (exp_w.at(arm), 1.0);
            for (p, &to) in prob[t.clone()].iter().zip(&next[t]) {
                r += p * reward[to as usize];
                l += p * length[to as usize];
            }
            let q = r - lambda * l;
            if q > best {
                (best, best_arm, best_rl) = (q, arm, (r, l));
            }
        }
        changed |= policy.choices[s] != best_arm - a0;
        policy.choices[s] = best_arm - a0;
        if s == 0 {
            base = best_rl;
        } else {
            (reward[s], length[s]) = best_rl;
        }
    }
    (base.0, base.1, changed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{Mdp, Transition};
    use std::sync::atomic::AtomicBool;
    use std::sync::Arc;

    fn compile(m: &Mdp) -> CompiledMdp {
        CompiledMdp::compile(m).unwrap()
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
        assert_eq!(regeneration_order(&compile(&m)), Some(vec![0, 1, 2]));
    }

    /// 1 ⇄ 2 avoids state 0 (on a second arm of state 1 only): no order.
    #[test]
    fn a_cycle_avoiding_state_zero_has_no_order() {
        let mut m = Mdp::new(1);
        let s: Vec<_> = (0..3).map(|_| m.add_state()).collect();
        m.add_action(s[0], 0, vec![Transition::new(s[1], 1.0, vec![0.0])]);
        m.add_action(s[1], 0, vec![Transition::new(s[0], 1.0, vec![0.0])]);
        m.add_action(
            s[1],
            1,
            vec![Transition::new(s[2], 0.5, vec![0.0]), Transition::new(s[0], 0.5, vec![0.0])],
        );
        m.add_action(s[2], 0, vec![Transition::new(s[1], 1.0, vec![0.0])]);
        assert_eq!(regeneration_order(&compile(&m)), None);

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
        assert_eq!(regeneration_order(&compile(&m)), None);
    }

    /// State 0 chooses between three cycles: a self-loop paying 1 (gain 1),
    /// ten steps paying 1.1 each (gain 1.1) and two steps paying 1.3 each
    /// (gain 1.3). From the self-loop the first greedy step prefers the long
    /// cycle (`R − L` = 1 against 0.6), so reaching the optimum takes a
    /// second Dinkelbach step.
    #[test]
    fn optimal_gain_is_the_best_cycle_ratio() {
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
        let c = compile(&m);
        let order = regeneration_order(&c).unwrap();
        let num = c.scalarize(&crate::model::Objective::new(vec![1.0]));
        let den = vec![0.0; c.num_arms()];
        let exp_w = ArmRewards { num: &num, den: &den, rho: 0.0 };
        let (mut reward, mut length) = (vec![0.0; 11], vec![0.0; 11]);
        let mut policy = Policy::zeros(11);
        let budget = SolveBudget::unlimited();
        let mut solve = |policy: &mut Policy| {
            let mut passes = 0;
            let gain = optimal_gain(
                &c,
                &order,
                exp_w,
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
            &order,
            ArmRewards { num: &[1.0], den: &[0.0], rho: 0.0 },
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
