//! The one MDP representation every solver, audit and reader works on:
//! flat arrays in compressed-sparse-row (CSR) style.
//!
//! ```text
//! states:       0 ───────┐ 1 ──┐  ...                (implicit)
//! arm_offsets:  [0,       2,    3, ...]               len n+1
//! arm_labels:   [lab, lab, lab, ...]                  len A (total arms)
//! tr_offsets:   [0,   2,   5,   ...]                  len A+1
//! next:         [s, s, s, s, s, ...]                  len T (total transitions)
//! prob:         [p, p, p, p, p, ...]                  len T
//! rewards:      [r00 r01 .. r0k | r10 r11 .. r1k | …] len T·k, transition-major
//! ```
//!
//! The four arrays that fix the graph — `arm_offsets`, `arm_labels`,
//! `tr_offsets` and `next` — sit behind one `Arc`, so models that differ
//! only in `prob` and `rewards` share them; each model owns its `prob` and
//! `rewards`.
//!
//! Models are written straight into these arrays, one state at a time, in
//! id order: [`explore`](crate::indexer::explore) appends each state's arms
//! as it expands the state, [`refill`](crate::indexer::refill) writes only
//! the weights of a graph explored before, and [`CompiledMdp::compile`]
//! copies a hand-written nested [`Mdp`] (the builder for small and random
//! test models). Every writer runs the same checks on every arm —
//! nonnegative finite probabilities summing to one, targets in range,
//! rewards of the declared arity and finite, at least one action per state
//! — and reports the first failure in (state, action, transition) order;
//! `explore` and `compile` as they append each arm, `refill` in flat
//! passes over its finished weights, falling back to the ordered check
//! only to name an error.
//!
//! Solvers then run branch-light passes over flat slices. Reward vectors are
//! collapsed to scalars **once per sweep** by [`CompiledMdp::scalarize`]
//! (per-arm *expected* immediate reward, since every solver only ever needs
//! `Σ_t p_t · ⟨w, r_t⟩`), and the ratio solver re-scalarizes each step
//! from two precomputed arrays: it never re-reads the `rewards` buffer.

use std::sync::{Arc, OnceLock};

use crate::error::MdpError;
use crate::model::{ActionId, Mdp, Objective, Policy, StateId, PROB_SUM_TOLERANCE};
use crate::solve::renewal::Regeneration;

/// A validated, flat, solver-ready MDP (see the module docs).
#[derive(Debug, Clone)]
pub struct CompiledMdp {
    reward_components: usize,
    /// The graph, shared by every model re-weighted from it.
    structure: Arc<Structure>,
    /// Probability of every transition. Length `num_transitions`.
    prob: Vec<f64>,
    /// Transition-major strided reward components: component `c` of
    /// transition `t` lives at `t * reward_components + c`. Length
    /// `num_transitions * reward_components`.
    rewards: Vec<f64>,
}

/// The arrays of a [`CompiledMdp`] that fix its graph: which arms each
/// state has, their labels, and where each transition leads.
#[derive(Debug)]
pub(crate) struct Structure {
    /// `arm_offsets[s]..arm_offsets[s+1]` indexes state `s`'s arms. Length
    /// `num_states + 1`.
    arm_offsets: Vec<u32>,
    /// Domain label of every arm. Length `num_arms`.
    arm_labels: Vec<u32>,
    /// `tr_offsets[a]..tr_offsets[a+1]` indexes arm `a`'s transitions.
    /// Length `num_arms + 1`.
    tr_offsets: Vec<u32>,
    /// Destination state of every transition. Length `num_transitions`.
    next: Vec<u32>,
    /// [`regeneration_set`](crate::solve::renewal::regeneration_set)
    /// of this graph, found on first use: a pure function of the arrays
    /// above, so every model sharing them shares it.
    regeneration: OnceLock<Regeneration>,
}

impl Structure {
    /// A graph with no states yet, for the writers to append to, with room
    /// for `(states, arms, transitions)`.
    pub(crate) fn with_capacity((states, arms, transitions): (usize, usize, usize)) -> Self {
        let mut arm_offsets = Vec::with_capacity(states + 1);
        arm_offsets.push(0);
        let mut tr_offsets = Vec::with_capacity(arms + 1);
        tr_offsets.push(0);
        Structure {
            arm_offsets,
            arm_labels: Vec::with_capacity(arms),
            tr_offsets,
            next: Vec::with_capacity(transitions),
            regeneration: OnceLock::new(),
        }
    }

    /// Appends action `action` (domain label `label`) of `state`, the state
    /// being written, with the targets of its `(target, probability,
    /// reward)` transitions; the caller stores the weights.
    ///
    /// The arm is always stored; the result is its first failed check, in
    /// the order they run per transition — negative probability,
    /// non-finite probability, target not below `num_states`, reward arity,
    /// non-finite reward — then the probability sum.
    pub(crate) fn push_arm<'r>(
        &mut self,
        (state, action): (StateId, ActionId),
        label: usize,
        num_states: usize,
        transitions: impl IntoIterator<Item = (StateId, f64, &'r [f64])>,
        k: usize,
    ) -> Result<(), MdpError> {
        let mut first_error = None;
        let mut sum = 0.0;
        self.arm_labels.push(label as u32);
        for (to, prob, reward) in transitions {
            if first_error.is_none() && !(to < num_states && weight_ok(prob, reward, k)) {
                first_error = transition_error((state, action), (to, num_states), prob, reward, k);
            }
            sum += prob;
            self.next.push(to as u32);
        }
        self.tr_offsets.push(self.next.len() as u32);
        first_error.or_else(|| sum_error((state, action), sum)).map_or(Ok(()), Err)
    }

    /// Closes `state`, whose arms were just pushed: [`MdpError::NoActions`]
    /// when it has none.
    ///
    /// # Panics
    /// Panics if the graph has outgrown `u32` index space.
    pub(crate) fn end_state(&mut self, state: StateId) -> Result<(), MdpError> {
        assert!(
            self.next.len() < u32::MAX as usize && self.arm_labels.len() < u32::MAX as usize,
            "model exceeds u32 index space"
        );
        let last = *self.arm_offsets.last().expect("anchored at 0");
        self.arm_offsets.push(self.arm_labels.len() as u32);
        if self.arm_labels.len() as u32 == last {
            return Err(MdpError::NoActions { state });
        }
        Ok(())
    }

    /// `(states, arms, transitions)` written so far.
    pub(crate) fn sizes(&self) -> (usize, usize, usize) {
        (self.arm_offsets.len() - 1, self.arm_labels.len(), self.next.len())
    }

    /// Global arm indices of state `s`.
    #[inline]
    pub(crate) fn arm_range(&self, s: StateId) -> std::ops::Range<usize> {
        self.arm_offsets[s] as usize..self.arm_offsets[s + 1] as usize
    }

    /// Domain label of global arm `arm`.
    #[inline]
    pub(crate) fn arm_label(&self, arm: usize) -> usize {
        self.arm_labels[arm] as usize
    }

    /// Transition indices of global arm `arm`.
    #[inline]
    pub(crate) fn transition_range(&self, arm: usize) -> std::ops::Range<usize> {
        self.tr_offsets[arm] as usize..self.tr_offsets[arm + 1] as usize
    }

    /// State `s`'s stored arms as slices: their labels, their transition
    /// offsets (one more than the arms, absolute) and the targets of all
    /// their transitions.
    #[inline]
    pub(crate) fn state_arms(&self, s: StateId) -> (&[u32], &[u32], &[u32]) {
        let arms = self.arm_range(s);
        let offsets = &self.tr_offsets[arms.start..=arms.end];
        let targets = &self.next[offsets[0] as usize..offsets[offsets.len() - 1] as usize];
        (&self.arm_labels[arms], offsets, targets)
    }

    /// The first failed weight check of a model on this graph whose
    /// rewards all have arity `k`, as [`Structure::push_arm`] would report
    /// it: the first malformed arm in (state, action) order.
    ///
    /// Flat passes over the whole buffers run first — every probability
    /// nonnegative and finite, every reward finite, every arm's serial sum
    /// within tolerance — since they are what a well-formed model needs,
    /// and a re-weighting build is 1.15–1.2× slower with the ordered check
    /// in their place (EXPERIMENTS.md §11.15). Only when one fails does the
    /// ordered per-arm check run, to name the first error.
    pub(crate) fn weights_error(
        &self,
        k: usize,
        prob: &[f64],
        rewards: &[f64],
    ) -> Option<MdpError> {
        debug_assert_eq!(prob.len(), self.next.len());
        debug_assert_eq!(rewards.len(), prob.len() * k);
        let sums_ok = !self.tr_offsets.windows(2).any(|w| {
            sum_bad(prob[w[0] as usize..w[1] as usize].iter().fold(0.0, |sum, p| sum + p))
        });
        let (probs_finite, least_prob) = scan(prob);
        if sums_ok && probs_finite && least_prob >= 0.0 && scan(rewards).0 {
            return None;
        }
        (0..self.sizes().0).find_map(|s| {
            self.arm_range(s).enumerate().find_map(|(a, arm)| {
                let weights =
                    self.transition_range(arm).map(|t| (prob[t], &rewards[t * k..(t + 1) * k]));
                arm_weights_error((s, a), k, weights)
            })
        })
    }

    /// The memo of this graph's regeneration order.
    pub(crate) fn regeneration(&self) -> &OnceLock<Regeneration> {
        &self.regeneration
    }
}

/// Whether one transition's weights pass every check of
/// [`transition_error`]: the branch-light test the writers run first.
#[inline]
fn weight_ok(prob: f64, reward: &[f64], k: usize) -> bool {
    (0.0..f64::INFINITY).contains(&prob)
        && reward.len() == k
        && reward.iter().all(|r| r.is_finite())
}

/// Whether every value is finite, and the least of them (`+∞` for none):
/// one branch-free pass in four independent lanes, so it vectorizes. A
/// lane adds `x · 0` per value, which is `±0` for a finite `x` and NaN for
/// an infinite or NaN one.
fn scan(values: &[f64]) -> (bool, f64) {
    // A select, not `f64::min`: NaN is the other lane's to catch, and the
    // select is one `minpd`.
    fn lane((nan, least): &mut (f64, f64), x: f64) {
        *nan += x * 0.0;
        *least = if x < *least { x } else { *least };
    }
    let mut lanes = [(0.0f64, f64::INFINITY); 4];
    let chunks = values.chunks_exact(4);
    let rest = chunks.remainder();
    for chunk in chunks {
        for (acc, &x) in lanes.iter_mut().zip(chunk) {
            lane(acc, x);
        }
    }
    for (acc, &x) in lanes.iter_mut().zip(rest) {
        lane(acc, x);
    }
    let finite = lanes.iter().all(|&(nan, _)| nan == 0.0);
    (finite, lanes.iter().fold(f64::INFINITY, |least, &(_, x)| least.min(x)))
}

/// The first failed check of one transition, in the order they run:
/// negative probability, non-finite probability, target not below
/// `num_states`, reward arity, non-finite reward.
#[cold]
fn transition_error(
    (state, action): (StateId, ActionId),
    (to, num_states): (StateId, usize),
    prob: f64,
    reward: &[f64],
    k: usize,
) -> Option<MdpError> {
    if prob < 0.0 {
        Some(MdpError::NegativeProbability { state, action, prob })
    } else if !prob.is_finite() {
        Some(MdpError::NonFiniteProbability { state, action, prob })
    } else if to >= num_states {
        Some(MdpError::DanglingTarget { state, action, target: to })
    } else if reward.len() != k {
        Some(MdpError::RewardArity { state, action, found: reward.len(), expected: k })
    } else {
        let c = reward.iter().position(|r| !r.is_finite())?;
        Some(MdpError::NonFiniteReward { state, action, component: c, value: reward[c] })
    }
}

/// The first failed check of one arm's `(probability, reward)` weights, in
/// [`Structure::push_arm`]'s order, for an arm whose targets are known to
/// be in range.
fn arm_weights_error<'r>(
    (state, action): (StateId, ActionId),
    k: usize,
    weights: impl IntoIterator<Item = (f64, &'r [f64])>,
) -> Option<MdpError> {
    let mut sum = 0.0;
    for (prob, reward) in weights {
        if !weight_ok(prob, reward, k) {
            return transition_error((state, action), (0, 1), prob, reward, k);
        }
        sum += prob;
    }
    sum_error((state, action), sum)
}

/// Whether an arm's probability sum fails [`sum_error`].
#[inline]
fn sum_bad(sum: f64) -> bool {
    (sum - 1.0).abs() > PROB_SUM_TOLERANCE
}

/// The probability-sum check that closes every arm.
fn sum_error((state, action): (StateId, ActionId), sum: f64) -> Option<MdpError> {
    sum_bad(sum).then_some(MdpError::BadProbabilitySum { state, action, sum })
}

/// What [`CompiledMdp::compile`] accepts: a nested builder model, which it
/// checks and flattens, or a [`CompiledMdp`], which it copies.
///
/// The copy exists only so the benchmark's traced decomposition, which
/// times `CompiledMdp::compile(model.mdp())` as its own layer, keeps
/// building; delete that impl together with that call.
pub trait Compile {
    /// The model as a [`CompiledMdp`].
    fn to_compiled(&self) -> Result<CompiledMdp, MdpError>;
}

impl Compile for Mdp {
    fn to_compiled(&self) -> Result<CompiledMdp, MdpError> {
        let (compiled, first_error) = CompiledMdp::write_nested(self);
        match first_error {
            Some(e) => Err(e),
            None => Ok(compiled),
        }
    }
}

impl Compile for CompiledMdp {
    fn to_compiled(&self) -> Result<CompiledMdp, MdpError> {
        Ok(self.clone())
    }
}

impl CompiledMdp {
    /// Checks a nested [`Mdp`] and writes it into CSR form (see
    /// [`Compile`] for the other accepted input).
    ///
    /// # Panics
    /// Panics if the model exceeds `u32` index space (4 billion states,
    /// arms, or transitions) — far beyond what the dense solvers could
    /// process anyway.
    pub fn compile(model: &impl Compile) -> Result<Self, MdpError> {
        model.to_compiled()
    }

    /// Writes every arm of `mdp`, checked, and returns the model with the
    /// first failed check (an empty model fails with [`MdpError::Empty`]).
    fn write_nested(mdp: &Mdp) -> (Self, Option<MdpError>) {
        let (n, k) = (mdp.num_states(), mdp.reward_components());
        let mut structure = Structure::with_capacity((0, 0, 0));
        let (mut prob, mut rewards) = (Vec::new(), Vec::new());
        let mut first_error = (n == 0).then_some(MdpError::Empty);
        for (s, arms) in mdp.iter_states() {
            for (a, arm) in arms.iter().enumerate() {
                let transitions = arm.transitions.iter().map(|t| (t.to, t.prob, &t.reward[..]));
                if let Err(e) = structure.push_arm((s, a), arm.label, n, transitions.clone(), k) {
                    first_error.get_or_insert(e);
                }
                for (_, p, reward) in transitions {
                    prob.push(p);
                    // A reward of the wrong arity is stored as `k` NaNs.
                    if reward.len() == k {
                        rewards.extend_from_slice(reward);
                    } else {
                        rewards.resize(rewards.len() + k, f64::NAN);
                    }
                }
            }
            if let Err(e) = structure.end_state(s) {
                first_error.get_or_insert(e);
            }
        }
        (CompiledMdp::from_parts(k, Arc::new(structure), prob, rewards), first_error)
    }

    /// [`CompiledMdp::compile`] without the checks, so audit tests can build
    /// the broken models a checked writer refuses.
    #[cfg(test)]
    pub(crate) fn compile_unchecked(mdp: &Mdp) -> Self {
        Self::write_nested(mdp).0
    }

    /// Compiles a hand-built test model that must be well-formed.
    #[cfg(test)]
    pub(crate) fn of(mdp: &Mdp) -> Self {
        Self::compile(mdp).expect("well-formed test model")
    }

    /// A model on `structure`, shared, with the given weights: `prob`
    /// holds one value and `rewards` `reward_components` values per
    /// transition of `structure`, in CSR order.
    pub(crate) fn from_parts(
        reward_components: usize,
        structure: Arc<Structure>,
        prob: Vec<f64>,
        rewards: Vec<f64>,
    ) -> Self {
        debug_assert_eq!(prob.len(), structure.next.len());
        debug_assert_eq!(rewards.len(), prob.len() * reward_components);
        CompiledMdp { reward_components, structure, prob, rewards }
    }

    /// The shared graph arrays, for [`refill`](crate::indexer::refill).
    pub(crate) fn structure(&self) -> &Arc<Structure> {
        &self.structure
    }

    /// Whether `self` and `other` share one copy of the structure arrays:
    /// one was [`refill`](crate::indexer::refill)ed on the other's graph,
    /// or both on a third's.
    pub fn shares_structure(&self, other: &CompiledMdp) -> bool {
        Arc::ptr_eq(&self.structure, &other.structure)
    }

    /// Number of states.
    #[inline]
    pub fn num_states(&self) -> usize {
        self.structure.arm_offsets.len() - 1
    }

    /// Total number of (state, action) arms.
    #[inline]
    pub fn num_arms(&self) -> usize {
        self.structure.arm_labels.len()
    }

    /// Total number of transitions.
    #[inline]
    pub fn num_transitions(&self) -> usize {
        self.structure.next.len()
    }

    /// Number of reward components per transition.
    #[inline]
    pub fn reward_components(&self) -> usize {
        self.reward_components
    }

    /// Global arm indices of state `s`.
    #[inline]
    pub fn arm_range(&self, s: StateId) -> std::ops::Range<usize> {
        self.structure.arm_range(s)
    }

    /// Number of arms of state `s`.
    #[inline]
    pub fn num_arms_of(&self, s: StateId) -> usize {
        (self.structure.arm_offsets[s + 1] - self.structure.arm_offsets[s]) as usize
    }

    /// The global arm index selected by `policy` in state `s`.
    #[inline]
    pub fn policy_arm(&self, policy: &Policy, s: StateId) -> usize {
        self.structure.arm_offsets[s] as usize + policy.choices[s]
    }

    /// Transition indices of global arm `arm`.
    #[inline]
    pub fn transition_range(&self, arm: usize) -> std::ops::Range<usize> {
        self.structure.transition_range(arm)
    }

    /// `(probabilities, destinations)` of global arm `arm`, as parallel
    /// slices — the shape solver inner loops consume.
    #[inline]
    pub fn arm_transitions(&self, arm: usize) -> (&[f64], &[u32]) {
        let r = self.transition_range(arm);
        (&self.prob[r.clone()], &self.structure.next[r])
    }

    /// Domain label of the local action `a` of state `s`.
    #[inline]
    pub fn label(&self, s: StateId, a: ActionId) -> usize {
        self.arm_label(self.structure.arm_offsets[s] as usize + a)
    }

    /// Domain label of global arm `arm`.
    #[inline]
    pub fn arm_label(&self, arm: usize) -> usize {
        self.structure.arm_label(arm)
    }

    /// The local action of state `s` whose domain label is `label`, if any.
    pub fn action_with_label(&self, s: StateId, label: usize) -> Option<ActionId> {
        self.arm_range(s).position(|arm| self.arm_label(arm) == label)
    }

    /// `(target, probability, reward components)` of every transition of
    /// global arm `arm`, in stored order.
    pub fn transitions(&self, arm: usize) -> impl Iterator<Item = (StateId, f64, &[f64])> + '_ {
        self.transition_range(arm)
            .map(|t| (self.structure.next[t] as usize, self.prob[t], self.transition_rewards(t)))
    }

    /// Reward components of transition `t` (strided view).
    #[inline]
    pub fn transition_rewards(&self, t: usize) -> &[f64] {
        &self.rewards[t * self.reward_components..(t + 1) * self.reward_components]
    }

    /// Raw `(arm_offsets, tr_offsets)` arrays, for layout auditing.
    #[inline]
    pub(crate) fn raw_offsets(&self) -> (&[u32], &[u32]) {
        (&self.structure.arm_offsets, &self.structure.tr_offsets)
    }

    /// Raw destination-index buffer, for layout auditing.
    #[inline]
    pub(crate) fn raw_next(&self) -> &[u32] {
        &self.structure.next
    }

    /// Raw probability buffer, for numeric auditing.
    #[inline]
    pub(crate) fn raw_prob(&self) -> &[f64] {
        &self.prob
    }

    /// Raw strided reward buffer, for layout auditing.
    #[inline]
    pub(crate) fn raw_rewards(&self) -> &[f64] {
        &self.rewards
    }

    /// Checks that `policy` selects a valid action index for every state.
    pub fn validate_policy(&self, policy: &Policy) -> Result<(), MdpError> {
        if policy.choices.len() != self.num_states() {
            return Err(MdpError::BadPolicy { state: self.num_states() });
        }
        for (s, &a) in policy.choices.iter().enumerate() {
            if a >= self.num_arms_of(s) {
                return Err(MdpError::BadPolicy { state: s });
            }
        }
        Ok(())
    }

    /// Checks an objective's arity against this model.
    pub fn validate_objective(&self, objective: &Objective) -> Result<(), MdpError> {
        if objective.weights.len() != self.reward_components {
            return Err(MdpError::ObjectiveArity {
                found: objective.weights.len(),
                expected: self.reward_components,
            });
        }
        Ok(())
    }

    /// Scalarizes the model under `objective`: the *expected immediate
    /// scalar reward* of every arm, `out[a] = Σ_t p_t · ⟨w, r_t⟩`, each
    /// dot product and each sum accumulated serially in component and CSR
    /// order from `+0.0`.
    ///
    /// This is the only form any solver consumes (every Bellman backup
    /// weights rewards by transition probability), so collapsing the strided
    /// reward buffer happens exactly once per sweep, outside all hot loops.
    ///
    /// Components of weight zero (`0.0` or `-0.0`) are skipped, and the
    /// result is the dense dot product's bit for bit: every stored reward is
    /// finite, so a skipped term `r · 0` is `±0`, and adding `±0` leaves any
    /// partial sum unchanged as long as that sum is not `-0.0` — which it
    /// never is, since it starts at `+0.0` and round-to-nearest gives `-0.0`
    /// only for a sum of two `-0.0`s.
    pub fn scalarize_into(&self, objective: &Objective, out: &mut Vec<f64>) {
        let w = &objective.weights;
        debug_assert_eq!(w.len(), self.reward_components, "objective arity mismatch");
        let terms: Vec<(usize, f64)> =
            w.iter().copied().enumerate().filter(|&(_, wc)| wc != 0.0).collect();
        // Every transition in CSR order, with its reward components (`max`:
        // `chunks_exact` refuses 0, and a model of no components has none).
        let mut transitions =
            self.prob.iter().zip(self.rewards.chunks_exact(self.reward_components.max(1)));
        out.clear();
        out.extend(self.structure.tr_offsets.windows(2).map(|arm| {
            let mut acc = 0.0;
            for (p, r) in transitions.by_ref().take((arm[1] - arm[0]) as usize) {
                let mut dot = 0.0;
                for &(c, wc) in &terms {
                    dot += r[c] * wc;
                }
                acc += p * dot;
            }
            acc
        }));
    }

    /// Allocating convenience wrapper for [`CompiledMdp::scalarize_into`].
    pub fn scalarize(&self, objective: &Objective) -> Vec<f64> {
        let mut out = Vec::new();
        self.scalarize_into(objective, &mut out);
        out
    }

    /// Expected *per-component* immediate reward of every arm, arm-major
    /// strided (`out[a * k + c]`): the form the exact policy evaluator needs
    /// to accumulate component rates without re-reading per-transition
    /// reward vectors.
    pub fn expected_component_rewards(&self) -> Vec<f64> {
        let k = self.reward_components;
        let mut out = vec![0.0; self.num_arms() * k];
        for arm in 0..self.num_arms() {
            let acc = &mut out[arm * k..(arm + 1) * k];
            for t in self.transition_range(arm) {
                let p = self.prob[t];
                let r = &self.rewards[t * k..(t + 1) * k];
                for (a, rc) in acc.iter_mut().zip(r) {
                    *a += p * rc;
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::Transition;

    fn sample_mdp() -> Mdp {
        // 0: two arms (self-loop; jump to 1). 1: one stochastic arm back.
        let mut m = Mdp::new(2);
        let s0 = m.add_state();
        let s1 = m.add_state();
        m.add_action(s0, 7, vec![Transition::new(s0, 1.0, vec![1.0, 0.0])]);
        m.add_action(s0, 9, vec![Transition::new(s1, 1.0, vec![2.0, 1.0])]);
        m.add_action(
            s1,
            4,
            vec![
                Transition::new(s0, 0.25, vec![0.0, 4.0]),
                Transition::new(s1, 0.75, vec![1.0, 1.0]),
            ],
        );
        m
    }

    #[test]
    fn compiles_counts_and_offsets() {
        let c = CompiledMdp::compile(&sample_mdp()).unwrap();
        assert_eq!(c.num_states(), 2);
        assert_eq!(c.num_arms(), 3);
        assert_eq!(c.num_transitions(), 4);
        assert_eq!(c.reward_components(), 2);
        assert_eq!(c.arm_range(0), 0..2);
        assert_eq!(c.arm_range(1), 2..3);
        assert_eq!(c.transition_range(2), 2..4);
        let (probs, nexts) = c.arm_transitions(2);
        assert_eq!(probs, &[0.25, 0.75]);
        assert_eq!(nexts, &[0, 1]);
    }

    #[test]
    fn labels_roundtrip() {
        let c = CompiledMdp::compile(&sample_mdp()).unwrap();
        assert_eq!(c.label(0, 0), 7);
        assert_eq!(c.label(0, 1), 9);
        assert_eq!(c.label(1, 0), 4);
    }

    /// One state with one arm of the given transitions.
    fn one_arm(components: usize, transitions: Vec<Transition>) -> Mdp {
        let mut m = Mdp::new(components);
        let s = m.add_state();
        m.add_action(s, 0, transitions);
        m
    }

    fn compile_err(m: &Mdp) -> MdpError {
        CompiledMdp::compile(m).expect_err("the model is malformed")
    }

    #[test]
    fn rejects_empty_model_and_state_without_actions() {
        assert_eq!(compile_err(&Mdp::new(1)), MdpError::Empty);
        let mut m = Mdp::new(1);
        let a = m.add_state();
        let b = m.add_state();
        m.add_action(a, 0, vec![Transition::new(b, 1.0, vec![0.0])]);
        assert_eq!(compile_err(&m), MdpError::NoActions { state: 1 });
    }

    /// Every malformed-arm shape turns into a structured error naming its
    /// state and action — compile never panics.
    #[test]
    fn rejects_malformed_arms() {
        let m = one_arm(1, vec![Transition::new(0, 0.5, vec![0.0])]);
        assert_eq!(compile_err(&m), MdpError::BadProbabilitySum { state: 0, action: 0, sum: 0.5 });
        let m = one_arm(1, vec![]);
        assert_eq!(compile_err(&m), MdpError::BadProbabilitySum { state: 0, action: 0, sum: 0.0 });
        let m = one_arm(
            1,
            vec![Transition::new(0, -0.5, vec![0.0]), Transition::new(0, 1.5, vec![0.0])],
        );
        assert_eq!(
            compile_err(&m),
            MdpError::NegativeProbability { state: 0, action: 0, prob: -0.5 }
        );
        let m = one_arm(1, vec![Transition::new(0, f64::NEG_INFINITY, vec![0.0])]);
        assert!(matches!(compile_err(&m), MdpError::NegativeProbability { .. }));
        for bad in [f64::NAN, f64::INFINITY] {
            let m = one_arm(1, vec![Transition::new(0, bad, vec![0.0])]);
            assert!(matches!(
                compile_err(&m),
                MdpError::NonFiniteProbability { state: 0, action: 0, .. }
            ));
        }
        let m = one_arm(1, vec![Transition::new(42, 1.0, vec![0.0])]);
        assert_eq!(compile_err(&m), MdpError::DanglingTarget { state: 0, action: 0, target: 42 });
        let m = one_arm(2, vec![Transition::new(0, 1.0, vec![0.0])]);
        assert_eq!(
            compile_err(&m),
            MdpError::RewardArity { state: 0, action: 0, found: 1, expected: 2 }
        );
        let m = one_arm(2, vec![Transition::new(0, 1.0, vec![0.0, f64::NAN])]);
        assert!(matches!(
            compile_err(&m),
            MdpError::NonFiniteReward { state: 0, action: 0, component: 1, value } if value.is_nan()
        ));
    }

    /// The first failure in (state, action) order is the one reported.
    #[test]
    fn reports_the_first_malformed_arm() {
        let mut m = Mdp::new(1);
        let a = m.add_state();
        let b = m.add_state();
        m.add_action(a, 0, vec![Transition::new(b, 1.0, vec![0.0])]);
        m.add_action(a, 1, vec![Transition::new(b, 0.5, vec![0.0])]);
        m.add_action(b, 0, vec![Transition::new(a, f64::NAN, vec![0.0])]);
        assert_eq!(compile_err(&m), MdpError::BadProbabilitySum { state: 0, action: 1, sum: 0.5 });
    }

    /// Compiling a compiled model copies it.
    #[test]
    fn compile_copies_a_compiled_model() {
        let c = CompiledMdp::compile(&sample_mdp()).unwrap();
        let copy = CompiledMdp::compile(&c).unwrap();
        assert_eq!(format!("{c:?}"), format!("{copy:?}"));
    }

    #[test]
    fn transitions_and_label_lookup() {
        let c = CompiledMdp::compile(&sample_mdp()).unwrap();
        let t: Vec<_> = c.transitions(2).collect();
        assert_eq!(t, vec![(0, 0.25, &[0.0, 4.0][..]), (1, 0.75, &[1.0, 1.0][..])]);
        assert_eq!(c.arm_label(1), 9);
        assert_eq!(c.action_with_label(0, 9), Some(1));
        assert_eq!(c.action_with_label(1, 9), None);
    }

    #[test]
    fn scalarize_is_expected_reward_per_arm() {
        let c = CompiledMdp::compile(&sample_mdp()).unwrap();
        let exp = c.scalarize(&Objective::new(vec![1.0, 0.5]));
        // Arm 0: 1·(1 + 0) = 1. Arm 1: 1·(2 + 0.5) = 2.5.
        // Arm 2: 0.25·(0 + 2) + 0.75·(1 + 0.5) = 0.5 + 1.125 = 1.625.
        assert_eq!(exp, vec![1.0, 2.5, 1.625]);
    }

    #[test]
    fn scalarize_ratio_matches_minus_scaled() {
        let c = CompiledMdp::compile(&sample_mdp()).unwrap();
        let n = Objective::component(0, 2);
        let d = Objective::component(1, 2);
        let rho = 0.375;
        let (mut exp_num, mut exp_den) = (Vec::new(), Vec::new());
        c.scalarize_into(&n, &mut exp_num);
        c.scalarize_into(&d, &mut exp_den);
        let direct: Vec<f64> = exp_num.iter().zip(&exp_den).map(|(n, d)| n - rho * d).collect();
        let via_objective = c.scalarize(&n.minus_scaled(&d, rho));
        for (a, b) in direct.iter().zip(&via_objective) {
            assert!((a - b).abs() < 1e-15, "{a} vs {b}");
        }
    }

    #[test]
    fn expected_component_rewards_are_arm_major() {
        let c = CompiledMdp::compile(&sample_mdp()).unwrap();
        let e = c.expected_component_rewards();
        assert_eq!(e.len(), 6);
        assert_eq!(&e[0..2], &[1.0, 0.0]);
        assert_eq!(&e[2..4], &[2.0, 1.0]);
        // Arm 2: [0.25·0 + 0.75·1, 0.25·4 + 0.75·1] = [0.75, 1.75].
        assert!((e[4] - 0.75).abs() < 1e-15);
        assert!((e[5] - 1.75).abs() < 1e-15);
    }

    #[test]
    fn policy_helpers() {
        let c = CompiledMdp::compile(&sample_mdp()).unwrap();
        let p = Policy { choices: vec![1, 0] };
        c.validate_policy(&p).unwrap();
        assert_eq!(c.policy_arm(&p, 0), 1);
        assert_eq!(c.policy_arm(&p, 1), 2);
        let bad = Policy { choices: vec![2, 0] };
        assert_eq!(c.validate_policy(&bad), Err(MdpError::BadPolicy { state: 0 }));
    }
}
