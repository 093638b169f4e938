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
//! Models are written straight into these arrays, one state at a time, in
//! id order: [`explore`](crate::indexer::explore) appends each state's arms
//! as it expands the state, and [`CompiledMdp::compile`] copies a
//! hand-written nested [`Mdp`] (the builder for small and random test
//! models). Both writers run the same checks on every arm as they append it
//! — nonnegative finite probabilities summing to one, targets in range,
//! rewards of the declared arity and finite, at least one action per state
//! — and report the first failure in (state, action, transition) order.
//!
//! Solvers then run branch-light passes over flat slices. Reward vectors are
//! collapsed to scalars **once per sweep** by [`CompiledMdp::scalarize`]
//! (per-arm *expected* immediate reward, since every solver only ever needs
//! `Σ_t p_t · ⟨w, r_t⟩`), and the ratio solver's per-probe
//! re-scalarization is a fused multiply-add over two precomputed arrays
//! ([`CompiledMdp::combine_scalarized_into`]) — it never re-reads the
//! `rewards` buffer.

use crate::error::MdpError;
use crate::model::{ActionId, Mdp, Objective, Policy, StateId, PROB_SUM_TOLERANCE};
use crate::shard::{effective_threads, run_chunked, SCALARIZE_MIN_ARMS};

/// A validated, flat, solver-ready MDP (see the module docs).
#[derive(Debug, Clone)]
pub struct CompiledMdp {
    reward_components: usize,
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
    /// Probability of every transition. Length `num_transitions`.
    prob: Vec<f64>,
    /// Transition-major strided reward components: component `c` of
    /// transition `t` lives at `t * reward_components + c`. Length
    /// `num_transitions * reward_components`.
    rewards: Vec<f64>,
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
        let n = mdp.num_states();
        let mut out = CompiledMdp::with_capacity(mdp.reward_components(), (0, 0, 0));
        let mut first_error = (n == 0).then_some(MdpError::Empty);
        for (s, arms) in mdp.iter_states() {
            for (a, arm) in arms.iter().enumerate() {
                let transitions = arm.transitions.iter().map(|t| (t.to, t.prob, &t.reward[..]));
                if let Err(e) = out.push_arm(s, a, arm.label, n, transitions) {
                    first_error.get_or_insert(e);
                }
            }
            if let Err(e) = out.end_state(s) {
                first_error.get_or_insert(e);
            }
        }
        (out, first_error)
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

    /// A model with no states yet, for the writers to append to, with room
    /// for `(states, arms, transitions)`.
    pub(crate) fn with_capacity(
        reward_components: usize,
        (states, arms, transitions): (usize, usize, usize),
    ) -> Self {
        let mut arm_offsets = Vec::with_capacity(states + 1);
        arm_offsets.push(0);
        let mut tr_offsets = Vec::with_capacity(arms + 1);
        tr_offsets.push(0);
        CompiledMdp {
            reward_components,
            arm_offsets,
            arm_labels: Vec::with_capacity(arms),
            tr_offsets,
            next: Vec::with_capacity(transitions),
            prob: Vec::with_capacity(transitions),
            rewards: Vec::with_capacity(transitions * reward_components),
        }
    }

    /// Appends action `action` (domain label `label`) of `state`, the state
    /// being written, with its `(target, probability, reward)` transitions.
    ///
    /// The arm is always stored; the result is its first failed check, in
    /// the order they run per transition — negative probability,
    /// non-finite probability, target not below `num_states`, reward arity,
    /// non-finite reward — then the probability sum. A reward of the wrong
    /// arity is stored as `reward_components` NaNs.
    pub(crate) fn push_arm<'r>(
        &mut self,
        state: StateId,
        action: ActionId,
        label: usize,
        num_states: usize,
        transitions: impl IntoIterator<Item = (StateId, f64, &'r [f64])>,
    ) -> Result<(), MdpError> {
        let k = self.reward_components;
        let mut first_error = None;
        let mut fail = |e: MdpError| {
            first_error.get_or_insert(e);
        };
        let mut sum = 0.0;
        self.arm_labels.push(label as u32);
        for (to, prob, reward) in transitions {
            if prob < 0.0 {
                fail(MdpError::NegativeProbability { state, action, prob });
            } else if !prob.is_finite() {
                fail(MdpError::NonFiniteProbability { state, action, prob });
            } else if to >= num_states {
                fail(MdpError::DanglingTarget { state, action, target: to });
            } else if reward.len() != k {
                fail(MdpError::RewardArity { state, action, found: reward.len(), expected: k });
            } else if let Some(c) = reward.iter().position(|r| !r.is_finite()) {
                fail(MdpError::NonFiniteReward { state, action, component: c, value: reward[c] });
            }
            sum += prob;
            self.next.push(to as u32);
            self.prob.push(prob);
            if reward.len() == k {
                self.rewards.extend_from_slice(reward);
            } else {
                self.rewards.resize(self.rewards.len() + k, f64::NAN);
            }
        }
        self.tr_offsets.push(self.next.len() as u32);
        if (sum - 1.0).abs() > PROB_SUM_TOLERANCE {
            fail(MdpError::BadProbabilitySum { state, action, sum });
        }
        first_error.map_or(Ok(()), Err)
    }

    /// Closes `state`, whose arms were just pushed: [`MdpError::NoActions`]
    /// when it has none.
    ///
    /// # Panics
    /// Panics if the model has outgrown `u32` index space.
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

    /// Number of states.
    #[inline]
    pub fn num_states(&self) -> usize {
        self.arm_offsets.len() - 1
    }

    /// Total number of (state, action) arms.
    #[inline]
    pub fn num_arms(&self) -> usize {
        self.arm_labels.len()
    }

    /// Total number of transitions.
    #[inline]
    pub fn num_transitions(&self) -> usize {
        self.next.len()
    }

    /// Number of reward components per transition.
    #[inline]
    pub fn reward_components(&self) -> usize {
        self.reward_components
    }

    /// Global arm indices of state `s`.
    #[inline]
    pub fn arm_range(&self, s: StateId) -> std::ops::Range<usize> {
        self.arm_offsets[s] as usize..self.arm_offsets[s + 1] as usize
    }

    /// Number of arms of state `s`.
    #[inline]
    pub fn num_arms_of(&self, s: StateId) -> usize {
        (self.arm_offsets[s + 1] - self.arm_offsets[s]) as usize
    }

    /// The global arm index selected by `policy` in state `s`.
    #[inline]
    pub fn policy_arm(&self, policy: &Policy, s: StateId) -> usize {
        self.arm_offsets[s] as usize + policy.choices[s]
    }

    /// Transition indices of global arm `arm`.
    #[inline]
    pub fn transition_range(&self, arm: usize) -> std::ops::Range<usize> {
        self.tr_offsets[arm] as usize..self.tr_offsets[arm + 1] as usize
    }

    /// `(probabilities, destinations)` of global arm `arm`, as parallel
    /// slices — the shape solver inner loops consume.
    #[inline]
    pub fn arm_transitions(&self, arm: usize) -> (&[f64], &[u32]) {
        let r = self.transition_range(arm);
        (&self.prob[r.clone()], &self.next[r])
    }

    /// Domain label of the local action `a` of state `s`.
    #[inline]
    pub fn label(&self, s: StateId, a: ActionId) -> usize {
        self.arm_label(self.arm_offsets[s] as usize + a)
    }

    /// Domain label of global arm `arm`.
    #[inline]
    pub fn arm_label(&self, arm: usize) -> usize {
        self.arm_labels[arm] as usize
    }

    /// The local action of state `s` whose domain label is `label`, if any.
    pub fn action_with_label(&self, s: StateId, label: usize) -> Option<ActionId> {
        self.arm_range(s).position(|arm| self.arm_label(arm) == label)
    }

    /// `(target, probability, reward components)` of every transition of
    /// global arm `arm`, in stored order.
    pub fn transitions(&self, arm: usize) -> impl Iterator<Item = (StateId, f64, &[f64])> + '_ {
        self.transition_range(arm)
            .map(|t| (self.next[t] as usize, self.prob[t], self.transition_rewards(t)))
    }

    /// Reward components of transition `t` (strided view).
    #[inline]
    pub fn transition_rewards(&self, t: usize) -> &[f64] {
        &self.rewards[t * self.reward_components..(t + 1) * self.reward_components]
    }

    /// Raw `(arm_offsets, tr_offsets)` arrays, for layout auditing.
    #[inline]
    pub(crate) fn raw_offsets(&self) -> (&[u32], &[u32]) {
        (&self.arm_offsets, &self.tr_offsets)
    }

    /// Raw destination-index buffer, for layout auditing.
    #[inline]
    pub(crate) fn raw_next(&self) -> &[u32] {
        &self.next
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
    /// scalar reward* of every arm, `out[a] = Σ_t p_t · ⟨w, r_t⟩`.
    ///
    /// This is the only form any solver consumes (every Bellman backup
    /// weights rewards by transition probability), so collapsing the strided
    /// reward buffer happens exactly once per sweep, outside all hot loops.
    pub fn scalarize_into(&self, objective: &Objective, out: &mut Vec<f64>) {
        self.scalarize_into_threaded(objective, out, 1);
    }

    /// [`CompiledMdp::scalarize_into`] with the arm range sharded across up
    /// to `threads` scoped threads (each arm's accumulation is independent
    /// and serial, so the result is bit-identical for every thread count).
    /// Extra threads only engage when every shard keeps enough arms for the
    /// spawn cost to pay off; `0`/`1` stay on the calling thread.
    pub fn scalarize_into_threaded(
        &self,
        objective: &Objective,
        out: &mut Vec<f64>,
        threads: usize,
    ) {
        let w = &objective.weights;
        debug_assert_eq!(w.len(), self.reward_components, "objective arity mismatch");
        let arms = self.num_arms();
        out.clear();
        out.resize(arms, 0.0);
        let shards = effective_threads(threads, arms, SCALARIZE_MIN_ARMS);
        run_chunked(out, shards, |start, chunk| {
            for (i, slot) in chunk.iter_mut().enumerate() {
                *slot = self.scalarize_arm(start + i, w);
            }
        });
    }

    /// Expected immediate scalar reward of one arm under weights `w`:
    /// `Σ_t p_t · ⟨w, r_t⟩`, accumulated serially in CSR order.
    #[inline]
    fn scalarize_arm(&self, arm: usize, w: &[f64]) -> f64 {
        let k = self.reward_components;
        let mut acc = 0.0;
        for t in self.transition_range(arm) {
            let r = &self.rewards[t * k..(t + 1) * k];
            let mut dot = 0.0;
            for (rc, wc) in r.iter().zip(w) {
                dot += rc * wc;
            }
            acc += self.prob[t] * dot;
        }
        acc
    }

    /// Allocating convenience wrapper for [`CompiledMdp::scalarize_into`].
    pub fn scalarize(&self, objective: &Objective) -> Vec<f64> {
        let mut out = Vec::new();
        self.scalarize_into(objective, &mut out);
        out
    }

    /// Scalarizes the ratio-transformed reward `numerator − ρ · denominator`
    /// per arm. Equivalent to `scalarize(&numerator.minus_scaled(denominator,
    /// rho))` but without building the intermediate objective.
    pub fn scalarize_ratio(
        &self,
        numerator: &Objective,
        denominator: &Objective,
        rho: f64,
    ) -> Vec<f64> {
        self.scalarize_ratio_threaded(numerator, denominator, rho, 1)
    }

    /// [`CompiledMdp::scalarize_ratio`] with both component scalarizations
    /// and the combine sharded across up to `threads` threads
    /// (bit-identical for every thread count).
    pub fn scalarize_ratio_threaded(
        &self,
        numerator: &Objective,
        denominator: &Objective,
        rho: f64,
        threads: usize,
    ) -> Vec<f64> {
        let mut exp_num = Vec::new();
        let mut exp_den = Vec::new();
        self.scalarize_into_threaded(numerator, &mut exp_num, threads);
        self.scalarize_into_threaded(denominator, &mut exp_den, threads);
        let mut out = vec![0.0; self.num_arms()];
        Self::combine_scalarized_into_threaded(&exp_num, &exp_den, rho, &mut out, threads);
        out
    }

    /// The ratio solver's per-probe re-scalarization, in place:
    /// `out[a] = exp_num[a] − ρ · exp_den[a]`. Scalarization is linear in
    /// the objective, so once the two component arrays exist, moving ρ costs
    /// O(arms) and never touches the `rewards` buffer again.
    #[inline]
    pub fn combine_scalarized_into(exp_num: &[f64], exp_den: &[f64], rho: f64, out: &mut [f64]) {
        debug_assert_eq!(exp_num.len(), exp_den.len());
        debug_assert_eq!(exp_num.len(), out.len());
        for ((o, n), d) in out.iter_mut().zip(exp_num).zip(exp_den) {
            *o = n - rho * d;
        }
    }

    /// [`CompiledMdp::combine_scalarized_into`] sharded across up to
    /// `threads` threads. Elementwise, so bit-identical for every thread
    /// count; extra threads only engage above the same arm-count threshold
    /// as the threaded scalarization.
    pub fn combine_scalarized_into_threaded(
        exp_num: &[f64],
        exp_den: &[f64],
        rho: f64,
        out: &mut [f64],
        threads: usize,
    ) {
        debug_assert_eq!(exp_num.len(), exp_den.len());
        debug_assert_eq!(exp_num.len(), out.len());
        let shards = effective_threads(threads, out.len(), SCALARIZE_MIN_ARMS);
        run_chunked(out, shards, |start, chunk| {
            let num = &exp_num[start..start + chunk.len()];
            let den = &exp_den[start..start + chunk.len()];
            for ((o, n), d) in chunk.iter_mut().zip(num).zip(den) {
                *o = n - rho * d;
            }
        });
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
        let direct = c.scalarize_ratio(&n, &d, rho);
        let via_objective = c.scalarize(&n.minus_scaled(&d, rho));
        for (a, b) in direct.iter().zip(&via_objective) {
            assert!((a - b).abs() < 1e-15, "{a} vs {b}");
        }
    }

    #[test]
    fn combine_scalarized_is_in_place_fma() {
        let exp_num = [1.0, 2.0, 3.0];
        let exp_den = [0.5, 0.0, 2.0];
        let mut out = [0.0; 3];
        CompiledMdp::combine_scalarized_into(&exp_num, &exp_den, 2.0, &mut out);
        assert_eq!(out, [0.0, 2.0, -1.0]);
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

    /// Threaded scalarization and combine are bit-identical to the serial
    /// versions for every thread count (the threshold keeps the sample model
    /// single-threaded, but the dispatch path is still exercised).
    #[test]
    fn threaded_scalarize_matches_serial_bitwise() {
        let c = CompiledMdp::compile(&sample_mdp()).unwrap();
        let obj = Objective::new(vec![1.0, -0.5]);
        let serial = c.scalarize(&obj);
        for threads in [0usize, 1, 2, 7] {
            let mut out = Vec::new();
            c.scalarize_into_threaded(&obj, &mut out, threads);
            assert_eq!(serial, out, "threads={threads}");
        }
        let n = Objective::component(0, 2);
        let d = Objective::component(1, 2);
        let serial_ratio = c.scalarize_ratio(&n, &d, 0.375);
        for threads in [2usize, 7] {
            let ratio = c.scalarize_ratio_threaded(&n, &d, 0.375, threads);
            assert_eq!(serial_ratio, ratio, "threads={threads}");
        }
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
