//! The nested model builder, and the policy and objective types every
//! solver shares.
//!
//! An [`Mdp`] stores, for every state, a list of actions, each owning a list
//! of [`Transition`]s. It is the builder for small hand-written and random
//! test models, finished by [`CompiledMdp::compile`]; the solvers read only
//! the compiled form (and [`crate::indexer::explore`] writes domain models
//! straight into it). Every transition carries a *reward vector* rather than
//! a scalar: the same model can then be solved under several objectives
//! (e.g. the attacker's locked blocks, the other miners' locked blocks,
//! orphan counts, and double-spend payouts are all separate components,
//! combined into scalars only at solve time by an [`Objective`]).

use crate::compiled::CompiledMdp;

/// Index of a state inside a model.
pub type StateId = usize;

/// Index of an action inside a state's action list.
///
/// Action indices are *local* to a state: action `0` of state `s` and action
/// `0` of state `t` need not represent the same domain action. Domain crates
/// attach meaning via the action's label ([`CompiledMdp::label`]).
pub type ActionId = usize;

/// A single probabilistic transition of one action.
#[derive(Debug, Clone, PartialEq)]
pub struct Transition {
    /// Destination state.
    pub to: StateId,
    /// Probability of this transition, in `[0, 1]`.
    pub prob: f64,
    /// Reward components accrued when this transition fires. Length must
    /// equal [`Mdp::reward_components`].
    pub reward: Vec<f64>,
}

impl Transition {
    /// Convenience constructor.
    pub fn new(to: StateId, prob: f64, reward: Vec<f64>) -> Self {
        Transition { to, prob, reward }
    }
}

/// One action available in one state: a label plus its outgoing transitions.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct ActionArm {
    /// Domain-level action identifier, carried into the compiled model.
    pub(crate) label: usize,
    /// Sparse outgoing transition distribution.
    pub(crate) transitions: Vec<Transition>,
}

/// Nested builder for a sparse finite MDP with vector-valued rewards. It is
/// checked only when [`CompiledMdp::compile`] writes it out.
#[derive(Debug, Clone)]
pub struct Mdp {
    reward_components: usize,
    actions: Vec<Vec<ActionArm>>,
}

/// How far an action's probabilities may sum from one.
pub const PROB_SUM_TOLERANCE: f64 = 1e-9;

impl Mdp {
    /// Creates an empty model whose transitions carry `reward_components`
    /// reward components each.
    pub fn new(reward_components: usize) -> Self {
        Mdp { reward_components, actions: Vec::new() }
    }

    /// Number of reward components carried by every transition.
    pub fn reward_components(&self) -> usize {
        self.reward_components
    }

    /// Number of states.
    pub fn num_states(&self) -> usize {
        self.actions.len()
    }

    /// Appends a new state with no actions yet and returns its id.
    pub fn add_state(&mut self) -> StateId {
        self.actions.push(Vec::new());
        self.actions.len() - 1
    }

    /// Adds an action to `state` and returns its local [`ActionId`].
    ///
    /// # Panics
    /// Panics if `state` does not exist.
    pub fn add_action(
        &mut self,
        state: StateId,
        label: usize,
        transitions: Vec<Transition>,
    ) -> ActionId {
        self.actions[state].push(ActionArm { label, transitions });
        self.actions[state].len() - 1
    }

    /// Iterates over all states' action lists, in id order.
    pub(crate) fn iter_states(&self) -> impl Iterator<Item = (StateId, &[ActionArm])> {
        self.actions.iter().enumerate().map(|(i, a)| (i, a.as_slice()))
    }
}

/// A deterministic stationary policy: one chosen action index per state.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Policy {
    /// `choices[s]` is the selected [`ActionId`] in state `s`.
    pub choices: Vec<ActionId>,
}

impl Policy {
    /// A policy choosing action `0` everywhere (every validated MDP has at
    /// least one action per state, so this is always valid).
    pub fn zeros(num_states: usize) -> Self {
        Policy { choices: vec![0; num_states] }
    }

    /// The domain label of the action this policy picks in `state`.
    pub fn label(&self, mdp: &CompiledMdp, state: StateId) -> usize {
        mdp.label(state, self.choices[state])
    }
}

/// A linear objective over reward components: the scalar reward of a
/// transition is the dot product of its reward vector with these weights.
#[derive(Debug, Clone, PartialEq)]
pub struct Objective {
    /// One weight per reward component.
    pub weights: Vec<f64>,
}

impl Objective {
    /// Creates an objective from component weights.
    pub fn new(weights: Vec<f64>) -> Self {
        Objective { weights }
    }

    /// An objective selecting a single component.
    pub fn component(index: usize, arity: usize) -> Self {
        let mut weights = vec![0.0; arity];
        weights[index] = 1.0;
        Objective { weights }
    }

    /// Scalarizes one reward vector.
    #[inline]
    pub fn scalarize(&self, reward: &[f64]) -> f64 {
        reward.iter().zip(&self.weights).map(|(r, w)| r * w).sum()
    }

    /// The linear combination `self - rho * other`, used by the ratio solver.
    pub fn minus_scaled(&self, other: &Objective, rho: f64) -> Objective {
        Objective {
            weights: self.weights.iter().zip(&other.weights).map(|(n, d)| n - rho * d).collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::MdpError;

    fn two_state_chain() -> CompiledMdp {
        // 0 --a--> 1 (reward [1,0]); 1 --a--> 0 (reward [0,1]).
        let mut m = Mdp::new(2);
        let s0 = m.add_state();
        let s1 = m.add_state();
        m.add_action(s0, 7, vec![Transition::new(s1, 1.0, vec![1.0, 0.0])]);
        m.add_action(s1, 8, vec![Transition::new(s0, 1.0, vec![0.0, 1.0])]);
        CompiledMdp::compile(&m).expect("well-formed")
    }

    #[test]
    fn builds_well_formed_model() {
        let m = two_state_chain();
        assert_eq!(m.num_states(), 2);
        assert_eq!(m.num_arms(), 2);
        assert_eq!(m.num_transitions(), 2);
    }

    #[test]
    fn policy_validation() {
        let m = two_state_chain();
        let good = Policy::zeros(2);
        m.validate_policy(&good).unwrap();
        let short = Policy { choices: vec![0] };
        assert!(m.validate_policy(&short).is_err());
        let out_of_range = Policy { choices: vec![0, 3] };
        assert_eq!(m.validate_policy(&out_of_range), Err(MdpError::BadPolicy { state: 1 }));
    }

    #[test]
    fn policy_label_maps_to_domain_action() {
        let m = two_state_chain();
        let p = Policy::zeros(2);
        assert_eq!(p.label(&m, 0), 7);
        assert_eq!(p.label(&m, 1), 8);
    }

    #[test]
    fn objective_scalarizes_dot_product() {
        let o = Objective::new(vec![2.0, -1.0]);
        assert_eq!(o.scalarize(&[3.0, 4.0]), 2.0);
    }

    #[test]
    fn objective_component_selects_one() {
        let o = Objective::component(1, 3);
        assert_eq!(o.weights, vec![0.0, 1.0, 0.0]);
    }

    #[test]
    fn objective_arity_checked() {
        let m = two_state_chain();
        assert!(m.validate_objective(&Objective::new(vec![1.0])).is_err());
        assert!(m.validate_objective(&Objective::new(vec![1.0, 0.0])).is_ok());
    }

    #[test]
    fn minus_scaled_combines_linearly() {
        let n = Objective::new(vec![1.0, 0.0]);
        let d = Objective::new(vec![1.0, 1.0]);
        let c = n.minus_scaled(&d, 0.25);
        assert_eq!(c.weights, vec![0.75, -0.25]);
    }
}
