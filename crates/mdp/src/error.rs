//! Error types for model construction and solving.

use std::fmt;

/// Errors arising while building or validating an [`crate::Mdp`].
#[derive(Debug, Clone, PartialEq)]
pub enum MdpError {
    /// A state has no available action.
    NoActions {
        /// Index of the offending state.
        state: usize,
    },
    /// An action's outgoing transition probabilities do not sum to one.
    BadProbabilitySum {
        /// Index of the offending state.
        state: usize,
        /// Index of the offending action within the state's action list.
        action: usize,
        /// The actual probability sum found.
        sum: f64,
    },
    /// A transition carries a NaN or infinite probability.
    NonFiniteProbability {
        /// Index of the offending state.
        state: usize,
        /// Index of the offending action within the state's action list.
        action: usize,
        /// The offending probability value.
        prob: f64,
    },
    /// A transition's reward vector contains a NaN or infinite component.
    NonFiniteReward {
        /// Index of the offending state.
        state: usize,
        /// Index of the offending action within the state's action list.
        action: usize,
        /// Index of the offending reward component.
        component: usize,
        /// The offending reward value.
        value: f64,
    },
    /// A pre-solve model audit found a violated solver precondition
    /// (see [`crate::audit`]).
    AuditFailed {
        /// Name of the first failed audit check.
        check: &'static str,
        /// Human-readable detail from the failed check.
        detail: String,
    },
    /// A transition carries a negative probability.
    NegativeProbability {
        /// Index of the offending state.
        state: usize,
        /// Index of the offending action within the state's action list.
        action: usize,
        /// The offending probability value.
        prob: f64,
    },
    /// A transition points at a state index outside the model.
    DanglingTarget {
        /// Index of the offending state.
        state: usize,
        /// Index of the offending action within the state's action list.
        action: usize,
        /// The out-of-range target index.
        target: usize,
    },
    /// A transition's reward vector has the wrong number of components.
    RewardArity {
        /// Index of the offending state.
        state: usize,
        /// Index of the offending action within the state's action list.
        action: usize,
        /// Number of components found.
        found: usize,
        /// Number of components the model declares.
        expected: usize,
    },
    /// The model has no states at all.
    Empty,
    /// A solver failed to converge within its iteration budget.
    NoConvergence {
        /// Name of the solver that gave up.
        solver: &'static str,
        /// Number of iterations performed.
        iterations: usize,
        /// Residual (solver-specific norm) at the last iteration.
        residual: f64,
    },
    /// A policy vector does not match the model (wrong length or an
    /// action index out of range for some state).
    BadPolicy {
        /// Index of the offending state (or the policy length mismatch
        /// expressed as the model's state count).
        state: usize,
    },
    /// A ratio objective is unbounded: some policy accrues numerator
    /// reward at a positive rate while its denominator rate is zero.
    UnboundedRatio {
        /// The bracket value at which the solver gave up.
        reached: f64,
    },
    /// An objective weight vector has the wrong number of components.
    ObjectiveArity {
        /// Number of components found.
        found: usize,
        /// Number of components the model declares.
        expected: usize,
    },
    /// A caller-supplied buffer or vector (warm start, scratch space,
    /// pre-scalarized rewards) has the wrong length for the model, or a
    /// caller-supplied state id (a hitting target) is not below the state
    /// count.
    Shape {
        /// Which buffer or id is malformed.
        what: &'static str,
        /// Length (or id) found.
        found: usize,
        /// Length the model requires (for an id, the state count).
        expected: usize,
    },
    /// A numeric solver option is outside its valid range (e.g. an
    /// aperiodicity mixing weight not in `[0, 1)`).
    BadOption {
        /// Which option is out of range.
        what: &'static str,
        /// The offending value.
        value: f64,
    },
    /// A solve ran past its wall-clock deadline
    /// (see [`crate::budget::SolveBudget`]).
    DeadlineExceeded {
        /// Name of the solver whose loop hit the deadline.
        solver: &'static str,
        /// Iterations completed when the deadline fired.
        iterations: usize,
        /// How far past the deadline the check observed the clock, in
        /// milliseconds (granularity depends on the check interval).
        over_by_ms: u64,
    },
    /// A solve was cancelled through its budget's shared cancel flag.
    Cancelled {
        /// Name of the solver whose loop observed the flag.
        solver: &'static str,
        /// Iterations completed at cancellation.
        iterations: usize,
    },
    /// A hitting-time query's target set is not reachable from some state,
    /// making its expected hitting time infinite.
    UnreachableTarget {
        /// A state that cannot reach the target set.
        state: usize,
    },
}

impl MdpError {
    /// True for failures a retry with a larger budget could plausibly cure
    /// (currently only [`MdpError::NoConvergence`]): the escalation policy
    /// of sweep runners keys off this.
    pub fn is_retryable(&self) -> bool {
        matches!(self, MdpError::NoConvergence { .. })
    }

    /// True when the solve was stopped from outside (cancel flag), as
    /// opposed to failing on its own.
    pub fn is_cancellation(&self) -> bool {
        matches!(self, MdpError::Cancelled { .. })
    }
}

impl fmt::Display for MdpError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MdpError::NoActions { state } => {
                write!(f, "state {state} has no available actions")
            }
            MdpError::BadProbabilitySum { state, action, sum } => write!(
                f,
                "transition probabilities for state {state}, action {action} sum to {sum}, expected 1"
            ),
            MdpError::NegativeProbability { state, action, prob } => write!(
                f,
                "negative transition probability {prob} at state {state}, action {action}"
            ),
            MdpError::NonFiniteProbability { state, action, prob } => write!(
                f,
                "non-finite transition probability {prob} at state {state}, action {action}"
            ),
            MdpError::NonFiniteReward { state, action, component, value } => write!(
                f,
                "non-finite reward component {component} ({value}) at state {state}, action {action}"
            ),
            MdpError::AuditFailed { check, detail } => {
                write!(f, "model audit failed check '{check}': {detail}")
            }
            MdpError::DanglingTarget { state, action, target } => write!(
                f,
                "state {state}, action {action} targets nonexistent state {target}"
            ),
            MdpError::RewardArity { state, action, found, expected } => write!(
                f,
                "reward vector at state {state}, action {action} has {found} components, expected {expected}"
            ),
            MdpError::Empty => write!(f, "model has no states"),
            MdpError::NoConvergence { solver, iterations, residual } => write!(
                f,
                "{solver} did not converge after {iterations} iterations (residual {residual:.3e})"
            ),
            MdpError::BadPolicy { state } => {
                write!(f, "policy is invalid at state {state}")
            }
            MdpError::UnboundedRatio { reached } => write!(
                f,
                "ratio objective appears unbounded (still positive at rho = {reached:.3e}); \
                 some policy has positive numerator rate with zero denominator rate"
            ),
            MdpError::ObjectiveArity { found, expected } => write!(
                f,
                "objective weight vector has {found} components, expected {expected}"
            ),
            MdpError::Shape { what, found, expected } => {
                write!(f, "{what} has length {found}, expected {expected}")
            }
            MdpError::BadOption { what, value } => {
                write!(f, "solver option {what} is out of range: {value}")
            }
            MdpError::DeadlineExceeded { solver, iterations, over_by_ms } => write!(
                f,
                "{solver} exceeded its wall-clock deadline after {iterations} iterations \
                 (observed {over_by_ms} ms past the deadline)"
            ),
            MdpError::Cancelled { solver, iterations } => {
                write!(f, "{solver} was cancelled after {iterations} iterations")
            }
            MdpError::UnreachableTarget { state } => write!(
                f,
                "target set is unreachable from state {state}; its expected hitting time is infinite"
            ),
        }
    }
}

impl std::error::Error for MdpError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_mentions_state_and_action() {
        let e = MdpError::BadProbabilitySum { state: 3, action: 1, sum: 0.5 };
        let s = e.to_string();
        assert!(s.contains("state 3"));
        assert!(s.contains("action 1"));
    }

    #[test]
    fn error_is_std_error() {
        fn takes_err(_: &dyn std::error::Error) {}
        takes_err(&MdpError::Empty);
    }

    #[test]
    fn no_convergence_displays_solver_name() {
        let e = MdpError::NoConvergence { solver: "rvi", iterations: 10, residual: 1.0 };
        assert!(e.to_string().contains("rvi"));
    }

    #[test]
    fn shape_and_option_errors_display_context() {
        let e = MdpError::Shape { what: "warm start", found: 3, expected: 7 };
        assert!(e.to_string().contains("warm start"));
        assert!(e.to_string().contains('7'));
        let e = MdpError::BadOption { what: "aperiodicity_tau", value: 1.5 };
        assert!(e.to_string().contains("aperiodicity_tau"));
    }

    #[test]
    fn retryability_classification() {
        assert!(
            MdpError::NoConvergence { solver: "x", iterations: 1, residual: 0.1 }.is_retryable()
        );
        assert!(!MdpError::Empty.is_retryable());
        assert!(!MdpError::DeadlineExceeded { solver: "x", iterations: 1, over_by_ms: 0 }
            .is_retryable());
        assert!(MdpError::Cancelled { solver: "x", iterations: 1 }.is_cancellation());
        assert!(!MdpError::Empty.is_cancellation());
    }
}
