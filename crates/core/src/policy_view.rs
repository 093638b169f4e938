//! Inspection of computed attack policies.
//!
//! The paper reasons qualitatively about the optimal strategies ("a close
//! examination of the optimal strategies in Sect. 4.2 shows that Alice
//! mines with the stronger miner group unless the other group has a large
//! lead", §5.1.2). This module turns a [`bvc_mdp::Policy`] back into that
//! kind of statement: per-state action maps, per-phase summaries, and the
//! side-preference statistics the §5.1.2 claim is about.

use bvc_mdp::{Policy, PolicyTable, PolicyTableError};

use crate::model::AttackModel;
use crate::state::{Action, AttackState};

/// The action a policy takes in one state.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StateAction {
    /// The state.
    pub state: AttackState,
    /// The chosen action.
    pub action: Action,
}

/// Aggregate description of a policy over the attack state space.
#[derive(Debug, Clone)]
pub struct PolicySummary {
    /// The action taken at the phase-1 base state: `OnChain2` means the
    /// policy initiates forks.
    pub base_action: Action,
    /// Fork states where the policy mines on Chain 1 (Bob's side in
    /// phase 1).
    pub on_chain1: usize,
    /// Fork states where the policy mines on Chain 2.
    pub on_chain2: usize,
    /// Fork states where the policy waits.
    pub waits: usize,
    /// Among phase-1 fork states, those where the policy mines with the
    /// *stronger* side, counting Alice's own contribution — Chain 2 when
    /// `α + γ > β` (the Table-2 profitability condition), Chain 1 when
    /// `α + β > γ`.
    pub with_stronger_group: usize,
    /// Total phase-1 fork states considered for the side statistic.
    pub phase1_fork_states: usize,
}

/// Extracts `(state, action)` pairs for every reachable state.
pub fn state_actions(model: &AttackModel, policy: &Policy) -> Vec<StateAction> {
    model
        .mdp()
        .iter_states()
        .map(|(id, _)| StateAction {
            state: model.state(id),
            action: Action::from_label(policy.label(model.mdp(), id)),
        })
        .collect()
}

/// Exports `policy` as a serializable [`PolicyTable`] keyed by each attack
/// state's display form `"(l1, l2, a1, a2, r)"`.
///
/// The display form is injective over the state space (it prints the full
/// 5-tuple), so the only possible errors are structural and indicate a bug
/// in the model's state enumeration. Consumers look actions up with
/// `table.action_of(&state.to_string())` and decode the label through
/// [`Action::from_label`]; the table's canonical text form
/// ([`PolicyTable::encode`]) is what the simulator and `/v1/policy`
/// transport across process boundaries.
pub fn policy_table(model: &AttackModel, policy: &Policy) -> Result<PolicyTable, PolicyTableError> {
    PolicyTable::from_policy(model.mdp(), policy, |id| model.state(id).to_string())
}

/// Summarizes a policy; see [`PolicySummary`].
pub fn summarize(model: &AttackModel, policy: &Policy) -> PolicySummary {
    let cfg = model.config();
    // The side Alice joins gains her power: Chain 2's effective strength
    // is alpha + gamma when she mines there, Chain 1's is alpha + beta.
    let stronger_is_chain2 = cfg.alpha + cfg.gamma > cfg.beta;
    let mut summary = PolicySummary {
        base_action: Action::OnChain1,
        on_chain1: 0,
        on_chain2: 0,
        waits: 0,
        with_stronger_group: 0,
        phase1_fork_states: 0,
    };
    for sa in state_actions(model, policy) {
        if sa.state == AttackState::BASE {
            summary.base_action = sa.action;
        }
        if !sa.state.forked() {
            continue;
        }
        match sa.action {
            Action::OnChain1 => summary.on_chain1 += 1,
            Action::OnChain2 => summary.on_chain2 += 1,
            Action::Wait => summary.waits += 1,
        }
        if !sa.state.phase2() {
            summary.phase1_fork_states += 1;
            let with_chain2 = sa.action == Action::OnChain2;
            if with_chain2 == stronger_is_chain2 && sa.action != Action::Wait {
                summary.with_stronger_group += 1;
            }
        }
    }
    summary
}

/// Renders the phase-1 action map as a compact text grid: rows are
/// `(l1, l2)`, entries list the action per `(a1, a2)` in enumeration order
/// (`1` = OnChain1, `2` = OnChain2, `w` = Wait).
pub fn render_phase1_map(model: &AttackModel, policy: &Policy) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let mut entries = state_actions(model, policy);
    entries.retain(|sa| sa.state.forked() && !sa.state.phase2());
    entries.sort_by_key(|sa| (sa.state.l1, sa.state.l2, sa.state.a1, sa.state.a2));
    let mut current = (u8::MAX, u8::MAX);
    for sa in entries {
        let key = (sa.state.l1, sa.state.l2);
        if key != current {
            if current != (u8::MAX, u8::MAX) {
                let _ = writeln!(out);
            }
            let _ = write!(out, "l1={} l2={}: ", key.0, key.1);
            current = key;
        }
        let c = match sa.action {
            Action::OnChain1 => '1',
            Action::OnChain2 => '2',
            Action::Wait => 'w',
        };
        let _ = write!(out, "{c}");
    }
    let _ = writeln!(out);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{AttackConfig, IncentiveModel, Setting};
    use crate::SolveOptions;

    fn model(alpha: f64, ratio: (u32, u32)) -> AttackModel {
        AttackModel::build(AttackConfig::with_ratio(
            alpha,
            ratio,
            Setting::One,
            IncentiveModel::CompliantProfitDriven,
        ))
        .unwrap()
    }

    /// The action table of a *solved* cell round-trips through the text
    /// encoding and agrees with the raw policy state-by-state.
    #[test]
    fn policy_table_roundtrips_solved_cell() {
        let m = model(0.25, (1, 1));
        let sol = m.optimal_relative_revenue(&SolveOptions::default()).unwrap();
        let table = policy_table(&m, &sol.policy).unwrap();
        assert_eq!(table.len(), m.num_states());
        let back = PolicyTable::decode(&table.encode()).unwrap();
        assert_eq!(back, table);
        for (id, _) in m.mdp().iter_states() {
            let state = m.state(id);
            let expect = sol.policy.label(m.mdp(), id);
            assert_eq!(
                back.action_of(&state.to_string()),
                Some(expect),
                "table disagrees with policy at {state}"
            );
            // And the label decodes to a domain action.
            let _ = Action::from_label(expect);
        }
    }

    #[test]
    fn honest_policy_summary_is_all_chain1() {
        let m = model(0.2, (1, 1));
        let s = summarize(&m, &m.honest_policy());
        assert_eq!(s.base_action, Action::OnChain1);
        assert_eq!(s.on_chain2, 0);
        assert_eq!(s.waits, 0);
        assert!(s.on_chain1 > 0);
    }

    /// The profitable optimal policy initiates forks at the base state.
    #[test]
    fn profitable_policy_forks_at_base() {
        let m = model(0.25, (1, 1));
        let sol = m.optimal_relative_revenue(&SolveOptions::default()).unwrap();
        let s = summarize(&m, &sol.policy);
        assert_eq!(s.base_action, Action::OnChain2);
        assert!(s.on_chain2 > 0);
    }

    /// §5.1.2's claim: in the compliant optimum, Alice mines with the
    /// stronger group in the (large) majority of fork states.
    #[test]
    fn alice_mines_with_the_stronger_group() {
        for ratio in [(1, 2), (2, 3)] {
            let m = model(0.25, ratio);
            let sol = m.optimal_relative_revenue(&SolveOptions::default()).unwrap();
            let s = summarize(&m, &sol.policy);
            assert!(s.phase1_fork_states > 0);
            let frac = s.with_stronger_group as f64 / s.phase1_fork_states as f64;
            assert!(
                frac > 0.5,
                "ratio {ratio:?}: only {frac:.2} of fork states side with the stronger group"
            );
        }
    }

    #[test]
    fn phase1_map_renders_all_fork_states() {
        let m = model(0.25, (1, 1));
        let sol = m.optimal_relative_revenue(&SolveOptions::default()).unwrap();
        let map = render_phase1_map(&m, &sol.policy);
        assert!(map.contains("l1=0 l2=1"));
        assert!(map.contains('2'), "a profitable policy shows OnChain2 somewhere");
        // Every fork state appears exactly once: count action characters
        // after each row's "label: " prefix.
        let cells: usize = map
            .lines()
            .filter_map(|line| line.split(": ").nth(1))
            .map(|actions| actions.chars().filter(|c| matches!(c, '1' | '2' | 'w')).count())
            .sum();
        let fork_states =
            state_actions(&m, &sol.policy).iter().filter(|sa| sa.state.forked()).count();
        assert_eq!(cells, fork_states);
    }
}
