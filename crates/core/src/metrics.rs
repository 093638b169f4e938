//! Episode-level metrics of attack policies, beyond long-run averages:
//! fork-depth distributions and sticky-gate trigger spacing, computed
//! exactly from the policy-induced Markov chain via hitting analysis.
//!
//! These answer the §6.2 trade-off questions quantitatively: *"how often
//! does the attacker open a victim's sticky gate?"* (the giant-block
//! exposure of a small `AD`) and *"how deep do forks get?"* (the
//! double-spend exposure of a large `AD`).

use std::collections::HashSet;

use bvc_mdp::solve::{expected_hitting_time, hitting_probability};
use bvc_mdp::{MdpError, Policy};

use crate::model::AttackModel;
use crate::state::AttackState;

impl AttackModel {
    /// The probability that a fork, once started, reaches Chain-2 length
    /// `depth` before resolving — the chance a double-spend window of that
    /// depth opens per fork attempt. Computed from the fork-start state
    /// `(0, 1, 0, 1, r)` (phase 1) under `policy`.
    ///
    /// Returns 0 when the policy never forks (the fork-start state may
    /// still exist; the probability is conditional on reaching it).
    pub fn fork_depth_probability(&self, policy: &Policy, depth: u8) -> Result<f64, MdpError> {
        let start = AttackState { l1: 0, l2: 1, a1: 0, a2: 1, r: 0 };
        let Some(start_id) = self.id_of(&start) else {
            return Ok(0.0);
        };
        let mut targets = HashSet::new();
        let mut avoid = HashSet::new();
        for id in 0..self.num_states() {
            let s = self.state(id);
            if s.forked() && s.l2 >= depth {
                targets.insert(id);
            } else if !s.forked() {
                // Any base state (either phase) means the race resolved.
                avoid.insert(id);
            }
        }
        if targets.is_empty() {
            return Ok(0.0);
        }
        let p = hitting_probability(self.mdp(), policy, &targets, &avoid)?;
        Ok(p[start_id])
    }

    /// Expected number of blocks from the phase-1 base state until Bob's
    /// sticky gate first opens (the system enters phase 2) under `policy`.
    /// Only meaningful for setting-2 models; returns `None` when no
    /// phase-2 state is reachable or the policy never triggers the gate.
    pub fn expected_blocks_to_gate_trigger(
        &self,
        policy: &Policy,
    ) -> Result<Option<f64>, MdpError> {
        let base = self.id_of(&AttackState::BASE).expect("base is reachable");
        let targets: HashSet<_> =
            (0..self.num_states()).filter(|&id| self.state(id).phase2()).collect();
        if targets.is_empty() {
            return Ok(None);
        }
        // The hitting-time solver requires global reachability of the
        // target; under policies that never fork it is unreachable, so
        // check first via the probability solver (with an empty avoid set,
        // absorbing probabilities are 1 exactly on states that can reach
        // the target).
        let reach = hitting_probability(self.mdp(), policy, &targets, &HashSet::new())?;
        if reach[base] < 1.0 - 1e-6 {
            return Ok(None);
        }
        let h = expected_hitting_time(self.mdp(), policy, &targets)?;
        Ok(Some(h[base]))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{AttackConfig, IncentiveModel, Setting};
    use crate::SolveOptions;

    fn build(setting: Setting) -> AttackModel {
        let mut cfg = AttackConfig::with_ratio(
            0.10,
            (1, 1),
            setting,
            IncentiveModel::non_compliant_default(),
        );
        cfg.gate_blocks = 24;
        AttackModel::build(cfg).unwrap()
    }

    #[test]
    fn fork_depth_probabilities_decrease_with_depth() {
        let m = build(Setting::One);
        let sol = m.optimal_absolute_revenue(&SolveOptions::default()).unwrap();
        let mut last = 1.0;
        for depth in 2..=5u8 {
            let p = m.fork_depth_probability(&sol.policy, depth).unwrap();
            assert!(p <= last + 1e-12, "depth {depth}: {p} > {last}");
            assert!(p > 0.0, "depth {depth} reachable under the optimal policy");
            last = p;
        }
        // Depth 1 is certain (the fork-start state itself).
        let p1 = m.fork_depth_probability(&sol.policy, 1).unwrap();
        assert!((p1 - 1.0).abs() < 1e-9);
    }

    #[test]
    fn honest_policy_never_triggers_gate() {
        let m = build(Setting::Two);
        let honest = m.honest_policy();
        assert_eq!(m.expected_blocks_to_gate_trigger(&honest).unwrap(), None);
    }

    #[test]
    fn optimal_policy_gate_trigger_time_is_finite() {
        let m = build(Setting::Two);
        let sol = m.optimal_absolute_revenue(&SolveOptions::default()).unwrap();
        let t = m
            .expected_blocks_to_gate_trigger(&sol.policy)
            .unwrap()
            .expect("the optimal policy forks, so the gate eventually triggers");
        // Triggering needs at least AD blocks; and it should happen within
        // a few hundred blocks at alpha = 10%, 1:1.
        assert!(t >= 6.0, "t = {t}");
        assert!(t < 10_000.0, "t = {t}");
    }

    #[test]
    fn setting1_has_no_gate_states() {
        let m = build(Setting::One);
        let sol = m.optimal_absolute_revenue(&SolveOptions::default()).unwrap();
        assert_eq!(m.expected_blocks_to_gate_trigger(&sol.policy).unwrap(), None);
    }
}
