//! The original Eyal–Sirer selfish-mining strategy (SM1) as a *fixed*
//! policy, with their closed-form revenue formula as an independent check
//! on this crate's MDP machinery.
//!
//! SM1 ("Majority is not Enough", FC 2014):
//!
//! * on finding a block, keep it private;
//! * when the honest network finds a block and the attacker's private lead
//!   was 1, publish immediately and race (match);
//! * when the lead was 2, publish everything (override);
//! * when the lead was larger, publish one block per honest block until the
//!   lead shrinks to 2, then override — in MDP terms: wait while the lead
//!   exceeds 2, override at lead 2 after an honest block;
//! * when behind, adopt.
//!
//! Eyal & Sirer give the closed-form relative revenue
//!
//! ```text
//!         α(1−α)²(4α + γ(1−2α)) − α³
//! R = ─────────────────────────────────
//!         1 − α(1 + (2−α)α)
//! ```
//!
//! Our fixed-policy evaluation of SM1 inside the Sapirshtein state space
//! must reproduce this formula exactly — a strong end-to-end test of the
//! state machine, the reward accounting, and the stationary-distribution
//! solver at once.

use bvc_mdp::solve::evaluate_policy;
use bvc_mdp::{MdpError, Policy};

use crate::model::{BitcoinModel, RA, ROTHERS};
use crate::state::{Fork, SmAction, SmState};

/// The Eyal–Sirer closed-form relative revenue of SM1.
pub fn closed_form_revenue(alpha: f64, gamma: f64) -> f64 {
    let a = alpha;
    let num = a * (1.0 - a) * (1.0 - a) * (4.0 * a + gamma * (1.0 - 2.0 * a)) - a.powi(3);
    let den = 1.0 - a * (1.0 + (2.0 - a) * a);
    num / den
}

/// The SM1 action in a given state.
pub fn sm1_action(s: &SmState) -> SmAction {
    match (s.a, s.h, s.fork) {
        // Behind: give up.
        (a, h, _) if h > a => SmAction::Adopt,
        // One block ahead with a live race or after honest catch-up:
        // publish everything (this includes winning the 0' race the moment
        // the attacker finds a block — Override outranks staying private).
        (a, h, _) if h > 0 && a == h + 1 => SmAction::Override,
        // Inside an active race with no decisive lead: keep mining.
        (_, _, Fork::Active) => SmAction::Wait,
        // Honest found a block against a one-block lead: race it.
        (a, h, Fork::Relevant) if a == h && a >= 1 => SmAction::Match,
        // Tied with no match possible (unreachable under SM1 play, but the
        // policy must be total):
        (a, h, _) if a == h && a >= 1 => SmAction::Adopt,
        // Otherwise keep the lead private.
        _ => SmAction::Wait,
    }
}

/// Materializes SM1 as a [`Policy`] over a built model, falling back to a
/// legal action when SM1's choice is unavailable (e.g. at the truncation
/// boundary, where `Wait` is withdrawn and SM1 overrides/adopts).
pub fn sm1_policy(model: &BitcoinModel) -> Policy {
    let mdp = model.mdp();
    let choices = (0..model.num_states())
        .map(|id| {
            // Truncation fallback: prefer Override, then Adopt.
            [sm1_action(&model.state(id)), SmAction::Override, SmAction::Adopt]
                .into_iter()
                .find_map(|want| mdp.action_with_label(id, want.label()))
                .expect("a legal action exists")
        })
        .collect();
    Policy { choices }
}

/// Evaluates SM1's relative revenue exactly on a built model.
pub fn sm1_relative_revenue(model: &BitcoinModel) -> Result<f64, MdpError> {
    let policy = sm1_policy(model);
    let ev = evaluate_policy(model.mdp(), &policy)?;
    let ra = ev.component_rates[RA];
    let ro = ev.component_rates[ROTHERS];
    Ok(ra / (ra + ro))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::BitcoinConfig;

    /// The MDP evaluation of SM1 reproduces the Eyal–Sirer closed form
    /// across a grid of α and γ.
    #[test]
    fn sm1_matches_closed_form() {
        for alpha in [0.1, 0.2, 0.25, 0.3, 0.35, 0.4] {
            for gamma in [0.0, 0.5, 1.0] {
                let model = BitcoinModel::build(BitcoinConfig {
                    cap: 60,
                    ..BitcoinConfig::selfish_mining(alpha, gamma)
                })
                .unwrap();
                let mdp_value = sm1_relative_revenue(&model).unwrap();
                let formula = closed_form_revenue(alpha, gamma);
                assert!(
                    (mdp_value - formula).abs() < 2e-3,
                    "alpha {alpha}, gamma {gamma}: MDP {mdp_value:.5} vs formula {formula:.5}"
                );
            }
        }
    }

    /// SM1 is profitable above the Eyal–Sirer threshold and unprofitable
    /// below it: R(α, γ) vs α crosses at (1−γ)/(3−2γ).
    #[test]
    fn closed_form_threshold() {
        for gamma in [0.0, 0.25, 0.5, 1.0] {
            let threshold = (1.0 - gamma) / (3.0 - 2.0 * gamma);
            if threshold > 0.02 {
                let below = closed_form_revenue(threshold - 0.02, gamma);
                assert!(below < threshold - 0.02 + 1e-9, "gamma {gamma}");
            }
            let above = closed_form_revenue(threshold + 0.02, gamma);
            assert!(above > threshold + 0.02, "gamma {gamma}");
        }
    }

    /// The optimal policy weakly dominates SM1 everywhere (Sapirshtein et
    /// al.'s headline point: SM1 is not optimal).
    #[test]
    fn optimal_dominates_sm1() {
        let model = BitcoinModel::build(BitcoinConfig::selfish_mining(0.35, 0.0)).unwrap();
        let sm1 = sm1_relative_revenue(&model).unwrap();
        let opt = model.optimal_relative_revenue(&crate::SolveOptions::default()).unwrap().value;
        assert!(opt >= sm1 - 1e-5, "optimal {opt} < SM1 {sm1}");
        // And strictly dominates at this parameter point.
        assert!(opt > sm1 + 1e-4, "optimal {opt} should strictly beat SM1 {sm1}");
    }

    #[test]
    fn sm1_action_table_spot_checks() {
        use Fork::*;
        let s = |a, h, fork| SmState { a, h, fork };
        assert_eq!(sm1_action(&s(0, 1, Relevant)), SmAction::Adopt);
        assert_eq!(sm1_action(&s(1, 1, Relevant)), SmAction::Match);
        assert_eq!(sm1_action(&s(2, 1, Relevant)), SmAction::Override);
        assert_eq!(sm1_action(&s(3, 1, Relevant)), SmAction::Wait);
        assert_eq!(sm1_action(&s(3, 2, Relevant)), SmAction::Override);
        assert_eq!(sm1_action(&s(1, 0, Irrelevant)), SmAction::Wait);
        assert_eq!(sm1_action(&s(2, 2, Active)), SmAction::Wait);
        assert_eq!(sm1_action(&s(2, 1, Active)), SmAction::Override);
    }
}
