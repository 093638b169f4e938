//! High-level solving API for the Bitcoin baselines.

use bvc_mdp::solve::{
    evaluate_policy, maximize_ratio, relative_value_iteration, OptimalStrategy, SolveOptions,
};
use bvc_mdp::{MdpError, Objective, Policy};

use crate::model::{BitcoinModel, COMPONENTS, DS, RA, ROTHERS};
use crate::state::SmAction;

fn u1_numerator() -> Objective {
    Objective::component(RA, COMPONENTS)
}

fn u1_denominator() -> Objective {
    let mut w = vec![0.0; COMPONENTS];
    w[RA] = 1.0;
    w[ROTHERS] = 1.0;
    Objective::new(w)
}

fn u2_objective() -> Objective {
    let mut w = vec![0.0; COMPONENTS];
    w[RA] = 1.0;
    w[DS] = 1.0;
    Objective::new(w)
}

impl BitcoinModel {
    /// Optimal *relative revenue* (selfish mining): the largest achievable
    /// `ΣR_A / (ΣR_A + ΣR_others)`. Honest mining yields exactly α.
    pub fn optimal_relative_revenue(
        &self,
        opts: &SolveOptions,
    ) -> Result<OptimalStrategy, MdpError> {
        opts.audit_gate(self.mdp())?;
        let sol =
            maximize_ratio(self.mdp(), &u1_numerator(), &u1_denominator(), &opts.ratio_options())?;
        Ok(sol.into())
    }

    /// Optimal *absolute revenue per block* for the combined selfish-mining
    /// plus double-spending attack (Table 3, bottom panel): the long-run
    /// average of `R_A + R_DS` per block mined in the network.
    pub fn optimal_absolute_revenue(
        &self,
        opts: &SolveOptions,
    ) -> Result<OptimalStrategy, MdpError> {
        opts.audit_gate(self.mdp())?;
        let sol = relative_value_iteration(self.mdp(), &u2_objective(), &opts.rvi_options())?;
        Ok(sol.into())
    }

    /// Evaluates a fixed policy: returns `(u1, u2, component rates)`.
    pub fn evaluate(&self, policy: &Policy) -> Result<(f64, f64, Vec<f64>), MdpError> {
        let ev = evaluate_policy(self.mdp(), policy)?;
        let u1 = ev.ratio(&u1_numerator().weights, &u1_denominator().weights);
        let u2 = ev.rate(&u2_objective().weights);
        Ok((u1, u2, ev.component_rates))
    }

    /// The honest policy: adopt whenever the honest chain leads, override
    /// (publish) as soon as a block is found — i.e. never withhold. In this
    /// state space honest behaviour is: at `h ≥ 1, a = 0` adopt; at `a = 1,
    /// h = 0` override is unavailable (no race), so honest behaviour is
    /// simply "publish immediately", which the model expresses as
    /// overriding/adopting at the first opportunity.
    pub fn honest_policy(&self) -> Policy {
        let mut p = Policy::zeros(self.num_states());
        for (id, arms) in self.mdp().iter_states() {
            let s = self.state(id);
            // Prefer Override when strictly ahead (publishes everything),
            // Adopt when behind or tied with the honest chain, Wait only at
            // the start state.
            let want = if s.a > s.h {
                SmAction::Override
            } else if s.h >= 1 {
                SmAction::Adopt
            } else {
                SmAction::Wait
            };
            p.choices[id] = arms
                .iter()
                .position(|arm| arm.label == want.label())
                .expect("honest action available");
        }
        p
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::BitcoinConfig;

    fn build(alpha: f64, gamma: f64, cap: u8) -> BitcoinModel {
        BitcoinModel::build(BitcoinConfig { cap, ..BitcoinConfig::selfish_mining(alpha, gamma) })
            .unwrap()
    }

    #[test]
    fn honest_policy_is_fair() {
        let m = build(0.3, 0.5, 12);
        let (u1, u2, rates) = m.evaluate(&m.honest_policy()).unwrap();
        assert!((u1 - 0.3).abs() < 1e-6, "u1 = {u1}");
        assert!((u2 - 0.3).abs() < 1e-6, "u2 = {u2}");
        assert!(rates[crate::model::OA].abs() < 1e-9);
    }

    /// Below Eyal–Sirer's 1/4 threshold with γ = 0, selfish mining cannot
    /// beat honest mining.
    #[test]
    fn selfish_mining_unprofitable_below_quarter_gamma0() {
        let m = build(0.24, 0.0, 20);
        let sol = m.optimal_relative_revenue(&SolveOptions::default()).unwrap();
        assert!((sol.value - 0.24).abs() < 5e-4, "got {}", sol.value);
    }

    /// At α = 1/3 + ε with γ = 0, selfish mining beats honest mining
    /// (Sapirshtein et al. put the γ = 0 threshold at ≈ 0.3294).
    #[test]
    fn selfish_mining_profitable_at_035_gamma0() {
        let m = build(0.35, 0.0, 30);
        let sol = m.optimal_relative_revenue(&SolveOptions::default()).unwrap();
        assert!(sol.value > 0.3501, "got {}", sol.value);
    }

    /// Sapirshtein et al. report optimal relative revenue ≈ 0.48863 for
    /// α = 0.4, γ = 0 (their Table 2). Truncation at cap = 40 reproduces it
    /// to three decimals.
    #[test]
    fn sapirshtein_value_alpha04_gamma0() {
        let m = build(0.4, 0.0, 40);
        let sol = m.optimal_relative_revenue(&SolveOptions::default()).unwrap();
        assert!((sol.value - 0.48863).abs() < 2e-3, "got {}", sol.value);
    }

    /// With γ = 1 selfish mining is profitable for any α: check α = 0.1.
    #[test]
    fn gamma1_profitable_at_small_alpha() {
        let m = build(0.1, 1.0, 20);
        let sol = m.optimal_relative_revenue(&SolveOptions::default()).unwrap();
        assert!(sol.value > 0.1001, "got {}", sol.value);
    }

    /// Table 3 bottom panel, (α = 25%, P(win tie) = 50%): expected 0.38.
    #[test]
    fn table3_bitcoin_alpha25_gamma05() {
        let m = BitcoinModel::build(BitcoinConfig::smds(0.25, 0.5)).unwrap();
        let sol = m.optimal_absolute_revenue(&SolveOptions::default()).unwrap();
        assert!((sol.value - 0.38).abs() < 2e-2, "expected ≈ 0.38, got {:.3}", sol.value);
    }

    /// Table 3 bottom panel, (α = 10%, P(win tie) = 50%): expected 0.1 —
    /// the honest rate; double-spending is not profitable.
    #[test]
    fn table3_bitcoin_alpha10_gamma05_honest() {
        let m = BitcoinModel::build(BitcoinConfig::smds(0.10, 0.5)).unwrap();
        let sol = m.optimal_absolute_revenue(&SolveOptions::default()).unwrap();
        assert!((sol.value - 0.10).abs() < 5e-3, "expected ≈ 0.10, got {:.3}", sol.value);
    }

    /// Every Bitcoin action includes the next block's discovery, so no step
    /// returns to the start state (state 0) and every cycle avoids it: the
    /// `u2` gain solve runs the RVI kernel, unlike the regenerative BU
    /// models (`bvc-bu`'s test of the same name).
    #[test]
    fn u2_engine_follows_the_model_structure() {
        let m = BitcoinModel::build(BitcoinConfig::smds(0.25, 0.5)).unwrap();
        let sol = m.optimal_absolute_revenue(&SolveOptions::default()).unwrap();
        assert_eq!(sol.engine, bvc_mdp::solve::ProbeEngine::Rvi);
        assert_eq!(sol.inner_solves, 1);
    }
}
