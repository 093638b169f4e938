//! Property-based tests for the MDP solvers on randomly generated models.
//!
//! Random models are small (≤ 8 states) but fully stochastic and strongly
//! connected by construction (every action keeps a minimum probability of
//! jumping to state 0), which guarantees the unichain assumption the
//! average-reward solvers rely on.
//!
//! The average-reward solves (gain solves and the ratio solver's probes)
//! pick their engine from the model's structure: exact renewal passes when
//! state 0 is a regeneration state, RVI otherwise. Tests that pin one engine
//! draw from a generator that guarantees its structure:
//! [`random_cyclic_model`] (a cycle avoids state 0: RVI) or
//! [`RandomModel::build_regenerative`] (no such cycle: renewal). The RVI
//! kernel's own tests all draw from [`random_cyclic_model`].

use bvc_mdp::solve::{
    evaluate_policy, maximize_ratio, relative_value_iteration, ProbeEngine, RatioOptions,
    RviOptions,
};
use bvc_mdp::{CompiledMdp, Mdp, Objective, Transition};
use proptest::prelude::*;

/// Raw (target, weight, reward) transition triples of one action; weights
/// are normalized into probabilities at build time.
type RawAction = Vec<(usize, u32, [i32; 2])>;

/// A declarative description of a random model that proptest can shrink.
#[derive(Debug, Clone)]
struct RandomModel {
    n_states: usize,
    /// Per state: a list of actions.
    actions: Vec<Vec<RawAction>>,
}

impl RandomModel {
    fn build(&self) -> CompiledMdp {
        let mut m = Mdp::new(2);
        for _ in 0..self.n_states {
            m.add_state();
        }
        for (s, arms) in self.actions.iter().enumerate() {
            for (label, raw) in arms.iter().enumerate() {
                // Always include a recurrence anchor to state 0 so the chain
                // is unichain regardless of the sampled structure.
                let mut total: f64 = raw.iter().map(|(_, w, _)| *w as f64).sum();
                total += 1.0; // anchor weight
                let mut transitions: Vec<Transition> = raw
                    .iter()
                    .map(|(t, w, r)| {
                        Transition::new(
                            t % self.n_states,
                            *w as f64 / total,
                            vec![f64::from(r[0]) / 8.0, f64::from(r[1].abs()) / 8.0],
                        )
                    })
                    .collect();
                transitions.push(Transition::new(0, 1.0 / total, vec![0.0, 0.0]));
                m.add_action(s, label, transitions);
            }
        }
        CompiledMdp::compile(&m).expect("random models are well-formed")
    }
}

fn random_model() -> impl Strategy<Value = RandomModel> {
    (2usize..6).prop_flat_map(|n| {
        let arm = proptest::collection::vec(
            (0usize..n, 1u32..10, (-8i32..8, 0i32..8).prop_map(|(a, b)| [a, b])),
            1..4,
        );
        let arms = proptest::collection::vec(arm, 1..3);
        proptest::collection::vec(arms, n)
            .prop_map(move |actions| RandomModel { n_states: n, actions })
    })
}

/// [`random_model`] with a self-loop added to the first arm of state 1, so
/// some cycle always avoids state 0 and the ratio solver probes by RVI.
fn random_cyclic_model() -> impl Strategy<Value = RandomModel> {
    random_model().prop_map(|mut model| {
        model.actions[1][0].push((1, 1, [0, 0]));
        model
    })
}

/// The smallest per-step denominator reward of
/// [`RandomModel::build_regenerative`].
const REGEN_MIN_DEN: f64 = 0.5;

impl RandomModel {
    /// The model with state 0 as a regeneration state: each sampled
    /// transition is redirected to a higher-numbered state (the last state's
    /// to state 0), next to the usual anchor to state 0. Rewards fit the
    /// ratio solver's contract: the numerator is nonnegative and every step
    /// pays at least [`REGEN_MIN_DEN`] to the denominator, so every policy's
    /// ratio is finite and the crossing level's offset stays below the
    /// tolerance.
    fn build_regenerative(&self) -> CompiledMdp {
        let n = self.n_states;
        let mut m = Mdp::new(2);
        for _ in 0..n {
            m.add_state();
        }
        for (s, arms) in self.actions.iter().enumerate() {
            for (label, raw) in arms.iter().enumerate() {
                let total: f64 = raw.iter().map(|(_, w, _)| *w as f64).sum::<f64>() + 1.0;
                let mut transitions: Vec<Transition> = raw
                    .iter()
                    .map(|(t, w, r)| {
                        let to = if s + 1 < n { s + 1 + t % (n - s - 1) } else { 0 };
                        Transition::new(
                            to,
                            *w as f64 / total,
                            vec![
                                f64::from(r[0].abs()) / 8.0,
                                REGEN_MIN_DEN + f64::from(r[1]) / 8.0,
                            ],
                        )
                    })
                    .collect();
                transitions.push(Transition::new(0, 1.0 / total, vec![0.0, REGEN_MIN_DEN]));
                m.add_action(s, label, transitions);
            }
        }
        CompiledMdp::compile(&m).expect("random models are well-formed")
    }
}

/// The exact expected totals `[N, D, steps]` of `policy` over one cycle
/// from state 0 back to it on a [`RandomModel::build_regenerative`] model:
/// one pass from the highest state down, since every transition goes up or
/// back to 0.
fn cycle_totals(m: &CompiledMdp, policy: &bvc_mdp::Policy) -> [f64; 3] {
    let n = m.num_states();
    let mut totals = vec![[0.0; 3]; n];
    for s in (0..n).rev() {
        let mut acc = [0.0; 3];
        for (to, prob, reward) in m.transitions(m.policy_arm(policy, s)) {
            let next = if to == 0 { [0.0; 3] } else { totals[to] };
            for (k, step) in [reward[0], reward[1], 1.0].into_iter().enumerate() {
                acc[k] += prob * (step + next[k]);
            }
        }
        totals[s] = acc;
    }
    totals[0]
}

/// The exact cycle ratio `E[cycle N] / E[cycle D]` of `policy`.
fn cycle_ratio(m: &CompiledMdp, policy: &bvc_mdp::Policy) -> f64 {
    let [num, den, _] = cycle_totals(m, policy);
    num / den
}

/// The exact gain of `policy` under `obj`: its cycle reward over its cycle
/// length.
fn cycle_gain(m: &CompiledMdp, policy: &bvc_mdp::Policy, obj: &Objective) -> f64 {
    let [num, den, steps] = cycle_totals(m, policy);
    (obj.weights[0] * num + obj.weights[1] * den) / steps
}

/// Every deterministic stationary policy of `m`, by mixed-radix counting
/// from the all-zeros policy.
fn all_policies(m: &CompiledMdp) -> Vec<bvc_mdp::Policy> {
    let n = m.num_states();
    let radices: Vec<usize> = (0..n).map(|s| m.num_arms_of(s)).collect();
    let mut policy = bvc_mdp::Policy::zeros(n);
    let mut all = Vec::new();
    loop {
        all.push(policy.clone());
        // Increment; stop after wrap-around.
        let mut carry = true;
        for (choice, &radix) in policy.choices.iter_mut().zip(&radices) {
            *choice += 1;
            if *choice == radix {
                *choice = 0;
            } else {
                carry = false;
                break;
            }
        }
        if carry {
            return all;
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The gain reported by RVI equals the exact long-run rate of the policy
    /// it returns — i.e. the solver's certificate is self-consistent.
    #[test]
    fn rvi_gain_matches_policy_evaluation(model in random_cyclic_model()) {
        let m = model.build();
        let obj = Objective::new(vec![1.0, 0.5]);
        let sol = relative_value_iteration(&m, &obj, &RviOptions::default()).unwrap();
        let ev = evaluate_policy(&m, &sol.policy).unwrap();
        prop_assert!((ev.rate(&obj.weights) - sol.gain).abs() < 1e-5,
            "gain {} vs evaluated {}", sol.gain, ev.rate(&obj.weights));
    }

    /// RVI's policy is at least as good as every deterministic stationary
    /// policy (≤ 5 states with ≤ 2 arms: at most 32, all enumerated). With
    /// `rvi_gain_matches_policy_evaluation` this shows RVI's gain is the best
    /// policy's rate.
    #[test]
    fn rvi_dominates_enumerated_policies(model in random_cyclic_model()) {
        let m = model.build();
        let obj = Objective::new(vec![1.0, 0.0]);
        let sol = relative_value_iteration(&m, &obj, &RviOptions::default()).unwrap();
        let policies = all_policies(&m);
        let count: usize = (0..m.num_states()).map(|s| m.num_arms_of(s)).product();
        prop_assert_eq!(policies.len(), count);
        for policy in &policies {
            let ev = evaluate_policy(&m, policy).unwrap();
            prop_assert!(ev.rate(&obj.weights) <= sol.gain + 1e-5,
                "policy {:?} beats optimal: {} > {}", policy.choices,
                ev.rate(&obj.weights), sol.gain);
        }
    }

    /// The ratio solver's reported value matches the exact ratio of the
    /// policy it returns, and no enumerated policy achieves a better ratio.
    #[test]
    fn ratio_solution_is_consistent_and_dominant(model in random_model()) {
        let m = model.build();
        let num = Objective::component(0, 2);
        // Denominator: strictly positive per step so ratios are well-defined.
        let den = Objective::new(vec![0.0, 1.0]);
        // Shift denominator rewards to be >= 1/8 per step by adding a constant:
        // instead, skip models where some action has zero denominator rate.
        let sol = maximize_ratio(&m, &num, &den, &RatioOptions::default());
        let sol = match sol { Ok(s) => s, Err(_) => return Ok(()) };
        let ev = evaluate_policy(&m, &sol.policy).unwrap();
        let n_rate = ev.rate(&num.weights);
        let d_rate = ev.rate(&den.weights);
        if d_rate > 1e-6 && n_rate > 1e-6 {
            prop_assert!((n_rate / d_rate - sol.value).abs() < 1e-3,
                "reported {} vs evaluated {}", sol.value, n_rate / d_rate);
        }
        // Dominance over the all-zeros policy.
        let ev0 = evaluate_policy(&m, &bvc_mdp::Policy::zeros(m.num_states())).unwrap();
        let r0 = ev0.ratio(&num.weights, &den.weights);
        prop_assert!(r0 <= sol.value + 1e-3, "baseline ratio {} > optimal {}", r0, sol.value);
    }

    /// Stationary distributions are probability vectors.
    #[test]
    fn stationary_distribution_is_normalized(model in random_model()) {
        let m = model.build();
        let ev = evaluate_policy(&m, &bvc_mdp::Policy::zeros(m.num_states())).unwrap();
        let sum: f64 = ev.stationary.iter().sum();
        prop_assert!((sum - 1.0).abs() < 1e-9);
        prop_assert!(ev.stationary.iter().all(|&p| p >= -1e-12));
    }
}

// ---------------------------------------------------------------------------
// Differential tests: the production solvers against the plain reference
// implementations (`bvc_mdp::solve::reference`), which read the same CSR
// model. The two paths run the same algorithms with the same warm-start and
// tie-breaking rules — only the kernels differ — so agreement is expected
// to near machine precision, far tighter than the solver tolerances
// themselves. The `*_matches_nested` test names date from when the
// reference solvers read the nested builder layout.
// ---------------------------------------------------------------------------

use bvc_mdp::solve::reference::{
    evaluate_policy_reference, maximize_ratio_reference, relative_value_iteration_reference,
};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Production RVI and reference RVI return the same gain, bias and
    /// policy.
    #[test]
    fn compiled_rvi_matches_nested(model in random_cyclic_model()) {
        let m = model.build();
        let obj = Objective::new(vec![1.0, 0.5]);
        let opts = RviOptions::default();
        let fast = relative_value_iteration(&m, &obj, &opts).unwrap();
        let slow = relative_value_iteration_reference(&m, &obj, &opts).unwrap();
        prop_assert_eq!(fast.engine, ProbeEngine::Rvi);
        prop_assert!((fast.gain - slow.gain).abs() < 1e-9,
            "gain: compiled {} vs reference {}", fast.gain, slow.gain);
        prop_assert_eq!(&fast.policy.choices, &slow.policy.choices);
        for (a, b) in fast.bias.iter().zip(&slow.bias) {
            prop_assert!((a - b).abs() < 1e-9, "bias: compiled {} vs reference {}", a, b);
        }
    }

    /// Production and reference fixed-policy evaluation agree on the stationary
    /// distribution and every component rate.
    #[test]
    fn compiled_eval_matches_nested(model in random_model()) {
        let m = model.build();
        let policy = bvc_mdp::Policy::zeros(m.num_states());
        let fast = evaluate_policy(&m, &policy).unwrap();
        let slow = evaluate_policy_reference(&m, &policy).unwrap();
        for (a, b) in fast.stationary.iter().zip(&slow.stationary) {
            prop_assert!((a - b).abs() < 1e-9, "stationary: {} vs {}", a, b);
        }
        for (a, b) in fast.component_rates.iter().zip(&slow.component_rates) {
            prop_assert!((a - b).abs() < 1e-9, "rate: {} vs {}", a, b);
        }
    }

    /// The sharded Bellman kernel is BIT-identical to the single-threaded
    /// kernel for every thread count: same gain bits, same bias bits, same
    /// policy. `shard_min_states: 1` forces sharding even on these tiny
    /// models, so shard boundaries land mid-model and thread counts exceed
    /// the state count (7 threads on ≤ 6 states) — the edge cases a real
    /// sweep never exercises.
    #[test]
    fn sharded_rvi_bit_identical_across_thread_counts(model in random_cyclic_model()) {
        let m = model.build();
        let obj = Objective::new(vec![1.0, 0.5]);
        let base = relative_value_iteration(&m, &obj, &RviOptions::default()).unwrap();
        prop_assert_eq!(base.engine, ProbeEngine::Rvi);
        for threads in [2usize, 4, 7] {
            let opts =
                RviOptions { solve_threads: threads, shard_min_states: 1, ..Default::default() };
            let sharded = relative_value_iteration(&m, &obj, &opts).unwrap();
            prop_assert_eq!(sharded.gain.to_bits(), base.gain.to_bits(),
                "gain bits diverge at {} threads: {} vs {}", threads, sharded.gain, base.gain);
            prop_assert_eq!(&sharded.policy.choices, &base.policy.choices,
                "policy diverges at {} threads", threads);
            prop_assert_eq!(sharded.iterations, base.iterations,
                "iteration count diverges at {} threads", threads);
            for (s, (a, b)) in sharded.bias.iter().zip(&base.bias).enumerate() {
                prop_assert_eq!(a.to_bits(), b.to_bits(),
                    "bias[{}] bits diverge at {} threads: {} vs {}", s, threads, a, b);
            }
        }
    }

    /// The threaded kernel agrees with the reference solver
    /// to 1e-9 — the same bound the single-threaded differential test
    /// enforces, so sharding adds no numeric drift against the reference.
    #[test]
    fn threaded_rvi_matches_reference(model in random_cyclic_model()) {
        let m = model.build();
        let obj = Objective::new(vec![1.0, 0.5]);
        let opts = RviOptions { solve_threads: 4, shard_min_states: 1, ..Default::default() };
        let fast = relative_value_iteration(&m, &obj, &opts).unwrap();
        let slow = relative_value_iteration_reference(&m, &obj, &RviOptions::default()).unwrap();
        prop_assert!((fast.gain - slow.gain).abs() < 1e-9,
            "gain: threaded {} vs reference {}", fast.gain, slow.gain);
        prop_assert_eq!(&fast.policy.choices, &slow.policy.choices);
        for (a, b) in fast.bias.iter().zip(&slow.bias) {
            prop_assert!((a - b).abs() < 1e-9, "bias: threaded {} vs reference {}", a, b);
        }
    }

    /// The production ratio solver (in-place re-scalarization +
    /// warm-started kernel) and the reference one (objective rebuilt per
    /// probe) take the same probes, spend the same inner iterations, and
    /// agree on the optimal ratio and the attaining policy. The models keep
    /// a cycle that avoids state 0, so the production path probes by RVI
    /// like the reference one.
    #[test]
    fn compiled_ratio_matches_nested(model in random_cyclic_model()) {
        let m = model.build();
        let num = Objective::component(0, 2);
        let den = Objective::new(vec![0.0, 1.0]);
        let opts = RatioOptions::default();
        let fast = maximize_ratio(&m, &num, &den, &opts);
        let slow = maximize_ratio_reference(&m, &num, &den, &opts);
        match (fast, slow) {
            (Ok(f), Ok(s)) => {
                prop_assert_eq!(f.engine, ProbeEngine::Rvi);
                prop_assert!((f.value - s.value).abs() < 1e-9,
                    "ratio: compiled {} vs reference {}", f.value, s.value);
                prop_assert_eq!(f.inner_solves, s.inner_solves);
                prop_assert_eq!(f.inner_iterations, s.inner_iterations);
                prop_assert_eq!(&f.policy.choices, &s.policy.choices);
            }
            (Err(_), Err(_)) => {}
            (f, s) => prop_assert!(false, "one path failed: {:?} vs {:?}", f.is_ok(), s.is_ok()),
        }
    }
}

/// Plain bisection on rho over reference RVI solves of `N - rho * D`, warm
/// started like the production search: the oracle for the secant search.
/// Returns the value and the number of inner solves.
fn bisection_oracle(
    m: &CompiledMdp,
    num: &Objective,
    den: &Objective,
    opts: &RatioOptions,
) -> Result<(f64, usize), bvc_mdp::MdpError> {
    let eps = opts.tolerance * 0.1;
    let mut rvi = opts.rvi.clone();
    let mut solves = 0;
    let mut gain_at = |rho: f64| {
        let sol = relative_value_iteration_reference(m, &num.minus_scaled(den, rho), &rvi)?;
        rvi.warm_start = Some(sol.bias);
        solves += 1;
        Ok::<_, bvc_mdp::MdpError>(sol.gain)
    };
    if gain_at(0.0)? <= eps {
        return Ok((0.0, solves));
    }
    let (mut lo, mut hi) = (0.0, opts.initial_hi);
    while gain_at(hi)? > eps {
        lo = hi;
        hi *= 2.0;
        if hi >= 1e12 {
            return Err(bvc_mdp::MdpError::UnboundedRatio { reached: hi });
        }
    }
    while hi - lo > opts.tolerance {
        let mid = 0.5 * (lo + hi);
        if gain_at(mid)? > eps {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    Ok((0.5 * (lo + hi), solves))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The secant search on rho lands within the tolerance of plain
    /// bisection's answer, with at most three times its inner solves.
    #[test]
    fn ratio_search_matches_bisection_oracle(model in random_model()) {
        let m = model.build();
        let num = Objective::component(0, 2);
        let den = Objective::new(vec![0.0, 1.0]);
        let opts = RatioOptions::default();
        match (maximize_ratio(&m, &num, &den, &opts), bisection_oracle(&m, &num, &den, &opts)) {
            (Ok(sol), Ok((value, solves))) => {
                prop_assert!((sol.value - value).abs() <= opts.tolerance,
                    "ratio: secant {} vs bisection {}", sol.value, value);
                prop_assert!(sol.inner_solves <= 3 * solves,
                    "{} inner solves vs bisection's {}", sol.inner_solves, solves);
            }
            (Err(_), Err(_)) => {}
            (f, s) => prop_assert!(false, "one path failed: {:?} vs {:?}", f.is_ok(), s.is_ok()),
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// On regenerative models (≤ 5 states, ≤ 2 arms) the renewal probes find
    /// the best ratio over every deterministic policy, each evaluated
    /// exactly over one cycle: the value and the returned policy's own ratio
    /// are within the tolerance of that maximum. The value also agrees with
    /// the reference RVI search: each search ends within half a tolerance of
    /// its own crossing, and RVI's gain error moves the crossing by at most
    /// its tolerance over the smallest denominator rate.
    #[test]
    fn renewal_ratio_matches_policy_enumeration(model in random_model()) {
        let m = model.build_regenerative();
        let num = Objective::component(0, 2);
        let den = Objective::component(1, 2);
        let opts = RatioOptions::default();
        let sol = maximize_ratio(&m, &num, &den, &opts).unwrap();
        prop_assert_eq!(sol.engine, ProbeEngine::Renewal);

        let best = all_policies(&m)
            .iter()
            .map(|p| cycle_ratio(&m, p))
            .fold(f64::NEG_INFINITY, f64::max);
        prop_assert!((sol.value - best).abs() <= opts.tolerance,
            "renewal {} vs enumerated best {}", sol.value, best);
        let own = cycle_ratio(&m, &sol.policy);
        prop_assert!((own - best).abs() <= opts.tolerance,
            "returned policy's ratio {} vs enumerated best {}", own, best);

        let reference = maximize_ratio_reference(&m, &num, &den, &opts).unwrap();
        prop_assert!(
            (sol.value - reference.value).abs()
                <= opts.tolerance + opts.rvi.tolerance / REGEN_MIN_DEN,
            "renewal {} vs reference {}", sol.value, reference.value);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// On regenerative models a gain solve runs the renewal engine and its
    /// gain is exact: equal (to rounding) to the best gain over every
    /// deterministic policy, each evaluated exactly over one cycle, and to
    /// the returned policy's own; within 1e-6 of reference RVI (whose
    /// tolerance is 1e-7). The bias solves the policy's average-reward
    /// equations `g + h(s) = r(s, π(s)) + Σ p·h` with `h(0) = 0`.
    #[test]
    fn renewal_gain_matches_rvi_and_enumeration(model in random_model()) {
        let m = model.build_regenerative();
        let obj = Objective::new(vec![1.0, -0.25]);
        let sol = relative_value_iteration(&m, &obj, &RviOptions::default()).unwrap();
        prop_assert_eq!(sol.engine, ProbeEngine::Renewal);

        let best = all_policies(&m)
            .iter()
            .map(|p| cycle_gain(&m, p, &obj))
            .fold(f64::NEG_INFINITY, f64::max);
        prop_assert!((sol.gain - best).abs() <= 1e-12,
            "renewal {} vs enumerated best {}", sol.gain, best);
        let own = cycle_gain(&m, &sol.policy, &obj);
        prop_assert!((own - sol.gain).abs() <= 1e-12,
            "returned policy's gain {} vs reported {}", own, sol.gain);
        let reference =
            relative_value_iteration_reference(&m, &obj, &RviOptions::default()).unwrap();
        prop_assert!((sol.gain - reference.gain).abs() <= 1e-6,
            "renewal {} vs reference RVI {}", sol.gain, reference.gain);

        prop_assert_eq!(sol.bias[0], 0.0);
        for s in 0..m.num_states() {
            let rhs: f64 = m
                .transitions(m.policy_arm(&sol.policy, s))
                .map(|(to, prob, reward)| prob * (obj.scalarize(reward) + sol.bias[to]))
                .sum();
            prop_assert!((sol.gain + sol.bias[s] - rhs).abs() <= 1e-9,
                "state {}: g + h = {} vs r + Ph = {}", s, sol.gain + sol.bias[s], rhs);
        }
    }
}
