//! Property-based tests for the MDP solvers on randomly generated models.
//!
//! Random models are small (≤ 8 states) but fully stochastic and strongly
//! connected by construction (every action keeps a minimum probability of
//! jumping to state 0), which guarantees the unichain assumption the
//! average-reward solvers rely on.
//!
//! Every solve is exact, by renewal over the model's regeneration set: one
//! pass per step when state 0 alone is that set, policy iteration with an
//! LU evaluation per step when a cycle avoids state 0 (a ratio solve then
//! runs its Dinkelbach loop over exact gain solves). Tests that pin one
//! kind of set draw from a generator that guarantees it:
//! [`random_cyclic_model`] (a cycle avoids state 0) or
//! [`RandomModel::build_regenerative`] (none does). The oracles are an
//! enumeration of every deterministic policy, each evaluated by a dense
//! solve, and the plain iterative solvers of `bvc_mdp::solve::reference`.

use bvc_mdp::solve::{
    evaluate_policy, first_passage, maximize_ratio, regeneration_set, relative_value_iteration,
    RatioOptions, RviOptions,
};
use bvc_mdp::{CompiledMdp, Mdp, MdpError, Objective, Transition};
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
/// some cycle always avoids state 0 and the regeneration set is larger
/// than `{0}`.
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

/// The exact stationary law of the chain `policy` induces on `m`: a dense
/// solve of `πP = π` with `Σπ = 1` (the last balance equation replaced by
/// the normalization).
fn dense_stationary(m: &CompiledMdp, policy: &bvc_mdp::Policy) -> Vec<f64> {
    let n = m.num_states();
    // Row `t` of the system is the balance of state `t`: Σ_s π(s)·(P(s,t) − δ).
    let mut a: Vec<Vec<f64>> =
        (0..n).map(|t| (0..n).map(|s| if s == t { -1.0 } else { 0.0 }).collect()).collect();
    let arms = (0..n).map(|s| (s, m.policy_arm(policy, s)));
    for (s, (to, prob, _)) in arms.flat_map(|(s, arm)| m.transitions(arm).map(move |t| (s, t))) {
        a[to][s] += prob;
    }
    let mut b = vec![0.0; n];
    a[n - 1] = vec![1.0; n];
    b[n - 1] = 1.0;
    dense_solve(a, b)
}

/// The exact long-run rate of every reward component under `policy`, from
/// [`dense_stationary`].
fn dense_rates(m: &CompiledMdp, policy: &bvc_mdp::Policy) -> [f64; 2] {
    let law = dense_stationary(m, policy);
    let mut rates = [0.0; 2];
    for (s, mass) in law.iter().enumerate() {
        for (_, prob, reward) in m.transitions(m.policy_arm(policy, s)) {
            rates[0] += mass * prob * reward[0];
            rates[1] += mass * prob * reward[1];
        }
    }
    rates
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// On models with a cycle avoiding state 0, `evaluate_policy` solves
    /// the system on the regeneration set: its law and rates equal a dense
    /// solve of `πP = π` to 1e-12, for every deterministic policy.
    #[test]
    fn eval_matches_dense_stationary_solve(model in random_cyclic_model()) {
        let m = model.build();
        prop_assert!(regeneration_set(&m).set.len() > 1);
        for policy in all_policies(&m) {
            let ev = evaluate_policy(&m, &policy).unwrap();
            let law = dense_stationary(&m, &policy);
            for (a, b) in ev.stationary.iter().zip(&law) {
                prop_assert!((a - b).abs() <= 1e-12, "stationary: {} vs dense {}", a, b);
            }
            for (a, b) in ev.component_rates.iter().zip(dense_rates(&m, &policy)) {
                prop_assert!((a - b).abs() <= 1e-12, "rate: {} vs dense {}", a, b);
            }
        }
    }

    /// The gain equals the exact long-run rate of the policy it returns
    /// (`evaluate_policy`), to 1e-12. The bias solves that policy's
    /// average-reward equations `g + h(s) = r(s, π(s)) + Σ p·h` with
    /// `h(0) = 0`, to 1e-9, on every state inside and outside the set.
    #[test]
    fn gain_matches_policy_evaluation(model in random_cyclic_model()) {
        let m = model.build();
        let obj = Objective::new(vec![1.0, 0.5]);
        let sol = relative_value_iteration(&m, &obj, &RviOptions::default()).unwrap();
        let ev = evaluate_policy(&m, &sol.policy).unwrap();
        prop_assert!((ev.rate(&obj.weights) - sol.gain).abs() <= 1e-12,
            "gain {} vs evaluated {}", sol.gain, ev.rate(&obj.weights));

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

    /// The gain is the best rate over every deterministic stationary policy
    /// (≤ 5 states with ≤ 2 arms: at most 32, all enumerated, each by a
    /// dense solve), to 1e-12.
    #[test]
    fn gain_equals_the_enumerated_optimum(model in random_cyclic_model()) {
        let m = model.build();
        let obj = Objective::new(vec![1.0, 0.0]);
        let sol = relative_value_iteration(&m, &obj, &RviOptions::default()).unwrap();
        let policies = all_policies(&m);
        let count: usize = (0..m.num_states()).map(|s| m.num_arms_of(s)).product();
        prop_assert_eq!(policies.len(), count);
        let best = policies
            .iter()
            .map(|p| dense_rates(&m, p)[0])
            .fold(f64::NEG_INFINITY, f64::max);
        prop_assert!((sol.gain - best).abs() <= 1e-12,
            "gain {} vs enumerated best {}", sol.gain, best);
    }

    /// A policy whose chain has two recurrent classes (state 0 jumps into
    /// one of two closed rings) is a structured error from the evaluation
    /// and from a gain solve on a model whose every policy is multichain.
    #[test]
    fn multichain_policy_is_a_structured_error(
        left in 1usize..4,
        right in 1usize..4,
        split in 1u32..9,
    ) {
        let n = 1 + left + right;
        let mut mdp = Mdp::new(2);
        for _ in 0..n {
            mdp.add_state();
        }
        let p = f64::from(split) / 10.0;
        mdp.add_action(0, 0, vec![
            Transition::new(1, p, vec![0.0, 0.0]),
            Transition::new(1 + left, 1.0 - p, vec![0.0, 0.0]),
        ]);
        for (start, len) in [(1, left), (1 + left, right)] {
            for i in 0..len {
                let to = start + (i + 1) % len;
                mdp.add_action(start + i, 0, vec![Transition::new(to, 1.0, vec![1.0, 1.0])]);
            }
        }
        let m = CompiledMdp::compile(&mdp).unwrap();
        let policy = bvc_mdp::Policy::zeros(n);
        prop_assert!(matches!(
            evaluate_policy(&m, &policy),
            Err(MdpError::MultichainPolicy { .. })
        ));
        let obj = Objective::new(vec![1.0, 0.0]);
        prop_assert!(matches!(
            relative_value_iteration(&m, &obj, &RviOptions::default()),
            Err(MdpError::MultichainPolicy { .. })
        ));
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
// Differential tests: the exact production solvers against the plain
// iterative reference implementations (`bvc_mdp::solve::reference`), which
// read the same CSR model: RVI to its tolerance, a power method to a 1e-12
// L1 step, and a bisection on rho. Gains agree within RVI's tolerance,
// ratios within the ratio tolerance, evaluations to 1e-9. The
// `*_matches_nested` test name dates from when the reference solvers read
// the nested builder layout.
// ---------------------------------------------------------------------------

use bvc_mdp::solve::reference::{
    evaluate_policy_reference, maximize_ratio_reference, relative_value_iteration_reference,
};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The exact gain lies within the reference RVI's tolerance of its
    /// gain, and the reference's policy is no better than the exact one.
    #[test]
    fn gain_matches_reference_rvi(model in random_cyclic_model()) {
        let m = model.build();
        let obj = Objective::new(vec![1.0, 0.5]);
        let opts = RviOptions::default();
        let exact = relative_value_iteration(&m, &obj, &opts).unwrap();
        let reference = relative_value_iteration_reference(&m, &obj, &opts).unwrap();
        prop_assert!((exact.gain - reference.gain).abs() <= opts.tolerance,
            "gain: exact {} vs reference {}", exact.gain, reference.gain);
        let theirs = evaluate_policy(&m, &reference.policy).unwrap().rate(&obj.weights);
        prop_assert!(theirs <= exact.gain + 1e-12,
            "reference policy's rate {} beats the exact gain {}", theirs, exact.gain);
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

    /// On models with a cycle avoiding state 0 the ratio solve runs its
    /// Dinkelbach loop over exact gain solves. Its value lies within the
    /// tolerance of the reference bisection on rho, and when positive it is
    /// the returned policy's own evaluated `(N − eps) / D` per step (`eps` a
    /// tenth of the tolerance) to 1e-12, not a bracket midpoint.
    #[test]
    fn ratio_matches_bisection_reference(model in random_cyclic_model()) {
        let m = model.build();
        let num = Objective::component(0, 2);
        let den = Objective::new(vec![0.0, 1.0]);
        let opts = RatioOptions::default();
        let eps = opts.tolerance * 0.1;
        let fast = maximize_ratio(&m, &num, &den, &opts);
        let slow = maximize_ratio_reference(&m, &num, &den, &opts);
        match (fast, slow) {
            (Ok(f), Ok(s)) => {
                prop_assert!((f.value - s.value).abs() <= opts.tolerance,
                    "ratio: Dinkelbach {} vs bisection {}", f.value, s.value);
                if f.value > 0.0 {
                    let ev = evaluate_policy(&m, &f.policy).unwrap();
                    let own = (ev.rate(&num.weights) - eps) / ev.rate(&den.weights);
                    prop_assert!((f.value - own).abs() <= 1e-12,
                        "value {} vs its policy's own {}", f.value, own);
                }
            }
            (Err(_), Err(_)) => {}
            (f, s) => prop_assert!(false, "one path failed: {:?} vs {:?}", f.is_ok(), s.is_ok()),
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// On models with a cycle avoiding state 0 the ratio value is exactly
    /// the crossing: the best `(N − eps) / D` over every deterministic
    /// policy, each rate from a dense solve (`eps` a tenth of the
    /// tolerance, per step), or 0 when none is positive, to 1e-12. A model
    /// where some policy earns `N` with no `D` must be reported unbounded.
    #[test]
    fn ratio_equals_the_enumerated_crossing_on_cyclic_models(model in random_cyclic_model()) {
        let m = model.build();
        let num = Objective::component(0, 2);
        let den = Objective::new(vec![0.0, 1.0]);
        let opts = RatioOptions::default();
        let eps = opts.tolerance * 0.1;
        let rates: Vec<[f64; 2]> = all_policies(&m).iter().map(|p| dense_rates(&m, p)).collect();
        match maximize_ratio(&m, &num, &den, &opts) {
            Ok(sol) => {
                let best = rates
                    .iter()
                    .filter(|[_, d]| *d > 1e-12)
                    .map(|[n, d]| (n - eps) / d)
                    .fold(0.0, f64::max);
                prop_assert!((sol.value - best).abs() <= 1e-12 * best.max(1.0),
                    "ratio {} vs enumerated crossing {}", sol.value, best);
            }
            Err(MdpError::UnboundedRatio { .. }) => {
                prop_assert!(rates.iter().any(|[n, d]| *d <= 1e-12 && *n > eps),
                    "unbounded, but every policy earning N pays D");
            }
            Err(e) => prop_assert!(false, "ratio solve failed: {}", e),
        }
    }

    /// On regenerative models (≤ 5 states, ≤ 2 arms) the renewal loop finds
    /// the best ratio over every deterministic policy, each evaluated
    /// exactly over one cycle: the value and the returned policy's own ratio
    /// are within the tolerance of that maximum. The value also agrees with
    /// the reference bisection on rho: it ends within half a tolerance of
    /// its own crossing, the renewal loop on its exact one, and RVI's
    /// gain error moves the crossing by at most its tolerance over the
    /// smallest denominator rate.
    #[test]
    fn renewal_ratio_matches_policy_enumeration(model in random_model()) {
        let m = model.build_regenerative();
        let num = Objective::component(0, 2);
        let den = Objective::component(1, 2);
        let opts = RatioOptions::default();
        let sol = maximize_ratio(&m, &num, &den, &opts).unwrap();
        prop_assert_eq!(&regeneration_set(&m).set, &[0]);

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

    /// On regenerative models the ratio solve is one Dinkelbach loop whose
    /// value is exactly the crossing the reference bisection brackets: the best
    /// `(N − eps·L) / D` over every deterministic policy, each summed
    /// exactly over one cycle (`L` counts steps, `eps` is a tenth of the
    /// tolerance), or 0 when none is positive. The returned policy's own
    /// `N / D` is at least the value.
    #[test]
    fn renewal_ratio_equals_the_enumerated_crossing(model in random_model()) {
        let m = model.build_regenerative();
        let num = Objective::component(0, 2);
        let den = Objective::component(1, 2);
        let opts = RatioOptions::default();
        let eps = opts.tolerance * 0.1;
        let sol = maximize_ratio(&m, &num, &den, &opts).unwrap();
        prop_assert_eq!(&regeneration_set(&m).set, &[0]);
        prop_assert_eq!(sol.inner_solves, 1);

        let best = all_policies(&m)
            .iter()
            .map(|p| {
                let [n, d, steps] = cycle_totals(&m, p);
                (n - eps * steps) / d
            })
            .fold(0.0, f64::max);
        prop_assert!((sol.value - best).abs() <= 1e-12 * best,
            "renewal {} vs enumerated crossing {}", sol.value, best);
        let own = cycle_ratio(&m, &sol.policy);
        prop_assert!(own >= sol.value, "returned policy's ratio {} below the value {}",
            own, sol.value);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// On regenerative models a gain solve runs renewal passes over the
    /// cycle from state 0 and its gain is exact: equal (to rounding) to the best gain over every
    /// deterministic policy, each evaluated exactly over one cycle, and to
    /// the returned policy's own; within 1e-6 of reference RVI (whose
    /// tolerance is 1e-7). The bias solves the policy's average-reward
    /// equations `g + h(s) = r(s, π(s)) + Σ p·h` with `h(0) = 0`.
    #[test]
    fn renewal_gain_matches_rvi_and_enumeration(model in random_model()) {
        let m = model.build_regenerative();
        let obj = Objective::new(vec![1.0, -0.25]);
        let sol = relative_value_iteration(&m, &obj, &RviOptions::default()).unwrap();
        prop_assert_eq!(&regeneration_set(&m).set, &[0]);

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

// ---------------------------------------------------------------------------
// Exact evaluation on regenerative models: `evaluate_policy`'s forward pass
// over the cycle against the reference power method, and `first_passage`'s
// backward pass against a dense linear solve that ignores the order.
// ---------------------------------------------------------------------------

/// Solves `a x = b` by Gaussian elimination with partial pivoting.
fn dense_solve(mut a: Vec<Vec<f64>>, mut b: Vec<f64>) -> Vec<f64> {
    let n = b.len();
    for col in 0..n {
        let pivot = (col..n).max_by(|&i, &j| a[i][col].abs().total_cmp(&a[j][col].abs())).unwrap();
        a.swap(col, pivot);
        b.swap(col, pivot);
        let pivot_row = a[col].clone();
        for row in col + 1..n {
            let f = a[row][col] / pivot_row[col];
            for (x, p) in a[row][col..].iter_mut().zip(&pivot_row[col..]) {
                *x -= f * p;
            }
            b[row] -= f * b[col];
        }
    }
    let mut x = vec![0.0; n];
    for row in (0..n).rev() {
        let tail: f64 = (row + 1..n).map(|k| a[row][k] * x[k]).sum();
        x[row] = (b[row] - tail) / a[row][row];
    }
    x
}

/// The first-passage equations of `policy` as one dense system per
/// quantity, `(I − Q) x = r`: a marked state's row pins its value (1 for a
/// target's hit, else 0), an unmarked state's reads its successors other
/// than state 0 (a return to state 0 ends the cycle) and adds one step to
/// the expected steps. Returns `(hit, steps)`.
fn dense_first_passage(
    m: &CompiledMdp,
    policy: &bvc_mdp::Policy,
    target: &[bool],
    stop: &[bool],
) -> (Vec<f64>, Vec<f64>) {
    let n = m.num_states();
    let mut a = vec![vec![0.0; n]; n];
    let (mut hit_rhs, mut steps_rhs) = (vec![0.0; n], vec![0.0; n]);
    for s in 0..n {
        a[s][s] = 1.0;
        if target[s] {
            hit_rhs[s] = 1.0;
        } else if !stop[s] {
            steps_rhs[s] = 1.0;
            for (to, prob, _) in m.transitions(m.policy_arm(policy, s)) {
                if to != 0 {
                    a[s][to] -= prob;
                }
            }
        }
    }
    (dense_solve(a.clone(), hit_rhs), dense_solve(a, steps_rhs))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// On regenerative models `evaluate_policy` takes its one exact pass
    /// and agrees with the reference power method on the stationary law
    /// and every component rate, for every deterministic policy.
    #[test]
    fn exact_eval_matches_reference(model in random_model()) {
        let m = model.build_regenerative();
        for policy in all_policies(&m) {
            let exact = evaluate_policy(&m, &policy).unwrap();
            let reference = evaluate_policy_reference(&m, &policy).unwrap();
            prop_assert_eq!(exact.iterations, 1);
            for (a, b) in exact.stationary.iter().zip(&reference.stationary) {
                prop_assert!((a - b).abs() < 1e-9, "stationary: exact {} vs reference {}", a, b);
            }
            for (a, b) in exact.component_rates.iter().zip(&reference.component_rates) {
                prop_assert!((a - b).abs() < 1e-9, "rate: exact {} vs reference {}", a, b);
            }
        }
    }

    /// `first_passage`'s hit probabilities and expected steps equal a
    /// dense solve of the first-passage equations (≤ 5 states), for every
    /// deterministic policy and random marks, one per state: `0` a target,
    /// `1` a stop state, anything else unmarked.
    #[test]
    fn first_passage_matches_dense_solve(
        model in random_model(),
        marks in proptest::collection::vec(0u8..4, 6..7),
    ) {
        let m = model.build_regenerative();
        let n = m.num_states();
        let target: Vec<bool> = marks[..n].iter().map(|&k| k == 0).collect();
        let stop: Vec<bool> = marks[..n].iter().map(|&k| k == 1).collect();
        for policy in all_policies(&m) {
            let passage = first_passage(&m, &policy, &target, &stop).unwrap();
            let (hit, steps) = dense_first_passage(&m, &policy, &target, &stop);
            for s in 0..n {
                prop_assert!((passage.hit[s] - hit[s]).abs() <= 1e-12,
                    "hit[{}]: pass {} vs dense {}", s, passage.hit[s], hit[s]);
                prop_assert!((passage.steps[s] - steps[s]).abs() <= 1e-12,
                    "steps[{}]: pass {} vs dense {}", s, passage.steps[s], steps[s]);
            }
        }
    }
}

/// Reward components [`scalarize_into_matches_the_dense_dot`] draws from:
/// signed zeros, values that cancel each other exactly, inexact ones whose
/// sums depend on their order, a subnormal pair.
const REWARD_PALETTE: [f64; 10] =
    [0.0, -0.0, 1.0, -1.0, 0.1, -0.1, 1.0 / 3.0, -3.0, 1e-310, -1e-310];

/// Objective weights it draws from: both zeros three times over, so most
/// objectives skip components, as the BU objectives do.
const WEIGHT_PALETTE: [f64; 10] = [0.0, -0.0, 0.0, -0.0, 0.0, -0.0, 1.0, -1.0, 0.7, -2.5];

/// `Σ_t p_t · ⟨w, r_t⟩` per arm over every component, the sums taken
/// serially in component and CSR order from `+0.0`: the dense product
/// [`CompiledMdp::scalarize_into`] must reproduce bit for bit.
fn dense_scalarize(m: &CompiledMdp, w: &[f64]) -> Vec<f64> {
    (0..m.num_arms())
        .map(|arm| {
            let mut acc = 0.0;
            for (_, prob, reward) in m.transitions(arm) {
                let mut dot = 0.0;
                for (r, wc) in reward.iter().zip(w) {
                    dot += r * wc;
                }
                acc += prob * dot;
            }
            acc
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Skipping zero weights is exact: on random five-component models
    /// whose rewards hold negatives, signed zeros and cancelling terms, and
    /// objectives with weights of `0.0` and `-0.0`, `scalarize_into` equals
    /// the dense serial dot product bit for bit, arm by arm.
    #[test]
    fn scalarize_into_matches_the_dense_dot(
        arms in proptest::collection::vec(
            proptest::collection::vec((0usize..4, 1u32..10, proptest::collection::vec(0usize..10, 5..6)), 1..4),
            1..12,
        ),
        weights in proptest::collection::vec(0usize..10, 5..6),
    ) {
        // Every state opens with a zero-reward self-loop, so none is left
        // without an arm.
        let mut mdp = Mdp::new(5);
        for s in 0..4 {
            mdp.add_state();
            mdp.add_action(s, 99, vec![Transition::new(s, 1.0, vec![0.0; 5])]);
        }
        for (i, raw) in arms.iter().enumerate() {
            let total: f64 = raw.iter().map(|(_, w, _)| f64::from(*w)).sum();
            let transitions = raw
                .iter()
                .map(|(to, w, reward)| {
                    let reward = reward.iter().map(|&k| REWARD_PALETTE[k]).collect();
                    Transition::new(*to, f64::from(*w) / total, reward)
                })
                .collect();
            mdp.add_action(i % 4, i, transitions);
        }
        let m = CompiledMdp::compile(&mdp).expect("random models are well-formed");
        let w: Vec<f64> = weights.iter().map(|&k| WEIGHT_PALETTE[k]).collect();
        let mut got = Vec::new();
        m.scalarize_into(&Objective::new(w.clone()), &mut got);
        let want = dense_scalarize(&m, &w);
        prop_assert_eq!(got.len(), want.len());
        for (arm, (g, d)) in got.iter().zip(&want).enumerate() {
            prop_assert!(g.to_bits() == d.to_bits(), "arm {}: sparse {:e} vs dense {:e} under {:?}", arm, g, d, w);
        }
    }
}
