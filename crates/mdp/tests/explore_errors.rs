//! Error contract of `explore`'s CSR writer.
//!
//! `explore` checks every arm as it appends it to the CSR arrays, yet must
//! report exactly what exploring every reachable state first and then
//! validating the whole model reports: a reward of the wrong arity as soon
//! as its state is expanded, otherwise the first malformed arm or
//! action-less state in (state, action) order. Errors are compared by their
//! `Debug` form, so NaN fields compare equal.

use bvc_mdp::{explore, Expansion, MdpError};

/// A malformed expansion over states `0..`: every state but the named bad
/// ones steps to `s + 1` (state 3 back to 0) with reward `[1.0]`.
type Expand = fn(&u32, &mut Expansion<u32>);

fn step(s: u32, x: &mut Expansion<u32>) {
    x.action(0).outcome((s + 1) % 4, 1.0, &[1.0]);
}

fn case_no_actions(s: &u32, x: &mut Expansion<u32>) {
    if *s != 1 {
        step(*s, x);
    }
}

fn case_empty_arm(s: &u32, x: &mut Expansion<u32>) {
    step(*s, x);
    if *s == 2 {
        x.action(5);
    }
}

/// State 1's second arm has a second outcome of probability `bad`.
fn case_prob(s: &u32, x: &mut Expansion<u32>, bad: f64) {
    step(*s, x);
    if *s == 1 {
        let mut arm = x.action(1);
        arm.outcome(2, 0.5, &[0.0]);
        arm.outcome(3, bad, &[0.0]);
    }
}

fn case_negative(s: &u32, x: &mut Expansion<u32>) {
    case_prob(s, x, -0.5);
}

fn case_nan_prob(s: &u32, x: &mut Expansion<u32>) {
    case_prob(s, x, f64::NAN);
}

fn case_pos_inf(s: &u32, x: &mut Expansion<u32>) {
    case_prob(s, x, f64::INFINITY);
}

fn case_neg_inf(s: &u32, x: &mut Expansion<u32>) {
    case_prob(s, x, f64::NEG_INFINITY);
}

fn case_bad_sum(s: &u32, x: &mut Expansion<u32>) {
    case_prob(s, x, 0.25);
}

fn case_nan_reward(s: &u32, x: &mut Expansion<u32>) {
    if *s == 3 {
        x.action(0).outcome(0, 1.0, &[f64::NAN]);
    } else {
        step(*s, x);
    }
}

fn case_arity(s: &u32, x: &mut Expansion<u32>) {
    step(*s, x);
    if *s == 2 {
        let mut arm = x.action(1);
        arm.outcome(0, 0.5, &[1.0]);
        arm.outcome(1, 0.5, &[1.0, 2.0]);
    }
}

/// States 1 and 2 are both malformed: the first in id order is reported.
fn case_two_bad_states(s: &u32, x: &mut Expansion<u32>) {
    match s {
        1 => x.action(0).outcome(2, 0.5, &[1.0]),
        2 => x.action(0).outcome(3, 1.0, &[f64::INFINITY]),
        _ => step(*s, x),
    }
}

/// A malformed arm at state 1 and a reward of the wrong arity at state 3:
/// the arity error is found while expanding, so it wins.
fn case_arity_after_bad_state(s: &u32, x: &mut Expansion<u32>) {
    match s {
        1 => x.action(0).outcome(2, 0.5, &[1.0]),
        3 => x.action(0).outcome(0, 1.0, &[]),
        _ => step(*s, x),
    }
}

#[test]
fn explore_errors_match_explore_then_validate() {
    let cases: [(&str, Expand, &str); 12] = [
        ("no actions", case_no_actions, "NoActions { state: 1 }"),
        ("empty arm", case_empty_arm, "BadProbabilitySum { state: 2, action: 1, sum: 0.0 }"),
        ("negative", case_negative, "NegativeProbability { state: 1, action: 1, prob: -0.5 }"),
        ("nan prob", case_nan_prob, "NonFiniteProbability { state: 1, action: 1, prob: NaN }"),
        ("+inf prob", case_pos_inf, "NonFiniteProbability { state: 1, action: 1, prob: inf }"),
        ("-inf prob", case_neg_inf, "NegativeProbability { state: 1, action: 1, prob: -inf }"),
        ("bad sum", case_bad_sum, "BadProbabilitySum { state: 1, action: 1, sum: 0.75 }"),
        (
            "nan reward",
            case_nan_reward,
            "NonFiniteReward { state: 3, action: 0, component: 0, value: NaN }",
        ),
        ("arity", case_arity, "RewardArity { state: 2, action: 1, found: 2, expected: 1 }"),
        (
            "two bad states",
            case_two_bad_states,
            "BadProbabilitySum { state: 1, action: 0, sum: 0.5 }",
        ),
        (
            "arity after a bad state",
            case_arity_after_bad_state,
            "RewardArity { state: 3, action: 0, found: 0, expected: 1 }",
        ),
        ("well-formed", step_ok, "ok: 4 states"),
    ];
    for (name, expand, expected) in cases {
        let got = match explore(1, [0u32], expand) {
            Ok(explored) => format!("ok: {} states", explored.mdp.num_states()),
            Err(e) => format!("{e:?}"),
        };
        assert_eq!(got, expected, "case {name}");
    }
    let none = explore(1, std::iter::empty::<u32>(), step_ok);
    assert!(matches!(none, Err(MdpError::Empty)));
}

fn step_ok(s: &u32, x: &mut Expansion<u32>) {
    step(*s, x);
}
