//! Error contract of `explore`'s CSR writer.
//!
//! `explore` checks every arm as it appends it to the CSR arrays, yet must
//! report exactly what exploring every reachable state first and then
//! validating the whole model reports: a reward of the wrong arity as soon
//! as its state is expanded, otherwise the first malformed arm or
//! action-less state in (state, action) order. Errors are compared by their
//! `Debug` form, so NaN fields compare equal.
//!
//! `refill`, which re-weights a graph explored before instead of exploring
//! again, must keep the same contract: on a graph the expansion reproduces
//! it returns `explore`'s model or error, and on any other graph it returns
//! no model, so `explore_reusing` explores afresh and counts the fallback.

use bvc_mdp::{explore, explore_reusing, refill, refill_fallbacks, Expansion, Explored, MdpError};

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

/// A bad sum at state 1 and a NaN reward at state 3: both flat passes over
/// the weights fail, and the sum, first in state order, is reported.
fn case_sum_then_nan_reward(s: &u32, x: &mut Expansion<u32>) {
    match s {
        1 => x.action(0).outcome(2, 0.5, &[1.0]),
        3 => x.action(0).outcome(0, 1.0, &[f64::NAN]),
        _ => step(*s, x),
    }
}

/// State 1's second arm has a negative probability, then a NaN one: the
/// negative one, first in transition order, is reported.
fn case_nan_after_negative(s: &u32, x: &mut Expansion<u32>) {
    step(*s, x);
    if *s == 1 {
        let mut arm = x.action(1);
        arm.outcome(2, -0.5, &[0.0]);
        arm.outcome(3, f64::NAN, &[0.0]);
    }
}

fn case_inf_reward(s: &u32, x: &mut Expansion<u32>) {
    if *s == 3 {
        x.action(0).outcome(0, 1.0, &[f64::INFINITY]);
    } else {
        step(*s, x);
    }
}

/// `refill` checks the weights of a reproduced graph in flat passes over
/// the finished buffers, and only when one fails runs the ordered per-arm
/// check that names the error. These cases fail more than one pass, or one
/// pass for a reason the ordered check names differently, so only that
/// check reports `explore`'s error.
#[test]
fn refill_fallback_names_explores_first_error() {
    let cases: [(&str, Expand, Expand, &str); 3] = [
        (
            "bad sum, then a NaN reward",
            step_ok,
            case_sum_then_nan_reward,
            "BadProbabilitySum { state: 1, action: 0, sum: 0.5 }",
        ),
        (
            "NaN after a negative probability",
            twin_prob,
            case_nan_after_negative,
            "NegativeProbability { state: 1, action: 1, prob: -0.5 }",
        ),
        (
            "infinite reward",
            step_ok,
            case_inf_reward,
            "NonFiniteReward { state: 3, action: 0, component: 0, value: inf }",
        ),
    ];
    for (name, twin, expand, expected) in cases {
        assert_eq!(outcome_text(explore(1, [0u32], expand)), expected, "case {name}: explore");
        let graph = explore(1, [0u32], twin).expect("twins are well-formed").graph();
        let refilled = refill(&graph, 1, expand).expect("the graph is the expansion's own");
        assert_eq!(outcome_text(refilled), expected, "case {name}: refill");
    }
}

fn step_ok(s: &u32, x: &mut Expansion<u32>) {
    step(*s, x);
}

/// [`case_prob`]'s well-formed twin: the same arms and successors.
fn twin_prob(s: &u32, x: &mut Expansion<u32>) {
    case_prob(s, x, 0.5);
}

/// [`case_arity`]'s well-formed twin.
fn twin_arity(s: &u32, x: &mut Expansion<u32>) {
    step(*s, x);
    if *s == 2 {
        let mut arm = x.action(1);
        arm.outcome(0, 0.5, &[1.0]);
        arm.outcome(1, 0.5, &[2.0]);
    }
}

fn outcome_text(built: Result<Explored<u32>, MdpError>) -> String {
    match built {
        Ok(explored) => format!("ok: {} states", explored.mdp.num_states()),
        Err(e) => format!("{e:?}"),
    }
}

/// Each malformed expansion re-weighting a well-formed graph: where the
/// graph is the expansion's own, `refill` reports `explore`'s error itself;
/// where it is not (a state loses its actions, an arm its outcomes),
/// `refill` returns no model and `explore_reusing` explores afresh. Either
/// way the caller sees `explore`'s error.
#[test]
fn refill_errors_match_explore() {
    let cases: [(&str, Expand, Expand, bool); 12] = [
        ("no actions", step_ok, case_no_actions, false),
        ("empty arm", step_ok, case_empty_arm, false),
        ("negative", twin_prob, case_negative, true),
        ("nan prob", twin_prob, case_nan_prob, true),
        ("+inf prob", twin_prob, case_pos_inf, true),
        ("-inf prob", twin_prob, case_neg_inf, true),
        ("bad sum", twin_prob, case_bad_sum, true),
        ("nan reward", step_ok, case_nan_reward, true),
        ("arity", twin_arity, case_arity, true),
        ("two bad states", step_ok, case_two_bad_states, true),
        ("arity after a bad state", step_ok, case_arity_after_bad_state, true),
        ("well-formed", twin_prob, twin_prob, true),
    ];
    for (name, twin, expand, same_graph) in cases {
        let graph = explore(1, [0u32], twin).expect("twins are well-formed").graph();
        let expected = outcome_text(explore(1, [0u32], expand));
        match refill(&graph, 1, expand) {
            Some(built) => {
                assert!(same_graph, "case {name}: refilled a graph that is not its own");
                assert_eq!(outcome_text(built), expected, "case {name}");
            }
            None => assert!(!same_graph, "case {name}: refused its own graph"),
        }
        let reused = explore_reusing(Some(&graph), 1, [0u32], expand);
        assert_eq!(outcome_text(reused), expected, "case {name}");
    }
}

/// A step to `s + 1` with probability `p` and a stay with `1 − p`, where,
/// as a merging domain generator does, an outcome of probability zero is
/// left out — so the successor set depends on `p`.
fn lazy_walk(p: f64) -> impl FnMut(&u32, &mut Expansion<u32>) {
    move |s, x| {
        let mut arm = x.action(0);
        for (next, prob) in [((s + 1) % 4, p), (*s, 1.0 - p)] {
            if prob != 0.0 {
                arm.outcome(next, prob, &[f64::from(*s) * prob]);
            }
        }
    }
}

/// Re-weighting reproduces `explore` bit for bit where the graph is fixed,
/// and falls back — counted, never a wrong model — where a parameter
/// changes the successor set.
#[test]
fn refill_matches_explore_or_falls_back() {
    let walk = explore(1, [0u32], lazy_walk(0.5)).unwrap();
    assert_eq!(walk.mdp.num_states(), 4);
    let graph = walk.graph();

    let fresh = explore(1, [0u32], lazy_walk(0.25)).unwrap();
    let refilled = refill(&graph, 1, lazy_walk(0.25)).expect("same graph").unwrap();
    assert_eq!(format!("{:?}", refilled.mdp), format!("{:?}", fresh.mdp));
    assert_eq!(format!("{:?}", refilled.indexer), format!("{:?}", fresh.indexer));

    // At p = 0 state 0 only loops: its one arm has one outcome, not two.
    assert!(refill(&graph, 1, lazy_walk(0.0)).is_none());
    let before = refill_fallbacks();
    let reused = explore_reusing(Some(&graph), 1, [0u32], lazy_walk(0.0)).unwrap();
    assert!(refill_fallbacks() > before, "the fallback was not counted");
    let fresh = explore(1, [0u32], lazy_walk(0.0)).unwrap();
    assert_eq!(reused.mdp.num_states(), 1);
    assert_eq!(format!("{:?}", reused.mdp), format!("{:?}", fresh.mdp));
    assert_eq!(format!("{:?}", reused.indexer), format!("{:?}", fresh.indexer));

    // The same counts with another successor or another label: only the
    // typed comparison and the label comparison tell these apart.
    let steps = explore(1, [0u32], step_ok).unwrap().graph();
    let skip: Expand = |s, x| x.action(0).outcome((s + 2) % 4, 1.0, &[1.0]);
    let relabeled: Expand = |s, x| x.action(9).outcome((s + 1) % 4, 1.0, &[1.0]);
    assert!(refill(&steps, 1, skip).is_none());
    assert!(refill(&steps, 1, relabeled).is_none());
}
