//! An independent, hand-coded copy of the paper's **Table 1** (state
//! transition and reward distribution for a compliant and profit-driven
//! Alice, setting 1), used to pin the transition generator row by row.
//!
//! ## Two typos in the published table
//!
//! Block conservation requires that the rewards distributed at a resolution
//! sum to the length of the locked chain, which always includes the block
//! just mined (`l + 1`). Two entries of the published table violate this:
//!
//! * row `(l1, l2, a1, a2), onC1` with `l1 = l2 = AD − 1`: the γ-event
//!   contribution to `R_others` is printed as `γ(l2 − a2)`; every other row
//!   (e.g. the `l1 < l2 = AD − 1` case) uses `l2 + 1 − a2`.
//! * row `(l1, l2, a1, a2), onC2` with `l1 = l2 = AD − 1`: the β-event
//!   contribution is printed as `β(l1 − a1)` instead of `β(l1 + 1 − a1)`.
//!
//! [`published_rows`] takes a `corrected` flag: with `corrected = true` the
//! two entries are fixed (and match the generator exactly); with
//! `corrected = false` the verbatim published values are produced, and the
//! crate's tests assert that the difference against the generator is
//! *exactly* those two entries.

use crate::config::AttackConfig;
use crate::model::{expand, AttackModel};
use crate::rewards::{COMPONENTS, RA, ROTHERS};
use crate::state::{Action, AttackState};

/// One outcome of a (state, action) row: successor, probability, and the
/// `(R_A, R_others)` reward pair of Table 1.
#[derive(Debug, Clone, PartialEq)]
pub struct Outcome {
    /// Resulting state.
    pub next: AttackState,
    /// Probability of the (merged) event.
    pub prob: f64,
    /// Expected `R_A` reward on this event.
    pub ra: f64,
    /// Expected `R_others` reward on this event.
    pub rothers: f64,
}

/// One row of Table 1.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    /// Source state (the 5th tuple entry is always 0 in setting 1).
    pub state: AttackState,
    /// Alice's action.
    pub action: Action,
    /// The merged outcomes.
    pub outcomes: Vec<Outcome>,
}

fn f(x: u8) -> f64 {
    f64::from(x)
}

/// Enumerates all phase-1 states of the model for a given `AD`, base first,
/// in a deterministic order.
pub fn phase1_states(ad: u8) -> Vec<AttackState> {
    let mut out = vec![AttackState::BASE];
    for l2 in 1..ad {
        for l1 in 0..=l2 {
            for a1 in 0..=l1 {
                for a2 in 1..=l2 {
                    out.push(AttackState { l1, l2, a1, a2, r: 0 });
                }
            }
        }
    }
    out
}

/// The published Table 1 rows for one state, evaluated numerically for the
/// configuration's `(α, β, γ, AD)`.
pub fn published_rows_for(cfg: &AttackConfig, s: AttackState, corrected: bool) -> Vec<Row> {
    let (al, be, ga) = (cfg.alpha, cfg.beta, cfg.gamma);
    let ad = cfg.ad;
    let base = AttackState::BASE;
    let mk = |l1, l2, a1, a2| AttackState { l1, l2, a1, a2, r: 0 };
    let o = |next, prob, ra, rothers| Outcome { next, prob, ra, rothers };

    if !s.forked() {
        return vec![
            Row { state: s, action: Action::OnChain1, outcomes: vec![o(base, 1.0, al, be + ga)] },
            Row {
                state: s,
                action: Action::OnChain2,
                outcomes: vec![o(base, be + ga, 0.0, 1.0), o(mk(0, 1, 0, 1), al, 0.0, 0.0)],
            },
        ];
    }

    let AttackState { l1, l2, a1, a2, .. } = s;
    let (ap, bp) = (al / (al + be), be / (al + be)); // α', β'
    let (app, gpp) = (al / (al + ga), ga / (al + ga)); // α'', γ''

    let row1; // OnChain1
    let row2; // OnChain2
    if l1 < l2 && l2 != ad - 1 {
        row1 = vec![
            o(mk(l1 + 1, l2, a1 + 1, a2), al, 0.0, 0.0),
            o(mk(l1 + 1, l2, a1, a2), be, 0.0, 0.0),
            o(mk(l1, l2 + 1, a1, a2), ga, 0.0, 0.0),
        ];
        row2 = vec![
            o(mk(l1, l2 + 1, a1, a2 + 1), al, 0.0, 0.0),
            o(mk(l1 + 1, l2, a1, a2), be, 0.0, 0.0),
            o(mk(l1, l2 + 1, a1, a2), ga, 0.0, 0.0),
        ];
    } else if l1 == l2 && l2 != ad - 1 {
        row1 = vec![
            o(base, al + be, ap * f(a1 + 1) + bp * f(a1), ap * f(l1 - a1) + bp * f(l1 + 1 - a1)),
            o(mk(l1, l2 + 1, a1, a2), ga, 0.0, 0.0),
        ];
        row2 = vec![
            o(mk(l1, l2 + 1, a1, a2 + 1), al, 0.0, 0.0),
            o(base, be, f(a1), f(l1 + 1 - a1)),
            o(mk(l1, l2 + 1, a1, a2), ga, 0.0, 0.0),
        ];
    } else if l1 < l2 {
        // l2 == ad - 1
        row1 = vec![
            o(mk(l1 + 1, l2, a1 + 1, a2), al, 0.0, 0.0),
            o(mk(l1 + 1, l2, a1, a2), be, 0.0, 0.0),
            o(base, ga, f(a2), f(l2 + 1 - a2)),
        ];
        row2 = vec![
            o(
                base,
                al + ga,
                app * f(a2 + 1) + gpp * f(a2),
                app * f(l2 - a2) + gpp * f(l2 + 1 - a2),
            ),
            o(mk(l1 + 1, l2, a1, a2), be, 0.0, 0.0),
        ];
    } else {
        // l1 == l2 == ad - 1
        // The two published typos live here; `corrected` fixes them.
        let gamma_rothers = if corrected { f(l2 + 1 - a2) } else { f(l2 - a2) };
        row1 = vec![o(
            base,
            1.0,
            al * f(a1 + 1) + be * f(a1) + ga * f(a2),
            al * f(l1 - a1) + be * f(l1 + 1 - a1) + ga * gamma_rothers,
        )];
        let beta_rothers = if corrected { f(l1 + 1 - a1) } else { f(l1 - a1) };
        row2 = vec![o(
            base,
            1.0,
            al * f(a2 + 1) + be * f(a1) + ga * f(a2),
            al * f(l2 - a2) + be * beta_rothers + ga * f(l2 + 1 - a2),
        )];
    }
    vec![
        Row { state: s, action: Action::OnChain1, outcomes: row1 },
        Row { state: s, action: Action::OnChain2, outcomes: row2 },
    ]
}

/// All published Table 1 rows for every phase-1 state.
pub fn published_rows(cfg: &AttackConfig, corrected: bool) -> Vec<Row> {
    phase1_states(cfg.ad).into_iter().flat_map(|s| published_rows_for(cfg, s, corrected)).collect()
}

/// The generator's rows for the same states, read one state at a time
/// through the model's expansion function. States unreachable from the base
/// state are expanded too, so the comparison covers the entire published
/// table.
pub fn generator_rows(model: &AttackModel) -> Vec<Row> {
    let cfg = model.config();
    let mut rows = Vec::new();
    for s in phase1_states(cfg.ad) {
        let actions = bvc_mdp::expand_one(COMPONENTS, &s, |s, sink| expand(cfg, s, sink))
            .expect("the generator writes full reward vectors");
        rows.extend(actions.into_iter().map(|(label, outcomes)| {
            Row {
                state: s,
                action: Action::from_label(label),
                outcomes: outcomes
                    .into_iter()
                    .map(|(next, prob, reward)| Outcome {
                        next,
                        prob,
                        ra: reward[RA],
                        rothers: reward[ROTHERS],
                    })
                    .collect(),
            }
        }));
    }
    rows
}

/// The entries where two row sets differ beyond `tol`, as
/// `(state, action, outcome index)` triples. Outcomes are matched by
/// successor state; a missing or extra successor is also a difference.
pub fn diff_rows(a: &[Row], b: &[Row], tol: f64) -> Vec<(AttackState, Action, usize)> {
    let mut diffs = Vec::new();
    assert_eq!(a.len(), b.len(), "row sets must cover the same table");
    for (ra, rb) in a.iter().zip(b) {
        assert_eq!(ra.state, rb.state);
        assert_eq!(ra.action, rb.action);
        for (i, oa) in ra.outcomes.iter().enumerate() {
            match rb.outcomes.iter().find(|ob| ob.next == oa.next) {
                Some(ob) => {
                    if (oa.prob - ob.prob).abs() > tol
                        || (oa.ra - ob.ra).abs() > tol
                        || (oa.rothers - ob.rothers).abs() > tol
                    {
                        diffs.push((ra.state, ra.action, i));
                    }
                }
                None => diffs.push((ra.state, ra.action, i)),
            }
        }
        if rb.outcomes.len() != ra.outcomes.len() {
            diffs.push((ra.state, ra.action, usize::MAX));
        }
    }
    diffs
}

/// Renders rows as an aligned text table (for the `table1` repro binary).
pub fn render(rows: &[Row]) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "{:<18} {:<9} {:<18} {:>8}  {:>8} {:>8}\n",
        "(State", "Action)", "Resulting State", "Prob", "R_A", "R_others"
    ));
    for row in rows {
        for (i, o) in row.outcomes.iter().enumerate() {
            let head = if i == 0 {
                format!("{:<18} {:<9}", row.state.to_string(), row.action.to_string())
            } else {
                format!("{:<18} {:<9}", "", "")
            };
            out.push_str(&format!(
                "{head} {:<18} {:>8.4}  {:>8.4} {:>8.4}\n",
                o.next.to_string(),
                o.prob,
                o.ra,
                o.rothers
            ));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{IncentiveModel, Setting};

    fn cfg(alpha: f64, ratio: (u32, u32)) -> AttackConfig {
        AttackConfig::with_ratio(alpha, ratio, Setting::One, IncentiveModel::CompliantProfitDriven)
    }

    /// The generator reproduces the corrected published Table 1 exactly,
    /// for several parameter sets.
    #[test]
    fn generator_matches_corrected_table1() {
        for (alpha, ratio) in [(0.25, (1, 1)), (0.10, (2, 3)), (0.05, (1, 4)), (0.15, (3, 2))] {
            let c = cfg(alpha, ratio);
            let model = AttackModel::build(c.clone()).unwrap();
            let published = published_rows(&c, true);
            let generated = generator_rows(&model);
            let diffs = diff_rows(&published, &generated, 1e-12);
            assert!(diffs.is_empty(), "α={alpha}, ratio={ratio:?}: diffs {diffs:?}");
        }
    }

    /// The verbatim published table differs from the generator in exactly
    /// the two typo entries of the `l1 = l2 = AD − 1` rows.
    #[test]
    fn verbatim_table1_has_exactly_two_typos() {
        let c = cfg(0.25, (1, 1));
        let model = AttackModel::build(c.clone()).unwrap();
        let published = published_rows(&c, false);
        let generated = generator_rows(&model);
        let diffs = diff_rows(&published, &generated, 1e-12);
        let ad = c.ad;
        // Typos occur in every (a1, a2) instantiation of the two rows; all
        // diffs must be in l1 = l2 = AD - 1 states, and both actions appear.
        assert!(!diffs.is_empty());
        for (s, _, _) in &diffs {
            assert_eq!(s.l1, ad - 1);
            assert_eq!(s.l2, ad - 1);
        }
        assert!(diffs.iter().any(|(_, a, _)| *a == Action::OnChain1));
        assert!(diffs.iter().any(|(_, a, _)| *a == Action::OnChain2));
    }

    #[test]
    fn phase1_state_enumeration_is_complete_and_unique() {
        let states = phase1_states(6);
        let mut sorted = states.clone();
        sorted.sort();
        sorted.dedup();
        assert_eq!(sorted.len(), states.len(), "duplicates in enumeration");
        // The enumeration must cover every state the generator can reach.
        let c = cfg(0.2, (1, 1));
        let model = AttackModel::build(c).unwrap();
        for (s, _) in model.iter() {
            assert!(states.contains(&s), "reachable state {s} missing");
        }
    }

    #[test]
    fn render_contains_header_and_rows() {
        let c = cfg(0.25, (1, 1));
        let rows = published_rows_for(&c, AttackState::BASE, true);
        let text = render(&rows);
        assert!(text.contains("R_others"));
        assert!(text.contains("OnChain1"));
        assert!(text.contains("(0, 0, 0, 0, 0)"));
    }

    /// Probabilities in every published row sum to 1.
    #[test]
    fn published_probabilities_sum_to_one() {
        let c = cfg(0.1, (1, 2));
        for corrected in [true, false] {
            for row in published_rows(&c, corrected) {
                let sum: f64 = row.outcomes.iter().map(|o| o.prob).sum();
                assert!((sum - 1.0).abs() < 1e-12, "{:?}", row);
            }
        }
    }
}
