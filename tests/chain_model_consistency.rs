//! Integration tests tying the abstract MDP models to the concrete chain
//! substrate through the simulator — the workspace's "the model is the
//! protocol" guarantees.

use bvc::bu::{AttackConfig, AttackModel, AttackState, IncentiveModel, Setting, SolveOptions};
use bvc::chain::{BlockId, BlockTree, BuRizunRule, ByteSize, MinerId, NodeView};
use bvc::mdp::solve::{sample_path, XorShift64};
use bvc::sim::AttackReplay;

/// The Figure-2 phase-1 split expressed three ways — chain views, MDP
/// state derivation, and the model's fork-start transition — all agree.
#[test]
fn phase1_split_consistency() {
    // Chain world.
    let mut tree = BlockTree::new();
    let mut bob = NodeView::new(BuRizunRule::without_sticky_gate(ByteSize::mb(1), 6));
    let mut carol = NodeView::new(BuRizunRule::without_sticky_gate(ByteSize::mb(16), 6));
    let fork = tree.extend(BlockId::GENESIS, ByteSize::mb(16), MinerId(0));
    bob.receive(&tree, fork);
    carol.receive(&tree, fork);
    assert_eq!(bob.accepted_tip(), BlockId::GENESIS);
    assert_eq!(carol.accepted_tip(), fork);

    // The MDP's fork-start state is exactly (0, 1, 0, 1, 0) and is reachable.
    let model = AttackModel::build(AttackConfig::with_ratio(
        0.2,
        (1, 1),
        Setting::One,
        IncentiveModel::CompliantProfitDriven,
    ))
    .unwrap();
    let s = AttackState { l1: 0, l2: 1, a1: 0, a2: 1, r: 0 };
    assert!(model.id_of(&s).is_some());
}

/// Replaying the honest policy through both Monte Carlo channels (MDP path
/// sampling and the chain replay) gives the honest utilities.
#[test]
fn two_monte_carlo_channels_agree_on_honest() {
    let model = AttackModel::build(AttackConfig::with_ratio(
        0.3,
        (1, 1),
        Setting::One,
        IncentiveModel::CompliantProfitDriven,
    ))
    .unwrap();
    let policy = model.honest_policy();

    let base = model.id_of(&AttackState::BASE).unwrap();
    let mut rng = XorShift64::new(77);
    let path = sample_path(model.mdp(), &policy, base, 100_000, &mut rng).unwrap();
    let rates = path.component_rates();
    let mdp_u1 = rates[0] / (rates[0] + rates[1]);

    let mut replay = AttackReplay::new(&model, &policy, &[1.0], &[1.0], 78);
    let chain = replay.run(100_000);

    assert!((mdp_u1 - 0.3).abs() < 0.01, "MDP-MC u1 {mdp_u1}");
    assert!((chain.u1() - 0.3).abs() < 0.01, "chain-MC u1 {}", chain.u1());
}

/// The optimal non-compliant policy replayed on real chains reproduces the
/// exact MDP value — the strongest single consistency statement about this
/// workspace (one assertion spanning all five crates).
#[test]
fn optimal_policy_end_to_end() {
    let model = AttackModel::build(AttackConfig::with_ratio(
        0.15,
        (1, 2),
        Setting::One,
        IncentiveModel::non_compliant_default(),
    ))
    .unwrap();
    let sol = model.optimal_absolute_revenue(&SolveOptions::default()).unwrap();
    let exact = model.evaluate(&sol.policy).unwrap();
    let mut replay = AttackReplay::new(&model, &sol.policy, &[1.0], &[1.0], 5150);
    let report = replay.run(300_000);
    assert!((report.u2() - exact.u2).abs() < 0.02, "chain {} vs exact {}", report.u2(), exact.u2);
    assert!((report.u1() - exact.u1).abs() < 0.02, "chain {} vs exact {}", report.u1(), exact.u1);
}

/// Every step of the chain replay must land in the MDP row of its state
/// and action — run a long replay under a policy that forks aggressively
/// and rely on the replay's lockstep panic.
#[test]
fn chain_replay_stays_within_mdp_state_space() {
    let model = AttackModel::build(AttackConfig::with_ratio(
        0.10,
        (2, 3),
        Setting::One,
        IncentiveModel::NonProfitDriven,
    ))
    .unwrap();
    let sol = model.optimal_orphan_rate(&SolveOptions::default()).unwrap();
    let mut replay = AttackReplay::new(&model, &sol.policy, &[1.0], &[1.0], 99);
    let report = replay.run(150_000); // panics on any step outside the MDP row
    assert!(report.oothers > 0.0, "the optimal non-profit policy must orphan blocks");
}
