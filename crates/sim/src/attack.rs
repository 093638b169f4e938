//! Chain-level replay of the paper's attack (§4.1.1), driving a *real*
//! block tree and *real* BU node views with a policy computed by the
//! `bvc-bu` MDP.
//!
//! This is the strongest correctness check in the workspace: the MDP's
//! abstract states `(l1, l2, a1, a2, r)` are *derived from the concrete
//! chain world* at every step, and the long-run utilities measured on the
//! chain world must agree with the exact MDP evaluation of the same
//! policy.
//!
//! The compliant side is two *groups of nodes*, the small-`EB` ("Bob")
//! group and the large-`EB` ("Carol") group, each node running its own
//! [`NodeView`] over the shared block tree with its own hash-rate share;
//! the groups' total powers are scaled to the model's `beta` and `gamma`.
//! One node per group is the paper's three-miner world. Under the paper's
//! setting-1 semantics (zero propagation delay, no sticky gate) every
//! node in a group computes the identical accepted chain, so the
//! network's aggregate dynamics coincide *exactly* with the three-miner
//! MDP however the groups are split; the replay asserts that per-group
//! coherence at every settlement instead of assuming it.
//!
//! The replay also walks in **lockstep** with the MDP: each step's
//! successor state must be a destination of the policy's arm in the
//! step's state ([`successor_id`]), so a divergence between the chain
//! substrate's validity semantics and the MDP's transition rules panics
//! at the step where it happens, naming the state, the action and the
//! successor. Only the successor is checked: merged rows average the
//! rewards of the events that share a successor, so one event's credit
//! need not equal its row's reward.
//!
//! The replay covers **setting 1** (sticky gate disabled), where the MDP
//! and raw BU semantics coincide exactly. In setting 2 the paper's model
//! deliberately collapses phase 3 back to the base state, which is a
//! modeling convention rather than chain behaviour, so a faithful
//! chain-level replay is defined only for setting 1.

use bvc_bu::{Action, AttackModel, AttackState, Setting};
use bvc_chain::{BlockId, BlockTree, BuRizunRule, ByteSize, MinerId, NodeView};
use bvc_chaos::SplitMix64;
use bvc_mdp::{Policy, StateId};

/// The attacker's miner id; compliant node `i` is `MinerId(1 + i)`.
pub const ALICE: MinerId = MinerId(0);

/// Tallied outcomes of a replay run.
#[derive(Debug, Clone, Default)]
pub struct ReplayReport {
    /// Steps (= blocks mined).
    pub steps: usize,
    /// Alice's locked blocks.
    pub ra: f64,
    /// Bob's and Carol's locked blocks.
    pub rothers: f64,
    /// Alice's orphaned blocks.
    pub oa: f64,
    /// Bob's and Carol's orphaned blocks.
    pub oothers: f64,
    /// Double-spend payouts (block-reward units).
    pub ds: f64,
}

impl ReplayReport {
    /// Relative revenue `u1`.
    pub fn u1(&self) -> f64 {
        let locked = self.ra + self.rothers;
        if locked > 0.0 {
            self.ra / locked
        } else {
            0.0
        }
    }

    /// Absolute revenue per block `u2`.
    pub fn u2(&self) -> f64 {
        (self.ra + self.ds) / self.steps as f64
    }

    /// Orphans per attacker block `u3`.
    pub fn u3(&self) -> f64 {
        let attacker_blocks = self.ra + self.oa;
        if attacker_blocks > 0.0 {
            self.oothers / attacker_blocks
        } else {
            0.0
        }
    }
}

/// The lockstep check of one replay step: the MDP id of `next`, provided
/// `next` is a destination of `action`'s arm in state `sid`.
///
/// # Errors
/// A message naming the state, the action and the successor when `next`
/// is unreachable in the model or not in that arm's row.
pub fn successor_id(
    model: &AttackModel,
    sid: StateId,
    action: Action,
    next: &AttackState,
) -> Result<StateId, String> {
    let mdp = model.mdp();
    let state = model.state(sid);
    let leaves = || format!("replay left the MDP row: {state} --{action}--> {next}");
    let local = mdp.action_with_label(sid, action.label()).ok_or_else(leaves)?;
    let next_id = model.id_of(next).ok_or_else(leaves)?;
    let (_, dests) = mdp.arm_transitions(mdp.arm_range(sid).start + local);
    if dests.iter().any(|&d| d as usize == next_id) {
        Ok(next_id)
    } else {
        Err(leaves())
    }
}

/// One compliant node: a BU view plus its absolute hash-rate share.
struct Node {
    view: NodeView<BuRizunRule>,
    power: f64,
}

/// The chain-level replay driver.
pub struct AttackReplay<'a> {
    model: &'a AttackModel,
    policy: &'a Policy,
    rng: SplitMix64,
    tree: BlockTree,
    /// Group 1: the small-`EB` ("Bob") nodes; powers sum to `beta`.
    small: Vec<Node>,
    /// Group 2: the large-`EB` ("Carol") nodes; powers sum to `gamma`.
    large: Vec<Node>,
    /// The last block both groups agreed on.
    last_agreed: BlockId,
    /// Blocks mined since the last agreement (potential fork blocks).
    since_agreement: Vec<BlockId>,
    eb_b: ByteSize,
    eb_c: ByteSize,
    /// The current MDP state's id: the successor checked at the end of
    /// the previous step.
    sid: StateId,
    report: ReplayReport,
}

impl<'a> AttackReplay<'a> {
    /// Creates a replay for a setting-1 model, one of its policies, and
    /// raw per-node weights for the two compliant groups (any positive
    /// values — each group is rescaled so its total power is exactly the
    /// model's `beta` / `gamma`). `&[1.0], &[1.0]` is the three-miner
    /// world.
    ///
    /// # Panics
    /// Panics if the model is not setting 1, either group is empty, or a
    /// weight is not finite and positive.
    pub fn new(
        model: &'a AttackModel,
        policy: &'a Policy,
        small_weights: &[f64],
        large_weights: &[f64],
        seed: u64,
    ) -> Self {
        assert_eq!(
            model.config().setting,
            Setting::One,
            "chain-faithful replay is defined for setting 1 only"
        );
        assert!(
            !small_weights.is_empty() && !large_weights.is_empty(),
            "both compliant groups need at least one node"
        );
        let cfg = model.config();
        let eb_b = ByteSize::mb(1);
        let eb_c = ByteSize::mb(16);
        let ad = u64::from(cfg.ad);
        let group = |weights: &[f64], total_power: f64, eb: ByteSize| -> Vec<Node> {
            let sum: f64 = weights.iter().sum();
            assert!(
                weights.iter().all(|w| w.is_finite() && *w > 0.0) && sum > 0.0,
                "group weights must be finite and positive"
            );
            weights
                .iter()
                .map(|w| Node {
                    view: NodeView::new(BuRizunRule::without_sticky_gate(eb, ad)),
                    power: w / sum * total_power,
                })
                .collect()
        };
        let small = group(small_weights, cfg.beta, eb_b);
        let large = group(large_weights, cfg.gamma, eb_c);
        let sid = model
            .id_of(&AttackState::BASE)
            .unwrap_or_else(|| panic!("base state must be reachable"));
        AttackReplay {
            model,
            policy,
            rng: SplitMix64::new(seed),
            tree: BlockTree::new(),
            small,
            large,
            last_agreed: BlockId::GENESIS,
            since_agreement: Vec::new(),
            eb_b,
            eb_c,
            sid,
            report: ReplayReport::default(),
        }
    }

    fn bob_tip(&self) -> BlockId {
        self.small[0].view.accepted_tip()
    }

    fn carol_tip(&self) -> BlockId {
        self.large[0].view.accepted_tip()
    }

    /// Derives the MDP state from the two group-representative views.
    pub fn current_state(&self) -> AttackState {
        let bt = self.bob_tip();
        let ct = self.carol_tip();
        if bt == ct {
            return AttackState::BASE;
        }
        let fork = self.tree.common_ancestor(bt, ct);
        // Chain 2 is Carol's chain (it starts with Alice's EB_C-sized
        // block); Chain 1 is Bob's.
        let l1 = (self.tree.height(bt) - self.tree.height(fork)) as u8;
        let l2 = (self.tree.height(ct) - self.tree.height(fork)) as u8;
        let count_alice = |tip: BlockId| {
            self.tree
                .ancestors(tip)
                .take_while(|&b| b != fork)
                .filter(|&b| self.tree.block(b).miner == ALICE)
                .count() as u8
        };
        AttackState { l1, l2, a1: count_alice(bt), a2: count_alice(ct), r: 0 }
    }

    /// Every node in a group must hold the identical accepted tip — the
    /// zero-delay, homogeneous-rule invariant the aggregation rests on.
    fn assert_group_coherence(&self) {
        for (name, nodes) in [("small", &self.small), ("large", &self.large)] {
            let tip = nodes[0].view.accepted_tip();
            for (i, n) in nodes.iter().enumerate() {
                assert_eq!(
                    n.view.accepted_tip(),
                    tip,
                    "{name}-group node {i} diverged from its group representative"
                );
            }
        }
    }

    /// Settles rewards once the groups agree again, then checkpoints the
    /// chain world.
    fn settle(&mut self) {
        let bt = self.bob_tip();
        if bt != self.carol_tip() {
            return;
        }
        self.assert_group_coherence();
        // Locked: blocks on the agreed chain above the previous agreement.
        let agreed_h = self.tree.height(self.last_agreed);
        let locked: Vec<BlockId> =
            self.tree.ancestors(bt).take_while(|&b| self.tree.height(b) > agreed_h).collect();
        let mut orphans = 0u8;
        for &b in &self.since_agreement {
            let is_alice = self.tree.block(b).miner == ALICE;
            if locked.contains(&b) {
                if is_alice {
                    self.report.ra += 1.0;
                } else {
                    self.report.rothers += 1.0;
                }
            } else {
                orphans += 1;
                if is_alice {
                    self.report.oa += 1.0;
                } else {
                    self.report.oothers += 1.0;
                }
            }
        }
        self.report.ds += self.model.config().ds_payout(orphans);
        self.since_agreement.clear();
        // Checkpoint: restart the chain world from a fresh genesis. In the
        // gate-less (setting 1) semantics an agreement point is memoryless —
        // buried excessive blocks stay valid forever and future validity
        // depends only on blocks above the agreement — so pruning settled
        // history is behaviour-preserving and keeps every view update
        // O(fork length) instead of O(chain length). The tree and views are
        // reset in place, keeping their allocations; the rules stay.
        self.tree.reset();
        for n in self.small.iter_mut().chain(&mut self.large) {
            n.view.reset();
        }
        self.last_agreed = BlockId::GENESIS;
    }

    /// Runs `steps` blocks and returns the tally.
    ///
    /// # Panics
    /// Panics when a step's successor is not in the MDP row of its state
    /// and the policy's action (see [`successor_id`]).
    pub fn run(&mut self, steps: usize) -> ReplayReport {
        let cfg = self.model.config().clone();
        for _ in 0..steps {
            let state = self.model.state(self.sid);
            let action = Action::from_label(self.policy.label(self.model.mdp(), self.sid));

            // Sample the finder over every individual node; under Wait,
            // Alice's power is excluded and the compliant powers rescale.
            let (pa, scale) = match action {
                Action::Wait => (0.0, 1.0 / (cfg.beta + cfg.gamma)),
                _ => (cfg.alpha, 1.0),
            };
            let x = self.rng.next_f64();
            let (miner, parent, size) = if x < pa {
                // Alice mines according to her action.
                let (parent, size) = match (state.forked(), action) {
                    (_, Action::OnChain1) => (self.bob_tip(), self.eb_b),
                    (false, Action::OnChain2) => (self.bob_tip(), self.eb_c),
                    (true, Action::OnChain2) => (self.carol_tip(), self.eb_b),
                    (_, Action::Wait) => unreachable!("pa = 0 under Wait"),
                };
                (ALICE, parent, size)
            } else {
                // Walk the cumulative per-node distribution; the final
                // node absorbs the float remainder so the walk is total.
                let mut acc = pa;
                let mut pick = None;
                let n_small = self.small.len();
                for (i, n) in self.small.iter().chain(self.large.iter()).enumerate() {
                    acc += n.power * scale;
                    if x < acc {
                        pick = Some(i);
                        break;
                    }
                }
                let i = pick.unwrap_or(n_small + self.large.len() - 1);
                if i < n_small {
                    (MinerId(1 + i), self.bob_tip(), self.eb_b)
                } else {
                    (MinerId(1 + i), self.carol_tip(), self.eb_b)
                }
            };

            let block = self.tree.extend(parent, size, miner);
            for n in self.small.iter_mut().chain(self.large.iter_mut()) {
                n.view.receive(&self.tree, block);
            }
            self.since_agreement.push(block);
            self.report.steps += 1;
            self.settle();

            let next = self.current_state();
            self.sid =
                successor_id(self.model, self.sid, action, &next).unwrap_or_else(|e| panic!("{e}"));
        }
        self.report.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bvc_bu::{AttackConfig, IncentiveModel, SolveOptions};

    fn build(alpha: f64, ratio: (u32, u32), incentive: IncentiveModel) -> AttackModel {
        AttackModel::build(AttackConfig::with_ratio(alpha, ratio, Setting::One, incentive)).unwrap()
    }

    fn compliant(alpha: f64, ratio: (u32, u32)) -> AttackModel {
        build(alpha, ratio, IncentiveModel::CompliantProfitDriven)
    }

    /// Honest mining, on three miners and on a split network.
    #[test]
    fn honest_replay_matches_alpha() {
        let m = compliant(0.2, (1, 1));
        let policy = m.honest_policy();
        for (small, large) in [(&[1.0][..], &[1.0][..]), (&[1.0; 3], &[2.0, 0.5, 0.25, 0.25])] {
            let mut replay = AttackReplay::new(&m, &policy, small, large, 42);
            let report = replay.run(30_000);
            assert!((report.u1() - 0.2).abs() < 0.01, "u1 = {}", report.u1());
            assert_eq!(report.oa + report.oothers, 0.0, "honest mining never forks");
        }
    }

    /// The decisive cross-validation: replaying the *optimal compliant*
    /// policy on the real chain substrate reproduces the exact MDP utility.
    #[test]
    fn optimal_compliant_replay_matches_mdp() {
        let m = compliant(0.25, (1, 1));
        let sol = m.optimal_relative_revenue(&SolveOptions::default()).unwrap();
        let exact = m.evaluate(&sol.policy).unwrap();
        let mut replay = AttackReplay::new(&m, &sol.policy, &[1.0], &[1.0], 7);
        let report = replay.run(400_000);
        assert!(
            (report.u1() - exact.u1).abs() < 0.01,
            "chain-world u1 {} vs MDP {}",
            report.u1(),
            exact.u1
        );
        // And it beats honest mining (Analytical Result 1).
        assert!(report.u1() > 0.255);
    }

    #[test]
    fn non_compliant_replay_matches_mdp() {
        let m = build(0.1, (1, 1), IncentiveModel::non_compliant_default());
        let sol = m.optimal_absolute_revenue(&SolveOptions::default()).unwrap();
        let exact = m.evaluate(&sol.policy).unwrap();
        let mut replay = AttackReplay::new(&m, &sol.policy, &[1.0], &[1.0], 9);
        let report = replay.run(400_000);
        assert!(
            (report.u2() - exact.u2).abs() < 0.02,
            "chain-world u2 {} vs MDP {}",
            report.u2(),
            exact.u2
        );
    }

    #[test]
    fn non_profit_replay_matches_mdp() {
        let m = build(0.05, (1, 1), IncentiveModel::NonProfitDriven);
        let sol = m.optimal_orphan_rate(&SolveOptions::default()).unwrap();
        let exact = m.evaluate(&sol.policy).unwrap();
        let mut replay = AttackReplay::new(&m, &sol.policy, &[1.0], &[1.0], 11);
        let report = replay.run(400_000);
        assert!(
            (report.u3() - exact.u3).abs() < 0.05,
            "chain-world u3 {} vs MDP {}",
            report.u3(),
            exact.u3
        );
    }

    /// The aggregation theorem in executable form: splitting Bob and
    /// Carol into many unequal nodes must not move the optimal policy's
    /// revenue away from the exact MDP value.
    #[test]
    fn optimal_policy_on_a_split_network_matches_mdp() {
        let m = compliant(0.25, (1, 1));
        let sol = m.optimal_relative_revenue(&SolveOptions::default()).unwrap();
        let exact = m.evaluate(&sol.policy).unwrap();
        // 5 + 7 nodes, skewed weights inside each group.
        let small: Vec<f64> = (0..5).map(|i| 1.0 / (i + 1) as f64).collect();
        let large: Vec<f64> = (0..7).map(|i| (i + 1) as f64).collect();
        let mut replay = AttackReplay::new(&m, &sol.policy, &small, &large, 7);
        let report = replay.run(300_000);
        assert!(
            (report.u1() - exact.u1).abs() < 0.01,
            "network u1 {} vs MDP {}",
            report.u1(),
            exact.u1
        );
    }

    /// One node per group is the three-miner world: a network whose
    /// groups split the same powers evenly walks the same dynamics, so
    /// the utilities agree tightly.
    #[test]
    fn degenerates_to_three_miner_replay() {
        let m = compliant(0.3, (3, 2));
        let sol = m.optimal_relative_revenue(&SolveOptions::default()).unwrap();
        let mut net = AttackReplay::new(&m, &sol.policy, &[1.0, 1.0], &[1.0, 1.0, 1.0], 13);
        let net_report = net.run(200_000);
        let mut three = AttackReplay::new(&m, &sol.policy, &[1.0], &[1.0], 13);
        let three_report = three.run(200_000);
        assert!(
            (net_report.u1() - three_report.u1()).abs() < 0.01,
            "network {} vs three-miner {}",
            net_report.u1(),
            three_report.u1()
        );
    }

    #[test]
    fn replay_is_deterministic_per_seed() {
        let m = compliant(0.25, (1, 1));
        let sol = m.optimal_relative_revenue(&SolveOptions::default()).unwrap();
        let run = |seed| {
            let mut r = AttackReplay::new(&m, &sol.policy, &[1.0, 2.0], &[1.0, 1.0, 1.0], seed);
            let rep = r.run(20_000);
            (rep.ra.to_bits(), rep.rothers.to_bits(), rep.oa.to_bits(), rep.oothers.to_bits())
        };
        assert_eq!(run(5), run(5), "same seed must be bit-identical");
        assert_ne!(run(5), run(6), "different seeds must decorrelate");
    }

    /// From the base state, Alice's fork block either opens the fork
    /// (`(0, 1, 0, 1, 0)`) or loses to a compliant block (`BASE`); a
    /// reachable state two blocks away is not in that row.
    #[test]
    fn lockstep_accepts_exactly_the_row_successors() {
        let m = compliant(0.25, (1, 1));
        let base = m.id_of(&AttackState::BASE).unwrap();
        let fork = AttackState { l1: 0, l2: 1, a1: 0, a2: 1, r: 0 };
        assert_eq!(successor_id(&m, base, Action::OnChain2, &fork), Ok(m.id_of(&fork).unwrap()));
        assert_eq!(successor_id(&m, base, Action::OnChain2, &AttackState::BASE), Ok(base));
        let far = AttackState { l1: 0, l2: 2, a1: 0, a2: 2, r: 0 };
        assert!(m.id_of(&far).is_some(), "{far} must be reachable for the check to mean anything");
        let err = successor_id(&m, base, Action::OnChain2, &far).unwrap_err();
        for part in [AttackState::BASE.to_string(), Action::OnChain2.to_string(), far.to_string()] {
            assert!(err.contains(&part), "{err:?} must name {part}");
        }
    }

    #[test]
    #[should_panic(expected = "setting 1 only")]
    fn rejects_setting_two() {
        let m = AttackModel::build(AttackConfig::with_ratio(
            0.2,
            (1, 1),
            Setting::Two,
            IncentiveModel::CompliantProfitDriven,
        ))
        .unwrap();
        let policy = m.honest_policy();
        AttackReplay::new(&m, &policy, &[1.0], &[1.0], 0);
    }

    #[test]
    #[should_panic(expected = "at least one node")]
    fn rejects_empty_group() {
        let m = compliant(0.2, (1, 1));
        let policy = m.honest_policy();
        AttackReplay::new(&m, &policy, &[], &[1.0], 0);
    }
}
