//! The attack-MDP transition generator (§4.1.2, Table 1 and its phase-2
//! extension).
//!
//! Each MDP step is the discovery of exactly one block, by Alice (α), Bob
//! (β) or Carol (γ). Rewards are granted when blocks become *locked* — when
//! all miners agree on them — and record five components: Alice's and the
//! others' locked blocks, Alice's and the others' orphaned blocks, and
//! double-spend payouts (see [`crate::rewards`]).
//!
//! ## Resolution rules encoded here
//!
//! * Chain 1 wins as soon as it *outgrows* Chain 2 (`l1 = l2 + 1`); Chain 2
//!   wins as soon as it reaches `AD` blocks.
//! * Phase 1 (`r = 0`): Chain 1 is Bob's chain; Chain 2 starts with Alice's
//!   block of size `EB_C`, and Carol mines on it. A Chain-2 win opens Bob's
//!   sticky gate: the successor is `(0,0,0,0,144)` in setting 2 and the
//!   plain base state in setting 1 (gate disabled).
//! * Phase 2 (`r ≥ 1`): roles swap — Chain 1 is Carol's, Chain 2 starts with
//!   Alice's block just above `EB_C` and Bob mines on it. Locked Chain-1
//!   blocks are non-excessive and reduce `r`; at `r = 0` the gate closes and
//!   the system is back in phase 1. A Chain-2 win opens Carol's gate too
//!   (phase 3), which the model collapses straight back to the base state,
//!   per the paper.

use bvc_mdp::{explore, Expansion, Explored, MdpError};

use crate::config::{AttackConfig, IncentiveModel, Setting};
use crate::rewards::{COMPONENTS, DS, OA, OOTHERS, RA, ROTHERS};
use crate::state::{Action, AttackState};

/// One event's reward vector.
type Reward = [f64; COMPONENTS];

/// The empty reward.
const ZERO: Reward = [0.0; COMPONENTS];

/// One raw event: successor, probability, reward.
type Event = (AttackState, f64, Reward);

/// The raw events of one action — at most three, one per miner.
struct Events {
    len: usize,
    buf: [Event; 3],
}

impl Events {
    fn new() -> Self {
        Events { len: 0, buf: [(AttackState::BASE, 0.0, ZERO); 3] }
    }

    fn push(&mut self, (next, reward): (AttackState, Reward), prob: f64) {
        self.buf[self.len] = (next, prob, reward);
        self.len += 1;
    }

    fn as_slice(&self) -> &[Event] {
        &self.buf[..self.len]
    }
}

/// The double-spend payout for orphaning `k` blocks of the losing chain in
/// one resolution: `(k - threshold) * rds` when `k > threshold`, else zero.
fn ds_payout(cfg: &AttackConfig, k: u8) -> f64 {
    match cfg.incentive {
        IncentiveModel::NonCompliantProfitDriven { rds, threshold } if k > threshold => {
            f64::from(k - threshold) * rds
        }
        _ => 0.0,
    }
}

/// Decrement the sticky-gate countdown by `n` locked non-excessive blocks.
/// In phase 1 (`r = 0`) the countdown is absent and stays zero.
fn dec_r(r: u16, n: u16) -> u16 {
    r.saturating_sub(n)
}

/// The event of one more block on Chain 1 (mined by Alice iff `alice`).
fn chain1_grow(cfg: &AttackConfig, s: AttackState, alice: bool) -> (AttackState, Reward) {
    let l1 = s.l1 + 1;
    let a1 = s.a1 + u8::from(alice);
    if l1 > s.l2 {
        // Chain 1 outgrows Chain 2: everyone adopts Chain 1. Its blocks are
        // locked; Chain 2's are orphaned.
        let mut reward = ZERO;
        reward[RA] = f64::from(a1);
        reward[ROTHERS] = f64::from(l1 - a1);
        reward[OA] = f64::from(s.a2);
        reward[OOTHERS] = f64::from(s.l2 - s.a2);
        reward[DS] = ds_payout(cfg, s.l2);
        // Locked Chain-1 blocks are non-excessive: in phase 2 they advance
        // Bob's gate-closure countdown.
        (AttackState::base(dec_r(s.r, u16::from(l1))), reward)
    } else {
        (AttackState { l1, a1, ..s }, ZERO)
    }
}

/// The event of one more block on Chain 2 (mined by Alice iff `alice`).
fn chain2_grow(cfg: &AttackConfig, s: AttackState, alice: bool) -> (AttackState, Reward) {
    let l2 = s.l2 + 1;
    let a2 = s.a2 + u8::from(alice);
    // The rejecting miner's acceptance depth governs the resolution: Bob's
    // in phase 1, Carol's in phase 2 (heterogeneous-AD extension; the two
    // coincide in the paper's model).
    let resolving_ad = if s.phase2() { cfg.ad_carol } else { cfg.ad };
    if l2 >= resolving_ad {
        // Chain 2 reaches the acceptance depth: the rejecting miner adopts
        // it wholesale and opens their sticky gate.
        let mut reward = ZERO;
        reward[RA] = f64::from(a2);
        reward[ROTHERS] = f64::from(l2 - a2);
        reward[OA] = f64::from(s.a1);
        reward[OOTHERS] = f64::from(s.l1 - s.a1);
        reward[DS] = ds_payout(cfg, s.l1);
        let next = if s.phase2() {
            // Phase-2 fork resolved for Chain 2: Carol's gate opens too —
            // phase 3, which the model collapses back to the base state.
            AttackState::BASE
        } else {
            match cfg.setting {
                Setting::One => AttackState::BASE,
                Setting::Two => AttackState::base(cfg.gate_blocks),
            }
        };
        (next, reward)
    } else {
        (AttackState { l2, a2, ..s }, ZERO)
    }
}

/// The event of one more locked block on the common (unforked) chain.
fn common_grow(s: AttackState, alice: bool) -> (AttackState, Reward) {
    debug_assert!(!s.forked());
    let mut reward = ZERO;
    if alice {
        reward[RA] = 1.0;
    } else {
        reward[ROTHERS] = 1.0;
    }
    (AttackState::base(dec_r(s.r, 1)), reward)
}

/// Merges events with the same successor into single transitions with
/// probability-weighted rewards — the exact "merged row" form of the paper's
/// Table 1. Works in place: the merged rows keep the order of each
/// successor's first event, and zero-probability events are dropped.
fn merge(events: &mut Events) {
    let mut len = 0;
    for i in 0..events.len {
        let (next, p, r) = events.buf[i];
        if p == 0.0 {
            continue;
        }
        if let Some(slot) = events.buf[..len].iter_mut().find(|(n, _, _)| *n == next) {
            // Weighted average of rewards, conditioned on the merged event.
            let total = slot.1 + p;
            for (acc, x) in slot.2.iter_mut().zip(&r) {
                *acc = (*acc * slot.1 + x * p) / total;
            }
            slot.1 = total;
        } else {
            events.buf[len] = (next, p, r);
            len += 1;
        }
    }
    events.len = len;
}

/// Enumerates the raw events of one action in one state.
fn action_events(cfg: &AttackConfig, s: AttackState, action: Action) -> Events {
    let (alpha, beta, gamma) = (cfg.alpha, cfg.beta, cfg.gamma);
    let mut ev = Events::new();
    if !s.forked() {
        // Common chain. OnChain2 means Alice tries to mine the fork block.
        match action {
            Action::OnChain1 => {
                ev.push(common_grow(s, true), alpha);
                ev.push(common_grow(s, false), beta + gamma);
            }
            Action::OnChain2 => {
                ev.push((AttackState { l2: 1, a2: 1, ..s }, ZERO), alpha);
                ev.push(common_grow(s, false), beta + gamma);
            }
            Action::Wait => ev.push(common_grow(s, false), 1.0),
        }
    } else {
        // Forked. Which compliant miner works on which chain depends on the
        // phase: in phase 1 Bob (β) defends Chain 1 and Carol (γ) extends
        // Chain 2; in phase 2 the roles are swapped.
        let (p_c1, p_c2) = if s.phase2() { (gamma, beta) } else { (beta, gamma) };
        match action {
            Action::OnChain1 | Action::OnChain2 => {
                let alice = if action == Action::OnChain1 {
                    chain1_grow(cfg, s, true)
                } else {
                    chain2_grow(cfg, s, true)
                };
                ev.push(alice, alpha);
                ev.push(chain1_grow(cfg, s, false), p_c1);
                ev.push(chain2_grow(cfg, s, false), p_c2);
            }
            Action::Wait => {
                let total = p_c1 + p_c2;
                ev.push(chain1_grow(cfg, s, false), p_c1 / total);
                ev.push(chain2_grow(cfg, s, false), p_c2 / total);
            }
        }
    }
    ev
}

/// Expands one state into its actions (merged rows), written into `sink`.
pub fn expand(cfg: &AttackConfig, s: &AttackState, sink: &mut Expansion<AttackState>) {
    let actions: &[Action] = if cfg.incentive.allows_wait() {
        &[Action::OnChain1, Action::OnChain2, Action::Wait]
    } else {
        &[Action::OnChain1, Action::OnChain2]
    };
    for &action in actions {
        let mut events = action_events(cfg, *s, action);
        merge(&mut events);
        let mut arm = sink.action(action.label());
        for (next, p, r) in events.as_slice() {
            arm.outcome(*next, *p, r);
        }
    }
}

/// A fully built attack model: the explored MDP plus its configuration.
pub struct AttackModel {
    cfg: AttackConfig,
    explored: Explored<AttackState>,
}

impl AttackModel {
    /// Builds the reachable state space from the base state.
    pub fn build(cfg: AttackConfig) -> Result<Self, MdpError> {
        cfg.validate();
        let explored = explore(COMPONENTS, [AttackState::BASE], |s, sink| expand(&cfg, s, sink))?;
        let model = AttackModel { cfg, explored };
        debug_assert!(
            model.audit().passed(),
            "freshly built attack model failed its static audit:\n{}",
            model.audit().render_text()
        );
        Ok(model)
    }

    /// Runs the static precondition audit over this model (numeric
    /// invariants, reachability, unichain certification — see
    /// [`bvc_mdp::audit`]). The BFS-explored base state is MDP state 0.
    pub fn audit(&self) -> bvc_mdp::AuditReport {
        bvc_mdp::audit_compiled(self.mdp(), &bvc_mdp::AuditOptions::default())
    }

    /// The configuration this model was built from.
    pub fn config(&self) -> &AttackConfig {
        &self.cfg
    }

    /// The underlying MDP.
    pub fn mdp(&self) -> &bvc_mdp::CompiledMdp {
        &self.explored.mdp
    }

    /// The typed state behind an MDP state index.
    pub fn state(&self, id: bvc_mdp::StateId) -> AttackState {
        *self.explored.indexer.state(id)
    }

    /// The MDP index of a typed state, if reachable.
    pub fn id_of(&self, s: &AttackState) -> Option<bvc_mdp::StateId> {
        self.explored.indexer.get(s)
    }

    /// Number of reachable states.
    pub fn num_states(&self) -> usize {
        self.explored.mdp.num_states()
    }

    /// Iterates `(state, global arm indices)` over the whole model, in id
    /// order (see [`bvc_mdp::CompiledMdp::arm_range`]).
    pub fn iter(&self) -> impl Iterator<Item = (AttackState, std::ops::Range<usize>)> + '_ {
        self.explored.indexer.iter().map(|(id, s)| (*s, self.explored.mdp.arm_range(id)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{AttackConfig, IncentiveModel, Setting};

    fn cfg(setting: Setting, incentive: IncentiveModel) -> AttackConfig {
        AttackConfig::with_ratio(0.2, (1, 1), setting, incentive)
    }

    #[test]
    fn setting1_reaches_only_phase1_states() {
        let m =
            AttackModel::build(cfg(Setting::One, IncentiveModel::CompliantProfitDriven)).unwrap();
        for (s, _) in m.iter() {
            assert_eq!(s.r, 0, "phase-2 state {s} reachable in setting 1");
            assert!(s.l1 <= s.l2, "impossible fork geometry {s}");
            assert!(s.l2 < 6, "unresolved chain 2 at AD in {s}");
            assert!(s.a1 <= s.l1 && s.a2 <= s.l2);
            if s.forked() {
                assert!(s.a2 >= 1, "chain 2 must start with Alice's block: {s}");
            }
        }
    }

    #[test]
    fn setting2_reaches_phase2() {
        let m =
            AttackModel::build(cfg(Setting::Two, IncentiveModel::CompliantProfitDriven)).unwrap();
        assert!(m.iter().any(|(s, _)| s.phase2()));
        assert!(m.id_of(&AttackState::base(144)).is_some());
        // Countdown values above the initial 144 are impossible.
        for (s, _) in m.iter() {
            assert!(s.r <= 144);
        }
    }

    #[test]
    fn state_count_matches_combinatorics_setting1() {
        // For AD = 6: base + sum over l2 in 1..=5, l1 in 0..=l2, a1 in
        // 0..=l1, a2 in 1..=l2. But unreachable corners may exist; the
        // formula is an upper bound and the base must be reachable.
        let m =
            AttackModel::build(cfg(Setting::One, IncentiveModel::CompliantProfitDriven)).unwrap();
        let mut bound = 1usize;
        for l2 in 1..=5u32 {
            for l1 in 0..=l2 {
                bound += ((l1 + 1) * l2) as usize;
            }
        }
        assert!(m.num_states() <= bound, "{} > {}", m.num_states(), bound);
        assert!(m.num_states() > 100, "suspiciously small: {}", m.num_states());
    }

    #[test]
    fn wait_action_present_only_for_non_profit() {
        let m = AttackModel::build(cfg(Setting::One, IncentiveModel::NonProfitDriven)).unwrap();
        let base = m.id_of(&AttackState::BASE).unwrap();
        assert_eq!(m.mdp().num_arms_of(base), 3);
        let m2 =
            AttackModel::build(cfg(Setting::One, IncentiveModel::CompliantProfitDriven)).unwrap();
        let base2 = m2.id_of(&AttackState::BASE).unwrap();
        assert_eq!(m2.mdp().num_arms_of(base2), 2);
    }

    #[test]
    fn base_onchain1_is_single_merged_row() {
        // Table 1, first row: (0,0,0,0) --OnChain1--> (0,0,0,0) w.p. 1,
        // reward (α, β + γ).
        let c = cfg(Setting::One, IncentiveModel::CompliantProfitDriven);
        let m = AttackModel::build(c.clone()).unwrap();
        let base = m.id_of(&AttackState::BASE).unwrap();
        let arm = m.mdp().arm_range(base).start + Action::OnChain1.label();
        let transitions: Vec<_> = m.mdp().transitions(arm).collect();
        assert_eq!(transitions.len(), 1);
        let (to, prob, reward) = transitions[0];
        assert_eq!(m.state(to), AttackState::BASE);
        assert!((prob - 1.0).abs() < 1e-12);
        assert!((reward[RA] - c.alpha).abs() < 1e-12);
        assert!((reward[ROTHERS] - (c.beta + c.gamma)).abs() < 1e-12);
    }

    #[test]
    fn base_onchain2_forks_with_alpha() {
        let c = cfg(Setting::One, IncentiveModel::CompliantProfitDriven);
        let m = AttackModel::build(c.clone()).unwrap();
        let base = m.id_of(&AttackState::BASE).unwrap();
        let arm = m.mdp().arm_range(base).start + Action::OnChain2.label();
        assert_eq!(m.mdp().transition_range(arm).len(), 2);
        let (_, prob, reward) = m
            .mdp()
            .transitions(arm)
            .find(|&(to, _, _)| m.state(to) == AttackState { l1: 0, l2: 1, a1: 0, a2: 1, r: 0 })
            .expect("fork transition");
        assert!((prob - c.alpha).abs() < 1e-12);
        assert!(reward.iter().all(|&x| x == 0.0));
    }

    #[test]
    fn chain2_win_orphans_chain1_and_pays_ds() {
        // State (4, 5, 0, 1) with AD = 6: Carol's block resolves Chain 2,
        // orphaning 4 Chain-1 blocks => DS = (4 - 3) * 10 = 10.
        let c = cfg(Setting::One, IncentiveModel::non_compliant_default());
        let s = AttackState { l1: 4, l2: 5, a1: 0, a2: 1, r: 0 };
        let (next, reward) = chain2_grow(&c, s, false);
        assert_eq!(next, AttackState::BASE);
        assert_eq!(reward[RA], 1.0);
        assert_eq!(reward[ROTHERS], 5.0);
        assert_eq!(reward[OA], 0.0);
        assert_eq!(reward[OOTHERS], 4.0);
        assert_eq!(reward[DS], 10.0);
    }

    #[test]
    fn chain2_win_in_setting2_opens_gate() {
        let c = cfg(Setting::Two, IncentiveModel::CompliantProfitDriven);
        let s = AttackState { l1: 0, l2: 5, a1: 0, a2: 1, r: 0 };
        let (next, _) = chain2_grow(&c, s, false);
        assert_eq!(next, AttackState::base(144));
    }

    #[test]
    fn phase2_chain1_win_decrements_gate() {
        let c = cfg(Setting::Two, IncentiveModel::CompliantProfitDriven);
        let s = AttackState { l1: 2, l2: 2, a1: 0, a2: 1, r: 100 };
        let (next, reward) = chain1_grow(&c, s, false);
        assert_eq!(next, AttackState::base(97)); // r - l1' = 100 - 3
        assert_eq!(reward[ROTHERS], 3.0);
        assert_eq!(reward[OOTHERS], 1.0); // Carol's... chain-2 non-Alice block
        assert_eq!(reward[OA], 1.0);
    }

    #[test]
    fn phase2_chain2_win_collapses_phase3_to_base() {
        let c = cfg(Setting::Two, IncentiveModel::CompliantProfitDriven);
        let s = AttackState { l1: 1, l2: 5, a1: 0, a2: 1, r: 100 };
        let (next, _) = chain2_grow(&c, s, false);
        assert_eq!(next, AttackState::BASE);
    }

    #[test]
    fn gate_countdown_clamps_at_zero() {
        let c = cfg(Setting::Two, IncentiveModel::CompliantProfitDriven);
        let s = AttackState { l1: 3, l2: 3, a1: 0, a2: 1, r: 2 };
        let (next, _) = chain1_grow(&c, s, false);
        assert_eq!(next, AttackState::BASE); // saturates, back to phase 1
    }

    #[test]
    fn phase2_roles_swap() {
        // In phase 2 Carol (γ) extends Chain 1 and Bob (β) extends Chain 2.
        let mut c = cfg(Setting::Two, IncentiveModel::CompliantProfitDriven);
        c.beta = 0.5;
        c.gamma = 0.3;
        let s = AttackState { l1: 0, l2: 1, a1: 0, a2: 1, r: 50 };
        let ev = action_events(&c, s, Action::OnChain1);
        let ev = ev.as_slice();
        // Events: Alice on C1 (α), Carol on C1 (γ), Bob on C2 (β).
        let c1_other = ev
            .iter()
            .find(|(n, _, _)| n.l1 == 1 && n.a1 == 0 && n.l2 == 1)
            .expect("other miner on chain 1");
        assert!((c1_other.1 - c.gamma).abs() < 1e-12);
        let c2_other = ev.iter().find(|(n, _, _)| n.l2 == 2).expect("on chain 2");
        assert!((c2_other.1 - c.beta).abs() < 1e-12);
    }

    #[test]
    fn probabilities_sum_to_one_everywhere() {
        for setting in [Setting::One, Setting::Two] {
            let m = AttackModel::build(cfg(setting, IncentiveModel::NonProfitDriven)).unwrap();
            for arm in 0..m.mdp().num_arms() {
                let sum: f64 = m.mdp().transitions(arm).map(|(_, p, _)| p).sum();
                assert!(
                    (sum - 1.0).abs() <= bvc_mdp::model::PROB_SUM_TOLERANCE,
                    "arm {arm}: {sum}"
                );
            }
        }
    }
}
