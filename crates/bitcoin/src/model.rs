//! Transition generator for the selfish-mining MDP, with the paper's
//! double-spending extension (§4.3: the baseline of Table 3's bottom panel).
//!
//! Rewards use the same five components as `bvc-bu`:
//! `[R_A, R_others, O_A, O_others, DS]`. Blocks are credited exactly once —
//! when the common ancestor of the two chains advances past them (locked)
//! or when they land strictly off the winning chain (orphaned).

use bvc_mdp::{explore, ActionOutcomes, Expansion, Explored, MdpError};

use crate::state::{Fork, SmAction, SmState};

/// Number of reward components (kept identical to `bvc_bu::rewards`).
pub const COMPONENTS: usize = 5;
/// Attacker's locked blocks.
pub const RA: usize = 0;
/// Honest miners' locked blocks.
pub const ROTHERS: usize = 1;
/// Attacker's orphaned blocks.
pub const OA: usize = 2;
/// Honest miners' orphaned blocks.
pub const OOTHERS: usize = 3;
/// Double-spend payouts, in block rewards.
pub const DS: usize = 4;

/// Configuration of the Bitcoin baseline model.
#[derive(Debug, Clone, PartialEq)]
pub struct BitcoinConfig {
    /// The attacker's mining power share α.
    pub alpha: f64,
    /// Fraction of honest mining power that mines on the attacker's branch
    /// during an active match — the paper's "P(win a tie)".
    pub gamma: f64,
    /// Truncation bound on `a` and `h` (Sapirshtein-style). `40` is ample
    /// for α ≤ 0.45.
    pub cap: u8,
    /// Double-spend payout per settled-and-reversed merchant transaction, in
    /// block rewards. `0` recovers plain selfish mining.
    pub rds: f64,
    /// Settlement threshold: orphaning `k > threshold` honest blocks in one
    /// race pays `(k - threshold) * rds` (the paper uses 3 — four
    /// confirmations).
    pub threshold: u8,
}

impl BitcoinConfig {
    /// Plain selfish mining (no double-spend rewards).
    pub fn selfish_mining(alpha: f64, gamma: f64) -> Self {
        BitcoinConfig { alpha, gamma, cap: 40, rds: 0.0, threshold: 3 }
    }

    /// The paper's combined selfish-mining + double-spending setting:
    /// `R_DS` worth ten block rewards, four confirmations.
    pub fn smds(alpha: f64, gamma: f64) -> Self {
        BitcoinConfig { alpha, gamma, cap: 40, rds: 10.0, threshold: 3 }
    }

    /// The model's preconditions, for front ends that must answer bad
    /// input with an error instead of a panic: `alpha` in `(0, 0.5)`,
    /// `gamma` in `[0, 1]` and a truncation `cap` of at least 4.
    pub fn check(&self) -> Result<(), String> {
        if !(self.alpha > 0.0 && self.alpha < 0.5) {
            return Err(format!("alpha must be in (0, 0.5), got {}", self.alpha));
        }
        if !(0.0..=1.0).contains(&self.gamma) {
            return Err(format!("gamma must be in [0, 1], got {}", self.gamma));
        }
        if self.cap < 4 {
            return Err(format!("cap must be at least 4 to express the model, got {}", self.cap));
        }
        Ok(())
    }

    fn validate(&self) {
        if let Err(why) = self.check() {
            panic!("{why}");
        }
    }

    /// Payout for orphaning `k` honest blocks in one race resolution.
    fn ds_payout(&self, k: u8) -> f64 {
        if k > self.threshold {
            f64::from(k - self.threshold) * self.rds
        } else {
            0.0
        }
    }
}

/// One event's reward vector.
type Reward = [f64; COMPONENTS];

/// The empty reward.
const ZERO: Reward = [0.0; COMPONENTS];

/// Writes the block-discovery events following a *structural* move that left
/// the system in `(a, h, fork)` with pending per-event rewards `base`.
fn discovery(
    cfg: &BitcoinConfig,
    a: u8,
    h: u8,
    fork: Fork,
    base: Reward,
    arm: &mut ActionOutcomes<'_, SmState>,
) {
    let al = cfg.alpha;
    match fork {
        Fork::Active => {
            // Network split: γ of honest power mines on the attacker's
            // published branch of length h.
            // Attacker extends her private chain.
            arm.outcome(SmState { a: a + 1, h, fork: Fork::Active }, al, &base);
            // Honest miner extends the attacker's published branch: her h
            // published blocks lock, the honest h blocks are orphaned, and
            // the race restarts behind the fresh honest block.
            let mut r = base;
            r[RA] += f64::from(h);
            r[OOTHERS] += f64::from(h);
            r[DS] += cfg.ds_payout(h);
            arm.outcome(
                SmState { a: a - h, h: 1, fork: Fork::Relevant },
                cfg.gamma * (1.0 - al),
                &r,
            );
            // Honest miner extends the honest branch.
            arm.outcome(
                SmState { a, h: h + 1, fork: Fork::Relevant },
                (1.0 - cfg.gamma) * (1.0 - al),
                &base,
            );
        }
        _ => {
            arm.outcome(SmState { a: a + 1, h, fork: Fork::Irrelevant }, al, &base);
            arm.outcome(SmState { a, h: h + 1, fork: Fork::Relevant }, 1.0 - al, &base);
        }
    }
}

/// Whether `action` is available in `s` (with truncation forcing resolution
/// at the cap boundary).
pub fn is_available(cfg: &BitcoinConfig, s: &SmState, action: SmAction) -> bool {
    let at_cap = s.a >= cfg.cap || s.h >= cfg.cap;
    match action {
        SmAction::Adopt => s.h >= 1,
        SmAction::Override => s.a > s.h,
        SmAction::Match => !at_cap && s.fork == Fork::Relevant && s.a >= s.h && s.h >= 1,
        SmAction::Wait => !at_cap,
    }
}

/// Expands one state into its actions, written into `sink`.
pub fn expand(cfg: &BitcoinConfig, s: &SmState, sink: &mut Expansion<SmState>) {
    for action in [SmAction::Adopt, SmAction::Override, SmAction::Match, SmAction::Wait] {
        if !is_available(cfg, s, action) {
            continue;
        }
        let mut arm = sink.action(action.label());
        match action {
            SmAction::Adopt => {
                // Honest chain locks; the attacker's private blocks die.
                let mut base = ZERO;
                base[ROTHERS] += f64::from(s.h);
                base[OA] += f64::from(s.a);
                discovery(cfg, 0, 0, Fork::Irrelevant, base, &mut arm);
            }
            SmAction::Override => {
                // Publish h + 1 blocks: they lock, honest h blocks die.
                let mut base = ZERO;
                base[RA] += f64::from(s.h + 1);
                base[OOTHERS] += f64::from(s.h);
                base[DS] += cfg.ds_payout(s.h);
                discovery(cfg, s.a - s.h - 1, 0, Fork::Irrelevant, base, &mut arm);
            }
            SmAction::Match => discovery(cfg, s.a, s.h, Fork::Active, ZERO, &mut arm),
            SmAction::Wait => discovery(cfg, s.a, s.h, s.fork, ZERO, &mut arm),
        }
    }
}

/// A fully built Bitcoin baseline model.
pub struct BitcoinModel {
    cfg: BitcoinConfig,
    explored: Explored<SmState>,
}

impl BitcoinModel {
    /// Builds the reachable state space from the start state.
    pub fn build(cfg: BitcoinConfig) -> Result<Self, MdpError> {
        cfg.validate();
        let explored = explore(COMPONENTS, [SmState::START], |s, sink| expand(&cfg, s, sink))?;
        let model = BitcoinModel { cfg, explored };
        debug_assert!(
            model.audit().passed(),
            "freshly built Bitcoin model failed its static audit:\n{}",
            model.audit().render_text()
        );
        Ok(model)
    }

    /// Runs the static precondition audit over this model (see
    /// [`bvc_mdp::audit`]). The BFS-explored start state is MDP state 0.
    pub fn audit(&self) -> bvc_mdp::AuditReport {
        bvc_mdp::audit_mdp(self.mdp(), &bvc_mdp::AuditOptions::default())
    }

    /// The configuration this model was built from.
    pub fn config(&self) -> &BitcoinConfig {
        &self.cfg
    }

    /// The underlying MDP.
    pub fn mdp(&self) -> &bvc_mdp::Mdp {
        &self.explored.mdp
    }

    /// The typed state behind an MDP index.
    pub fn state(&self, id: bvc_mdp::StateId) -> SmState {
        *self.explored.indexer.state(id)
    }

    /// The MDP index of a typed state, if reachable.
    pub fn id_of(&self, s: &SmState) -> Option<bvc_mdp::StateId> {
        self.explored.indexer.get(s)
    }

    /// Number of reachable states.
    pub fn num_states(&self) -> usize {
        self.explored.mdp.num_states()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bvc_mdp::{expand_one, CollectedAction};

    /// One state's actions as `(label, outcomes)` rows.
    fn rows(cfg: &BitcoinConfig, s: &SmState) -> Vec<CollectedAction<SmState>> {
        expand_one(COMPONENTS, s, |s, sink| expand(cfg, s, sink)).unwrap()
    }

    #[test]
    fn builds_and_validates() {
        let m = BitcoinModel::build(BitcoinConfig::selfish_mining(0.3, 0.5)).unwrap();
        m.mdp().validate().unwrap();
        assert!(m.num_states() > 100);
        // Truncation: no state beyond the cap.
        for id in 0..m.num_states() {
            let s = m.state(id);
            assert!(s.a <= m.config().cap && s.h <= m.config().cap + 1);
        }
    }

    #[test]
    fn match_only_when_relevant_and_leading() {
        let cfg = BitcoinConfig::selfish_mining(0.3, 0.5);
        let s = SmState { a: 2, h: 2, fork: Fork::Relevant };
        assert!(is_available(&cfg, &s, SmAction::Match));
        let s = SmState { a: 2, h: 2, fork: Fork::Irrelevant };
        assert!(!is_available(&cfg, &s, SmAction::Match));
        let s = SmState { a: 1, h: 2, fork: Fork::Relevant };
        assert!(!is_available(&cfg, &s, SmAction::Match));
    }

    #[test]
    fn override_requires_strict_lead() {
        let cfg = BitcoinConfig::selfish_mining(0.3, 0.5);
        let s = SmState { a: 3, h: 2, fork: Fork::Irrelevant };
        assert!(is_available(&cfg, &s, SmAction::Override));
        let s = SmState { a: 2, h: 2, fork: Fork::Irrelevant };
        assert!(!is_available(&cfg, &s, SmAction::Override));
    }

    #[test]
    fn override_rewards_and_ds() {
        let cfg = BitcoinConfig::smds(0.3, 0.5);
        let s = SmState { a: 6, h: 5, fork: Fork::Irrelevant };
        let actions = rows(&cfg, &s);
        let (_, ov) = actions
            .iter()
            .find(|(label, _)| *label == SmAction::Override.label())
            .expect("override available");
        // Both discovery outcomes carry the override's base reward.
        for (next, _, r) in ov {
            assert_eq!(r[RA], 6.0, "h+1 attacker blocks lock");
            assert_eq!(r[OOTHERS], 5.0);
            assert_eq!(r[DS], 20.0, "(5 - 3) * 10");
            assert_eq!(r[OA], 0.0);
            assert!(next.a <= 1);
        }
    }

    #[test]
    fn active_branch_win_grants_published_blocks() {
        let cfg = BitcoinConfig::smds(0.3, 0.5);
        let s = SmState { a: 5, h: 4, fork: Fork::Active };
        let actions = rows(&cfg, &s);
        let (_, wait) = actions
            .iter()
            .find(|(label, _)| *label == SmAction::Wait.label())
            .expect("wait available");
        let win = wait.iter().find(|(n, _, _)| n.h == 1 && n.a == 1).expect("branch-win outcome");
        assert!((win.1 - 0.5 * 0.7).abs() < 1e-12);
        assert_eq!(win.2[RA], 4.0);
        assert_eq!(win.2[OOTHERS], 4.0);
        assert_eq!(win.2[DS], 10.0, "(4 - 3) * 10");
    }

    #[test]
    fn cap_forces_resolution() {
        let cfg = BitcoinConfig { cap: 6, ..BitcoinConfig::selfish_mining(0.3, 0.5) };
        let s = SmState { a: 6, h: 2, fork: Fork::Irrelevant };
        assert!(!is_available(&cfg, &s, SmAction::Wait));
        assert!(is_available(&cfg, &s, SmAction::Override));
    }
}
