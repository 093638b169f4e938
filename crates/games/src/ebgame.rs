//! The **EB choosing game** (§5.1): under the assumption that any EB value
//! is equally profitable, do miners converge on a common EB?
//!
//! `n` miners with positive power shares each choose one of two EB values.
//! The side holding the larger total power wins: its members split the
//! mining rewards in proportion to their power; the losing side earns
//! nothing; an exact power tie is "a bad situation for all miners" and pays
//! everyone zero. The paper's Analytical Result 4: the Nash equilibria are
//! exactly the unanimous profiles (when every miner is below 50%), which is
//! why the paper's April-2017 snapshot — everyone at `EB = 1 MB` — was
//! stable, and why the equilibrium says nothing about *which* EB emerges.

/// Numeric guard for exact power ties.
const TIE_EPS: f64 = 1e-12;

/// Default miner-count cap for [`EbChoosingGame::enumerate_equilibria`]
/// (2^n profiles are visited; 20 keeps a call under ~a million checks).
pub const ENUM_CAP: usize = 20;

/// Default miner-count cap for
/// [`EbChoosingGame::minimal_flipping_coalition`] (2^n coalitions, each
/// with a best-response playout).
pub const COALITION_CAP: usize = 16;

/// An exhaustive analysis was refused because it would be exponential in
/// the miner count: `2^miners` exceeds what the `cap` allows. Callers
/// decide whether to fall back to an analytic shortcut, a bounded search,
/// or an error response.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TooManyMiners {
    /// Number of miners in the game.
    pub miners: usize,
    /// The cap the analysis was invoked with.
    pub cap: usize,
}

impl std::fmt::Display for TooManyMiners {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "exhaustive analysis over 2^{} profiles refused: {} miners exceeds the cap of {}",
            self.miners, self.miners, self.cap
        )
    }
}

impl std::error::Error for TooManyMiners {}

/// The EB choosing game: miners' power shares (positive, summing to 1).
#[derive(Debug, Clone)]
pub struct EbChoosingGame {
    powers: Vec<f64>,
}

/// A pure strategy profile: `choice[i]` is miner `i`'s EB pick (0 or 1).
pub type Profile = Vec<u8>;

/// Where best-response dynamics settle after a perturbation of a unanimous
/// profile (see [`EbChoosingGame::perturb_and_converge`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    /// The network returned to the original EB.
    Restored,
    /// The whole network flipped to the perturbers' EB.
    Flipped,
    /// The dynamics reached a non-unanimous equilibrium (cannot happen
    /// with every miner below 50%; listed for completeness).
    Split,
    /// The dynamics cycled without settling.
    NoConvergence,
}

impl EbChoosingGame {
    /// Every parameter name [`EbChoosingGame::shares_from_params`] reads.
    pub const PARAMS: [&'static str; 1] = ["powers"];

    /// The EB-share schema of serve's `GET /v1/games/eb` and `bvc games
    /// eb`: the required comma-separated `powers` list, each share
    /// positive and finite, summing to 1 within `1e-6`, and renormalized
    /// so well-formed shares can never trip [`EbChoosingGame::new`]'s
    /// exact-sum assertion. The share count is the caller's cap.
    pub fn shares_from_params<'a>(
        get: impl Fn(&str) -> Option<&'a str>,
    ) -> Result<Vec<f64>, String> {
        let raw = get("powers").ok_or("powers is required (comma-separated shares)")?;
        let mut powers = Vec::new();
        for part in raw.split(',') {
            let text = part.trim();
            let p: f64 = text.parse().map_err(|_| format!("invalid number {text:?} for powers"))?;
            if p <= 0.0 || !p.is_finite() {
                return Err(format!("powers must be positive and finite, got {part:?}"));
            }
            powers.push(p);
        }
        let sum: f64 = powers.iter().sum();
        if (sum - 1.0).abs() > 1e-6 {
            return Err(format!("powers must sum to 1 (got {sum})"));
        }
        for p in &mut powers {
            *p /= sum;
        }
        Ok(powers)
    }

    /// Creates the game.
    ///
    /// # Panics
    /// Panics if any share is non-positive or the shares do not sum to 1.
    pub fn new(powers: Vec<f64>) -> Self {
        assert!(!powers.is_empty(), "need at least one miner");
        assert!(powers.iter().all(|&m| m > 0.0), "shares must be positive");
        let sum: f64 = powers.iter().sum();
        assert!((sum - 1.0).abs() < 1e-9, "shares must sum to 1, got {sum}");
        EbChoosingGame { powers }
    }

    /// Number of miners.
    pub fn num_miners(&self) -> usize {
        self.powers.len()
    }

    /// The miners' power shares.
    pub fn powers(&self) -> &[f64] {
        &self.powers
    }

    /// Total power choosing each EB value under `profile`.
    pub fn masses(&self, profile: &Profile) -> (f64, f64) {
        let mut m = [0.0f64; 2];
        for (i, &c) in profile.iter().enumerate() {
            m[usize::from(c)] += self.powers[i];
        }
        (m[0], m[1])
    }

    /// The utility of every miner under `profile` (Sect. 5.1.1): winners
    /// split 1 in proportion to power, losers and tied profiles get 0.
    pub fn utilities(&self, profile: &Profile) -> Vec<f64> {
        assert_eq!(profile.len(), self.powers.len());
        let (m0, m1) = self.masses(profile);
        if (m0 - m1).abs() < TIE_EPS {
            return vec![0.0; self.powers.len()];
        }
        let winner: u8 = if m0 > m1 { 0 } else { 1 };
        let mass = if winner == 0 { m0 } else { m1 };
        profile
            .iter()
            .enumerate()
            .map(|(i, &c)| if c == winner { self.powers[i] / mass } else { 0.0 })
            .collect()
    }

    /// Miner `i`'s best response to the others' choices: the EB value that
    /// maximizes `i`'s utility (ties keep the current choice).
    pub fn best_response(&self, i: usize, profile: &Profile) -> u8 {
        let mut alt = profile.clone();
        alt[i] = 1 - profile[i];
        let here = self.utilities(profile)[i];
        let there = self.utilities(&alt)[i];
        if there > here {
            alt[i]
        } else {
            profile[i]
        }
    }

    /// Whether `profile` is a pure Nash equilibrium.
    pub fn is_nash(&self, profile: &Profile) -> bool {
        (0..self.powers.len()).all(|i| self.best_response(i, profile) == profile[i])
    }

    /// Exhaustively enumerates all pure Nash equilibria, refusing games
    /// above [`ENUM_CAP`] miners (the search visits `2^n` profiles).
    pub fn enumerate_equilibria(&self) -> Result<Vec<Profile>, TooManyMiners> {
        self.enumerate_equilibria_capped(ENUM_CAP)
    }

    /// Like [`EbChoosingGame::enumerate_equilibria`] with an explicit
    /// miner-count cap — front ends bound per-request work with it.
    pub fn enumerate_equilibria_capped(&self, cap: usize) -> Result<Vec<Profile>, TooManyMiners> {
        let n = self.powers.len();
        if n > cap.min(62) {
            return Err(TooManyMiners { miners: n, cap: cap.min(62) });
        }
        let mut out = Vec::new();
        for bits in 0u64..(1 << n) {
            let profile: Profile = (0..n).map(|i| ((bits >> i) & 1) as u8).collect();
            if self.is_nash(&profile) {
                out.push(profile);
            }
        }
        Ok(out)
    }

    /// Perturbs the all-zeros unanimity by flipping the miners in `flipped`
    /// to EB 1, runs best-response dynamics, and reports where the system
    /// settles. Used by the fragility analysis (§6.2: the emergent
    /// consensus "is easily disrupted even when it holds").
    pub fn perturb_and_converge(&self, flipped: &[usize]) -> Outcome {
        let mut profile: Profile = vec![0; self.powers.len()];
        for &i in flipped {
            profile[i] = 1;
        }
        let (end, nash) = self.best_response_dynamics(profile, 100);
        if !nash {
            return Outcome::NoConvergence;
        }
        if end.iter().all(|&c| c == 0) {
            Outcome::Restored
        } else if end.iter().all(|&c| c == 1) {
            Outcome::Flipped
        } else {
            Outcome::Split
        }
    }

    /// The size of the smallest coalition whose joint EB deviation flips
    /// the entire network to the new value (by exhaustive subset search,
    /// refused above [`COALITION_CAP`] miners). This is the paper's
    /// fragility made concrete: with 2017-style pool concentration, a
    /// handful of pools suffice.
    pub fn minimal_flipping_coalition(&self) -> Result<Option<usize>, TooManyMiners> {
        self.minimal_flipping_coalition_capped(COALITION_CAP)
    }

    /// Like [`EbChoosingGame::minimal_flipping_coalition`] with an explicit
    /// miner-count cap on the exponential subset search.
    pub fn minimal_flipping_coalition_capped(
        &self,
        cap: usize,
    ) -> Result<Option<usize>, TooManyMiners> {
        let n = self.powers.len();
        if n > cap.min(62) {
            return Err(TooManyMiners { miners: n, cap: cap.min(62) });
        }
        let mut best: Option<usize> = None;
        for mask in 1u64..(1 << n) {
            let size = mask.count_ones() as usize;
            if best.is_some_and(|b| size >= b) {
                continue;
            }
            let flipped: Vec<usize> = (0..n).filter(|i| (mask >> i) & 1 == 1).collect();
            if self.perturb_and_converge(&flipped) == Outcome::Flipped {
                best = Some(size);
            }
        }
        Ok(best)
    }

    /// A deterministic greedy *upper bound* on the minimal flipping
    /// coalition for games too large for the exhaustive search: flip the
    /// `k` most powerful miners for growing `k` until the network follows.
    /// Returns the flipped miner indices, or `None` if even flipping
    /// everyone but one miner fails to move the consensus.
    pub fn greedy_flipping_coalition(&self) -> Option<Vec<usize>> {
        let n = self.powers.len();
        let mut by_power: Vec<usize> = (0..n).collect();
        // Stable order on exact power ties: lower index first.
        by_power.sort_by(|&a, &b| self.powers[b].total_cmp(&self.powers[a]).then(a.cmp(&b)));
        for k in 1..n {
            let flipped = &by_power[..k];
            if self.perturb_and_converge(flipped) == Outcome::Flipped {
                let mut coalition = flipped.to_vec();
                coalition.sort_unstable();
                return Some(coalition);
            }
        }
        None
    }

    /// Runs best-response dynamics from `start` until a fixed point or the
    /// sweep budget runs out; returns the final profile and whether it is a
    /// Nash equilibrium.
    pub fn best_response_dynamics(&self, start: Profile, max_sweeps: usize) -> (Profile, bool) {
        let mut profile = start;
        for _ in 0..max_sweeps {
            let mut changed = false;
            for i in 0..self.powers.len() {
                let br = self.best_response(i, &profile);
                if br != profile[i] {
                    profile[i] = br;
                    changed = true;
                }
            }
            if !changed {
                return (profile.clone(), self.is_nash(&profile));
            }
        }
        let nash = self.is_nash(&profile);
        (profile, nash)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn game(shares: &[f64]) -> EbChoosingGame {
        EbChoosingGame::new(shares.to_vec())
    }

    #[test]
    fn unanimity_pays_proportionally() {
        let g = game(&[0.2, 0.3, 0.5]);
        let u = g.utilities(&vec![0, 0, 0]);
        assert_eq!(u, vec![0.2, 0.3, 0.5]);
    }

    #[test]
    fn losers_get_nothing() {
        let g = game(&[0.2, 0.3, 0.5]);
        // Miner 2 (50%) alone vs the 0.5 coalition: exact tie -> all zero.
        let u = g.utilities(&vec![0, 0, 1]);
        assert_eq!(u, vec![0.0, 0.0, 0.0]);
        // Miner 0 alone loses to the 0.8 coalition.
        let u = g.utilities(&vec![1, 0, 0]);
        assert_eq!(u[0], 0.0);
        assert!((u[1] - 0.3 / 0.8).abs() < 1e-12);
        assert!((u[2] - 0.5 / 0.8).abs() < 1e-12);
    }

    /// Analytical Result 4: with every miner below 50%, the pure Nash
    /// equilibria are exactly the two unanimous profiles.
    #[test]
    fn equilibria_are_exactly_unanimity() {
        let g = game(&[0.1, 0.15, 0.3, 0.45]);
        let mut eq = g.enumerate_equilibria().unwrap();
        eq.sort();
        assert_eq!(eq, vec![vec![0, 0, 0, 0], vec![1, 1, 1, 1]]);
    }

    /// The paper's NE proof needs every miner below 50%. With a strict
    /// majority miner the game has *no* pure equilibrium at all: the
    /// majority miner always profits from defecting to win alone (utility
    /// 1 > its share), and every loser profits from rejoining the majority —
    /// an endless cycle.
    #[test]
    fn majority_miner_destroys_all_equilibria() {
        let g = game(&[0.6, 0.25, 0.15]);
        assert!(g.enumerate_equilibria().unwrap().is_empty());
        // Unanimity specifically is not a NE: the 60% miner defects.
        assert!(!g.is_nash(&vec![0, 0, 0]));
        assert_eq!(g.best_response(0, &vec![0, 0, 0]), 1);
    }

    #[test]
    fn best_response_joins_winning_side() {
        let g = game(&[0.2, 0.3, 0.5]);
        assert_eq!(g.best_response(0, &vec![1, 0, 0]), 0);
        // A winner stays.
        assert_eq!(g.best_response(2, &vec![0, 0, 0]), 0);
    }

    #[test]
    fn dynamics_converge_to_unanimity() {
        let g = game(&[0.1, 0.2, 0.3, 0.4]);
        let (profile, nash) = g.best_response_dynamics(vec![0, 1, 0, 1], 100);
        assert!(nash);
        assert!(profile.iter().all(|&c| c == profile[0]), "profile {profile:?}");
    }

    #[test]
    #[should_panic(expected = "shares must sum to 1")]
    fn rejects_bad_shares() {
        game(&[0.5, 0.1]);
    }

    /// Fragility: flipping a sub-majority coalition is restored; flipping a
    /// majority coalition drags the whole network to the new EB.
    #[test]
    fn perturbations_resolve_by_power_majority() {
        let g = game(&[0.1, 0.2, 0.3, 0.4]);
        // 0.1 + 0.2 = 30% < 50%: restored.
        assert_eq!(g.perturb_and_converge(&[0, 1]), Outcome::Restored);
        // 0.3 + 0.4 = 70% > 50%: everyone flips.
        assert_eq!(g.perturb_and_converge(&[2, 3]), Outcome::Flipped);
        // Single 40% miner: restored.
        assert_eq!(g.perturb_and_converge(&[3]), Outcome::Restored);
    }

    /// The minimal flipping coalition is the smallest set of miners with
    /// joint power above one half.
    #[test]
    fn minimal_flipping_coalition_matches_majority() {
        let g = game(&[0.1, 0.2, 0.3, 0.4]);
        // {2, 3} holds 70%: two miners suffice; no single miner does
        // (each defector returns before anyone has an incentive to follow).
        assert_eq!(g.minimal_flipping_coalition(), Ok(Some(2)));
        // With a near-majority miner the consensus is even more brittle:
        // the 49% miner itself cannot flip the network (it returns,
        // restoring unanimity)...
        let g = game(&[0.49, 0.17, 0.17, 0.17]);
        assert_eq!(g.perturb_and_converge(&[0]), Outcome::Restored);
        // ...but a single 17% defector can! The 49% miner prefers the
        // *smaller* winning coalition (0.49/0.66 of the rewards instead of
        // 0.49/0.83) and joins the defector; the remaining miners follow.
        // (With the deterministic sweep order, the cascade locks in when
        // another small miner moves before the defector reconsiders —
        // miner 2's defection flips the network.) The "emergent consensus"
        // is one small miner's whim away from a network-wide EB change.
        assert_eq!(g.perturb_and_converge(&[2]), Outcome::Flipped);
        assert_eq!(g.minimal_flipping_coalition(), Ok(Some(1)));
    }

    /// On the 2017-style pool distribution, four pools can flip the
    /// network's EB — the fragility behind §6.2.
    #[test]
    fn pool_concentration_fragility() {
        let g = game(&[0.17, 0.13, 0.10, 0.10, 0.08, 0.07, 0.06, 0.29]);
        let k = g.minimal_flipping_coalition().unwrap().unwrap();
        assert!(k <= 3, "with a 29% aggregate group, 3 parties suffice, got {k}");
    }

    /// Past the cap, the exhaustive analyses return a structured error
    /// instead of attempting 2^n work (the old behaviour was an assert).
    #[test]
    fn exhaustive_analyses_refuse_past_the_cap() {
        let n = 24;
        let g = game(&vec![1.0 / n as f64; n]);
        assert_eq!(g.enumerate_equilibria(), Err(TooManyMiners { miners: n, cap: ENUM_CAP }));
        assert_eq!(
            g.minimal_flipping_coalition(),
            Err(TooManyMiners { miners: n, cap: COALITION_CAP })
        );
        // An explicit cap tightens the bound further.
        let small = game(&[0.1, 0.2, 0.3, 0.4]);
        assert_eq!(small.enumerate_equilibria_capped(3), Err(TooManyMiners { miners: 4, cap: 3 }));
        assert!(small.enumerate_equilibria_capped(4).is_ok());
    }

    /// The greedy bound agrees with the exhaustive search when the most
    /// powerful miners form a minimal coalition, and always flips when it
    /// returns a coalition.
    #[test]
    fn greedy_coalition_is_a_valid_upper_bound() {
        let g = game(&[0.1, 0.2, 0.3, 0.4]);
        let coalition = g.greedy_flipping_coalition().unwrap();
        assert_eq!(coalition, vec![2, 3]);
        assert_eq!(g.perturb_and_converge(&coalition), Outcome::Flipped);
        // 40 equal miners: far beyond the exhaustive cap, the greedy bound
        // still terminates and flips with a bare majority.
        let n = 40;
        let g = game(&vec![1.0 / n as f64; n]);
        let coalition = g.greedy_flipping_coalition().unwrap();
        assert_eq!(g.perturb_and_converge(&coalition), Outcome::Flipped);
        assert!(coalition.len() <= n / 2 + 1);
    }
}
