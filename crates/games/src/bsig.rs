//! The **block size increasing game** (§5.2): when every miner has a
//! *maximum profitable block size* (MPB), do miners keep a common block
//! size — or do large miners raise it to force small miners out?
//!
//! Miner groups are ordered by increasing MPB. The game proceeds in rounds:
//! in round `j` the remaining groups `{j, …, n}` vote on raising the block
//! size to `MPB_{j+1}`, which would force group `j` out of business. The
//! vote passes when at least half of the remaining mining power votes yes;
//! the game terminates when more than half votes no. Survivors split the
//! rewards in proportion to power.
//!
//! The paper characterizes the termination state by **stable sets** (§5.2.3,
//! proved by backward induction): the suffix `{j, …, n}` is stable iff
//! `j = n`, or — with `{k, …, n}` the largest proper stable suffix —
//! the groups `j … k−1` jointly outweigh the groups `k … n` (so they can
//! block the vote), while `j+1 … k−1` do not (so removing `j` cascades all
//! the way to `k`). This module implements both the recursion and a
//! round-by-round playout with rational voting, and the crate's tests check
//! they always agree (Analytical Result 5).

/// One miner group: its maximum profitable block size and its power share.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MinerGroup {
    /// Maximum profitable block size (any unit; only the ordering matters).
    pub mpb: f64,
    /// Mining power share.
    pub power: f64,
}

/// One round of the playout.
#[derive(Debug, Clone, PartialEq)]
pub struct Round {
    /// Index (0-based) of the group that would be forced out.
    pub leaving: usize,
    /// Vote of every *remaining* group (`true` = raise the block size),
    /// indexed by group.
    pub votes: Vec<(usize, bool)>,
    /// Whether the motion passed.
    pub passed: bool,
}

/// A full playout: the rounds and the index of the first surviving group.
#[derive(Debug, Clone, PartialEq)]
pub struct GameTrace {
    /// The rounds played, in order.
    pub rounds: Vec<Round>,
    /// Index of the first group in the terminal (surviving) suffix.
    pub terminal: usize,
}

/// The block size increasing game.
#[derive(Debug, Clone)]
pub struct BlockSizeIncreasingGame {
    groups: Vec<MinerGroup>,
    /// Fraction of remaining power required to pass a raise. The paper's
    /// BU game uses 0.5 ("at least half"); the §6.3 countermeasure's
    /// 75%-for / ≤10%-against rule is equivalent to 0.9.
    pass_threshold: f64,
}

impl BlockSizeIncreasingGame {
    /// Creates the game from groups with *distinct* MPBs and positive power
    /// summing to one. Groups are sorted by MPB internally.
    pub fn new(groups: Vec<MinerGroup>) -> Self {
        Self::with_threshold(groups, 0.5)
    }

    /// Like [`BlockSizeIncreasingGame::new`] but with a custom pass
    /// threshold: a raise passes when the yes-voting power is at least
    /// `pass_threshold` of the remaining power. Values above 0.5 model
    /// supermajority rules such as the §6.3 countermeasure, where a raise
    /// needs ≥ 75% support *and* ≤ 10% opposition — equivalent to a 0.9
    /// threshold when every miner votes.
    ///
    /// # Panics
    /// Panics when [`BlockSizeIncreasingGame::check`] rejects the inputs.
    pub fn with_threshold(mut groups: Vec<MinerGroup>, pass_threshold: f64) -> Self {
        if let Err(why) = Self::check(&groups, pass_threshold) {
            panic!("{why}");
        }
        groups.sort_by(|a, b| a.mpb.total_cmp(&b.mpb));
        BlockSizeIncreasingGame { groups, pass_threshold }
    }

    /// The constructor's preconditions, for front ends that must answer
    /// bad input with an error instead of a panic: at least one group,
    /// positive powers summing to 1, finite distinct MPBs, and a pass
    /// threshold in `[0, 1]`.
    pub fn check(groups: &[MinerGroup], pass_threshold: f64) -> Result<(), String> {
        if groups.is_empty() {
            return Err("need at least one group".to_string());
        }
        if !groups.iter().all(|g| g.power > 0.0) {
            return Err("powers must be positive".to_string());
        }
        let sum: f64 = groups.iter().map(|g| g.power).sum();
        if (sum - 1.0).abs() >= 1e-9 {
            return Err(format!("powers must sum to 1, got {sum}"));
        }
        if !(0.0..=1.0).contains(&pass_threshold) {
            return Err(format!("pass threshold must be a fraction, got {pass_threshold}"));
        }
        if !groups.iter().all(|g| g.mpb.is_finite()) {
            return Err("MPBs must be finite".to_string());
        }
        let mut mpbs: Vec<f64> = groups.iter().map(|g| g.mpb).collect();
        mpbs.sort_by(f64::total_cmp);
        if mpbs.windows(2).any(|w| w[0] >= w[1]) {
            return Err("MPBs must be distinct".to_string());
        }
        Ok(())
    }

    /// The groups, sorted by MPB.
    pub fn groups(&self) -> &[MinerGroup] {
        &self.groups
    }

    /// Number of groups.
    pub fn len(&self) -> usize {
        self.groups.len()
    }

    /// Whether the game has just one group.
    pub fn is_empty(&self) -> bool {
        false // constructor guarantees at least one group
    }

    fn power_range(&self, lo: usize, hi: usize) -> f64 {
        self.groups[lo..hi].iter().map(|g| g.power).sum()
    }

    /// `stable[j]` — whether the suffix `{j, …, n−1}` is a stable set
    /// (0-based indices; `stable[n−1]` is always true).
    pub fn stable_suffixes(&self) -> Vec<bool> {
        let n = self.groups.len();
        let mut stable = vec![false; n];
        stable[n - 1] = true;
        let mut k = n - 1; // smallest known stable suffix start above j
        for j in (0..n - 1).rev() {
            // Groups j..k-1 block the cascade iff the raisers k..n-1 fall
            // short of the pass threshold of the remaining power.
            let blockers = self.power_range(j, k);
            let raisers = self.power_range(k, n);
            if raisers < self.pass_threshold * (blockers + raisers) {
                stable[j] = true;
                k = j;
            }
        }
        stable
    }

    /// Index of the first group of the terminal suffix: the smallest `j`
    /// with `{j, …}` stable (the paper's termination-state theorem).
    pub fn terminal_set(&self) -> usize {
        // The last suffix is always stable, so the fallback is unreachable.
        self.stable_suffixes().iter().position(|&s| s).unwrap_or(self.groups.len() - 1)
    }

    /// [`BlockSizeIncreasingGame::stable_suffixes`] under a **committed
    /// coalition**: every group with `committed[i]` true votes yes on any
    /// raise that does not remove group `i` itself, even when the cascade
    /// it triggers would force `i` out later — a block-size cartel. The
    /// remaining groups vote rationally *given* those commitments. With no
    /// commitments this reduces exactly to the base induction.
    pub fn stable_suffixes_committed(&self, committed: &[bool]) -> Vec<bool> {
        let n = self.groups.len();
        assert_eq!(committed.len(), n, "one commitment flag per group");
        let mut stable = vec![false; n];
        stable[n - 1] = true;
        let mut k = n - 1; // smallest known stable suffix start above j
        for j in (0..n.saturating_sub(1)).rev() {
            // Yes-voters on removing group j: the cascade survivors k..n
            // plus the committed groups among the doomed middle j+1..k
            // (group j itself never votes for its own exit).
            let yes: f64 =
                (j + 1..n).filter(|&i| i >= k || committed[i]).map(|i| self.groups[i].power).sum();
            let total = self.power_range(j, n);
            if yes < self.pass_threshold * total {
                stable[j] = true;
                k = j;
            }
        }
        stable
    }

    /// The terminal suffix start under a committed coalition (see
    /// [`BlockSizeIncreasingGame::stable_suffixes_committed`]).
    pub fn terminal_committed(&self, committed: &[bool]) -> usize {
        self.stable_suffixes_committed(committed)
            .iter()
            .position(|&s| s)
            .unwrap_or(self.groups.len() - 1)
    }

    /// Plays the game round by round with fully rational voters (each group
    /// votes yes iff it survives the cascade the removal would trigger).
    pub fn play(&self) -> GameTrace {
        let n = self.groups.len();
        let stable = self.stable_suffixes();
        let mut rounds = Vec::new();
        let mut j = 0; // current suffix start
                       // Every round up to and including the terminal *failing* vote is
                       // recorded — Figure 4 shows the final round explicitly.
        while j < n - 1 {
            // Cascade target if group j is removed: next stable suffix
            // (the last suffix is always stable, so the fallback is
            // unreachable).
            let k = (j + 1..n).find(|&i| stable[i]).unwrap_or(n - 1);
            let votes: Vec<(usize, bool)> = (j..n).map(|i| (i, i >= k)).collect();
            let yes: f64 =
                votes.iter().filter(|&&(_, v)| v).map(|&(i, _)| self.groups[i].power).sum();
            let no: f64 =
                votes.iter().filter(|&&(_, v)| !v).map(|&(i, _)| self.groups[i].power).sum();
            let passed = yes >= self.pass_threshold * (yes + no);
            rounds.push(Round { leaving: j, votes, passed });
            if !passed {
                break;
            }
            j += 1;
        }
        GameTrace { rounds, terminal: j }
    }

    /// The utility of every group: survivors split 1 proportionally to
    /// power, forced-out groups get 0 (§5.2.1).
    pub fn utilities(&self) -> Vec<f64> {
        let t = self.play().terminal;
        let mass = self.power_range(t, self.groups.len());
        self.groups
            .iter()
            .enumerate()
            .map(|(i, g)| if i >= t { g.power / mass } else { 0.0 })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn game(powers: &[f64]) -> BlockSizeIncreasingGame {
        BlockSizeIncreasingGame::new(
            powers
                .iter()
                .enumerate()
                .map(|(i, &power)| MinerGroup { mpb: (i + 1) as f64, power })
                .collect(),
        )
    }

    /// Figure 4: powers 10/20/30/40. Round 1 passes (groups 2, 3, 4 vote
    /// yes), round 2 fails (groups 2, 3 vote no, because if group 2 left,
    /// group 4 could force group 3 out). Terminal set {2, 3, 4}.
    #[test]
    fn figure4_example() {
        let g = game(&[0.1, 0.2, 0.3, 0.4]);
        let trace = g.play();
        assert_eq!(trace.terminal, 1); // 0-based: groups 1, 2, 3 survive
        assert_eq!(trace.rounds.len(), 2);
        assert!(trace.rounds[0].passed);
        assert_eq!(trace.rounds[0].votes, vec![(0, false), (1, true), (2, true), (3, true)]);
        assert!(!trace.rounds[1].passed);
        assert_eq!(trace.rounds[1].votes, vec![(1, false), (2, false), (3, true)]);
        let u = g.utilities();
        assert_eq!(u[0], 0.0);
        assert!((u[1] - 0.2 / 0.9).abs() < 1e-12);
        assert!((u[3] - 0.4 / 0.9).abs() < 1e-12);
    }

    /// The example from §5.2.2: m1 = m2 = 0.3, m3 = 0.4. If group 2 voted
    /// yes in round 1, group 3 would then force it out; so groups 1 and 2
    /// block round 1 and the game terminates immediately with everyone in.
    #[test]
    fn rationality_example_three_groups() {
        let g = game(&[0.3, 0.3, 0.4]);
        assert_eq!(g.terminal_set(), 0);
        let trace = g.play();
        assert!(trace.rounds.is_empty() || !trace.rounds[0].passed);
        assert_eq!(trace.terminal, 0);
    }

    #[test]
    fn single_group_is_trivially_stable() {
        let g = game(&[1.0]);
        assert_eq!(g.terminal_set(), 0);
        assert!(g.play().rounds.is_empty());
        assert_eq!(g.utilities(), vec![1.0]);
    }

    /// A dominant large-MPB group sweeps everyone out.
    #[test]
    fn dominant_group_forces_everyone_out() {
        let g = game(&[0.1, 0.15, 0.75]);
        assert_eq!(g.terminal_set(), 2);
        let u = g.utilities();
        assert_eq!(u, vec![0.0, 0.0, 1.0]);
    }

    /// Equal halves: the last two groups. With {n-1} as the largest proper
    /// stable suffix of {n-2, n-1}, the vote ties (0.5 vs 0.5) and at least
    /// half suffices -> passes: the smaller-MPB group is forced out.
    #[test]
    fn equal_split_tie_passes() {
        let g = game(&[0.5, 0.5]);
        assert_eq!(g.terminal_set(), 1);
    }

    /// Under the §6.3 countermeasure's effective 0.9 supermajority
    /// threshold, the Figure-4 distribution keeps everyone in: the 10%
    /// group alone vetoes the raise that BU's 0.5 threshold passes.
    #[test]
    fn supermajority_threshold_protects_small_miners() {
        // 11/19/30/40: the smallest group holds strictly more than the 10%
        // veto quota (a group at exactly 10% sits on the "at most 10%
        // against" boundary and the raise still passes).
        let groups: Vec<MinerGroup> = [0.11, 0.19, 0.3, 0.4]
            .iter()
            .enumerate()
            .map(|(i, &power)| MinerGroup { mpb: (i + 1) as f64, power })
            .collect();
        let bu = BlockSizeIncreasingGame::new(groups.clone());
        assert_eq!(bu.terminal_set(), 1, "BU's majority rule forces group 1 out");
        let cm = BlockSizeIncreasingGame::with_threshold(groups.clone(), 0.9);
        assert_eq!(cm.terminal_set(), 0, "a >10% group vetoes under the countermeasure");
        let trace = cm.play();
        assert!(!trace.rounds.is_empty());
        assert!(!trace.rounds[0].passed);
        // Only a coalition controlling >= 90% can still force exits: a 5%
        // fringe group is not protected even by the supermajority.
        let fringe: Vec<MinerGroup> = [0.05, 0.3, 0.3, 0.35]
            .iter()
            .enumerate()
            .map(|(i, &power)| MinerGroup { mpb: (i + 1) as f64, power })
            .collect();
        let cm = BlockSizeIncreasingGame::with_threshold(fringe, 0.9);
        assert_eq!(cm.terminal_set(), 1, "95% >= 90%: the 5% group is still exposed");
    }

    /// Raising the threshold never hurts a group: terminal sets shrink
    /// (weakly) toward 0 as the threshold grows.
    #[test]
    fn terminal_set_monotone_in_threshold() {
        let groups: Vec<MinerGroup> = [0.05, 0.1, 0.2, 0.25, 0.4]
            .iter()
            .enumerate()
            .map(|(i, &power)| MinerGroup { mpb: (i + 1) as f64, power })
            .collect();
        let mut last = usize::MAX;
        for tau in [0.5, 0.6, 0.75, 0.9, 1.0] {
            let t = BlockSizeIncreasingGame::with_threshold(groups.clone(), tau).terminal_set();
            assert!(t <= last, "tau {tau}: terminal {t} > previous {last}");
            last = t;
        }
    }

    /// Committed coalitions on the Figure 4 distribution: an empty
    /// coalition reduces to the base game; committing the 30% group is
    /// kamikaze (the cascade it enables runs past itself, terminal 1 → 3);
    /// committing a group already at or above the terminal changes nothing.
    #[test]
    fn committed_coalitions_shift_the_terminal() {
        let g = game(&[0.1, 0.2, 0.3, 0.4]);
        assert_eq!(g.stable_suffixes_committed(&[false; 4]), g.stable_suffixes());
        assert_eq!(g.terminal_committed(&[false; 4]), 1);
        // Group 2 (30%) commits: rounds 2 and 3 now pass, everyone but the
        // 40% group — the committed member included — is forced out.
        assert_eq!(g.terminal_committed(&[false, false, true, false]), 3);
        // Groups at the base terminal or above add nothing new.
        assert_eq!(g.terminal_committed(&[false, true, false, false]), 1);
        assert_eq!(g.terminal_committed(&[false, false, false, true]), 1);
        // A full cartel drives the game to the last group.
        assert_eq!(g.terminal_committed(&[true; 4]), 3);
    }

    /// The termination-state theorem agrees with the playout by
    /// construction; spot-check that stable_suffixes is internally
    /// consistent with its definition on a nontrivial instance.
    #[test]
    fn stable_suffix_definition_holds() {
        let g = game(&[0.05, 0.1, 0.2, 0.25, 0.4]);
        let stable = g.stable_suffixes();
        let n = g.len();
        assert!(stable[n - 1]);
        for j in 0..n - 1 {
            let k = (j + 1..n).find(|&i| stable[i]).unwrap();
            let blockers: f64 = g.groups()[j..k].iter().map(|x| x.power).sum();
            let raisers: f64 = g.groups()[k..n].iter().map(|x| x.power).sum();
            assert_eq!(stable[j], raisers < 0.5 * (blockers + raisers), "suffix {j}");
        }
    }
}
