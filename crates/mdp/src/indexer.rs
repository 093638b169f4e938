//! State interning and frontier exploration.
//!
//! Domain models are most naturally written as a function from a typed state
//! to its available actions and successor distributions. [`StateIndexer`]
//! interns typed states into dense [`StateId`]s, and [`explore`] drives a
//! breadth-first expansion from a set of start states, writing the model
//! straight into a [`CompiledMdp`]. The expansion function writes each
//! state's actions into an [`Expansion`] sink whose buffers `explore` reuses
//! from state to state, so the only allocations of a build are the model's
//! own.

use std::cell::Cell;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hash, Hasher};

use crate::compiled::CompiledMdp;
use crate::error::MdpError;
use crate::model::{ActionId, StateId};

/// Multiply-rotate hasher after Firefox's / rustc's `FxHasher`: a few
/// cycles per word where SipHash spends tens. Its keys are model states
/// produced by the domain generator, never bytes from outside, so it needs
/// no flooding resistance; and ids come from interning order, not from the
/// table layout, so the hash cannot change a model.
#[derive(Debug, Clone, Copy, Default)]
struct FxHasher {
    hash: u64,
}

const FX_SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

impl FxHasher {
    fn add(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(FX_SEED);
    }
}

impl Hasher for FxHasher {
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for chunk in &mut chunks {
            let mut word = [0u8; 8];
            word.copy_from_slice(chunk);
            self.add(u64::from_le_bytes(word));
        }
        for &b in chunks.remainder() {
            self.add(u64::from(b));
        }
    }

    fn write_u8(&mut self, i: u8) {
        self.add(u64::from(i));
    }

    fn write_u16(&mut self, i: u16) {
        self.add(u64::from(i));
    }

    fn write_usize(&mut self, i: usize) {
        self.add(i as u64);
    }

    fn finish(&self) -> u64 {
        self.hash
    }
}

/// Bidirectional mapping between typed domain states and dense indices.
#[derive(Debug, Clone)]
pub struct StateIndexer<S> {
    forward: HashMap<S, StateId, BuildHasherDefault<FxHasher>>,
    backward: Vec<S>,
}

impl<S: Clone + Eq + Hash> StateIndexer<S> {
    /// Creates an empty indexer.
    pub fn new() -> Self {
        StateIndexer { forward: HashMap::default(), backward: Vec::new() }
    }

    /// Interns `state`, returning its index and whether it was new.
    pub fn intern(&mut self, state: &S) -> (StateId, bool) {
        if let Some(&id) = self.forward.get(state) {
            return (id, false);
        }
        let id = self.backward.len();
        self.forward.insert(state.clone(), id);
        self.backward.push(state.clone());
        (id, true)
    }

    /// Looks up the index of an already-interned state.
    pub fn get(&self, state: &S) -> Option<StateId> {
        self.forward.get(state).copied()
    }

    /// The typed state behind `id`.
    pub fn state(&self, id: StateId) -> &S {
        &self.backward[id]
    }

    /// Number of interned states.
    pub fn len(&self) -> usize {
        self.backward.len()
    }

    /// Whether nothing has been interned yet.
    pub fn is_empty(&self) -> bool {
        self.backward.is_empty()
    }

    /// Iterates `(StateId, &S)` in interning order.
    pub fn iter(&self) -> impl Iterator<Item = (StateId, &S)> {
        self.backward.iter().enumerate()
    }
}

impl<S: Clone + Eq + Hash> Default for StateIndexer<S> {
    fn default() -> Self {
        Self::new()
    }
}

/// The sink one state's expansion writes into: its actions, in order, each
/// with its `(successor, probability, reward)` outcomes.
///
/// Rewards are copied into one flat buffer, so an expansion can build them
/// in fixed-size arrays. A reward of the wrong arity is not stored; the
/// first one is reported as [`MdpError::RewardArity`] once the expansion
/// returns.
#[derive(Debug)]
pub struct Expansion<S> {
    components: usize,
    /// `(label, index of the action's first outcome)` per action.
    arms: Vec<(usize, usize)>,
    outcomes: Vec<(S, f64)>,
    /// `components` values per entry of `outcomes`.
    rewards: Vec<f64>,
    /// The first `(action, reward length)` whose arity was wrong.
    bad_arity: Option<(ActionId, usize)>,
}

impl<S> Expansion<S> {
    fn new(reward_components: usize) -> Self {
        Expansion {
            components: reward_components,
            arms: Vec::new(),
            outcomes: Vec::new(),
            rewards: Vec::new(),
            bad_arity: None,
        }
    }

    fn clear(&mut self) {
        self.arms.clear();
        self.outcomes.clear();
        self.rewards.clear();
        self.bad_arity = None;
    }

    /// Opens the next action, with domain label `label` (carried into
    /// [`CompiledMdp::label`]). Its outcomes are written through the
    /// returned handle, so no outcome can exist without an action.
    pub fn action(&mut self, label: usize) -> ActionOutcomes<'_, S> {
        self.arms.push((label, self.outcomes.len()));
        ActionOutcomes { sink: self }
    }

    fn check_arity(&self, state: StateId) -> Result<(), MdpError> {
        match self.bad_arity {
            Some((action, found)) => {
                Err(MdpError::RewardArity { state, action, found, expected: self.components })
            }
            None => Ok(()),
        }
    }

    /// Action `i`'s label and its outcomes with their reward slices.
    fn arm(&self, i: usize) -> (usize, impl Iterator<Item = (&S, f64, &[f64])>) {
        let (label, first) = self.arms[i];
        let end = self.arms.get(i + 1).map_or(self.outcomes.len(), |&(_, next)| next);
        let c = self.components;
        let outcomes = (first..end).map(move |k| {
            let (next, prob) = &self.outcomes[k];
            (next, *prob, &self.rewards[k * c..(k + 1) * c])
        });
        (label, outcomes)
    }
}

/// Write handle for the outcomes of the action just opened by
/// [`Expansion::action`].
#[derive(Debug)]
pub struct ActionOutcomes<'a, S> {
    sink: &'a mut Expansion<S>,
}

impl<S> ActionOutcomes<'_, S> {
    /// Records that the action leads to `next` with probability `prob`,
    /// accruing `reward` (one value per reward component).
    pub fn outcome(&mut self, next: S, prob: f64, reward: &[f64]) {
        let sink = &mut *self.sink;
        if reward.len() != sink.components {
            if sink.bad_arity.is_none() {
                sink.bad_arity = Some((sink.arms.len() - 1, reward.len()));
            }
            return;
        }
        sink.outcomes.push((next, prob));
        sink.rewards.extend_from_slice(reward);
    }
}

/// One action of a single expanded state, as collected by [`expand_one`]:
/// its label and `(successor, probability, reward)` outcomes.
pub type CollectedAction<S> = (usize, Vec<(S, f64, Vec<f64>)>);

/// Runs `expand` on `state` alone and collects what it wrote, for tests and
/// table renderers that read one state's rows without building a model. A
/// reward of the wrong arity is reported against state `0`.
pub fn expand_one<S, F>(
    reward_components: usize,
    state: &S,
    mut expand: F,
) -> Result<Vec<CollectedAction<S>>, MdpError>
where
    S: Clone,
    F: FnMut(&S, &mut Expansion<S>),
{
    let mut sink = Expansion::new(reward_components);
    expand(state, &mut sink);
    sink.check_arity(0)?;
    Ok((0..sink.arms.len())
        .map(|i| {
            let (label, outcomes) = sink.arm(i);
            let outcomes = outcomes.map(|(next, prob, r)| (next.clone(), prob, r.to_vec()));
            (label, outcomes.collect())
        })
        .collect())
}

thread_local! {
    /// `(states, arms, transitions)` of the last model [`explore`] built on
    /// this thread: the capacity the next build reserves.
    static LAST_BUILD: Cell<(usize, usize, usize)> = const { Cell::new((0, 0, 0)) };
}

/// Result of [`explore`]: the built model plus the state interning used, so
/// callers can map solver output back to typed states.
#[derive(Debug)]
pub struct Explored<S> {
    /// The constructed (validated) model.
    pub mdp: CompiledMdp,
    /// Mapping between typed states and the model's state indices.
    pub indexer: StateIndexer<S>,
}

/// Builds a [`CompiledMdp`] by breadth-first expansion from `start` states.
///
/// `expand` is called exactly once per reachable state and must open at
/// least one action, each with outcome probabilities summing to one. State
/// ids follow first-seen order: the distinct start states first, then every
/// successor in the order the expansions name it. Ids are expanded in id
/// order, so each state's arms are appended to the CSR arrays as soon as it
/// is expanded, and checked as they are written.
///
/// Errors: a reward of the wrong arity is reported as soon as its state's
/// expansion returns. Any other malformed arm or action-less state is
/// reported once the whole reachable set has been expanded, the first in
/// (state, action) order; no start states at all is [`MdpError::Empty`].
pub fn explore<S, F>(
    reward_components: usize,
    start: impl IntoIterator<Item = S>,
    mut expand: F,
) -> Result<Explored<S>, MdpError>
where
    S: Clone + Eq + Hash,
    F: FnMut(&S, &mut Expansion<S>),
{
    let mut indexer = StateIndexer::new();
    // Sweeps build similar models one after another, so reserving the last
    // build's sizes allocates each array about once, at its final size, and
    // the allocator can hand back the pages the previous model freed. Grown
    // from empty instead, the arrays of every large model land on fresh
    // pages: over Table 3's setting-2 cells that was ~100k page faults and
    // 0.3 s of system time in a 1.0 s run. Capacity never changes a model.
    let mut mdp = CompiledMdp::with_capacity(reward_components, LAST_BUILD.with(Cell::get));
    let mut sink = Expansion::new(reward_components);
    for s in start {
        indexer.intern(&s);
    }
    let mut first_error = indexer.is_empty().then_some(MdpError::Empty);

    // Ids are handed out in discovery order, so walking them in order is
    // the breadth-first frontier, and state `id` is the next one the CSR
    // arrays need.
    let mut id = 0;
    while id < indexer.len() {
        sink.clear();
        expand(indexer.state(id), &mut sink);
        sink.check_arity(id)?;
        for a in 0..sink.arms.len() {
            let (label, outcomes) = sink.arm(a);
            let outcomes =
                outcomes.map(|(next, prob, reward)| (indexer.intern(next).0, prob, reward));
            // An interned successor always exists: no target bound applies.
            if let Err(e) = mdp.push_arm(id, a, label, usize::MAX, outcomes) {
                first_error.get_or_insert(e);
            }
        }
        if let Err(e) = mdp.end_state(id) {
            first_error.get_or_insert(e);
        }
        id += 1;
    }

    LAST_BUILD.with(|last| last.set((mdp.num_states(), mdp.num_arms(), mdp.num_transitions())));
    match first_error {
        Some(e) => Err(e),
        None => Ok(Explored { mdp, indexer }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intern_is_idempotent() {
        let mut ix = StateIndexer::new();
        let (a, fresh_a) = ix.intern(&"x");
        let (b, fresh_b) = ix.intern(&"x");
        assert_eq!(a, b);
        assert!(fresh_a);
        assert!(!fresh_b);
        assert_eq!(ix.len(), 1);
        assert_eq!(ix.get(&"x"), Some(a));
        assert_eq!(ix.get(&"y"), None);
    }

    #[test]
    fn iter_preserves_interning_order() {
        let mut ix = StateIndexer::new();
        ix.intern(&3u32);
        ix.intern(&1u32);
        ix.intern(&2u32);
        let order: Vec<u32> = ix.iter().map(|(_, &s)| s).collect();
        assert_eq!(order, vec![3, 1, 2]);
    }

    /// A random walk on {0, 1, 2} with an absorbing self-loop at 2.
    fn walk_expand(s: &u32, x: &mut Expansion<u32>) {
        let mut arm = x.action(0);
        if *s >= 2 {
            arm.outcome(2, 1.0, &[0.0]);
        } else {
            arm.outcome(s + 1, 0.5, &[1.0]);
            arm.outcome(0, 0.5, &[0.0]);
        }
    }

    #[test]
    fn explore_reaches_all_reachable_states() {
        let explored = explore(1, [0u32], walk_expand).unwrap();
        assert_eq!(explored.mdp.num_states(), 3);
        assert_eq!(explored.indexer.get(&2), Some(2));
    }

    #[test]
    fn explore_rejects_bad_distributions() {
        let err = match explore(1, [0u32], |_s: &u32, x: &mut Expansion<u32>| {
            x.action(0).outcome(0, 0.3, &[0.0]);
        }) {
            Err(e) => e,
            Ok(_) => panic!("expected validation failure"),
        };
        assert!(matches!(err, MdpError::BadProbabilitySum { .. }));
    }

    #[test]
    fn explore_with_multiple_starts_dedups() {
        let explored = explore(1, [0u32, 0u32, 1u32], walk_expand).unwrap();
        assert_eq!(explored.mdp.num_states(), 3);
    }

    #[test]
    fn wrong_reward_arity_is_an_error_not_a_misslice() {
        // State 1's second action writes a short reward between two good
        // ones; a mis-sliced buffer would shift every later reward.
        let err = match explore(2, [0u32], |s: &u32, x: &mut Expansion<u32>| {
            x.action(7).outcome(1, 1.0, &[1.0, 2.0]);
            if *s == 1 {
                let mut arm = x.action(8);
                arm.outcome(0, 0.5, &[3.0]);
                arm.outcome(1, 0.5, &[4.0, 5.0, 6.0]);
            }
        }) {
            Err(e) => e,
            Ok(_) => panic!("expected an arity error"),
        };
        assert_eq!(err, MdpError::RewardArity { state: 1, action: 1, found: 1, expected: 2 });

        let rows = expand_one(2, &0u32, |_: &u32, x: &mut Expansion<u32>| {
            let mut arm = x.action(0);
            arm.outcome(1, 0.5, &[1.0, 2.0]);
            arm.outcome(2, 0.5, &[]);
        });
        assert!(matches!(rows, Err(MdpError::RewardArity { state: 0, action: 0, found: 0, .. })));
    }

    #[test]
    fn outcomes_are_written_through_their_action() {
        // `outcome` exists only on the handle `action` returns, so an
        // outcome without an open action does not type-check; an action
        // with no outcomes is a validation error, not a panic.
        let rows = expand_one(1, &5u32, |s: &u32, x: &mut Expansion<u32>| {
            x.action(3).outcome(s + 1, 0.25, &[1.0]);
            x.action(4);
            let mut arm = x.action(9);
            arm.outcome(*s, 0.5, &[2.0]);
            arm.outcome(s + 2, 0.5, &[3.0]);
        })
        .unwrap();
        assert_eq!(
            rows,
            vec![
                (3, vec![(6, 0.25, vec![1.0])]),
                (4, vec![]),
                (9, vec![(5, 0.5, vec![2.0]), (7, 0.5, vec![3.0])]),
            ]
        );
        let err = match explore(1, [0u32], |_s: &u32, x: &mut Expansion<u32>| {
            x.action(0);
        }) {
            Err(e) => e,
            Ok(_) => panic!("expected validation failure"),
        };
        assert!(matches!(err, MdpError::BadProbabilitySum { state: 0, action: 0, .. }));
    }

    #[test]
    fn ids_follow_first_seen_breadth_first_order_across_starts() {
        // s → {s + 10, s + 20}; states ≥ 10 are absorbing.
        let explored = explore(1, [3u32, 1, 3, 2, 1], |s: &u32, x: &mut Expansion<u32>| {
            let mut arm = x.action(0);
            if *s < 10 {
                arm.outcome(s + 10, 0.5, &[0.0]);
                arm.outcome(s + 20, 0.5, &[0.0]);
            } else {
                arm.outcome(*s, 1.0, &[0.0]);
            }
        })
        .unwrap();
        let order: Vec<u32> = explored.indexer.iter().map(|(_, &s)| s).collect();
        assert_eq!(order, vec![3, 1, 2, 13, 23, 11, 21, 12, 22]);
        for (id, s) in explored.indexer.iter() {
            assert_eq!(explored.indexer.get(s), Some(id));
        }
        let arm = explored.mdp.arm_range(1).start;
        let to: Vec<StateId> = explored.mdp.transitions(arm).map(|(to, _, _)| to).collect();
        assert_eq!(to, vec![5, 6]);
    }

    #[test]
    fn fx_hasher_is_deterministic() {
        let hash = |write: &dyn Fn(&mut FxHasher)| {
            let mut h = FxHasher::default();
            write(&mut h);
            h.finish()
        };
        let a = hash(&|h| (1u8, 2u8, 3u16, "abcdefghij").hash(h));
        assert_eq!(a, hash(&|h| (1u8, 2u8, 3u16, "abcdefghij").hash(h)));
        assert_ne!(a, hash(&|h| (2u8, 1u8, 3u16, "abcdefghij").hash(h)));
        assert_eq!(hash(&|h| h.write_u64(1)), FX_SEED);
        assert_eq!(hash(&|h| h.write(&[1, 0, 0, 0, 0, 0, 0, 0])), FX_SEED);
    }
}
