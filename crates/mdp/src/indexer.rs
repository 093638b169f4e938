//! State interning and frontier exploration.
//!
//! Domain models are most naturally written as a function from a typed state
//! to its available actions and successor distributions. [`StateIndexer`]
//! interns typed states into dense [`StateId`]s, and [`explore`] drives a
//! breadth-first expansion from a set of start states, writing the model
//! straight into a [`CompiledMdp`]. The expansion function writes each
//! state's actions into an [`Expansion`] sink. Its successor buffers are
//! reused from state to state, and its probability and reward buffers keep
//! every state's weights in CSR order and become the model's, so the only
//! allocations of a build are the model's own.
//!
//! ## Graph reuse
//!
//! Models of one family often share their graph — the same states, arms
//! and successors — and differ only in probabilities and rewards. An
//! explored model's [`Graph`] keeps that part (the interned states and the
//! CSR structure arrays, both behind `Arc`s), and [`refill`] builds the
//! model of another parameter point on it: it calls `expand` on every
//! stored state in id order and writes only the weights, with no hashing
//! and no interning. Per state, the arm count, the labels, the arm
//! boundaries and the typed successors are compared with the stored ones,
//! the successors as one slice against the state's range of the stored
//! targets; any difference means the graph is not the caller's, and
//! `refill` returns `None` rather than a model. [`explore_reusing`] then
//! explores afresh and counts the fallback ([`refill_fallbacks`]); a caller
//! whose key fixes the graph should never see one.
//!
//! `refill` checks the weights once they are all written, in flat passes
//! over the finished probability and reward buffers: probabilities
//! nonnegative and finite, rewards finite, each arm's serial sum within
//! tolerance. Only when a pass fails does it run the ordered per-arm check
//! the writers run, so the error it reports is still [`explore`]'s first.

use std::cell::{Cell, RefCell};
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::LocalKey;

use crate::compiled::{CompiledMdp, Structure};
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

    /// An empty indexer with room for `states` states.
    fn with_capacity(states: usize) -> Self {
        StateIndexer {
            forward: HashMap::with_capacity_and_hasher(states, Default::default()),
            backward: Vec::with_capacity(states),
        }
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
}

impl<S> StateIndexer<S> {
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
    /// Successor of every outcome of the state being expanded.
    next: Vec<S>,
    /// Probability of every outcome, after the `kept` ones of earlier
    /// states.
    prob: Vec<f64>,
    /// `components` values per entry of `prob`.
    rewards: Vec<f64>,
    /// Outcomes of earlier states kept at the front of `prob` and
    /// `rewards`: [`explore`] and [`refill`] keep every state's weights
    /// there, so the buffers become the model's with no copy.
    kept: usize,
    /// The first `(action, reward length)` whose arity was wrong.
    bad_arity: Option<(ActionId, usize)>,
}

impl<S> Expansion<S> {
    /// An empty sink with room for the weights of `transitions` outcomes.
    fn with_capacity(reward_components: usize, transitions: usize) -> Self {
        Expansion {
            components: reward_components,
            arms: Vec::new(),
            next: Vec::new(),
            prob: Vec::with_capacity(transitions),
            rewards: Vec::with_capacity(transitions * reward_components),
            kept: 0,
            bad_arity: None,
        }
    }

    fn clear(&mut self) {
        self.arms.clear();
        self.next.clear();
        self.prob.truncate(self.kept);
        self.rewards.truncate(self.kept * self.components);
        self.bad_arity = None;
    }

    /// Keeps this state's weights at the front of the buffers.
    fn keep(&mut self) {
        self.kept = self.prob.len();
    }

    /// Opens the next action, with domain label `label` (carried into
    /// [`CompiledMdp::label`]). Its outcomes are written through the
    /// returned handle, so no outcome can exist without an action.
    #[inline]
    pub fn action(&mut self, label: usize) -> ActionOutcomes<'_, S> {
        let first = self.next.len();
        self.arms.push((label, first));
        ActionOutcomes { sink: self, first }
    }

    fn check_arity(&self, state: StateId) -> Result<(), MdpError> {
        match self.bad_arity {
            Some((action, found)) => {
                Err(MdpError::RewardArity { state, action, found, expected: self.components })
            }
            None => Ok(()),
        }
    }

    /// Whether the state just expanded wrote exactly the stored arms
    /// `(labels, transition offsets, targets)` of
    /// [`Structure::state_arms`]: the same arm count, labels and arm
    /// boundaries, and successors equal to the typed `states` the targets
    /// name.
    fn reproduces(&self, (labels, offsets, targets): (&[u32], &[u32], &[u32]), states: &[S]) -> bool
    where
        S: Eq,
    {
        let base = offsets[0];
        self.arms.len() == labels.len()
            && self.next.len() == targets.len()
            && self.arms.iter().zip(labels.iter().zip(offsets)).all(
                |(&(label, first), (&stored, &offset))| {
                    label == stored as usize && first == (offset - base) as usize
                },
            )
            && self.next.iter().zip(targets).all(|(next, &to)| *next == states[to as usize])
    }

    /// Action `i`'s label and its outcomes with their reward slices.
    fn arm(&self, i: usize) -> (usize, impl ExactSizeIterator<Item = (&S, f64, &[f64])>) {
        let (label, first) = self.arms[i];
        let end = self.arms.get(i + 1).map_or(self.next.len(), |&(_, next)| next);
        let c = self.components;
        let outcomes = (first..end).map(move |k| {
            let w = self.kept + k;
            (&self.next[k], self.prob[w], &self.rewards[w * c..(w + 1) * c])
        });
        (label, outcomes)
    }
}

/// Write handle for the outcomes of the action just opened by
/// [`Expansion::action`].
#[derive(Debug)]
pub struct ActionOutcomes<'a, S> {
    sink: &'a mut Expansion<S>,
    /// Index of the action's first outcome in the sink's `next`.
    first: usize,
}

impl<S> ActionOutcomes<'_, S> {
    /// Records that the action leads to `next` with probability `prob`,
    /// accruing `reward` (one value per reward component).
    #[inline]
    pub fn outcome(&mut self, next: S, prob: f64, reward: &[f64]) {
        let sink = &mut *self.sink;
        if reward.len() != sink.components {
            if sink.bad_arity.is_none() {
                sink.bad_arity = Some((sink.arms.len() - 1, reward.len()));
            }
            return;
        }
        sink.next.push(next);
        sink.prob.push(prob);
        sink.rewards.extend_from_slice(reward);
    }

    /// Adds an event of probability `prob` leading to `next` with
    /// `reward`: a new outcome, or, when the action already has an outcome
    /// to `next`, merged into it. Probabilities add, and each reward
    /// component becomes the probability-weighted average
    /// `(acc·p₁ + x·p) / (p₁ + p)`, in event order. Outcomes keep the order
    /// of each successor's first event.
    ///
    /// Forced inline: a generator calls it once per event, and with a
    /// plain `#[inline]` hint the BU generator kept the call out of line
    /// and its re-weighting build took about 1.1× as long (DESIGN.md
    /// §3.1.1).
    #[inline(always)]
    pub fn merge<const K: usize>(&mut self, next: S, prob: f64, reward: &[f64; K])
    where
        S: PartialEq,
    {
        let sink = &mut *self.sink;
        let first = self.first;
        match sink.next[first..].iter().position(|n| *n == next) {
            Some(k) if K == sink.components => {
                let w = sink.kept + first + k;
                let old = sink.prob[w];
                let total = old + prob;
                for (acc, x) in sink.rewards[w * K..][..K].iter_mut().zip(reward) {
                    *acc = (*acc * old + x * prob) / total;
                }
                sink.prob[w] = total;
            }
            _ => self.outcome(next, prob, reward),
        }
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
    let mut sink = Expansion::with_capacity(reward_components, 0);
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

/// Result of [`explore`] and [`refill`]: the built model plus the state
/// interning used, so callers can map solver output back to typed states.
#[derive(Debug)]
pub struct Explored<S> {
    /// The constructed (validated) model.
    pub mdp: CompiledMdp,
    /// Mapping between typed states and the model's state indices, shared
    /// with every model [`refill`]ed from this one's [`Graph`].
    pub indexer: Arc<StateIndexer<S>>,
}

impl<S> Explored<S> {
    /// The model's graph without its weights, for [`refill`]: two
    /// reference-count increments. It keeps the interned states and the
    /// structure arrays alive, not the probabilities or rewards.
    pub fn graph(&self) -> Graph<S> {
        Graph { structure: Arc::clone(self.mdp.structure()), indexer: Arc::clone(&self.indexer) }
    }
}

/// The weight-free part of an explored model: its interned states and the
/// CSR arrays that fix its arms and successors (see the module docs).
#[derive(Debug)]
pub struct Graph<S> {
    structure: Arc<Structure>,
    indexer: Arc<StateIndexer<S>>,
}

/// Refills that found their graph differ from the re-expansion, process-wide.
static REFILL_FALLBACKS: AtomicU64 = AtomicU64::new(0);

/// How many times [`explore_reusing`] has fallen back from [`refill`] to a
/// fresh [`explore`] in this process. Each one means a caller reused a
/// graph its parameters do not fix.
pub fn refill_fallbacks() -> u64 {
    // ordering: Relaxed — a monotonic counter read for reporting; it guards no other data.
    REFILL_FALLBACKS.load(Ordering::Relaxed)
}

/// Builds the model `expand` defines on the states of `graph`, without
/// exploring: `expand` runs once per stored state, in id order, and only
/// the probabilities and rewards are written; the model shares `graph`'s
/// interned states and structure arrays.
///
/// Returns `None` when the expansion does not reproduce the graph: an arm
/// count, arm label, arm boundary or typed successor differs from the
/// stored one. Otherwise the result is exactly what [`explore`] from the
/// graph's start states would return — the same model bit for bit, or the
/// same error: a reward of the wrong arity as soon as its state is
/// expanded, else the first failed `explore` check in (state, action,
/// transition) order (see the module docs for how the weights are
/// checked).
pub fn refill<S, F>(
    graph: &Graph<S>,
    reward_components: usize,
    mut expand: F,
) -> Option<Result<Explored<S>, MdpError>>
where
    S: Eq,
    F: FnMut(&S, &mut Expansion<S>),
{
    let Graph { structure, indexer } = graph;
    let mut sink = Expansion::with_capacity(reward_components, structure.sizes().2);
    for id in 0..indexer.len() {
        sink.clear();
        expand(indexer.state(id), &mut sink);
        if let Err(e) = sink.check_arity(id) {
            return Some(Err(e));
        }
        if !sink.reproduces(structure.state_arms(id), &indexer.backward) {
            return None;
        }
        sink.keep();
    }
    Some(match structure.weights_error(reward_components, &sink.prob, &sink.rewards) {
        Some(e) => Err(e),
        None => {
            let mdp = CompiledMdp::from_parts(
                reward_components,
                Arc::clone(structure),
                sink.prob,
                sink.rewards,
            );
            Ok(Explored { mdp, indexer: Arc::clone(indexer) })
        }
    })
}

/// [`refill`] of `graph` when there is one, else [`explore`]; a refill that
/// finds a different graph falls back to `explore` and is counted in
/// [`refill_fallbacks`]. `start` must be the start states `graph` was
/// explored from. The result is always what `explore` returns.
pub fn explore_reusing<S, F>(
    graph: Option<&Graph<S>>,
    reward_components: usize,
    start: impl IntoIterator<Item = S>,
    mut expand: F,
) -> Result<Explored<S>, MdpError>
where
    S: Clone + Eq + Hash,
    F: FnMut(&S, &mut Expansion<S>),
{
    if let Some(graph) = graph {
        match refill(graph, reward_components, &mut expand) {
            Some(built) => return built,
            // ordering: Relaxed — a monotonic counter; it guards no other data.
            None => REFILL_FALLBACKS.fetch_add(1, Ordering::Relaxed),
        };
    }
    explore(reward_components, start, expand)
}

/// A thread's last graph under the key that fixes it: the slot a model
/// declares in a `thread_local!` for [`explore_keyed`].
pub type GraphSlot<K, S> = RefCell<Option<(K, Graph<S>)>>;

/// [`explore_reusing`] of the graph in `slot` when it was stored under
/// `key`; the built model's graph then replaces it. `key` must fix the
/// graph (every state, arm and successor), or the build falls back, which
/// is counted. The result is always what [`explore`] returns.
pub fn explore_keyed<K, S, F>(
    slot: &'static LocalKey<GraphSlot<K, S>>,
    key: K,
    reward_components: usize,
    start: impl IntoIterator<Item = S>,
    expand: F,
) -> Result<Explored<S>, MdpError>
where
    K: PartialEq,
    S: Clone + Eq + Hash,
    F: FnMut(&S, &mut Expansion<S>),
{
    // Taking the slot drops a graph of another key before exploring, so a
    // thread never holds two graphs at once.
    let cached = slot.with(|slot| slot.take()).filter(|(k, _)| *k == key);
    let explored =
        explore_reusing(cached.as_ref().map(|(_, graph)| graph), reward_components, start, expand)?;
    slot.with(|slot| slot.replace(Some((key, explored.graph()))));
    Ok(explored)
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
    // Sweeps build similar models one after another, so reserving the last
    // build's sizes allocates each array about once, at its final size, and
    // the allocator can hand back the pages the previous model freed. Grown
    // from empty instead, the arrays of every large model land on fresh
    // pages: over Table 3's setting-2 cells that was ~100k page faults and
    // 0.3 s of system time in a 1.0 s run. Capacity never changes a model.
    let capacity = LAST_BUILD.with(Cell::get);
    let mut indexer = StateIndexer::with_capacity(capacity.0);
    let mut structure = Structure::with_capacity(capacity);
    let mut sink = Expansion::with_capacity(reward_components, capacity.2);
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
            let written =
                structure.push_arm((id, a), label, usize::MAX, outcomes, reward_components);
            if let Err(e) = written {
                first_error.get_or_insert(e);
            }
        }
        if let Err(e) = structure.end_state(id) {
            first_error.get_or_insert(e);
        }
        sink.keep();
        id += 1;
    }

    LAST_BUILD.with(|last| last.set(structure.sizes()));
    match first_error {
        Some(e) => Err(e),
        None => {
            let mdp = CompiledMdp::from_parts(
                reward_components,
                Arc::new(structure),
                sink.prob,
                sink.rewards,
            );
            Ok(Explored { mdp, indexer: Arc::new(indexer) })
        }
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
    fn merged_events_share_one_outcome_per_successor() {
        // Events to 7 at 0.25 and 0.5 merge into the first outcome, in
        // first-event order; the merge stays inside its own action.
        let rows = expand_one(2, &0u32, |_: &u32, x: &mut Expansion<u32>| {
            let mut arm = x.action(0);
            arm.merge(7, 0.25, &[1.0, 0.0]);
            arm.merge(8, 0.25, &[0.0, 4.0]);
            arm.merge(7, 0.5, &[4.0, 0.0]);
            x.action(1).merge(7, 1.0, &[2.0, 2.0]);
        })
        .unwrap();
        let avg = (1.0 * 0.25 + 4.0 * 0.5) / 0.75;
        assert_eq!(
            rows,
            vec![
                (0, vec![(7, 0.75, vec![avg, 0.0]), (8, 0.25, vec![0.0, 4.0])]),
                (1, vec![(7, 1.0, vec![2.0, 2.0])]),
            ]
        );
        let short = expand_one(2, &0u32, |_: &u32, x: &mut Expansion<u32>| {
            let mut arm = x.action(0);
            arm.merge(7, 0.5, &[1.0, 0.0]);
            arm.merge(7, 0.5, &[1.0]);
        });
        assert!(matches!(short, Err(MdpError::RewardArity { action: 0, found: 1, .. })));
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
