//! Per-node chain views.
//!
//! In a BU network every block reaches every node, but nodes *disagree on
//! validity*. A [`NodeView`] layers one node's [`ValidityRule`] over a shared
//! [`BlockTree`] and answers the question the mining protocol actually asks:
//! *which block do I mine on right now?* — the tip of the longest locally
//! valid chain, first-received winning ties.
//!
//! Because every rule in this crate judges a chain as a pure function of its
//! block sizes, receiving a new block can only change the status of the one
//! chain that ends at that block; the view therefore updates incrementally
//! in O(chain length) per received block.

use crate::block::{BlockId, ByteSize, Height};
use crate::tree::BlockTree;
use crate::validity::ValidityRule;

/// One node's running view over a shared block tree.
pub struct NodeView<R: ValidityRule> {
    rule: R,
    /// Blocks this node has received, in arrival order.
    received: Vec<BlockId>,
    /// The tip of the longest locally valid chain seen so far (genesis when
    /// nothing valid has arrived). First-received wins ties.
    best: BlockId,
    best_height: Height,
}

impl<R: ValidityRule> NodeView<R> {
    /// Creates a view that has seen only genesis.
    pub fn new(rule: R) -> Self {
        NodeView { rule, received: Vec::new(), best: BlockId::GENESIS, best_height: 0 }
    }

    /// Forgets every received block, keeping the rule and the received
    /// list's allocation: the view then equals a fresh one's, to be used
    /// over a tree that was [`BlockTree::reset`].
    pub fn reset(&mut self) {
        self.received.clear();
        self.best = BlockId::GENESIS;
        self.best_height = 0;
    }

    /// The node's validity rule.
    pub fn rule(&self) -> &R {
        &self.rule
    }

    /// Blocks received so far, in arrival order.
    pub fn received(&self) -> &[BlockId] {
        &self.received
    }

    /// The block this node currently mines on.
    pub fn accepted_tip(&self) -> BlockId {
        self.best
    }

    /// Height of [`NodeView::accepted_tip`].
    pub fn accepted_height(&self) -> Height {
        self.best_height
    }

    /// The sizes along the chain from genesis (excluded) to `tip`.
    pub fn chain_sizes(tree: &BlockTree, tip: BlockId) -> Vec<ByteSize> {
        tree.chain(tip).into_iter().map(|b| tree.block(b).size).collect()
    }

    /// Whether the chain ending at `tip` is valid under this node's rule.
    pub fn chain_valid(&self, tree: &BlockTree, tip: BlockId) -> bool {
        self.rule.chain_valid(&Self::chain_sizes(tree, tip))
    }

    /// Delivers `block` to the node and updates its accepted tip.
    ///
    /// Returns `true` when the accepted tip changed. The caller must deliver
    /// a block only after all its ancestors (the simulator's propagation
    /// layer guarantees this ordering).
    pub fn receive(&mut self, tree: &BlockTree, block: BlockId) -> bool {
        self.received.push(block);
        let h = tree.height(block);
        // A new block can only beat the current best if it is strictly
        // higher (first-received keeps ties), and only its own chain's
        // status changed by this arrival.
        if h > self.best_height && self.chain_valid(tree, block) {
            self.best = block;
            self.best_height = h;
            return true;
        }
        // Non-monotonic rules (AD acceptance) can also make a *previously
        // received* descendant's chain valid once... no: arrival of `block`
        // changes only the chain ending at `block`, and descendants arrive
        // after ancestors, so no other chain needs re-evaluation.
        false
    }

    /// Recomputes the accepted tip from scratch (O(n·chain) — used by tests
    /// to validate the incremental update, and by callers after manually
    /// rewriting history).
    pub fn recompute(&mut self, tree: &BlockTree) {
        self.best = BlockId::GENESIS;
        self.best_height = 0;
        let received = std::mem::take(&mut self.received);
        for &b in &received {
            let h = tree.height(b);
            if h > self.best_height && self.chain_valid(tree, b) {
                self.best = b;
                self.best_height = h;
            }
        }
        self.received = received;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::block::{ByteSize, MinerId};
    use crate::validity::{BitcoinRule, BuRizunRule};

    const EB_B: ByteSize = ByteSize(1_000_000);
    const EB_C: ByteSize = ByteSize(16_000_000);

    fn small() -> ByteSize {
        ByteSize(900_000)
    }

    #[test]
    fn bitcoin_view_tracks_longest_valid_chain() {
        let mut tree = BlockTree::new();
        let mut view = NodeView::new(BitcoinRule::classic());
        let a = tree.extend(BlockId::GENESIS, small(), MinerId(0));
        assert!(view.receive(&tree, a));
        let big = tree.extend(a, ByteSize::mb(2), MinerId(1));
        assert!(!view.receive(&tree, big)); // invalid: over 1 MB
        assert_eq!(view.accepted_tip(), a);
        let b = tree.extend(a, small(), MinerId(2));
        assert!(view.receive(&tree, b));
        assert_eq!(view.accepted_tip(), b);
    }

    #[test]
    fn first_received_wins_ties() {
        let mut tree = BlockTree::new();
        let mut view = NodeView::new(BitcoinRule::classic());
        let a = tree.extend(BlockId::GENESIS, small(), MinerId(0));
        let b = tree.extend(BlockId::GENESIS, small(), MinerId(1));
        view.receive(&tree, a);
        assert!(!view.receive(&tree, b)); // same height: keep a
        assert_eq!(view.accepted_tip(), a);
    }

    /// The Figure-1 scenario (upper and middle panels): a node with a small
    /// EB rejects an excessive block until AD − 1 more blocks are built on
    /// it, then jumps to that chain.
    #[test]
    fn ad_acceptance_switches_view_late() {
        let mut tree = BlockTree::new();
        let mut bob = NodeView::new(BuRizunRule::new(EB_B, 3));
        // Excessive chain: e (16 MB) then two small blocks on top.
        let e = tree.extend(BlockId::GENESIS, EB_C, MinerId(1));
        assert!(!bob.receive(&tree, e));
        assert_eq!(bob.accepted_tip(), BlockId::GENESIS);
        let x1 = tree.extend(e, small(), MinerId(1));
        assert!(!bob.receive(&tree, x1)); // depth 2 < AD
        let x2 = tree.extend(x1, small(), MinerId(1));
        assert!(bob.receive(&tree, x2)); // depth 3 = AD: whole chain accepted
        assert_eq!(bob.accepted_tip(), x2);
        assert_eq!(bob.accepted_height(), 3);
    }

    /// While Bob rejects an excessive tip, he keeps mining on its parent —
    /// the view's accepted tip is the deepest block with a valid chain, not
    /// necessarily a tree tip.
    #[test]
    fn rejecting_node_stays_on_shorter_chain() {
        let mut tree = BlockTree::new();
        let mut bob = NodeView::new(BuRizunRule::new(EB_B, 3));
        let a = tree.extend(BlockId::GENESIS, small(), MinerId(0));
        bob.receive(&tree, a);
        let e = tree.extend(a, EB_C, MinerId(1));
        bob.receive(&tree, e);
        assert_eq!(bob.accepted_tip(), a);
        // Bob's own next block extends a, not e.
        let b = tree.extend(a, small(), MinerId(0));
        assert!(bob.receive(&tree, b));
        assert_eq!(bob.accepted_tip(), b);
    }

    #[test]
    fn incremental_matches_recompute() {
        let mut tree = BlockTree::new();
        let mut view = NodeView::new(BuRizunRule::new(EB_B, 2));
        let mut blocks = Vec::new();
        let a = tree.extend(BlockId::GENESIS, small(), MinerId(0));
        let e = tree.extend(a, EB_C, MinerId(1));
        let f = tree.extend(e, small(), MinerId(1));
        let g = tree.extend(a, small(), MinerId(2));
        blocks.extend([a, e, g, f]);
        for b in blocks {
            view.receive(&tree, b);
        }
        let incremental = view.accepted_tip();
        view.recompute(&tree);
        assert_eq!(view.accepted_tip(), incremental);
    }

    /// A reset tree and view are a fresh pair: only genesis, nothing
    /// received, and the next block gets a fresh tree's id and height.
    #[test]
    fn reset_equals_a_fresh_tree_and_view() {
        let mut tree = BlockTree::new();
        let mut view = NodeView::new(BuRizunRule::new(EB_B, 2));
        let a = tree.extend(BlockId::GENESIS, small(), MinerId(0));
        let e = tree.extend(a, EB_C, MinerId(1));
        let f = tree.extend(e, small(), MinerId(1));
        for b in [a, e, f] {
            view.receive(&tree, b);
        }
        assert_eq!(view.accepted_tip(), f);

        tree.reset();
        view.reset();
        assert_eq!(tree.len(), 1);
        assert!(tree.is_empty());
        assert_eq!(tree.children(BlockId::GENESIS), &[]);
        assert_eq!(tree.tips(), vec![BlockId::GENESIS]);
        assert_eq!(view.accepted_tip(), BlockId::GENESIS);
        assert_eq!(view.accepted_height(), 0);
        assert!(view.received().is_empty());

        let mut fresh = BlockTree::new();
        let want = fresh.extend(BlockId::GENESIS, EB_C, MinerId(2));
        let got = tree.extend(BlockId::GENESIS, EB_C, MinerId(2));
        assert_eq!((got, tree.height(got)), (want, fresh.height(want)));
        assert_eq!(tree.children(BlockId::GENESIS), &[got]);
        assert_eq!(tree.children(got), &[]);
        // The view judges the new block as a fresh view would: excessive
        // for Bob's EB, so his tip stays at genesis.
        assert!(!view.receive(&tree, got));
        assert_eq!(view.accepted_tip(), BlockId::GENESIS);
    }

    #[test]
    fn view_with_different_ebs_diverge() {
        let mut tree = BlockTree::new();
        let mut bob = NodeView::new(BuRizunRule::new(EB_B, 6));
        let mut carol = NodeView::new(BuRizunRule::new(EB_C, 6));
        // Alice mines a block of size exactly EB_C: valid for Carol (not
        // excessive), excessive for Bob. This is the paper's phase-1 split.
        let a = tree.extend(BlockId::GENESIS, EB_C, MinerId(0));
        bob.receive(&tree, a);
        carol.receive(&tree, a);
        assert_eq!(bob.accepted_tip(), BlockId::GENESIS);
        assert_eq!(carol.accepted_tip(), a);
    }
}
