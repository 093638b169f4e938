//! An append-only block tree (arena).
//!
//! All nodes in a scenario share one tree: forks are simply multiple
//! children of the same parent. Per-node disagreement about *validity* is
//! expressed by [`crate::view::NodeView`]s layered on top, never by the tree
//! itself — exactly the structure of a BU network, where all blocks
//! propagate but nodes differ on which they accept.

use crate::block::{Block, BlockId, ByteSize, Height, MinerId};

/// Append-only arena of blocks rooted at a genesis block.
#[derive(Debug, Clone)]
pub struct BlockTree {
    blocks: Vec<Block>,
    children: Vec<Vec<BlockId>>,
}

impl BlockTree {
    /// Creates a tree containing only a genesis block of size zero, mined by
    /// a sentinel miner id.
    pub fn new() -> Self {
        let genesis = Block {
            id: BlockId::GENESIS,
            parent: None,
            height: 0,
            size: ByteSize(0),
            miner: MinerId(usize::MAX),
        };
        BlockTree { blocks: vec![genesis], children: vec![Vec::new()] }
    }

    /// Drops every block but genesis, keeping the arena's allocations: the
    /// tree then equals [`BlockTree::new`]'s, and the next block appended
    /// gets the id and height a fresh tree would give it.
    pub fn reset(&mut self) {
        self.blocks.truncate(1);
        self.children.truncate(1);
        self.children[0].clear();
    }

    /// Appends a block on `parent` and returns its id.
    ///
    /// # Panics
    /// Panics if `parent` is not in the tree.
    pub fn extend(&mut self, parent: BlockId, size: ByteSize, miner: MinerId) -> BlockId {
        let height = self.blocks[parent.0].height + 1;
        let id = BlockId(self.blocks.len());
        self.blocks.push(Block { id, parent: Some(parent), height, size, miner });
        self.children.push(Vec::new());
        self.children[parent.0].push(id);
        id
    }

    /// The block behind `id`.
    pub fn block(&self, id: BlockId) -> &Block {
        &self.blocks[id.0]
    }

    /// Number of blocks including genesis.
    pub fn len(&self) -> usize {
        self.blocks.len()
    }

    /// Whether the tree holds only genesis.
    pub fn is_empty(&self) -> bool {
        self.blocks.len() == 1
    }

    /// Height of `id`.
    pub fn height(&self, id: BlockId) -> Height {
        self.blocks[id.0].height
    }

    /// The children of `id`, in insertion order.
    pub fn children(&self, id: BlockId) -> &[BlockId] {
        &self.children[id.0]
    }

    /// All blocks with no children (the current tips). Genesis counts as a
    /// tip only when it has no children.
    pub fn tips(&self) -> Vec<BlockId> {
        self.blocks.iter().filter(|b| self.children[b.id.0].is_empty()).map(|b| b.id).collect()
    }

    /// The chain from genesis to `id`, genesis **excluded**, tip included,
    /// in increasing height order.
    pub fn chain(&self, id: BlockId) -> Vec<BlockId> {
        let mut path = Vec::with_capacity(self.blocks[id.0].height as usize);
        let mut cur = Some(id);
        while let Some(c) = cur {
            let b = &self.blocks[c.0];
            if b.is_genesis() {
                break;
            }
            path.push(c);
            cur = b.parent;
        }
        path.reverse();
        path
    }

    /// Iterates ancestors of `id` starting at `id` itself and ending at
    /// genesis.
    pub fn ancestors(&self, id: BlockId) -> impl Iterator<Item = BlockId> + '_ {
        let mut cur = Some(id);
        std::iter::from_fn(move || {
            let c = cur?;
            cur = self.blocks[c.0].parent;
            Some(c)
        })
    }

    /// Whether `a` is an ancestor of (or equal to) `b`.
    pub fn is_ancestor(&self, a: BlockId, b: BlockId) -> bool {
        let target_h = self.height(a);
        for anc in self.ancestors(b) {
            let h = self.height(anc);
            if h < target_h {
                return false;
            }
            if anc == a {
                return true;
            }
        }
        false
    }

    /// The parent of a block known to sit above genesis; every walk in
    /// [`BlockTree::common_ancestor`] stops at genesis before the parent
    /// link can run out, so a missing parent is a structural invariant
    /// violation, not a recoverable condition.
    fn parent_above_genesis(&self, id: BlockId) -> BlockId {
        match self.blocks[id.0].parent {
            Some(p) => p,
            None => panic!("walked past genesis: every pair of blocks meets at genesis"),
        }
    }

    /// The deepest common ancestor of `a` and `b` (possibly genesis).
    pub fn common_ancestor(&self, a: BlockId, b: BlockId) -> BlockId {
        let mut x = a;
        let mut y = b;
        while self.height(x) > self.height(y) {
            x = self.parent_above_genesis(x);
        }
        while self.height(y) > self.height(x) {
            y = self.parent_above_genesis(y);
        }
        while x != y {
            x = self.parent_above_genesis(x);
            y = self.parent_above_genesis(y);
        }
        x
    }

    /// Blocks on the chain to `tip` that are **not** on the chain to
    /// `winner` — i.e. the blocks orphaned when `winner`'s chain is adopted
    /// over `tip`'s.
    pub fn orphaned_by(&self, tip: BlockId, winner: BlockId) -> Vec<BlockId> {
        let fork = self.common_ancestor(tip, winner);
        let fork_h = self.height(fork);
        self.ancestors(tip).take_while(|&b| self.height(b) > fork_h).collect()
    }

    /// Iterates all blocks in insertion order (genesis first).
    pub fn iter(&self) -> impl Iterator<Item = &Block> {
        self.blocks.iter()
    }
}

impl Default for BlockTree {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sz(n: u64) -> ByteSize {
        ByteSize(n)
    }

    /// genesis -> a -> b ; genesis -> c  (fork at genesis)
    fn small_fork() -> (BlockTree, BlockId, BlockId, BlockId) {
        let mut t = BlockTree::new();
        let a = t.extend(BlockId::GENESIS, sz(1), MinerId(0));
        let b = t.extend(a, sz(2), MinerId(1));
        let c = t.extend(BlockId::GENESIS, sz(3), MinerId(2));
        (t, a, b, c)
    }

    #[test]
    fn heights_and_parents() {
        let (t, a, b, c) = small_fork();
        assert_eq!(t.height(BlockId::GENESIS), 0);
        assert_eq!(t.height(a), 1);
        assert_eq!(t.height(b), 2);
        assert_eq!(t.height(c), 1);
        assert_eq!(t.block(b).parent, Some(a));
        assert_eq!(t.len(), 4);
    }

    #[test]
    fn chain_excludes_genesis_and_orders_by_height() {
        let (t, a, b, _) = small_fork();
        assert_eq!(t.chain(b), vec![a, b]);
        assert_eq!(t.chain(BlockId::GENESIS), vec![]);
    }

    #[test]
    fn tips_are_leaves() {
        let (t, _, b, c) = small_fork();
        let mut tips = t.tips();
        tips.sort();
        assert_eq!(tips, vec![b, c]);
    }

    #[test]
    fn ancestor_queries() {
        let (t, a, b, c) = small_fork();
        assert!(t.is_ancestor(a, b));
        assert!(t.is_ancestor(BlockId::GENESIS, b));
        assert!(t.is_ancestor(b, b));
        assert!(!t.is_ancestor(b, a));
        assert!(!t.is_ancestor(c, b));
    }

    #[test]
    fn common_ancestor_at_fork_point() {
        let (t, a, b, c) = small_fork();
        assert_eq!(t.common_ancestor(b, c), BlockId::GENESIS);
        assert_eq!(t.common_ancestor(a, b), a);
        assert_eq!(t.common_ancestor(b, b), b);
    }

    #[test]
    fn orphaned_by_lists_losing_branch() {
        let (t, a, b, c) = small_fork();
        let mut orphans = t.orphaned_by(b, c);
        orphans.sort();
        assert_eq!(orphans, vec![a, b]);
        assert_eq!(t.orphaned_by(c, b), vec![c]);
        assert_eq!(t.orphaned_by(b, b), vec![]);
    }

    #[test]
    fn children_in_insertion_order() {
        let (t, a, _, c) = small_fork();
        assert_eq!(t.children(BlockId::GENESIS), &[a, c]);
    }

    #[test]
    fn deep_chain_walk() {
        let mut t = BlockTree::new();
        let mut tip = BlockId::GENESIS;
        for i in 0..100 {
            tip = t.extend(tip, sz(i), MinerId(0));
        }
        assert_eq!(t.height(tip), 100);
        assert_eq!(t.chain(tip).len(), 100);
        assert_eq!(t.ancestors(tip).count(), 101); // includes genesis
    }
}
