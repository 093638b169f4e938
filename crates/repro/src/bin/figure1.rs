//! Regenerates **Figure 1**: a BU miner's choice of parent block with
//! `AD = 3`, in three scenarios:
//!
//! * upper panel — an excessive block is rejected while the chain on it is
//!   shorter than `AD`;
//! * middle panel — two blocks are mined on the excessive block: the chain
//!   is accepted and the sticky gate opens, releasing the limit to 32 MB;
//! * lower panel — the sticky gate closes again after 144 consecutive
//!   non-excessive blocks.
//!
//! Each panel is executed against the real chain substrate and the asserted
//! view outcomes are printed.
//!
//! Run: `cargo run --release -p bvc-repro --bin figure1`

use bvc_chain::{
    BlockId, BlockTree, BuRizunRule, ByteSize, GateStatus, MinerId, NodeView, STICKY_GATE_BLOCKS,
};

fn small() -> ByteSize {
    ByteSize(900_000)
}
fn excessive() -> ByteSize {
    ByteSize::mb(16)
}

fn main() {
    bvc_repro::refuse_arguments();
    let eb = ByteSize::mb(1);
    let ad = 3;
    println!("Figure 1 — BU parent-block choice, EB = {eb}, AD = {ad}");
    println!();

    // Upper panel: the excessive block is rejected.
    {
        let mut tree = BlockTree::new();
        let mut node = NodeView::new(BuRizunRule::new(eb, ad));
        let a = tree.extend(BlockId::GENESIS, small(), MinerId(1));
        node.receive(&tree, a);
        let e = tree.extend(a, excessive(), MinerId(1));
        node.receive(&tree, e);
        let f = tree.extend(e, small(), MinerId(1));
        node.receive(&tree, f);
        assert_eq!(node.accepted_tip(), a);
        println!("upper:  chain [.., excessive, small]; depth 2 < AD");
        println!("        -> miner keeps mining on the pre-excessive block ({})", a);
    }

    // Middle panel: two blocks after the excessive one -> accepted, gate
    // opens, 32 MB blocks become valid on that chain.
    {
        let mut tree = BlockTree::new();
        let mut node = NodeView::new(BuRizunRule::new(eb, ad));
        let e = tree.extend(BlockId::GENESIS, excessive(), MinerId(1));
        node.receive(&tree, e);
        let f1 = tree.extend(e, small(), MinerId(1));
        node.receive(&tree, f1);
        let f2 = tree.extend(f1, small(), MinerId(1));
        node.receive(&tree, f2);
        assert_eq!(node.accepted_tip(), f2, "AD reached: chain accepted");
        let rule = *node.rule();
        let sizes = NodeView::<BuRizunRule>::chain_sizes(&tree, f2);
        let gate = rule.gate_after(&sizes);
        assert!(matches!(gate, GateStatus::Open { .. }));
        // A 20 MB block is now acceptable on this chain.
        let big = tree.extend(f2, ByteSize::mb(20), MinerId(1));
        assert!(node.receive(&tree, big));
        println!("middle: two blocks mined on the excessive block -> chain valid & accepted;");
        println!("        sticky gate open ({gate:?}), block size limit released to 32 MB");
    }

    // Lower panel: gate closes after 144 consecutive non-excessive blocks.
    {
        let mut tree = BlockTree::new();
        let mut node = NodeView::new(BuRizunRule::new(eb, ad));
        let e = tree.extend(BlockId::GENESIS, excessive(), MinerId(1));
        node.receive(&tree, e);
        let mut tip = e;
        for _ in 0..STICKY_GATE_BLOCKS {
            tip = tree.extend(tip, small(), MinerId(1));
            node.receive(&tree, tip);
        }
        let rule = *node.rule();
        let sizes = NodeView::<BuRizunRule>::chain_sizes(&tree, tip);
        assert_eq!(rule.gate_after(&sizes), GateStatus::Closed);
        // The next oversize block is rejected again.
        let big = tree.extend(tip, ByteSize::mb(20), MinerId(1));
        node.receive(&tree, big);
        assert_eq!(node.accepted_tip(), tip);
        println!(
            "lower:  after {STICKY_GATE_BLOCKS} consecutive non-excessive blocks the gate closes;"
        );
        println!("        the next 20 MB block is rejected until it has AD depth again");
    }

    println!();
    println!("all three panels verified against the chain substrate.");
}
