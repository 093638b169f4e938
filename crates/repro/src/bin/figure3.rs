//! Regenerates **Figure 3**: a concrete trace in which one Alice block
//! orphans two of Bob's and Carol's blocks (the mechanism behind Table 4's
//! `u3 > 1`).
//!
//! The figure's block sequence: Alice forks with a block of size `EB_C`
//! (Chain 2); Carol mines two blocks on it; Bob mines three blocks on Chain
//! 1; when Chain 1 outgrows Chain 2, Carol switches back — Alice's single
//! block has orphaned Carol's two.
//!
//! Run: `cargo run --release -p bvc-repro --bin figure3`

use bvc_chain::{ascii_tree, Block, BlockId, BlockTree, BuRizunRule, ByteSize, MinerId, NodeView};

const ALICE: MinerId = MinerId(0);
const BOB: MinerId = MinerId(1);
const CAROL: MinerId = MinerId(2);

fn main() {
    bvc_repro::refuse_arguments();
    let eb_b = ByteSize::mb(1);
    let eb_c = ByteSize::mb(16);
    let ad = 6;
    let small = ByteSize(900_000);
    let mut tree = BlockTree::new();
    let mut bob = NodeView::new(BuRizunRule::without_sticky_gate(eb_b, ad));
    let mut carol = NodeView::new(BuRizunRule::without_sticky_gate(eb_c, ad));
    let deliver = |tree: &BlockTree,
                   bob: &mut NodeView<BuRizunRule>,
                   carol: &mut NodeView<BuRizunRule>,
                   b: BlockId| {
        bob.receive(tree, b);
        carol.receive(tree, b);
    };

    println!("Figure 3 — two compliant blocks orphaned by one Alice block (AD = {ad})");
    println!();

    // Alice's fork block (size EB_C): Chain 2 starts.
    let a1 = tree.extend(BlockId::GENESIS, eb_c, ALICE);
    deliver(&tree, &mut bob, &mut carol, a1);
    println!("t1: Alice mines the fork block {a1} (size {eb_c}) — Carol follows, Bob rejects");

    // Carol extends Chain 2 twice.
    let c1 = tree.extend(carol.accepted_tip(), small, CAROL);
    deliver(&tree, &mut bob, &mut carol, c1);
    let c2 = tree.extend(carol.accepted_tip(), small, CAROL);
    deliver(&tree, &mut bob, &mut carol, c2);
    println!("t2: Carol mines {c1} and {c2} on Chain 2 (l2 = 3)");

    // Bob extends Chain 1 three times.
    let b1 = tree.extend(bob.accepted_tip(), small, BOB);
    deliver(&tree, &mut bob, &mut carol, b1);
    let b2 = tree.extend(bob.accepted_tip(), small, BOB);
    deliver(&tree, &mut bob, &mut carol, b2);
    let b3 = tree.extend(bob.accepted_tip(), small, BOB);
    deliver(&tree, &mut bob, &mut carol, b3);
    println!("t3: Bob mines {b1}, {b2}, {b3} on Chain 1 (l1 = 3)");

    // Chain 1 and Chain 2 are tied at 3; one more Bob block outgrows.
    let b4 = tree.extend(bob.accepted_tip(), small, BOB);
    deliver(&tree, &mut bob, &mut carol, b4);
    println!("t4: Bob mines {b4}: Chain 1 outgrows Chain 2 — Carol switches back");

    assert_eq!(bob.accepted_tip(), b4);
    assert_eq!(carol.accepted_tip(), b4, "Carol switched to Chain 1");
    let orphans = tree.orphaned_by(c2, b4);
    assert_eq!(orphans.len(), 3);
    let carol_orphans = orphans.iter().filter(|&&b| tree.block(b).miner == CAROL).count();
    let alice_orphans = orphans.iter().filter(|&&b| tree.block(b).miner == ALICE).count();
    assert_eq!(carol_orphans, 2);
    assert_eq!(alice_orphans, 1);

    println!();
    println!("final block tree (o = orphaned):");
    let winner = b4;
    print!(
        "{}",
        ascii_tree(&tree, &|b: &Block| {
            if tree.is_ancestor(b.id, winner) {
                String::new()
            } else {
                "o".into()
            }
        })
    );
    println!();
    println!(
        "result: Chain 2 orphaned — {carol_orphans} Carol blocks and {alice_orphans} Alice block"
    );
    println!("        u3 for this episode = {carol_orphans} / {alice_orphans} = 2.0");
    println!("        (Table 4 gives the long-run optimum, up to 1.77 at β:γ = 2:3)");
}
