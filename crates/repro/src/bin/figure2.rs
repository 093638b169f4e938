//! Regenerates **Figure 2**: the two fork constructions of the attack.
//!
//! * Phase 1: Alice mines a block of size exactly `EB_C` — Carol accepts it
//!   and mines on it (Chain 2), Bob rejects it and keeps extending Chain 1.
//! * Phase 2 (after Bob's sticky gate opened): Alice mines a block slightly
//!   larger than `EB_C` — Bob (gate open) accepts it, Carol rejects it.
//!
//! Both panels are executed against real node views and the diverging
//! accepted tips are printed.
//!
//! Run: `cargo run --release -p bvc-repro --bin figure2`

use bvc_chain::{BlockId, BlockTree, BuRizunRule, ByteSize, MinerId, NodeView};

const ALICE: MinerId = MinerId(0);
const BOB_EB: ByteSize = ByteSize(1_000_000);
const CAROL_EB: ByteSize = ByteSize(16_000_000);

fn small() -> ByteSize {
    ByteSize(900_000)
}

fn main() {
    bvc_repro::refuse_arguments();
    let ad = 3;
    println!(
        "Figure 2 — phase-1 and phase-2 splits, EB_B = {BOB_EB}, EB_C = {CAROL_EB}, AD = {ad}"
    );
    println!();

    // Phase 1.
    {
        let mut tree = BlockTree::new();
        let mut bob = NodeView::new(BuRizunRule::new(BOB_EB, ad));
        let mut carol = NodeView::new(BuRizunRule::new(CAROL_EB, ad));
        // Alice mines the EB_C-sized fork block.
        let fork = tree.extend(BlockId::GENESIS, CAROL_EB, ALICE);
        bob.receive(&tree, fork);
        carol.receive(&tree, fork);
        assert_eq!(bob.accepted_tip(), BlockId::GENESIS, "Bob rejects");
        assert_eq!(carol.accepted_tip(), fork, "Carol accepts");
        println!("phase 1: Alice mines a block of size EB_C = {CAROL_EB}");
        println!("         Bob's tip:   {} (rejects, mines Chain 1)", bob.accepted_tip());
        println!("         Carol's tip: {} (accepts, mines Chain 2)", carol.accepted_tip());

        // Chain 2 reaches AD: Bob adopts it and his sticky gate opens.
        let c1 = tree.extend(fork, small(), MinerId(2));
        bob.receive(&tree, c1);
        carol.receive(&tree, c1);
        let c2 = tree.extend(c1, small(), MinerId(2));
        bob.receive(&tree, c2);
        carol.receive(&tree, c2);
        assert_eq!(bob.accepted_tip(), c2, "Bob adopts all AD blocks");
        println!("         after AD = {ad} blocks on Chain 2, Bob adopts it: sticky gate opens");

        // Phase 2, continuing the same world: Alice mines just above EB_C.
        let over = ByteSize(CAROL_EB.bytes() + 1);
        let fork2 = tree.extend(c2, over, ALICE);
        bob.receive(&tree, fork2);
        carol.receive(&tree, fork2);
        assert_eq!(bob.accepted_tip(), fork2, "gate-open Bob accepts > EB_C");
        assert_eq!(carol.accepted_tip(), c2, "Carol rejects > EB_C");
        println!();
        println!("phase 2: Alice mines a block of size EB_C + 1 byte = {over}");
        println!(
            "         Bob's tip:   {} (gate open: accepts, mines Chain 2)",
            bob.accepted_tip()
        );
        println!("         Carol's tip: {} (rejects, mines Chain 1)", carol.accepted_tip());
    }

    println!();
    println!("both splits verified against the chain substrate.");
}
