//! Regenerates the §5.1 analysis: Nash equilibria of the **EB choosing
//! game** (Analytical Result 4), including the April-2017 interpretation
//! (§6.1) and the breakdown with a majority miner.
//!
//! Run: `cargo run --release -p bvc-repro --bin eb_game`

use bvc_games::EbChoosingGame;

fn main() {
    bvc_repro::refuse_arguments();
    println!("EB choosing game — Nash equilibria (Analytical Result 4)");
    println!();

    // A representative sub-50% power distribution.
    let g = EbChoosingGame::new(vec![0.05, 0.10, 0.15, 0.30, 0.40]);
    let eq = g.enumerate_equilibria().expect("5 miners is well under the cap");
    println!("powers {:?}:", g.powers());
    for p in &eq {
        println!("  equilibrium: {p:?} (utilities {:?})", g.utilities(p));
    }
    assert_eq!(eq.len(), 2, "exactly the two unanimous profiles");
    assert!(eq.iter().all(|p| p.iter().all(|&c| c == p[0])));
    println!("  -> exactly the unanimous profiles: consensus can hold, but the game");
    println!("     does not select WHICH EB — and says nothing under perturbations.");
    println!();

    // Best-response dynamics from a split start converge to unanimity.
    let (profile, nash) = g.best_response_dynamics(vec![0, 1, 0, 1, 0], 100);
    println!("best-response dynamics from [0,1,0,1,0] -> {profile:?} (NE: {nash})");
    println!();

    // Fragility (§6.2: the emergent consensus "is easily disrupted even
    // when it holds"): the smallest coalition whose joint EB deviation
    // flips the whole network under best-response dynamics.
    let g2017 = EbChoosingGame::new(vec![0.17, 0.13, 0.10, 0.10, 0.08, 0.07, 0.06, 0.29]);
    let k =
        g2017.minimal_flipping_coalition().expect("8 miners is under the cap").expect("flippable");
    println!("fragility on the 2017-style pool distribution:");
    println!("  minimal flipping coalition: {k} parties");
    println!("  -> a handful of pools signalling a new EB drags the whole network");
    println!("     to it; and with a near-majority miner, even a SINGLE small");
    println!("     defector can trigger the flip (the big miner prefers the");
    println!("     smaller winning coalition - see the ebgame tests).");
    println!();

    // §6.1: with a majority already on one EB, following is rational —
    // the paper's explanation of why all BU miners signalled EB = 1 MB.
    let april = EbChoosingGame::new(vec![0.6, 0.25, 0.15]);
    println!("majority-miner game, powers {:?}:", april.powers());
    let eq = april.enumerate_equilibria().expect("3 miners is well under the cap");
    println!("  pure equilibria: {}", eq.len());
    assert!(eq.is_empty());
    println!("  -> with a strict majority miner NO pure equilibrium exists: the");
    println!("     majority miner always profits from defecting to win alone, and");
    println!("     every loser profits from rejoining — the consensus claim of the");
    println!("     paper's proof explicitly needs every miner below 50%.");
}
