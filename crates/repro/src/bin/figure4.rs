//! Regenerates **Figure 4**: the block size increasing game with miner
//! groups of 10% / 20% / 30% / 40%, plus the stable-set characterization
//! (Analytical Result 5).
//!
//! Run: `cargo run --release -p bvc-repro --bin figure4`

use bvc_games::{BlockSizeIncreasingGame, MinerGroup};

fn main() {
    bvc_repro::refuse_arguments();
    let game = BlockSizeIncreasingGame::new(vec![
        MinerGroup { mpb: 1.0, power: 0.10 },
        MinerGroup { mpb: 2.0, power: 0.20 },
        MinerGroup { mpb: 4.0, power: 0.30 },
        MinerGroup { mpb: 8.0, power: 0.40 },
    ]);

    println!("Figure 4 — block size increasing game, powers 10/20/30/40");
    println!();
    let trace = game.play();
    for (i, round) in trace.rounds.iter().enumerate() {
        let votes: Vec<String> = round
            .votes
            .iter()
            .map(|(g, v)| format!("group {} votes {}", g + 1, if *v { "yes" } else { "no" }))
            .collect();
        println!(
            "round {}: motion to raise MG past group {}'s MPB — {}",
            i + 1,
            round.leaving + 1,
            votes.join(", ")
        );
        println!(
            "         -> {}",
            if round.passed {
                format!("passed: group {} is forced out", round.leaving + 1)
            } else {
                "failed: game terminates".to_string()
            }
        );
    }
    println!();
    println!(
        "terminal set: groups {:?} (0-based suffix start {})",
        (trace.terminal..game.len()).map(|i| i + 1).collect::<Vec<_>>(),
        trace.terminal
    );
    assert_eq!(trace.terminal, game.terminal_set(), "theorem == playout");
    println!("stable-set recursion agrees with the round-by-round playout.");
    println!();
    let u = game.utilities();
    println!("utilities: {u:?}");
    println!();
    println!("Analytical Result 5: group 1 (10%) is forced out even though the");
    println!("remaining groups then stop — a coalition of large miners raises the");
    println!("block size whenever the prospective survivors outweigh the rest.");
}
