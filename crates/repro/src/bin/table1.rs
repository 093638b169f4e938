//! Regenerates **Table 1**: the state transition and reward distribution
//! for a compliant and profit-driven Alice in setting 1, printed from the
//! model generator and diffed against an independent hand-coded copy of
//! the published table.
//!
//! Run: `cargo run --release -p bvc-repro --bin table1 [alpha beta_ratio gamma_ratio]`

use bvc_bu::table1::{diff_rows, generator_rows, published_rows, render};
use bvc_bu::{AttackConfig, AttackModel};

/// The setting-1 compliant configuration of the positionals `alpha
/// beta_ratio gamma_ratio` (default `0.25 1 1`), checked by the table-cell
/// schema `bvc solve` reads.
fn config(args: &[String]) -> Result<AttackConfig, String> {
    let (alpha, ratio) = match args {
        [] => ("0.25", "1:1".to_string()),
        [alpha, b, c] => (alpha.as_str(), format!("{b}:{c}")),
        _ => {
            return Err(format!(
                "table1 takes no arguments or three (alpha beta_ratio gamma_ratio), got {args:?}"
            ))
        }
    };
    let (cfg, _) = AttackConfig::from_params(|name| match name {
        "alpha" => Some(alpha),
        "ratio" => Some(ratio.as_str()),
        _ => None,
    })?;
    Ok(cfg)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cfg = config(&args).unwrap_or_else(|msg| {
        eprintln!("error: {msg}");
        std::process::exit(2);
    });
    println!(
        "Table 1 — transitions & rewards, alpha={}, beta={:.4}, gamma={:.4}, AD={}",
        cfg.alpha, cfg.beta, cfg.gamma, cfg.ad
    );
    println!();

    let model = AttackModel::build(cfg.clone()).expect("model builds");
    let generated = generator_rows(&model);
    print!("{}", render(&generated));

    let corrected = published_rows(&cfg, true);
    let diffs = diff_rows(&corrected, &generated, 1e-12);
    println!();
    println!(
        "diff vs published table (two reward typos corrected): {} differing entries",
        diffs.len()
    );

    let verbatim = published_rows(&cfg, false);
    let diffs = diff_rows(&verbatim, &generated, 1e-12);
    println!(
        "diff vs verbatim published table: {} entries — all in the l1 = l2 = AD-1 rows,",
        diffs.len()
    );
    println!("where the published R_others coefficients γ(l2−a2) / β(l1−a1) violate block");
    println!("conservation (the locked chain has l+1 blocks); see bvc-bu/src/table1.rs.");
}
