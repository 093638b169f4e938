//! # bvc-bitcoin — Bitcoin mining-attack baselines
//!
//! The comparison baselines the paper measures Bitcoin Unlimited against:
//!
//! * **Honest mining** — relative revenue equals the mining power share α
//!   (Bitcoin is incentive compatible when everyone complies);
//! * **Optimal selfish mining** — the Sapirshtein–Sompolinsky–Zohar MDP
//!   over states `(a, h, fork)` with actions Adopt / Override / Match /
//!   Wait and the tie-winning parameter γ;
//! * **Combined selfish mining + double spending** — the same state space
//!   with the paper's double-spend payout: orphaning `k > 3` honest blocks
//!   in one race pays `(k − 3) · R_DS` with `R_DS` worth ten block rewards
//!   (four-confirmation merchants). This regenerates the bottom panel of
//!   the paper's Table 3.
//!
//! ## Example
//!
//! ```
//! use bvc_bitcoin::{BitcoinConfig, BitcoinModel, SolveOptions};
//!
//! // Selfish mining with 30% power and no tie advantage...
//! let m = BitcoinModel::build(BitcoinConfig::selfish_mining(0.30, 0.0)).unwrap();
//! let sol = m.optimal_relative_revenue(&SolveOptions::default()).unwrap();
//! // ...is unprofitable below the ≈ 0.3294 threshold of Sapirshtein et al.
//! assert!((sol.value - 0.30).abs() < 1e-3);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod eyal_sirer;
pub mod model;
pub mod solve;
pub mod state;
pub mod threshold;

pub use bvc_mdp::solve::{OptimalStrategy, SolveOptions};
pub use eyal_sirer::{closed_form_revenue, sm1_policy, sm1_relative_revenue};
pub use model::{expand, BitcoinConfig, BitcoinModel, MAX_CAP};
pub use state::{Fork, SmAction, SmState};
pub use threshold::{is_profitable, profitability_threshold, ThresholdOptions};
