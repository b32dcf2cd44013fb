//! Markov decision processes for the CTJam suite.
//!
//! Implements the paper's §III model and analysis:
//!
//! * [`mdp`] — a validated tabular finite MDP ([`mdp::TabularMdp`]) with a
//!   builder and a transition sampler.
//! * [`solve`] — value iteration, the Banach fixed-point construction
//!   behind the paper's Theorem III.1 (existence of optimal policies).
//! * [`antijam`] — the anti-jamming MDP of Eqs. (3)–(14): states
//!   `{1..⌈K/m⌉−1, TJ, J}`, actions `{stay, hop} × power levels`, the
//!   sweep-hazard transition kernel, and the loss-based reward.
//! * [`analysis`] — threshold-policy extraction and verification of
//!   Lemmas III.2–III.3 and Theorems III.4–III.5 on solved instances.
//!
//! # Example
//!
//! Solve the paper's default instance and inspect the threshold policy:
//!
//! ```
//! use ctjam_mdp::antijam::{AntijamMdp, AntijamParams};
//! use ctjam_mdp::analysis::threshold_of;
//! use ctjam_mdp::solve::value_iteration::value_iteration;
//!
//! let mdp = AntijamMdp::new(AntijamParams::default());
//! let solution = value_iteration(mdp.tabular(), 0.9, 1e-10, 10_000);
//! let threshold = threshold_of(&mdp, &solution.q);
//! assert!(threshold >= 1, "optimal policy must be a threshold policy");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod analysis;
pub mod antijam;
pub mod mdp;
pub mod solve;
pub mod stationary;
