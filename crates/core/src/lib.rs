//! The CTJam anti-jamming system — the paper's primary contribution,
//! assembled from the suite's substrates.
//!
//! * [`adversary`] — the first-class attacker API: the [`adversary::Adversary`]
//!   trait (one `jam(sense, rng)` per slot), the plain-data
//!   [`adversary::AdversaryConfig`] carried by environments and fleet
//!   campaign specs, and the zoo (sweep, reactive, pursuit,
//!   energy-budgeted, adaptive, learning DQN attacker) plus the
//!   decoy/bait defender hook. [`adversary::AdversaryConfig::build`] is
//!   the only way an environment, the field experiment included, gets
//!   its jammer; the paper's own is [`adversary::SweepAdversary`], which
//!   scans `m` consecutive ZigBee channels per slot in a
//!   random-permutation cycle, locks onto a found victim, and picks its
//!   power per [`adversary::JammerMode`] (max / random).
//! * [`env`](mod@env) — the slot-level Tx↔Jx competition environment: the defender
//!   picks `(channel, power)` each slot, the environment resolves clean /
//!   jammed-but-survived (`TJ`) / jammed (`J`) and pays the Eq. (5) loss.
//! * [`kernel`] — the paper's Matlab-simulation world: an environment
//!   sampling the Eqs. 6–14 transition kernel directly (Figs. 6–8).
//! * [`adaptive`] — a DeepJam-class adaptive jammer (wideband sensing +
//!   LastBlock/Markov/RNN traffic prediction) — the extension adversary.
//! * [`defender`] — anti-jamming strategies: the paper's DQN scheme plus
//!   the passive-FH and random-FH baselines of Fig. 11(a), a no-defense
//!   floor, and an MDP-oracle upper reference.
//! * [`metrics`] — Table I: success rate of transmission (ST), adoption
//!   and success rates of frequency hopping (AH, SH) and power control
//!   (AP, SP).
//! * [`runner`] — training and evaluation loops (the 20 000-slot runs of
//!   §IV.A) and parameter-sweep helpers, behind the fluent
//!   [`runner::RunBuilder`] entry point.
//! * [`pool`] — the work-stealing shard pool (atomic injector over
//!   scoped `std::thread`s) that `runner` sweeps and the `ctjam-fleet`
//!   campaign engine schedule onto.
//! * [`field`] — the field-experiment simulator: [`field::FieldEnv`], an
//!   environment that plays the slot competition on separate Tx and Jx
//!   clocks and drives the star network with the paper's timing model
//!   (Figs. 10–11). The runner's slot loop drives it like the other two.
//!
//! # Example
//!
//! Train the DQN defense briefly and measure its success rate:
//!
//! ```
//! use ctjam_core::defender::DqnDefender;
//! use ctjam_core::env::{CompetitionEnv, EnvParams};
//! use ctjam_core::runner::RunBuilder;
//! use rand::rngs::StdRng;
//! use rand::SeedableRng;
//!
//! let mut rng = StdRng::seed_from_u64(7);
//! let params = EnvParams::default();
//! let mut defender = DqnDefender::small_for_tests(&params, &mut rng);
//! RunBuilder::new(&params).train(&mut defender, 3_000, &mut rng);
//! let report = RunBuilder::new(&params).evaluate(&mut defender, 2_000, &mut rng);
//! assert!(report.metrics.success_rate() > 0.4);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod adaptive;
pub mod adversary;
pub mod defender;
pub mod env;
pub mod field;
pub mod kernel;
pub mod metrics;
pub mod pool;
pub mod runner;
