//! Wireless channel models for the CTJam suite.
//!
//! Everything between a transmitter's antenna and a receiver's decoder:
//!
//! * [`units`] — dB/dBm/milliwatt conversions used throughout.
//! * [`pathloss`] — the log-distance path-loss model.
//! * [`noise`] — thermal noise floor for a given bandwidth and noise figure.
//! * [`interference`] — how different *kinds* of jamming signal couple into
//!   a ZigBee receiver (the paper's EmuBee > ZigBee > Wi-Fi ordering).
//! * [`sinr`] — signal-to-interference-plus-noise computation.
//! * [`ber`] — the IEEE 802.15.4 O-QPSK/DSSS bit-error-rate curve.
//! * [`per`] — packet error rate and throughput from BER.
//! * [`link`] — end-to-end link budget: the building block for the
//!   Fig. 2(b) jamming-effect experiment.
//!
//! # Example
//!
//! Evaluate a ZigBee link while an EmuBee jammer closes in:
//!
//! ```
//! use ctjam_channel::link::{JammingScenario, JammerKind};
//!
//! let scenario = JammingScenario::default();
//! let near = scenario.evaluate(JammerKind::EmuBee, 1.0);
//! let far = scenario.evaluate(JammerKind::EmuBee, 15.0);
//! assert!(near.per > far.per, "closer jammer must hurt more");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ber;
pub mod fading;
pub mod interference;
pub mod link;
pub mod noise;
pub mod pathloss;
pub mod per;
pub mod sinr;
pub mod units;
