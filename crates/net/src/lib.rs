//! ZigBee network substrate for the CTJam suite.
//!
//! Models the pieces of the paper's testbed that sit between the PHY and
//! the anti-jamming logic:
//!
//! * [`fcs`] — the 802.15.4 CRC-16 frame check sequence.
//! * [`frame`] — MAC data/ACK/negotiation frames carried in PHY PSDUs.
//! * [`mac`] — Listen-Before-Talk / unslotted CSMA-CA channel access.
//! * [`timing`] — the field experiment's measured time constants (DQN
//!   inference 9 ms, ACK round trip 0.9 ms, processing 0.6 ms, polling
//!   13.1 ms/node) with realistic jitter.
//! * [`negotiation`] — the hub's polling-mode FH/PC announcement, control
//!   channel fallback included (Fig. 9(b)).
//! * [`node`] / [`hub`] / [`star`] — the star network: one hub, N
//!   peripherals, per-slot data exchange (Figs. 10–11 substrate).
//! * [`goodput`] — packets-per-slot and slot-utilization accounting.
//!
//! # Example
//!
//! One slot of the star network, no jamming:
//!
//! ```
//! use ctjam_net::star::{StarNetwork, SlotOutcome};
//! use rand::rngs::StdRng;
//! use rand::SeedableRng;
//!
//! let mut net = StarNetwork::new(3);
//! let mut rng = StdRng::seed_from_u64(1);
//! let outcome = net.run_slot(3.0, true, 0.0, &mut rng);
//! assert!(outcome.delivered > 400, "3 s slot should carry hundreds of packets");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod control;
pub mod fcs;
pub mod frame;
pub mod goodput;
pub mod hub;
pub mod mac;
pub mod negotiation;
pub mod node;
pub mod star;
pub mod timing;
