//! Deep Q-Network agent for the CTJam anti-jamming defense.
//!
//! Implements §III.C of the paper:
//!
//! * the observation is the (outcome, channel, power) of the previous `I`
//!   time slots — `3 × I` input neurons ([`encode`]);
//! * the network is a 4-layer fully connected MLP with two ReLU hidden
//!   layers and `C × PL` linear outputs, one Q-value per
//!   (channel, power-level) action ([`config`], [`agent`]);
//! * actions are chosen ε-greedily: the argmax with probability `1 − ε`,
//!   any other action uniformly with probability `ε/(C·PL − 1)`;
//! * training uses experience replay ([`replay`]) and a periodically
//!   synchronized target network ([`agent`]).
//!
//! # Example
//!
//! ```
//! use ctjam_dqn::agent::DqnAgent;
//! use ctjam_dqn::config::DqnConfig;
//! use rand::rngs::StdRng;
//! use rand::SeedableRng;
//!
//! let mut rng = StdRng::seed_from_u64(1);
//! let config = DqnConfig::default();
//! let mut agent = DqnAgent::new(config.clone(), &mut rng);
//! let observation = vec![0.0; config.input_size()];
//! let action = agent.act(&observation, &mut rng);
//! assert!(action < config.num_actions());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod agent;
pub mod checkpoint;
pub mod config;
pub mod encode;
pub mod policy;
pub mod replay;
