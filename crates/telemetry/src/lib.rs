//! Slot-level telemetry and reproducible-run support for the CTJam suite.
//!
//! The competition loop in `ctjam-core` runs millions of slots per sweep, so
//! observability has to be opt-in and free when unused. This crate provides:
//!
//! * [`EventSink`] — the instrumentation trait. Every hook has an empty
//!   default body, and [`NullSink`] implements none of them, so a
//!   monomorphised run over `NullSink` compiles to exactly the uninstrumented
//!   loop (verified by the `env` benchmark in `ctjam-bench`).
//! * [`SlotEvent`] / [`TrainEvent`] — structured per-slot and per-train-step
//!   records: channel, power, defender action, jam outcome, reward, DQN loss,
//!   exploration rate, replay occupancy.
//! * [`MemorySink`] — an in-memory recorder of every event, with
//!   [`Counter`]s and [`Histogram`]s.
//! * [`ShardSink`] — an O(1)-memory aggregate-only sink whose `merge` is
//!   associative and commutative (exact summation via [`ExactSum`]), so
//!   sharded campaign engines can fold per-worker telemetry in any order
//!   and land on the sequential result bit-for-bit.
//! * [`RunManifest`] — a JSON provenance record (seed, parameter `Debug`
//!   string, FNV-1a config hash, `git describe`, wall time) written next to
//!   every figure binary's results so a run can be traced back to the exact
//!   tree and configuration that produced it.
//! * [`ReplayTrace`] — per-episode RNG-seed capture so any episode of a sweep
//!   can be re-run bit-exactly in isolation.
//!
//! The crate is dependency-free (JSON/CSV are hand-rolled) and sits below
//! `ctjam-core` in the crate graph: core converts its own types into the
//! plain-data events defined here.

#![forbid(unsafe_code)]

pub mod event;
pub mod export;
pub mod health;
pub mod json;
pub mod manifest;
pub mod replay;
pub mod sink;
pub mod stats;

pub use event::{SlotEvent, SlotOutcome, TrainEvent};
pub use health::RunHealth;
pub use json::JsonValue;
pub use manifest::RunManifest;
pub use replay::{EpisodeRecord, ReplayTrace};
pub use sink::{EventSink, MemorySink, NullSink, ShardSink};
pub use stats::{Counter, ExactSum, Histogram};
