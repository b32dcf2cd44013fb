//! First-class adversaries: the trait every jammer implements plus the
//! configuration type that makes "which attacker" a data value.
//!
//! The paper evaluates its defense against a single sweep jammer
//! (§II.C); related work adds reactive/dynamic jammers that sense before
//! jamming, deception defenses that bait them, and energy-budgeted
//! attackers. This module turns the attacker into a plug-in:
//!
//! * [`Adversary`] — one `jam(sense, rng)` call per slot, cloneable for
//!   sharded campaigns, introspectable via [`AdversaryProbe`].
//! * [`AdversaryConfig`] / [`AdversaryKind`] — a plain-data description
//!   (builders: [`AdversaryConfig::sweep`], [`AdversaryConfig::reactive`],
//!   …) that environments and fleet campaign specs carry and
//!   [`AdversaryConfig::build`] turns into a boxed adversary.
//! * The zoo: [`NullAdversary`], [`SweepAdversary`] (the paper's jammer),
//!   [`ReactiveJammer`], [`PursuitJammer`], [`EnergyBudgetJammer`], and
//!   the learning [`DqnJammer`].
//!
//! # Determinism contract
//!
//! An adversary owns no RNG: every random draw comes from the `rng`
//! handed to `jam` (and to [`AdversaryConfig::build`] at construction),
//! so a `(config, seed)` pair fully determines its behaviour. Cloning an
//! adversary ([`Adversary::clone_box`]) snapshots its state; replaying
//! the clone against a cloned RNG reproduces the original bit for bit —
//! this is what lets the fleet engine shard episodes freely.

use crate::adaptive::AdaptiveJammer;
use crate::adaptive::PredictorKind;
use ctjam_dqn::agent::DqnAgent;
use ctjam_dqn::config::DqnConfig;
use ctjam_dqn::encode::{ObservationEncoder, SlotOutcome, SlotRecord};
use rand::{Rng, RngCore};
use std::collections::VecDeque;

/// Jammer power-selection mode (paper §II.C.1): the one the MDP kernel
/// models, shared by every adversary's front end.
pub use ctjam_mdp::antijam::JammerMode;

/// A typed block of consecutive channels (start + width), replacing the
/// old raw `block_start: usize` so adversaries with different front-end
/// widths cannot silently alias blocks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ChannelBlock {
    /// First channel of the block.
    pub start: usize,
    /// Number of consecutive channels covered (`0` = no emission).
    pub width: usize,
}

impl ChannelBlock {
    /// The empty block: covers nothing (an idle jammer).
    pub const EMPTY: ChannelBlock = ChannelBlock { start: 0, width: 0 };

    /// The `index`-th block of a grid of `width`-channel blocks.
    pub fn of_block_index(index: usize, width: usize) -> Self {
        ChannelBlock {
            start: index * width,
            width,
        }
    }

    /// Whether `channel` falls inside this block.
    pub fn contains(&self, channel: usize) -> bool {
        self.width > 0 && (self.start..self.start + self.width).contains(&channel)
    }

    /// Whether the block covers no channels at all.
    pub fn is_empty(&self) -> bool {
        self.width == 0
    }

    /// The block index on its own width grid (0 for the empty block).
    pub fn index(&self) -> usize {
        self.start.checked_div(self.width).unwrap_or(0)
    }
}

/// What an adversary did this slot.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct JamAction {
    /// The attacked channel block ([`ChannelBlock::EMPTY`] when idle).
    pub block: ChannelBlock,
    /// Jamming power (an `L^J` value; `0.0` when idle).
    pub power: f64,
    /// Whether the adversary believes it is locked onto the victim.
    pub locked: bool,
}

impl JamAction {
    /// An idle slot: no emission, no power spent.
    pub fn idle() -> Self {
        JamAction {
            block: ChannelBlock::EMPTY,
            power: 0.0,
            locked: false,
        }
    }

    /// Whether this slot emitted nothing.
    pub fn is_idle(&self) -> bool {
        self.block.is_empty()
    }

    /// Whether the attack covers the given channel.
    pub fn covers(&self, channel: usize) -> bool {
        self.block.contains(channel)
    }
}

/// What an adversary can sense about one slot before acting.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SlotSense {
    /// The channel the victim transmits on this slot.
    pub victim_channel: usize,
    /// The victim's transmit power (sensing-threshold input).
    pub victim_power: f64,
    /// A decoy/bait transmission the defender emits this slot, if any.
    /// Decoys are loud by construction: a sensing adversary hears the
    /// decoy instead of the real transmission.
    pub decoy: Option<usize>,
}

impl SlotSense {
    /// The channel a sensing adversary perceives as "the victim": the
    /// decoy when one is present, the real transmission otherwise.
    pub fn sensed_channel(&self) -> usize {
        self.decoy.unwrap_or(self.victim_channel)
    }
}

/// Introspection counters an adversary may expose (all optional).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct AdversaryProbe {
    /// Jamming emissions so far.
    pub shots: u64,
    /// Emissions that covered the victim's real channel.
    pub hits: u64,
    /// Slots spent idle (sensing, charging, or out of budget).
    pub idle_slots: u64,
    /// Remaining energy, for budgeted adversaries.
    pub energy: Option<f64>,
}

impl AdversaryProbe {
    /// Fraction of emissions that covered the victim (0 when untested).
    pub fn hit_rate(&self) -> f64 {
        if self.shots == 0 {
            0.0
        } else {
            self.hits as f64 / self.shots as f64
        }
    }
}

/// One attacker. Implementations are deterministic given the RNG stream:
/// see the module docs for the full contract.
pub trait Adversary: std::fmt::Debug + Send {
    /// Short stable identifier ("sweep", "reactive", …) for tables/logs.
    fn name(&self) -> &str;

    /// Observes one slot and answers with this slot's attack. This is
    /// the only place an adversary draws randomness or mutates state.
    fn jam(&mut self, sense: &SlotSense, rng: &mut dyn RngCore) -> JamAction;

    /// Snapshots the adversary for another shard/episode. Replaying the
    /// clone with a cloned RNG reproduces the original bit-exactly.
    fn clone_box(&self) -> Box<dyn Adversary>;

    /// Introspection counters (defaults to all-zero for adversaries
    /// that track nothing).
    fn probe(&self) -> AdversaryProbe {
        AdversaryProbe::default()
    }

    /// Freezes/unfreezes learning adversaries (self-play league epochs).
    /// No-op for non-learning adversaries.
    fn set_learning(&mut self, _on: bool) {}
}

impl Clone for Box<dyn Adversary> {
    fn clone(&self) -> Self {
        self.clone_box()
    }
}

/// The adversary family, nested under [`AdversaryConfig`]'s shared
/// front-end parameters.
#[derive(Debug, Clone, PartialEq)]
pub enum AdversaryKind {
    /// No jammer at all (the clean-channel baseline).
    None,
    /// The paper's sweeping jammer (§II.C): random block order per
    /// cycle, locks onto discovered victims.
    Sweep,
    /// Sense-then-jam: hears any transmission at or above a power
    /// threshold and jams its block `latency` slots later.
    Reactive {
        /// Minimum victim power that registers on the sensor.
        sense_threshold: f64,
        /// Slots between hearing a transmission and jamming its block
        /// (0 = same slot).
        latency: usize,
    },
    /// Always jams the block of the last slot's observed transmission.
    Pursuit,
    /// Wraps another adversary in a joule budget: emissions cost their
    /// power, idle slots recharge. A non-positive capacity builds a
    /// [`NullAdversary`] outright (no RNG draws), so a zero-budget
    /// jammer is bit-equivalent to no jammer.
    EnergyBudget {
        /// Maximum stored energy (joules); the jammer starts full.
        capacity: f64,
        /// Energy recovered per idle slot.
        recharge: f64,
        /// The wrapped attacker's kind.
        inner: Box<AdversaryKind>,
    },
    /// The DeepJam-class adaptive jammer: predicts the next victim
    /// block from sensed history (see [`crate::adaptive`]).
    Adaptive {
        /// The channel predictor model.
        predictor: PredictorKind,
        /// `true` if the jammer reads plaintext FH announcements.
        eavesdrop: bool,
    },
    /// A learning attacker: a DQN over channel blocks sharing
    /// `ctjam-dqn`, trained online against whatever defender it faces.
    LearningDqn,
}

/// Plain-data description of an adversary: the shared jamming front end
/// (channel grid, block width, power levels, power mode) plus the
/// [`AdversaryKind`] behaviour on top.
///
/// Environments ([`crate::env::EnvParams::adversary`]) and fleet
/// campaign specs carry this by value; its `Debug` form feeds campaign
/// fingerprints, and [`AdversaryConfig::build`] instantiates it.
#[derive(Debug, Clone, PartialEq)]
pub struct AdversaryConfig {
    /// Total selectable channels `K` (16 on the 2.4 GHz band).
    pub num_channels: usize,
    /// Channels covered per emission `m` (4 for EmuBee).
    pub jam_width: usize,
    /// Selectable jamming power levels (`L^J` values).
    pub powers: Vec<f64>,
    /// Power-selection mode.
    pub mode: JammerMode,
    /// Which attacker behaviour runs on this front end.
    pub kind: AdversaryKind,
}

impl Default for AdversaryConfig {
    /// The paper's jammer: an EmuBee front end covering 4 of the 16
    /// ZigBee channels per slot at levels `11..=20` in max-power mode,
    /// running the sweep.
    fn default() -> Self {
        AdversaryConfig {
            num_channels: ctjam_phy::zigbee::NUM_CHANNELS,
            jam_width: ctjam_phy::wifi::ZIGBEE_CHANNELS_COVERED,
            powers: (11..=20).map(f64::from).collect(),
            mode: JammerMode::MaxPower,
            kind: AdversaryKind::Sweep,
        }
    }
}

impl AdversaryConfig {
    fn with_kind(kind: AdversaryKind) -> Self {
        AdversaryConfig {
            kind,
            ..AdversaryConfig::default()
        }
    }

    /// The paper's sweep jammer on the default front end.
    pub fn sweep() -> Self {
        Self::with_kind(AdversaryKind::Sweep)
    }

    /// No jammer (clean-channel baseline).
    pub fn none() -> Self {
        Self::with_kind(AdversaryKind::None)
    }

    /// A reactive sense-then-jam attacker with the given sensing
    /// threshold and a 1-slot reaction latency (see
    /// [`AdversaryConfig::latency`]).
    pub fn reactive(sense_threshold: f64) -> Self {
        Self::with_kind(AdversaryKind::Reactive {
            sense_threshold,
            latency: 1,
        })
    }

    /// A pursuit attacker (jams the last observed channel's block).
    pub fn pursuit() -> Self {
        Self::with_kind(AdversaryKind::Pursuit)
    }

    /// The DeepJam-class adaptive jammer with the given predictor.
    pub fn adaptive(predictor: PredictorKind) -> Self {
        Self::with_kind(AdversaryKind::Adaptive {
            predictor,
            eavesdrop: false,
        })
    }

    /// The learning attacker-DQN.
    pub fn dqn() -> Self {
        Self::with_kind(AdversaryKind::LearningDqn)
    }

    /// Switches the front end to max-power mode.
    #[must_use]
    pub fn max_power(mut self) -> Self {
        self.mode = JammerMode::MaxPower;
        self
    }

    /// Switches the front end to random-power (hidden) mode.
    #[must_use]
    pub fn random_power(mut self) -> Self {
        self.mode = JammerMode::RandomPower;
        self
    }

    /// Sets the reaction latency of a reactive adversary.
    ///
    /// # Panics
    ///
    /// Panics if the kind is not [`AdversaryKind::Reactive`].
    #[must_use]
    pub fn latency(mut self, latency: usize) -> Self {
        match &mut self.kind {
            AdversaryKind::Reactive { latency: l, .. } => *l = latency,
            other => panic!("latency() only applies to Reactive, not {other:?}"),
        }
        self
    }

    /// Wraps the current kind in a joule budget (see
    /// [`AdversaryKind::EnergyBudget`]).
    #[must_use]
    pub fn energy_budget(mut self, capacity: f64, recharge: f64) -> Self {
        let inner = std::mem::replace(&mut self.kind, AdversaryKind::None);
        self.kind = AdversaryKind::EnergyBudget {
            capacity,
            recharge,
            inner: Box::new(inner),
        };
        self
    }

    /// Turns on announcement eavesdropping for an adaptive adversary.
    ///
    /// # Panics
    ///
    /// Panics if the kind is not [`AdversaryKind::Adaptive`].
    #[must_use]
    pub fn eavesdrop(mut self) -> Self {
        match &mut self.kind {
            AdversaryKind::Adaptive { eavesdrop, .. } => *eavesdrop = true,
            other => panic!("eavesdrop() only applies to Adaptive, not {other:?}"),
        }
        self
    }

    /// Number of channel blocks = the sweep cycle `⌈K/m⌉`.
    pub fn sweep_cycle(&self) -> usize {
        self.num_channels.div_ceil(self.jam_width)
    }

    /// Rescales the block count to obtain a target sweep cycle while
    /// keeping `m` fixed (the Fig. 6(b)/7(c,d)/8(c,d) sweep).
    #[must_use]
    pub fn with_sweep_cycle(mut self, cycle: usize) -> Self {
        self.num_channels = cycle * self.jam_width;
        self
    }

    /// The strongest configured jamming power.
    pub fn max_jam_power(&self) -> f64 {
        self.powers
            .iter()
            .cloned()
            .fold(f64::NEG_INFINITY, f64::max)
    }

    /// Short stable label for tables and manifests, e.g.
    /// `"reactive(t8,l1)"` or `"energy(40/2,sweep)"`.
    pub fn label(&self) -> String {
        fn kind_label(kind: &AdversaryKind) -> String {
            match kind {
                AdversaryKind::None => "none".into(),
                AdversaryKind::Sweep => "sweep".into(),
                AdversaryKind::Reactive {
                    sense_threshold,
                    latency,
                } => format!("reactive(t{sense_threshold},l{latency})"),
                AdversaryKind::Pursuit => "pursuit".into(),
                AdversaryKind::EnergyBudget {
                    capacity,
                    recharge,
                    inner,
                } => format!("energy({capacity}/{recharge},{})", kind_label(inner)),
                AdversaryKind::Adaptive {
                    predictor,
                    eavesdrop,
                } => {
                    let tap = if *eavesdrop { "+eaves" } else { "" };
                    format!("adaptive-{predictor:?}{tap}").to_lowercase()
                }
                AdversaryKind::LearningDqn => "dqn".into(),
            }
        }
        let suffix = match self.mode {
            JammerMode::MaxPower => "",
            JammerMode::RandomPower => "-rnd",
        };
        format!("{}{}", kind_label(&self.kind), suffix)
    }

    /// Parses a [`AdversaryConfig::label`] string back into a config
    /// (all non-label fields at their defaults), so adversary mixes can
    /// be named in data files. Inverse of `label()` for every config
    /// whose numeric fields survive `Display` round-tripping:
    /// `parse_label(&c.label()).unwrap().label() == c.label()`.
    ///
    /// Grammar: `none | sweep | pursuit | dqn | reactive(tT,lL) |
    /// energy(CAP/RECHARGE,INNER) | adaptive-{lastblock|markov|rnn}[+eaves]`,
    /// with an optional `-rnd` suffix selecting
    /// [`JammerMode::RandomPower`].
    pub fn parse_label(label: &str) -> Option<AdversaryConfig> {
        fn parse_kind(s: &str) -> Option<AdversaryKind> {
            match s {
                "none" => return Some(AdversaryKind::None),
                "sweep" => return Some(AdversaryKind::Sweep),
                "pursuit" => return Some(AdversaryKind::Pursuit),
                "dqn" => return Some(AdversaryKind::LearningDqn),
                _ => {}
            }
            if let Some(body) = s
                .strip_prefix("reactive(t")
                .and_then(|r| r.strip_suffix(')'))
            {
                let (threshold, latency) = body.split_once(",l")?;
                let sense_threshold: f64 = threshold.parse().ok()?;
                let latency: usize = latency.parse().ok()?;
                if !sense_threshold.is_finite() {
                    return None;
                }
                return Some(AdversaryKind::Reactive {
                    sense_threshold,
                    latency,
                });
            }
            if let Some(body) = s.strip_prefix("energy(").and_then(|r| r.strip_suffix(')')) {
                // The budget part never contains a comma, so the first
                // comma separates it from the (possibly nested) inner
                // kind.
                let (budget, inner) = body.split_once(',')?;
                let (capacity, recharge) = budget.split_once('/')?;
                let capacity: f64 = capacity.parse().ok()?;
                let recharge: f64 = recharge.parse().ok()?;
                if !capacity.is_finite()
                    || capacity <= 0.0
                    || !recharge.is_finite()
                    || recharge < 0.0
                {
                    return None;
                }
                return Some(AdversaryKind::EnergyBudget {
                    capacity,
                    recharge,
                    inner: Box::new(parse_kind(inner)?),
                });
            }
            if let Some(body) = s.strip_prefix("adaptive-") {
                let (name, eavesdrop) = match body.strip_suffix("+eaves") {
                    Some(stripped) => (stripped, true),
                    None => (body, false),
                };
                let predictor = match name {
                    "lastblock" => PredictorKind::LastBlock,
                    "markov" => PredictorKind::Markov,
                    "rnn" => PredictorKind::Rnn,
                    _ => return None,
                };
                return Some(AdversaryKind::Adaptive {
                    predictor,
                    eavesdrop,
                });
            }
            None
        }
        // No kind label ends in "-rnd" ("adaptive-rnn" ends in "-rnn"),
        // so suffix stripping is unambiguous.
        let (body, mode) = match label.strip_suffix("-rnd") {
            Some(stripped) => (stripped, JammerMode::RandomPower),
            None => (label, JammerMode::MaxPower),
        };
        let kind = parse_kind(body)?;
        Some(AdversaryConfig {
            kind,
            mode,
            ..AdversaryConfig::default()
        })
    }

    /// Validates internal consistency.
    ///
    /// # Panics
    ///
    /// Panics on degenerate dimensions or non-finite budgets —
    /// configuration bugs, not runtime conditions.
    pub fn validate(&self) {
        assert!(self.num_channels > 0, "need at least one channel");
        assert!(self.jam_width > 0, "jam width must be positive");
        assert!(
            self.jam_width <= self.num_channels,
            "jam width exceeds the channel count"
        );
        assert!(!self.powers.is_empty(), "need at least one power level");
        fn check(kind: &AdversaryKind) {
            match kind {
                AdversaryKind::Reactive {
                    sense_threshold, ..
                } => assert!(sense_threshold.is_finite(), "sensing threshold not finite"),
                AdversaryKind::EnergyBudget {
                    capacity,
                    recharge,
                    inner,
                } => {
                    assert!(capacity.is_finite(), "energy capacity not finite");
                    assert!(
                        recharge.is_finite() && *recharge >= 0.0,
                        "recharge must be finite and non-negative"
                    );
                    check(inner);
                }
                _ => {}
            }
        }
        check(&self.kind);
    }

    /// Instantiates the described adversary, drawing any construction
    /// randomness (sweep-cycle shuffle, DQN weight init) from `rng`.
    ///
    /// # Panics
    ///
    /// Panics if the configuration fails [`AdversaryConfig::validate`].
    pub fn build<R: Rng + ?Sized>(&self, rng: &mut R) -> Box<dyn Adversary> {
        self.validate();
        self.build_kind(&self.kind, rng)
    }

    fn build_kind<R: Rng + ?Sized>(&self, kind: &AdversaryKind, rng: &mut R) -> Box<dyn Adversary> {
        match kind {
            AdversaryKind::None => Box::new(NullAdversary),
            AdversaryKind::Sweep => Box::new(SweepAdversary::new(self, rng)),
            AdversaryKind::Reactive {
                sense_threshold,
                latency,
            } => Box::new(ReactiveJammer::new(self, *sense_threshold, *latency)),
            AdversaryKind::Pursuit => Box::new(PursuitJammer::new(self)),
            AdversaryKind::EnergyBudget {
                capacity,
                recharge,
                inner,
            } => {
                if *capacity <= 0.0 {
                    // An attacker that can never afford a shot must be
                    // indistinguishable from no attacker at all — build
                    // the null adversary so even the RNG stream matches.
                    Box::new(NullAdversary)
                } else {
                    let inner = self.build_kind(inner, rng);
                    Box::new(EnergyBudgetJammer::new(inner, *capacity, *recharge))
                }
            }
            AdversaryKind::Adaptive {
                predictor,
                eavesdrop,
            } => Box::new(AdaptiveJammer::new(self, *predictor, *eavesdrop, rng)),
            AdversaryKind::LearningDqn => Box::new(DqnJammer::new(self, rng)),
        }
    }
}

/// Picks an emission power for the shared front end: max of the levels
/// in [`JammerMode::MaxPower`], one uniform draw in
/// [`JammerMode::RandomPower`].
pub(crate) fn pick_power(powers: &[f64], mode: JammerMode, rng: &mut dyn RngCore) -> f64 {
    match mode {
        JammerMode::MaxPower => powers.iter().cloned().fold(f64::NEG_INFINITY, f64::max),
        JammerMode::RandomPower => powers[rng.gen_range(0..powers.len())],
    }
}

/// The absent adversary: every slot is idle and draws no randomness.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NullAdversary;

impl Adversary for NullAdversary {
    fn name(&self) -> &str {
        "none"
    }

    fn jam(&mut self, _sense: &SlotSense, _rng: &mut dyn RngCore) -> JamAction {
        JamAction::idle()
    }

    fn clone_box(&self) -> Box<dyn Adversary> {
        Box::new(*self)
    }
}

/// The paper's cross-technology sweep jammer (§II.C).
///
/// A Wi-Fi-based EmuBee jammer covers `m` consecutive ZigBee channels at
/// once (4 for a 20 MHz front end) and needs `⌈K/m⌉` slots to scan all
/// `K` channels. It sweeps the channel blocks in a fresh random order
/// each cycle (a deterministic cycle would be trivially predictable —
/// the paper's Fig. 6(b) notes the degenerate sweep-cycle-2 case), locks
/// onto a victim when its block shows activity, and leaves again once
/// the victim disappears.
///
/// It senses per block, so decoys work on it exactly like real
/// transmissions: any active channel in the attacked block acquires (or
/// retains) the lock.
#[derive(Debug, Clone)]
pub struct SweepAdversary {
    jam_width: usize,
    powers: Vec<f64>,
    mode: JammerMode,
    /// Random block order for the current cycle.
    order: Vec<usize>,
    /// Position within `order`.
    cursor: usize,
    /// Block currently locked onto, if a victim was found.
    locked: Option<usize>,
}

impl SweepAdversary {
    /// Builds a sweep jammer on `config`'s front end and shuffles its
    /// first sweep cycle from `rng`.
    pub fn new<R: Rng + ?Sized>(config: &AdversaryConfig, rng: &mut R) -> Self {
        let mut sweep = SweepAdversary {
            jam_width: config.jam_width,
            powers: config.powers.clone(),
            mode: config.mode,
            order: (0..config.sweep_cycle()).collect(),
            cursor: 0,
            locked: None,
        };
        sweep.shuffle_cycle(rng);
        sweep
    }

    fn shuffle_cycle<R: Rng + ?Sized>(&mut self, rng: &mut R) {
        // Fisher–Yates.
        for i in (1..self.order.len()).rev() {
            let j = rng.gen_range(0..=i);
            self.order.swap(i, j);
        }
        self.cursor = 0;
    }

    fn next_sweep_block(&mut self, rng: &mut dyn RngCore) -> usize {
        if self.cursor >= self.order.len() {
            self.shuffle_cycle(rng);
        }
        let block = self.order[self.cursor];
        self.cursor += 1;
        block
    }
}

impl Adversary for SweepAdversary {
    fn name(&self) -> &str {
        "sweep"
    }

    fn jam(&mut self, sense: &SlotSense, rng: &mut dyn RngCore) -> JamAction {
        let width = self.jam_width;
        let is_active = |block: usize| {
            sense.victim_channel / width == block || sense.decoy.is_some_and(|d| d / width == block)
        };

        let block = match self.locked {
            Some(block) if is_active(block) => block, // keep tracking
            Some(_) => {
                // All activity left: resume sweeping for the next opportunity.
                self.locked = None;
                self.next_sweep_block(rng)
            }
            None => self.next_sweep_block(rng),
        };

        let found = is_active(block);
        if found {
            self.locked = Some(block);
        }

        JamAction {
            block: ChannelBlock::of_block_index(block, width),
            power: pick_power(&self.powers, self.mode, rng),
            locked: found,
        }
    }

    fn clone_box(&self) -> Box<dyn Adversary> {
        Box::new(self.clone())
    }
}

/// Sense-then-jam (arXiv 2510.02265 family): hears transmissions at or
/// above `sense_threshold`, and jams the heard block `latency` slots
/// later. Decoys are always heard — that is the bait a deception
/// defender exploits.
#[derive(Debug, Clone)]
pub struct ReactiveJammer {
    jam_width: usize,
    powers: Vec<f64>,
    mode: JammerMode,
    sense_threshold: f64,
    /// Channels heard in the last `latency` slots, oldest first.
    pending: VecDeque<Option<usize>>,
    shots: u64,
    hits: u64,
    idle: u64,
}

impl ReactiveJammer {
    /// Builds a reactive jammer on `config`'s front end.
    pub fn new(config: &AdversaryConfig, sense_threshold: f64, latency: usize) -> Self {
        ReactiveJammer {
            jam_width: config.jam_width,
            powers: config.powers.clone(),
            mode: config.mode,
            sense_threshold,
            pending: std::iter::repeat_n(None, latency).collect(),
            shots: 0,
            hits: 0,
            idle: 0,
        }
    }
}

impl Adversary for ReactiveJammer {
    fn name(&self) -> &str {
        "reactive"
    }

    fn jam(&mut self, sense: &SlotSense, rng: &mut dyn RngCore) -> JamAction {
        let heard = sense
            .decoy
            .or((sense.victim_power >= self.sense_threshold).then_some(sense.victim_channel));
        self.pending.push_back(heard);
        match self.pending.pop_front().flatten() {
            Some(channel) => {
                let action = JamAction {
                    block: ChannelBlock::of_block_index(channel / self.jam_width, self.jam_width),
                    power: pick_power(&self.powers, self.mode, rng),
                    locked: true,
                };
                self.shots += 1;
                if action.covers(sense.victim_channel) {
                    self.hits += 1;
                }
                action
            }
            None => {
                self.idle += 1;
                JamAction::idle()
            }
        }
    }

    fn clone_box(&self) -> Box<dyn Adversary> {
        Box::new(self.clone())
    }

    fn probe(&self) -> AdversaryProbe {
        AdversaryProbe {
            shots: self.shots,
            hits: self.hits,
            idle_slots: self.idle,
            energy: None,
        }
    }
}

/// Jams the block of the previous slot's sensed transmission (a
/// latency-1 follower with no sensing threshold).
#[derive(Debug, Clone)]
pub struct PursuitJammer {
    jam_width: usize,
    powers: Vec<f64>,
    mode: JammerMode,
    last: Option<usize>,
    shots: u64,
    hits: u64,
    idle: u64,
}

impl PursuitJammer {
    /// Builds a pursuit jammer on `config`'s front end.
    pub fn new(config: &AdversaryConfig) -> Self {
        PursuitJammer {
            jam_width: config.jam_width,
            powers: config.powers.clone(),
            mode: config.mode,
            last: None,
            shots: 0,
            hits: 0,
            idle: 0,
        }
    }
}

impl Adversary for PursuitJammer {
    fn name(&self) -> &str {
        "pursuit"
    }

    fn jam(&mut self, sense: &SlotSense, rng: &mut dyn RngCore) -> JamAction {
        let target = self.last;
        self.last = Some(sense.sensed_channel());
        match target {
            Some(channel) => {
                let action = JamAction {
                    block: ChannelBlock::of_block_index(channel / self.jam_width, self.jam_width),
                    power: pick_power(&self.powers, self.mode, rng),
                    locked: true,
                };
                self.shots += 1;
                if action.covers(sense.victim_channel) {
                    self.hits += 1;
                }
                action
            }
            None => {
                self.idle += 1;
                JamAction::idle()
            }
        }
    }

    fn clone_box(&self) -> Box<dyn Adversary> {
        Box::new(self.clone())
    }

    fn probe(&self) -> AdversaryProbe {
        AdversaryProbe {
            shots: self.shots,
            hits: self.hits,
            idle_slots: self.idle,
            energy: None,
        }
    }
}

/// Joule-budget decorator (arXiv 1912.11170's drain target): the inner
/// adversary's emissions cost their power; when the battery cannot
/// afford a shot the slot is forced idle, and idle slots recharge. The
/// battery starts full.
#[derive(Debug, Clone)]
pub struct EnergyBudgetJammer {
    inner: Box<dyn Adversary>,
    capacity: f64,
    charge: f64,
    recharge: f64,
    denied: u64,
    idle: u64,
}

impl EnergyBudgetJammer {
    /// Wraps `inner` in a budget of `capacity` joules, recovering
    /// `recharge` joules per idle slot.
    pub fn new(inner: Box<dyn Adversary>, capacity: f64, recharge: f64) -> Self {
        EnergyBudgetJammer {
            inner,
            capacity,
            charge: capacity,
            recharge,
            denied: 0,
            idle: 0,
        }
    }

    /// Emissions denied because the battery could not afford them.
    pub fn denied(&self) -> u64 {
        self.denied
    }

    /// Remaining stored energy.
    pub fn charge(&self) -> f64 {
        self.charge
    }
}

impl Adversary for EnergyBudgetJammer {
    fn name(&self) -> &str {
        "energy"
    }

    fn jam(&mut self, sense: &SlotSense, rng: &mut dyn RngCore) -> JamAction {
        let action = self.inner.jam(sense, rng);
        if action.is_idle() {
            self.charge = (self.charge + self.recharge).min(self.capacity);
            self.idle += 1;
            action
        } else if self.charge >= action.power {
            self.charge -= action.power;
            action
        } else {
            self.denied += 1;
            self.idle += 1;
            self.charge = (self.charge + self.recharge).min(self.capacity);
            JamAction::idle()
        }
    }

    fn clone_box(&self) -> Box<dyn Adversary> {
        Box::new(self.clone())
    }

    fn probe(&self) -> AdversaryProbe {
        let inner = self.inner.probe();
        AdversaryProbe {
            idle_slots: inner.idle_slots.max(self.idle),
            energy: Some(self.charge),
            ..inner
        }
    }

    fn set_learning(&mut self, on: bool) {
        self.inner.set_learning(on);
    }
}

/// The learning attacker: a DQN over channel blocks (one action per
/// block, single power level) trained online from its own hit/miss
/// feedback. Decoys poison its training signal — a baited "hit" looks
/// like a success to the attacker.
#[derive(Debug, Clone)]
pub struct DqnJammer {
    agent: DqnAgent,
    encoder: ObservationEncoder,
    jam_width: usize,
    power: f64,
    training: bool,
    shots: u64,
    hits: u64,
}

impl DqnJammer {
    /// Builds a learning attacker on `config`'s front end, initializing
    /// its network weights from `rng`.
    ///
    /// # Panics
    ///
    /// Panics if the front end has fewer than two blocks (nothing to
    /// learn).
    pub fn new<R: Rng + ?Sized>(config: &AdversaryConfig, rng: &mut R) -> Self {
        let blocks = config.sweep_cycle();
        assert!(blocks > 1, "learning jammer needs at least two blocks");
        let dqn = DqnConfig {
            history_len: 6,
            num_channels: blocks,
            num_power_levels: 1,
            hidden: (32, 28),
            gamma: 0.9,
            learning_rate: 2e-3,
            replay_capacity: 20_000,
            batch_size: 16,
            target_sync_interval: 100,
            epsilon_start: 1.0,
            epsilon_end: 0.05,
            epsilon_decay_steps: 1_500,
            train_interval: 2,
            warmup: 64,
            double_dqn: false,
        };
        DqnJammer {
            agent: DqnAgent::new(dqn, rng),
            encoder: ObservationEncoder::new(6, blocks, 1),
            jam_width: config.jam_width,
            power: config.max_jam_power(),
            training: true,
            shots: 0,
            hits: 0,
        }
    }

    /// The underlying agent (weights, replay, training counters).
    pub fn agent(&self) -> &DqnAgent {
        &self.agent
    }

    /// Whether the attacker is currently learning.
    pub fn is_learning(&self) -> bool {
        self.training
    }
}

impl Adversary for DqnJammer {
    fn name(&self) -> &str {
        "dqn"
    }

    fn jam(&mut self, sense: &SlotSense, rng: &mut dyn RngCore) -> JamAction {
        let obs = self.encoder.encode();
        let action = self.agent.act_scratch(&obs, rng);
        let sensed_block = sense.sensed_channel() / self.jam_width;
        // The attacker can only verify against what it senses — a decoy
        // "hit" is perceived (and rewarded) as success.
        let perceived_hit = action == sensed_block;
        self.shots += 1;
        if action == sense.victim_channel / self.jam_width {
            self.hits += 1;
        }
        self.encoder.push(SlotRecord {
            outcome: if perceived_hit {
                SlotOutcome::Success
            } else {
                SlotOutcome::Failure
            },
            channel: sensed_block,
            power_level: 0,
        });
        if self.training {
            let reward = if perceived_hit { 1.0 } else { -0.1 };
            let next = self.encoder.encode();
            self.agent.observe(obs, action, reward, next, rng);
        }
        JamAction {
            block: ChannelBlock::of_block_index(action, self.jam_width),
            power: self.power,
            locked: perceived_hit,
        }
    }

    fn clone_box(&self) -> Box<dyn Adversary> {
        Box::new(self.clone())
    }

    fn probe(&self) -> AdversaryProbe {
        AdversaryProbe {
            shots: self.shots,
            hits: self.hits,
            idle_slots: 0,
            energy: None,
        }
    }

    fn set_learning(&mut self, on: bool) {
        self.training = on;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng(seed: u64) -> StdRng {
        StdRng::seed_from_u64(seed)
    }

    #[test]
    fn parse_label_round_trips_the_zoo() {
        let zoo = [
            AdversaryConfig::none(),
            AdversaryConfig::sweep(),
            AdversaryConfig::sweep().random_power(),
            AdversaryConfig::reactive(8.0),
            AdversaryConfig::reactive(8.0).latency(3).random_power(),
            AdversaryConfig::pursuit(),
            AdversaryConfig::pursuit().energy_budget(40.0, 2.0),
            AdversaryConfig::adaptive(PredictorKind::LastBlock),
            AdversaryConfig::adaptive(PredictorKind::Markov).eavesdrop(),
            AdversaryConfig::adaptive(PredictorKind::Rnn).random_power(),
            AdversaryConfig::dqn(),
        ];
        for config in zoo {
            let label = config.label();
            let parsed = AdversaryConfig::parse_label(&label)
                .unwrap_or_else(|| panic!("label {label:?} did not parse"));
            assert_eq!(parsed.label(), label);
            assert_eq!(parsed.kind, config.kind, "{label}");
            assert_eq!(parsed.mode, config.mode, "{label}");
        }
    }

    #[test]
    fn parse_label_rejects_junk() {
        for junk in [
            "",
            "sweeep",
            "reactive",
            "reactive(t8)",
            "reactive(t8,l)",
            "energy(40/2)",
            "energy(x/2,sweep)",
            "energy(40/2,sweeep)",
            "adaptive-",
            "adaptive-gru",
            "-rnd",
        ] {
            assert!(
                AdversaryConfig::parse_label(junk).is_none(),
                "{junk:?} should not parse"
            );
        }
    }

    fn sense(channel: usize) -> SlotSense {
        SlotSense {
            victim_channel: channel,
            victim_power: 10.0,
            decoy: None,
        }
    }

    #[test]
    fn channel_block_typing() {
        let b = ChannelBlock::of_block_index(2, 4);
        assert_eq!(b.start, 8);
        assert_eq!(b.index(), 2);
        assert!(b.contains(11));
        assert!(!b.contains(12));
        assert!(ChannelBlock::EMPTY.is_empty());
        assert!(!ChannelBlock::EMPTY.contains(0));
        assert!(JamAction::idle().is_idle());
    }

    /// Folds one word into an FNV-1a digest, byte by byte.
    fn fnv1a(digest: &mut u64, word: u64) {
        for byte in word.to_le_bytes() {
            *digest ^= u64::from(byte);
            *digest = digest.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    #[test]
    fn sweep_and_adaptive_jammers_match_pinned_digests() {
        // Each config faces the same seeded sense sequence, with a decoy
        // on about 30% of slots. Every action's block, power and lock,
        // then the RNG's next draw, fold into one FNV-1a digest per
        // config, so the constants pin decisions and RNG draws alike,
        // decoy path included. A digest that moves means every seeded
        // result built on these jammers moves with it.
        let configs = [
            AdversaryConfig::sweep(),
            AdversaryConfig::sweep().random_power(),
            AdversaryConfig::sweep().with_sweep_cycle(8),
            AdversaryConfig::adaptive(PredictorKind::LastBlock),
            AdversaryConfig::adaptive(PredictorKind::Markov),
            AdversaryConfig::adaptive(PredictorKind::Rnn),
            AdversaryConfig::adaptive(PredictorKind::Markov).eavesdrop(),
        ];
        let pinned: [u64; 7] = [
            0x533b_2935_30a4_ad74,
            0x4d4b_af91_e393_1638,
            0x85cb_fb7f_faf5_6392,
            0x024e_97c1_2c2e_4bca,
            0x19f7_d52b_139f_32d2,
            0x9776_55c6_a083_50e6,
            0xf184_6d95_1926_7832,
        ];
        let digests: Vec<u64> = configs
            .iter()
            .map(|config| {
                let channels = config.num_channels;
                let mut r = rng(0xD16E57);
                let mut senses = rng(0x5E115E);
                let mut adv = config.build(&mut r);
                let mut digest = 0xcbf2_9ce4_8422_2325_u64;
                for _ in 0..512 {
                    let sense = SlotSense {
                        victim_channel: senses.gen_range(0..channels),
                        victim_power: 10.0,
                        decoy: senses.gen_bool(0.3).then(|| senses.gen_range(0..channels)),
                    };
                    let action = adv.jam(&sense, &mut r);
                    fnv1a(&mut digest, action.block.start as u64);
                    fnv1a(&mut digest, action.block.width as u64);
                    fnv1a(&mut digest, action.power.to_bits());
                    fnv1a(&mut digest, u64::from(action.locked));
                }
                fnv1a(&mut digest, r.gen::<u64>());
                digest
            })
            .collect();
        let hex: Vec<String> = digests.iter().map(|d| format!("{d:#018x}")).collect();
        assert_eq!(digests, pinned, "digests moved: {hex:?}");
    }

    #[test]
    fn default_front_end_is_the_paper_jammer() {
        let config = AdversaryConfig::default();
        assert_eq!(config.sweep_cycle(), 4);
        assert_eq!(config.kind, AdversaryKind::Sweep);
        assert_eq!(config.mode, JammerMode::MaxPower);
        assert_eq!(config.max_jam_power(), 20.0);
        let rescaled = config.with_sweep_cycle(8);
        assert_eq!(rescaled.sweep_cycle(), 8);
        assert_eq!(rescaled.num_channels, 32);
    }

    #[test]
    fn sweep_locks_onto_a_static_victim_and_leaves_when_it_hops() {
        let mut r = rng(2);
        let mut adv = AdversaryConfig::sweep().build(&mut r);
        let victim = 5;
        // A static victim is found within one 4-slot cycle.
        let found = (0..4).any(|_| adv.jam(&sense(victim), &mut r).locked);
        assert!(found, "sweep must find a static victim in a cycle");
        // Stays locked while the victim remains.
        let a = adv.jam(&sense(victim), &mut r);
        assert!(a.locked && a.covers(victim));
        // The victim hops to another block: the lock is dropped and the
        // sweep resumes, locking only if it lands on the new block.
        let far = 15;
        let a = adv.jam(&sense(far), &mut r);
        assert_eq!(a.locked, a.covers(far));
    }

    #[test]
    #[allow(clippy::needless_range_loop)] // slot doubles as histogram bin
    fn sweep_discovery_hazard_is_uniform_over_cycle() {
        // A static victim should be discovered at a uniformly distributed
        // slot within the sweep cycle (the 1/(⌈K/m⌉−n) hazard of Eq. 6).
        let mut r = rng(3);
        let mut histogram = [0usize; 4];
        for _ in 0..4000 {
            let mut adv = AdversaryConfig::sweep().build(&mut r);
            for slot in 0..4 {
                if adv.jam(&sense(7), &mut r).covers(7) {
                    histogram[slot] += 1;
                    break;
                }
            }
        }
        let total: usize = histogram.iter().sum();
        assert_eq!(total, 4000, "victim must always be found in one cycle");
        for (slot, &count) in histogram.iter().enumerate() {
            let frac = count as f64 / total as f64;
            assert!(
                (frac - 0.25).abs() < 0.03,
                "slot {slot} discovery fraction {frac}"
            );
        }
    }

    #[test]
    fn sweep_power_follows_the_mode() {
        let mut r = rng(4);
        let mut max = AdversaryConfig::sweep().build(&mut r);
        for _ in 0..20 {
            assert_eq!(max.jam(&sense(0), &mut r).power, 20.0);
        }
        let mut rnd = AdversaryConfig::sweep().random_power().build(&mut r);
        let seen: std::collections::HashSet<i64> = (0..300)
            .map(|_| rnd.jam(&sense(0), &mut r).power as i64)
            .collect();
        assert!(seen.len() >= 8, "random powers too narrow: {seen:?}");
    }

    #[test]
    #[should_panic(expected = "jam width exceeds the channel count")]
    fn wide_jam_width_rejected() {
        let config = AdversaryConfig {
            num_channels: 2,
            ..AdversaryConfig::sweep()
        };
        config.build(&mut rng(6));
    }

    #[test]
    fn reactive_waits_its_latency_then_jams_the_heard_block() {
        let cfg = AdversaryConfig::reactive(5.0).latency(2);
        let mut r = rng(1);
        let mut adv = cfg.build(&mut r);
        // Slots 0..2: nothing heard long enough ago.
        assert!(adv.jam(&sense(9), &mut r).is_idle());
        assert!(adv.jam(&sense(1), &mut r).is_idle());
        // Slot 2 reacts to slot 0 (channel 9 → block 2).
        let a = adv.jam(&sense(2), &mut r);
        assert_eq!(a.block, ChannelBlock::of_block_index(2, 4));
        // Slot 3 reacts to slot 1 (channel 1 → block 0).
        let a = adv.jam(&sense(3), &mut r);
        assert_eq!(a.block, ChannelBlock::of_block_index(0, 4));
    }

    #[test]
    fn reactive_ignores_whispers_but_always_hears_decoys() {
        let cfg = AdversaryConfig::reactive(50.0).latency(0);
        let mut r = rng(2);
        let mut adv = cfg.build(&mut r);
        // Victim power below threshold: never heard.
        assert!(adv.jam(&sense(3), &mut r).is_idle());
        assert!(adv.jam(&sense(3), &mut r).is_idle());
        // A decoy is loud by construction and pulls the jammer to it.
        let baited = SlotSense {
            victim_channel: 3,
            victim_power: 10.0,
            decoy: Some(13),
        };
        let a = adv.jam(&baited, &mut r);
        assert_eq!(a.block, ChannelBlock::of_block_index(3, 4));
        assert!(!a.covers(3), "the bait pulled fire away from the victim");
    }

    #[test]
    fn pursuit_follows_one_slot_behind() {
        let cfg = AdversaryConfig::pursuit();
        let mut r = rng(3);
        let mut adv = cfg.build(&mut r);
        assert!(adv.jam(&sense(6), &mut r).is_idle(), "nothing observed yet");
        let a = adv.jam(&sense(14), &mut r);
        assert_eq!(a.block, ChannelBlock::of_block_index(1, 4));
        let a = adv.jam(&sense(0), &mut r);
        assert_eq!(a.block, ChannelBlock::of_block_index(3, 4));
    }

    #[test]
    fn energy_budget_denies_when_drained_and_recharges_when_idle() {
        // Pursuit emits at power 20 every slot after the first; a
        // 45-joule battery affords two shots, then runs dry.
        let cfg = AdversaryConfig::pursuit().energy_budget(45.0, 1.0);
        let mut r = rng(4);
        let mut adv = cfg.build(&mut r);
        assert!(adv.jam(&sense(0), &mut r).is_idle());
        assert!(!adv.jam(&sense(0), &mut r).is_idle());
        assert!(!adv.jam(&sense(0), &mut r).is_idle());
        let denied = adv.jam(&sense(0), &mut r);
        assert!(denied.is_idle(), "third shot must be denied");
        let energy = adv.probe().energy.expect("budgeted probe");
        assert!(energy > 5.0, "idle slots must recharge");
    }

    #[test]
    fn zero_budget_builds_the_null_adversary() {
        let cfg = AdversaryConfig::sweep().energy_budget(0.0, 5.0);
        let mut r1 = rng(5);
        let mut adv = cfg.build(&mut r1);
        assert_eq!(adv.name(), "none");
        for slot in 0..16 {
            assert!(adv.jam(&sense(slot), &mut r1).is_idle());
        }
        // And it consumed no randomness at all.
        assert_eq!(r1.gen::<u64>(), rng(5).gen::<u64>());
    }

    #[test]
    fn dqn_jammer_trains_and_freezes() {
        let cfg = AdversaryConfig::dqn();
        let mut r = rng(6);
        let mut adv = cfg.build(&mut r);
        for slot in 0..200 {
            let a = adv.jam(&sense(slot % 16), &mut r);
            assert!(!a.is_idle());
            assert_eq!(a.power, 20.0);
        }
        let probe = adv.probe();
        assert_eq!(probe.shots, 200);
        adv.set_learning(false);
        for slot in 0..10 {
            adv.jam(&sense(slot), &mut r);
        }
    }

    #[test]
    fn clone_and_replay_is_bit_exact() {
        for cfg in [
            AdversaryConfig::sweep(),
            AdversaryConfig::reactive(8.0),
            AdversaryConfig::pursuit(),
            AdversaryConfig::sweep().energy_budget(60.0, 2.0),
            AdversaryConfig::adaptive(PredictorKind::Markov),
            AdversaryConfig::dqn(),
        ] {
            let mut r = rng(11);
            let mut adv = cfg.build(&mut r);
            // Burn in some state first.
            for slot in 0..40 {
                adv.jam(&sense((slot * 3) % 16), &mut r);
            }
            let mut twin = adv.clone_box();
            let mut r_twin = r.clone();
            for slot in 0..40 {
                let s = sense((slot * 7) % 16);
                assert_eq!(
                    adv.jam(&s, &mut r),
                    twin.jam(&s, &mut r_twin),
                    "{} diverged after cloning",
                    cfg.label()
                );
            }
        }
    }

    #[test]
    fn labels_are_stable() {
        assert_eq!(AdversaryConfig::sweep().label(), "sweep");
        assert_eq!(AdversaryConfig::sweep().random_power().label(), "sweep-rnd");
        assert_eq!(AdversaryConfig::reactive(8.0).label(), "reactive(t8,l1)");
        assert_eq!(
            AdversaryConfig::pursuit().energy_budget(40.0, 2.0).label(),
            "energy(40/2,pursuit)"
        );
        assert_eq!(
            AdversaryConfig::adaptive(PredictorKind::Markov).label(),
            "adaptive-markov"
        );
    }

    #[test]
    #[should_panic]
    fn latency_on_non_reactive_panics() {
        let _ = AdversaryConfig::sweep().latency(3);
    }
}
