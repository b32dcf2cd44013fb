//! The slot-level Tx↔Jx competition environment.
//!
//! Every slot the defender commits to a `(channel, power level)` decision;
//! the jammer sweeps or tracks; the environment resolves the slot into the
//! paper's three outcomes and pays the Eq. (5) loss:
//!
//! * **Clean** — the jammer's block missed the defender's channel.
//! * **`TJ`** — jammed, but the Tx power level won the duel
//!   (`L^T ≥ L^J`, §IV.A.1): data still flows, at an observable penalty.
//! * **`J`** — jammed and lost: the slot's traffic is gone.

use crate::adversary::{Adversary, AdversaryConfig, AdversaryProbe, JamAction, SlotSense};
use rand::{Rng, RngCore};

/// Slot outcome (the observable projection of the MDP state).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Outcome {
    /// Not jammed this slot.
    Clean,
    /// Jammed but survived (`TJ`).
    JammedSurvived,
    /// Jammed and lost (`J`).
    Jammed,
}

impl Outcome {
    /// Whether the slot carried data successfully (ST counts these).
    pub fn is_success(self) -> bool {
        !matches!(self, Outcome::Jammed)
    }
}

/// Environment parameters (paper §IV.A.1 defaults).
#[derive(Debug, Clone, PartialEq)]
pub struct EnvParams {
    /// The adversary faced (front end + behaviour kind).
    pub adversary: AdversaryConfig,
    /// Tx power levels; each value is also its loss `L_{p_i}`.
    pub tx_powers: Vec<f64>,
    /// Loss of a frequency hop `L_H`.
    pub l_h: f64,
    /// Loss of a successful jam `L_J`.
    pub l_j: f64,
    /// Loss of emitting a decoy/bait transmission (the fake-transmission
    /// cost a deception defender pays to trigger reactive jammers).
    pub l_decoy: f64,
    /// Residual packet loss while in `TJ` (the duel is won but the
    /// interference still costs some packets in the field experiment).
    pub tj_residual_per: f64,
}

impl Default for EnvParams {
    fn default() -> Self {
        EnvParams {
            adversary: AdversaryConfig::default(),
            tx_powers: (6..=15).map(f64::from).collect(),
            l_h: 50.0,
            l_j: 100.0,
            l_decoy: 5.0,
            tj_residual_per: 0.1,
        }
    }
}

impl EnvParams {
    /// Number of selectable channels.
    pub fn num_channels(&self) -> usize {
        self.adversary.num_channels
    }

    /// Number of Tx power levels.
    pub fn num_powers(&self) -> usize {
        self.tx_powers.len()
    }

    /// The minimum Tx power level index (the "no power control" level).
    pub fn min_power_level(&self) -> usize {
        0
    }

    /// Shifts the Tx power range to `[lower, lower + count − 1]`
    /// (the Fig. 6(d) sweep).
    #[must_use]
    pub fn with_tx_lower_bound(mut self, lower: i64) -> Self {
        let count = self.tx_powers.len() as i64;
        self.tx_powers = (lower..lower + count).map(|v| v as f64).collect();
        self
    }
}

/// The defender's per-slot decision.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Decision {
    /// Channel to transmit on (`0..num_channels`).
    pub channel: usize,
    /// Power level index (`0..num_powers`).
    pub power_level: usize,
}

/// Everything that happened in one slot.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SlotResult {
    /// The defender's decision this slot.
    pub decision: Decision,
    /// Resolved outcome.
    pub outcome: Outcome,
    /// Whether the decision changed channel relative to the previous slot
    /// (frequency hopping adopted).
    pub hopped: bool,
    /// Whether the decision used a power level above the minimum
    /// (power control adopted).
    pub power_control: bool,
    /// The Eq. (5) reward (a non-positive loss).
    pub reward: f64,
    /// The jammer's action, for diagnostics.
    pub jam_action: JamAction,
}

impl SlotResult {
    /// Whether the jammer's block covered the defender's channel this
    /// slot (both jam outcomes imply coverage; `Clean` implies a miss).
    pub fn jammer_on_channel(&self) -> bool {
        self.outcome != Outcome::Clean
    }

    /// This slot as a structured telemetry event.
    pub fn telemetry_event(&self, slot: u64) -> ctjam_telemetry::SlotEvent {
        use ctjam_telemetry::SlotOutcome;
        ctjam_telemetry::SlotEvent {
            slot,
            channel: self.decision.channel as u16,
            power_level: self.decision.power_level as u16,
            hopped: self.hopped,
            power_control: self.power_control,
            outcome: match self.outcome {
                Outcome::Clean => SlotOutcome::Delivered,
                Outcome::JammedSurvived => SlotOutcome::SurvivedJam,
                Outcome::Jammed => SlotOutcome::Jammed,
            },
            jammer_on_channel: self.jammer_on_channel(),
            reward: self.reward,
        }
    }
}

/// A slot-level environment the runner can drive.
///
/// Two implementations exist: [`CompetitionEnv`] (the concrete
/// 16-channel radio game against whichever adversary
/// [`EnvParams::adversary`] describes) and [`crate::kernel::KernelEnv`]
/// (the paper's abstract Eqs. 6–14 kernel used by the simulation
/// figures).
pub trait Environment {
    /// The parameters in force.
    fn params(&self) -> &EnvParams;

    /// The channel the defender used last.
    fn current_channel(&self) -> usize;

    /// Advances one slot with the defender's decision.
    fn step(&mut self, decision: Decision, rng: &mut dyn rand::RngCore) -> SlotResult;

    /// Advances one slot with the defender's decision plus an optional
    /// decoy/bait transmission on another channel. The default ignores
    /// the decoy (abstract environments have no sensing adversary to
    /// bait); concrete environments charge `l_decoy` and expose the
    /// decoy to the adversary's sensing.
    fn step_with_decoy(
        &mut self,
        decision: Decision,
        _decoy: Option<usize>,
        rng: &mut dyn rand::RngCore,
    ) -> SlotResult {
        self.step(decision, rng)
    }
}

/// The competition environment.
#[derive(Debug, Clone)]
pub struct CompetitionEnv {
    params: EnvParams,
    adversary: Box<dyn Adversary>,
    current_channel: usize,
}

impl CompetitionEnv {
    /// Creates an environment with the defender starting on a random
    /// channel, building the adversary described by
    /// `params.adversary`.
    ///
    /// # Panics
    ///
    /// Panics if `tx_powers` is empty or the adversary configuration is
    /// degenerate.
    pub fn new<R: Rng + ?Sized>(params: EnvParams, rng: &mut R) -> Self {
        let adversary = params.adversary.build(rng);
        Self::with_adversary(params, adversary, rng)
    }

    /// Creates an environment around an already-built adversary (e.g. a
    /// league-trained attacker carried across episodes). Draws only the
    /// defender's starting channel from `rng`.
    ///
    /// # Panics
    ///
    /// Panics if `tx_powers` is empty.
    pub fn with_adversary<R: Rng + ?Sized>(
        params: EnvParams,
        adversary: Box<dyn Adversary>,
        rng: &mut R,
    ) -> Self {
        assert!(
            !params.tx_powers.is_empty(),
            "need at least one Tx power level"
        );
        let current_channel = rng.gen_range(0..params.adversary.num_channels);
        CompetitionEnv {
            params,
            adversary,
            current_channel,
        }
    }

    /// The parameters in force.
    pub fn params(&self) -> &EnvParams {
        &self.params
    }

    /// The channel the defender used last.
    pub fn current_channel(&self) -> usize {
        self.current_channel
    }

    /// The adversary's introspection counters.
    pub fn adversary_probe(&self) -> AdversaryProbe {
        self.adversary.probe()
    }

    /// The adversary's stable name ("sweep", "reactive", …).
    pub fn adversary_name(&self) -> &str {
        self.adversary.name()
    }

    /// Consumes the environment and hands back its adversary (with all
    /// learned state), for threading one attacker through many episodes.
    pub fn into_adversary(self) -> Box<dyn Adversary> {
        self.adversary
    }

    /// Advances one slot with the defender's decision.
    ///
    /// # Panics
    ///
    /// Panics if the decision indexes out of range.
    pub fn step(&mut self, decision: Decision, rng: &mut dyn RngCore) -> SlotResult {
        self.step_with_decoy(decision, None, rng)
    }

    /// [`CompetitionEnv::step`] with an optional decoy transmission:
    /// the adversary senses the decoy as if it were the victim, and the
    /// defender pays `l_decoy` for the fake transmission.
    ///
    /// # Panics
    ///
    /// Panics if the decision or decoy indexes out of range.
    pub fn step_with_decoy(
        &mut self,
        decision: Decision,
        decoy: Option<usize>,
        rng: &mut dyn RngCore,
    ) -> SlotResult {
        assert!(
            decision.channel < self.params.num_channels(),
            "channel {} out of range",
            decision.channel
        );
        assert!(
            decision.power_level < self.params.num_powers(),
            "power level {} out of range",
            decision.power_level
        );
        if let Some(decoy) = decoy {
            assert!(
                decoy < self.params.num_channels(),
                "decoy channel {decoy} out of range"
            );
        }

        let hopped = decision.channel != self.current_channel;
        self.current_channel = decision.channel;
        let power_control = decision.power_level > self.params.min_power_level();
        let tx_power = self.params.tx_powers[decision.power_level];

        let sense = SlotSense {
            victim_channel: decision.channel,
            victim_power: tx_power,
            decoy,
        };
        let jam_action = self.adversary.jam(&sense, rng);
        let outcome = if jam_action.covers(decision.channel) {
            // The duel (paper §IV.A.1): success iff L^T ≥ L^J.
            if tx_power >= jam_action.power {
                Outcome::JammedSurvived
            } else {
                Outcome::Jammed
            }
        } else {
            Outcome::Clean
        };

        // Eq. (5): −L_p, −L_J on J, −L_H on hop; −L_decoy on bait.
        let mut reward = -tx_power;
        if outcome == Outcome::Jammed {
            reward -= self.params.l_j;
        }
        if hopped {
            reward -= self.params.l_h;
        }
        if decoy.is_some() {
            reward -= self.params.l_decoy;
        }

        SlotResult {
            decision,
            outcome,
            hopped,
            power_control,
            reward,
            jam_action,
        }
    }
}

impl Environment for CompetitionEnv {
    fn params(&self) -> &EnvParams {
        CompetitionEnv::params(self)
    }

    fn current_channel(&self) -> usize {
        CompetitionEnv::current_channel(self)
    }

    fn step(&mut self, decision: Decision, rng: &mut dyn rand::RngCore) -> SlotResult {
        CompetitionEnv::step(self, decision, rng)
    }

    fn step_with_decoy(
        &mut self,
        decision: Decision,
        decoy: Option<usize>,
        rng: &mut dyn rand::RngCore,
    ) -> SlotResult {
        CompetitionEnv::step_with_decoy(self, decision, decoy, rng)
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

    fn fixed_decision(channel: usize) -> Decision {
        Decision {
            channel,
            power_level: 0,
        }
    }

    #[test]
    fn static_defender_gets_found_and_stays_jammed() {
        let mut r = rng(1);
        let mut env = CompetitionEnv::new(EnvParams::default(), &mut r);
        let channel = env.current_channel();
        let mut jammed_tail = 0;
        let mut results = Vec::new();
        for _ in 0..40 {
            results.push(env.step(fixed_decision(channel), &mut r));
        }
        // Once found (within one 4-slot cycle) the max-power jammer wins
        // every slot: the tail must be solid J.
        for result in results.iter().skip(4) {
            if result.outcome == Outcome::Jammed {
                jammed_tail += 1;
            }
        }
        assert_eq!(jammed_tail, 36, "jammer must lock onto a static victim");
    }

    #[test]
    fn reward_components_match_eq_5() {
        let mut r = rng(2);
        let params = EnvParams::default();
        let mut env = CompetitionEnv::new(params.clone(), &mut r);
        let channel = env.current_channel();
        // Run until jammed to observe the −L_p − L_J case.
        let mut saw_jammed = false;
        let mut saw_clean = false;
        for _ in 0..20 {
            let result = env.step(fixed_decision(channel), &mut r);
            match result.outcome {
                Outcome::Jammed => {
                    assert_eq!(result.reward, -(6.0 + 100.0));
                    saw_jammed = true;
                }
                Outcome::Clean => {
                    assert_eq!(result.reward, -6.0);
                    saw_clean = true;
                }
                Outcome::JammedSurvived => unreachable!("power 6 cannot beat 20"),
            }
        }
        assert!(saw_jammed && saw_clean);
    }

    #[test]
    fn hop_cost_applied() {
        let mut r = rng(3);
        let params = EnvParams::default();
        let mut env = CompetitionEnv::new(params, &mut r);
        let from = env.current_channel();
        let to = (from + 8) % 16;
        let result = env.step(fixed_decision(to), &mut r);
        assert!(result.hopped);
        assert!(result.reward <= -(6.0 + 50.0));
    }

    #[test]
    fn power_duel_respects_threshold() {
        // Give the Tx a power able to tie the jammer's max: survives.
        let mut r = rng(4);
        let params = EnvParams::default().with_tx_lower_bound(20); // 20..=29
        let mut env = CompetitionEnv::new(params, &mut r);
        let channel = env.current_channel();
        for _ in 0..30 {
            let result = env.step(
                Decision {
                    channel,
                    power_level: 0, // 20 ≥ jammer max 20
                },
                &mut r,
            );
            assert_ne!(result.outcome, Outcome::Jammed);
        }
    }

    #[test]
    fn power_control_flag_tracks_level() {
        let mut r = rng(5);
        let mut env = CompetitionEnv::new(EnvParams::default(), &mut r);
        let channel = env.current_channel();
        let low = env.step(fixed_decision(channel), &mut r);
        assert!(!low.power_control);
        let high = env.step(
            Decision {
                channel,
                power_level: 9,
            },
            &mut r,
        );
        assert!(high.power_control);
    }

    #[test]
    fn hopping_evades_a_locked_jammer_eventually() {
        let mut r = rng(6);
        let mut env = CompetitionEnv::new(EnvParams::default(), &mut r);
        // Hop every slot to a random far channel: the jammer rarely wins
        // twice in a row, so successes dominate.
        let mut successes = 0;
        let slots = 400;
        for _ in 0..slots {
            let channel = r.gen_range(0..16);
            let result = env.step(fixed_decision(channel), &mut r);
            if result.outcome.is_success() {
                successes += 1;
            }
        }
        let rate = f64::from(successes) / f64::from(slots);
        assert!(rate > 0.5, "random hopping success rate {rate}");
    }

    #[test]
    fn decoy_draws_fire_and_costs_l_decoy() {
        // A zero-latency reactive jammer always fires at the loudest
        // thing it hears — the decoy — so the real slot stays clean and
        // the reward only pays the Tx power plus the decoy cost.
        let params = EnvParams {
            adversary: AdversaryConfig::reactive(0.0).latency(0),
            ..EnvParams::default()
        };
        let mut r = rng(8);
        let mut env = CompetitionEnv::new(params, &mut r);
        let channel = env.current_channel();
        let decoy = (channel + 8) % 16;
        let result = env.step_with_decoy(fixed_decision(channel), Some(decoy), &mut r);
        assert_eq!(result.outcome, Outcome::Clean, "fire drawn to the decoy");
        assert_eq!(result.reward, -(6.0 + 5.0));
        // Without a decoy the same jammer hits the victim next slot.
        let result = env.step(fixed_decision(channel), &mut r);
        assert_eq!(result.outcome, Outcome::Jammed);
    }

    #[test]
    fn no_adversary_means_every_slot_is_clean() {
        let params = EnvParams {
            adversary: AdversaryConfig::none(),
            ..EnvParams::default()
        };
        let mut r = rng(9);
        let mut env = CompetitionEnv::new(params, &mut r);
        let channel = env.current_channel();
        for _ in 0..32 {
            let result = env.step(fixed_decision(channel), &mut r);
            assert_eq!(result.outcome, Outcome::Clean);
            assert!(result.jam_action.is_idle());
        }
    }

    #[test]
    #[should_panic]
    fn out_of_range_channel_panics() {
        let mut r = rng(7);
        let mut env = CompetitionEnv::new(EnvParams::default(), &mut r);
        env.step(fixed_decision(16), &mut r);
    }
}
