//! The field-experiment simulator (paper §IV.D, Figs. 10–11).
//!
//! Couples the slot-level jamming competition to the packet-level star
//! network: each Tx slot the defender commits a `(channel, power)`
//! decision, the adversary described by [`EnvParams::adversary`] acts on
//! *its own clock* (`jx_slot_s` may differ from `tx_slot_s` — the
//! Fig. 11(b) experiment), and whatever fraction of the slot ends up
//! jammed translates into lost packets in the
//! [`ctjam_net::star::StarNetwork`].

use crate::adversary::{Adversary, JamAction, SlotSense};
use crate::defender::Defender;
use crate::env::{EnvParams, Outcome, SlotResult};
use crate::metrics::Metrics;
use ctjam_net::goodput::GoodputMeter;
use ctjam_net::star::StarNetwork;
use ctjam_net::timing::TimingModel;
use rand::Rng;

/// Field experiment configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct FieldConfig {
    /// Slot-level competition parameters.
    pub env: EnvParams,
    /// Duration of the Tx (defender) time slot, seconds.
    pub tx_slot_s: f64,
    /// Duration of the Jx (jammer) time slot, seconds.
    pub jx_slot_s: f64,
    /// Number of peripheral nodes (paper: 3 + hub).
    pub num_peripherals: usize,
    /// Application payload size per packet, bytes.
    pub payload_len: usize,
    /// Whether the jammer is present (`false` = the "w/o Jx" reference).
    /// A disabled jammer is still built, so its construction draws
    /// (the sweep's first shuffle) stay in the RNG stream.
    pub jammer_enabled: bool,
    /// Timing model for the star network.
    pub timing: TimingModel,
}

impl Default for FieldConfig {
    fn default() -> Self {
        FieldConfig {
            env: EnvParams::default(),
            tx_slot_s: 3.0,
            jx_slot_s: 3.0,
            num_peripherals: 3,
            payload_len: 100,
            jammer_enabled: true,
            timing: TimingModel::default(),
        }
    }
}

/// Aggregated result of a field run.
#[derive(Debug, Clone, PartialEq)]
pub struct FieldReport {
    /// Packet-level goodput accounting (Fig. 10, Fig. 11 y-axes).
    pub goodput: GoodputMeter,
    /// Slot-level Table I metrics.
    pub metrics: Metrics,
}

impl FieldReport {
    /// The headline number: mean unique packets delivered per Tx slot.
    pub fn packets_per_slot(&self) -> f64 {
        self.goodput.packets_per_slot()
    }
}

/// The running experiment.
#[derive(Debug, Clone)]
pub struct FieldExperiment<D> {
    config: FieldConfig,
    adversary: Box<dyn Adversary>,
    network: StarNetwork,
    defender: D,
    /// Absolute time, seconds.
    now_s: f64,
    /// Absolute time of the jammer's next decision.
    jx_next_s: f64,
    /// The adversary's standing action (block + power) between its ticks.
    standing: Option<JamAction>,
    /// Channel of the previous slot's decision (hop detection).
    prev_channel: Option<usize>,
}

impl<D: Defender> FieldExperiment<D> {
    /// Sets up the experiment, building the adversary described by
    /// `config.env.adversary` from `rng`.
    ///
    /// # Panics
    ///
    /// Panics if either slot duration is non-positive or the adversary
    /// configuration is degenerate.
    pub fn new<R: Rng + ?Sized>(config: FieldConfig, defender: D, rng: &mut R) -> Self {
        assert!(config.tx_slot_s > 0.0, "tx slot must be positive");
        assert!(config.jx_slot_s > 0.0, "jx slot must be positive");
        let adversary = config.env.adversary.build(rng);
        let network =
            StarNetwork::with_config(config.num_peripherals, config.timing, config.payload_len);
        FieldExperiment {
            adversary,
            network,
            defender,
            now_s: 0.0,
            jx_next_s: 0.0,
            standing: None,
            prev_channel: None,
            config,
        }
    }

    /// The configuration in force.
    pub fn config(&self) -> &FieldConfig {
        &self.config
    }

    /// Access to the defender (e.g. to freeze training after a warmup).
    pub fn defender_mut(&mut self) -> &mut D {
        &mut self.defender
    }

    /// Runs `slots` Tx slots and returns the aggregated report.
    pub fn run<R: Rng>(&mut self, slots: usize, rng: &mut R) -> FieldReport {
        let mut goodput = GoodputMeter::new();
        let mut metrics = Metrics::new();
        for _ in 0..slots {
            let (result, jam_frac, tj_frac) = self.advance_one_slot(rng);
            metrics.record(&result);

            // Packet phase: the jammed fraction of the slot loses its
            // packets; surviving-under-jamming time pays the residual PER.
            let residual = (jam_frac + tj_frac * self.config.env.tj_residual_per).clamp(0.0, 1.0);
            let slot = self
                .network
                .run_slot(self.config.tx_slot_s, true, residual, rng);
            goodput.record_slot(
                slot.delivered,
                slot.attempted,
                slot.payload_bytes,
                slot.overhead_s,
                self.config.tx_slot_s,
            );
        }
        FieldReport { goodput, metrics }
    }

    /// Advances the competition by one Tx slot, returning the slot result
    /// for the defender plus the jammed / survived-under-jamming time
    /// fractions.
    fn advance_one_slot<R: Rng>(&mut self, rng: &mut R) -> (SlotResult, f64, f64) {
        let decision = self.defender.decide(rng);
        let hopped = self
            .prev_channel
            .is_some_and(|prev| prev != decision.channel);
        self.prev_channel = Some(decision.channel);
        let tx_power = self.config.env.tx_powers[decision.power_level];

        let slot_end = self.now_s + self.config.tx_slot_s;
        let mut jam_time = 0.0;
        let mut tj_time = 0.0;

        if self.config.jammer_enabled {
            let sense = SlotSense {
                victim_channel: decision.channel,
                victim_power: tx_power,
                decoy: None,
            };
            // Walk the adversary's tick grid across this slot.
            while self.now_s < slot_end {
                if self.jx_next_s <= self.now_s {
                    self.standing = Some(self.adversary.jam(&sense, rng));
                    self.jx_next_s += self.config.jx_slot_s;
                }
                let segment_end = slot_end.min(self.jx_next_s);
                let segment = segment_end - self.now_s;
                if let Some(action) = &self.standing {
                    if action.covers(decision.channel) {
                        if tx_power >= action.power {
                            tj_time += segment;
                        } else {
                            jam_time += segment;
                        }
                    }
                }
                self.now_s = segment_end;
            }
        } else {
            self.now_s = slot_end;
        }

        let jam_frac = jam_time / self.config.tx_slot_s;
        let tj_frac = tj_time / self.config.tx_slot_s;
        let outcome = if jam_frac >= 0.5 {
            Outcome::Jammed
        } else if jam_frac + tj_frac > 0.02 {
            Outcome::JammedSurvived
        } else {
            Outcome::Clean
        };

        let mut reward = -tx_power;
        if outcome == Outcome::Jammed {
            reward -= self.config.env.l_j;
        }
        if hopped {
            reward -= self.config.env.l_h;
        }

        let result = SlotResult {
            decision,
            outcome,
            hopped,
            power_control: decision.power_level > self.config.env.min_power_level(),
            reward,
            jam_action: self.standing.unwrap_or(JamAction::idle()),
        };
        self.defender.feedback(&result, rng);
        (result, jam_frac, tj_frac)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adversary::AdversaryConfig;
    use crate::defender::{NoDefense, PassiveFh, RandomFh};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng(seed: u64) -> StdRng {
        StdRng::seed_from_u64(seed)
    }

    #[test]
    fn no_jammer_reference_delivers_full_goodput() {
        let mut r = rng(1);
        let config = FieldConfig {
            jammer_enabled: false,
            ..FieldConfig::default()
        };
        let defender = NoDefense::new(&config.env, &mut r);
        let mut exp = FieldExperiment::new(config, defender, &mut r);
        let report = exp.run(10, &mut r);
        assert!(report.metrics.success_rate() == 1.0);
        assert!(report.packets_per_slot() > 300.0);
    }

    #[test]
    fn an_absent_adversary_never_jams_the_field() {
        // The jammer is enabled, but the adversary it is handed is the
        // null one: every slot must come out clean.
        let mut r = rng(7);
        let config = FieldConfig {
            env: EnvParams {
                adversary: AdversaryConfig::none(),
                ..EnvParams::default()
            },
            jammer_enabled: true,
            ..FieldConfig::default()
        };
        let defender = NoDefense::new(&config.env, &mut r);
        let mut exp = FieldExperiment::new(config, defender, &mut r);
        let report = exp.run(40, &mut r);
        assert_eq!(report.metrics.jam_rate(), 0.0);
        assert_eq!(report.metrics.tj_rate(), 0.0);
        assert_eq!(report.metrics.success_rate(), 1.0);
    }

    #[test]
    fn jammer_hurts_the_undefended() {
        let mut r = rng(2);
        let config = FieldConfig::default();
        let defender = NoDefense::new(&config.env, &mut r);
        let mut exp = FieldExperiment::new(config, defender, &mut r);
        let report = exp.run(30, &mut r);
        assert!(
            report.packets_per_slot() < 220.0,
            "undefended goodput too high: {}",
            report.packets_per_slot()
        );
    }

    #[test]
    fn passive_fh_recovers_some_goodput() {
        let mut r = rng(3);
        let config = FieldConfig::default();
        let none = {
            let defender = NoDefense::new(&config.env, &mut r);
            let mut exp = FieldExperiment::new(config.clone(), defender, &mut r);
            exp.run(40, &mut r).packets_per_slot()
        };
        let psv = {
            let defender = PassiveFh::new(&config.env, &mut r);
            let mut exp = FieldExperiment::new(config.clone(), defender, &mut r);
            exp.run(40, &mut r).packets_per_slot()
        };
        assert!(psv > none, "passive {psv} should beat none {none}");
    }

    #[test]
    fn fast_jammer_is_worse_for_the_victim() {
        let mut r = rng(4);
        let base = FieldConfig::default();
        let slow = {
            let cfg = FieldConfig {
                jx_slot_s: 3.0,
                ..base.clone()
            };
            let defender = RandomFh::new(&cfg.env, &mut r);
            let mut exp = FieldExperiment::new(cfg, defender, &mut r);
            exp.run(60, &mut r).packets_per_slot()
        };
        let fast = {
            let cfg = FieldConfig {
                jx_slot_s: 0.5,
                ..base.clone()
            };
            let defender = RandomFh::new(&cfg.env, &mut r);
            let mut exp = FieldExperiment::new(cfg, defender, &mut r);
            exp.run(60, &mut r).packets_per_slot()
        };
        assert!(
            fast < slow,
            "sub-slot sweeping should hurt more: fast {fast} vs slow {slow}"
        );
    }

    #[test]
    fn goodput_grows_with_slot_duration() {
        let mut r = rng(5);
        let mut last = 0.0;
        for duration in [1.0, 3.0, 5.0] {
            let cfg = FieldConfig {
                tx_slot_s: duration,
                jx_slot_s: duration,
                jammer_enabled: false,
                ..FieldConfig::default()
            };
            let defender = NoDefense::new(&cfg.env, &mut r);
            let mut exp = FieldExperiment::new(cfg, defender, &mut r);
            let pkts = exp.run(8, &mut r).packets_per_slot();
            assert!(
                pkts > last,
                "goodput should grow with duration: {pkts} after {last}"
            );
            last = pkts;
        }
    }

    #[test]
    #[should_panic]
    fn zero_slot_duration_rejected() {
        let mut r = rng(6);
        let cfg = FieldConfig {
            tx_slot_s: 0.0,
            ..FieldConfig::default()
        };
        let defender = NoDefense::new(&cfg.env, &mut r);
        FieldExperiment::new(cfg, defender, &mut r);
    }
}
