//! The field-experiment simulator (paper §IV.D, Figs. 10–11).
//!
//! [`FieldEnv`] couples the slot-level jamming competition to the
//! packet-level star network: each Tx slot the defender commits a
//! `(channel, power)` decision, the adversary described by
//! [`EnvParams::adversary`] acts on *its own clock* (`jx_slot_s` may
//! differ from `tx_slot_s` — the Fig. 11(b) experiment), and whatever
//! fraction of the slot ends up jammed translates into lost packets in
//! the [`ctjam_net::star::StarNetwork`]. It is an [`Environment`], so
//! [`crate::runner::RunBuilder::run_in`] drives it through the same slot
//! loop as every other environment, with decoys, telemetry sinks and
//! fault plans included.

use crate::adversary::{Adversary, JamAction, SlotSense};
use crate::env::{eq5_reward, Decision, EnvParams, Environment, Outcome, SlotResult};
use ctjam_net::star::StarNetwork;
use ctjam_net::timing::TimingModel;
use rand::{Rng, RngCore};

pub use ctjam_net::goodput::GoodputMeter;

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

/// The field experiment as an [`Environment`].
///
/// Each [`Environment::step_with_decoy`] walks the adversary's tick grid
/// across one Tx slot, resolves the outcome from the jammed time
/// fractions, pays Eq. (5), and runs the slot's packet phase into the
/// [`GoodputMeter`] that [`FieldEnv::goodput`] returns. The first slot
/// is never a hop: no channel was in use before it, and until then
/// [`Environment::current_channel`] returns channel 0.
#[derive(Debug, Clone)]
pub struct FieldEnv {
    config: FieldConfig,
    adversary: Box<dyn Adversary>,
    network: StarNetwork,
    goodput: GoodputMeter,
    /// Absolute time, seconds.
    now_s: f64,
    /// Absolute time of the jammer's next decision.
    jx_next_s: f64,
    /// The adversary's standing action (block + power) between its ticks.
    standing: Option<JamAction>,
    /// Channel of the previous slot's decision (hop detection).
    prev_channel: Option<usize>,
}

impl FieldEnv {
    /// Sets up the experiment, building the adversary described by
    /// `config.env.adversary` from `rng`. That build is the only draw,
    /// also when `config.jammer_enabled` is `false`.
    ///
    /// # Panics
    ///
    /// Panics if either slot duration is non-positive or the adversary
    /// configuration is degenerate.
    pub fn new<R: Rng + ?Sized>(config: FieldConfig, rng: &mut R) -> Self {
        assert!(config.tx_slot_s > 0.0, "tx slot must be positive");
        assert!(config.jx_slot_s > 0.0, "jx slot must be positive");
        let adversary = config.env.adversary.build(rng);
        let network =
            StarNetwork::with_config(config.num_peripherals, config.timing, config.payload_len);
        FieldEnv {
            adversary,
            network,
            goodput: GoodputMeter::new(),
            now_s: 0.0,
            jx_next_s: 0.0,
            standing: None,
            prev_channel: None,
            config,
        }
    }

    /// Packet-level goodput of every slot run so far (the Fig. 10 and
    /// Fig. 11 y-axes).
    pub fn goodput(&self) -> GoodputMeter {
        self.goodput
    }
}

impl Environment for FieldEnv {
    fn params(&self) -> &EnvParams {
        &self.config.env
    }

    /// The channel of the last slot run, or channel 0 before the first
    /// slot (when no channel has been used yet).
    fn current_channel(&self) -> usize {
        self.prev_channel.unwrap_or(0)
    }

    fn step(&mut self, decision: Decision, rng: &mut dyn RngCore) -> SlotResult {
        self.step_with_decoy(decision, None, rng)
    }

    fn step_with_decoy(
        &mut self,
        decision: Decision,
        decoy: Option<usize>,
        rng: &mut dyn RngCore,
    ) -> SlotResult {
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
                decoy,
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

        // Packet phase: the jammed fraction of the slot loses its
        // packets; surviving-under-jamming time pays the residual PER.
        let residual = (jam_frac + tj_frac * self.config.env.tj_residual_per).clamp(0.0, 1.0);
        let slot = self
            .network
            .run_slot(self.config.tx_slot_s, true, residual, rng);
        self.goodput.record_slot(
            slot.delivered,
            slot.attempted,
            slot.payload_bytes,
            slot.overhead_s,
            self.config.tx_slot_s,
        );

        SlotResult {
            decision,
            outcome,
            hopped,
            power_control: decision.power_level > self.config.env.min_power_level(),
            reward: eq5_reward(&self.config.env, tx_power, outcome, hopped, decoy.is_some()),
            jam_action: self.standing.unwrap_or(JamAction::idle()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adversary::AdversaryConfig;
    use crate::defender::{Defender, NoDefense, PassiveFh, RandomFh, WithDecoys};
    use crate::runner::{EpisodeReport, RunBuilder};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng(seed: u64) -> StdRng {
        StdRng::seed_from_u64(seed)
    }

    /// Runs `defender` for `slots` Tx slots of a fresh field experiment,
    /// returning the runner's report and the packets delivered.
    fn field_run<D: Defender>(
        config: &FieldConfig,
        defender: &mut D,
        slots: usize,
        r: &mut StdRng,
    ) -> (EpisodeReport, GoodputMeter) {
        let mut env = FieldEnv::new(config.clone(), r);
        let report = RunBuilder::new(&config.env).run_in(&mut env, defender, slots, r);
        (report, env.goodput())
    }

    #[test]
    fn no_jammer_reference_delivers_full_goodput() {
        let mut r = rng(1);
        let config = FieldConfig {
            jammer_enabled: false,
            ..FieldConfig::default()
        };
        let mut defender = NoDefense::new(&config.env, &mut r);
        let (report, goodput) = field_run(&config, &mut defender, 10, &mut r);
        assert!(report.metrics.success_rate() == 1.0);
        assert!(goodput.packets_per_slot() > 300.0);
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
        let mut defender = NoDefense::new(&config.env, &mut r);
        let (report, _) = field_run(&config, &mut defender, 40, &mut r);
        assert_eq!(report.metrics.jam_rate(), 0.0);
        assert_eq!(report.metrics.tj_rate(), 0.0);
        assert_eq!(report.metrics.success_rate(), 1.0);
    }

    #[test]
    fn jammer_hurts_the_undefended() {
        let mut r = rng(2);
        let config = FieldConfig::default();
        let mut defender = NoDefense::new(&config.env, &mut r);
        let (_, goodput) = field_run(&config, &mut defender, 30, &mut r);
        assert!(
            goodput.packets_per_slot() < 220.0,
            "undefended goodput too high: {}",
            goodput.packets_per_slot()
        );
    }

    #[test]
    fn passive_fh_recovers_some_goodput() {
        let mut r = rng(3);
        let config = FieldConfig::default();
        let mut none = NoDefense::new(&config.env, &mut r);
        let none = field_run(&config, &mut none, 40, &mut r).1;
        let mut psv = PassiveFh::new(&config.env, &mut r);
        let psv = field_run(&config, &mut psv, 40, &mut r).1;
        let (none, psv) = (none.packets_per_slot(), psv.packets_per_slot());
        assert!(psv > none, "passive {psv} should beat none {none}");
    }

    #[test]
    fn fast_jammer_is_worse_for_the_victim() {
        let mut r = rng(4);
        let base = FieldConfig::default();
        let mut goodput_at = |jx_slot_s: f64| {
            let cfg = FieldConfig {
                jx_slot_s,
                ..base.clone()
            };
            let mut defender = RandomFh::new(&cfg.env, &mut r);
            field_run(&cfg, &mut defender, 60, &mut r)
                .1
                .packets_per_slot()
        };
        let slow = goodput_at(3.0);
        let fast = goodput_at(0.5);
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
            let mut defender = NoDefense::new(&cfg.env, &mut r);
            let pkts = field_run(&cfg, &mut defender, 8, &mut r)
                .1
                .packets_per_slot();
            assert!(
                pkts > last,
                "goodput should grow with duration: {pkts} after {last}"
            );
            last = pkts;
        }
    }

    #[test]
    fn decoys_bait_a_reactive_jammer_in_the_field() {
        // A zero-latency reactive jammer fires at the loudest thing it
        // hears. With a decoy every slot it chases the bait, and every
        // slot pays l_decoy on top of its Eq. (5) terms.
        let config = FieldConfig {
            env: EnvParams {
                adversary: AdversaryConfig::reactive(0.0).latency(0),
                ..EnvParams::default()
            },
            ..FieldConfig::default()
        };
        let slots = 40;

        let mut r = rng(8);
        let mut plain = NoDefense::new(&config.env, &mut r);
        let st_plain = field_run(&config, &mut plain, slots, &mut r)
            .0
            .metrics
            .success_rate();

        let mut r = rng(8);
        let inner = NoDefense::new(&config.env, &mut r);
        let mut baited = WithDecoys::new(inner, 1.0, &config.env);
        let mut env = FieldEnv::new(config.clone(), &mut r);
        let mut sink = ctjam_telemetry::MemorySink::new();
        let report = RunBuilder::new(&config.env).sink(&mut sink).run_in(
            &mut env,
            &mut baited,
            slots,
            &mut r,
        );
        let st_baited = report.metrics.success_rate();

        assert!(
            st_baited > st_plain + 0.5,
            "decoys must draw the reactive jammer away: {st_baited} vs {st_plain}"
        );
        let env = &config.env;
        for event in &sink.slots {
            let lost = if event.outcome == ctjam_telemetry::SlotOutcome::Jammed {
                env.l_j
            } else {
                0.0
            };
            let want = -env.tx_powers[0] - lost - env.l_decoy;
            assert_eq!(event.reward, want, "slot {}", event.slot);
        }
    }

    #[test]
    fn a_sink_records_one_event_per_field_slot() {
        let mut r = rng(9);
        let config = FieldConfig::default();
        let mut defender = PassiveFh::new(&config.env, &mut r);
        let mut env = FieldEnv::new(config.clone(), &mut r);
        let mut sink = ctjam_telemetry::MemorySink::new();
        let report = RunBuilder::new(&config.env).sink(&mut sink).run_in(
            &mut env,
            &mut defender,
            25,
            &mut r,
        );
        assert_eq!(sink.slots.len(), 25);
        assert_eq!(report.metrics.slots(), 25);
        let slots: Vec<u64> = sink.slots.iter().map(|e| e.slot).collect();
        assert_eq!(slots, (0..25).collect::<Vec<u64>>());
    }

    #[test]
    fn deadline_overruns_are_accounted_in_field_runs() {
        use ctjam_fault::{FaultPlan, FaultRates, FaultSite};
        let mut r = rng(10);
        let config = FieldConfig::default();
        let mut defender = RandomFh::new(&config.env, &mut r);
        let mut env = FieldEnv::new(config.clone(), &mut r);
        let mut plan = FaultPlan::new(3, FaultRates::zero().with(FaultSite::DeadlineOverrun, 1.0));
        let report = RunBuilder::new(&config.env).fault_plan(&mut plan).run_in(
            &mut env,
            &mut defender,
            30,
            &mut r,
        );
        assert_eq!(report.metrics.slots(), 30);
        assert_eq!(report.health.deadline_overruns, 30);
        assert_eq!(env.goodput().slots(), 30);
    }

    #[test]
    #[should_panic]
    fn zero_slot_duration_rejected() {
        let mut r = rng(6);
        let cfg = FieldConfig {
            tx_slot_s: 0.0,
            ..FieldConfig::default()
        };
        FieldEnv::new(cfg, &mut r);
    }
}
