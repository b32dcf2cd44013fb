//! Property-based tests over the competition environments and metrics.

use ctjam_core::adaptive::PredictorKind;
use ctjam_core::adversary::{AdversaryConfig, JammerMode, SlotSense};
use ctjam_core::defender::{Defender, NoDefense, PassiveFh, RandomFh};
use ctjam_core::env::{CompetitionEnv, Decision, EnvParams, Environment, Outcome};
use ctjam_core::kernel::KernelEnv;
use ctjam_core::metrics::Metrics;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn arb_params() -> impl Strategy<Value = EnvParams> {
    (
        1usize..5,       // sweep cycle multiplier (cycle = this value + 1)
        2usize..6,       // number of tx power levels
        1.0f64..20.0,    // tx power lower bound
        0.0f64..120.0,   // l_h
        0.0f64..300.0,   // l_j
        prop::bool::ANY, // random-power mode
    )
        .prop_map(|(cycle_m1, m, tx_lo, l_h, l_j, random)| {
            let mut p = EnvParams::default();
            p.adversary = p.adversary.with_sweep_cycle(cycle_m1 + 1);
            p.adversary.mode = if random {
                JammerMode::RandomPower
            } else {
                JammerMode::MaxPower
            };
            p.tx_powers = (0..m).map(|i| tx_lo + i as f64).collect();
            p.l_h = l_h;
            p.l_j = l_j;
            p
        })
}

/// Every member of the adversary zoo, including stacked and learning
/// configurations.
fn arb_adversary() -> impl Strategy<Value = AdversaryConfig> {
    (
        0usize..9,
        0.0f64..15.0,
        0usize..3,
        0.5f64..60.0,
        0.0f64..4.0,
    )
        .prop_map(
            |(kind, threshold, latency, capacity, recharge)| match kind {
                0 => AdversaryConfig::none(),
                1 => AdversaryConfig::sweep(),
                2 => AdversaryConfig::sweep().random_power(),
                3 => AdversaryConfig::reactive(threshold).latency(latency),
                4 => AdversaryConfig::pursuit(),
                5 => AdversaryConfig::pursuit().energy_budget(capacity, recharge),
                6 => AdversaryConfig::adaptive(PredictorKind::Markov),
                7 => AdversaryConfig::adaptive(PredictorKind::LastBlock).eavesdrop(),
                _ => AdversaryConfig::dqn(),
            },
        )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn rewards_decompose_correctly(params in arb_params(), seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut env = CompetitionEnv::new(params.clone(), &mut rng);
        for _ in 0..60 {
            let decision = Decision {
                channel: rng.gen_range(0..params.num_channels()),
                power_level: rng.gen_range(0..params.num_powers()),
            };
            let was = env.current_channel();
            let result = Environment::step(&mut env, decision, &mut rng);
            let mut expected = -params.tx_powers[decision.power_level];
            if result.outcome == Outcome::Jammed {
                expected -= params.l_j;
            }
            if decision.channel != was {
                expected -= params.l_h;
            }
            prop_assert!((result.reward - expected).abs() < 1e-9);
            prop_assert_eq!(result.hopped, decision.channel != was);
        }
    }

    #[test]
    fn kernel_env_outcomes_are_consistent(params in arb_params(), seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut env = KernelEnv::new(params.clone(), &mut rng);
        for _ in 0..60 {
            let decision = Decision {
                channel: rng.gen_range(0..params.num_channels()),
                power_level: rng.gen_range(0..params.num_powers()),
            };
            let result = env.step(decision, &mut rng);
            // Rewards are never positive; jammed slots always pay L_J.
            prop_assert!(result.reward <= 0.0);
            if result.outcome == Outcome::Jammed {
                prop_assert!(
                    result.reward
                        <= -params.l_j - params.tx_powers[decision.power_level] + 1e-9
                );
            }
        }
    }

    #[test]
    fn metrics_stay_in_unit_interval(params in arb_params(), seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut env = CompetitionEnv::new(params.clone(), &mut rng);
        let mut defender = RandomFh::new(&params, &mut rng);
        let mut metrics = Metrics::new();
        for _ in 0..120 {
            let d = defender.decide(&mut rng);
            let r = Environment::step(&mut env, d, &mut rng);
            defender.feedback(&r, &mut rng);
            metrics.record(&r);
        }
        for value in [
            metrics.success_rate(),
            metrics.fh_adoption_rate(),
            metrics.fh_success_rate(),
            metrics.pc_adoption_rate(),
            metrics.pc_success_rate(),
            metrics.jam_rate(),
            metrics.tj_rate(),
        ] {
            prop_assert!((0.0..=1.0).contains(&value), "metric {value} out of range");
        }
        prop_assert!(metrics.jam_rate() + metrics.success_rate() <= 1.0 + 1e-12);
    }

    #[test]
    fn jammer_always_attacks_a_valid_block(seed in any::<u64>(), cycle in 2usize..6) {
        let mut rng = StdRng::seed_from_u64(seed);
        let config = AdversaryConfig::sweep().with_sweep_cycle(cycle);
        let channels = config.num_channels;
        let width = config.jam_width;
        let mut jammer = config.build(&mut rng);
        for _ in 0..100 {
            let sense = SlotSense {
                victim_channel: rng.gen_range(0..channels),
                victim_power: 10.0,
                decoy: None,
            };
            let action = jammer.jam(&sense, &mut rng);
            prop_assert_eq!(action.block.start % width, 0);
            prop_assert!(action.block.start + width <= channels);
            prop_assert!(action.power >= 11.0 && action.power <= 20.0);
        }
    }

    #[test]
    fn every_zoo_adversary_is_bit_exact_under_clone_and_replay(
        config in arb_adversary(),
        seed in any::<u64>(),
    ) {
        // clone_box mid-run must capture the complete adversary state
        // (locks, latency queues, charge, predictor history, network
        // weights and replay): the clone driven by a cloned RNG and the
        // identical sense sequence must emit identical actions forever.
        let mut rng = StdRng::seed_from_u64(seed);
        let mut sense_rng = StdRng::seed_from_u64(seed ^ 0x5E5E_5E5E);
        let channels = config.num_channels;
        let mut draw_sense = move || SlotSense {
            victim_channel: sense_rng.gen_range(0..channels),
            victim_power: sense_rng.gen_range(1.0..12.0),
            decoy: sense_rng
                .gen_bool(0.3)
                .then(|| sense_rng.gen_range(0..channels)),
        };

        let mut original = config.build(&mut rng);
        for _ in 0..40 {
            original.jam(&draw_sense(), &mut rng);
        }

        let mut replica = original.clone_box();
        let mut replica_rng = rng.clone();
        for slot in 0..40 {
            let sense = draw_sense();
            let a = original.jam(&sense, &mut rng);
            let b = replica.jam(&sense, &mut replica_rng);
            prop_assert_eq!(a, b, "{} diverged at slot {} after clone", original.name(), slot);
        }
        prop_assert_eq!(original.probe(), replica.probe());
    }

    #[test]
    fn passive_defender_never_uses_power_control(params in arb_params(), seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut env = CompetitionEnv::new(params.clone(), &mut rng);
        let mut psv = PassiveFh::new(&params, &mut rng);
        for _ in 0..80 {
            let d = psv.decide(&mut rng);
            prop_assert_eq!(d.power_level, 0);
            let r = Environment::step(&mut env, d, &mut rng);
            psv.feedback(&r, &mut rng);
        }
    }

    #[test]
    fn no_defense_never_changes_anything(params in arb_params(), seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut env = CompetitionEnv::new(params.clone(), &mut rng);
        let mut floor = NoDefense::new(&params, &mut rng);
        let first = floor.decide(&mut rng);
        for _ in 0..40 {
            let d = floor.decide(&mut rng);
            prop_assert_eq!(d, first);
            let r = Environment::step(&mut env, d, &mut rng);
            floor.feedback(&r, &mut rng);
        }
    }
}
