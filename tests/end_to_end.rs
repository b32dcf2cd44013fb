//! End-to-end integration: train → serialize → deploy → defend.

use ctjam::core::defender::{DqnDefender, NoDefense, PassiveFh};
use ctjam::core::env::EnvParams;
use ctjam::core::field::{FieldConfig, FieldEnv};
use ctjam::core::runner::RunBuilder;
use ctjam::nn::serialize::{deployed_kb, from_bytes, to_bytes};
use rand::rngs::StdRng;
use rand::SeedableRng;

#[test]
fn trained_dqn_beats_passive_baseline() {
    let mut rng = StdRng::seed_from_u64(1);
    let params = EnvParams::default();
    let mut defense = DqnDefender::small_for_tests(&params, &mut rng);
    RunBuilder::new(&params).train(&mut defense, 6_000, &mut rng);
    defense.set_training(false);
    let rl = RunBuilder::new(&params).evaluate(&mut defense, 4_000, &mut rng);

    let mut passive = PassiveFh::new(&params, &mut rng);
    let psv = RunBuilder::new(&params).evaluate(&mut passive, 4_000, &mut rng);

    assert!(
        rl.metrics.success_rate() > psv.metrics.success_rate() + 0.05,
        "RL {:.3} vs passive {:.3}",
        rl.metrics.success_rate(),
        psv.metrics.success_rate()
    );
}

#[test]
fn trained_network_survives_deployment_roundtrip() {
    // The paper's workflow: train offline, serialize the matrices
    // (~42.7 KB of f32), load them onto the hub.
    let mut rng = StdRng::seed_from_u64(2);
    let params = EnvParams::default();
    let mut defense = DqnDefender::small_for_tests(&params, &mut rng);
    RunBuilder::new(&params).train(&mut defense, 3_000, &mut rng);
    defense.set_training(false);

    let blob = to_bytes(defense.agent().network());
    let restored = from_bytes(&blob).expect("weight blob must parse");
    assert_eq!(restored.shape(), defense.agent().network().shape());
    assert!(
        deployed_kb(&restored) < 60.0,
        "deployed network should stay in the paper's tens-of-KB class"
    );

    // The redeployed network must make (approximately) the same
    // decisions: compare greedy actions over a batch of observations.
    let mut redeployed = DqnDefender::small_for_tests(&params, &mut rng);
    redeployed.agent_mut().load_network(&restored);
    redeployed.set_training(false);
    let obs_len = defense.agent().config().input_size();
    let mut agree = 0;
    let total = 200;
    for i in 0..total {
        let obs: Vec<f64> = (0..obs_len)
            .map(|j| ((i * 31 + j * 7) % 10) as f64 / 10.0)
            .collect();
        if defense.agent().act_greedy(&obs) == redeployed.agent().act_greedy(&obs) {
            agree += 1;
        }
    }
    assert!(
        agree >= total * 95 / 100,
        "only {agree}/{total} greedy decisions survived the f32 roundtrip"
    );
}

#[test]
fn field_experiment_defense_recovers_goodput() {
    let mut rng = StdRng::seed_from_u64(3);
    let config = FieldConfig::default();

    // Undefended floor.
    let mut undefended = NoDefense::new(&config.env, &mut rng);
    let mut floor = FieldEnv::new(config.clone(), &mut rng);
    RunBuilder::new(&config.env).run_in(&mut floor, &mut undefended, 40, &mut rng);

    // Small trained DQN deployed into the field.
    let mut defense = DqnDefender::small_for_tests(&config.env, &mut rng);
    RunBuilder::new(&config.env).train(&mut defense, 6_000, &mut rng);
    defense.set_training(false);
    let mut defended = FieldEnv::new(config.clone(), &mut rng);
    RunBuilder::new(&config.env).run_in(&mut defended, &mut defense, 40, &mut rng);

    let (floor, defended) = (floor.goodput(), defended.goodput());
    assert!(
        defended.packets_per_slot() > 1.5 * floor.packets_per_slot(),
        "defense {:.0} pkts/slot vs floor {:.0}",
        defended.packets_per_slot(),
        floor.packets_per_slot()
    );
}
