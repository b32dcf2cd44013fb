//! Extension study: the defense against a DeepJam-class adaptive jammer.
//!
//! The paper's sweep jammer (§II.C) searches blindly; its related work
//! (reference \[14\], DeepJam) predicts traffic patterns instead. This harness pits
//! every defense against three predictor strengths and reports:
//!
//! * each defense's success rate of transmission, and
//! * the jammer's prediction hit rate —
//!
//! exposing a structural point the paper leaves implicit: a DQN policy is
//! (near-)deterministic, so a traffic predictor can learn it, while
//! uniformly randomized hopping pins any predictor at chance (25 % with
//! 4 blocks) at the cost of constant hop overhead.
//!
//! Knobs: `CTJAM_TRAIN_SLOTS` (default 12 000), `CTJAM_EVAL_SLOTS`
//! (default 8 000).

use ctjam_bench::{
    banner, env_usize, finish_manifest, pct, start_manifest, table_header, table_row,
};
use ctjam_core::adaptive::PredictorKind;
use ctjam_core::adversary::AdversaryConfig;
use ctjam_core::defender::{Defender, DqnDefender, PassiveFh, RandomFh};
use ctjam_core::env::{CompetitionEnv, EnvParams};
use ctjam_core::runner::RunBuilder;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    banner(
        "Adaptive-jammer extension (DeepJam-class adversary)",
        "a predictable hopping policy collapses against traffic prediction; randomized hopping pins the predictor at chance",
    );
    let train_slots = env_usize("CTJAM_TRAIN_SLOTS", 12_000);
    let eval_slots = env_usize("CTJAM_EVAL_SLOTS", 8_000);
    let params = EnvParams::default();

    // Train the DQN against the paper's sweep jammer (the deployment
    // scenario: the defender does not know which adversary shows up).
    let manifest = start_manifest(
        "adaptive_jammer",
        77,
        &format!("train_slots={train_slots}, eval_slots={eval_slots}, {params:?}"),
    );
    let mut rng = StdRng::seed_from_u64(77);
    let mut dqn = DqnDefender::paper_default(&params, &mut rng);
    RunBuilder::new(&params).train(&mut dqn, train_slots, &mut rng);
    dqn.set_training(false);

    println!();
    table_header(&["defense", "predictor", "defense ST", "jammer hit rate"]);
    for kind in [
        PredictorKind::LastBlock,
        PredictorKind::Markov,
        PredictorKind::Rnn,
    ] {
        let adaptive = EnvParams {
            adversary: AdversaryConfig::adaptive(kind),
            ..params.clone()
        };
        let mut softmax_dqn = dqn.clone();
        softmax_dqn.set_temperature(Some(8.0));
        let defenses: Vec<(&str, Box<dyn Defender>)> = vec![
            ("PSV FH", Box::new(PassiveFh::new(&params, &mut rng))),
            ("Rand FH", Box::new(RandomFh::new(&params, &mut rng))),
            ("RL FH (DQN)", Box::new(dqn.clone())),
            ("RL FH (softmax t=8)", Box::new(softmax_dqn)),
        ];
        for (name, mut defender) in defenses {
            let mut r = StdRng::seed_from_u64(1000 + kind as u64);
            let mut env = CompetitionEnv::new(adaptive.clone(), &mut r);
            let report =
                RunBuilder::new(&adaptive).run_in(&mut env, defender.as_mut(), eval_slots, &mut r);
            table_row(&[
                name.to_string(),
                format!("{kind:?}"),
                pct(report.metrics.success_rate()),
                pct(env.adversary_probe().hit_rate()),
            ]);
        }
    }
    // Reference: the softmax policy against the paper's sweep jammer, to
    // price the randomization.
    let mut r = StdRng::seed_from_u64(2000);
    let mut softmax_dqn = dqn.clone();
    softmax_dqn.set_temperature(Some(8.0));
    let sweep_greedy = RunBuilder::new(&params)
        .evaluate(&mut dqn.clone(), eval_slots, &mut r)
        .metrics
        .success_rate();
    let sweep_softmax = RunBuilder::new(&params)
        .evaluate(&mut softmax_dqn, eval_slots, &mut r)
        .metrics
        .success_rate();
    println!();
    println!(
        "cost of randomization vs the sweep jammer: greedy {} -> softmax {}",
        pct(sweep_greedy),
        pct(sweep_softmax)
    );
    println!("reading guide: hit rate ~25% = the predictor is at chance (4 blocks);");
    println!("hit rate >> 25% = the defense's hopping pattern has been learned.");
    finish_manifest(&manifest);
}
