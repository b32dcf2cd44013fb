//! The arms race: what happens *after* the paper.
//!
//! Act 1 — the paper's scenario: a sweeping EmuBee jammer vs the trained
//! DQN defense (the defense wins, ~75% ST).
//!
//! Act 2 — the jammer upgrades to a DeepJam-class traffic predictor
//! (related work [14]): it senses which 4-channel block the victim uses
//! each slot, trains an RNN on the pattern, and jams the predicted block.
//! The DQN's near-deterministic policy gets *learned* and collapses.
//!
//! Act 3 — the defender hardens: deployment-time Boltzmann sampling
//! randomizes among near-optimal hops, pinning any predictor near chance
//! without giving up sweep-jammer performance.
//!
//! ```text
//! cargo run --release --example arms_race
//! ```

use ctjam::core::adaptive::PredictorKind;
use ctjam::core::adversary::AdversaryConfig;
use ctjam::core::defender::DqnDefender;
use ctjam::core::env::{CompetitionEnv, EnvParams};
use ctjam::core::runner::RunBuilder;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::error::Error;

fn main() -> Result<(), Box<dyn Error>> {
    let params = EnvParams::default();
    let mut rng = StdRng::seed_from_u64(2022);
    let eval_slots = 8_000;

    println!("== Act 1: the paper's fight ==");
    println!("training the DQN against the sweeping EmuBee jammer...");
    let mut defense = DqnDefender::paper_default(&params, &mut rng);
    RunBuilder::new(&params).train(&mut defense, 12_000, &mut rng);
    defense.set_training(false);
    let act1 = RunBuilder::new(&params).evaluate(&mut defense, eval_slots, &mut rng);
    println!(
        "vs the sweep jammer: ST = {:.1}%  (the paper's ~78% regime)\n",
        100.0 * act1.metrics.success_rate()
    );

    println!("== Act 2: the jammer learns ==");
    let predictor = EnvParams {
        adversary: AdversaryConfig::adaptive(PredictorKind::Rnn),
        ..params.clone()
    };
    let mut env = CompetitionEnv::new(predictor.clone(), &mut rng);
    let act2 = RunBuilder::new(&predictor).run_in(&mut env, &mut defense, eval_slots, &mut rng);
    println!(
        "vs an RNN traffic predictor: ST = {:.1}%, jammer hit rate = {:.1}% (chance is 25%)",
        100.0 * act2.metrics.success_rate(),
        100.0 * env.adversary_probe().hit_rate()
    );
    println!("the deterministic hop pattern was learned — the defense fell below the passive baseline.\n");

    println!("== Act 3: the defender randomizes ==");
    let mut hardened = defense.clone();
    hardened.set_temperature(Some(8.0));
    let mut env = CompetitionEnv::new(predictor.clone(), &mut rng);
    let act3 = RunBuilder::new(&predictor).run_in(&mut env, &mut hardened, eval_slots, &mut rng);
    println!(
        "softmax (t = 8) vs the same predictor: ST = {:.1}%, jammer hit rate = {:.1}%",
        100.0 * act3.metrics.success_rate(),
        100.0 * env.adversary_probe().hit_rate()
    );
    let sweep_check = RunBuilder::new(&params).evaluate(&mut hardened, eval_slots, &mut rng);
    println!(
        "and it still handles the original sweep jammer: ST = {:.1}%",
        100.0 * sweep_check.metrics.success_rate()
    );

    println!("\nmoral: against an adaptive adversary, *policy entropy* is part of the defense.");
    assert!(act3.metrics.success_rate() > act2.metrics.success_rate() + 0.2);
    Ok(())
}
