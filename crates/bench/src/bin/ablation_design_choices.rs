//! Ablations of the defense's design choices (DESIGN.md §5).
//!
//! The paper's central design claim is that the *hybrid* FH + PC action
//! space is what makes the DQN defense work. This harness isolates each
//! ingredient:
//!
//! 1. **Action space** — hybrid (FH × PC) vs FH-only (one power level)
//!    vs PC-only (static channel at max power), under both jammer modes.
//! 2. **History length `I`** — how much of the `3 × I` observation the
//!    agent actually needs.
//! 3. **Passive detection threshold** — how the error-threshold latency
//!    (the stealthiness cost) degrades the reactive baseline.
//!
//! Knobs: `CTJAM_TRAIN_SLOTS` (default 12 000), `CTJAM_EVAL_SLOTS`
//! (default 12 000).

use ctjam_bench::{
    banner, env_usize, finish_manifest, pct, start_manifest, table_header, table_row,
};
use ctjam_core::adversary::JammerMode;
use ctjam_core::defender::{DqnDefender, NoDefense, PassiveFh};
use ctjam_core::env::EnvParams;
use ctjam_core::runner::RunBuilder;
use ctjam_dqn::config::DqnConfig;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn dqn_st(
    params: &EnvParams,
    config: DqnConfig,
    train_slots: usize,
    eval_slots: usize,
    seed: u64,
) -> f64 {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut defender = DqnDefender::new(params, config, &mut rng);
    RunBuilder::new(params).train(&mut defender, train_slots, &mut rng);
    defender.set_training(false);
    RunBuilder::new(params)
        .evaluate(&mut defender, eval_slots, &mut rng)
        .metrics
        .success_rate()
}

fn main() {
    banner(
        "Ablations (design choices)",
        "hybrid FH+PC beats FH-only and PC-only; a few slots of history suffice; detection latency is what sinks passive FH",
    );
    let train_slots = env_usize("CTJAM_TRAIN_SLOTS", 12_000);
    let eval_slots = env_usize("CTJAM_EVAL_SLOTS", 12_000);
    let manifest = start_manifest(
        "ablation_design_choices",
        1,
        &format!(
            "train_slots={train_slots}, eval_slots={eval_slots}, {:?}",
            EnvParams::default()
        ),
    );

    println!("\n### 1. Action space (concrete 16-channel environment)\n");
    table_header(&[
        "jammer mode",
        "hybrid FH+PC",
        "FH-only",
        "PC-only (static, max power)",
    ]);
    for mode in [JammerMode::MaxPower, JammerMode::RandomPower] {
        let mut params = EnvParams::default();
        params.adversary.mode = mode;

        let hybrid_config = DqnConfig {
            num_channels: params.num_channels(),
            num_power_levels: params.num_powers(),
            ..DqnConfig::default()
        };
        let hybrid = dqn_st(&params, hybrid_config, train_slots, eval_slots, 1);

        // FH-only: collapse the power axis to the single minimum level.
        let mut fh_params = params.clone();
        fh_params.tx_powers = vec![params.tx_powers[0]];
        let fh_config = DqnConfig {
            num_channels: fh_params.num_channels(),
            num_power_levels: 1,
            ..DqnConfig::default()
        };
        let fh_only = dqn_st(&fh_params, fh_config, train_slots, eval_slots, 2);

        // PC-only: a static node pinned to the maximum power level.
        let mut rng = StdRng::seed_from_u64(3);
        let mut pc_only_defender =
            NoDefense::with_power(&params, params.num_powers() - 1, &mut rng);
        let pc_only = RunBuilder::new(&params)
            .run(&mut pc_only_defender, eval_slots, &mut rng)
            .metrics
            .success_rate();

        table_row(&[format!("{mode:?}"), pct(hybrid), pct(fh_only), pct(pc_only)]);
    }
    println!("\nexpected: PC-only collapses in max-power mode (Tx max 15 < Jx max 20); hybrid >= FH-only everywhere");

    println!("\n### 2. Observation history length I (3 x I inputs)\n");
    table_header(&["I", "input neurons", "ST (random-power jammer)"]);
    let mut params = EnvParams::default();
    params.adversary.mode = JammerMode::RandomPower;
    for history in [1usize, 2, 4, 8, 16] {
        let config = DqnConfig {
            history_len: history,
            num_channels: params.num_channels(),
            num_power_levels: params.num_powers(),
            ..DqnConfig::default()
        };
        let st = dqn_st(
            &params,
            config,
            train_slots,
            eval_slots,
            10 + history as u64,
        );
        table_row(&[format!("{history}"), format!("{}", 3 * history), pct(st)]);
    }
    println!("\nthe paper uses I = 8; the ablation shows how quickly returns diminish");

    println!("\n### 3. Passive FH detection threshold (stealthiness cost)\n");
    table_header(&["detection slots", "ST"]);
    let params = EnvParams::default();
    for detection in [1usize, 2, 3, 4] {
        let mut rng = StdRng::seed_from_u64(20 + detection as u64);
        let mut psv = PassiveFh::with_detection_slots(&params, detection, &mut rng);
        let st = RunBuilder::new(&params)
            .run(&mut psv, eval_slots, &mut rng)
            .metrics
            .success_rate();
        table_row(&[format!("{detection}"), pct(st)]);
    }
    println!("\nevery extra slot of detection latency (EmuBee's stealthiness) costs the reactive scheme dearly");
    finish_manifest(&manifest);
}
