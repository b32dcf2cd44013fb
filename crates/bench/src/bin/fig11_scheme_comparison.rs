//! Fig. 11: anti-jamming scheme comparison and Jx-slot sensitivity.
//!
//! (a) runs the field experiment under the EmuBee jammer with each
//! defense — passive FH, random FH, the trained DQN ("RL FH") — plus the
//! no-jammer reference, and prints goodput per slot and the fraction of
//! the no-jammer goodput each scheme retains (paper: 37.6%, 54.1%,
//! 78.5%). (b) fixes the Tx slot at 3 s and sweeps the Jx slot 0.5–5 s.
//!
//! Knobs: `CTJAM_FIELD_SLOTS` (default 300 Tx slots per repetition),
//! `CTJAM_FIELD_REPS` (default 3 seeds averaged), `CTJAM_TRAIN_SLOTS`.

use ctjam_bench::{
    banner, env_usize, finish_manifest, pct, start_manifest, table_header, table_row,
};
use ctjam_core::defender::{Defender, DqnDefender, NoDefense, PassiveFh, RandomFh};
use ctjam_core::field::{FieldConfig, FieldEnv};
use ctjam_core::runner::RunBuilder;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Mean (packets/slot, slot ST) over `reps` seeded repetitions.
fn run_field<D, F>(
    config: &FieldConfig,
    make: F,
    slots: usize,
    reps: usize,
    seed: u64,
) -> (f64, f64)
where
    D: Defender,
    F: Fn(&mut StdRng) -> D,
{
    let mut pkts = 0.0;
    let mut st = 0.0;
    for rep in 0..reps {
        let mut rng = StdRng::seed_from_u64(seed + 7919 * rep as u64);
        let mut defender = make(&mut rng);
        let mut env = FieldEnv::new(config.clone(), &mut rng);
        let report = RunBuilder::new(&config.env).run_in(&mut env, &mut defender, slots, &mut rng);
        pkts += env.goodput().packets_per_slot();
        st += report.metrics.success_rate();
    }
    (pkts / reps as f64, st / reps as f64)
}

fn main() {
    banner(
        "Fig. 11 (scheme comparison & Jx-slot sensitivity)",
        "goodput RL ~2x passive and ~1.39x random; RL retains ~78% of the no-jammer goodput; best performance when Jx slot == Tx slot",
    );
    let slots = env_usize("CTJAM_FIELD_SLOTS", 300);
    let reps = env_usize("CTJAM_FIELD_REPS", 3);
    let train_slots = env_usize("CTJAM_TRAIN_SLOTS", 12_000);
    let mut rng = StdRng::seed_from_u64(11);
    let base = FieldConfig::default();
    let mut manifest = start_manifest(
        "fig11_scheme_comparison",
        11,
        &format!("slots={slots}, reps={reps}, train_slots={train_slots}, {base:?}"),
    );
    // Fault-plan provenance (chaos-harness replay recipe; see
    // tests/chaos.rs): this figure runs fault-free.
    manifest
        .push_extra("fault_rates", ctjam_fault::FaultRates::zero().describe())
        .push_extra("fault_seed", "none");

    // Offline training of the RL defense (the paper trains offline and
    // loads the network onto the hub).
    let mut rl = DqnDefender::paper_default(&base.env, &mut rng);
    RunBuilder::new(&base.env).train(&mut rl, train_slots, &mut rng);
    rl.set_training(false);

    println!("\n### Fig. 11(a): scheme comparison (Tx slot = Jx slot = 3 s)\n");
    let no_jx = FieldConfig {
        jammer_enabled: false,
        ..base.clone()
    };
    let reference = run_field(&no_jx, |r| NoDefense::new(&no_jx.env, r), slots, reps, 100);
    let psv = run_field(&base, |r| PassiveFh::new(&base.env, r), slots, reps, 101);
    let rnd = run_field(&base, |r| RandomFh::new(&base.env, r), slots, reps, 102);
    let rl_res = run_field(&base, |_| rl.clone(), slots, reps, 103);

    let full = reference.0;
    table_header(&[
        "scheme",
        "goodput (pkts/slot)",
        "fraction of no-jammer",
        "slot ST",
        "paper fraction",
    ]);
    for (name, (pkts, st), paper) in [
        ("PSV FH", psv, "37.6%"),
        ("Rand FH", rnd, "54.1%"),
        ("RL FH (DQN)", rl_res, "78.5%"),
        ("w/o Jx", reference, "100%"),
    ] {
        table_row(&[
            name.to_string(),
            format!("{pkts:.0}"),
            pct(pkts / full),
            pct(st),
            paper.to_string(),
        ]);
    }
    println!(
        "\nratios: RL/PSV = {:.2}x (paper 2.0x), RL/Rand = {:.2}x (paper 1.39x)",
        rl_res.0 / psv.0,
        rl_res.0 / rnd.0
    );

    println!("\n### Fig. 11(b): goodput vs Jx slot duration (Tx slot = 3 s, RL defense)\n");
    table_header(&["Jx slot (s)", "goodput (pkts/slot)", "slot ST"]);
    for jx in [0.5f64, 1.0, 1.5, 2.0, 2.5, 3.0, 3.5, 4.0, 4.5, 5.0] {
        let config = FieldConfig {
            jx_slot_s: jx,
            ..base.clone()
        };
        let (pkts, st) = run_field(
            &config,
            |_| rl.clone(),
            slots,
            reps,
            200 + (jx * 10.0) as u64,
        );
        table_row(&[format!("{jx:.1}"), format!("{pkts:.0}"), pct(st)]);
    }
    println!("\npaper: best goodput (~421 pkts/slot) when the Jx slot matches the 3 s Tx slot; faster sweeping hurts most");
    finish_manifest(&manifest);
}
