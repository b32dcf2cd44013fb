//! Figs. 6, 7, and 8: the simulation sweeps.
//!
//! Thin wrapper over the checked-in scenario
//! `scenarios/fig06_07_08_sweeps.json`: the four Table-I sweeps (`L_J`,
//! sweep cycle, `L_H`, lower bound of `L_{p_i}`), both jammer modes,
//! one fresh DQN per data point on the MDP-kernel environment. The
//! sweep engine lives in `ctjam_scenario::run::run_sweep`, so this
//! binary and a `campaign` run of the same file produce bit-identical
//! numbers.
//!
//! Budget knobs: `CTJAM_TRAIN_SLOTS` (default 12 000), `CTJAM_EVAL_SLOTS`
//! (default 20 000). The full run is 54 DQN trainings; expect about 75 s
//! at defaults on 2 cores.

use ctjam_bench::{
    banner, env_usize, finish_manifest, load_scenario, maybe_write_csv, pct, results_dir,
    start_manifest, table_header, table_row,
};
use ctjam_core::env::EnvParams;
use ctjam_scenario::run::run_sweep;
use ctjam_scenario::ScenarioKind;

fn main() {
    banner(
        "Figs. 6-8 (simulation sweeps)",
        "ST ~0 below L_J=15, ~78% above L_J=50; ST rises with sweep cycle, falls with L_H, hits 100% once lb(L_p)>=11; AH/AP/SH/SP trends per Figs. 7-8",
    );

    let scenario_file = load_scenario("fig06_07_08_sweeps.json");
    let fingerprint = scenario_file.fingerprint(false);
    let mut effective = scenario_file.effective(false);
    let name = effective.name.clone();
    let ScenarioKind::Sweep(ref mut sweep) = effective.kind else {
        eprintln!("fig06_07_08_sweeps.json is not a sweep scenario");
        std::process::exit(2);
    };
    sweep.train_slots = env_usize("CTJAM_TRAIN_SLOTS", sweep.train_slots);
    sweep.eval_slots = env_usize("CTJAM_EVAL_SLOTS", sweep.eval_slots);

    let budget = sweep.budget();
    let mut manifest = start_manifest(
        &name,
        sweep.seed,
        &format!("budget={budget:?}, base={:?}", EnvParams::default()),
    );
    // Fault-plan provenance: figure data is only citable from a
    // fault-free run, and the chaos harness replays any plan from
    // exactly this (rates, seed) pair.
    manifest
        .push_extra("fault_rates", ctjam_fault::FaultRates::zero().describe())
        .push_extra("fault_seed", "none")
        .push_extra("scenario_fingerprint", format!("{fingerprint:016x}"));
    println!(
        "budget: {} training slots, {} evaluation slots per point",
        budget.train_slots, budget.eval_slots
    );

    // Deterministic-replay capture per table (see
    // `ctjam_core::runner::replay_kernel`) is handled by the runner; the
    // trace file names keep their historical `fig06_08_` prefix.
    let tables = run_sweep(sweep, Some(&results_dir()), "fig06_08_");

    let mut last_name = String::new();
    for table in &tables {
        if table.name != last_name {
            println!("\n### Sweep: {} (Fig. 6/7/8 columns)\n", table.name);
            last_name = table.name.clone();
        }
        match &table.trace {
            Some(Ok(path)) => println!("(replay trace {})", path.display()),
            Some(Err(err)) => println!("(replay trace not written: {err})"),
            None => {}
        }
        println!("jammer mode: {:?}", table.mode);
        table_header(&[table.name.as_str(), "ST", "AH", "AP", "SH", "SP"]);
        let mut csv_rows = Vec::new();
        for (x, m) in table.xs.iter().zip(&table.metrics) {
            table_row(&[
                x.clone(),
                pct(m.success_rate()),
                pct(m.fh_adoption_rate()),
                pct(m.pc_adoption_rate()),
                pct(m.fh_success_rate()),
                pct(m.pc_success_rate()),
            ]);
            csv_rows.push(vec![
                x.clone(),
                format!("{}", m.success_rate()),
                format!("{}", m.fh_adoption_rate()),
                format!("{}", m.pc_adoption_rate()),
                format!("{}", m.fh_success_rate()),
                format!("{}", m.pc_success_rate()),
            ]);
        }
        maybe_write_csv(
            &format!("fig06_08_{}_{:?}", table.slug, table.mode),
            &[table.name.as_str(), "st", "ah", "ap", "sh", "sp"],
            &csv_rows,
        );
        println!();
    }

    println!("reference paper anchors: ST(L_J=100) ~ 78%; ST(lb>=11) = 100%; AH falls and AP rises with lb(L_p)");
    finish_manifest(&manifest);
}
