//! Fig. 10: goodput and slot utilization vs Tx slot duration.
//!
//! Thin wrapper over the checked-in scenario
//! `scenarios/fig10_goodput_utilization.json`: one trained DQN defender
//! driven through the field experiment at Tx slot durations of 1–5 s,
//! with a no-jammer reference run per duration. The experiment loop
//! (RNG discipline included) lives in `ctjam_scenario::run::run_field`,
//! so this binary and a `campaign` run of the same file produce
//! bit-identical numbers.
//!
//! Knobs: `CTJAM_FIELD_SLOTS` (default 120) and `CTJAM_TRAIN_SLOTS`
//! (default 12 000) trade fidelity for wall time, as they always did.

use ctjam_bench::{
    banner, env_usize, finish_manifest, load_scenario, pct, start_manifest, table_header, table_row,
};
use ctjam_core::field::FieldConfig;
use ctjam_scenario::run::run_field;
use ctjam_scenario::ScenarioKind;

fn main() {
    banner(
        "Fig. 10 (goodput & utilization vs timeslot duration)",
        "goodput 148->806 pkts/slot and utilization 91.75%->98.58% as the Tx slot grows 1->5 s; ~0.07 s negotiation per slot",
    );

    let scenario_file = load_scenario("fig10_goodput_utilization.json");
    let fingerprint = scenario_file.fingerprint(false);
    let mut effective = scenario_file.effective(false);
    let name = effective.name.clone();
    let ScenarioKind::Field(ref mut field) = effective.kind else {
        eprintln!("fig10_goodput_utilization.json is not a field scenario");
        std::process::exit(2);
    };
    field.slots = env_usize("CTJAM_FIELD_SLOTS", field.slots);
    field.train_slots = env_usize("CTJAM_TRAIN_SLOTS", field.train_slots);

    let slots = field.slots;
    let train_slots = field.train_slots;
    let base = FieldConfig::default();
    let mut manifest = start_manifest(
        &name,
        field.seed,
        &format!("slots={slots}, train_slots={train_slots}, {base:?}"),
    );
    // Fault-plan provenance (chaos-harness replay recipe; see
    // tests/chaos.rs): this figure runs fault-free.
    manifest
        .push_extra("fault_rates", ctjam_fault::FaultRates::zero().describe())
        .push_extra("fault_seed", "none")
        .push_extra("scenario_fingerprint", format!("{fingerprint:016x}"));

    let rows = run_field(field);

    table_header(&[
        "Tx slot (s)",
        "goodput (pkts/slot)",
        "utilization",
        "overhead (s/slot)",
        "no-jammer pkts/slot",
    ]);
    for row in &rows {
        table_row(&[
            format!("{:.0}", row.duration_s),
            format!("{:.0}", row.goodput.packets_per_slot()),
            pct(row.goodput.utilization()),
            format!("{:.3}", row.goodput.overhead_per_slot_s()),
            format!("{:.0}", row.reference.packets_per_slot()),
        ]);
    }

    println!("\npaper anchors: 148 pkts/slot @ 1 s -> 806 @ 5 s; utilization 91.75% -> 98.58%; ~0.07 s negotiation/slot");
    finish_manifest(&manifest);
}
