//! Self-play league driver: alternates attacker-DQN and defender-DQN
//! training epochs, then scores a defender × adversary goodput
//! cross-table over the whole zoo with the fleet engine and writes
//! `league_crosstable.json` (schema ctjam-league/v1) plus a
//! deterministic `league_report.html` into `--out-dir` (default:
//! `results/`, or `$CTJAM_CSV_DIR`).
//!
//! Phase 1 (self-play): a learning [`ctjam_core::adversary::DqnJammer`]
//! and a learning DQN defender take turns — each epoch freezes one side
//! and lets the other adapt, threading the attacker's learned state
//! through episodes via `CompetitionEnv::into_adversary`. Phase 2
//! (cross-table): every defender policy (baselines, the decoy-wrapped
//! random hopper, and the league-trained network as a shared frozen
//! policy) is evaluated by `ctjam-fleet` against every zoo adversary,
//! at 1, 2 and 8 workers, asserting the goodput vector is bit-exact
//! across all three before a single row is recorded.
//!
//! Quick mode (`--quick`, the CI league-smoke stage) shrinks both
//! phases to seconds. Knobs: `CTJAM_LEAGUE_EPOCHS` (self-play
//! rounds), `CTJAM_LEAGUE_SLOTS` (slots per training epoch),
//! `CTJAM_LEAGUE_EVAL_SLOTS` (slots per cross-table episode),
//! `CTJAM_LEAGUE_SEEDS` (replicates per cell).

use ctjam_bench::{env_usize, results_dir, table_header, table_row};
use ctjam_core::adaptive::PredictorKind;
use ctjam_core::adversary::AdversaryConfig;
use ctjam_core::defender::DqnDefender;
use ctjam_core::env::{CompetitionEnv, EnvParams};
use ctjam_core::runner::RunBuilder;
use ctjam_dqn::policy::GreedyPolicy;
use ctjam_fleet::{CampaignPolicy, CampaignSpec, Fleet};
use ctjam_scenario::report::Report;
use ctjam_telemetry::{JsonValue, RunManifest};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::path::PathBuf;
use std::sync::Arc;

/// Base seed for every RNG in this binary (recorded in the manifest).
const SEED: u64 = 0x001E_A60E;

/// Schema tag checked by the `ci.sh` league-smoke stage.
const SCHEMA: &str = "ctjam-league/v1";

/// Worker counts the cross-table is pinned across.
const WORKERS: [usize; 3] = [1, 2, 8];

/// Compile-time SIMD features — evidence that `target-cpu=native` took
/// effect for this build.
fn target_cpu_features() -> String {
    let mut feats: Vec<&str> = Vec::new();
    if cfg!(target_feature = "sse4.2") {
        feats.push("sse4.2");
    }
    if cfg!(target_feature = "avx") {
        feats.push("avx");
    }
    if cfg!(target_feature = "avx2") {
        feats.push("avx2");
    }
    if cfg!(target_feature = "fma") {
        feats.push("fma");
    }
    if cfg!(target_feature = "avx512f") {
        feats.push("avx512f");
    }
    if cfg!(target_feature = "neon") {
        feats.push("neon");
    }
    if feats.is_empty() {
        "baseline".to_string()
    } else {
        feats.join("+")
    }
}

/// Parses the flags this binary takes: `--out-dir DIR` (default:
/// [`results_dir`]) and `--quick`.
fn parse_args() -> (PathBuf, bool) {
    let mut out = results_dir();
    let mut quick = false;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--out-dir" => match args.next() {
                Some(dir) => out = PathBuf::from(dir),
                None => {
                    eprintln!("--out-dir needs a value");
                    std::process::exit(2)
                }
            },
            "--quick" => quick = true,
            _ => {
                eprintln!("usage: league [--out-dir DIR] [--quick]");
                std::process::exit(2)
            }
        }
    }
    (out, quick)
}

fn main() {
    let (out_dir, quick) = parse_args();
    let epochs = env_usize("CTJAM_LEAGUE_EPOCHS", if quick { 2 } else { 6 });
    let epoch_slots = env_usize("CTJAM_LEAGUE_SLOTS", if quick { 600 } else { 6_000 });
    let eval_slots = env_usize("CTJAM_LEAGUE_EVAL_SLOTS", if quick { 120 } else { 2_000 });
    let replicates = env_usize("CTJAM_LEAGUE_SEEDS", if quick { 2 } else { 4 });

    // ----- Phase 1: alternating self-play ------------------------------
    let params = EnvParams {
        adversary: AdversaryConfig::dqn(),
        ..EnvParams::default()
    };
    let mut rng = StdRng::seed_from_u64(SEED);
    let mut defender = if quick {
        DqnDefender::small_for_tests(&params, &mut rng)
    } else {
        DqnDefender::paper_default(&params, &mut rng)
    };
    let mut attacker = params.adversary.build(&mut rng);

    let mut manifest = RunManifest::new("league_crosstable", SEED, &format!("{params:?}"));
    manifest.push_extra("schema", SCHEMA);
    manifest.push_extra("target_arch", std::env::consts::ARCH);
    manifest.push_extra("target_cpu_features", target_cpu_features());
    manifest.push_extra(
        "threads_available",
        ctjam_core::pool::available_threads() as f64,
    );
    manifest.push_extra("quick_mode", JsonValue::from(quick));
    manifest.push_extra("league_epochs", epochs as f64);
    manifest.push_extra("epoch_slots", epoch_slots as f64);
    manifest.push_extra("eval_slots", eval_slots as f64);
    manifest.push_extra("replicates", replicates as f64);

    println!("self-play league: {epochs} epoch pair(s) × {epoch_slots} slots");
    table_header(&["epoch", "phase", "defender ST", "attacker hit rate"]);
    let mut epoch_log = Vec::new();
    let mut report_selfplay: Vec<Vec<String>> = Vec::new();
    for epoch in 0..epochs {
        // Attacker epoch: the defender is frozen, the DQN jammer learns.
        defender.set_training(false);
        attacker.set_learning(true);
        let mut env = CompetitionEnv::with_adversary(params.clone(), attacker, &mut rng);
        let atk = RunBuilder::new(&params).run_in(&mut env, &mut defender, epoch_slots, &mut rng);
        let atk_hit = env.adversary_probe().hit_rate();
        attacker = env.into_adversary();
        let atk_cells = vec![
            format!("{epoch}"),
            "attacker".to_string(),
            format!("{:.3}", atk.metrics.success_rate()),
            format!("{atk_hit:.3}"),
        ];
        table_row(&atk_cells);
        report_selfplay.push(atk_cells);

        // Defender epoch: the attacker is frozen, the defender learns.
        attacker.set_learning(false);
        defender.set_training(true);
        let mut env = CompetitionEnv::with_adversary(params.clone(), attacker, &mut rng);
        let def = RunBuilder::new(&params).run_in(&mut env, &mut defender, epoch_slots, &mut rng);
        let def_hit = env.adversary_probe().hit_rate();
        attacker = env.into_adversary();
        let def_cells = vec![
            format!("{epoch}"),
            "defender".to_string(),
            format!("{:.3}", def.metrics.success_rate()),
            format!("{def_hit:.3}"),
        ];
        table_row(&def_cells);
        report_selfplay.push(def_cells);

        let mut entry = JsonValue::object();
        entry.set("epoch", epoch as f64);
        entry.set("attacker_phase_defender_st", atk.metrics.success_rate());
        entry.set("attacker_phase_hit_rate", atk_hit);
        entry.set("defender_phase_defender_st", def.metrics.success_rate());
        entry.set("defender_phase_hit_rate", def_hit);
        epoch_log.push(entry);
    }
    manifest.push_extra("self_play", JsonValue::Arr(epoch_log));

    defender.set_training(false);
    let league_policy = Arc::new(GreedyPolicy::from_agent(defender.agent()));

    // ----- Phase 2: defender × adversary cross-table -------------------
    let base = EnvParams::default();
    let adversaries = [
        AdversaryConfig::none(),
        AdversaryConfig::sweep(),
        AdversaryConfig::reactive(8.0),
        AdversaryConfig::pursuit(),
        AdversaryConfig::reactive(8.0).energy_budget(40.0, 2.0),
        AdversaryConfig::adaptive(PredictorKind::Markov),
        AdversaryConfig::dqn(),
    ];
    let labels: Vec<String> = adversaries.iter().map(|a| a.label()).collect();
    let points: Vec<EnvParams> = adversaries
        .iter()
        .map(|a| EnvParams {
            adversary: a.clone(),
            ..base.clone()
        })
        .collect();
    let seeds: Vec<u64> = (0..replicates as u64).collect();
    let defenders: Vec<(&str, CampaignPolicy)> = vec![
        ("no-defense", CampaignPolicy::NoDefense),
        ("passive-fh", CampaignPolicy::PassiveFh),
        ("random-fh", CampaignPolicy::RandomFh),
        ("random-fh+decoys", CampaignPolicy::DecoyRandomFh(0.5)),
        (
            "league-dqn",
            CampaignPolicy::SharedGreedy(Arc::clone(&league_policy)),
        ),
    ];
    let defender_names: Vec<String> = defenders.iter().map(|(n, _)| n.to_string()).collect();

    println!();
    println!(
        "cross-table: {} defenders × {} adversaries × {replicates} seed(s) × {eval_slots} slots, \
         workers {WORKERS:?}",
        defenders.len(),
        adversaries.len()
    );
    let mut header: Vec<String> = vec!["defender \\ adversary".into()];
    header.extend(labels.iter().cloned());
    table_header(&header.iter().map(String::as_str).collect::<Vec<_>>());

    let mut rows = Vec::new();
    let mut matrix_cells: Vec<Vec<String>> = Vec::new();
    for (name, policy) in defenders {
        let spec = CampaignSpec {
            name: format!("league:{name}"),
            points: points.clone(),
            seeds: seeds.clone(),
            policy,
            slots: eval_slots,
            kernel: false,
            base_seed: SEED,
            faults: None,
        };
        // The determinism pin: the full grid must produce bit-identical
        // goodput at every worker count before the row is recorded.
        let mut reference: Option<(Vec<u64>, Vec<f64>)> = None;
        for &workers in &WORKERS {
            let result = Fleet::new().threads(workers).run(&spec);
            let goodput = result.goodput_vector();
            let bits: Vec<u64> = goodput.iter().map(|g| g.to_bits()).collect();
            match &reference {
                None => reference = Some((bits, goodput)),
                Some((seen, _)) => assert_eq!(
                    seen, &bits,
                    "goodput for {name} changed between worker counts"
                ),
            }
        }
        let (_, goodput) = reference.expect("at least one worker count ran");
        let per_adversary: Vec<f64> = (0..points.len())
            .map(|p| {
                let cell = &goodput[p * seeds.len()..(p + 1) * seeds.len()];
                cell.iter().sum::<f64>() / cell.len() as f64
            })
            .collect();

        let mut cells: Vec<String> = vec![name.to_string()];
        cells.extend(per_adversary.iter().map(|g| format!("{g:.3}")));
        table_row(&cells);
        matrix_cells.push(per_adversary.iter().map(|g| format!("{g:.3}")).collect());

        let mut row = JsonValue::object();
        row.set("defender", name);
        row.set(
            "goodput",
            JsonValue::Arr(per_adversary.iter().map(|&g| JsonValue::from(g)).collect()),
        );
        rows.push(row);
    }

    manifest.push_extra(
        "defenders",
        JsonValue::Arr(
            defender_names
                .iter()
                .cloned()
                .map(JsonValue::from)
                .collect(),
        ),
    );
    manifest.push_extra(
        "adversaries",
        JsonValue::Arr(labels.iter().cloned().map(JsonValue::from).collect()),
    );
    manifest.push_extra("rows", JsonValue::Arr(rows));
    manifest.push_extra(
        "workers_checked",
        JsonValue::Arr(WORKERS.iter().map(|&w| JsonValue::from(w)).collect()),
    );
    manifest.push_extra("bit_exact_workers", true);

    std::fs::create_dir_all(&out_dir).expect("create league output dir");
    let path = out_dir.join("league_crosstable.json");
    std::fs::write(&path, manifest.to_json().to_string_pretty()).expect("write league manifest");
    println!("(wrote {})", path.display());

    // Deterministic HTML companion: the same cross-table and self-play
    // trajectory, rendered through the scenario report module.
    let mut report = Report::new("CTJam adversary league");
    report.kv_table(&[
        ("schema".into(), SCHEMA.to_string()),
        ("seed".into(), format!("{SEED}")),
        ("self-play epochs".into(), format!("{epochs}")),
        ("slots per epoch".into(), format!("{epoch_slots}")),
        ("eval slots".into(), format!("{eval_slots}")),
        ("seeds per cell".into(), format!("{replicates}")),
        ("workers checked".into(), format!("{WORKERS:?}")),
    ]);
    report.section("Self-play trajectory");
    report.table(
        &["epoch", "phase", "defender ST", "attacker hit rate"],
        &report_selfplay,
    );
    report.section("Defender x adversary goodput cross-table");
    report.matrix(
        "defender \\ adversary",
        &labels,
        &defender_names,
        &matrix_cells,
    );
    let report_path = out_dir.join("league_report.html");
    std::fs::write(&report_path, report.to_html()).expect("write league report");
    println!("(wrote {})", report_path.display());
}
