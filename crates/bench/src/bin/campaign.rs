//! Campaign engine: runs a directory of scenario files and emits one
//! deterministic static HTML report.
//!
//! ```text
//! campaign [--dir scenarios/] [--out results/campaign] [--threads N]
//!          [--resume] [--quick]
//! ```
//!
//! Every `*.json` file in `--dir` (sorted by name) is parsed with
//! `ctjam-scenario`, run through the matching deterministic runner, and
//! summarized into `<out>/report.html` — tables plus inline SVG plots,
//! byte-for-byte identical across runs and worker counts. Each scenario
//! also gets a run manifest in `--out` carrying its canonical
//! fingerprint and source path.
//!
//! `campaign` scenarios checkpoint per completed policy into
//! `<out>/<name>.progress.ckpt`; `--resume` reconstitutes completed
//! policies bit-exactly and rejects a checkpoint whose fingerprint does
//! not match the (effective) scenario file. `--quick` applies each
//! scenario's `quick` overrides — quick runs fingerprint differently,
//! so a quick checkpoint can never resume a full campaign.

use ctjam_bench::{results_dir, scenario_dir, start_manifest};
use ctjam_scenario::report::Report;
use ctjam_scenario::run::{
    run_campaign, run_field, run_link_sweep, run_sweep, CampaignOptions, CampaignPolicyRun,
    SweepTableRun,
};
use ctjam_scenario::{Campaign, Field, LinkSweep, Scenario, ScenarioKind, Sweep};
use std::path::PathBuf;
use std::process::exit;

fn usage() -> ! {
    eprintln!(
        "usage: campaign [--dir DIR] [--out DIR] [--threads N] [--resume] [--quick]\n\
         \n\
         --dir DIR     scenario directory (default: scenarios/ or $CTJAM_SCENARIO_DIR)\n\
         --out DIR     output directory (default: results/campaign)\n\
         --threads N   fleet worker threads (default: fleet heuristic)\n\
         --resume      resume campaign scenarios from their checkpoints\n\
         --quick       apply each scenario's quick-mode overrides"
    );
    exit(2)
}

struct Args {
    dir: PathBuf,
    out: PathBuf,
    threads: Option<usize>,
    resume: bool,
    quick: bool,
}

fn parse_args() -> Args {
    let mut parsed = Args {
        dir: scenario_dir(),
        out: results_dir().join("campaign"),
        threads: None,
        resume: false,
        quick: false,
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |flag: &str| match args.next() {
            Some(v) => v,
            None => {
                eprintln!("{flag} needs a value");
                usage()
            }
        };
        match arg.as_str() {
            "--dir" => parsed.dir = PathBuf::from(value("--dir")),
            "--out" => parsed.out = PathBuf::from(value("--out")),
            "--threads" => match value("--threads").parse() {
                Ok(n) if n > 0 => parsed.threads = Some(n),
                _ => {
                    eprintln!("--threads needs a positive integer");
                    usage()
                }
            },
            "--resume" => parsed.resume = true,
            "--quick" => parsed.quick = true,
            _ => {
                eprintln!("unknown argument: {arg}");
                usage()
            }
        }
    }
    parsed
}

fn main() {
    let args = parse_args();
    let mut files: Vec<PathBuf> = match std::fs::read_dir(&args.dir) {
        Ok(entries) => entries
            .filter_map(Result::ok)
            .map(|e| e.path())
            .filter(|p| p.extension().is_some_and(|ext| ext == "json"))
            .collect(),
        Err(err) => {
            eprintln!(
                "cannot read scenario directory {}: {err}",
                args.dir.display()
            );
            exit(2)
        }
    };
    files.sort();
    if files.is_empty() {
        eprintln!("no *.json scenario files in {}", args.dir.display());
        exit(2)
    }
    if let Err(err) = std::fs::create_dir_all(&args.out) {
        eprintln!(
            "cannot create output directory {}: {err}",
            args.out.display()
        );
        exit(2)
    }

    let mut report = Report::new("CTJam campaign report");
    for path in &files {
        let scenario = match Scenario::load(path) {
            Ok(s) => s,
            Err(err) => {
                eprintln!("cannot load scenario {}: {err}", path.display());
                exit(2)
            }
        };
        let effective = scenario.effective(args.quick);
        let fingerprint = scenario.fingerprint(args.quick);
        let file_name = path
            .file_name()
            .map(|n| n.to_string_lossy().into_owned())
            .unwrap_or_default();
        println!(
            "running {file_name} ({}) fingerprint {fingerprint:016x}",
            effective.kind_tag()
        );

        let mut manifest = start_manifest(
            &format!("campaign_{}", effective.name),
            scenario_seed(&effective),
            &effective.to_json().to_string_compact(),
        );
        manifest
            .push_extra("scenario_fingerprint", format!("{fingerprint:016x}"))
            .push_extra("scenario_path", file_name.clone())
            .push_extra("scenario_kind", effective.kind_tag())
            .push_extra("quick_mode", if args.quick { "true" } else { "false" });

        report.section(&format!("{} ({})", effective.name, effective.kind_tag()));
        report.kv_table(&[
            ("file".into(), file_name.clone()),
            ("fingerprint".into(), format!("{fingerprint:016x}")),
            ("seed".into(), format!("{}", scenario_seed(&effective))),
            ("quick mode".into(), format!("{}", args.quick)),
        ]);

        match &effective.kind {
            ScenarioKind::LinkSweep(sweep) => report_link_sweep(&mut report, sweep),
            ScenarioKind::Sweep(sweep) => report_sweep(&mut report, sweep),
            ScenarioKind::Field(field) => report_field(&mut report, field),
            ScenarioKind::Campaign(campaign) => {
                let options = CampaignOptions {
                    threads: args.threads,
                    checkpoint: Some(args.out.join(format!("{}.progress.ckpt", effective.name))),
                    resume: args.resume,
                };
                match run_campaign(&effective.name, campaign, fingerprint, &options) {
                    Ok(runs) => report_campaign(&mut report, campaign, &runs),
                    Err(err) => {
                        eprintln!("campaign {} failed: {err}", effective.name);
                        exit(3)
                    }
                }
            }
        }

        match manifest.write(&args.out) {
            Ok(path) => println!("(manifest {})", path.display()),
            Err(err) => {
                eprintln!("cannot write manifest: {err}");
                exit(2)
            }
        }
    }

    let report_path = args.out.join("report.html");
    if let Err(err) = std::fs::write(&report_path, report.to_html()) {
        eprintln!("cannot write report {}: {err}", report_path.display());
        exit(2)
    }
    println!("(report {})", report_path.display());
}

/// The headline seed of a scenario, for the manifest and report header.
fn scenario_seed(scenario: &Scenario) -> u64 {
    match &scenario.kind {
        ScenarioKind::LinkSweep(s) => s.seed,
        ScenarioKind::Sweep(s) => s.seed,
        ScenarioKind::Field(s) => s.seed,
        ScenarioKind::Campaign(s) => s.base_seed,
    }
}

fn report_link_sweep(report: &mut Report, sweep: &LinkSweep) {
    let run = run_link_sweep(sweep);
    report.paragraph(&format!(
        "Clean link: PER {:.4}, goodput {:.1} kbps ({} Monte-Carlo draws per point).",
        run.clean.per,
        run.clean.goodput_bps / 1000.0,
        sweep.draws
    ));

    let x_labels: Vec<String> = run
        .rows
        .iter()
        .map(|r| format!("{:.0}", r.distance_m))
        .collect();
    let per_series: Vec<(String, Vec<f64>)> = sweep
        .jammers
        .iter()
        .enumerate()
        .map(|(j, name)| {
            (
                name.clone(),
                run.rows.iter().map(|r| r.reports[j].per).collect(),
            )
        })
        .collect();
    let goodput_series: Vec<(String, Vec<f64>)> = sweep
        .jammers
        .iter()
        .enumerate()
        .map(|(j, name)| {
            (
                name.clone(),
                run.rows
                    .iter()
                    .map(|r| r.reports[j].goodput_bps / 1000.0)
                    .collect(),
            )
        })
        .collect();
    report.line_chart("PER vs jammer distance (m)", &x_labels, &per_series);
    report.line_chart(
        "Goodput (kbps) vs jammer distance (m)",
        &x_labels,
        &goodput_series,
    );

    let mut headers = vec!["distance (m)".to_string()];
    for name in &sweep.jammers {
        headers.push(format!("PER {name}"));
        headers.push(format!("kbps {name}"));
    }
    let header_refs: Vec<&str> = headers.iter().map(String::as_str).collect();
    let rows: Vec<Vec<String>> = run
        .rows
        .iter()
        .map(|r| {
            let mut row = vec![format!("{:.0}", r.distance_m)];
            for rep in &r.reports {
                row.push(format!("{:.4}", rep.per));
                row.push(format!("{:.1}", rep.goodput_bps / 1000.0));
            }
            row
        })
        .collect();
    report.table(&header_refs, &rows);
}

fn report_sweep(report: &mut Report, sweep: &Sweep) {
    // No replay-trace capture here: traces belong to the figure bins.
    let tables = run_sweep(sweep, None, "");
    let mut i = 0;
    while i < tables.len() {
        // run_sweep emits axes outer, modes inner: consecutive tables
        // with the same axis name are that axis's jammer modes.
        let axis = &tables[i].name;
        let group: Vec<&SweepTableRun> =
            tables[i..].iter().take_while(|t| &t.name == axis).collect();
        let st_series: Vec<(String, Vec<f64>)> = group
            .iter()
            .map(|t| {
                (
                    format!("ST {:?}", t.mode),
                    t.metrics.iter().map(|m| m.success_rate()).collect(),
                )
            })
            .collect();
        report.line_chart(
            &format!("Success rate (ST) vs {axis}"),
            &group[0].xs,
            &st_series,
        );
        for table in &group {
            let rows: Vec<Vec<String>> = table
                .xs
                .iter()
                .zip(&table.metrics)
                .map(|(x, m)| {
                    vec![
                        x.clone(),
                        format!("{:.3}", m.success_rate()),
                        format!("{:.3}", m.fh_adoption_rate()),
                        format!("{:.3}", m.pc_adoption_rate()),
                        format!("{:.3}", m.fh_success_rate()),
                        format!("{:.3}", m.pc_success_rate()),
                    ]
                })
                .collect();
            report.paragraph(&format!("{axis} — jammer mode {:?}", table.mode));
            report.table(&[axis.as_str(), "ST", "AH", "AP", "SH", "SP"], &rows);
        }
        i += group.len();
    }
}

fn report_field(report: &mut Report, field: &Field) {
    let rows = run_field(field);
    let x_labels: Vec<String> = rows
        .iter()
        .map(|r| format!("{:.0}", r.duration_s))
        .collect();
    report.line_chart(
        "Goodput (pkts/slot) vs Tx slot duration (s)",
        &x_labels,
        &[
            (
                "defended, jammed".into(),
                rows.iter().map(|r| r.goodput.packets_per_slot()).collect(),
            ),
            (
                "no jammer".into(),
                rows.iter()
                    .map(|r| r.reference.packets_per_slot())
                    .collect(),
            ),
        ],
    );
    report.line_chart(
        "Slot utilization vs Tx slot duration (s)",
        &x_labels,
        &[(
            "utilization".into(),
            rows.iter().map(|r| r.goodput.utilization()).collect(),
        )],
    );
    let table_rows: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                format!("{:.0}", r.duration_s),
                format!("{:.0}", r.goodput.packets_per_slot()),
                format!("{:.4}", r.goodput.utilization()),
                format!("{:.3}", r.goodput.overhead_per_slot_s()),
                format!("{:.0}", r.reference.packets_per_slot()),
            ]
        })
        .collect();
    report.table(
        &[
            "Tx slot (s)",
            "goodput (pkts/slot)",
            "utilization",
            "overhead (s/slot)",
            "no-jammer pkts/slot",
        ],
        &table_rows,
    );
}

fn report_campaign(report: &mut Report, campaign: &Campaign, runs: &[CampaignPolicyRun]) {
    let seeds = campaign.seeds.len().max(1);
    // Adversary × policy cross-table of mean success rate: episodes run
    // points-outer seeds-inner, so adversary a owns the goodput-vector
    // block [a*seeds, (a+1)*seeds).
    let cells: Vec<Vec<String>> = campaign
        .adversaries
        .iter()
        .enumerate()
        .map(|(a, _)| {
            runs.iter()
                .map(|run| {
                    let gv = run.result.goodput_vector();
                    let block = &gv[a * seeds..(a + 1) * seeds];
                    let mean = block.iter().sum::<f64>() / block.len() as f64;
                    format!("{:.1}%", 100.0 * mean)
                })
                .collect()
        })
        .collect();
    report.paragraph(&format!(
        "{} adversaries x {} policies, {} seed(s) per cell, {} slots per episode.",
        campaign.adversaries.len(),
        runs.len(),
        seeds,
        campaign.slots
    ));
    report.matrix(
        "adversary \\ policy",
        &runs.iter().map(|r| r.policy.clone()).collect::<Vec<_>>(),
        &campaign.adversaries,
        &cells,
    );
    for run in runs {
        report.histogram(
            &format!("Reward distribution — {}", run.policy),
            &run.result.telemetry.reward_hist,
        );
    }
}
