//! One benchmark for the CTJam reproduction, the fleet campaign engine
//! and the policy server.
//!
//! ```text
//! benchmark --workload <name> [--seed <u64>] [--seconds <n>] [--trace [0|1]] [--quick] [--out <dir>]
//! ```
//!
//! Run from the repository root (the workloads read `scenarios/`). An
//! untraced run prints every end-to-end metric as `name value unit`; a
//! traced run prints every per-layer metric the same way. Both write a
//! result file to `--out` (default `benchmark/out`), print the output
//! digests, and end with a one-line JSON verdict. The exit code is
//! non-zero when any output check fails. See `README.md` beside this
//! file for the workloads, metrics and bounds.

mod fleet;
mod report;
mod repro;
mod serve;
mod stats;
mod sys;
mod trace;

use report::{Metric, RunResult};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

/// The seed whose output digests are pinned in `pins.json`. It is the
/// base seed of `scenarios/fig06_07_08_sweeps.json`, so the max-power
/// half of a default `repro_sweep` run is that file's L_J table.
const DEFAULT_SEED: u64 = 51105;
const DEFAULT_SECONDS: u64 = 16;
/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 5;
/// Bounds of the traced coverage ratios.
const COVERAGE: (f64, f64) = (0.9, 1.1);
const PINS: &str = include_str!("../pins.json");

/// End-to-end metrics, as listed in `BENCHMARK.json`.
const END_TO_END: [(&str, &str); 3] = [
    ("setup_s", "s"),
    ("throughput_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics, as listed in `BENCHMARK.json`.
const PER_LAYER: [(&str, &str); 63] = [
    ("runner.train_slot_ns", "ns"),
    ("runner.eval_slot_ns", "ns"),
    ("env.step_ns", "ns"),
    ("defender.decide_ns", "ns"),
    ("defender.feedback_ns", "ns"),
    ("defender.feedback_train_ns", "ns"),
    ("dqn.train_steps", "count"),
    ("dqn.target_syncs", "count"),
    ("dqn.train_step_ns", "ns"),
    ("replay.sample_into_ns", "ns"),
    ("nn.online_forward_ns", "ns"),
    ("nn.target_forward_ns", "ns"),
    ("nn.backward_ns", "ns"),
    ("nn.adam_step_ns", "ns"),
    ("nn.param_copy_ns", "ns"),
    ("dqn.train_step_coverage", "ratio"),
    ("runner.coverage", "ratio"),
    ("trace_overhead_frac", "ratio"),
    ("adversary.jam_ns.none", "ns"),
    ("adversary.jam_ns.sweep", "ns"),
    ("adversary.jam_ns.sweep-rnd", "ns"),
    ("adversary.jam_ns.reactive", "ns"),
    ("adversary.jam_ns.pursuit", "ns"),
    ("adversary.jam_ns.energy", "ns"),
    ("adversary.jam_ns.adaptive", "ns"),
    ("env.step_self_ns", "ns"),
    ("fleet.episode_setup_ns", "ns"),
    ("runner.slot_ns", "ns"),
    ("fleet.parallel_efficiency", "ratio"),
    ("fleet.checkpoint_save_ms", "ms"),
    ("fleet.checkpoint_load_ms", "ms"),
    ("telemetry.shard_merge_us", "us"),
    ("protocol.encode_ns", "ns"),
    ("protocol.decode_ns", "ns"),
    ("server.latency_p50_us", "us"),
    ("server.latency_p99_us", "us"),
    ("batcher.occupancy", "req/batch"),
    ("batcher.batches", "count"),
    ("batcher.queue_depth_p99", "count"),
    ("policy.forward_batch_ns", "ns"),
    ("server.forward_busy_frac", "ratio"),
    ("server.slo_rejections", "count"),
    ("server.busy_rejections", "count"),
    ("server.reloads_ok", "count"),
    ("generator.lateness_p99_us", "us"),
    ("generator.backlog_end", "count"),
    ("open.20000.p50_us", "us"),
    ("open.20000.p99_us", "us"),
    ("open.20000.attainment", "ratio"),
    ("open.40000.p50_us", "us"),
    ("open.40000.p99_us", "us"),
    ("open.40000.attainment", "ratio"),
    ("open.80000.p50_us", "us"),
    ("open.80000.p99_us", "us"),
    ("open.80000.attainment", "ratio"),
    ("open.160000.p50_us", "us"),
    ("open.160000.p99_us", "us"),
    ("open.160000.attainment", "ratio"),
    ("open.320000.p50_us", "us"),
    ("open.320000.p99_us", "us"),
    ("open.320000.attainment", "ratio"),
    ("open.max_rate_rps", "1/s"),
    ("open.slo_attainment", "ratio"),
];

/// The workloads, in `BENCHMARK.json` order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    ReproSweep,
    FleetZoo,
    ServeClosed,
    ServeOpen,
}

impl Workload {
    const ALL: [Workload; 4] = [
        Workload::ReproSweep,
        Workload::FleetZoo,
        Workload::ServeClosed,
        Workload::ServeOpen,
    ];

    fn name(self) -> &'static str {
        match self {
            Workload::ReproSweep => "repro_sweep",
            Workload::FleetZoo => "fleet_zoo",
            Workload::ServeClosed => "serve_closed",
            Workload::ServeOpen => "serve_open",
        }
    }

    fn run(self, ctx: &Ctx, out: &mut Outcome) {
        match (self, ctx.trace) {
            (Workload::ReproSweep, false) => repro::run(ctx, out),
            (Workload::ReproSweep, true) => repro::run_traced(ctx, out),
            (Workload::FleetZoo, _) => fleet::run(ctx, out),
            (Workload::ServeClosed, _) => serve::run_closed(ctx, out),
            (Workload::ServeOpen, _) => serve::run_open(ctx, out),
        }
    }
}

/// How a run was asked for.
pub struct Ctx {
    pub seed: u64,
    pub seconds: u64,
    pub quick: bool,
    pub trace: bool,
    /// Worker threads, connections and server shards: one per hardware
    /// thread.
    pub threads: usize,
    pub out: PathBuf,
    /// Process start, the origin of the first set-up's timing.
    pub start: Instant,
}

/// What a workload measured and checked.
#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub digests: Vec<(String, String)>,
    pub check_failures: Vec<String>,
    pub setup_s: f64,
    pub throughput_per_s: f64,
    pub peak_rss_mb: f64,
    pub layers: BTreeMap<String, f64>,
    /// The quick traced run each layer the workload does not exercise
    /// was measured by, keyed by metric name.
    pub layer_sources: BTreeMap<String, String>,
    /// Traced sections, written as JSON lines at exit.
    pub traces: Vec<(String, trace::Trace)>,
    pub config: String,
}

impl Outcome {
    /// Records a failed check unless `ok`.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.fail(what());
        }
    }

    pub fn fail(&mut self, what: String) {
        eprintln!("check failed: {what}");
        self.check_failures.push(what);
    }
}

/// Runs `setup` [`SETUP_REPS`] times and keeps the last result,
/// disposing of the others. `Outcome::setup_s` becomes the median
/// duration, the first one counted from process start. Every repetition
/// must produce the same `fingerprint`.
pub fn repeat_setup<T>(
    ctx: &Ctx,
    out: &mut Outcome,
    mut setup: impl FnMut() -> T,
    fingerprint: impl Fn(&T) -> String,
    mut dispose: impl FnMut(T),
) -> T {
    let mut durations = Vec::with_capacity(SETUP_REPS);
    let mut first_print = None;
    let mut kept = None;
    for rep in 0..SETUP_REPS {
        let start = if rep == 0 { ctx.start } else { Instant::now() };
        let value = setup();
        durations.push(start.elapsed().as_secs_f64());
        let print = fingerprint(&value);
        match &first_print {
            None => first_print = Some(print),
            Some(first) => out.check(*first == print, || {
                "repeated set-ups produce identical inputs".into()
            }),
        }
        if let Some(previous) = kept.replace(value) {
            dispose(previous);
        }
    }
    out.setup_s = stats::median(&durations);
    kept.expect("at least one set-up")
}

fn usage() -> String {
    let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    format!(
        "usage: benchmark --workload <{}> [--seed <u64>] [--seconds <n>] [--trace [0|1]] [--quick] [--out <dir>]",
        names.join("|")
    )
}

fn parse_args(args: &[String]) -> Result<(Workload, Ctx), String> {
    let mut workload = None;
    let mut ctx = Ctx {
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        quick: false,
        trace: false,
        threads: sys::nproc(),
        out: PathBuf::from("benchmark/out"),
        start: Instant::now(),
    };
    let mut i = 0;
    while i < args.len() {
        let value = |i: usize| {
            args.get(i + 1)
                .ok_or_else(|| format!("{} needs a value", args[i]))
        };
        match args[i].as_str() {
            "--workload" => {
                let name = value(i)?;
                workload = Some(
                    *Workload::ALL
                        .iter()
                        .find(|w| w.name() == name)
                        .ok_or_else(|| format!("unknown workload {name:?}"))?,
                );
                i += 1;
            }
            "--seed" => {
                ctx.seed = value(i)?
                    .parse()
                    .map_err(|_| "--seed takes an unsigned integer".to_string())?;
                i += 1;
            }
            "--seconds" => {
                ctx.seconds = value(i)?
                    .parse()
                    .map_err(|_| "--seconds takes a positive integer".to_string())?;
                if ctx.seconds == 0 || ctx.seconds > 600 {
                    return Err("--seconds must lie in 1..=600".into());
                }
                i += 1;
            }
            "--trace" => match args.get(i + 1).map(String::as_str) {
                Some("0") => i += 1,
                Some("1") => {
                    ctx.trace = true;
                    i += 1;
                }
                _ => ctx.trace = true,
            },
            "--quick" => ctx.quick = true,
            "--out" => {
                ctx.out = PathBuf::from(value(i)?);
                i += 1;
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
        i += 1;
    }
    let workload = workload.ok_or("--workload is required")?;
    // Connections and shards need at least two to exercise sharding.
    ctx.threads = ctx.threads.max(2);
    Ok((workload, ctx))
}

/// The pinned digest for this run, if the run is one the pins cover:
/// the default seed at the default length, or in quick mode.
fn pinned(workload: Workload, ctx: &Ctx) -> Result<Option<String>, String> {
    let pins = ctjam_scenario::json::parse_str(PINS).map_err(|e| format!("pins.json: {e}"))?;
    let number = |key: &str| match pins.get(key) {
        Some(ctjam_telemetry::JsonValue::Num(n)) => Some(*n),
        _ => None,
    };
    let applies = number("seed") == Some(ctx.seed as f64)
        && (ctx.quick || number("seconds") == Some(ctx.seconds as f64));
    if !applies {
        return Ok(None);
    }
    let key = format!(
        "{}{}",
        workload.name(),
        if ctx.quick { ".quick" } else { "" }
    );
    match pins.get("digests").and_then(|d| d.get(&key)) {
        Some(ctjam_telemetry::JsonValue::Str(s)) => Ok(Some(s.clone())),
        _ => Err(format!("pins.json has no digest for {key}")),
    }
}

/// A traced run: the workload's own per-layer metrics, then those of
/// the layers it does not exercise, measured by quick traced runs of the
/// workloads that do and tagged with that source.
fn run_traced(workload: Workload, ctx: &Ctx, out: &mut Outcome) {
    workload.run(ctx, out);
    let census: &[Workload] = match workload {
        Workload::ReproSweep => &[Workload::FleetZoo, Workload::ServeOpen],
        Workload::FleetZoo => &[Workload::ReproSweep, Workload::ServeOpen],
        Workload::ServeClosed => &[
            Workload::ReproSweep,
            Workload::FleetZoo,
            Workload::ServeOpen,
        ],
        Workload::ServeOpen => &[Workload::ReproSweep, Workload::FleetZoo],
    };
    for &other in census {
        let quick = Ctx {
            quick: true,
            out: ctx.out.clone(),
            start: Instant::now(),
            ..*ctx
        };
        let mut o = Outcome::default();
        other.run(&quick, &mut o);
        for f in o.check_failures {
            out.fail(format!("{} (quick census): {f}", other.name()));
        }
        for (name, value) in o.layers {
            if !out.layers.contains_key(&name) {
                out.layer_sources
                    .insert(name.clone(), format!("{} --quick", other.name()));
                out.layers.insert(name, value);
            }
        }
        out.traces.extend(
            o.traces
                .into_iter()
                .map(|(s, t)| (format!("{}.quick.{s}", other.name()), t)),
        );
    }
    for name in ["runner.coverage", "dqn.train_step_coverage"] {
        let v = out.layers.get(name).copied().unwrap_or(f64::NAN);
        out.check(v >= COVERAGE.0 && v <= COVERAGE.1, || {
            format!("{name} = {v} lies outside {COVERAGE:?}")
        });
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (workload, ctx) = match parse_args(&args) {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("benchmark: {e}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    if let Err(e) = std::fs::create_dir_all(&ctx.out) {
        eprintln!("benchmark: cannot create {}: {e}", ctx.out.display());
        return ExitCode::from(2);
    }

    let mut out = Outcome::default();
    if ctx.trace {
        run_traced(workload, &ctx, &mut out);
    } else {
        workload.run(&ctx, &mut out);
        match pinned(workload, &ctx) {
            Ok(Some(pin)) => {
                let got = out
                    .digests
                    .iter()
                    .find(|(k, _)| k == "outputs")
                    .map(|(_, v)| v.clone());
                out.check(got.as_deref() == Some(pin.as_str()), || {
                    format!("output digest {got:?} differs from the pinned {pin}")
                });
            }
            Ok(None) => {}
            Err(e) => out.fail(e),
        }
    }

    let layer = |&(name, unit): &(&str, &str)| Metric {
        name: name.into(),
        value: out.layers.get(name).copied().unwrap_or(f64::NAN),
        unit: unit.into(),
        source: out.layer_sources.get(name).cloned(),
    };
    let (metrics, beside): (Vec<Metric>, Vec<Metric>) = if ctx.trace {
        (PER_LAYER.iter().map(layer).collect(), Vec::new())
    } else {
        let values = [out.setup_s, out.throughput_per_s, out.peak_rss_mb];
        let end_to_end = END_TO_END
            .iter()
            .zip(values)
            .map(|(&(name, unit), value)| Metric {
                name: name.into(),
                value,
                unit: unit.into(),
                source: None,
            })
            .collect();
        // Layers an untraced run measures anyway (the open loop's
        // latency steps) go to the result file.
        let beside = PER_LAYER
            .iter()
            .filter(|(name, _)| out.layers.contains_key(*name))
            .map(layer)
            .collect();
        (end_to_end, beside)
    };
    for m in &metrics {
        out.check(m.value.is_finite(), || {
            format!("metric {} was not measured", m.name)
        });
        match &m.source {
            Some(source) => println!("{} {} {}  # from {source}", m.name, m.value, m.unit),
            None => println!("{} {} {}", m.name, m.value, m.unit),
        }
    }
    for (name, digest) in &out.digests {
        println!("digest {name} {digest}");
    }

    let result = RunResult {
        workload: workload.name().into(),
        seed: ctx.seed,
        seconds: ctx.seconds,
        quick: ctx.quick,
        trace: ctx.trace,
        attempted: out.attempted.max(1),
        failed: out.failed,
        digests: out.digests.clone(),
        check_failures: out.check_failures.clone(),
        metrics,
        beside,
        config_digest: report::config_digest(&out.config),
    };
    let stem = format!(
        "{}-{}{}",
        workload.name(),
        ctx.seed,
        if ctx.trace { "-trace" } else { "" }
    );
    let file = ctx.out.join(format!("{stem}.json"));
    if let Err(e) = std::fs::write(&file, result.to_json().to_string_pretty()) {
        eprintln!("benchmark: cannot write {}: {e}", file.display());
    }
    if ctx.trace {
        let path = ctx.out.join(format!("{}.spans.jsonl", workload.name()));
        let written = std::fs::File::create(&path).and_then(|f| {
            let mut w = std::io::BufWriter::new(f);
            for (section, t) in &out.traces {
                t.write_jsonl(section, &mut w)?;
            }
            std::io::Write::flush(&mut w)
        });
        if let Err(e) = written {
            eprintln!("benchmark: cannot write {}: {e}", path.display());
        }
    }
    println!("{}", result.verdict_line());
    if result.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ctjam_telemetry::JsonValue;

    fn names(json: &JsonValue, key: &str) -> Vec<(String, String)> {
        let Some(JsonValue::Arr(items)) = json.get(key) else {
            panic!("BENCHMARK.json lacks {key}");
        };
        items
            .iter()
            .map(|item| {
                let text = |k: &str| match item.get(k) {
                    Some(JsonValue::Str(s)) => s.clone(),
                    _ => String::new(),
                };
                (text("name"), text("unit"))
            })
            .collect()
    }

    #[test]
    fn metric_tables_match_benchmark_json() {
        let json = ctjam_scenario::json::parse_str(include_str!("../../BENCHMARK.json"))
            .expect("valid JSON");
        let owned = |table: &[(&str, &str)]| -> Vec<(String, String)> {
            table
                .iter()
                .map(|&(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(names(&json, "end_to_end"), owned(&END_TO_END));
        assert_eq!(names(&json, "per_layer"), owned(&PER_LAYER));
        let workloads: Vec<String> = names(&json, "workloads")
            .into_iter()
            .map(|(n, _)| n)
            .collect();
        let ours: Vec<String> = Workload::ALL.iter().map(|w| w.name().to_string()).collect();
        assert_eq!(workloads, ours);
        for rate in serve::RATES {
            assert!(PER_LAYER
                .iter()
                .any(|(n, _)| *n == format!("open.{rate}.attainment")));
        }
    }

    #[test]
    fn arguments_parse_in_both_trace_forms() {
        let args: Vec<String> = [
            "--workload",
            "fleet_zoo",
            "--seed",
            "7",
            "--seconds",
            "20",
            "--trace",
            "0",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        let (w, ctx) = parse_args(&args).expect("valid arguments");
        assert_eq!(w, Workload::FleetZoo);
        assert_eq!(
            (ctx.seed, ctx.seconds, ctx.trace, ctx.quick),
            (7, 20, false, false)
        );
        let args: Vec<String> = ["--workload", "serve_open", "--trace", "--quick"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let (_, ctx) = parse_args(&args).expect("valid arguments");
        assert!(ctx.trace && ctx.quick);
        assert!(parse_args(&["--workload".to_string(), "nope".to_string()]).is_err());
        assert!(parse_args(&["--seconds".to_string(), "0".to_string()]).is_err());
    }
}
