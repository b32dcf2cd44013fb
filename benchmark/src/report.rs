//! The run's outcome: printed metric lines, the one-line JSON verdict,
//! and the small result file with its provenance.

use crate::stats::Digest;
use crate::sys;
use ctjam_telemetry::JsonValue;

/// Schema tag of the result file.
pub const SCHEMA: &str = "ctjam-benchmark/v1";

/// One measured number.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name as listed in `BENCHMARK.json`.
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Unit as listed in `BENCHMARK.json`.
    pub unit: String,
    /// The run that measured it, when not this one: a layer the
    /// workload does not exercise, taken from a quick traced run of one
    /// that does.
    pub source: Option<String>,
}

/// Everything a run reports.
#[derive(Debug, Clone, PartialEq)]
pub struct RunResult {
    /// Workload name.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Requested measuring time, seconds.
    pub seconds: u64,
    /// Whether `--quick` sizes were used.
    pub quick: bool,
    /// Whether this was a traced run.
    pub trace: bool,
    /// Operations attempted in the timed window.
    pub attempted: u64,
    /// Attempted operations not completed correctly.
    pub failed: u64,
    /// Output digests, by name.
    pub digests: Vec<(String, String)>,
    /// Failed output checks (empty when every check passed).
    pub check_failures: Vec<String>,
    /// Metrics in report order.
    pub metrics: Vec<Metric>,
    /// Per-layer numbers an untraced run measured beside its metrics.
    pub beside: Vec<Metric>,
    /// Digest of the configuration that determines the work done.
    pub config_digest: String,
}

impl RunResult {
    /// Whether every output check passed.
    pub fn correct(&self) -> bool {
        self.check_failures.is_empty()
    }

    /// `{name: {value, unit}}`, with each metric's source when
    /// `with_source` is set and it has one.
    fn metrics_json(metrics: &[Metric], with_source: bool) -> JsonValue {
        let mut out = JsonValue::object();
        for m in metrics {
            let mut v = JsonValue::object();
            v.set("value", m.value).set("unit", m.unit.as_str());
            if let (true, Some(source)) = (with_source, &m.source) {
                v.set("source", source.as_str());
            }
            out.set(&m.name, v);
        }
        out
    }

    /// The verdict line: exactly `correct`, `attempted`, `failed` and
    /// `metrics`.
    pub fn verdict_line(&self) -> String {
        let mut o = JsonValue::object();
        o.set("correct", self.correct())
            .set("attempted", self.attempted)
            .set("failed", self.failed)
            .set("metrics", Self::metrics_json(&self.metrics, false));
        o.to_string_compact()
    }

    /// The full result record, with the machine's provenance.
    pub fn to_json(&self) -> JsonValue {
        let git = git_describe();
        let dirty = git.as_deref().is_some_and(|g| g.ends_with("-dirty"));
        let mut digests = JsonValue::object();
        for (k, v) in &self.digests {
            digests.set(k, v.as_str());
        }
        let mut o = JsonValue::object();
        o.set("schema", SCHEMA)
            .set("workload", self.workload.as_str())
            .set("seed", self.seed.to_string())
            .set("seconds", self.seconds)
            .set("quick", self.quick)
            .set("trace", self.trace)
            .set("git", git.unwrap_or_else(|| "unknown".to_string()))
            .set("dirty", dirty)
            .set("nproc", sys::nproc())
            .set("cpu_model", sys::cpu_model())
            .set("cpu_features", sys::cpu_features())
            .set("config_digest", self.config_digest.as_str())
            .set("correct", self.correct())
            .set("attempted", self.attempted)
            .set("failed", self.failed)
            .set(
                "check_failures",
                JsonValue::Arr(
                    self.check_failures
                        .iter()
                        .map(|s| JsonValue::from(s.as_str()))
                        .collect(),
                ),
            )
            .set("digests", digests)
            .set("metrics", Self::metrics_json(&self.metrics, true))
            .set("beside", Self::metrics_json(&self.beside, true));
        o
    }

    /// Reads back a record written by [`RunResult::to_json`].
    #[cfg(test)]
    pub fn from_json(json: &JsonValue) -> Option<RunResult> {
        let str_of = |key: &str| match json.get(key)? {
            JsonValue::Str(s) => Some(s.clone()),
            _ => None,
        };
        let num_of = |key: &str| match json.get(key)? {
            JsonValue::Num(n) => Some(*n),
            _ => None,
        };
        let bool_of = |key: &str| match json.get(key)? {
            JsonValue::Bool(b) => Some(*b),
            _ => None,
        };
        if str_of("schema")? != SCHEMA {
            return None;
        }
        let pairs = |key: &str| match json.get(key)? {
            JsonValue::Obj(pairs) => Some(pairs.clone()),
            _ => None,
        };
        let digests = pairs("digests")?
            .into_iter()
            .map(|(k, v)| match v {
                JsonValue::Str(s) => Some((k, s)),
                _ => None,
            })
            .collect::<Option<Vec<_>>>()?;
        let metrics_of = |key: &str| {
            pairs(key)?
                .into_iter()
                .map(|(name, v)| {
                    let value = match v.get("value")? {
                        JsonValue::Num(n) => *n,
                        _ => return None,
                    };
                    let text = |k: &str| match v.get(k) {
                        Some(JsonValue::Str(s)) => Some(s.clone()),
                        _ => None,
                    };
                    Some(Metric {
                        name,
                        value,
                        unit: text("unit")?,
                        source: text("source"),
                    })
                })
                .collect::<Option<Vec<_>>>()
        };
        let check_failures = match json.get("check_failures")? {
            JsonValue::Arr(items) => items
                .iter()
                .map(|v| match v {
                    JsonValue::Str(s) => Some(s.clone()),
                    _ => None,
                })
                .collect::<Option<Vec<_>>>()?,
            _ => return None,
        };
        Some(RunResult {
            workload: str_of("workload")?,
            seed: str_of("seed")?.parse().ok()?,
            seconds: num_of("seconds")? as u64,
            quick: bool_of("quick")?,
            trace: bool_of("trace")?,
            attempted: num_of("attempted")? as u64,
            failed: num_of("failed")? as u64,
            digests,
            check_failures,
            metrics: metrics_of("metrics")?,
            beside: metrics_of("beside")?,
            config_digest: str_of("config_digest")?,
        })
    }
}

/// `git describe --always --dirty` of the working directory, looking no
/// further up than its parent (a checkout that is not a repository
/// reads as unknown rather than describing an enclosing one).
fn git_describe() -> Option<String> {
    let cwd = std::env::current_dir().ok()?;
    let out = std::process::Command::new("git")
        .args(["describe", "--always", "--dirty"])
        .env("GIT_CEILING_DIRECTORIES", cwd.parent().unwrap_or(&cwd))
        .stderr(std::process::Stdio::null())
        .output()
        .ok()?;
    let text = String::from_utf8_lossy(&out.stdout).trim().to_string();
    (out.status.success() && !text.is_empty()).then_some(text)
}

/// Digest of a configuration description.
pub fn config_digest(description: &str) -> String {
    Digest::default().bytes(description.as_bytes()).hex()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_json_round_trips() {
        let result = RunResult {
            workload: "fleet_zoo".into(),
            seed: u64::MAX - 3,
            seconds: 20,
            quick: false,
            trace: true,
            attempted: 84_000,
            failed: 0,
            digests: vec![("outputs".into(), "0123456789abcdef".into())],
            check_failures: vec!["pinned digest differs".into()],
            metrics: vec![
                Metric {
                    name: "throughput_per_s".into(),
                    value: 4_321.123_456_789,
                    unit: "1/s".into(),
                    source: None,
                },
                Metric {
                    name: "setup_s".into(),
                    value: 0.1 + 0.2,
                    unit: "s".into(),
                    source: None,
                },
                Metric {
                    name: "nn.backward_ns".into(),
                    value: 1_234.5,
                    unit: "ns".into(),
                    source: Some("repro_sweep --quick".into()),
                },
            ],
            beside: vec![Metric {
                name: "open.40000.p99_us".into(),
                value: 512.25,
                unit: "us".into(),
                source: None,
            }],
            config_digest: config_digest("fleet_zoo 20"),
        };
        let text = result.to_json().to_string_pretty();
        let parsed = ctjam_scenario::json::parse_str(&text).expect("valid JSON");
        assert_eq!(RunResult::from_json(&parsed), Some(result.clone()));

        let verdict = ctjam_scenario::json::parse_str(&result.verdict_line()).expect("valid");
        match &verdict {
            JsonValue::Obj(pairs) => {
                let keys: Vec<&str> = pairs.iter().map(|(k, _)| k.as_str()).collect();
                assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
            }
            other => panic!("verdict is not an object: {other:?}"),
        }
        assert_eq!(verdict.get("correct"), Some(&JsonValue::Bool(false)));
        let setup = verdict
            .get("metrics")
            .and_then(|m| m.get("setup_s"))
            .and_then(|m| m.get("value"));
        assert_eq!(setup, Some(&JsonValue::Num(0.1 + 0.2)), "all digits kept");
        let backward = verdict
            .get("metrics")
            .and_then(|m| m.get("nn.backward_ns"))
            .expect("every metric in the verdict");
        assert!(
            backward.get("source").is_none(),
            "the verdict holds only value and unit"
        );
    }
}
