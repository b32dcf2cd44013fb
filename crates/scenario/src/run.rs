//! Deterministic scenario runners.
//!
//! Each runner replays the exact RNG discipline of the figure bin it
//! replaced, so a scenario run is bit-identical to the historical
//! hand-coded run (the migration acceptance criterion). The campaign
//! runner adds resumability: a [`ScenarioProgress`] checkpoint embeds
//! one fleet [`CampaignProgress`] per completed policy, gated by the
//! scenario fingerprint so `--resume` against an edited file fails with
//! a typed error instead of silently mixing runs.

use crate::error::ScenarioError;
use crate::schema::{Campaign, Field, LinkSweep, Sweep};
use ctjam_channel::link::LinkReport;
use ctjam_core::adversary::JammerMode;
use ctjam_core::defender::{DqnDefender, NoDefense};
use ctjam_core::field::{FieldConfig, FieldEnv, GoodputMeter};
use ctjam_core::metrics::Metrics;
use ctjam_core::runner::{capture_sweep, RunBuilder};
use ctjam_dqn::checkpoint;
use ctjam_fleet::{CampaignProgress, CampaignResult, CampaignSpec, Fleet};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::path::{Path, PathBuf};

use crate::compile::apply_mode;

/// Result of a `link_sweep` scenario.
#[derive(Debug, Clone, PartialEq)]
pub struct LinkSweepRun {
    /// The jammer-free baseline.
    pub clean: LinkReport,
    /// One row per distance, in sweep order.
    pub rows: Vec<LinkRow>,
}

/// One distance of a `link_sweep`: a report per jammer family, in
/// scenario order.
#[derive(Debug, Clone, PartialEq)]
pub struct LinkRow {
    /// Jammer distance, meters.
    pub distance_m: f64,
    /// Reports parallel to [`LinkSweep::jammers`].
    pub reports: Vec<LinkReport>,
}

/// Runs a `link_sweep` scenario. RNG discipline: one `StdRng` seeded
/// from the scenario seed, consumed by `evaluate_faded` per family per
/// distance in order — exactly the historical `fig02` loop.
pub fn run_link_sweep(scenario: &LinkSweep) -> LinkSweepRun {
    let link = scenario.scenario();
    let kinds = scenario.kinds();
    let mut rng = StdRng::seed_from_u64(scenario.seed);
    let clean = link.evaluate_clean();
    let mut rows = Vec::new();
    for d in scenario.distance_start..=scenario.distance_end {
        let d = f64::from(d);
        let reports = kinds
            .iter()
            .map(|&kind| link.evaluate_faded(kind, d, scenario.draws, &mut rng))
            .collect();
        rows.push(LinkRow {
            distance_m: d,
            reports,
        });
    }
    LinkSweepRun { clean, rows }
}

/// One (axis, jammer-mode) table of a `sweep` scenario.
#[derive(Debug, Clone)]
pub struct SweepTableRun {
    /// Axis display name.
    pub name: String,
    /// Filename-safe slug of the axis name.
    pub slug: String,
    /// X-axis labels.
    pub xs: Vec<String>,
    /// The jammer mode this table ran under.
    pub mode: JammerMode,
    /// One Table-I metrics block per x value.
    pub metrics: Vec<Metrics>,
    /// Where the deterministic-replay trace landed, if one was
    /// requested: `Ok(path)` or the write error's message.
    pub trace: Option<Result<PathBuf, String>>,
}

/// Runs every (axis, mode) table of a `sweep` scenario, in scenario
/// order (axes outer, modes inner — the historical bin order). When
/// `trace_dir` is set, a deterministic-replay trace named
/// `<trace_prefix><slug>_<mode:?>` is captured and written per table
/// before the sweep runs, as the `fig06` bin always did.
pub fn run_sweep(
    scenario: &Sweep,
    trace_dir: Option<&Path>,
    trace_prefix: &str,
) -> Vec<SweepTableRun> {
    let budget = scenario.budget();
    let mut tables = Vec::new();
    for compiled in scenario.tables() {
        for mode in scenario.jammer_modes() {
            let mode_points = apply_mode(&compiled.points, mode);
            let trace = trace_dir.map(|dir| {
                let trace = capture_sweep(
                    &format!("{trace_prefix}{}_{mode:?}", compiled.slug),
                    &mode_points,
                    budget,
                    scenario.seed,
                );
                trace.write(dir).map_err(|err| err.to_string())
            });
            let metrics = RunBuilder::new(&mode_points[0])
                .kernel(scenario.kernel)
                .budget(budget)
                .seed(scenario.seed)
                .sweep(&mode_points, |_, _| {});
            tables.push(SweepTableRun {
                name: compiled.name.clone(),
                slug: compiled.slug.clone(),
                xs: compiled.xs.clone(),
                mode,
                metrics,
                trace,
            });
        }
    }
    tables
}

/// One duration point of a `field` scenario.
#[derive(Debug, Clone, PartialEq)]
pub struct FieldRow {
    /// Tx/Jx slot duration, seconds.
    pub duration_s: f64,
    /// Goodput of the defended, jammed run.
    pub goodput: GoodputMeter,
    /// Goodput of the no-jammer, no-defense reference run.
    pub reference: GoodputMeter,
}

/// Runs a `field` scenario. RNG discipline: one `StdRng` seeded from
/// the scenario seed drives defender init, training, and both
/// experiments per duration in order — exactly the historical `fig10`
/// loop, so the numbers are bit-identical to the pre-migration bin.
/// Each duration runs a fresh clone of the trained defender.
pub fn run_field(scenario: &Field) -> Vec<FieldRow> {
    let base = scenario.config();
    let mut rng = StdRng::seed_from_u64(scenario.seed);
    let mut defender = DqnDefender::paper_default(&base.env, &mut rng);
    RunBuilder::new(&base.env).train(&mut defender, scenario.train_slots, &mut rng);
    defender.set_training(false);

    let mut rows = Vec::new();
    for &duration in &scenario.durations {
        let config = FieldConfig {
            tx_slot_s: duration,
            jx_slot_s: duration,
            ..base.clone()
        };
        let mut env = FieldEnv::new(config.clone(), &mut rng);
        RunBuilder::new(&config.env).run_in(
            &mut env,
            &mut defender.clone(),
            scenario.slots,
            &mut rng,
        );

        let reference_config = FieldConfig {
            jammer_enabled: false,
            ..config
        };
        let mut reference = NoDefense::new(&reference_config.env, &mut rng);
        let mut reference_env = FieldEnv::new(reference_config.clone(), &mut rng);
        RunBuilder::new(&reference_config.env).run_in(
            &mut reference_env,
            &mut reference,
            scenario.slots,
            &mut rng,
        );
        rows.push(FieldRow {
            duration_s: duration,
            goodput: env.goodput(),
            reference: reference_env.goodput(),
        });
    }
    rows
}

/// One completed policy of a `campaign` scenario.
#[derive(Debug, Clone)]
pub struct CampaignPolicyRun {
    /// The policy label from the scenario.
    pub policy: String,
    /// The compiled fleet spec the fleet ran.
    pub spec: CampaignSpec,
    /// The campaign result (bit-exact at any worker count).
    pub result: CampaignResult,
}

/// How to run a `campaign` scenario.
#[derive(Debug, Clone, Default)]
pub struct CampaignOptions {
    /// Worker threads (`None` = the fleet default).
    pub threads: Option<usize>,
    /// Where to keep the progress checkpoint (`None` = no
    /// checkpointing).
    pub checkpoint: Option<PathBuf>,
    /// Resume from the checkpoint if it exists (a missing file starts
    /// fresh; a fingerprint mismatch is an error).
    pub resume: bool,
}

/// The scenario-level progress checkpoint: one fleet
/// [`CampaignProgress`] per completed policy, gated by the scenario
/// fingerprint.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioProgress {
    /// [`crate::Scenario::fingerprint`] of the effective scenario this
    /// progress belongs to.
    pub fingerprint: u64,
    /// Completed policies: `(policy index, progress)` in completion
    /// order.
    pub entries: Vec<(u64, CampaignProgress)>,
}

impl ScenarioProgress {
    /// Writes the progress into the suite's standard sealed checkpoint
    /// container at `path`.
    pub fn save(&self, path: &Path) -> Result<(), ScenarioError> {
        let mut payload = Vec::new();
        payload.extend_from_slice(&self.fingerprint.to_le_bytes());
        payload.extend_from_slice(&(self.entries.len() as u64).to_le_bytes());
        for (index, progress) in &self.entries {
            payload.extend_from_slice(&index.to_le_bytes());
            progress.encode_payload(&mut payload);
        }
        checkpoint::write_checkpoint(path, &payload)
            .map_err(|err| ScenarioError::Checkpoint(format!("{err:?}")))
    }

    /// Reads progress written by [`ScenarioProgress::save`].
    pub fn load(path: &Path) -> Result<Self, ScenarioError> {
        let malformed = || ScenarioError::Checkpoint("malformed progress payload".into());
        let payload = checkpoint::read_checkpoint(path)
            .map_err(|err| ScenarioError::Checkpoint(format!("{err:?}")))?;
        let mut cursor = payload.as_slice();
        let fingerprint = checkpoint::take_u64(&mut cursor).map_err(|_| malformed())?;
        let count = checkpoint::take_u64(&mut cursor).map_err(|_| malformed())? as usize;
        if count > 1 << 16 {
            return Err(malformed());
        }
        let mut entries = Vec::with_capacity(count);
        for _ in 0..count {
            let index = checkpoint::take_u64(&mut cursor).map_err(|_| malformed())?;
            let progress =
                CampaignProgress::decode_payload(&mut cursor).map_err(|_| malformed())?;
            entries.push((index, progress));
        }
        if !cursor.is_empty() {
            return Err(malformed());
        }
        Ok(ScenarioProgress {
            fingerprint,
            entries,
        })
    }
}

/// Runs a `campaign` scenario: every policy in scenario order through
/// the fleet. With a checkpoint path, progress is saved after each
/// completed policy; with `resume`, completed policies are
/// reconstituted from the checkpoint instead of re-run (bit-exact, via
/// the fleet's partition-invariant merge).
///
/// `scenario_fingerprint` must be the fingerprint of the *effective*
/// scenario (see [`crate::Scenario::fingerprint`]); a checkpoint
/// carrying any other fingerprint is rejected with
/// [`ScenarioError::FingerprintMismatch`].
pub fn run_campaign(
    scenario_name: &str,
    campaign: &Campaign,
    scenario_fingerprint: u64,
    options: &CampaignOptions,
) -> Result<Vec<CampaignPolicyRun>, ScenarioError> {
    let mut fleet = Fleet::new();
    if let Some(threads) = options.threads {
        fleet = fleet.threads(threads);
    }
    let mut progress = match &options.checkpoint {
        Some(path) if options.resume && path.exists() => {
            let loaded = ScenarioProgress::load(path)?;
            if loaded.fingerprint != scenario_fingerprint {
                return Err(ScenarioError::FingerprintMismatch {
                    checkpoint: loaded.fingerprint,
                    scenario: scenario_fingerprint,
                });
            }
            loaded
        }
        _ => ScenarioProgress {
            fingerprint: scenario_fingerprint,
            entries: Vec::new(),
        },
    };

    let mut runs = Vec::new();
    for (index, (policy, spec)) in campaign.specs(scenario_name).into_iter().enumerate() {
        let saved = progress
            .entries
            .iter()
            .find(|(i, _)| *i == index as u64)
            .map(|(_, p)| p.clone());
        let result = match saved {
            Some(saved) => {
                saved.check(&spec).map_err(|why| {
                    ScenarioError::Checkpoint(format!("policy {policy:?}: {why}"))
                })?;
                fleet.resume(&spec, &saved)
            }
            None => {
                let result = fleet.run(&spec);
                progress.entries.push((
                    index as u64,
                    CampaignProgress {
                        fingerprint: spec.fingerprint(),
                        outcomes: result.outcomes.clone(),
                        telemetry: result.telemetry.clone(),
                    },
                ));
                if let Some(path) = &options.checkpoint {
                    progress.save(path)?;
                }
                result
            }
        };
        runs.push(CampaignPolicyRun {
            policy,
            spec,
            result,
        });
    }
    Ok(runs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{Scenario, ScenarioKind};

    fn campaign_text() -> &'static str {
        r#"{
            "schema": "ctjam-scenario/v1",
            "name": "unit_campaign",
            "kind": "campaign",
            "base_seed": 41,
            "slots": 60,
            "seeds": [1, 2],
            "adversaries": ["sweep", "pursuit"],
            "policies": ["random-fh", "no-defense"]
        }"#
    }

    fn ckpt(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!("ctjam_scenario_run_{tag}.ckpt"))
    }

    #[test]
    fn campaign_runs_match_at_every_worker_count() {
        let s = Scenario::parse_str(campaign_text()).unwrap();
        let ScenarioKind::Campaign(c) = &s.kind else {
            panic!("wrong kind")
        };
        let fp = s.fingerprint(false);
        let run = |threads| {
            run_campaign(
                &s.name,
                c,
                fp,
                &CampaignOptions {
                    threads: Some(threads),
                    ..CampaignOptions::default()
                },
            )
            .unwrap()
        };
        let one = run(1);
        let four = run(4);
        assert_eq!(one.len(), 2);
        for (a, b) in one.iter().zip(&four) {
            assert_eq!(a.result.outcomes, b.result.outcomes);
            assert_eq!(
                a.result.telemetry.to_json().to_string_compact(),
                b.result.telemetry.to_json().to_string_compact()
            );
        }
    }

    #[test]
    fn resume_reconstitutes_completed_policies_bit_exactly() {
        let s = Scenario::parse_str(campaign_text()).unwrap();
        let ScenarioKind::Campaign(c) = &s.kind else {
            panic!("wrong kind")
        };
        let fp = s.fingerprint(false);
        let path = ckpt("resume");
        std::fs::remove_file(&path).ok();
        let options = CampaignOptions {
            threads: Some(2),
            checkpoint: Some(path.clone()),
            resume: true,
        };
        let fresh = run_campaign(&s.name, c, fp, &options).unwrap();
        let resumed = run_campaign(&s.name, c, fp, &options).unwrap();
        std::fs::remove_file(&path).ok();
        for (a, b) in fresh.iter().zip(&resumed) {
            assert_eq!(a.result.outcomes, b.result.outcomes);
            assert_eq!(
                a.result.telemetry.to_json().to_string_compact(),
                b.result.telemetry.to_json().to_string_compact()
            );
        }
    }

    #[test]
    fn resume_rejects_progress_that_repeats_an_episode() {
        let s = Scenario::parse_str(campaign_text()).unwrap();
        let ScenarioKind::Campaign(c) = &s.kind else {
            panic!("wrong kind")
        };
        let fp = s.fingerprint(false);
        let path = ckpt("repeated");
        std::fs::remove_file(&path).ok();
        let options = CampaignOptions {
            threads: Some(1),
            checkpoint: Some(path.clone()),
            resume: true,
        };
        run_campaign(&s.name, c, fp, &options).unwrap();
        let mut saved = ScenarioProgress::load(&path).unwrap();
        let outcomes = &mut saved.entries[0].1.outcomes;
        outcomes.push(outcomes[0]);
        saved.save(&path).unwrap();
        let err = run_campaign(&s.name, c, fp, &options).unwrap_err();
        std::fs::remove_file(&path).ok();
        assert!(
            matches!(&err, ScenarioError::Checkpoint(why) if why.contains("more than once")),
            "{err:?}"
        );
    }

    #[test]
    fn resume_rejects_a_foreign_fingerprint() {
        let s = Scenario::parse_str(campaign_text()).unwrap();
        let ScenarioKind::Campaign(c) = &s.kind else {
            panic!("wrong kind")
        };
        let path = ckpt("foreign");
        std::fs::remove_file(&path).ok();
        let options = CampaignOptions {
            threads: Some(1),
            checkpoint: Some(path.clone()),
            resume: true,
        };
        run_campaign(&s.name, c, s.fingerprint(false), &options).unwrap();
        let err = run_campaign(&s.name, c, s.fingerprint(false) ^ 1, &options).unwrap_err();
        std::fs::remove_file(&path).ok();
        assert!(matches!(err, ScenarioError::FingerprintMismatch { .. }));
    }
}
