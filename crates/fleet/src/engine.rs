//! The campaign engine: schedules a [`CampaignSpec`] onto the shard
//! pool and reduces per-shard results.

use crate::progress::CampaignProgress;
use crate::shared::SharedPolicyDefender;
use crate::spec::{CampaignPolicy, CampaignSpec};
use ctjam_core::defender::{Defender, DqnDefender, NoDefense, PassiveFh, RandomFh, WithDecoys};
use ctjam_core::metrics::Metrics;
use ctjam_core::pool;
use ctjam_core::runner::{EpisodeReport, RunBuilder};
use ctjam_fault::{FaultPlan, FaultPoint, NullFaultPlan};
use ctjam_telemetry::{EventSink, RunHealth, ShardSink};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;

/// The result of one episode, keyed by its grid position. Pure function
/// of `(spec, episode)` — never of scheduling.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EpisodeOutcome {
    /// Episode index in the campaign grid.
    pub episode: u64,
    /// The episode's derived RNG-stream seed (reproduction recipe).
    pub seed: u64,
    /// Table I metrics over the episode's evaluation window.
    pub metrics: Metrics,
    /// Sum of Eq. (5) rewards over the evaluation window.
    pub total_reward: f64,
    /// Fault/recovery accounting (covers training too for
    /// [`CampaignPolicy::TrainDqn`]).
    pub health: RunHealth,
}

/// A completed campaign: per-episode outcomes in grid order plus the
/// campaign-wide reductions.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignResult {
    /// One outcome per episode, sorted by episode index.
    pub outcomes: Vec<EpisodeOutcome>,
    /// All episodes' metrics merged.
    pub metrics: Metrics,
    /// All episodes' health merged.
    pub health: RunHealth,
    /// All shards' telemetry merged (bit-exact for any thread count).
    pub telemetry: ShardSink,
    /// Worker shards the run actually used.
    pub shards: usize,
}

impl CampaignResult {
    /// Per-episode goodput (success rate of transmission, Table I `ST`)
    /// in grid order — the vector the thread-count-invariance tests
    /// compare bit-for-bit.
    pub fn goodput_vector(&self) -> Vec<f64> {
        self.outcomes
            .iter()
            .map(|o| o.metrics.success_rate())
            .collect()
    }
}

/// The campaign engine: a thread-count knob over
/// [`ctjam_core::pool::parallel_fold`].
#[derive(Debug, Clone)]
pub struct Fleet {
    threads: usize,
}

impl Default for Fleet {
    fn default() -> Self {
        Fleet::new()
    }
}

impl Fleet {
    /// An engine using every visible hardware thread.
    pub fn new() -> Self {
        Fleet {
            threads: pool::available_threads(),
        }
    }

    /// Sets the worker-thread count (clamped to at least 1). Results
    /// never depend on this — `tests/determinism.rs` holds the engine to
    /// bit-exactness across 1/2/8 workers.
    #[must_use]
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self
    }

    /// Runs the whole campaign.
    pub fn run(&self, spec: &CampaignSpec) -> CampaignResult {
        let episodes: Vec<u64> = (0..spec.episodes() as u64).collect();
        self.run_episodes(spec, &episodes)
    }

    /// Runs only the first `limit` episodes and returns a resumable
    /// progress checkpoint — the "killed mid-campaign" entry point.
    pub fn run_partial(&self, spec: &CampaignSpec, limit: usize) -> CampaignProgress {
        let episodes: Vec<u64> = (0..spec.episodes().min(limit) as u64).collect();
        let partial = self.run_episodes(spec, &episodes);
        CampaignProgress {
            fingerprint: spec.fingerprint(),
            outcomes: partial.outcomes,
            telemetry: partial.telemetry,
        }
    }

    /// Completes a campaign from checkpointed progress: runs every
    /// episode the checkpoint lacks and combines both halves. The result
    /// is bit-exact with an uninterrupted [`Fleet::run`] — outcomes are
    /// pure per-episode, and the telemetry merge is partition-invariant.
    ///
    /// # Panics
    ///
    /// Panics if `progress` fails [`CampaignProgress::check`]: captured
    /// from a different spec (fingerprint mismatch), or naming an
    /// episode twice, outside the grid or with another seed. Resuming
    /// from it would silently mix incomparable or repeated episodes.
    pub fn resume(&self, spec: &CampaignSpec, progress: &CampaignProgress) -> CampaignResult {
        if let Err(why) = progress.check(spec) {
            panic!("progress checkpoint does not belong to this campaign spec: {why}");
        }
        let done: std::collections::HashSet<u64> =
            progress.outcomes.iter().map(|o| o.episode).collect();
        let remaining: Vec<u64> = (0..spec.episodes() as u64)
            .filter(|e| !done.contains(e))
            .collect();
        let mut fresh = self.run_episodes(spec, &remaining);
        let mut outcomes = progress.outcomes.clone();
        outcomes.append(&mut fresh.outcomes);
        outcomes.sort_by_key(|o| o.episode);
        let mut telemetry = progress.telemetry.clone();
        telemetry.merge(&fresh.telemetry);
        let (metrics, health) = reduce_outcomes(&outcomes);
        CampaignResult {
            outcomes,
            metrics,
            health,
            telemetry,
            shards: fresh.shards,
        }
    }

    fn run_episodes(&self, spec: &CampaignSpec, episodes: &[u64]) -> CampaignResult {
        let accumulators = pool::parallel_fold(
            episodes,
            self.threads,
            &|| (ShardSink::new(), Vec::new()),
            &|(sink, outcomes): &mut (ShardSink, Vec<EpisodeOutcome>), _, &e| {
                outcomes.push(run_episode(spec, e, sink));
            },
        );
        let shards = accumulators.len();
        let mut telemetry = ShardSink::new();
        let mut outcomes = Vec::with_capacity(episodes.len());
        for (sink, mut shard_outcomes) in accumulators {
            telemetry.merge(&sink);
            outcomes.append(&mut shard_outcomes);
        }
        outcomes.sort_by_key(|o| o.episode);
        let (metrics, health) = reduce_outcomes(&outcomes);
        CampaignResult {
            outcomes,
            metrics,
            health,
            telemetry,
            shards,
        }
    }
}

fn reduce_outcomes(outcomes: &[EpisodeOutcome]) -> (Metrics, RunHealth) {
    let mut metrics = Metrics::new();
    let mut health = RunHealth::clean();
    for o in outcomes {
        metrics.merge(&o.metrics);
        health.absorb(&o.health);
    }
    (metrics, health)
}

/// Runs episode `e` of `spec` into `sink`. Pure in `(spec, e)`: the
/// episode derives its own RNG stream and (when faults are attached) its
/// own fault plan, so no scheduling decision can reach it.
fn run_episode<S: EventSink>(spec: &CampaignSpec, e: u64, sink: &mut S) -> EpisodeOutcome {
    let seed = spec.episode_seed(e as usize);
    let mut rng = StdRng::seed_from_u64(seed);
    let report = match &spec.faults {
        Some(faults) => {
            // A real plan even at zero rates: the fault crate's contract
            // (tests/chaos.rs) makes a zero-rate plan bit-exact with no
            // plan, and attaching it keeps the chaos path honest.
            let mut plan = FaultPlan::new(spec.plan_seed(faults, e as usize), faults.rates);
            run_policy(spec, e, &mut rng, sink, &mut plan)
        }
        None => run_policy(spec, e, &mut rng, sink, &mut NullFaultPlan),
    };
    EpisodeOutcome {
        episode: e,
        seed,
        metrics: report.metrics,
        total_reward: report.total_reward,
        health: report.health,
    }
}

fn run_policy<S: EventSink, F: FaultPoint>(
    spec: &CampaignSpec,
    e: u64,
    rng: &mut StdRng,
    sink: &mut S,
    fault: &mut F,
) -> EpisodeReport {
    let point = spec.episode_point(e as usize);
    match &spec.policy {
        CampaignPolicy::SharedGreedy(policy) => {
            let mut defender = SharedPolicyDefender::new(Arc::clone(policy), point, rng);
            evaluate(spec, point, &mut defender, spec.slots, rng, sink, fault)
        }
        CampaignPolicy::RandomFh => {
            let mut defender = RandomFh::new(point, rng);
            evaluate(spec, point, &mut defender, spec.slots, rng, sink, fault)
        }
        CampaignPolicy::PassiveFh => {
            let mut defender = PassiveFh::new(point, rng);
            evaluate(spec, point, &mut defender, spec.slots, rng, sink, fault)
        }
        CampaignPolicy::NoDefense => {
            let mut defender = NoDefense::new(point, rng);
            evaluate(spec, point, &mut defender, spec.slots, rng, sink, fault)
        }
        CampaignPolicy::DecoyRandomFh(rate) => {
            let mut defender = WithDecoys::new(RandomFh::new(point, rng), *rate, point);
            evaluate(spec, point, &mut defender, spec.slots, rng, sink, fault)
        }
        CampaignPolicy::TrainDqn(budget) => {
            let mut defender = DqnDefender::paper_default(point, rng);
            let train = RunBuilder::new(point)
                .kernel(spec.kernel)
                .sink(&mut *sink)
                .fault_plan(&mut *fault)
                .train(&mut defender, budget.train_slots, rng);
            defender.set_training(false);
            let mut report = evaluate(
                spec,
                point,
                &mut defender,
                budget.eval_slots,
                rng,
                sink,
                fault,
            );
            // Metrics/reward stay evaluation-only (comparable with the
            // frozen-policy modes); health covers both phases.
            report.health.absorb(&train.health);
            report
        }
    }
}

#[allow(clippy::too_many_arguments)]
fn evaluate<D: Defender + ?Sized, S: EventSink, F: FaultPoint>(
    spec: &CampaignSpec,
    point: &ctjam_core::env::EnvParams,
    defender: &mut D,
    slots: usize,
    rng: &mut StdRng,
    sink: &mut S,
    fault: &mut F,
) -> EpisodeReport {
    RunBuilder::new(point)
        .kernel(spec.kernel)
        .sink(&mut *sink)
        .fault_plan(&mut *fault)
        .evaluate(defender, slots, rng)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::CampaignFaults;
    use ctjam_core::env::EnvParams;
    use ctjam_fault::FaultRates;

    fn baseline_spec(policy: CampaignPolicy) -> CampaignSpec {
        let points = [50.0, 200.0]
            .iter()
            .map(|&l_j| EnvParams {
                l_j,
                ..EnvParams::default()
            })
            .collect();
        CampaignSpec {
            name: "engine-unit".into(),
            points,
            seeds: vec![11, 22, 33],
            policy,
            slots: 120,
            kernel: false,
            base_seed: 0xF1EE7,
            faults: None,
        }
    }

    #[test]
    fn campaign_covers_the_whole_grid_in_order() {
        let spec = baseline_spec(CampaignPolicy::RandomFh);
        let result = Fleet::new().threads(3).run(&spec);
        assert_eq!(result.outcomes.len(), 6);
        assert_eq!(
            result
                .outcomes
                .iter()
                .map(|o| o.episode)
                .collect::<Vec<_>>(),
            (0..6).collect::<Vec<_>>()
        );
        assert_eq!(result.metrics.slots(), 6 * 120);
        assert_eq!(result.telemetry.slots, 6 * 120);
        assert_eq!(result.goodput_vector().len(), 6);
    }

    #[test]
    fn partial_plus_resume_equals_uninterrupted() {
        let spec = baseline_spec(CampaignPolicy::PassiveFh);
        let full = Fleet::new().threads(2).run(&spec);
        let progress = Fleet::new().threads(1).run_partial(&spec, 4);
        assert_eq!(progress.outcomes.len(), 4);
        let resumed = Fleet::new().threads(3).resume(&spec, &progress);
        assert_eq!(resumed.outcomes, full.outcomes);
        assert_eq!(resumed.metrics, full.metrics);
        assert_eq!(resumed.telemetry, full.telemetry);
        assert_eq!(
            resumed.telemetry.to_json().to_string_compact(),
            full.telemetry.to_json().to_string_compact()
        );
    }

    #[test]
    #[should_panic(expected = "does not belong")]
    fn resume_rejects_a_foreign_checkpoint() {
        let spec = baseline_spec(CampaignPolicy::RandomFh);
        let progress = Fleet::new().run_partial(&spec, 2);
        let mut other = baseline_spec(CampaignPolicy::RandomFh);
        other.base_seed ^= 1;
        Fleet::new().resume(&other, &progress);
    }

    #[test]
    #[should_panic(expected = "appears more than once")]
    fn resume_rejects_a_repeated_episode() {
        let spec = baseline_spec(CampaignPolicy::RandomFh);
        let mut progress = Fleet::new().run_partial(&spec, 2);
        progress.outcomes.push(progress.outcomes[0]);
        Fleet::new().resume(&spec, &progress);
    }

    #[test]
    fn decoy_policy_runs_and_is_thread_invariant() {
        let mut spec = baseline_spec(CampaignPolicy::DecoyRandomFh(0.5));
        for p in &mut spec.points {
            p.adversary = ctjam_core::adversary::AdversaryConfig::reactive(0.0);
        }
        let one = Fleet::new().threads(1).run(&spec);
        let eight = Fleet::new().threads(8).run(&spec);
        assert_eq!(one.goodput_vector(), eight.goodput_vector());
        assert_eq!(one.metrics.slots(), 6 * 120);
    }

    #[test]
    fn faulted_campaign_reports_fired_faults() {
        let mut spec = baseline_spec(CampaignPolicy::RandomFh);
        spec.faults = Some(CampaignFaults {
            seed: 99,
            rates: FaultRates::uniform(0.2),
        });
        let result = Fleet::new().threads(2).run(&spec);
        assert_eq!(result.metrics.slots(), 6 * 120);
        assert!(
            result.health.faults_fired > 0,
            "a 20% uniform mix must fire somewhere across 720 slots"
        );
    }
}
