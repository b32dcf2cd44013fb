//! Training and evaluation loops (§IV.A: "the experiment lasts for 20000
//! time slots to get the average value"), plus parameter-sweep helpers.
//!
//! The one entry point is [`RunBuilder`]: a fluent description of *how*
//! to run (telemetry sink, thread count, environment flavour, adversary,
//! sweep budget and seed) terminated by *what* to run
//! ([`RunBuilder::run`], [`RunBuilder::train`], [`RunBuilder::sweep`],
//! …). The 0.2.0 pre-builder free-function shims were removed in 0.3.0;
//! see `CHANGELOG.md`.

use crate::adversary::AdversaryConfig;
use crate::defender::{Defender, DqnDefender};
use crate::env::{CompetitionEnv, EnvParams, Environment};
use crate::kernel::KernelEnv;
use crate::metrics::Metrics;
use ctjam_fault::{FaultPoint, FaultSite, NullFaultPlan};
use ctjam_telemetry::{EpisodeRecord, EventSink, NullSink, ReplayTrace, RunHealth, TrainEvent};
use rand::rngs::StdRng;
use rand::Rng;
use rand::SeedableRng;

/// Result of running a defender for a number of slots.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EpisodeReport {
    /// Table I metrics over the run.
    pub metrics: Metrics,
    /// Sum of Eq. (5) rewards.
    pub total_reward: f64,
    /// Fault/recovery accounting for the run (all-zero on a fault-free
    /// run — see [`RunHealth::is_clean`]).
    pub health: RunHealth,
}

impl EpisodeReport {
    /// Mean per-slot reward.
    pub fn mean_reward(&self) -> f64 {
        if self.metrics.slots() == 0 {
            0.0
        } else {
            self.total_reward / self.metrics.slots() as f64
        }
    }
}

/// A fluent description of a run: configure *how* (sink, threads,
/// environment flavour, sweep budget/seed), then call a terminal method
/// saying *what* ([`RunBuilder::run`], [`RunBuilder::run_in`],
/// [`RunBuilder::train`], [`RunBuilder::evaluate`],
/// [`RunBuilder::sweep`]).
///
/// Every terminal takes the RNG explicitly — the repo-wide determinism
/// contract (`tests/determinism.rs`) requires the caller to own the
/// seeded stream. A builder-driven run draws from the RNG in exactly the
/// same order as the 0.2.0 free functions it replaced, so seeded results
/// are unchanged across the 0.3.0 API cleanup.
///
/// # Example
///
/// ```
/// use ctjam_core::env::EnvParams;
/// use ctjam_core::defender::RandomFh;
/// use ctjam_core::runner::RunBuilder;
/// use rand::rngs::StdRng;
/// use rand::SeedableRng;
///
/// let params = EnvParams::default();
/// let mut rng = StdRng::seed_from_u64(42);
/// let mut defender = RandomFh::new(&params, &mut rng);
/// let report = RunBuilder::new(&params).run(&mut defender, 1_000, &mut rng);
/// assert_eq!(report.metrics.slots(), 1_000);
/// ```
#[derive(Debug)]
pub struct RunBuilder<'a, S: EventSink = NullSink, F: FaultPoint = NullFaultPlan> {
    params: &'a EnvParams,
    sink: Option<&'a mut S>,
    fault: Option<&'a mut F>,
    threads: Option<usize>,
    kernel: bool,
    adversary: Option<AdversaryConfig>,
    budget: SweepBudget,
    base_seed: u64,
}

impl<'a> RunBuilder<'a, NullSink, NullFaultPlan> {
    /// Starts a builder over `params` with no telemetry, no fault
    /// injection, the concrete environment, default sweep budget/seed,
    /// and automatic sweep threading.
    pub fn new(params: &'a EnvParams) -> Self {
        RunBuilder {
            params,
            sink: None,
            fault: None,
            threads: None,
            kernel: false,
            adversary: None,
            budget: SweepBudget::default(),
            base_seed: 0,
        }
    }
}

impl<'a, S: EventSink, F: FaultPoint> RunBuilder<'a, S, F> {
    /// Attaches a telemetry sink: the run emits one
    /// [`ctjam_telemetry::SlotEvent`] per slot and, for learning
    /// defenders, one [`TrainEvent`] per slot in which a gradient step
    /// ran. Sweeps run their points in parallel and ignore the sink.
    pub fn sink<S2: EventSink>(self, sink: &'a mut S2) -> RunBuilder<'a, S2, F> {
        RunBuilder {
            params: self.params,
            sink: Some(sink),
            fault: self.fault,
            threads: self.threads,
            kernel: self.kernel,
            adversary: self.adversary,
            budget: self.budget,
            base_seed: self.base_seed,
        }
    }

    /// Attaches a fault-injection plan (chaos testing,
    /// `tests/chaos.rs`): the run draws the plan's schedule at every
    /// fault site wired into the slot loop and the DQN training path,
    /// and the report's [`EpisodeReport::health`] accounts for what
    /// fired. Runs without a plan (or with a zero-rate plan) are
    /// bit-exact with the plain path; sweeps ignore the plan.
    pub fn fault_plan<F2: FaultPoint>(self, fault: &'a mut F2) -> RunBuilder<'a, S, F2> {
        RunBuilder {
            params: self.params,
            sink: self.sink,
            fault: Some(fault),
            threads: self.threads,
            kernel: self.kernel,
            adversary: self.adversary,
            budget: self.budget,
            base_seed: self.base_seed,
        }
    }

    /// Sets the worker-thread count for [`RunBuilder::sweep`] (default:
    /// available parallelism, capped at the point count). Results never
    /// depend on this — `tests/determinism.rs` asserts 1-thread and
    /// N-thread sweeps agree bit-exactly.
    #[must_use]
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = Some(threads);
        self
    }

    /// Selects the environment flavour: `true` for the MDP-kernel
    /// environment (the paper's Matlab simulation setting, Figs. 6–8),
    /// `false` (default) for the concrete slot-level simulator.
    #[must_use]
    pub fn kernel(mut self, kernel: bool) -> Self {
        self.kernel = kernel;
        self
    }

    /// Overrides the adversary the fresh environment is built against
    /// ([`RunBuilder::run`]/[`train`](RunBuilder::train)/
    /// [`evaluate`](RunBuilder::evaluate)), leaving every other
    /// parameter of `params` in force. Without this the builder uses
    /// `params.adversary` as-is. Existing environments
    /// ([`RunBuilder::run_in`]) and sweeps (each point carries its own
    /// params) are unaffected.
    #[must_use]
    pub fn adversary(mut self, adversary: AdversaryConfig) -> Self {
        self.adversary = Some(adversary);
        self
    }

    /// Sets the per-point train/evaluate budget for
    /// [`RunBuilder::sweep`].
    #[must_use]
    pub fn budget(mut self, budget: SweepBudget) -> Self {
        self.budget = budget;
        self
    }

    /// Sets the base seed from which [`RunBuilder::sweep`] derives every
    /// point's own RNG via [`point_seed`] (default 0).
    #[must_use]
    pub fn seed(mut self, base_seed: u64) -> Self {
        self.base_seed = base_seed;
        self
    }

    /// Drives `defender` against an existing environment for `slots`
    /// slots: a concrete, kernel or field environment, or any other
    /// [`Environment`].
    pub fn run_in<E, D, R>(
        self,
        env: &mut E,
        defender: &mut D,
        slots: usize,
        rng: &mut R,
    ) -> EpisodeReport
    where
        E: Environment + ?Sized,
        D: Defender + ?Sized,
        R: Rng,
    {
        match (self.sink, self.fault) {
            (Some(sink), Some(fault)) => run_loop(env, defender, slots, rng, sink, fault),
            (Some(sink), None) => run_loop(env, defender, slots, rng, sink, &mut NullFaultPlan),
            (None, Some(fault)) => run_loop(env, defender, slots, rng, &mut NullSink, fault),
            (None, None) => run_loop(env, defender, slots, rng, &mut NullSink, &mut NullFaultPlan),
        }
    }

    /// Runs `defender` against a fresh environment (concrete by default,
    /// MDP-kernel after [`RunBuilder::kernel`]).
    pub fn run<D, R>(self, defender: &mut D, slots: usize, rng: &mut R) -> EpisodeReport
    where
        D: Defender + ?Sized,
        R: Rng,
    {
        let params = match &self.adversary {
            Some(adversary) => EnvParams {
                adversary: adversary.clone(),
                ..self.params.clone()
            },
            None => self.params.clone(),
        };
        if self.kernel {
            let mut env = KernelEnv::new(params, rng);
            self.run_in(&mut env, defender, slots, rng)
        } else {
            let mut env = CompetitionEnv::new(params, rng);
            self.run_in(&mut env, defender, slots, rng)
        }
    }

    /// Trains a DQN defender for `slots` slots (learning enabled) against
    /// a fresh environment.
    pub fn train<R: Rng>(
        self,
        defender: &mut DqnDefender,
        slots: usize,
        rng: &mut R,
    ) -> EpisodeReport {
        defender.set_training(true);
        self.run(defender, slots, rng)
    }

    /// Evaluates any defender for `slots` slots against a fresh
    /// environment. (For a DQN defender, freeze learning and exploration
    /// first with `set_training(false)`.)
    pub fn evaluate<D, R>(self, defender: &mut D, slots: usize, rng: &mut R) -> EpisodeReport
    where
        D: Defender + ?Sized,
        R: Rng,
    {
        self.run(defender, slots, rng)
    }

    /// Runs one sweep point (train + evaluate a fresh paper-default DQN)
    /// for each parameterization in `points`, in parallel across the
    /// configured thread count, on the configured environment flavour.
    ///
    /// Each point is seeded deterministically from the configured base
    /// seed and the point index ([`point_seed`]), so results are
    /// reproducible regardless of scheduling. The builder's own `params`
    /// are not consulted — every point carries its own. `f` is invoked
    /// with each finished point's index and report (from a worker
    /// thread).
    pub fn sweep<G>(self, points: &[EnvParams], f: G) -> Vec<Metrics>
    where
        G: Fn(usize, &EpisodeReport) + Sync,
    {
        if points.is_empty() {
            return Vec::new();
        }
        let threads = self
            .threads
            .unwrap_or_else(|| default_sweep_threads(points.len()));
        let kernel = self.kernel;
        let budget = self.budget;
        let base_seed = self.base_seed;
        crate::pool::parallel_map(points, threads, &|index: usize, params: &EnvParams| {
            let mut rng = StdRng::seed_from_u64(point_seed(base_seed, index));
            let (_, report) = if kernel {
                train_and_evaluate_kernel(params, budget.train_slots, budget.eval_slots, &mut rng)
            } else {
                train_and_evaluate(params, budget.train_slots, budget.eval_slots, &mut rng)
            };
            f(index, &report);
            report.metrics
        })
    }
}

/// The workspace's one slot loop. Its only caller is
/// [`RunBuilder::run_in`], which every runner entry point funnels into,
/// whatever the [`Environment`] (concrete, kernel or field). Per slot it
/// calls [`Defender::decide`], then [`Defender::decoy`], then
/// [`Environment::step_with_decoy`], then
/// [`Defender::feedback_with_fault`]. It emits one
/// [`ctjam_telemetry::SlotEvent`] per slot and, for learning defenders,
/// one [`TrainEvent`] per slot in which a gradient step ran.
///
/// Monomorphised over [`NullSink`] and [`NullFaultPlan`] this is exactly
/// the uninstrumented loop (every sink hook is an empty default body,
/// every fault branch is behind a constant-`false` `is_enabled`).
///
/// With an enabled fault plan the loop draws two sites per slot:
///
/// * [`FaultSite::DeadlineOverrun`] — the defender's decision misses the
///   slot deadline; the radio repeats the *previous* slot's decision.
///   `decide` still runs (the defender burned its compute; its RNG
///   stream advances exactly as on the plain path) but its output is
///   discarded for that slot.
/// * [`FaultSite::SinkWrite`] — a telemetry write fails. The sink is
///   demoted for the rest of the run (the degradation the chaos harness
///   asserts is graceful: the run itself must finish unharmed), and the
///   demotion is accounted in [`RunHealth`].
fn run_loop<E, D, R, S, F>(
    env: &mut E,
    defender: &mut D,
    slots: usize,
    rng: &mut R,
    sink: &mut S,
    fault: &mut F,
) -> EpisodeReport
where
    E: Environment + ?Sized,
    D: Defender + ?Sized,
    R: Rng,
    S: EventSink,
    F: FaultPoint,
{
    let mut metrics = Metrics::new();
    let mut total_reward = 0.0;
    let mut health = RunHealth::clean();
    let fired_at_entry = fault.total_fired();
    let replay_corrupt_at_entry = fault.fired(FaultSite::ReplayCorruption);
    let skipped_at_entry = defender.probe().skipped_train_steps.unwrap_or(0);
    let mut seen_train_steps = defender.probe().train_steps.unwrap_or(0);
    let mut prev_decision: Option<crate::env::Decision> = None;
    for slot in 0..slots {
        let mut decision = defender.decide(rng);
        if fault.is_enabled() && fault.should_fire(FaultSite::DeadlineOverrun) {
            health.deadline_overruns += 1;
            // The fresh decision missed the deadline: the radio repeats
            // the previous slot's configuration (first slot: nothing to
            // repeat, the fresh decision stands).
            if let Some(prev) = prev_decision {
                decision = prev;
            }
        }
        prev_decision = Some(decision);
        // Decoy draws happen after the decision, before the environment
        // resolves the slot; the default (no decoy) draws nothing, so
        // decoy-free runs are bit-exact with pre-0.3.0 ones.
        let decoy = defender.decoy(rng);
        let result = env.step_with_decoy(decision, decoy, rng);
        defender.feedback_with_fault(&result, rng, fault);
        metrics.record(&result);
        total_reward += result.reward;
        if !health.sink_demoted {
            if fault.is_enabled() && fault.should_fire(FaultSite::SinkWrite) {
                // A failed telemetry write demotes the sink to a null
                // sink for the rest of the run: telemetry is best-effort,
                // the run itself must not die with it.
                health.sink_write_failures += 1;
                health.sink_demoted = true;
            } else {
                sink.record_slot(&result.telemetry_event(slot as u64));
            }
        }
        let probe = defender.probe();
        if let Some(epsilon) = probe.epsilon {
            // Attribute a loss to this slot only if feedback actually
            // performed a gradient step (train_steps advanced).
            let train_steps = probe.train_steps.unwrap_or(0);
            let loss = (train_steps > seen_train_steps)
                .then_some(probe.last_loss)
                .flatten();
            seen_train_steps = train_steps;
            if !health.sink_demoted {
                sink.record_train(&TrainEvent {
                    step: slot as u64,
                    loss,
                    epsilon,
                    replay_len: probe.replay_len.unwrap_or(0),
                    replay_capacity: probe.replay_capacity.unwrap_or(0),
                });
            }
        }
    }
    health.skipped_train_steps =
        (defender.probe().skipped_train_steps.unwrap_or(0) - skipped_at_entry) as u64;
    health.corrupted_replay_entries =
        fault.fired(FaultSite::ReplayCorruption) - replay_corrupt_at_entry;
    health.faults_fired = fault.total_fired() - fired_at_entry;
    EpisodeReport {
        metrics,
        total_reward,
        health,
    }
}

/// Evaluates any defender greedily for `slots` slots. For a DQN defender
/// this freezes learning and exploration first.
pub fn evaluate<D: Defender + ?Sized, R: Rng>(
    params: &EnvParams,
    defender: &mut D,
    slots: usize,
    rng: &mut R,
) -> EpisodeReport {
    RunBuilder::new(params).evaluate(defender, slots, rng)
}

/// Trains a fresh paper-default DQN on the concrete environment and
/// evaluates it.
///
/// Returns `(trained defender, evaluation report)`.
pub fn train_and_evaluate<R: Rng>(
    params: &EnvParams,
    train_slots: usize,
    eval_slots: usize,
    rng: &mut R,
) -> (DqnDefender, EpisodeReport) {
    let mut defender = DqnDefender::paper_default(params, rng);
    RunBuilder::new(params).train(&mut defender, train_slots, rng);
    defender.set_training(false);
    let report = RunBuilder::new(params).evaluate(&mut defender, eval_slots, rng);
    (defender, report)
}

/// Trains a fresh paper-default DQN on the **MDP-kernel** environment
/// (the paper's Matlab simulation setting) and evaluates it — the unit of
/// work behind every Fig. 6–8 data point.
///
/// Returns `(trained defender, evaluation report)`.
pub fn train_and_evaluate_kernel<R: Rng>(
    params: &EnvParams,
    train_slots: usize,
    eval_slots: usize,
    rng: &mut R,
) -> (DqnDefender, EpisodeReport) {
    let mut defender = DqnDefender::paper_default(params, rng);
    RunBuilder::new(params)
        .kernel(true)
        .train(&mut defender, train_slots, rng);
    defender.set_training(false);
    let report = RunBuilder::new(params)
        .kernel(true)
        .evaluate(&mut defender, eval_slots, rng);
    (defender, report)
}

/// A budget for sweep experiments: training and evaluation slots per
/// data point.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SweepBudget {
    /// Training slots per data point.
    pub train_slots: usize,
    /// Evaluation slots per data point (paper: 20 000).
    pub eval_slots: usize,
}

impl Default for SweepBudget {
    fn default() -> Self {
        SweepBudget {
            train_slots: 12_000,
            eval_slots: 20_000,
        }
    }
}

/// The per-point RNG seed of a sweep: every point of a sweep with
/// `base_seed` derives its own `StdRng` from this value, so any point can
/// be re-run bit-exactly in isolation (see [`replay`]).
pub fn point_seed(base_seed: u64, index: usize) -> u64 {
    base_seed ^ (index as u64).wrapping_mul(0x9E37_79B9)
}

fn default_sweep_threads(points: usize) -> usize {
    crate::pool::available_threads().min(points.max(1))
}

/// Builds the replay trace of a sweep without running it: one
/// [`EpisodeRecord`] per point, carrying the exact seed and slot budget
/// that [`RunBuilder::sweep`] would use. Because sweep seeding is a
/// pure function of `(base_seed, index)`, capture costs nothing and can
/// be written next to the results before the sweep even starts.
pub fn capture_sweep(
    run: &str,
    points: &[EnvParams],
    budget: SweepBudget,
    base_seed: u64,
) -> ReplayTrace {
    let config = points
        .first()
        .map_or_else(String::new, |p| format!("{p:?}"));
    let mut trace = ReplayTrace::new(run, base_seed, &config);
    for (index, params) in points.iter().enumerate() {
        trace.push(EpisodeRecord {
            index,
            label: format!(
                "{run}[{index}]: {} ch, L_J={}",
                params.num_channels(),
                params.l_j
            ),
            seed: point_seed(base_seed, index),
            train_slots: budget.train_slots,
            eval_slots: budget.eval_slots,
        });
    }
    trace
}

/// Re-runs one captured sweep point bit-exactly on the concrete
/// environment: same seed, same budget → identical [`Metrics`] to the
/// original sweep's point (asserted by `tests/determinism.rs`).
pub fn replay(params: &EnvParams, record: &EpisodeRecord) -> EpisodeReport {
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    let mut rng = StdRng::seed_from_u64(record.seed);
    let (_, report) = train_and_evaluate(params, record.train_slots, record.eval_slots, &mut rng);
    report
}

/// [`replay`] for MDP-kernel sweeps ([`RunBuilder::kernel`]).
pub fn replay_kernel(params: &EnvParams, record: &EpisodeRecord) -> EpisodeReport {
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    let mut rng = StdRng::seed_from_u64(record.seed);
    let (_, report) =
        train_and_evaluate_kernel(params, record.train_slots, record.eval_slots, &mut rng);
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::defender::{NoDefense, PassiveFh, RandomFh};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng(seed: u64) -> StdRng {
        StdRng::seed_from_u64(seed)
    }

    #[test]
    fn run_accumulates_requested_slots() {
        let params = EnvParams::default();
        let mut r = rng(0);
        let mut defender = PassiveFh::new(&params, &mut r);
        let report = RunBuilder::new(&params).run(&mut defender, 500, &mut r);
        assert_eq!(report.metrics.slots(), 500);
        assert!(report.total_reward < 0.0, "losses are negative");
        assert!(report.mean_reward() < 0.0);
    }

    #[test]
    fn baseline_ordering_random_beats_passive_beats_nothing() {
        // Fig. 11(a)'s qualitative ordering on the slot level.
        let params = EnvParams::default();
        let mut r = rng(1);
        let mut none = NoDefense::new(&params, &mut r);
        let mut psv = PassiveFh::new(&params, &mut r);
        let mut rnd = RandomFh::new(&params, &mut r);
        let st_none = RunBuilder::new(&params)
            .run(&mut none, 6_000, &mut r)
            .metrics
            .success_rate();
        let st_psv = RunBuilder::new(&params)
            .run(&mut psv, 6_000, &mut r)
            .metrics
            .success_rate();
        let st_rnd = RunBuilder::new(&params)
            .run(&mut rnd, 6_000, &mut r)
            .metrics
            .success_rate();
        assert!(st_psv > st_none, "passive {st_psv} vs none {st_none}");
        assert!(st_rnd > st_psv, "random {st_rnd} vs passive {st_psv}");
    }

    #[test]
    fn sweep_is_deterministic_given_seed() {
        let params = vec![EnvParams::default(); 2];
        let budget = SweepBudget {
            train_slots: 200,
            eval_slots: 200,
        };
        let a = RunBuilder::new(&params[0])
            .budget(budget)
            .seed(7)
            .sweep(&params, |_, _| {});
        let b = RunBuilder::new(&params[0])
            .budget(budget)
            .seed(7)
            .sweep(&params, |_, _| {});
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.success_rate(), y.success_rate());
        }
    }

    #[test]
    fn zero_rate_fault_plan_is_bit_exact_with_the_plain_run() {
        use ctjam_fault::{FaultPlan, FaultRates};
        let params = EnvParams::default();

        let mut r1 = rng(9);
        let mut d1 = crate::defender::DqnDefender::small_for_tests(&params, &mut r1);
        let plain = RunBuilder::new(&params).run(&mut d1, 800, &mut r1);

        let mut r2 = rng(9);
        let mut d2 = crate::defender::DqnDefender::small_for_tests(&params, &mut r2);
        let mut plan = FaultPlan::new(123, FaultRates::zero());
        let faulted = RunBuilder::new(&params)
            .fault_plan(&mut plan)
            .run(&mut d2, 800, &mut r2);

        assert_eq!(plain, faulted);
        assert!(faulted.health.is_clean());
        // The main RNG streams stayed aligned past the run.
        assert_eq!(r1.gen::<u64>(), r2.gen::<u64>());
    }

    #[test]
    fn deadline_overruns_repeat_the_previous_decision() {
        use ctjam_fault::{FaultPlan, FaultRates, FaultSite};
        let params = EnvParams::default();
        let mut r = rng(10);
        let mut defender = RandomFh::new(&params, &mut r);
        let mut plan = FaultPlan::new(7, FaultRates::zero().with(FaultSite::DeadlineOverrun, 1.0));
        let report = RunBuilder::new(&params)
            .fault_plan(&mut plan)
            .run(&mut defender, 300, &mut r);
        assert_eq!(report.metrics.slots(), 300, "run must survive overruns");
        assert_eq!(report.health.deadline_overruns, 300);
        assert_eq!(report.health.faults_fired, 300);
        assert!(!report.health.is_clean());
    }

    #[test]
    fn failed_sink_write_demotes_to_null_for_the_rest_of_the_run() {
        use ctjam_fault::{FaultPlan, FaultRates, FaultSite};
        use ctjam_telemetry::MemorySink;
        let params = EnvParams::default();
        let mut r = rng(11);
        let mut defender = PassiveFh::new(&params, &mut r);
        let mut sink = MemorySink::new();
        let mut plan = FaultPlan::new(5, FaultRates::zero().with(FaultSite::SinkWrite, 1.0));
        let report = RunBuilder::new(&params)
            .sink(&mut sink)
            .fault_plan(&mut plan)
            .run(&mut defender, 100, &mut r);
        assert_eq!(report.metrics.slots(), 100, "run must survive the sink");
        assert!(report.health.sink_demoted);
        assert_eq!(
            report.health.sink_write_failures, 1,
            "demotion is permanent — exactly one failed write"
        );
        assert!(sink.slots.is_empty(), "no event reached the failed sink");
    }

    #[test]
    fn sweep_with_empty_points_returns_empty() {
        let out = RunBuilder::new(&EnvParams::default())
            .threads(0)
            .sweep(&[], |_, _| {});
        assert!(out.is_empty());
    }

    #[test]
    fn adversary_override_swaps_the_opponent_only() {
        use crate::adversary::AdversaryConfig;
        // The unprotected floor survives every slot once the builder
        // swaps the default sweep jammer out for no adversary at all.
        let params = EnvParams::default();
        let mut r = rng(12);
        let mut defender = NoDefense::new(&params, &mut r);
        let report = RunBuilder::new(&params)
            .adversary(AdversaryConfig::none())
            .run(&mut defender, 400, &mut r);
        assert_eq!(report.metrics.success_rate(), 1.0);
    }

    #[test]
    fn decoys_bait_a_reactive_jammer_off_the_victim() {
        use crate::adversary::AdversaryConfig;
        use crate::defender::WithDecoys;
        let params = EnvParams {
            adversary: AdversaryConfig::reactive(0.0),
            ..EnvParams::default()
        };

        let mut r = rng(13);
        let mut plain = NoDefense::new(&params, &mut r);
        let st_plain = RunBuilder::new(&params)
            .run(&mut plain, 400, &mut r)
            .metrics
            .success_rate();

        let mut r = rng(13);
        let inner = NoDefense::new(&params, &mut r);
        let mut baited = WithDecoys::new(inner, 1.0, &params);
        let report = RunBuilder::new(&params).run(&mut baited, 400, &mut r);
        let st_baited = report.metrics.success_rate();

        assert!(
            st_baited > st_plain + 0.3,
            "decoys must draw the reactive jammer away: {st_baited} vs {st_plain}"
        );
        // Every slot paid the fake-transmission cost on top of tx power.
        assert!(report.total_reward <= -(400.0 * params.l_decoy));
    }

    #[test]
    fn sweep_with_zero_threads_matches_sequential() {
        let points = vec![EnvParams::default(); 2];
        let budget = SweepBudget {
            train_slots: 150,
            eval_slots: 150,
        };
        let zero = RunBuilder::new(&points[0])
            .budget(budget)
            .seed(3)
            .threads(0)
            .sweep(&points, |_, _| {});
        let one = RunBuilder::new(&points[0])
            .budget(budget)
            .seed(3)
            .threads(1)
            .sweep(&points, |_, _| {});
        assert_eq!(zero, one);
    }
}
