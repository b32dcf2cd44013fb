//! `repro_sweep`: the unit of work behind Figs. 6–8 at the paper's
//! budget — one 16-point kernel sweep (the 8 L_J values × both jammer
//! modes of `scenarios/fig06_07_08_sweeps.json`), each point training a
//! fresh DQN for 12 000 slots and evaluating it for 20 000.

use crate::stats::{median, throughput, Digest};
use crate::trace::{self, Traced, TracedDefender};
use crate::{repeat_setup, Ctx, Outcome};
use ctjam_core::defender::DqnDefender;
use ctjam_core::env::EnvParams;
use ctjam_core::kernel::KernelEnv;
use ctjam_core::metrics::Metrics;
use ctjam_core::runner::{
    point_seed, train_and_evaluate_kernel, EpisodeReport, RunBuilder, SweepBudget,
};
use ctjam_dqn::agent::DqnAgent;
use ctjam_nn::batch::Batch;
use ctjam_nn::mlp::BatchScratch;
use ctjam_nn::optimizer::Optimizer;
use ctjam_scenario::compile::apply_mode;
use ctjam_scenario::{Scenario, ScenarioKind};
use ctjam_telemetry::RunHealth;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::HashMap;
use std::sync::Mutex;
use std::thread::ThreadId;
use std::time::Instant;

const SCENARIO: &str = "scenarios/fig06_07_08_sweeps.json";

/// Gradient steps timed per traced point, whole and by phase.
const PHASE_STEPS: usize = 2_000;

/// The sweep: its points (L_J values × jammer modes, mode-major) and
/// per-point budget. Quick mode keeps two L_J values and the
/// scenario's quick budget.
fn sweep_points(quick: bool) -> Result<(Vec<EnvParams>, SweepBudget), String> {
    let scenario = Scenario::load(std::path::Path::new(SCENARIO))
        .map_err(|e| format!("{SCENARIO}: {e}"))?
        .effective(quick);
    let ScenarioKind::Sweep(sweep) = scenario.kind else {
        return Err(format!("{SCENARIO} is not a sweep scenario"));
    };
    let table = sweep
        .tables()
        .into_iter()
        .find(|t| t.name == "L_J")
        .ok_or_else(|| format!("{SCENARIO} has no L_J axis"))?;
    let values = if quick { 2 } else { table.points.len() };
    let mut points = Vec::new();
    for mode in sweep.jammer_modes() {
        points.extend(apply_mode(&table.points[..values], mode));
    }
    Ok((points, sweep.budget()))
}

fn metrics_digest(metrics: &[Metrics]) -> String {
    let mut d = Digest::default();
    for m in metrics {
        for field in m.to_array() {
            d.u64(field);
        }
    }
    d.hex()
}

/// Runs the sweep; besides each point's metrics and health, returns
/// each point's duration: the time between consecutive completions on
/// the worker thread that ran it.
fn sweep(
    points: &[EnvParams],
    budget: SweepBudget,
    seed: u64,
    threads: usize,
) -> (Vec<Metrics>, Vec<RunHealth>, Vec<f64>) {
    let start = Instant::now();
    let last_done: Mutex<HashMap<ThreadId, Instant>> = Mutex::new(HashMap::new());
    let per_point = Mutex::new(vec![(RunHealth::clean(), 0.0); points.len()]);
    let metrics = RunBuilder::new(&points[0])
        .kernel(true)
        .budget(budget)
        .seed(seed)
        .threads(threads)
        .sweep(points, |i, report| {
            let now = Instant::now();
            let previous = last_done
                .lock()
                .expect("completion table poisoned")
                .insert(std::thread::current().id(), now)
                .unwrap_or(start);
            per_point.lock().expect("point table poisoned")[i] =
                (report.health, (now - previous).as_secs_f64());
        });
    let (health, durations) = per_point
        .into_inner()
        .expect("point table poisoned")
        .into_iter()
        .unzip();
    (metrics, health, durations)
}

/// Set-up: load and compile the scenario, then warm caches and the
/// thread pool with a short sweep over one point per jammer mode.
fn setup(ctx: &Ctx) -> Result<(Vec<EnvParams>, SweepBudget, String), String> {
    let (points, budget) = sweep_points(ctx.quick)?;
    let half = points.len() / 2;
    let warm = [points[0].clone(), points[half].clone()];
    let warm_budget = SweepBudget {
        train_slots: budget.train_slots.min(2_000),
        eval_slots: budget.eval_slots.min(2_000),
    };
    let (metrics, _, _) = sweep(&warm, warm_budget, ctx.seed, ctx.threads);
    Ok((points, budget, metrics_digest(&metrics)))
}

/// The untraced run: the whole sweep is the timed window.
pub fn run(ctx: &Ctx, out: &mut Outcome) {
    let prepared = repeat_setup(
        ctx,
        out,
        || setup(ctx),
        |r| match r {
            Ok(s) => s.2.clone(),
            Err(e) => e.clone(),
        },
        |_| {},
    );
    let (points, budget, _) = match prepared {
        Ok(p) => p,
        Err(e) => return out.fail(e),
    };
    out.config = format!(
        "repro_sweep points={} budget={budget:?} threads={}",
        points.len(),
        ctx.threads
    );

    let start = Instant::now();
    let (metrics, health, durations) = sweep(&points, budget, ctx.seed, ctx.threads);
    let wall = start.elapsed().as_secs_f64();

    let slots_per_point = (budget.train_slots + budget.eval_slots) as f64;
    out.attempted = points.len() as u64;
    out.failed = health.iter().filter(|h| !h.is_clean()).count() as u64;
    out.check(metrics.len() == points.len(), || {
        "sweep returned a metrics block per point".into()
    });
    for (i, m) in metrics.iter().enumerate() {
        out.check(m.slots() == budget.eval_slots as u64, || {
            format!("point {i} evaluated every slot")
        });
        out.check(m.success_rate().is_finite(), || {
            format!("point {i} has a finite success rate")
        });
    }
    out.digests
        .push(("outputs".into(), metrics_digest(&metrics)));
    let rates: Vec<f64> = durations
        .iter()
        .map(|d| ctx.threads as f64 * slots_per_point / d)
        .collect();
    out.throughput_per_s = throughput("repro_sweep", &rates);
    eprintln!(
        "repro_sweep: {} points in {wall:.3} s wall ({:.0} slots/s), median point {:.3} s",
        points.len(),
        points.len() as f64 * slots_per_point / wall,
        median(&durations)
    );
    out.peak_rss_mb = crate::sys::peak_rss_mb(None).unwrap_or(f64::NAN);
}

/// Per-layer timings of one traced point.
struct PointTrace {
    train_wall_s: f64,
    eval_wall_s: f64,
    untraced_wall_s: f64,
    train: trace::Trace,
    eval: trace::Trace,
    phases: trace::Trace,
    agent: DqnAgent,
}

/// Replays sweep point `index` through the traced wrappers — the same
/// calls and RNG draws as `train_and_evaluate_kernel` — and checks the
/// evaluation is bit-identical to the untraced replay.
fn trace_point(
    ctx: &Ctx,
    out: &mut Outcome,
    params: &EnvParams,
    budget: SweepBudget,
    index: usize,
) -> PointTrace {
    let seed = point_seed(ctx.seed, index);
    let start = Instant::now();
    let (_, untraced) = train_and_evaluate_kernel(
        params,
        budget.train_slots,
        budget.eval_slots,
        &mut StdRng::seed_from_u64(seed),
    );
    let untraced_wall_s = start.elapsed().as_secs_f64();

    let mut rng = StdRng::seed_from_u64(seed);
    let mut defender = TracedDefender(DqnDefender::paper_default(params, &mut rng));
    defender.0.set_training(true);
    trace::take();
    let start = Instant::now();
    let mut env = Traced(KernelEnv::new(params.clone(), &mut rng));
    RunBuilder::new(params).run_in(&mut env, &mut defender, budget.train_slots, &mut rng);
    let train_wall_s = start.elapsed().as_secs_f64();
    let train = trace::take();

    defender.0.set_training(false);
    let start = Instant::now();
    let mut env = Traced(KernelEnv::new(params.clone(), &mut rng));
    let traced: EpisodeReport =
        RunBuilder::new(params).run_in(&mut env, &mut defender, budget.eval_slots, &mut rng);
    let eval_wall_s = start.elapsed().as_secs_f64();
    let eval = trace::take();

    out.check(
        traced.metrics == untraced.metrics
            && traced.total_reward.to_bits() == untraced.total_reward.to_bits(),
        || format!("traced point {index} matches the untraced replay bit for bit"),
    );
    let agent = defender.0.agent().clone();
    let phases = time_phases(
        &agent,
        ctx.seed ^ index as u64,
        if ctx.quick { 200 } else { PHASE_STEPS },
    );
    PointTrace {
        train_wall_s,
        eval_wall_s,
        untraced_wall_s,
        train,
        eval,
        phases,
        agent,
    }
}

/// Times `train_step` on a clone of the trained agent, alternating with
/// the same step taken phase by phase through direct calls into the
/// replay buffer, the networks and the optimizer on a second copy. Both
/// draw the same minibatches from the full replay the training left
/// behind, so the two timings see the same work and the same machine.
fn time_phases(agent: &DqnAgent, seed: u64, steps: usize) -> trace::Trace {
    let mut whole_rng = StdRng::seed_from_u64(seed);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut whole = agent.clone();
    let config = agent.config();
    let replay = agent.replay();
    let mut online = agent.network().clone();
    let target = agent.target_network().clone();
    let mut optimizer = agent.optimizer().clone();
    let mut online_scratch = BatchScratch::for_network(&online);
    let mut aux = BatchScratch::for_network(&online);
    let (mut states, mut next_states) = (
        Batch::with_cols(online.input_size()),
        Batch::with_cols(online.input_size()),
    );
    let mut targets = Batch::with_cols(online.output_size());
    let (mut actions, mut rewards, mut params) = (Vec::new(), Vec::new(), Vec::new());
    for _ in 0..steps {
        {
            let _s = trace::span("dqn.train_step");
            std::hint::black_box(whole.train_step(&mut whole_rng));
        }
        let _step = trace::span("dqn.train_step.phases");
        {
            let _s = trace::span("replay.sample_into");
            replay.sample_into(
                config.batch_size,
                &mut states,
                &mut actions,
                &mut rewards,
                &mut next_states,
                &mut rng,
            );
        }
        {
            let _s = trace::span("nn.online_forward");
            online.forward_batch(&states, &mut online_scratch);
            targets.copy_from(online_scratch.output());
        }
        let next_q = {
            let _s = trace::span("nn.target_forward");
            target.forward_batch(&next_states, &mut aux)
        };
        for s in 0..states.rows() {
            let best = next_q
                .row(s)
                .iter()
                .copied()
                .fold(f64::NEG_INFINITY, f64::max);
            targets.row_mut(s)[actions[s]] = rewards[s] + config.gamma * best;
        }
        {
            let _s = trace::span("nn.backward");
            std::hint::black_box(online.backward_batch(&targets, &mut online_scratch));
        }
        {
            let _s = trace::span("nn.param_copy");
            online.flatten_params_into(&mut params);
        }
        {
            let _s = trace::span("nn.adam_step");
            optimizer.step(&mut params, online_scratch.gradient());
        }
        let _s = trace::span("nn.param_copy");
        online.set_params(&params);
    }
    trace::take()
}

/// The traced run: two points (one per jammer mode) replayed through
/// the wrappers, plus per-phase timings of `train_step`.
pub fn run_traced(ctx: &Ctx, out: &mut Outcome) {
    let (points, budget) = match sweep_points(ctx.quick) {
        Ok(p) => p,
        Err(e) => return out.fail(e),
    };
    out.config = format!(
        "repro_sweep traced points={} budget={budget:?}",
        points.len()
    );
    let half = points.len() / 2;
    // L_J = 100 (the paper default) under each jammer mode.
    let picks = [half - 1, points.len() - 1];
    let mut train = trace::Trace::default();
    let mut eval = trace::Trace::default();
    let mut phases = trace::Trace::default();
    let (mut train_wall, mut eval_wall, mut untraced_wall) = (0.0, 0.0, 0.0);
    let (mut train_steps, mut syncs) = (0usize, 0usize);
    for &index in &picks {
        let p = trace_point(ctx, out, &points[index], budget, index);
        train_wall += p.train_wall_s;
        eval_wall += p.eval_wall_s;
        untraced_wall += p.untraced_wall_s;
        train_steps += p.agent.train_steps();
        syncs += p.agent.steps() / p.agent.config().target_sync_interval;
        train.absorb(&p.train);
        eval.absorb(&p.eval);
        phases.absorb(&p.phases);
        out.traces
            .push((format!("repro.point{index}.train"), p.train));
        out.traces
            .push((format!("repro.point{index}.eval"), p.eval));
        out.traces
            .push((format!("repro.point{index}.phases"), p.phases));
    }
    out.attempted = picks.len() as u64;

    let mut slots = trace::Trace::default();
    slots.absorb(&train);
    slots.absorb(&eval);
    let layer_ns = |name: &str| slots.get(name).total_ns as f64;
    let covered =
        layer_ns("defender.decide") + layer_ns("env.step") + layer_ns("defender.feedback");
    let traced_wall = train_wall + eval_wall;
    let n = picks.len() as f64;
    let phase = |name: &str| phases.get(name).mean_ns();
    let phase_sum = phase("replay.sample_into")
        + phase("nn.online_forward")
        + phase("nn.target_forward")
        + phase("nn.backward")
        + phase("nn.adam_step")
        + phases.get("nn.param_copy").total_ns as f64
            / phases.get("dqn.train_step.phases").count as f64;
    let l = &mut out.layers;
    l.insert(
        "runner.train_slot_ns".into(),
        train_wall * 1e9 / (n * budget.train_slots as f64),
    );
    l.insert(
        "runner.eval_slot_ns".into(),
        eval_wall * 1e9 / (n * budget.eval_slots as f64),
    );
    l.insert("env.step_ns".into(), slots.get("env.step").mean_ns());
    l.insert(
        "defender.decide_ns".into(),
        slots.get("defender.decide").mean_ns(),
    );
    l.insert(
        "defender.feedback_ns".into(),
        slots.get("defender.feedback").mean_ns(),
    );
    l.insert(
        "defender.feedback_train_ns".into(),
        slots.get("defender.feedback_train").mean_ns(),
    );
    l.insert("dqn.train_steps".into(), train_steps as f64);
    l.insert("dqn.target_syncs".into(), syncs as f64);
    l.insert("dqn.train_step_ns".into(), phase("dqn.train_step"));
    l.insert("replay.sample_into_ns".into(), phase("replay.sample_into"));
    l.insert("nn.online_forward_ns".into(), phase("nn.online_forward"));
    l.insert("nn.target_forward_ns".into(), phase("nn.target_forward"));
    l.insert("nn.backward_ns".into(), phase("nn.backward"));
    l.insert("nn.adam_step_ns".into(), phase("nn.adam_step"));
    l.insert(
        "nn.param_copy_ns".into(),
        phases.get("nn.param_copy").total_ns as f64
            / phases.get("dqn.train_step.phases").count as f64,
    );
    l.insert(
        "dqn.train_step_coverage".into(),
        phase_sum / phase("dqn.train_step"),
    );
    l.insert("runner.coverage".into(), covered / (traced_wall * 1e9));
    l.insert(
        "trace_overhead_frac".into(),
        (traced_wall - untraced_wall) / untraced_wall,
    );
}
