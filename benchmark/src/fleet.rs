//! `fleet_zoo`: a shared-greedy campaign of the paper-shape policy
//! against the seven adversaries of `scenarios/zoo_campaign.json` ×
//! L_J ∈ {50, 100, 200}, with a checkpoint cycle midway: the campaign
//! stops, saves and reloads its progress, then resumes. No gradient
//! step runs here, so training changes must not move this workload.

use crate::stats::{median, mix, throughput, Digest};
use crate::trace::{self, Traced, TracedAdversary, TracedDefender};
use crate::{repeat_setup, Ctx, Outcome};
use ctjam_core::defender::DqnDefender;
use ctjam_core::env::{CompetitionEnv, EnvParams};
use ctjam_core::runner::{EpisodeReport, RunBuilder};
use ctjam_dqn::policy::GreedyPolicy;
use ctjam_fleet::{
    CampaignPolicy, CampaignProgress, CampaignResult, CampaignSpec, Fleet, SharedPolicyDefender,
};
use ctjam_scenario::{Scenario, ScenarioKind};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;
use std::time::Instant;

const SCENARIO: &str = "scenarios/zoo_campaign.json";

/// The zoo's adversaries in scenario order: label prefix, the span
/// their `jam` calls are recorded under, and the metric it feeds.
const ZOO: [(&str, &str, &str); 7] = [
    ("none", "adversary.jam.none", "adversary.jam_ns.none"),
    ("sweep", "adversary.jam.sweep", "adversary.jam_ns.sweep"),
    (
        "sweep-rnd",
        "adversary.jam.sweep-rnd",
        "adversary.jam_ns.sweep-rnd",
    ),
    (
        "reactive",
        "adversary.jam.reactive",
        "adversary.jam_ns.reactive",
    ),
    (
        "pursuit",
        "adversary.jam.pursuit",
        "adversary.jam_ns.pursuit",
    ),
    ("energy", "adversary.jam.energy", "adversary.jam_ns.energy"),
    (
        "adaptive",
        "adversary.jam.adaptive",
        "adversary.jam_ns.adaptive",
    ),
];

const L_J: [f64; 3] = [50.0, 100.0, 200.0];
const SLOTS: usize = 200;
/// Every this many episodes one is replayed through the wrappers.
const REPLICA_STRIDE: usize = 50;

/// Campaigns per run, each with its own base seed and checkpoint cycle;
/// their rates are the sub-windows of the throughput statistic.
fn rounds(ctx: &Ctx) -> usize {
    if ctx.quick {
        2
    } else {
        20
    }
}

/// Replicate seeds per grid point and campaign: sized so all rounds
/// together last about `seconds` at ~4 000 episodes/s on two threads.
fn replicates(ctx: &Ctx) -> usize {
    if ctx.quick {
        10
    } else {
        10 * ctx.seconds as usize
    }
}

/// Set-up: compile the grid and train the shared policy.
fn setup(ctx: &Ctx) -> Result<CampaignSpec, String> {
    let scenario =
        Scenario::load(std::path::Path::new(SCENARIO)).map_err(|e| format!("{SCENARIO}: {e}"))?;
    let ScenarioKind::Campaign(campaign) = scenario.kind else {
        return Err(format!("{SCENARIO} is not a campaign scenario"));
    };
    let labels_match = campaign.adversaries.len() == ZOO.len()
        && campaign
            .adversaries
            .iter()
            .zip(ZOO)
            .all(|(label, (prefix, _, _))| {
                label == prefix
                    || label.starts_with(&format!("{prefix}("))
                    || label.starts_with(&format!("{prefix}-"))
            });
    if !labels_match {
        return Err(format!(
            "{SCENARIO} adversaries {:?} are not the zoo this workload names",
            campaign.adversaries
        ));
    }
    let points: Vec<EnvParams> = campaign
        .points()
        .into_iter()
        .flat_map(|base| {
            L_J.map(|l_j| EnvParams {
                l_j,
                ..base.clone()
            })
        })
        .collect();

    let params = campaign.base_env();
    let mut rng = StdRng::seed_from_u64(mix(ctx.seed, 0xF1EE7));
    let mut defender = DqnDefender::paper_default(&params, &mut rng);
    let train_slots = if ctx.quick { 500 } else { 4_000 };
    let report = RunBuilder::new(&params).train(&mut defender, train_slots, &mut rng);
    if !report.health.is_clean() {
        return Err("policy training reported faults".into());
    }
    Ok(CampaignSpec {
        name: "fleet_zoo".into(),
        points,
        seeds: (0..replicates(ctx) as u64).collect(),
        policy: CampaignPolicy::SharedGreedy(Arc::new(GreedyPolicy::from_agent(defender.agent()))),
        slots: SLOTS,
        kernel: false,
        base_seed: ctx.seed,
        faults: None,
    })
}

/// One campaign of the timed window.
struct Round {
    spec: CampaignSpec,
    result: CampaignResult,
    wall_s: f64,
    save_ms: f64,
    load_ms: f64,
}

/// Runs `spec` with the checkpoint cycle: stop midway, save and reload
/// the progress, resume from the reloaded copy.
fn run_round(ctx: &Ctx, out: &mut Outcome, spec: CampaignSpec) -> Option<Round> {
    let fleet = Fleet::new().threads(ctx.threads);
    let ckpt = ctx
        .out
        .join(format!("fleet_zoo-{}.progress.ckpt", std::process::id()));
    let episodes = spec.episodes();
    let start = Instant::now();
    let progress = fleet.run_partial(&spec, episodes / 2);
    let save_start = Instant::now();
    let saved = progress.save(&ckpt);
    let save_ms = save_start.elapsed().as_secs_f64() * 1e3;
    let load_start = Instant::now();
    let loaded = CampaignProgress::load(&ckpt);
    let load_ms = load_start.elapsed().as_secs_f64() * 1e3;
    std::fs::remove_file(&ckpt).ok();
    let loaded = match (saved, loaded) {
        (Ok(()), Ok(loaded)) => loaded,
        (Err(e), _) | (_, Err(e)) => {
            out.fail(format!("progress checkpoint cycle failed: {e}"));
            return None;
        }
    };
    let result = fleet.resume(&spec, &loaded);
    let wall_s = start.elapsed().as_secs_f64();

    out.check(loaded == progress, || {
        "reloaded progress equals the saved progress".into()
    });
    out.check(result.outcomes.len() == episodes, || {
        "one outcome per episode".into()
    });
    out.check(
        result
            .outcomes
            .iter()
            .enumerate()
            .all(|(i, o)| o.episode == i as u64),
        || "outcomes cover the grid in order".into(),
    );
    let slots = (episodes * SLOTS) as u64;
    out.check(result.metrics.slots() == slots, || {
        "every slot of every episode was evaluated".into()
    });
    out.check(result.telemetry.slots == slots, || {
        "merged telemetry counts every slot".into()
    });
    Some(Round {
        spec,
        result,
        wall_s,
        save_ms,
        load_ms,
    })
}

pub fn run(ctx: &Ctx, out: &mut Outcome) {
    let base = match repeat_setup(
        ctx,
        out,
        || setup(ctx),
        |r| match r {
            Ok(spec) => format!("{:016x}", spec.fingerprint()),
            Err(e) => e.clone(),
        },
        |_| {},
    ) {
        Ok(spec) => spec,
        Err(e) => return out.fail(e),
    };
    out.config = format!(
        "fleet_zoo rounds={} episodes={} slots={SLOTS} threads={} fingerprint={:016x}",
        rounds(ctx),
        base.episodes(),
        ctx.threads,
        base.fingerprint()
    );
    let mut done = Vec::new();
    for r in 0..rounds(ctx) {
        let spec = CampaignSpec {
            base_seed: mix(ctx.seed, r as u64),
            ..base.clone()
        };
        match run_round(ctx, out, spec) {
            Some(round) => done.push(round),
            None => return,
        }
    }

    let mut digest = Digest::default();
    for round in &done {
        for g in round.result.goodput_vector() {
            digest.f64(g);
        }
        digest.bytes(
            round
                .result
                .telemetry
                .to_json()
                .to_string_compact()
                .as_bytes(),
        );
    }
    out.digests.push(("outputs".into(), digest.hex()));
    out.attempted = done.iter().map(|r| r.result.outcomes.len() as u64).sum();
    out.failed = done
        .iter()
        .flat_map(|r| &r.result.outcomes)
        .filter(|o| !o.health.is_clean())
        .count() as u64;
    let rates: Vec<f64> = done
        .iter()
        .map(|r| r.spec.episodes() as f64 / r.wall_s)
        .collect();
    out.throughput_per_s = throughput("fleet_zoo", &rates);
    eprintln!(
        "fleet_zoo: {} episodes in {:.3} s of campaigns, median campaign {:.0} episodes/s",
        out.attempted,
        done.iter().map(|r| r.wall_s).sum::<f64>(),
        median(&rates)
    );
    out.peak_rss_mb = crate::sys::peak_rss_mb(None).unwrap_or(f64::NAN);

    if ctx.trace {
        trace_replicas(ctx, out, &done);
        let last = done.last().expect("at least one round");
        let mut telemetry = last.result.telemetry.clone();
        let merge_start = Instant::now();
        telemetry.merge(&last.result.telemetry);
        let merge_us = merge_start.elapsed().as_secs_f64() * 1e6;
        out.layers.insert(
            "fleet.checkpoint_save_ms".into(),
            median(&done.iter().map(|r| r.save_ms).collect::<Vec<_>>()),
        );
        out.layers.insert(
            "fleet.checkpoint_load_ms".into(),
            median(&done.iter().map(|r| r.load_ms).collect::<Vec<_>>()),
        );
        out.layers
            .insert("telemetry.shard_merge_us".into(), merge_us);
    }
}

/// Runs episode `e` of `spec` outside the fleet: the same construction
/// order and RNG draws as the engine, optionally through the wrappers.
fn replay_episode(
    spec: &CampaignSpec,
    policy: &Arc<GreedyPolicy>,
    e: usize,
    traced: bool,
) -> (EpisodeReport, f64) {
    let mut rng = StdRng::seed_from_u64(spec.episode_seed(e));
    let point = spec.episode_point(e);
    let builder = RunBuilder::new(point);
    if !traced {
        let start = Instant::now();
        let mut defender = SharedPolicyDefender::new(Arc::clone(policy), point, &mut rng);
        let mut env = CompetitionEnv::new(point.clone(), &mut rng);
        let report = builder.run_in(&mut env, &mut defender, spec.slots, &mut rng);
        return (report, start.elapsed().as_secs_f64());
    }
    let setup = trace::span("fleet.episode_setup");
    let defender = SharedPolicyDefender::new(Arc::clone(policy), point, &mut rng);
    let adversary = point.adversary.build(&mut rng);
    let span = ZOO[(e / spec.seeds.len()) / L_J.len()].1;
    let env = CompetitionEnv::with_adversary(
        point.clone(),
        Box::new(TracedAdversary {
            inner: adversary,
            span,
        }),
        &mut rng,
    );
    setup.finish();
    let start = Instant::now();
    let report = builder.run_in(
        &mut Traced(env),
        &mut TracedDefender(defender),
        spec.slots,
        &mut rng,
    );
    (report, start.elapsed().as_secs_f64())
}

/// Replays every `REPLICA_STRIDE`-th episode of each round untraced and
/// traced, and checks both against the campaign's own outcome for it.
fn trace_replicas(ctx: &Ctx, out: &mut Outcome, rounds: &[Round]) {
    let (mut untraced_wall, mut traced_wall, mut replicas, mut episodes) =
        (0.0, 0.0, 0usize, 0usize);
    trace::take();
    for round in rounds {
        let spec = &round.spec;
        let CampaignPolicy::SharedGreedy(policy) = &spec.policy else {
            unreachable!("fleet_zoo runs shared-greedy campaigns")
        };
        let stride = REPLICA_STRIDE.min(spec.seeds.len());
        for e in (0..spec.episodes()).step_by(stride) {
            let (plain, wall) = replay_episode(spec, policy, e, false);
            untraced_wall += wall;
            let (traced, wall) = replay_episode(spec, policy, e, true);
            traced_wall += wall;
            let o = &round.result.outcomes[e];
            for (what, report) in [("untraced", &plain), ("traced", &traced)] {
                out.check(
                    report.metrics == o.metrics
                        && report.total_reward.to_bits() == o.total_reward.to_bits()
                        && report.health == o.health,
                    || format!("{what} replica of episode {e} matches the campaign bit for bit"),
                );
            }
            replicas += 1;
        }
        episodes += spec.episodes();
    }
    let campaign_wall: f64 = rounds.iter().map(|r| r.wall_s).sum();
    let t = trace::take();
    let covered = ["defender.decide", "env.step", "defender.feedback"]
        .iter()
        .map(|n| t.get(n).total_ns as f64)
        .sum::<f64>();
    let l = &mut out.layers;
    for (_, span, metric) in ZOO {
        l.insert(metric.into(), t.get(span).mean_ns());
    }
    l.insert("env.step_self_ns".into(), t.get("env.step").mean_self_ns());
    l.insert(
        "defender.decide_ns".into(),
        t.get("defender.decide").mean_ns(),
    );
    l.insert(
        "defender.feedback_ns".into(),
        t.get("defender.feedback").mean_ns(),
    );
    l.insert(
        "fleet.episode_setup_ns".into(),
        t.get("fleet.episode_setup").mean_ns(),
    );
    l.insert(
        "runner.slot_ns".into(),
        traced_wall * 1e9 / (replicas * SLOTS) as f64,
    );
    l.insert("runner.coverage".into(), covered / (traced_wall * 1e9));
    l.insert(
        "fleet.parallel_efficiency".into(),
        untraced_wall * (episodes as f64 / replicas as f64) / (ctx.threads as f64 * campaign_wall),
    );
    // Untraced replicas are timed from their set-up on; traced ones
    // record set-up as its own span.
    let traced_total = traced_wall + t.get("fleet.episode_setup").total_ns as f64 * 1e-9;
    l.insert(
        "trace_overhead_frac".into(),
        (traced_total - untraced_wall) / untraced_wall,
    );
    out.traces.push(("fleet.replicas".into(), t));
}
