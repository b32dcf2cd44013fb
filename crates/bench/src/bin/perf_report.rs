//! Perf-manifest runner: measures the hot paths and writes the
//! machine-readable `BENCH_slotloop.json` / `BENCH_dqn.json` perf
//! manifests at the repo root (or `$CTJAM_BENCH_DIR`).
//!
//! The criterion benches under `benches/` are for interactive digging;
//! this binary is the *trajectory* recorder: a fixed set of named
//! measurements, each the best-of-`reps` mean over a sized inner loop,
//! embedded in a [`ctjam_telemetry::RunManifest`] so every number
//! carries its provenance (git describe, base seed, config hash,
//! target CPU features, timestamp). CI runs it in quick mode
//! (`CTJAM_BENCH_QUICK=1`) and asserts the manifests are well-formed;
//! EXPERIMENTS.md ("Performance trajectory") documents the schema.
//!
//! Measurements:
//!
//! * slot loop — ns/slot for the RandomFh eval loop, the DQN eval loop
//!   (the allocation-free scratch path), and the DQN training loop;
//! * PER evaluation — the Fig. 2(b) link sweep uncached vs through
//!   [`ctjam_channel::cache::PerCache`] (bit-exactness is asserted
//!   here too, cheaply, on top of the property tests);
//! * sweep scaling — wall seconds for `RunBuilder::sweep` at 1 thread
//!   vs all available (skipped, with an annotation, when only one
//!   hardware thread is visible — a parallel/serial ratio would then
//!   measure oversubscription, not scaling; episodes/sec vs thread
//!   count lives in `BENCH_fleet.json` from the `fleet_bench` bin);
//! * DQN kernels — `train_step` at batch 32 vs the per-sample
//!   reference, single-observation inference plain vs scratch, and the
//!   batch-32 greedy forward the policy server runs per flush.
//!
//! The binary warns — and records `dirty_tree: true` — when the work
//! tree is dirty, because a manifest whose `git` field ends in
//! `-dirty` cannot be tied to a commit; `ci.sh` refuses committed
//! manifests with that marker.

use ctjam_bench::env_usize;
use ctjam_channel::cache::PerCache;
use ctjam_channel::link::{JammerKind, JammingScenario};
use ctjam_core::defender::{Defender, DqnDefender, RandomFh};
use ctjam_core::env::{CompetitionEnv, Decision, EnvParams, Outcome, SlotResult};
use ctjam_core::runner::{RunBuilder, SweepBudget};
use ctjam_dqn::agent::DqnAgent;
use ctjam_dqn::config::DqnConfig;
use ctjam_dqn::encode::{ObservationEncoder, SlotOutcome, SlotRecord};
use ctjam_dqn::policy::GreedyPolicy;
use ctjam_nn::batch::Batch;
use ctjam_telemetry::{JsonValue, RunManifest};
use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};
use std::time::Instant;

/// Base seed for every RNG in this binary (recorded in both manifests).
const SEED: u64 = 2026;

/// Schema tag checked by the `ci.sh` smoke stage.
const SCHEMA: &str = "ctjam-bench/v1";

/// Best-of-`reps` mean nanoseconds per call of `f` over `iters` calls.
fn ns_per_iter<F: FnMut()>(reps: usize, iters: usize, mut f: F) -> f64 {
    f(); // warmup
    let mut best = f64::INFINITY;
    for _ in 0..reps.max(1) {
        let start = Instant::now();
        for _ in 0..iters.max(1) {
            f();
        }
        let ns = start.elapsed().as_nanos() as f64 / iters.max(1) as f64;
        best = best.min(ns);
    }
    best
}

/// Compile-time SIMD features — evidence that `target-cpu=native` (set
/// workspace-wide in `.cargo/config.toml`) took effect for this build.
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

/// The *pre-optimization* DQN evaluation decide path, kept as the
/// measured "before" of the allocation audit: a fresh observation `Vec`
/// per slot (`encode()`) and the allocating per-row forward
/// (`DqnAgent::act`), with the observation parked in `pending` and
/// dropped at feedback — exactly the allocation profile `DqnDefender`
/// had before it switched to `encode_into` + `act_scratch`. Policy,
/// decisions, and RNG draws are identical to the optimized defender;
/// only the memory behavior differs.
struct AllocatingDqnEval {
    agent: DqnAgent,
    encoder: ObservationEncoder,
    pending: Option<(Vec<f64>, usize)>,
    current_channel: usize,
    pending_delta: usize,
}

impl AllocatingDqnEval {
    fn new<R: Rng + ?Sized>(params: &EnvParams, rng: &mut R) -> Self {
        let config = DqnConfig {
            num_channels: params.num_channels(),
            num_power_levels: params.num_powers(),
            ..DqnConfig::default()
        };
        let encoder = ObservationEncoder::new(
            config.history_len,
            config.num_channels,
            config.num_power_levels,
        );
        let agent = DqnAgent::new(config, rng);
        let current_channel = rng.gen_range(0..params.num_channels());
        AllocatingDqnEval {
            agent,
            encoder,
            pending: None,
            current_channel,
            pending_delta: 0,
        }
    }
}

impl Defender for AllocatingDqnEval {
    fn name(&self) -> &str {
        "DQN eval (allocating reference)"
    }

    fn decide(&mut self, rng: &mut dyn RngCore) -> Decision {
        let observation = self.encoder.encode();
        let action = self.agent.act(&observation, rng);
        self.pending = Some((observation, action));
        let (delta, power_level) = self.agent.config().decode_action(action);
        self.pending_delta = delta;
        let channel = (self.current_channel + delta) % self.agent.config().num_channels;
        Decision {
            channel,
            power_level,
        }
    }

    fn feedback(&mut self, result: &SlotResult, _rng: &mut dyn RngCore) {
        let outcome = match result.outcome {
            Outcome::Clean => SlotOutcome::Success,
            Outcome::JammedSurvived => SlotOutcome::SuccessUnderJamming,
            Outcome::Jammed => SlotOutcome::Failure,
        };
        self.encoder.push(SlotRecord {
            outcome,
            channel: self.pending_delta,
            power_level: result.decision.power_level,
        });
        self.current_channel = result.decision.channel;
        self.pending.take();
    }
}

fn add_provenance(manifest: &mut RunManifest, threads: usize) {
    manifest.push_extra("schema", SCHEMA);
    manifest.push_extra("target_arch", std::env::consts::ARCH);
    manifest.push_extra("target_cpu_features", target_cpu_features());
    manifest.push_extra("threads_available", threads as f64);
    manifest.push_extra(
        "quick_mode",
        JsonValue::from(std::env::var("CTJAM_BENCH_QUICK").is_ok()),
    );
    // A manifest measured on uncommitted code cannot be tied to a
    // commit; mark it so ci.sh can refuse committed `-dirty` manifests.
    let dirty = manifest
        .git
        .as_deref()
        .is_some_and(|g| g.ends_with("-dirty"));
    if dirty {
        eprintln!(
            "perf_report: WARNING: work tree is dirty; {} will carry git={:?} and \
             dirty_tree=true — re-run from a clean tree before committing it",
            manifest.name,
            manifest.git.as_deref().unwrap_or("?"),
        );
    }
    manifest.push_extra("dirty_tree", JsonValue::from(dirty));
}

fn write_manifest(manifest: &RunManifest, dir: &std::path::Path) {
    let path = dir.join(format!("{}.json", manifest.name));
    std::fs::write(&path, manifest.to_json().to_string_pretty()).expect("write BENCH manifest");
    println!("(wrote {})", path.display());
}

fn main() {
    let quick = std::env::var("CTJAM_BENCH_QUICK").is_ok();
    let out_dir = std::env::var("CTJAM_BENCH_DIR").unwrap_or_else(|_| ".".into());
    let out_dir = std::path::Path::new(&out_dir);
    let threads = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);

    // Sized for a sub-minute full run; quick mode (CI smoke) is seconds.
    let reps = env_usize("CTJAM_BENCH_REPS", if quick { 2 } else { 5 });
    let slots = env_usize("CTJAM_BENCH_SLOTS", if quick { 2_000 } else { 20_000 });
    let dqn_slots = env_usize("CTJAM_BENCH_DQN_SLOTS", if quick { 500 } else { 4_000 });
    let sweep_points = env_usize("CTJAM_BENCH_SWEEP_POINTS", if quick { 2 } else { 8 });
    let sweep_slots = env_usize("CTJAM_BENCH_SWEEP_SLOTS", if quick { 150 } else { 600 });
    let train_iters = env_usize("CTJAM_BENCH_TRAIN_ITERS", if quick { 50 } else { 400 });

    let params = EnvParams::default();

    // ---- BENCH_slotloop: the per-slot simulation path -----------------
    let mut slotloop = RunManifest::new("BENCH_slotloop", SEED, &format!("{params:?}"));
    add_provenance(&mut slotloop, threads);
    slotloop.push_extra("slots_per_measurement", slots as f64);

    // RandomFh: the cheapest defender — upper bound on env+loop speed.
    let mut rng = StdRng::seed_from_u64(SEED);
    let mut env = CompetitionEnv::new(params.clone(), &mut rng);
    let mut random_fh = RandomFh::new(&params, &mut rng);
    let ns = ns_per_iter(reps, 1, || {
        std::hint::black_box(RunBuilder::new(&params).run_in(
            &mut env,
            &mut random_fh,
            slots,
            &mut rng,
        ));
    }) / slots as f64;
    println!("slot loop, RandomFh eval      : {ns:10.1} ns/slot");
    slotloop.push_extra("randomfh_eval_ns_per_slot", ns);

    // DQN paper shape, evaluation mode: the scratch-based inference path.
    let mut rng = StdRng::seed_from_u64(SEED + 1);
    let mut env = CompetitionEnv::new(params.clone(), &mut rng);
    let mut dqn = DqnDefender::paper_default(&params, &mut rng);
    dqn.set_training(false);
    let ns = ns_per_iter(reps, 1, || {
        std::hint::black_box(
            RunBuilder::new(&params).run_in(&mut env, &mut dqn, dqn_slots, &mut rng),
        );
    }) / dqn_slots as f64;
    println!("slot loop, DQN eval           : {ns:10.1} ns/slot");
    slotloop.push_extra("dqn_eval_ns_per_slot", ns);
    let dqn_eval_ns = ns;

    // The same loop through the pre-optimization allocating decide path
    // — the measured "before" of the allocation audit.
    let mut rng = StdRng::seed_from_u64(SEED + 1);
    let mut env = CompetitionEnv::new(params.clone(), &mut rng);
    let mut reference = AllocatingDqnEval::new(&params, &mut rng);
    let ns = ns_per_iter(reps, 1, || {
        std::hint::black_box(RunBuilder::new(&params).run_in(
            &mut env,
            &mut reference,
            dqn_slots,
            &mut rng,
        ));
    }) / dqn_slots as f64;
    println!("slot loop, DQN eval (pre-opt) : {ns:10.1} ns/slot");
    println!("eval slot-loop speedup        : {:10.2}x", ns / dqn_eval_ns);
    slotloop.push_extra("dqn_eval_allocating_reference_ns_per_slot", ns);
    slotloop.push_extra("dqn_eval_speedup_x", ns / dqn_eval_ns);

    // DQN training mode: decide + observe + scheduled train_step.
    let mut rng = StdRng::seed_from_u64(SEED + 2);
    let mut env = CompetitionEnv::new(params.clone(), &mut rng);
    let mut dqn = DqnDefender::paper_default(&params, &mut rng);
    dqn.set_training(true);
    let ns = ns_per_iter(reps, 1, || {
        std::hint::black_box(
            RunBuilder::new(&params).run_in(&mut env, &mut dqn, dqn_slots, &mut rng),
        );
    }) / dqn_slots as f64;
    println!("slot loop, DQN train          : {ns:10.1} ns/slot");
    slotloop.push_extra("dqn_train_ns_per_slot", ns);

    // PER evaluation: the Fig. 2(b) link sweep, uncached vs cached.
    let scenario = JammingScenario::default();
    let distances: Vec<f64> = (1..=15).map(f64::from).collect();
    let per_iters = env_usize("CTJAM_BENCH_PER_ITERS", if quick { 200 } else { 2_000 });
    let uncached = ns_per_iter(reps, per_iters, || {
        std::hint::black_box(scenario.sweep(JammerKind::EmuBee, &distances));
    }) / distances.len() as f64;
    let mut cache = PerCache::new();
    let mut reports = Vec::new();
    let cached = ns_per_iter(reps, per_iters, || {
        scenario.sweep_cached_into(JammerKind::EmuBee, &distances, &mut cache, &mut reports);
        std::hint::black_box(&reports);
    }) / distances.len() as f64;
    // Cheap bit-exactness spot check on top of the property tests.
    for (plain, hit) in scenario
        .sweep(JammerKind::EmuBee, &distances)
        .iter()
        .zip(&reports)
    {
        assert_eq!(
            plain.per.to_bits(),
            hit.per.to_bits(),
            "cache not bit-exact"
        );
    }
    println!("PER evaluation, uncached      : {uncached:10.1} ns/point");
    println!("PER evaluation, PerCache      : {cached:10.1} ns/point");
    println!(
        "PER cache speedup             : {:10.2}x",
        uncached / cached
    );
    slotloop.push_extra("per_uncached_ns_per_point", uncached);
    slotloop.push_extra("per_cached_ns_per_point", cached);
    slotloop.push_extra("per_cache_speedup_x", uncached / cached);

    // Sweep scaling: 1 thread vs all available.
    let points = vec![params.clone(); sweep_points];
    let budget = SweepBudget {
        train_slots: sweep_slots,
        eval_slots: sweep_slots,
    };
    let time_sweep = |threads: usize| {
        let start = Instant::now();
        std::hint::black_box(
            RunBuilder::new(&points[0])
                .budget(budget)
                .seed(SEED)
                .threads(threads)
                .sweep(&points, |_, _| {}),
        );
        start.elapsed().as_secs_f64()
    };
    let one = time_sweep(1);
    println!("sweep {sweep_points} pts, 1 thread        : {one:10.3} s");
    slotloop.push_extra("sweep_points", sweep_points as f64);
    slotloop.push_extra("sweep_1_thread_s", one);
    if threads >= 2 {
        let many = time_sweep(threads);
        println!("sweep {sweep_points} pts, {threads} thread(s)    : {many:10.3} s");
        println!("sweep scaling                 : {:10.2}x", one / many);
        slotloop.push_extra("sweep_all_threads_s", many);
        slotloop.push_extra("sweep_scaling_x", one / many);
    } else {
        // With one visible hardware thread a parallel/serial ratio would
        // measure oversubscription noise, not scaling — don't publish a
        // ~1.0x "result" that looks like a measurement.
        println!("sweep scaling                 : skipped (1 hardware thread visible)");
        slotloop.push_extra(
            "sweep_scaling_note",
            "skipped: 1 hardware thread visible; a parallel/serial ratio would \
             measure oversubscription, not scaling (see BENCH_fleet.json)",
        );
    }

    write_manifest(&slotloop, out_dir);

    // ---- BENCH_dqn: the training/inference kernels --------------------
    let config = DqnConfig::default();
    let mut dqn_manifest = RunManifest::new("BENCH_dqn", SEED, &format!("{config:?}"));
    add_provenance(&mut dqn_manifest, threads);

    let mut rng = StdRng::seed_from_u64(SEED + 3);
    let mut agent = DqnAgent::new(config.clone(), &mut rng);
    let obs = vec![0.3; config.input_size()];
    for i in 0..512 {
        let mut state = obs.clone();
        state[0] = (i % 7) as f64 / 7.0;
        agent.observe(
            state.clone(),
            i % config.num_actions(),
            -10.0,
            state,
            &mut rng,
        );
    }

    let infer = ns_per_iter(reps, train_iters * 4, || {
        std::hint::black_box(agent.q_values(&obs));
    });
    let infer_scratch = ns_per_iter(reps, train_iters * 4, || {
        std::hint::black_box(agent.q_values_scratch(&obs));
    });
    println!("DQN inference, allocating     : {infer:10.1} ns");
    println!("DQN inference, scratch        : {infer_scratch:10.1} ns");
    dqn_manifest.push_extra("inference_ns", infer);
    dqn_manifest.push_extra("inference_scratch_ns", infer_scratch);

    let train = ns_per_iter(reps, train_iters, || {
        std::hint::black_box(agent.train_step(&mut rng));
    }) / 1_000.0;
    // The pre-batching reference from PR 2 (see benches/dqn.rs): sample,
    // then per-sample forwards + a per-sample gradient.
    let gamma = agent.config().gamma;
    let reference = ns_per_iter(reps, train_iters.div_ceil(4), || {
        let batch = agent.replay().sample(32, &mut rng);
        let mut targets = Vec::with_capacity(batch.len());
        for e in &batch {
            let mut q = agent.network().forward(&e.state);
            let next_q = agent.target_network().forward(&e.next_state);
            let best = next_q.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
            q[e.action] = e.reward + gamma * best;
            targets.push(q);
        }
        let pairs: Vec<(&[f64], &[f64])> = batch
            .iter()
            .zip(&targets)
            .map(|(e, t)| (e.state.as_slice(), t.as_slice()))
            .collect();
        std::hint::black_box(agent.network().loss_and_gradient(&pairs));
    }) / 1_000.0;
    println!("DQN train_step batch32        : {train:10.1} us");
    println!("DQN train_step per-sample ref : {reference:10.1} us");
    println!(
        "batched kernel speedup        : {:10.2}x",
        reference / train
    );
    dqn_manifest.push_extra("train_step_batch32_us", train);
    dqn_manifest.push_extra("train_step_per_sample_reference_us", reference);
    dqn_manifest.push_extra("train_step_speedup_x", reference / train);

    // The batch-32 greedy forward a policy-server flush runs.
    let policy = GreedyPolicy::from_agent(&agent);
    let mut rng = StdRng::seed_from_u64(SEED + 4);
    let mut obs_batch = Batch::with_cols(config.input_size());
    let mut row = vec![0.0; config.input_size()];
    for _ in 0..32 {
        row.iter_mut().for_each(|v| *v = rng.gen_range(-1.0..1.0));
        obs_batch.push_row(&row);
    }
    let mut scratch = policy.scratch();
    let mut actions = Vec::new();
    let forward_scalar = ns_per_iter(reps, train_iters, || {
        policy.act_greedy_batch(&obs_batch, &mut scratch, &mut actions);
        std::hint::black_box(&actions);
    });
    println!("greedy forward batch32, scalar: {forward_scalar:10.1} ns");
    dqn_manifest.push_extra("forward_batch32_scalar_ns", forward_scalar);

    write_manifest(&dqn_manifest, out_dir);
}
