//! DQN costs: one inference (the hub's 9 ms budget in Fig. 9(a)), one
//! replay training step, and a served 32-row batch with and without the
//! decision memo.

use criterion::{criterion_group, criterion_main, Criterion};
use ctjam_dqn::agent::DqnAgent;
use ctjam_dqn::config::DqnConfig;
use ctjam_dqn::policy::{DecisionMemo, GreedyPolicy};
use ctjam_nn::batch::Batch;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

fn bench_dqn(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(1);
    let config = DqnConfig::default();
    let mut agent = DqnAgent::new(config.clone(), &mut rng);
    let obs = vec![0.3; config.input_size()];

    c.bench_function("dqn_inference_paper_shape", |b| {
        b.iter(|| std::hint::black_box(agent.q_values(&obs)));
    });

    // Fill the replay buffer so train_step has data.
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
    c.bench_function("dqn_train_step_batch32", |b| {
        b.iter(|| std::hint::black_box(agent.train_step(&mut rng)));
    });

    // The pre-batching reference: sample, then build targets and the
    // gradient one transition at a time (2 per-sample forwards + a
    // per-sample backward each), exactly what `train_step` did before
    // the packed kernels. Kept as a yardstick for the speedup claimed
    // in EXPERIMENTS.md.
    let gamma = agent.config().gamma;
    c.bench_function("dqn_train_step_batch32_per_sample_reference", |b| {
        b.iter(|| {
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
            std::hint::black_box(agent.network().loss_and_gradient(&pairs))
        });
    });
}

/// A served 32-row batch at the paper shape: plain
/// `act_greedy_batch` (pack the rows, forward them all) against
/// `DecisionMemo::act_greedy_batch`. `repeating` asks for the same 32
/// rows every time, so the memo answers them all; `unique` cycles through
/// 64 batches of distinct rows, each back only after 2 016 others have
/// evicted it, so every row misses and the memo's cost is pure overhead.
fn bench_policy_memo(c: &mut Criterion) {
    const ROWS: usize = 32;
    let mut rng = StdRng::seed_from_u64(2);
    let config = DqnConfig::default();
    let policy = Arc::new(GreedyPolicy::from_agent(&DqnAgent::new(
        config.clone(),
        &mut rng,
    )));
    // Features drawn from {0, 0.5, 1}, like the encoder's outcomes.
    let pool: Vec<Vec<f64>> = (0..64 * ROWS)
        .map(|_| {
            (0..config.input_size())
                .map(|_| f64::from(rng.gen_range(0..3u8)) / 2.0)
                .collect()
        })
        .collect();
    let mut scratch = policy.scratch();
    let mut batch = Batch::with_cols(policy.input_size());
    let mut actions = Vec::new();
    for (name, batches) in [
        ("policy_batch32_repeating", 1),
        ("policy_batch32_unique", 64),
    ] {
        let mut group = c.benchmark_group(name);
        let mut next = 0;
        group.bench_function("plain", |b| {
            b.iter(|| {
                next = (next + 1) % batches;
                batch.reset(policy.input_size());
                for row in &pool[next * ROWS..(next + 1) * ROWS] {
                    batch.push_row(row);
                }
                policy.act_greedy_batch(&batch, &mut scratch, &mut actions);
                std::hint::black_box(actions[0])
            });
        });
        let mut memo = DecisionMemo::new(Arc::clone(&policy));
        group.bench_function("memo", |b| {
            b.iter(|| {
                next = (next + 1) % batches;
                let rows = pool[next * ROWS..(next + 1) * ROWS].iter();
                let hits =
                    memo.act_greedy_batch(rows.map(Vec::as_slice), &mut scratch, &mut actions);
                std::hint::black_box((hits, actions[0]))
            });
        });
        group.finish();
    }
}

criterion_group!(benches, bench_dqn, bench_policy_memo);
criterion_main!(benches);
