//! Environment costs: slot steps in the concrete and kernel environments
//! and one full 3-second star-network slot. The `run_100_slots*` pair
//! checks the telemetry tentpole's zero-cost claim: the instrumented loop
//! over `NullSink` must not be measurably slower than it is worth — a
//! sinkless `RunBuilder` run *is* the `NullSink` loop, so these two must
//! agree within noise.

use criterion::{criterion_group, criterion_main, Criterion};
use ctjam_core::defender::{Defender, DqnDefender, RandomFh};
use ctjam_core::env::{CompetitionEnv, EnvParams, Environment};
use ctjam_core::kernel::KernelEnv;
use ctjam_core::runner::RunBuilder;
use ctjam_net::star::StarNetwork;
use ctjam_telemetry::{MemorySink, NullSink};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn bench_env(c: &mut Criterion) {
    let params = EnvParams::default();

    c.bench_function("competition_env_step", |b| {
        let mut rng = StdRng::seed_from_u64(1);
        let mut env = CompetitionEnv::new(params.clone(), &mut rng);
        let mut defender = RandomFh::new(&params, &mut rng);
        b.iter(|| {
            let d = defender.decide(&mut rng);
            std::hint::black_box(Environment::step(&mut env, d, &mut rng));
        });
    });

    c.bench_function("run_100_slots_uninstrumented", |b| {
        let mut rng = StdRng::seed_from_u64(4);
        let mut env = CompetitionEnv::new(params.clone(), &mut rng);
        let mut defender = RandomFh::new(&params, &mut rng);
        b.iter(|| {
            std::hint::black_box(RunBuilder::new(&params).run_in(
                &mut env,
                &mut defender,
                100,
                &mut rng,
            ))
        });
    });

    c.bench_function("run_100_slots_null_sink", |b| {
        let mut rng = StdRng::seed_from_u64(4);
        let mut env = CompetitionEnv::new(params.clone(), &mut rng);
        let mut defender = RandomFh::new(&params, &mut rng);
        b.iter(|| {
            std::hint::black_box(RunBuilder::new(&params).sink(&mut NullSink).run_in(
                &mut env,
                &mut defender,
                100,
                &mut rng,
            ))
        });
    });

    c.bench_function("run_100_slots_memory_sink", |b| {
        let mut rng = StdRng::seed_from_u64(4);
        let mut env = CompetitionEnv::new(params.clone(), &mut rng);
        let mut defender = RandomFh::new(&params, &mut rng);
        b.iter(|| {
            let mut sink = MemorySink::new();
            std::hint::black_box(RunBuilder::new(&params).sink(&mut sink).run_in(
                &mut env,
                &mut defender,
                100,
                &mut rng,
            ))
        });
    });

    // The DQN evaluation loop: decide() runs the network through the
    // reusable inference scratch, so steady state performs no per-slot
    // allocation.
    c.bench_function("run_100_slots_dqn_eval", |b| {
        let mut rng = StdRng::seed_from_u64(5);
        let mut env = CompetitionEnv::new(params.clone(), &mut rng);
        let mut defender = DqnDefender::paper_default(&params, &mut rng);
        defender.set_training(false);
        b.iter(|| {
            std::hint::black_box(RunBuilder::new(&params).run_in(
                &mut env,
                &mut defender,
                100,
                &mut rng,
            ))
        });
    });

    c.bench_function("kernel_env_step", |b| {
        let mut rng = StdRng::seed_from_u64(2);
        let mut env = KernelEnv::new(params.clone(), &mut rng);
        let mut defender = RandomFh::new(&params, &mut rng);
        b.iter(|| {
            let d = defender.decide(&mut rng);
            std::hint::black_box(env.step(d, &mut rng));
        });
    });

    c.bench_function("star_network_3s_slot", |b| {
        let mut rng = StdRng::seed_from_u64(3);
        let mut net = StarNetwork::new(3);
        b.iter(|| std::hint::black_box(net.run_slot(3.0, true, 0.0, &mut rng)));
    });
}

criterion_group!(benches, bench_env);
criterion_main!(benches);
