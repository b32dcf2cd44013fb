//! Sweep scaling: `RunBuilder::sweep` wall time at 1 worker thread vs
//! all available. The budget is tiny — this bench exists to catch a
//! scaling regression (e.g. an accidental serialization point in
//! `parallel_map`), not to measure the figures' real workload; the
//! `repro_sweep` workload of `benchmark/` times the sized version.

use criterion::{criterion_group, criterion_main, Criterion};
use ctjam_core::env::EnvParams;
use ctjam_core::runner::{RunBuilder, SweepBudget};

fn bench_sweep(c: &mut Criterion) {
    let points = vec![EnvParams::default(); 4];
    let budget = SweepBudget {
        train_slots: 100,
        eval_slots: 100,
    };
    let threads = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);

    c.bench_function("sweep_4pts_1_thread", |b| {
        b.iter(|| {
            std::hint::black_box(
                RunBuilder::new(&points[0])
                    .budget(budget)
                    .seed(5)
                    .threads(1)
                    .sweep(&points, |_, _| {}),
            )
        });
    });

    c.bench_function("sweep_4pts_all_threads", |b| {
        b.iter(|| {
            std::hint::black_box(
                RunBuilder::new(&points[0])
                    .budget(budget)
                    .seed(5)
                    .threads(threads)
                    .sweep(&points, |_, _| {}),
            )
        });
    });
}

criterion_group!(benches, bench_sweep);
criterion_main!(benches);
