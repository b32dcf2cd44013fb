//! MDP solver costs: building the anti-jamming MDP and solving it by
//! value iteration.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use ctjam_mdp::antijam::{AntijamMdp, AntijamParams, JammerMode};
use ctjam_mdp::solve::value_iteration::value_iteration;

fn bench_mdp(c: &mut Criterion) {
    let mut group = c.benchmark_group("antijam_mdp");
    for &cycle in &[4usize, 8, 16] {
        let params = AntijamParams {
            sweep_cycle: cycle,
            jammer_mode: JammerMode::RandomPower,
            ..AntijamParams::default()
        };
        group.bench_with_input(BenchmarkId::new("build", cycle), &params, |b, p| {
            b.iter(|| std::hint::black_box(AntijamMdp::new(p.clone())));
        });
        let mdp = AntijamMdp::new(params.clone());
        group.bench_with_input(
            BenchmarkId::new("value_iteration", cycle),
            &cycle,
            |b, _| {
                b.iter(|| std::hint::black_box(value_iteration(mdp.tabular(), 0.9, 1e-9, 100_000)));
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_mdp);
criterion_main!(benches);
