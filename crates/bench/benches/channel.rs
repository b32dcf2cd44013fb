//! Channel-model costs: the BER closed form, one Fig. 2(b)-style link
//! evaluation, and the 15-point Fig. 2(b) distance sweep.

use criterion::{criterion_group, criterion_main, Criterion};
use ctjam_channel::ber::oqpsk_dsss_ber;
use ctjam_channel::link::{JammerKind, JammingScenario};
use ctjam_channel::units::db_to_linear;

fn bench_channel(c: &mut Criterion) {
    c.bench_function("oqpsk_dsss_ber", |b| {
        let sinr = db_to_linear(1.5);
        b.iter(|| std::hint::black_box(oqpsk_dsss_ber(std::hint::black_box(sinr))));
    });

    let scenario = JammingScenario::default();
    c.bench_function("link_evaluate_one_point", |b| {
        b.iter(|| std::hint::black_box(scenario.evaluate(JammerKind::EmuBee, 7.0)));
    });

    let distances: Vec<f64> = (1..=15).map(f64::from).collect();
    c.bench_function("link_sweep_fig2b_series", |b| {
        b.iter(|| std::hint::black_box(scenario.sweep(JammerKind::EmuBee, &distances)));
    });
}

criterion_group!(benches, bench_channel);
criterion_main!(benches);
