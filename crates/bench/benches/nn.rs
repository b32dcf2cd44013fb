//! Neural-network substrate costs: MLP forward/backward at the paper's
//! shape, and the RNN predictor the adaptive jammer trains online.

use criterion::{criterion_group, criterion_main, Criterion};
use ctjam_nn::batch::Batch;
use ctjam_nn::mlp::{BatchScratch, DenseLayer, Mlp, MlpBuilder};
use ctjam_nn::optimizer::{Adam, Optimizer};
use ctjam_nn::rnn::Rnn;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn bench_nn(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(1);
    let net = MlpBuilder::new(24)
        .hidden(48)
        .hidden(42)
        .output(160)
        .build(&mut rng);
    let x: Vec<f64> = (0..24).map(|i| (i as f64 * 0.13).sin()).collect();

    c.bench_function("mlp_forward_paper_shape", |b| {
        b.iter(|| std::hint::black_box(net.forward(&x)));
    });

    let target: Vec<f64> = (0..160).map(|i| (i as f64 * 0.07).cos()).collect();
    let batch: Vec<(&[f64], &[f64])> = vec![(&x, &target); 32];
    c.bench_function("mlp_gradient_batch32_paper_shape", |b| {
        b.iter(|| std::hint::black_box(net.loss_and_gradient(&batch)));
    });

    // The same minibatch through the packed, scratch-reusing kernels —
    // bit-identical output (see the property tests), far fewer allocations
    // and cache misses.
    let xs = Batch::from_rows(&vec![&x[..]; 32]);
    let ys = Batch::from_rows(&vec![&target[..]; 32]);
    let mut scratch = BatchScratch::for_network(&net);
    c.bench_function("mlp_gradient_batch32_batched", |b| {
        b.iter(|| {
            let (loss, _) = net.loss_and_gradient_batch(&xs, &ys, &mut scratch);
            std::hint::black_box(loss)
        });
    });

    // DQN-shaped targets, as `DqnAgent::train_step` passes them: the
    // prediction with one action per row replaced, so the backward pass
    // skips the other 159 output entries of each row.
    let prediction = net.forward(&x);
    let td_rows: Vec<Vec<f64>> = (0..32)
        .map(|s| {
            let mut row = prediction.clone();
            row[(s * 37) % 160] = target[s];
            row
        })
        .collect();
    let td_refs: Vec<&[f64]> = td_rows.iter().map(|r| &r[..]).collect();
    let td = Batch::from_rows(&td_refs);
    c.bench_function("mlp_gradient_batch32_td_targets", |b| {
        b.iter(|| {
            let (loss, _) = net.loss_and_gradient_batch(&xs, &td, &mut scratch);
            std::hint::black_box(loss)
        });
    });

    c.bench_function("mlp_forward_batch32_batched", |b| {
        b.iter(|| std::hint::black_box(net.forward_batch(&xs, &mut scratch).rows()));
    });

    // One observation, as every per-slot decision runs it: the row
    // never fills a 4-row tile.
    let x1 = Batch::from_rows(&[&x[..]]);
    c.bench_function("mlp_forward_row1_batched", |b| {
        b.iter(|| std::hint::black_box(net.forward_batch(&x1, &mut scratch).rows()));
    });

    // One Adam step over the paper shape's 10 138 parameters, restored
    // past step 356 as late training is. Every gradient is nonzero, so
    // no moment decays into the subnormal range while the case runs.
    let n = net.param_count();
    let grads: Vec<f64> = (0..n)
        .map(|i| (1.0 + (i % 7) as f64) * if i % 2 == 0 { 1e-4 } else { -1e-4 })
        .collect();
    // A trained network's biases have moved off their zero init.
    let weights: Vec<f64> = net
        .flatten_params()
        .iter()
        .map(|&w| if w == 0.0 { 1e-2 } else { w })
        .collect();
    let v: Vec<f64> = grads.iter().map(|g| g * g).collect();
    let mut w = weights.clone();
    let mut adam = Adam::restore(5e-3, 5_000, grads.clone(), v.clone());
    c.bench_function("adam_step_paper_shape", |b| {
        b.iter(|| adam.step(std::hint::black_box(&mut w), &grads));
    });

    // The same lanes as a 12 000-slot run leaves them. A dead hidden unit
    // zeroes the gradient of its incoming row, its bias and its outgoing
    // column. Units dead from the start hold exactly zero moments (1 498
    // lanes, 14.8%); units that died later hold first moments settled at
    // ±k·2⁻¹⁰⁷⁴, k ≤ 5 (528 lanes, 5.2%), where `fl(0.9·m) = m`.
    let (mut m, mut v, mut dead_grads) = (grads.clone(), v, grads.clone());
    for (layer, unit) in [
        (1, 3),
        (1, 10),
        (1, 17),
        (1, 24),
        (1, 31),
        (1, 38),
        (0, 5),
        (0, 20),
        (0, 35),
        (0, 44),
    ] {
        for i in dead_unit_lanes(&net, layer, unit) {
            (m[i], v[i], dead_grads[i]) = (0.0, 0.0, 0.0);
        }
    }
    for (layer, unit) in [(1, 7), (1, 28), (0, 12), (0, 40)] {
        for i in dead_unit_lanes(&net, layer, unit) {
            if m[i] != 0.0 {
                let settled = f64::from_bits(1 + i as u64 % 5);
                (m[i], v[i], dead_grads[i]) =
                    (if i % 2 == 0 { settled } else { -settled }, 1e-6, 0.0);
            }
        }
    }
    let mut w = weights;
    let mut adam = Adam::restore(5e-3, 5_000, m, v);
    c.bench_function("adam_step_paper_shape_settled", |b| {
        b.iter(|| adam.step(std::hint::black_box(&mut w), &dead_grads));
    });

    let mut rnn = Rnn::new(4, 16, 4, &mut rng);
    let xs: Vec<Vec<f64>> = (0..32)
        .map(|t| {
            let mut v = vec![0.0; 4];
            v[t % 4] = 1.0;
            v
        })
        .collect();
    c.bench_function("rnn_run_32_steps", |b| {
        b.iter(|| std::hint::black_box(rnn.run(&xs)));
    });

    let ys = xs.clone();
    let mut adam = Adam::with_learning_rate(5e-3);
    c.bench_function("rnn_bptt_train_32_steps", |b| {
        b.iter(|| std::hint::black_box(rnn.train_sequence(&xs, &ys, &mut adam)));
    });
}

/// The flat-parameter lanes a dead hidden unit of `layer` silences: its
/// incoming weight row and bias, and its outgoing column in the next
/// layer.
fn dead_unit_lanes(net: &Mlp, layer: usize, unit: usize) -> Vec<usize> {
    let layers = net.layers();
    let offset: usize = layers[..layer].iter().map(DenseLayer::param_count).sum();
    let (this, next) = (&layers[layer], &layers[layer + 1]);
    let (ins, outs) = (this.input_size(), this.output_size());
    let next_offset = offset + this.param_count();
    let row = (0..ins).map(|i| offset + unit * ins + i);
    let bias = offset + outs * ins + unit;
    let column = (0..next.output_size()).map(|r| next_offset + r * next.input_size() + unit);
    row.chain([bias]).chain(column).collect()
}

criterion_group!(benches, bench_nn);
criterion_main!(benches);
