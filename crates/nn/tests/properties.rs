//! Property-based tests for the neural-network substrate.

use ctjam_nn::batch::Batch;
use ctjam_nn::matrix::{gemm_tn_scaled_into, Matrix};
use ctjam_nn::mlp::{BatchScratch, MlpBuilder};
use ctjam_nn::serialize::{from_bytes, to_bytes};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::Rng;
use rand::SeedableRng;

proptest! {
    #[test]
    fn matvec_is_linear(
        rows in 1usize..6,
        cols in 1usize..6,
        seed in any::<u64>(),
        alpha in -3.0f64..3.0,
    ) {
        let mut s = seed;
        let mut next = move || {
            s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            ((s >> 33) as f64) / (u32::MAX as f64) * 2.0 - 1.0
        };
        let m = Matrix::from_fn(rows, cols, |_, _| next());
        let x: Vec<f64> = (0..cols).map(|_| next()).collect();
        let y: Vec<f64> = (0..cols).map(|_| next()).collect();
        let combo: Vec<f64> = x.iter().zip(&y).map(|(a, b)| a + alpha * b).collect();
        let lhs = m.mul_vec(&combo);
        let mx = m.mul_vec(&x);
        let my = m.mul_vec(&y);
        for i in 0..rows {
            prop_assert!((lhs[i] - (mx[i] + alpha * my[i])).abs() < 1e-9);
        }
    }

    #[test]
    fn loss_nonnegative_and_zero_at_target(seed in any::<u64>(), t in -10.0f64..10.0) {
        let mut rng = StdRng::seed_from_u64(seed);
        let net = MlpBuilder::new(2).hidden(3).output(2).build(&mut rng);
        let x = [0.5, -0.25];
        let at_target = net.forward(&x);
        let (loss, grad) = net.loss_and_gradient(&[(&x[..], &at_target[..])]);
        prop_assert!(loss == 0.0);
        prop_assert!(grad.iter().all(|&g| g == 0.0));
        let (loss, _) = net.loss_and_gradient(&[(&x[..], &[t, 0.0][..])]);
        prop_assert!(loss >= 0.0);
    }

    #[test]
    fn serialization_roundtrip(seed in any::<u64>(), hidden in 1usize..24, out in 1usize..24) {
        let mut rng = StdRng::seed_from_u64(seed);
        let net = MlpBuilder::new(5).hidden(hidden).output(out).build(&mut rng);
        let back = from_bytes(&to_bytes(&net)).unwrap();
        prop_assert_eq!(back.shape(), net.shape());
        let x = [0.1, 0.2, 0.3, 0.4, 0.5];
        let a = net.forward(&x);
        let b = back.forward(&x);
        for (p, q) in a.iter().zip(&b) {
            prop_assert!((p - q).abs() < 1e-4);
        }
    }

    #[test]
    fn gradient_check_random_architectures(
        seed in any::<u64>(),
        h1 in 2usize..8,
        h2 in 2usize..8,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let net = MlpBuilder::new(3).hidden(h1).hidden(h2).output(2).build(&mut rng);
        let x = [0.3, -0.6, 0.9];
        let t = [0.5, -0.5];
        let batch: Vec<(&[f64], &[f64])> = vec![(&x, &t)];
        let (l0, grads) = net.loss_and_gradient(&batch);
        let params = net.flatten_params();
        let eps = 1e-6;
        // Spot-check a handful of coordinates.
        for i in (0..params.len()).step_by(params.len() / 5 + 1) {
            let mut p = params.clone();
            p[i] += eps;
            let mut plus = net.clone();
            plus.set_params(&p);
            p[i] -= 2.0 * eps;
            let mut minus = net.clone();
            minus.set_params(&p);
            let lp = plus.loss_and_gradient(&batch).0;
            let lm = minus.loss_and_gradient(&batch).0;
            // A ReLU kink inside the probed interval makes the central
            // difference meaningless; detect it by the two one-sided
            // slopes disagreeing and skip (the loss is piecewise smooth).
            let forward = (lp - l0) / eps;
            let backward = (l0 - lm) / eps;
            if (forward - backward).abs() > 1e-4 {
                continue;
            }
            let numeric = (lp - lm) / (2.0 * eps);
            prop_assert!((numeric - grads[i]).abs() < 1e-4, "coord {}: {} vs {}", i, numeric, grads[i]);
        }
    }

    #[test]
    fn flatten_set_roundtrip(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut net = MlpBuilder::new(4).hidden(6).output(3).build(&mut rng);
        let flat = net.flatten_params();
        net.set_params(&flat);
        prop_assert_eq!(net.flatten_params(), flat);
    }

    /// Tentpole invariant: the blocked GEMM kernels reproduce the
    /// per-sample matrix products bit-for-bit over random shapes. Widths
    /// up to 48 reach the 16-wide register tile (up to three times per
    /// row), the 8-wide tile and the column remainder, plus the 4-row
    /// tiles and their row remainder.
    #[test]
    fn batched_matmuls_are_bit_exact(
        seed in any::<u64>(),
        rows in 1usize..20,
        k in 1usize..=48,
        out in 1usize..=48,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut next = move || rng.gen_range(-2.0..2.0);
        let w = Matrix::from_fn(out, k, |_, _| next());
        let mut x = Batch::with_cols(k);
        for _ in 0..rows {
            let row: Vec<f64> = (0..k).map(|_| next()).collect();
            x.push_row(&row);
        }
        let bias: Vec<f64> = (0..out).map(|_| next()).collect();

        let mut nt = Batch::default();
        x.matmul_transposed_into(&w, Some(&bias), &mut nt);
        for (s, row) in x.iter_rows().enumerate() {
            let mut want = w.mul_vec(row);
            for (z, b) in want.iter_mut().zip(&bias) {
                *z += b;
            }
            prop_assert_eq!(nt.row(s), &want[..]);
        }

        let w2 = Matrix::from_fn(x.cols(), out, |_, _| next());
        let mut nn = Batch::default();
        x.matmul_into(&w2, &mut nn);
        for (s, row) in x.iter_rows().enumerate() {
            prop_assert_eq!(nn.row(s), &w2.mul_vec_transposed(row)[..]);
        }

        // The weight gradient: one batched pass equals a per-sample
        // rank-1 update sequence on a zeroed accumulator.
        let scale = next();
        let mut tn = vec![f64::NAN; out * k];
        gemm_tn_scaled_into(nt.as_slice(), rows, out, scale, x.as_slice(), k, &mut tn);
        let mut want = Matrix::zeros(out, k);
        for (dz, row) in nt.iter_rows().zip(x.iter_rows()) {
            want.add_outer(dz, row, scale);
        }
        prop_assert_eq!(&tn[..], want.as_slice());
    }

    /// Tentpole invariant: a batched forward pass equals `rows`
    /// per-sample forward passes bit-for-bit over random architectures
    /// and batch sizes. Hidden and output widths up to 48 take a single
    /// row, and the rows a batch leaves over after its 4-row blocks,
    /// through the 32-wide, 8-wide and 1-wide single-row tiles.
    #[test]
    fn forward_batch_equals_per_sample(
        seed in any::<u64>(),
        input in 1usize..10,
        h1 in 1usize..=48,
        out in 1usize..=48,
        rows in 1usize..17,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let net = MlpBuilder::new(input).hidden(h1).output(out).build(&mut rng);
        let mut x = Batch::with_cols(input);
        for _ in 0..rows {
            let row: Vec<f64> = (0..input).map(|_| rng.gen_range(-1.5..1.5)).collect();
            x.push_row(&row);
        }
        let mut scratch = BatchScratch::for_network(&net);
        let y = net.forward_batch(&x, &mut scratch);
        for (s, row) in x.iter_rows().enumerate() {
            prop_assert_eq!(y.row(s), &net.forward(row)[..]);
        }
    }

    /// Tentpole invariant: the batched loss/gradient equals the
    /// per-sample path bit-for-bit — same loss, same flat gradient — so
    /// swapping the training path cannot perturb a seeded run. Dense
    /// targets exercise every output entry; DQN-shaped ones (one column
    /// per row differing from the prediction, or none) exercise the
    /// output layer's skipped entries, also behind NaN and ±Inf inputs.
    /// Output widths up to 48 take the live-entry scan through several
    /// 16-wide chunks and a partial last one.
    #[test]
    fn batched_gradient_equals_per_sample(
        seed in any::<u64>(),
        input in 1usize..8,
        h1 in 1usize..10,
        h2 in 1usize..10,
        out in 1usize..=48,
        rows in 1usize..17,
        shape in (0u8..3).prop_map(Targets::from),
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let net = MlpBuilder::new(input).hidden(h1).hidden(h2).output(out).build(&mut rng);

        let mut xs: Vec<Vec<f64>> = (0..rows)
            .map(|_| (0..input).map(|_| rng.gen_range(-1.5..1.5)).collect())
            .collect();
        if shape == Targets::TdNonFinite {
            for x in &mut xs {
                if rng.gen_bool(0.5) {
                    let k = rng.gen_range(0..input);
                    x[k] = [f64::NAN, f64::INFINITY, f64::NEG_INFINITY][rng.gen_range(0..3usize)];
                }
            }
        }
        let ts: Vec<Vec<f64>> = xs
            .iter()
            .map(|x| match shape {
                Targets::Dense => (0..out).map(|_| rng.gen_range(-1.5..1.5)).collect(),
                Targets::Td | Targets::TdNonFinite => {
                    let mut t = net.forward(x);
                    if rng.gen_bool(0.75) {
                        t[rng.gen_range(0..out)] = rng.gen_range(-1.5..1.5);
                    }
                    t
                }
            })
            .collect();
        let pairs: Vec<(&[f64], &[f64])> =
            xs.iter().zip(&ts).map(|(x, t)| (&x[..], &t[..])).collect();
        let (ref_loss, ref_grad) = net.loss_and_gradient(&pairs);

        let x_refs: Vec<&[f64]> = xs.iter().map(|r| &r[..]).collect();
        let t_refs: Vec<&[f64]> = ts.iter().map(|r| &r[..]).collect();
        let x = Batch::from_rows(&x_refs);
        let t = Batch::from_rows(&t_refs);
        let mut scratch = BatchScratch::for_network(&net);
        let (loss, grad) = net.loss_and_gradient_batch(&x, &t, &mut scratch);
        prop_assert!(same_bits(loss, ref_loss), "loss {} vs {}", loss, ref_loss);
        prop_assert_eq!(grad.len(), ref_grad.len());
        for (i, (&g, &r)) in grad.iter().zip(&ref_grad).enumerate() {
            prop_assert!(same_bits(g, r), "{:?} gradient[{}]: {} vs {}", shape, i, g, r);
        }
    }
}

/// The target batch handed to the gradient.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Targets {
    /// Every entry drawn independently of the prediction.
    Dense,
    /// The DQN loss's shape: the prediction with one column per row
    /// replaced (some rows keep the prediction unchanged).
    Td,
    /// `Td` over inputs of which some rows hold NaN or ±Inf.
    TdNonFinite,
}

impl From<u8> for Targets {
    fn from(v: u8) -> Self {
        [Targets::Dense, Targets::Td, Targets::TdNonFinite][usize::from(v)]
    }
}

/// Equal bits, or both NaN (whose payloads need not agree).
fn same_bits(a: f64, b: f64) -> bool {
    a.to_bits() == b.to_bits() || (a.is_nan() && b.is_nan())
}
