//! The [`Optimizer`] trait and [`Adam`], operating on flat parameter
//! vectors.

/// Adam's first-moment decay `β₁`.
const BETA1: f64 = 0.9;
/// Adam's second-moment decay `β₂`.
const BETA2: f64 = 0.999;
/// Adam's denominator guard `ε`.
const EPSILON: f64 = 1e-8;

/// `|x|` of an `f64`'s bits: everything but the sign bit.
const ABS_BITS: u64 = !(1 << 63);
/// Bits of `+∞`; a sign-cleared value is finite iff its bits are below.
const INF_BITS: u64 = 0x7FF0 << 48;
/// Bits of `2⁻⁹⁰⁰`, the smallest weight magnitude a settled lane keeps.
const MIN_SETTLED_WEIGHT_BITS: u64 = (1023 - 900) << 52;
/// The largest `k` for which `m = k·2⁻¹⁰⁷⁴` is a fixed point of
/// `fl(β₁·m)`; `k = 1…5` all are, and `k = 6` is not.
const MAX_SETTLED_K: u64 = 5;
/// Bound on `|lr| / ((1 − β₁ᵗ)·ε)` under which a settled lane's update is
/// below `2⁻¹⁰⁴¹`, far under half an ulp of any `|w| ≥ 2⁻⁹⁰⁰`.
const MAX_SETTLED_GAIN: f64 = 1e9;

/// Adam (Kingma & Ba) with bias correction and the standard `β₁ = 0.9`,
/// `β₂ = 0.999`, `ε = 1e−8`.
#[derive(Debug, Clone, PartialEq)]
pub struct Adam {
    learning_rate: f64,
    step: u64,
    m: Vec<f64>,
    v: Vec<f64>,
}

impl Adam {
    /// Adam with the given learning rate.
    pub fn with_learning_rate(learning_rate: f64) -> Self {
        Adam {
            learning_rate,
            step: 0,
            m: Vec::new(),
            v: Vec::new(),
        }
    }

    /// The configured learning rate.
    pub fn learning_rate(&self) -> f64 {
        self.learning_rate
    }

    /// Bias-correction step counter (number of updates applied).
    pub fn step_count(&self) -> u64 {
        self.step
    }

    /// First-moment buffer (empty until the first update).
    pub fn first_moment(&self) -> &[f64] {
        &self.m
    }

    /// Second-moment buffer (empty until the first update).
    pub fn second_moment(&self) -> &[f64] {
        &self.v
    }

    /// Rebuilds an Adam instance from checkpointed state. The moment
    /// buffers must be equal-length (both may be empty for an optimizer
    /// that never stepped).
    ///
    /// # Panics
    ///
    /// Panics if `m` and `v` differ in length.
    pub fn restore(learning_rate: f64, step: u64, m: Vec<f64>, v: Vec<f64>) -> Self {
        assert_eq!(m.len(), v.len(), "moment buffers must be equal length");
        Adam {
            learning_rate,
            step,
            m,
            v,
        }
    }
}

/// A stateful optimizer that applies a gradient step to a flat parameter
/// vector. State buffers are allocated lazily on first use and keyed by
/// position, so an optimizer must be used with a single network.
pub trait Optimizer {
    /// Applies one update: `params ← params − f(grads)`.
    ///
    /// # Panics
    ///
    /// Panics if `params.len() != grads.len()`, or if the vector length
    /// changes between calls.
    fn step(&mut self, params: &mut [f64], grads: &[f64]);
}

impl Optimizer for Adam {
    fn step(&mut self, params: &mut [f64], grads: &[f64]) {
        assert_eq!(params.len(), grads.len(), "parameter/gradient mismatch");
        if self.m.is_empty() {
            self.m = vec![0.0; params.len()];
            self.v = vec![0.0; params.len()];
        }
        assert_eq!(
            self.m.len(),
            params.len(),
            "optimizer reuse across networks"
        );
        // Saturating, so a restored count of `u64::MAX` cannot wrap to 0,
        // where 1 − β⁰ = 0 would divide by zero.
        self.step = self.step.saturating_add(1);
        // A step count past `i32::MAX` saturates the exponent, where βᵗ
        // has long underflowed to 0.
        let t = i32::try_from(self.step).unwrap_or(i32::MAX);
        let b1t = 1.0 - BETA1.powi(t);
        let b2t = 1.0 - BETA2.powi(t);
        let lr = self.learning_rate;
        // False for a NaN or infinite learning rate, so no lane settles.
        let small_gain = lr.abs() / (b1t * EPSILON) < MAX_SETTLED_GAIN;
        let lanes = params
            .iter_mut()
            .zip(grads)
            .zip(&mut self.m)
            .zip(&mut self.v);
        for (((w, &g), m), v) in lanes {
            // A settled lane's exact result is m and w unchanged. Its
            // arithmetic runs on g = ±0 instead of a subnormal m, which
            // makes its update ±0 and leaves w as it is; m is selected
            // back. (A literal 0.0 would let the compiler fold β₁·0 and
            // multiply the subnormal m after all.)
            let keep = small_gain & settled(*m, g, *v, *w);
            let m_in = if keep { g } else { *m };
            let m_new = BETA1 * m_in + (1.0 - BETA1) * g;
            *v = BETA2 * *v + (1.0 - BETA2) * g * g;
            // From step 356 on, 1 − β₁ᵗ is exactly 1.0, and m / 1.0 = m.
            let m_hat = if b1t == 1.0 { m_new } else { m_new / b1t };
            let v_hat = *v / b2t;
            *w -= lr * m_hat / (v_hat.sqrt() + EPSILON);
            *m = if keep { *m } else { m_new };
        }
    }
}

/// Whether a lane's exact Adam step leaves its first moment and weight
/// unchanged, tested on bits so the update loop stays branch-free. It
/// holds when the step's gain passes the once-per-step bound and
///
/// * `m = ±k·2⁻¹⁰⁷⁴` with `1 ≤ k ≤ 5`, a fixed point of `fl(β₁·m)`
///   (`0.9f64` lies just above 0.9, so `0.9·k` rounds back to `k`);
/// * `g = ±0`, so `fl(β₁·m) + (1 − β₁)·g` is `m` again;
/// * `v` is finite with its sign bit clear, so `√v̂ + ε ≥ ε`;
/// * `w` is finite with `|w| ≥ 2⁻⁹⁰⁰`. The update is below
///   `10⁹·5·2⁻¹⁰⁷⁴` plus one subnormal rounding over `ε`, so under
///   `2⁻¹⁰⁴¹`, far below half an ulp of `w`: `fl(w − u) = w`.
///
/// A moment whose gradient stays zero decays to one of these values and
/// stays there, so they dominate late training.
fn settled(m: f64, g: f64, v: f64, w: f64) -> bool {
    let (m, w) = (m.to_bits() & ABS_BITS, w.to_bits() & ABS_BITS);
    (m.wrapping_sub(1) < MAX_SETTLED_K)
        & (g.to_bits() & ABS_BITS == 0)
        & (v.to_bits() < INF_BITS)
        & (MIN_SETTLED_WEIGHT_BITS..INF_BITS).contains(&w)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Minimize f(x) = (x − 3)² from x = 0.
    fn minimize<O: Optimizer>(opt: &mut O, iterations: usize) -> f64 {
        let mut x = [0.0f64];
        for _ in 0..iterations {
            let g = [2.0 * (x[0] - 3.0)];
            opt.step(&mut x, &g);
        }
        x[0]
    }

    #[test]
    fn adam_converges_on_quadratic() {
        let mut adam = Adam::with_learning_rate(0.1);
        assert!((minimize(&mut adam, 500) - 3.0).abs() < 1e-4);
    }

    #[test]
    fn adam_handles_ill_scaled_gradients() {
        // Two coordinates with gradients 1000× apart: Adam normalizes.
        let mut adam = Adam::with_learning_rate(0.05);
        let mut x = [0.0f64, 0.0];
        for _ in 0..3000 {
            let g = [2000.0 * (x[0] - 1.0), 2.0 * (x[1] - 1.0)];
            adam.step(&mut x, &g);
        }
        assert!((x[0] - 1.0).abs() < 1e-2, "x0 = {}", x[0]);
        assert!((x[1] - 1.0).abs() < 1e-2, "x1 = {}", x[1]);
    }

    #[test]
    fn restored_adam_steps_bit_exactly() {
        let mut original = Adam::with_learning_rate(0.05);
        let mut x = [0.2f64, -0.7, 1.3];
        for i in 0..10 {
            let g = [0.1 * i as f64, -0.3, 0.5 * (i as f64 - 4.0)];
            original.step(&mut x, &g);
        }
        let mut restored = Adam::restore(
            original.learning_rate(),
            original.step_count(),
            original.first_moment().to_vec(),
            original.second_moment().to_vec(),
        );
        let mut x2 = x;
        let g = [0.25, -0.5, 0.75];
        original.step(&mut x, &g);
        restored.step(&mut x2, &g);
        assert_eq!(x, x2);
    }

    /// Textbook Adam at step `t`: both bias corrections always divide.
    fn reference_step(x: &mut [f64], g: &[f64], m: &mut [f64], v: &mut [f64], t: i32, lr: f64) {
        let (beta1, beta2, eps) = (0.9f64, 0.999f64, 1e-8);
        let (b1t, b2t) = (1.0 - beta1.powi(t), 1.0 - beta2.powi(t));
        for i in 0..x.len() {
            m[i] = beta1 * m[i] + (1.0 - beta1) * g[i];
            v[i] = beta2 * v[i] + (1.0 - beta2) * g[i] * g[i];
            x[i] -= lr * (m[i] / b1t) / ((v[i] / b2t).sqrt() + eps);
        }
    }

    fn bits(xs: &[f64]) -> Vec<u64> {
        xs.iter().map(|x| x.to_bits()).collect()
    }

    #[test]
    fn adam_is_bit_exact_with_the_always_dividing_reference() {
        // 1 − β₁ᵗ rounds to 1.0 from step 356 on. Coordinate 1's gradient
        // stops at step 20, so its first moment decays by 0.9 a step into
        // the subnormal range after about 6 700 steps, where rounding
        // holds it at 5·2⁻¹⁰⁷⁴ for good; coordinate 2's gradient is
        // always zero.
        let mut adam = Adam::with_learning_rate(1e-3);
        let mut x = vec![0.4, -0.3, 0.2, 0.1, -0.6];
        let (mut rx, mut rm, mut rv) = (x.clone(), vec![0.0; 5], vec![0.0; 5]);
        let mut saw_subnormal = false;
        for t in 1..=7_500 {
            let tf = f64::from(t);
            let g = [
                (tf * 0.37).sin() * 0.1,
                if t <= 20 { 0.5 } else { 0.0 },
                0.0,
                if t <= 400 { (tf * 0.11).cos() } else { 0.0 },
                2.0 * (x[4] - 1.0),
            ];
            adam.step(&mut x, &g);
            reference_step(&mut rx, &g, &mut rm, &mut rv, t, 1e-3);
            assert_eq!(bits(&x), bits(&rx), "parameters diverged at step {t}");
            assert_eq!(bits(adam.first_moment()), bits(&rm), "m at step {t}");
            assert_eq!(bits(adam.second_moment()), bits(&rv), "v at step {t}");
            saw_subnormal |= adam.first_moment()[1].is_subnormal();
        }
        assert!(saw_subnormal, "coordinate 1's moment never went subnormal");
        assert_eq!(1.0 - 0.9f64.powi(356), 1.0);
    }

    #[test]
    fn settled_lanes_are_bit_exact_with_the_always_dividing_reference_on_edge_states() {
        // `settled` rests on k·2⁻¹⁰⁷⁴ being a fixed point of fl(β₁·m)
        // for k ≤ 5, and on nothing wider.
        for k in 1..=6u64 {
            let m = f64::from_bits(k);
            assert_eq!((BETA1 * m).to_bits() == k, k <= MAX_SETTLED_K, "k = {k}");
        }
        let sub = f64::from_bits;
        let (inf, nan) = (f64::INFINITY, f64::NAN);
        let tiny_w = 0.5f64.powi(900);
        // No −∞ moment: −∞ + ∞ makes a fresh NaN, whose sign may differ
        // from `nan`'s, and Rust leaves unspecified which of two NaN
        // operands an operation returns.
        let mut moments = vec![0.0, -0.0, f64::MIN_POSITIVE, 0.01, -0.3, nan, inf];
        moments.extend((1..=12).flat_map(|k| [sub(k), -sub(k)]));
        let grads = [0.0, -0.0, sub(3), sub(1 << 51), 0.5, -1e-3, nan, inf];
        let weights = [
            0.0,
            -0.0,
            tiny_w,
            -tiny_w,
            tiny_w / 2.0,
            0.5f64.powi(1010),
            sub(7),
            0.25,
            f64::MAX,
            inf,
            -inf,
            nan,
        ];
        let seconds = [0.0, -0.0, sub(9), 1e-4, 0.3, -1e-6, inf, nan];
        let (mut m0, mut g, mut w0, mut v0) = (vec![], vec![], vec![], vec![]);
        for &m in &moments {
            for &gi in &grads {
                for &w in &weights {
                    for &v in &seconds {
                        m0.push(m);
                        g.push(gi);
                        w0.push(w);
                        v0.push(v);
                    }
                }
            }
        }
        let lrs = [1e-3, 5e-3, 1.0, 1e30, -1e-3, 0.0, nan, inf];
        let counts = [0, 354, 355, 356, 5_000, 1 << 31, u64::MAX];
        let mut kept = 0;
        for &lr in &lrs {
            for &count in &counts {
                let mut adam = Adam::restore(lr, count, m0.clone(), v0.clone());
                let (mut x, mut rx, mut rm, mut rv) =
                    (w0.clone(), w0.clone(), m0.clone(), v0.clone());
                for j in 1..=3 {
                    let t = i32::try_from(count.saturating_add(j)).unwrap_or(i32::MAX);
                    let b1t = 1.0 - BETA1.powi(t);
                    if lr.abs() / (b1t * EPSILON) < MAX_SETTLED_GAIN {
                        kept += (0..x.len())
                            .filter(|&i| settled(rm[i], g[i], rv[i], rx[i]))
                            .count();
                    }
                    adam.step(&mut x, &g);
                    reference_step(&mut rx, &g, &mut rm, &mut rv, t, lr);
                    for (name, got, want) in [
                        ("w", &x[..], &rx[..]),
                        ("m", adam.first_moment(), &rm[..]),
                        ("v", adam.second_moment(), &rv[..]),
                    ] {
                        if let Some(i) =
                            (0..got.len()).find(|&i| got[i].to_bits() != want[i].to_bits())
                        {
                            panic!(
                                "{name} = {:#x}, reference {:#x}, at lr {lr:e}, restored count \
                                 {count}, step {j}, from m {:e}, g {:e}, w {:e}, v {:e}",
                                got[i].to_bits(),
                                want[i].to_bits(),
                                m0[i],
                                g[i],
                                w0[i],
                                v0[i]
                            );
                        }
                    }
                }
            }
        }
        assert!(kept > 0, "no state reached a settled lane");
    }

    #[test]
    fn step_count_past_i32_max_saturates() {
        // A checkpointed count of 2³¹ must not wrap to a negative
        // exponent: 1 − βᵗ would be −∞ and the weights would freeze. Nor
        // may `u64::MAX` wrap the count to 0, where 1 − β⁰ = 0 would turn
        // the weights into Inf or NaN (or panic on overflow).
        let step_from = |count: u64| {
            let mut adam = Adam::restore(1e-3, count, vec![0.01, -0.02], vec![1e-4, 4e-4]);
            let mut x = [0.5, -0.5];
            adam.step(&mut x, &[0.1, -0.2]);
            x
        };
        let limit = step_from(i32::MAX as u64 - 1);
        assert_eq!(step_from(1 << 31), limit);
        assert_eq!(step_from(u64::MAX), limit);
        assert_ne!(limit, [0.5, -0.5], "the update must move the weights");
    }

    #[test]
    #[should_panic]
    fn mismatched_moment_buffers_rejected() {
        let _ = Adam::restore(0.1, 1, vec![0.0], vec![0.0, 0.0]);
    }

    #[test]
    #[should_panic]
    fn mismatched_lengths_panic() {
        let mut adam = Adam::with_learning_rate(0.1);
        adam.step(&mut [0.0, 0.0], &[1.0]);
    }

    #[test]
    #[should_panic]
    fn reuse_across_networks_panics() {
        let mut adam = Adam::with_learning_rate(0.1);
        adam.step(&mut [0.0, 0.0], &[1.0, 1.0]);
        adam.step(&mut [0.0], &[1.0]);
    }
}
