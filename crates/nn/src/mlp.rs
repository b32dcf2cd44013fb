//! The multi-layer perceptron with exact backpropagation of the mean
//! squared error.
//!
//! Two equivalent gradient paths exist:
//!
//! * the **per-sample** path ([`Mlp::forward`], [`Mlp::loss_and_gradient`],
//!   [`Mlp::train_batch`]) — simple, allocation-per-call, and the
//!   reference the batched path is tested against;
//! * the **batched** path ([`Mlp::forward_batch`], [`Mlp::backward_batch`],
//!   [`Mlp::loss_and_gradient_batch`]) — one packed [`Batch`] per layer,
//!   reusable [`BatchScratch`] buffers, and blocked matrix–matrix
//!   kernels. The DQN trains on it, stepping an [`Optimizer`] over
//!   [`Mlp::flatten_params_into`] and [`Mlp::set_params`].
//!
//! The two paths are **bit-exact**: every dot product accumulates in the
//! same order, so swapping one for the other cannot perturb a single
//! reproducible run (property-tested in `tests/properties.rs`).

use crate::activation::Activation;
use crate::batch::Batch;
use crate::matrix::{gemm_tn_scaled_into, Matrix};
use crate::optimizer::Optimizer;
use rand::Rng;

/// One dense layer: `a = act(W·x + b)`.
#[derive(Debug, Clone, PartialEq)]
pub struct DenseLayer {
    weights: Matrix,
    /// `Wᵀ`, kept in sync with `weights` (refreshed on every parameter
    /// write) so the batched forward kernel reads both operands
    /// contiguously without a per-call transpose.
    weights_t: Matrix,
    biases: Vec<f64>,
    activation: Activation,
}

impl DenseLayer {
    /// Xavier/Glorot-uniform initialization.
    fn init<R: Rng + ?Sized>(
        input: usize,
        output: usize,
        activation: Activation,
        rng: &mut R,
    ) -> Self {
        let limit = (6.0 / (input + output) as f64).sqrt();
        let mut layer = DenseLayer {
            weights: Matrix::from_fn(output, input, |_, _| rng.gen_range(-limit..limit)),
            weights_t: Matrix::zeros(input, output),
            biases: vec![0.0; output],
            activation,
        };
        layer.refresh_transpose();
        layer
    }

    /// Rebuilds the cached transpose after `weights` changed.
    fn refresh_transpose(&mut self) {
        let (rows, cols) = (self.weights.rows(), self.weights.cols());
        debug_assert_eq!(self.weights_t.rows(), cols);
        debug_assert_eq!(self.weights_t.cols(), rows);
        let w = self.weights.as_slice();
        let wt = self.weights_t.as_mut_slice();
        for o in 0..rows {
            for k in 0..cols {
                wt[k * rows + o] = w[o * cols + k];
            }
        }
    }

    /// Input width.
    pub fn input_size(&self) -> usize {
        self.weights.cols()
    }

    /// Output width.
    pub fn output_size(&self) -> usize {
        self.weights.rows()
    }

    /// Parameters in this layer (weights + biases).
    pub fn param_count(&self) -> usize {
        self.weights.len() + self.biases.len()
    }

    /// The weight matrix (`output_size × input_size`, row-major).
    pub fn weights(&self) -> &Matrix {
        &self.weights
    }

    /// The bias vector (`output_size` entries).
    pub fn biases(&self) -> &[f64] {
        &self.biases
    }

    /// The layer's activation function.
    pub fn activation(&self) -> Activation {
        self.activation
    }

    fn forward(&self, x: &[f64]) -> (Vec<f64>, Vec<f64>) {
        let mut z = self.weights.mul_vec(x);
        for (zi, b) in z.iter_mut().zip(&self.biases) {
            *zi += b;
        }
        let mut a = z.clone();
        self.activation.apply_slice(&mut a);
        (z, a)
    }
}

/// A fully connected network.
///
/// Build with [`MlpBuilder`]; see the crate docs for a training example.
#[derive(Debug, Clone, PartialEq)]
pub struct Mlp {
    layers: Vec<DenseLayer>,
}

/// Builder for [`Mlp`].
///
/// ```
/// use ctjam_nn::mlp::MlpBuilder;
/// use rand::rngs::StdRng;
/// use rand::SeedableRng;
///
/// let mut rng = StdRng::seed_from_u64(0);
/// // The paper's architecture: 3·I inputs, two ReLU hidden layers, C·PL
/// // linear outputs.
/// let net = MlpBuilder::new(24).hidden(40).hidden(40).output(160).build(&mut rng);
/// assert_eq!(net.shape(), vec![24, 40, 40, 160]);
/// ```
#[derive(Debug, Clone)]
pub struct MlpBuilder {
    sizes: Vec<usize>,
}

impl MlpBuilder {
    /// Starts a network with `input` features.
    ///
    /// # Panics
    ///
    /// Panics if `input == 0`.
    pub fn new(input: usize) -> Self {
        assert!(input > 0, "input width must be positive");
        MlpBuilder { sizes: vec![input] }
    }

    /// Appends a ReLU hidden layer of `width` units.
    ///
    /// # Panics
    ///
    /// Panics if `width == 0`.
    #[must_use]
    pub fn hidden(mut self, width: usize) -> Self {
        assert!(width > 0, "hidden width must be positive");
        self.sizes.push(width);
        self
    }

    /// Appends the linear output layer and finalizes the architecture.
    ///
    /// # Panics
    ///
    /// Panics if `width == 0`.
    #[must_use]
    pub fn output(mut self, width: usize) -> MlpFinal {
        assert!(width > 0, "output width must be positive");
        self.sizes.push(width);
        MlpFinal { sizes: self.sizes }
    }
}

/// A finalized architecture awaiting weight initialization.
#[derive(Debug, Clone)]
pub struct MlpFinal {
    sizes: Vec<usize>,
}

impl MlpFinal {
    /// Initializes weights (Xavier uniform) and produces the network.
    pub fn build<R: Rng + ?Sized>(&self, rng: &mut R) -> Mlp {
        let n = self.sizes.len();
        let layers = (0..n - 1)
            .map(|i| {
                let activation = if i + 2 == n {
                    Activation::Identity
                } else {
                    Activation::Relu
                };
                DenseLayer::init(self.sizes[i], self.sizes[i + 1], activation, rng)
            })
            .collect();
        Mlp { layers }
    }
}

impl Mlp {
    /// Layer widths including input and output.
    pub fn shape(&self) -> Vec<usize> {
        let mut shape = vec![self.layers[0].input_size()];
        shape.extend(self.layers.iter().map(DenseLayer::output_size));
        shape
    }

    /// Input width.
    pub fn input_size(&self) -> usize {
        self.layers[0].input_size()
    }

    /// Output width.
    pub fn output_size(&self) -> usize {
        self.layers
            .last()
            .expect("at least one layer")
            .output_size()
    }

    /// Total number of trainable parameters.
    pub fn param_count(&self) -> usize {
        self.layers.iter().map(DenseLayer::param_count).sum()
    }

    /// The layers, in order.
    pub fn layers(&self) -> &[DenseLayer] {
        &self.layers
    }

    /// Forward pass.
    ///
    /// # Panics
    ///
    /// Panics if `x.len()` differs from the input width.
    pub fn forward(&self, x: &[f64]) -> Vec<f64> {
        assert_eq!(x.len(), self.input_size(), "input width mismatch");
        let mut a = x.to_vec();
        for layer in &self.layers {
            a = layer.forward(&a).1;
        }
        a
    }

    /// Forward pass keeping every layer's pre-activation and activation —
    /// the trace backpropagation consumes.
    fn forward_trace(&self, x: &[f64]) -> (Vec<Vec<f64>>, Vec<Vec<f64>>) {
        let mut activations = vec![x.to_vec()];
        let mut preacts = Vec::with_capacity(self.layers.len());
        for layer in &self.layers {
            let (z, a) = layer.forward(activations.last().expect("nonempty"));
            preacts.push(z);
            activations.push(a);
        }
        (activations, preacts)
    }

    /// Flattens all parameters (per layer: weights row-major, then biases).
    pub fn flatten_params(&self) -> Vec<f64> {
        let mut out = Vec::with_capacity(self.param_count());
        for layer in &self.layers {
            out.extend_from_slice(layer.weights.as_slice());
            out.extend_from_slice(&layer.biases);
        }
        out
    }

    /// Writes back a flat parameter vector (inverse of
    /// [`Mlp::flatten_params`]).
    ///
    /// # Panics
    ///
    /// Panics if the length does not match [`Mlp::param_count`].
    pub fn set_params(&mut self, params: &[f64]) {
        assert_eq!(params.len(), self.param_count(), "parameter count mismatch");
        let mut offset = 0;
        for layer in &mut self.layers {
            let w = layer.weights.len();
            layer
                .weights
                .as_mut_slice()
                .copy_from_slice(&params[offset..offset + w]);
            layer.refresh_transpose();
            offset += w;
            let b = layer.biases.len();
            layer.biases.copy_from_slice(&params[offset..offset + b]);
            offset += b;
        }
    }

    /// Copies another network's weights into this one (target-network
    /// synchronization in DQN).
    ///
    /// # Panics
    ///
    /// Panics if the architectures differ.
    pub fn copy_weights_from(&mut self, other: &Mlp) {
        assert_eq!(self.shape(), other.shape(), "architecture mismatch");
        self.set_params(&other.flatten_params());
    }

    /// Computes the mean per-sample loss and its gradient over a batch
    /// without updating weights. The gradient is flat, aligned with
    /// [`Mlp::flatten_params`].
    ///
    /// # Panics
    ///
    /// Panics on an empty batch or mismatched widths.
    pub fn loss_and_gradient(&self, batch: &[(&[f64], &[f64])]) -> (f64, Vec<f64>) {
        assert!(!batch.is_empty(), "empty training batch");
        let out_dim = self.output_size() as f64;
        let scale = 1.0 / batch.len() as f64;

        let mut grad_w: Vec<Matrix> = self
            .layers
            .iter()
            .map(|l| Matrix::zeros(l.output_size(), l.input_size()))
            .collect();
        let mut grad_b: Vec<Vec<f64>> = self
            .layers
            .iter()
            .map(|l| vec![0.0; l.output_size()])
            .collect();
        let mut total_loss = 0.0;

        for &(x, t) in batch {
            assert_eq!(t.len(), self.output_size(), "target width mismatch");
            let (activations, preacts) = self.forward_trace(x);
            let prediction = activations.last().expect("output exists");
            total_loss += mean_squared_error(prediction, t);

            // dL/da at the output (per-sample loss is the mean over dims).
            let mut delta: Vec<f64> = prediction
                .iter()
                .zip(t)
                .map(|(&p, &y)| squared_error_gradient(p, y) / out_dim)
                .collect();

            for l in (0..self.layers.len()).rev() {
                let layer = &self.layers[l];
                // dz = dL/da ⊙ act′(z).
                let dz: Vec<f64> = delta
                    .iter()
                    .zip(&preacts[l])
                    .map(|(&d, &z)| d * layer.activation.derivative(z))
                    .collect();
                grad_w[l].add_outer(&dz, &activations[l], scale);
                for (g, d) in grad_b[l].iter_mut().zip(&dz) {
                    *g += d * scale;
                }
                if l > 0 {
                    delta = layer.weights.mul_vec_transposed(&dz);
                }
            }
        }

        let mut flat = Vec::with_capacity(self.param_count());
        for (gw, gb) in grad_w.iter().zip(&grad_b) {
            flat.extend_from_slice(gw.as_slice());
            flat.extend_from_slice(gb);
        }
        (total_loss * scale, flat)
    }

    /// One optimization step on a batch; returns the pre-update mean loss.
    ///
    /// # Panics
    ///
    /// Panics on an empty batch or mismatched widths.
    pub fn train_batch<O: Optimizer>(&mut self, batch: &[(&[f64], &[f64])], opt: &mut O) -> f64 {
        let (loss, grads) = self.loss_and_gradient(batch);
        let mut params = self.flatten_params();
        opt.step(&mut params, &grads);
        self.set_params(&params);
        loss
    }

    /// Writes all parameters into `out` (cleared first), in
    /// [`Mlp::flatten_params`] order, without allocating when `out` has
    /// capacity.
    pub fn flatten_params_into(&self, out: &mut Vec<f64>) {
        out.clear();
        out.reserve(self.param_count());
        for layer in &self.layers {
            out.extend_from_slice(layer.weights.as_slice());
            out.extend_from_slice(&layer.biases);
        }
    }

    /// Batched forward pass over every row of `x` at once, recording the
    /// full activation trace in `scratch` (consumed by
    /// [`Mlp::backward_batch`]). Returns the output batch.
    ///
    /// Bit-exact with calling [`Mlp::forward`] on each row.
    ///
    /// # Panics
    ///
    /// Panics if `x.cols()` differs from the input width.
    pub fn forward_batch<'s>(&self, x: &Batch, scratch: &'s mut BatchScratch) -> &'s Batch {
        assert_eq!(x.cols(), self.input_size(), "input width mismatch");
        scratch.activations[0].copy_from(x);
        for (l, layer) in self.layers.iter().enumerate() {
            let (head, tail) = scratch.activations.split_at_mut(l + 1);
            let z = &mut scratch.preacts[l];
            head[l].matmul_bias_into(&layer.weights_t, Some(&layer.biases), z);
            let a = &mut tail[0];
            a.copy_from(z);
            layer.activation.apply_slice(a.as_mut_slice());
        }
        scratch
            .activations
            .last()
            .expect("at least the input activation")
    }

    /// Backward pass over the activation trace left in `scratch` by the
    /// most recent [`Mlp::forward_batch`] call (with this network and the
    /// inputs whose predictions `targets` refers to). Returns the mean
    /// per-sample loss and the flat gradient, aligned with
    /// [`Mlp::flatten_params`], both living in `scratch`.
    ///
    /// Bit-exact with [`Mlp::loss_and_gradient`] on the same pairs. The
    /// output layer's work scales with its entries whose target differs
    /// from the prediction: one per row for a DQN target.
    ///
    /// # Panics
    ///
    /// Panics if `targets` is empty or its shape disagrees with the
    /// recorded trace.
    pub fn backward_batch<'s>(
        &self,
        targets: &Batch,
        scratch: &'s mut BatchScratch,
    ) -> (f64, &'s [f64]) {
        let rows = targets.rows();
        assert!(rows > 0, "empty training batch");
        assert_eq!(targets.cols(), self.output_size(), "target width mismatch");
        let output = scratch.activations.last().expect("output exists");
        assert_eq!(
            output.rows(),
            rows,
            "trace/target batch-size mismatch (run forward_batch first)"
        );
        let out_dim = self.output_size() as f64;
        let scale = 1.0 / rows as f64;
        // Each layer writes its gradient straight into its slice of the
        // flat vector (weights row-major, then biases), last layer first.
        scratch.flat.resize(self.param_count(), 0.0);
        let mut end = scratch.flat.len();
        let last = self.layers.len() - 1;
        let layer = &self.layers[last];
        let in_size = layer.input_size();

        // The output layer's loss terms and dz = dL/da ⊙ act′(z), at its
        // live entries only. Where the target equals the prediction and
        // z is finite, the loss term is +0 and dz is ±0, and neither can
        // change a sum that starts at +0.0. Each product such a dz would
        // add is an exact ±0 too: a finite z is a sum of finite products,
        // so the input row and the weight row behind it are finite. A DQN
        // target leaves one live entry per row.
        let mut total_loss = 0.0;
        scratch.live.clear();
        for s in 0..rows {
            let (prediction, target) = (output.row(s), targets.row(s));
            let z = scratch.preacts[last].row(s);
            let mut row_loss = 0.0;
            let chunks = prediction
                .chunks(LIVE_SCAN)
                .zip(target.chunks(LIVE_SCAN))
                .zip(z.chunks(LIVE_SCAN));
            for (c, ((pc, yc), zc)) in chunks.enumerate() {
                let entries = pc.iter().zip(yc).zip(zc).map(|((&p, &y), &z)| (p, y, z));
                // A branch-free test first: most chunks hold no live entry.
                if !entries
                    .clone()
                    .fold(false, |any, (p, y, z)| any | is_live(p, y, z))
                {
                    continue;
                }
                for (k, (p, y, z)) in entries.enumerate() {
                    if is_live(p, y, z) {
                        row_loss += squared_error(p, y);
                        let d =
                            squared_error_gradient(p, y) / out_dim * layer.activation.derivative(z);
                        scratch.live.push((s, c * LIVE_SCAN + k, d));
                    }
                }
            }
            total_loss += row_loss / out_dim;
        }

        // dW, db and the delta handed down, from the live entries alone.
        // In (sample, output) order every accumulator adds its terms in
        // the ascending order of `gemm_tn_scaled_into` (over samples) and
        // `gemm_nn_into` (over outputs), with the same products.
        let (gw, gb) =
            scratch.flat[end - layer.param_count()..end].split_at_mut(layer.weights.len());
        end -= layer.param_count();
        gw.fill(0.0);
        gb.fill(0.0);
        if last > 0 {
            scratch.delta.set_shape(rows, in_size);
        }
        let weights = layer.weights.as_slice();
        for &(s, j, d) in &scratch.live {
            let ds = d * scale;
            let a = scratch.activations[last].row(s);
            for (g, &x) in gw[j * in_size..(j + 1) * in_size].iter_mut().zip(a) {
                *g += ds * x;
            }
            gb[j] += ds;
            if last > 0 {
                let w = &weights[j * in_size..(j + 1) * in_size];
                for (o, &wv) in scratch.delta.row_mut(s).iter_mut().zip(w) {
                    *o += wv * d;
                }
            }
        }

        for l in (0..last).rev() {
            let layer = &self.layers[l];
            let (out_size, in_size) = (layer.output_size(), layer.input_size());
            let (gw, gb) =
                scratch.flat[end - layer.param_count()..end].split_at_mut(layer.weights.len());
            end -= layer.param_count();
            // dz = dL/da ⊙ act′(z), for the whole batch.
            scratch.dz.set_shape(rows, out_size);
            for ((d, &dl), &z) in scratch
                .dz
                .as_mut_slice()
                .iter_mut()
                .zip(scratch.delta.as_slice())
                .zip(scratch.preacts[l].as_slice())
            {
                *d = dl * layer.activation.derivative(z);
            }
            // dW = (dz·scale)ᵀ · a as one transposed GEMM. Each gradient
            // element folds over samples in ascending order from 0.0,
            // adding the identical `(dz[s][j]·scale)·a[s][i]` terms the
            // per-sample rank-1 updates added — bit-exact, but every
            // cache line of the activations is now read once instead of
            // once per sample.
            gemm_tn_scaled_into(
                scratch.dz.as_slice(),
                rows,
                out_size,
                scale,
                scratch.activations[l].as_slice(),
                in_size,
                gw,
            );
            gb.fill(0.0);
            for s in 0..rows {
                for (g, &d) in gb.iter_mut().zip(scratch.dz.row(s)) {
                    *g += d * scale;
                }
            }
            if l > 0 {
                scratch.dz.matmul_into(&layer.weights, &mut scratch.delta);
            }
        }
        (total_loss * scale, &scratch.flat)
    }

    /// Batched mean loss and flat gradient — [`Mlp::loss_and_gradient`]
    /// over packed inputs/targets with zero per-sample allocation.
    ///
    /// # Panics
    ///
    /// Panics on an empty batch or mismatched widths.
    pub fn loss_and_gradient_batch<'s>(
        &self,
        x: &Batch,
        targets: &Batch,
        scratch: &'s mut BatchScratch,
    ) -> (f64, &'s [f64]) {
        assert_eq!(x.rows(), targets.rows(), "input/target batch mismatch");
        self.forward_batch(x, scratch);
        self.backward_batch(targets, scratch)
    }
}

/// The squared error `(p − y)²` of one output entry.
fn squared_error(p: f64, y: f64) -> f64 {
    let e = p - y;
    e * e
}

/// `d(p − y)²/dp = 2·(p − y)`.
fn squared_error_gradient(p: f64, y: f64) -> f64 {
    let e = p - y;
    2.0 * e
}

/// The squared error averaged over a sample's outputs.
fn mean_squared_error(predictions: &[f64], targets: &[f64]) -> f64 {
    predictions
        .iter()
        .zip(targets)
        .map(|(&p, &y)| squared_error(p, y))
        .sum::<f64>()
        / predictions.len() as f64
}

/// Output entries per branch-free test in [`Mlp::backward_batch`]'s scan
/// for live entries.
const LIVE_SCAN: usize = 16;

/// Whether an output entry (prediction `p`, target `y`, pre-activation
/// `z`) can add anything to the loss or the gradient: it cannot when
/// `p == y` with `z` finite (see [`Mlp::backward_batch`]). Non-short-
/// circuiting, so a chunk of tests vectorizes.
fn is_live(p: f64, y: f64, z: f64) -> bool {
    (p != y) | !z.is_finite()
}

/// Reusable buffers for the batched forward/backward path: layer
/// activations and pre-activations for a whole minibatch, the backward
/// pass's per-layer terms, and the flattened gradient.
/// Create one per network with [`BatchScratch::for_network`] and reuse it
/// across training steps — after warm-up neither pass allocates.
#[derive(Debug, Clone)]
pub struct BatchScratch {
    /// `activations[0]` is the input batch, `activations[l + 1]` the
    /// output of layer `l`.
    activations: Vec<Batch>,
    /// Pre-activation `z` of each layer.
    preacts: Vec<Batch>,
    /// `dL/da` of the layer currently being backpropagated.
    delta: Batch,
    /// `dL/dz` of the layer currently being backpropagated.
    dz: Batch,
    /// `(sample, output, dz)` of the output layer's entries that can
    /// contribute to a gradient or delta product.
    live: Vec<(usize, usize, f64)>,
    flat: Vec<f64>,
}

impl BatchScratch {
    /// Buffers sized for `net`'s architecture (row counts grow lazily to
    /// whatever batch size shows up).
    pub fn for_network(net: &Mlp) -> Self {
        let mut activations = vec![Batch::with_cols(net.input_size())];
        activations.extend(net.layers.iter().map(|l| Batch::with_cols(l.output_size())));
        BatchScratch {
            activations,
            preacts: net
                .layers
                .iter()
                .map(|l| Batch::with_cols(l.output_size()))
                .collect(),
            delta: Batch::default(),
            dz: Batch::default(),
            live: Vec::new(),
            flat: Vec::new(),
        }
    }

    /// The flat gradient left by the most recent backward pass, aligned
    /// with [`Mlp::flatten_params`].
    pub fn gradient(&self) -> &[f64] {
        &self.flat
    }

    /// The network output left by the most recent
    /// [`Mlp::forward_batch`] call.
    pub fn output(&self) -> &Batch {
        self.activations
            .last()
            .expect("at least the input activation")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::optimizer::{Adam, Optimizer};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(42)
    }

    #[test]
    fn shape_and_param_count() {
        let net = MlpBuilder::new(24)
            .hidden(40)
            .hidden(40)
            .output(160)
            .build(&mut rng());
        assert_eq!(net.shape(), vec![24, 40, 40, 160]);
        // 24·40+40 + 40·40+40 + 40·160+160 = 9240... computed exactly:
        let expected = 24 * 40 + 40 + 40 * 40 + 40 + 40 * 160 + 160;
        assert_eq!(net.param_count(), expected);
    }

    #[test]
    fn forward_is_deterministic() {
        let net = MlpBuilder::new(4).hidden(8).output(2).build(&mut rng());
        let x = [0.1, -0.2, 0.3, -0.4];
        assert_eq!(net.forward(&x), net.forward(&x));
    }

    #[test]
    fn params_roundtrip() {
        let mut net = MlpBuilder::new(3).hidden(5).output(2).build(&mut rng());
        let flat = net.flatten_params();
        assert_eq!(flat.len(), net.param_count());
        let mut changed = flat.clone();
        changed[0] += 1.0;
        net.set_params(&changed);
        assert_eq!(net.flatten_params(), changed);
    }

    #[test]
    fn copy_weights_synchronizes_outputs() {
        let mut r = rng();
        let a = MlpBuilder::new(4).hidden(6).output(3).build(&mut r);
        let mut b = MlpBuilder::new(4).hidden(6).output(3).build(&mut r);
        let x = [1.0, 2.0, 3.0, 4.0];
        assert_ne!(a.forward(&x), b.forward(&x));
        b.copy_weights_from(&a);
        assert_eq!(a.forward(&x), b.forward(&x));
    }

    #[test]
    fn gradient_matches_finite_differences() {
        let net = MlpBuilder::new(3)
            .hidden(5)
            .hidden(4)
            .output(2)
            .build(&mut rng());
        let x = [0.5, -1.0, 0.25];
        let t = [1.0, -1.0];
        let batch: Vec<(&[f64], &[f64])> = vec![(&x, &t)];
        let (_, analytic) = net.loss_and_gradient(&batch);

        let params = net.flatten_params();
        let eps = 1e-6;
        let mut worst = 0.0f64;
        for i in (0..params.len()).step_by(7) {
            let mut plus = net.clone();
            let mut p = params.clone();
            p[i] += eps;
            plus.set_params(&p);
            let mut minus = net.clone();
            p[i] -= 2.0 * eps;
            minus.set_params(&p);
            let (lp, _) = plus.loss_and_gradient(&batch);
            let (lm, _) = minus.loss_and_gradient(&batch);
            let numeric = (lp - lm) / (2.0 * eps);
            worst = worst.max((numeric - analytic[i]).abs());
        }
        assert!(worst < 1e-5, "max gradient error {worst}");
    }

    #[test]
    fn training_reduces_loss_on_regression() {
        let mut net = MlpBuilder::new(1).hidden(16).output(1).build(&mut rng());
        let mut adam = Adam::with_learning_rate(0.01);
        let xs: Vec<[f64; 1]> = (0..32).map(|i| [i as f64 / 16.0 - 1.0]).collect();
        let ys: Vec<[f64; 1]> = xs.iter().map(|x| [x[0].sin()]).collect();
        let batch: Vec<(&[f64], &[f64])> =
            xs.iter().zip(&ys).map(|(x, y)| (&x[..], &y[..])).collect();
        let initial = net.train_batch(&batch, &mut adam);
        let mut last = initial;
        for _ in 0..1500 {
            last = net.train_batch(&batch, &mut adam);
        }
        assert!(
            last < initial / 20.0,
            "loss did not shrink: {initial} -> {last}"
        );
    }

    #[test]
    fn forward_batch_is_bit_exact_with_per_sample() {
        let net = MlpBuilder::new(5)
            .hidden(9)
            .hidden(7)
            .output(3)
            .build(&mut rng());
        let rows: Vec<Vec<f64>> = (0..6)
            .map(|s| (0..5).map(|k| ((s * 5 + k) as f64).sin()).collect())
            .collect();
        let row_refs: Vec<&[f64]> = rows.iter().map(|r| &r[..]).collect();
        let x = Batch::from_rows(&row_refs);
        let mut scratch = BatchScratch::for_network(&net);
        let out = net.forward_batch(&x, &mut scratch);
        for (s, row) in rows.iter().enumerate() {
            assert_eq!(out.row(s), &net.forward(row)[..]);
        }
    }

    #[test]
    fn paper_shape_forward_batch_is_bit_exact_for_1_to_9_rows() {
        // Up to 3 rows run only the single-row tiles, 4 to 9 rows one or
        // two 4-row blocks and then single rows. Widths 48, 42 and 160
        // reach the 32-, 8- and 1-wide single-row tiles.
        let net = MlpBuilder::new(24)
            .hidden(48)
            .hidden(42)
            .output(160)
            .build(&mut rng());
        let mut scratch = BatchScratch::for_network(&net);
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        for rows in 1..=9 {
            let xs: Vec<Vec<f64>> = (0..rows)
                .map(|s| {
                    (0..24)
                        .map(|k| ((s * 24 + k) as f64 * 0.29).sin())
                        .collect()
                })
                .collect();
            let refs: Vec<&[f64]> = xs.iter().map(|r| &r[..]).collect();
            let out = net.forward_batch(&Batch::from_rows(&refs), &mut scratch);
            for (s, x) in xs.iter().enumerate() {
                assert_eq!(
                    bits(out.row(s)),
                    bits(&net.forward(x)),
                    "{rows} rows: row {s}"
                );
            }
        }
    }

    #[test]
    fn batched_gradient_is_bit_exact_with_per_sample() {
        let net = MlpBuilder::new(4)
            .hidden(6)
            .hidden(5)
            .output(2)
            .build(&mut rng());
        let xs: Vec<Vec<f64>> = (0..8)
            .map(|s| (0..4).map(|k| ((s * 4 + k) as f64 * 0.37).cos()).collect())
            .collect();
        let ts: Vec<Vec<f64>> = (0..8)
            .map(|s| (0..2).map(|k| ((s * 2 + k) as f64 * 0.11).sin()).collect())
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
        assert_eq!(loss, ref_loss);
        assert_eq!(grad, &ref_grad[..]);
    }

    #[test]
    fn batched_steps_are_bit_exact_with_train_batch() {
        let mut per_sample = MlpBuilder::new(3).hidden(8).output(2).build(&mut rng());
        let mut batched = per_sample.clone();
        let xs: Vec<Vec<f64>> = (0..5)
            .map(|s| (0..3).map(|k| (s + k) as f64 / 4.0 - 0.5).collect())
            .collect();
        let ts: Vec<Vec<f64>> = (0..5)
            .map(|s| vec![(s as f64).sin(), (s as f64).cos()])
            .collect();
        let pairs: Vec<(&[f64], &[f64])> =
            xs.iter().zip(&ts).map(|(x, t)| (&x[..], &t[..])).collect();
        let x_refs: Vec<&[f64]> = xs.iter().map(|r| &r[..]).collect();
        let t_refs: Vec<&[f64]> = ts.iter().map(|r| &r[..]).collect();
        let x = Batch::from_rows(&x_refs);
        let t = Batch::from_rows(&t_refs);

        let mut adam_a = Adam::with_learning_rate(0.01);
        let mut adam_b = Adam::with_learning_rate(0.01);
        let mut scratch = BatchScratch::for_network(&batched);
        let mut params = Vec::new();
        for _ in 0..25 {
            let la = per_sample.train_batch(&pairs, &mut adam_a);
            // The DQN's step: batched gradient, then Adam on the flat
            // parameters.
            let (lb, grads) = batched.loss_and_gradient_batch(&x, &t, &mut scratch);
            let grads = grads.to_vec();
            batched.flatten_params_into(&mut params);
            adam_b.step(&mut params, &grads);
            batched.set_params(&params);
            assert_eq!(la, lb);
        }
        assert_eq!(per_sample.flatten_params(), batched.flatten_params());
    }

    #[test]
    fn mse_basics() {
        assert_eq!(squared_error(3.0, 1.0), 4.0);
        assert_eq!(squared_error_gradient(3.0, 1.0), 4.0);
        assert_eq!(squared_error(1.0, 1.0), 0.0);
    }

    #[test]
    fn mse_gradient_matches_finite_differences() {
        let eps = 1e-7;
        for (p, t) in [(0.3, 0.0), (2.0, -1.0), (-3.0, 0.5)] {
            let numeric = (squared_error(p + eps, t) - squared_error(p - eps, t)) / (2.0 * eps);
            assert!(
                (squared_error_gradient(p, t) - numeric).abs() < 1e-5,
                "at ({p}, {t})"
            );
        }
    }

    #[test]
    fn mean_averages() {
        assert_eq!(mean_squared_error(&[1.0, 3.0], &[1.0, 1.0]), 2.0);
    }

    #[test]
    #[should_panic]
    fn backward_without_forward_trace_panics() {
        let net = MlpBuilder::new(3).hidden(4).output(2).build(&mut rng());
        let mut scratch = BatchScratch::for_network(&net);
        let t = Batch::from_rows(&[&[0.0, 0.0]]);
        net.backward_batch(&t, &mut scratch);
    }

    #[test]
    #[should_panic]
    fn wrong_input_width_panics() {
        let net = MlpBuilder::new(3).hidden(4).output(1).build(&mut rng());
        net.forward(&[1.0]);
    }

    #[test]
    #[should_panic]
    fn empty_batch_panics() {
        let mut net = MlpBuilder::new(3).hidden(4).output(1).build(&mut rng());
        let mut adam = Adam::with_learning_rate(0.01);
        net.train_batch(&[], &mut adam);
    }
}
