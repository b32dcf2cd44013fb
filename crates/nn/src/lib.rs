//! A small, dependency-free neural-network library.
//!
//! The paper trains a 4-layer fully connected DQN (input `3×I`, two ReLU
//! hidden layers, linear output `C×PL`) — a network of ~10 k parameters.
//! Nothing about it needs a deep-learning framework, so this crate
//! implements exactly what the DQN requires, from scratch:
//!
//! * [`matrix`] — a row-major `f64` matrix with the handful of ops
//!   backprop needs, plus the register-tiled GEMM kernels.
//! * [`batch`] — a packed row-major minibatch and the batched
//!   linear-algebra kernels (bit-exact with the per-sample path).
//! * [`activation`] — ReLU and identity activations with derivatives.
//! * [`optimizer`] — the [`optimizer::Optimizer`] trait and Adam.
//! * [`mlp`] — the multi-layer perceptron with exact backpropagation of
//!   the mean squared error.
//! * [`serialize`] — weight (de)serialization and the parameter/memory
//!   accounting the paper reports (10 664 floats ≈ 42.7 KB).
//!
//! # Example
//!
//! Fit XOR (the classic nonlinearity check):
//!
//! ```
//! use ctjam_nn::mlp::MlpBuilder;
//! use ctjam_nn::optimizer::Adam;
//! use rand::rngs::StdRng;
//! use rand::SeedableRng;
//!
//! let mut rng = StdRng::seed_from_u64(7);
//! let mut net = MlpBuilder::new(2).hidden(8).hidden(8).output(1).build(&mut rng);
//! let mut adam = Adam::with_learning_rate(0.01);
//! let inputs = [[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]];
//! let targets = [[0.0], [1.0], [1.0], [0.0]];
//! for _ in 0..2000 {
//!     let batch: Vec<(&[f64], &[f64])> = inputs
//!         .iter()
//!         .zip(&targets)
//!         .map(|(i, t)| (&i[..], &t[..]))
//!         .collect();
//!     net.train_batch(&batch, &mut adam);
//! }
//! assert!(net.forward(&[1.0, 0.0])[0] > 0.7);
//! assert!(net.forward(&[1.0, 1.0])[0] < 0.3);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod activation;
pub mod batch;
pub mod matrix;
pub mod mlp;
pub mod optimizer;
pub mod rnn;
pub mod serialize;
