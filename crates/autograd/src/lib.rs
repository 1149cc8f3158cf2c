//! Tape-based reverse-mode automatic differentiation over batched 2-D
//! tensors.
//!
//! There is no mature Rust autodiff/deep-learning ecosystem to lean on for
//! a normalizing-flow implementation, so this crate provides the minimal
//! engine the NOFIS reproduction needs:
//!
//! * [`Tensor`] — dense `N x D` batches of `f64` (`nofis_linalg`'s matrix
//!   type, re-exported).
//! * [`Graph`] / [`Var`] — a dynamically built computation tape with the op
//!   set required by RealNVP coupling layers and the tempered KL loss
//!   (matmul, broadcast add/mul, `tanh`/`sigmoid`/`softplus`/`relu`,
//!   `exp`/`ln`/`square`, `min(x, c)`, reductions).
//! * [`Graph::external_rowwise`] — injects an externally differentiated
//!   black-box `g : R^D -> R` (circuit simulator, BPM, ODE model) into the
//!   tape, which is how NOFIS backpropagates through `g(z_K)` in Eq. (7)/(8)
//!   of the paper.
//! * [`ParamStore`] — owns trainable tensors across graph rebuilds and
//!   carries the per-parameter *frozen* flags used by NOFIS stage freezing.
//! * [`check`] — finite-difference gradient checking used by every test
//!   suite in the workspace.
//!
//! # Example
//!
//! ```
//! use nofis_autograd::{Graph, ParamStore, Tensor};
//!
//! // loss(w) = sum((x @ w)^2)
//! let mut store = ParamStore::new();
//! let w = store.add(Tensor::from_row(&[2.0]));
//! let mut g = Graph::new();
//! let x = g.constant(Tensor::from_vec(2, 1, vec![1.0, 3.0]));
//! let wv = store.inject(&mut g, w);
//! let y = g.matmul(x, wv);
//! let sq = g.square(y);
//! let loss = g.sum_all(sq);
//! g.backward(loss);
//! let (_, grad) = g.param_grads().remove(0);
//! assert_eq!(grad.as_slice(), &[40.0]); // d/dw sum((xw)^2) = 2w*sum(x^2)
//! ```

#![deny(missing_docs)]

pub mod check;
mod compile;
mod graph;
mod ops;
mod pool;
mod store;

pub use compile::{CompiledStep, GradSource};
pub use graph::{Graph, GraphStats, ParamId, Var};
pub use nofis_linalg::Tensor;
pub use pool::{BufferPool, PoolStats};
pub use store::ParamStore;
