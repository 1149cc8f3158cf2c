//! RealNVP normalizing flows with exact sampling and exact density
//! evaluation.
//!
//! Normalizing flows compose the proposal-distribution family `Q` in NOFIS
//! because they offer the two properties importance sampling needs (paper
//! §2): *exact sampling* (push base samples forward) and *exact density
//! evaluation* (invert the flow and apply the change-of-variables identity).
//!
//! * [`Mask`] — binary coupling masks (checkerboard / half-half).
//! * [`AffineCoupling`] — one RealNVP coupling layer with tanh-clamped
//!   log-scales and identity initialization. Its forward and inverse exist
//!   only as tape passes, so training, sampling and `ln q` share one
//!   implementation and both directions are differentiable.
//! * [`RealNvp`] — a layer stack supporting *prefix* evaluation, which is
//!   how NOFIS anchors stage `m` at layer `m·K`. Sampling and `ln q` run
//!   batched through the tape in fixed row chunks.
//!
//! # Example
//!
//! ```
//! use nofis_autograd::{Graph, ParamStore};
//! use nofis_flows::RealNvp;
//! use rand::SeedableRng;
//!
//! let mut store = ParamStore::new();
//! let mut rng = rand::rngs::StdRng::seed_from_u64(7);
//! let flow = RealNvp::new(&mut store, 2, 6, 16, 2.0, &mut rng);
//! let mut g = Graph::new();
//! let x = g.constant_from_slice(1, 2, &[0.1, -0.3]);
//! let (z, logdet) = flow.forward_graph(&store, &mut g, x, 6);
//! let (back, logdet_inv) = flow.inverse_graph(&store, &mut g, z, 6);
//! assert!((g.value(back).as_slice()[0] - 0.1).abs() < 1e-12);
//! assert!((g.value(logdet).item() + g.value(logdet_inv).item()).abs() < 1e-12);
//! ```

#![deny(missing_docs)]

mod coupling;
mod mask;
mod realnvp;

pub use coupling::AffineCoupling;
pub use mask::Mask;
pub use realnvp::RealNvp;
