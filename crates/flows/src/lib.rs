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
//!   log-scales and identity initialization.
//! * [`RealNvp`] — a layer stack supporting *prefix* evaluation, which is
//!   how NOFIS anchors stage `m` at layer `m·K`.
//!
//! # Example
//!
//! ```
//! use nofis_autograd::ParamStore;
//! use nofis_flows::RealNvp;
//! use rand::SeedableRng;
//!
//! let mut store = ParamStore::new();
//! let mut rng = rand::rngs::StdRng::seed_from_u64(7);
//! let flow = RealNvp::new(&mut store, 2, 6, 16, 2.0, &mut rng);
//! let (z, logdet) = flow.transform(&store, &[0.1, -0.3], 6);
//! let (back, logdet_inv) = flow.inverse(&store, &z, 6);
//! assert!((back[0] - 0.1).abs() < 1e-12 && (logdet + logdet_inv).abs() < 1e-12);
//! ```

#![deny(missing_docs)]

mod coupling;
mod mask;
mod realnvp;

pub use coupling::AffineCoupling;
pub use mask::Mask;
pub use realnvp::RealNvp;
