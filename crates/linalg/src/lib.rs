//! Dense real and complex linear algebra substrate for the NOFIS reproduction.
//!
//! This crate provides exactly the numerical kernels the rest of the
//! workspace needs — no more, no less:
//!
//! * [`Tensor`] — the one dense, row-major `f64` matrix type: flow batches
//!   and autograd values (re-exported as `nofis_autograd::Tensor`) and
//!   least-squares designs. Its matmul runs on the shared `nofis_parallel`
//!   kernel.
//! * [`Complex64`] / [`CMatrix`] — complex scalars and matrices for AC
//!   small-signal circuit analysis and the photonic beam-propagation method.
//! * [`lu::Lu`] — LU with partial pivoting, one factor/solve body over
//!   `f64` ([`lu::LuDecomposition`]) and [`Complex64`]
//!   ([`lu::CluDecomposition`]), used by the AC circuit solver and by
//!   least squares.
//! * [`tridiag::ThomasFactors`] — Thomas algorithm, factored once and
//!   solved (or conjugate-solved) many times, used by the Crank–Nicolson
//!   BPM stepper and its adjoint.
//! * [`lstsq::lstsq`] — linear least squares, used by scaled-sigma sampling's
//!   model regression.
//! * [`ode::rk4_integrate`] — classic Runge–Kutta, used by the oscillator
//!   test case.
//!
//! # Example
//!
//! ```
//! use nofis_linalg::{lu::LuDecomposition, Tensor};
//!
//! # fn main() -> Result<(), nofis_linalg::LinalgError> {
//! let a = Tensor::from_vec(2, 2, vec![4.0, 1.0, 1.0, 3.0]);
//! let lu = LuDecomposition::new(&a)?;
//! let x = lu.solve(&[1.0, 2.0])?;
//! assert!((4.0 * x[0] + x[1] - 1.0).abs() < 1e-12);
//! # Ok(())
//! # }
//! ```

#![deny(missing_docs)]

mod cmatrix;
mod complex;
mod error;
mod tensor;

pub mod lstsq;
pub mod lu;
pub mod ode;
pub mod tridiag;

pub use cmatrix::CMatrix;
pub use complex::Complex64;
pub use error::LinalgError;
pub use tensor::Tensor;
