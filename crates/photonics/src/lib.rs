//! Scalar beam-propagation method (BPM) for photonic Y-branch yield
//! analysis.
//!
//! The paper's Y-branch test case (#9) uses a commercial photonic solver
//! under random boundary deformation; this crate provides the from-scratch
//! substitute: a Crank–Nicolson scalar BPM ([`BpmSolver`]) over a
//! parameterized [`YBranch`] geometry whose sidewalls are deformed by a
//! truncated Fourier series, plus an adjoint pass that returns the full
//! deformation gradient of the power transmission at the cost of one extra
//! sweep. Each step's tridiagonal matrix is factored once per run; the
//! adjoint solves the conjugate-transposed steps from those same factors,
//! so it does no divides.
//!
//! The device and its deformation are mirror-symmetric, so the field is
//! even in `x` and the solver propagates only the `x ≥ 0` half of the grid
//! (`nx` must be odd): row 0 of each step couples to its mirror image with
//! a doubled off-diagonal, and sums over the field count every point off
//! the axis twice. The conjugate solve of the folded step is still the
//! adjoint's, because the full step matrix is complex-symmetric and
//! commutes with the reflection, so on even vectors its conjugate
//! transpose is the conjugate of the folded matrix. Grids and output
//! fields are reported full-width.
//!
//! # Example
//!
//! ```
//! use nofis_photonics::{BpmConfig, BpmSolver, YBranch};
//!
//! # fn main() -> Result<(), nofis_linalg::LinalgError> {
//! let solver = BpmSolver::new(YBranch::new(26), BpmConfig::default());
//! let (t, grad) = solver.run_with_gradient(&vec![0.0; 26])?;
//! assert!(t > 0.5);
//! assert_eq!(grad.len(), 26);
//! # Ok(())
//! # }
//! ```

#![deny(missing_docs)]

mod bpm;
mod geometry;

pub use bpm::{BpmConfig, BpmRun, BpmSolver};
pub use geometry::YBranch;
