//! Probability substrate for rare-event estimation.
//!
//! Defines the vocabulary shared by NOFIS and every baseline:
//!
//! * [`LimitState`] — the characteristic function `g` with
//!   `Ω = { g(x) ≤ 0 }`, including gradient access for the differentiable
//!   training losses.
//! * [`CountingOracle`] — meters simulator calls so every reported budget
//!   is measured.
//! * [`StandardGaussian`] — the data-generating distribution `p`, plus
//!   high-accuracy [`normal_cdf`] / [`normal_quantile`] helpers used by
//!   analytic goldens and threshold calibration.
//! * [`Proposal`] and [`importance_sampling`] — the IS estimator of Eq. (2).
//! * [`log_error`], [`RunningStats`], [`quantile`] — the paper's evaluation
//!   metric and experiment statistics.
//!
//! # Example
//!
//! ```
//! use nofis_prob::{monte_carlo, CountingOracle, LimitState};
//! use rand::SeedableRng;
//!
//! struct Ring;
//! impl LimitState for Ring {
//!     fn dim(&self) -> usize { 2 }
//!     fn value(&self, x: &[f64]) -> f64 {
//!         let r = (x[0] * x[0] + x[1] * x[1]).sqrt();
//!         (r - 3.0).abs() - 0.2 // fails in a thin annulus
//!     }
//! }
//!
//! let oracle = CountingOracle::new(&Ring);
//! let mut rng = rand::rngs::StdRng::seed_from_u64(0);
//! let r = monte_carlo(&oracle, 0.0, 10_000, &mut rng);
//! assert_eq!(oracle.calls(), 10_000);
//! assert!(r.estimate() < 0.05);
//! ```

#![deny(missing_docs)]

mod batch;
mod budget;
mod estimate;
mod gaussian;
mod importance;
mod limit_state;

pub use batch::{batch_values_with, ORACLE_CHUNK};
pub use budget::BudgetedOracle;
pub use estimate::{log_error, quantile, RunningStats, ESTIMATE_FLOOR};
pub use gaussian::{erfc, normal_cdf, normal_quantile, StandardGaussian, LN_2PI};
pub use importance::{
    importance_sampling, monte_carlo, monte_carlo_with_pool, FallbackRung, IsResult, McResult,
    Proposal,
};
pub use limit_state::{CountingOracle, LimitState};
