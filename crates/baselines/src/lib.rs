//! The six baseline rare-event estimators of the NOFIS paper's Table 1.
//!
//! | name | method | module |
//! |------|--------|--------|
//! | MC | plain Monte Carlo | [`McEstimator`] |
//! | SIR | neural-surrogate regression | [`SirEstimator`] |
//! | SUC | subset classification | [`SucEstimator`] |
//! | SUS | subset simulation (modified Metropolis) | [`SusEstimator`] |
//! | SSS | scaled-sigma sampling | [`SssEstimator`] |
//! | Adapt-IS | cross-entropy adaptive IS | [`AdaptIsEstimator`] |
//!
//! All implement [`RareEventEstimator`] and draw their entire simulator
//! budget through the provided [`nofis_prob::LimitState`] — wrap it in a
//! [`nofis_prob::CountingOracle`] to meter calls exactly as the paper
//! reports them.

#![deny(missing_docs)]

mod adaptis;
mod estimator;
mod mc;
mod sir;
mod sss;
mod suc;
mod sus;

pub use adaptis::AdaptIsEstimator;
pub use estimator::RareEventEstimator;
pub use mc::McEstimator;
pub use sir::SirEstimator;
pub use sss::SssEstimator;
pub use suc::SucEstimator;
pub use sus::{sus_with_seed, SusEstimator};
