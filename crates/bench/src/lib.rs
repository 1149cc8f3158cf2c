//! Experiment harness regenerating every table and figure of the NOFIS
//! paper.
//!
//! Binaries (all print their artifact to stdout and dump JSON under
//! `results/`):
//!
//! * `table1` — the 10-case × 7-method comparison (calls / log-error).
//! * `fig2` — learned vs optimal 2-D proposal heatmaps.
//! * `fig3` — intermediate stage proposals and training-loss curves.
//! * `fig4` — limited-budget Leaf proposal + error vs `N_IS` sweep.
//! * `fig5` — ablations (NoFreeze / LongThre / SmallTemp) and the τ sweep.
//! * `calibrate` — threshold/golden-probability calibration utility.
//!
//! The library part hosts the pieces those binaries share: the
//! [`NofisEstimator`] adapter, the per-case experiment configuration
//! ([`cases`]), the sequential experiment [`runner`], and ASCII/JSON
//! [`heatmap`] helpers.

#![deny(missing_docs)]

pub mod cases;
pub mod heatmap;
pub mod runner;

use nofis_baselines::RareEventEstimator;
use nofis_core::{Nofis, NofisConfig};
use nofis_prob::LimitState;
use rand::{RngCore, SeedableRng};

/// Adapts [`Nofis`] to the common [`RareEventEstimator`] interface used by
/// the Table 1 runner.
#[derive(Debug, Clone)]
pub struct NofisEstimator {
    config: NofisConfig,
}

impl NofisEstimator {
    /// Wraps a validated configuration.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid (harness configurations are
    /// static and vetted by tests).
    pub fn new(config: NofisConfig) -> Self {
        config
            .validate()
            .expect("harness NOFIS config must be valid");
        NofisEstimator { config }
    }

    /// Borrows the configuration.
    pub fn config(&self) -> &NofisConfig {
        &self.config
    }
}

impl RareEventEstimator for NofisEstimator {
    fn method_name(&self) -> &'static str {
        "NOFIS"
    }

    fn estimate(&self, limit_state: &(dyn LimitState + Sync), rng: &mut dyn RngCore) -> f64 {
        let nofis = Nofis::new(self.config.clone()).expect("validated at construction");
        // Re-seed a concrete RNG from the caller's stream (the trainer
        // needs `impl Rng`).
        let mut seed = [0u8; 32];
        rng.fill_bytes(&mut seed);
        let mut train_rng = rand::rngs::StdRng::from_seed(seed);
        match nofis.run(&limit_state, &mut train_rng) {
            Ok((trained, result)) => {
                // Surface recovery events so a Table 1 row with a bad error
                // can be traced to an unhealthy run.
                for report in trained.stage_reports() {
                    if report.rolled_back || report.truncated {
                        eprintln!("  [nofis] {report}");
                    }
                }
                result.estimate
            }
            Err(err) => {
                // A failed run scores as "nothing observed": the runner's
                // log-error floor turns this into a large finite error.
                eprintln!("  [nofis] run failed: {err}");
                0.0
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nofis_core::Levels;
    use nofis_prob::CountingOracle;
    use rand::rngs::StdRng;

    struct HalfSpace;
    impl LimitState for HalfSpace {
        fn dim(&self) -> usize {
            2
        }
        fn value(&self, x: &[f64]) -> f64 {
            3.0 - x[0]
        }
        fn value_grad(&self, x: &[f64]) -> (f64, Vec<f64>) {
            (3.0 - x[0], vec![-1.0, 0.0])
        }
    }

    #[test]
    fn adapter_runs_and_consumes_expected_budget() {
        // Training and the estimate spend exactly their nominal budgets.
        let cfg = NofisConfig {
            levels: Levels::Fixed(vec![1.5, 0.0]),
            layers_per_stage: 4,
            hidden: 16,
            epochs: 12,
            batch_size: 100,
            n_is: 200,
            tau: 15.0,
            learning_rate: 8e-3,
            ..Default::default()
        };
        let expected = cfg.training_budget() + 200;
        let est = NofisEstimator::new(cfg);
        assert_eq!(est.method_name(), "NOFIS");
        let oracle = CountingOracle::new(&HalfSpace);
        let mut rng = StdRng::seed_from_u64(0);
        let p = est.estimate(&oracle, &mut rng);
        assert!(p >= 0.0);
        assert_eq!(oracle.calls(), expected);
    }
}
