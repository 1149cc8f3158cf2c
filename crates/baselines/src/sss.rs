use crate::{sus::rng_shim, RareEventEstimator};
use nofis_linalg::{lstsq::lstsq, Tensor};
use nofis_prob::LimitState;
use rand::{Rng, RngCore};
use rand_distr::StandardNormal;

/// Scaled-sigma sampling (Sun, Li, Liu, Luo, Gu — TCAD 2015; Table 1
/// baseline "SSS").
///
/// Failure probabilities are measured at several inflated sigmas
/// `s > 1` (where failures are common), the analytic model
/// `ln P(s) = α + β·ln(s) − γ/s²` is fit by least squares, and the rare
/// probability is read off by extrapolating to `s = 1`. SSS is robust but
/// model-biased — in Table 1 it produces order-of-magnitude (not
/// fractional) accuracy, and that is what this implementation reproduces.
#[derive(Debug, Clone, PartialEq)]
pub struct SssEstimator {
    samples_per_scale: usize,
}

/// The inflated sigmas the failure probability is measured at.
const SCALES: [f64; 6] = [1.5, 2.0, 2.5, 3.0, 3.5, 4.0];

impl SssEstimator {
    /// Creates the estimator with the given total budget, split evenly
    /// over the scale set `{1.5, 2.0, 2.5, 3.0, 3.5, 4.0}`.
    ///
    /// # Panics
    ///
    /// Panics if `budget` is smaller than 60 (10 samples per scale).
    pub fn new(budget: usize) -> Self {
        assert!(
            budget >= 10 * SCALES.len(),
            "SSS needs at least 10 samples per scale"
        );
        SssEstimator {
            samples_per_scale: budget / SCALES.len(),
        }
    }

    /// Total simulator calls consumed.
    pub fn budget(&self) -> u64 {
        (SCALES.len() * self.samples_per_scale) as u64
    }
}

impl RareEventEstimator for SssEstimator {
    fn method_name(&self) -> &'static str {
        "SSS"
    }

    fn estimate(&self, limit_state: &(dyn LimitState + Sync), rng: &mut dyn RngCore) -> f64 {
        let dim = limit_state.dim();
        let mut rng = rng_shim(rng);
        let mut points: Vec<(f64, f64)> = Vec::new(); // (scale, ln P_s)
        let mut x = vec![0.0; dim];
        for s in SCALES {
            let mut hits = 0usize;
            for _ in 0..self.samples_per_scale {
                for v in &mut x {
                    let z: f64 = rng.sample(StandardNormal);
                    *v = s * z;
                }
                if limit_state.value(&x) <= 0.0 {
                    hits += 1;
                }
            }
            if hits >= 3 {
                let p_s = hits as f64 / self.samples_per_scale as f64;
                points.push((s, p_s.ln()));
            }
        }
        if points.len() < 3 {
            return 0.0; // model cannot be fit; SSS fails (— in Table 1)
        }

        // Fit ln P(s) = α + β ln s − γ / s².
        let rows = points.len();
        let mut design = Tensor::zeros(rows, 3);
        let mut y = Vec::with_capacity(rows);
        for (i, &(s, lnp)) in points.iter().enumerate() {
            design[(i, 0)] = 1.0;
            design[(i, 1)] = s.ln();
            design[(i, 2)] = -1.0 / (s * s);
            y.push(lnp);
        }
        match lstsq(&design, &y, 1e-9) {
            Ok(c) => {
                let ln_p1 = c[0] - c[2]; // s = 1: ln s = 0, −γ/s² = −γ
                ln_p1.exp().min(1.0)
            }
            Err(_) => 0.0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nofis_prob::{log_error, normal_cdf, CountingOracle};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    struct HalfSpace {
        beta: f64,
    }
    impl LimitState for HalfSpace {
        fn dim(&self) -> usize {
            4
        }
        fn value(&self, x: &[f64]) -> f64 {
            self.beta - x[0]
        }
    }

    #[test]
    fn order_of_magnitude_accuracy_on_linear_case() {
        // For a half-space, P(s) = 1 − Φ(β/s); the SSS model is only an
        // approximation, so expect order-of-magnitude accuracy.
        let ls = HalfSpace { beta: 4.0 };
        let golden = 1.0 - normal_cdf(4.0); // 3.17e-5
        let sss = SssEstimator::new(30_000);
        let mut errs = Vec::new();
        for seed in 0..3 {
            let mut rng = StdRng::seed_from_u64(seed);
            errs.push(log_error(sss.estimate(&ls, &mut rng), golden));
        }
        let mean = errs.iter().sum::<f64>() / errs.len() as f64;
        assert!(mean < 2.5, "mean log error {mean}, errs {errs:?}");
    }

    #[test]
    fn budget_is_exact() {
        let ls = HalfSpace { beta: 4.0 };
        let oracle = CountingOracle::new(&ls);
        let sss = SssEstimator::new(6_000);
        let mut rng = StdRng::seed_from_u64(1);
        let _ = sss.estimate(&oracle, &mut rng);
        assert_eq!(oracle.calls(), sss.budget());
    }

    #[test]
    fn unreachable_event_returns_zero() {
        struct Never;
        impl LimitState for Never {
            fn dim(&self) -> usize {
                2
            }
            fn value(&self, _: &[f64]) -> f64 {
                1.0
            }
        }
        let sss = SssEstimator::new(600);
        let mut rng = StdRng::seed_from_u64(2);
        assert_eq!(sss.estimate(&Never, &mut rng), 0.0);
    }
}
