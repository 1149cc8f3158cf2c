use crate::{sus::rng_shim, RareEventEstimator};
use nofis_prob::{quantile, LimitState, StandardGaussian, LN_2PI};
use rand::{Rng, RngCore};
use rand_distr::StandardNormal;

/// Adaptive importance sampling via the cross-entropy method with a
/// diagonal Gaussian proposal (Table 1 baseline "Adapt-IS", after the
/// mixture/adaptive IS line of Kanj et al. and Shi et al.).
///
/// Each round draws from the current proposal, selects the elite fraction
/// closest to (or inside) the failure region, and refits the proposal's
/// mean and per-coordinate variance to the likelihood-ratio-weighted
/// elites. The final round's proposal drives a standard IS estimate.
///
/// A single adaptive Gaussian is the classic choice and — matching the
/// paper — it degrades sharply in high dimensions and on multi-region
/// failure sets (weight degeneracy), which Table 1 shows as Adapt-IS's
/// large errors on Levy, Powell, Charge Pump and Y-branch.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AdaptIsEstimator {
    n_per_round: usize,
    rounds: usize,
    elite_fraction: f64,
    n_final: usize,
}

impl AdaptIsEstimator {
    /// Creates the estimator: `rounds` adaptation rounds of
    /// `n_per_round` samples, then `n_final` estimation samples.
    ///
    /// # Panics
    ///
    /// Panics if any budget is zero or `elite_fraction` is outside `(0, 1)`.
    pub fn new(n_per_round: usize, rounds: usize, n_final: usize) -> Self {
        assert!(n_per_round >= 10, "need at least 10 samples per round");
        assert!(rounds > 0, "need at least one adaptation round");
        assert!(n_final > 0, "need a final estimation budget");
        AdaptIsEstimator {
            n_per_round,
            rounds,
            elite_fraction: 0.1,
            n_final,
        }
    }

    /// Total simulator calls consumed.
    pub fn budget(&self) -> u64 {
        (self.n_per_round * self.rounds + self.n_final) as u64
    }
}

/// Diagonal Gaussian helper.
#[derive(Debug, Clone)]
struct DiagGaussian {
    mean: Vec<f64>,
    std: Vec<f64>,
}

impl DiagGaussian {
    fn standard(dim: usize) -> Self {
        DiagGaussian {
            mean: vec![0.0; dim],
            std: vec![1.0; dim],
        }
    }

    fn sample(&self, rng: &mut impl Rng) -> Vec<f64> {
        self.mean
            .iter()
            .zip(&self.std)
            .map(|(&m, &s)| {
                let z: f64 = rng.sample(StandardNormal);
                m + s * z
            })
            .collect()
    }

    fn log_density(&self, x: &[f64]) -> f64 {
        let mut acc = -0.5 * x.len() as f64 * LN_2PI;
        for ((&v, &m), &s) in x.iter().zip(&self.mean).zip(&self.std) {
            let z = (v - m) / s;
            acc -= s.ln() + 0.5 * z * z;
        }
        acc
    }
}

impl RareEventEstimator for AdaptIsEstimator {
    fn method_name(&self) -> &'static str {
        "Adapt-IS"
    }

    fn estimate(&self, limit_state: &(dyn LimitState + Sync), rng: &mut dyn RngCore) -> f64 {
        let dim = limit_state.dim();
        let mut rng = rng_shim(rng);
        let p = StandardGaussian::new(dim);
        let mut proposal = DiagGaussian::standard(dim);

        for _ in 0..self.rounds {
            // Draw and score a round.
            let mut samples = Vec::with_capacity(self.n_per_round);
            let mut scores = Vec::with_capacity(self.n_per_round);
            for _ in 0..self.n_per_round {
                let x = proposal.sample(&mut rng);
                scores.push(limit_state.value(&x));
                samples.push(x);
            }
            // Elite threshold: the elite_fraction quantile of g, but never
            // above 0 once the failure region is reachable.
            let thr = quantile(&scores, self.elite_fraction).max(0.0);
            let elites: Vec<(&Vec<f64>, f64)> = samples
                .iter()
                .zip(&scores)
                .filter(|(_, &g)| g <= thr)
                .map(|(x, _)| {
                    let lw = p.log_density(x) - proposal.log_density(x);
                    (x, lw)
                })
                .collect();
            if elites.is_empty() {
                continue;
            }
            // Elite statistics. Likelihood-ratio weights are tempered: raw
            // p/q weights degenerate onto the single elite nearest the
            // origin and stall the adaptation, while unweighted elites bias
            // the intermediate proposals — a mild tempering is the usual
            // practical compromise (only the final estimator needs exact
            // weights for unbiasedness).
            const TEMPER: f64 = 0.3;
            let max_lw = elites
                .iter()
                .map(|(_, lw)| *lw)
                .fold(f64::NEG_INFINITY, f64::max);
            let weights: Vec<f64> = elites
                .iter()
                .map(|(_, lw)| (TEMPER * (lw - max_lw)).exp())
                .collect();
            let wsum: f64 = weights.iter().sum();
            let mut mean = vec![0.0; dim];
            for ((x, _), &w) in elites.iter().zip(&weights) {
                for (m, &v) in mean.iter_mut().zip(x.iter()) {
                    *m += w * v;
                }
            }
            for m in &mut mean {
                *m /= wsum;
            }
            let mut var = vec![0.0; dim];
            for ((x, _), &w) in elites.iter().zip(&weights) {
                for ((s, &v), &m) in var.iter_mut().zip(x.iter()).zip(&mean) {
                    *s += w * (v - m) * (v - m);
                }
            }
            for s in &mut var {
                *s = (*s / wsum).max(1e-4);
            }
            // Standard CE smoothing keeps exploration alive and prevents
            // premature variance collapse.
            const ALPHA: f64 = 0.8;
            const STD_FLOOR: f64 = 0.5;
            let smoothed_mean: Vec<f64> = mean
                .iter()
                .zip(&proposal.mean)
                .map(|(&new, &old)| ALPHA * new + (1.0 - ALPHA) * old)
                .collect();
            let smoothed_std: Vec<f64> = var
                .iter()
                .zip(&proposal.std)
                .map(|(&v, &old)| (ALPHA * v.sqrt() + (1.0 - ALPHA) * old).max(STD_FLOOR))
                .collect();
            proposal = DiagGaussian {
                mean: smoothed_mean,
                std: smoothed_std,
            };
        }

        // Final IS estimate with the adapted proposal.
        let mut acc = 0.0;
        for _ in 0..self.n_final {
            let x = proposal.sample(&mut rng);
            if limit_state.value(&x) <= 0.0 {
                acc += (p.log_density(&x) - proposal.log_density(&x)).exp();
            }
        }
        acc / self.n_final as f64
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
            3
        }
        fn value(&self, x: &[f64]) -> f64 {
            self.beta - x[0]
        }
    }

    #[test]
    fn accurate_on_unimodal_low_dim() {
        let ls = HalfSpace { beta: 4.0 };
        let golden = 1.0 - normal_cdf(4.0);
        let ais = AdaptIsEstimator::new(1_000, 6, 2_000);
        let mut errs = Vec::new();
        for seed in 0..3 {
            let mut rng = StdRng::seed_from_u64(seed);
            errs.push(log_error(ais.estimate(&ls, &mut rng), golden));
        }
        let mean = errs.iter().sum::<f64>() / errs.len() as f64;
        assert!(mean < 0.5, "mean log error {mean}, errs {errs:?}");
    }

    #[test]
    fn budget_is_exact() {
        let ls = HalfSpace { beta: 4.0 };
        let oracle = CountingOracle::new(&ls);
        let ais = AdaptIsEstimator::new(500, 4, 1_000);
        let mut rng = StdRng::seed_from_u64(1);
        let _ = ais.estimate(&oracle, &mut rng);
        assert_eq!(oracle.calls(), ais.budget());
    }

    #[test]
    fn struggles_on_two_modes() {
        // Two symmetric failure disks: a single Gaussian collapses onto one
        // mode and underestimates by roughly 2x (or worse).
        struct TwoModes;
        impl LimitState for TwoModes {
            fn dim(&self) -> usize {
                2
            }
            fn value(&self, x: &[f64]) -> f64 {
                let d1 = (x[0] - 3.5).powi(2) + x[1].powi(2);
                let d2 = (x[0] + 3.5).powi(2) + x[1].powi(2);
                d1.min(d2) - 1.0
            }
        }
        let ais = AdaptIsEstimator::new(1_000, 6, 2_000);
        let mut rng = StdRng::seed_from_u64(5);
        let p = ais.estimate(&TwoModes, &mut rng);
        // Just check it runs and produces a plausible (possibly biased)
        // small probability.
        assert!(p < 1e-2);
    }
}
