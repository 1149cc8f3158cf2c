use crate::RareEventEstimator;
use nofis_prob::{quantile, LimitState, StandardGaussian};
use rand::{Rng, RngCore, SeedableRng};
use rand_distr::StandardNormal;

/// Subset simulation (Au & Beck 2001; applied to circuits by Sun & Li,
/// ICCAD'14 — Table 1 baseline "SUS").
///
/// Levels are chosen adaptively as the `p0`-quantile of the current
/// population; conditional samples are generated with the component-wise
/// *modified Metropolis* algorithm, whose per-component acceptance uses
/// the standard-Gaussian prior ratio and whose candidate is accepted only
/// if it stays inside the current intermediate failure region (one `g`
/// call per candidate).
///
/// # Example
///
/// ```
/// use nofis_baselines::{RareEventEstimator, SusEstimator};
/// use nofis_prob::LimitState;
/// use rand::SeedableRng;
///
/// struct Tail;
/// impl LimitState for Tail {
///     fn dim(&self) -> usize { 2 }
///     fn value(&self, x: &[f64]) -> f64 { 3.5 - x[0] }
/// }
///
/// let sus = SusEstimator::new(2_000, 0.1, 8);
/// let mut rng = rand::rngs::StdRng::seed_from_u64(0);
/// let p = sus.estimate(&Tail, &mut rng);
/// let golden: f64 = 2.33e-4; // 1 - Φ(3.5)
/// assert!((p.ln() - golden.ln()).abs() < 0.7, "p = {p}");
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SusEstimator {
    n_per_level: usize,
    p0: f64,
    max_levels: usize,
    /// Standard deviation of the component-wise Metropolis proposal.
    spread: f64,
}

impl SusEstimator {
    /// Creates a subset-simulation estimator.
    ///
    /// # Panics
    ///
    /// Panics if `n_per_level < 10`, `p0` is outside `(0, 1)`, or
    /// `max_levels == 0`.
    pub fn new(n_per_level: usize, p0: f64, max_levels: usize) -> Self {
        assert!(n_per_level >= 10, "need at least 10 samples per level");
        assert!(p0 > 0.0 && p0 < 1.0, "p0 must be in (0, 1)");
        assert!(max_levels > 0, "need at least one level");
        SusEstimator {
            n_per_level,
            p0,
            max_levels,
            spread: 0.8,
        }
    }

    /// Simulator calls this configuration consumes in the worst case.
    pub fn max_budget(&self) -> u64 {
        (self.n_per_level * self.max_levels) as u64
    }
}

impl RareEventEstimator for SusEstimator {
    fn method_name(&self) -> &'static str {
        "SUS"
    }

    fn estimate(&self, limit_state: &(dyn LimitState + Sync), rng: &mut dyn RngCore) -> f64 {
        let dim = limit_state.dim();
        let base = StandardGaussian::new(dim);
        let n = self.n_per_level;

        // Level 0: i.i.d. sampling from p.
        let mut xs: Vec<Vec<f64>> = Vec::with_capacity(n);
        let mut gs: Vec<f64> = Vec::with_capacity(n);
        let mut rng_box = RngShim(rng);
        for _ in 0..n {
            let x = base.sample(&mut rng_box);
            gs.push(limit_state.value(&x));
            xs.push(x);
        }

        let mut log_prob = 0.0;
        for _level in 0..self.max_levels {
            let hits = gs.iter().filter(|&&g| g <= 0.0).count();
            if hits as f64 >= self.p0 * n as f64 {
                // Final level: direct estimate of the remaining factor.
                return (log_prob + (hits as f64 / n as f64).ln()).exp();
            }
            // Intermediate threshold at the p0-quantile.
            let b = quantile(&gs, self.p0);
            if b <= 0.0 {
                // The quantile already reaches the failure region (rounding
                // edge of the `hits >= p0·n` branch): finish directly.
                return if hits == 0 {
                    0.0
                } else {
                    (log_prob + (hits as f64 / n as f64).ln()).exp()
                };
            }
            log_prob += self.p0.ln();

            // Seeds: the samples inside the new intermediate region.
            let mut seeds: Vec<(Vec<f64>, f64)> = xs
                .iter()
                .cloned()
                .zip(gs.iter().copied())
                .filter(|(_, g)| *g <= b)
                .collect();
            if seeds.is_empty() {
                return 0.0;
            }
            // Deterministically thin to the expected seed count.
            let target_seeds = ((self.p0 * n as f64).round() as usize).max(1);
            seeds.truncate(target_seeds);

            // Modified Metropolis: grow chains from the seeds until the
            // population is refilled.
            let mut new_xs: Vec<Vec<f64>> = Vec::with_capacity(n);
            let mut new_gs: Vec<f64> = Vec::with_capacity(n);
            let chain_len = n / seeds.len() + 1;
            'outer: for (seed_x, seed_g) in &seeds {
                let mut cur = seed_x.clone();
                let mut cur_g = *seed_g;
                for _ in 0..chain_len {
                    // Component-wise candidate with prior-ratio acceptance.
                    let mut cand = cur.clone();
                    for c in cand.iter_mut() {
                        let step: f64 = rng_box.sample(StandardNormal);
                        let proposal = *c + self.spread * step;
                        let ratio = (-0.5 * (proposal * proposal - *c * *c)).exp();
                        if rng_box.gen::<f64>() < ratio.min(1.0) {
                            *c = proposal;
                        }
                    }
                    if cand != cur {
                        let g = limit_state.value(&cand);
                        if g <= b {
                            cur = cand;
                            cur_g = g;
                        }
                    }
                    new_xs.push(cur.clone());
                    new_gs.push(cur_g);
                    if new_xs.len() == n {
                        break 'outer;
                    }
                }
            }
            xs = new_xs;
            gs = new_gs;
        }

        // Budget exhausted before reaching the failure event.
        let hits = gs.iter().filter(|&&g| g <= 0.0).count();
        if hits == 0 {
            0.0
        } else {
            (log_prob + (hits as f64 / gs.len() as f64).ln()).exp()
        }
    }
}

/// Adapter so `&mut dyn RngCore` satisfies `impl Rng` bounds.
pub(crate) struct RngShim<'a>(&'a mut dyn RngCore);

/// Wraps a dynamic RNG so it can be passed where `impl Rng` is expected.
pub(crate) fn rng_shim(rng: &mut dyn RngCore) -> RngShim<'_> {
    RngShim(rng)
}

impl RngCore for RngShim<'_> {
    fn next_u32(&mut self) -> u32 {
        self.0.next_u32()
    }
    fn next_u64(&mut self) -> u64 {
        self.0.next_u64()
    }
    fn fill_bytes(&mut self, dest: &mut [u8]) {
        self.0.fill_bytes(dest)
    }
    fn try_fill_bytes(&mut self, dest: &mut [u8]) -> Result<(), rand::Error> {
        self.0.try_fill_bytes(dest)
    }
}

/// Convenience: run SUS once with a fresh deterministic RNG (used by
/// calibration tooling).
pub fn sus_with_seed(
    limit_state: &(dyn LimitState + Sync),
    n_per_level: usize,
    max_levels: usize,
    seed: u64,
) -> f64 {
    let sus = SusEstimator::new(n_per_level, 0.1, max_levels);
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    sus.estimate(limit_state, &mut rng)
}

#[cfg(test)]
mod tests {
    use super::*;
    use nofis_prob::{log_error, normal_cdf, CountingOracle};
    use rand::rngs::StdRng;

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
    fn estimates_deep_tail() {
        let ls = HalfSpace { beta: 4.0 }; // P ≈ 3.17e-5
        let golden = 1.0 - normal_cdf(4.0);
        let sus = SusEstimator::new(2_000, 0.1, 10);
        let mut errs = Vec::new();
        for seed in 0..5 {
            let mut rng = StdRng::seed_from_u64(seed);
            let p = sus.estimate(&ls, &mut rng);
            errs.push(log_error(p, golden));
        }
        let mean_err = errs.iter().sum::<f64>() / errs.len() as f64;
        assert!(mean_err < 0.6, "mean log error {mean_err}, errs {errs:?}");
    }

    #[test]
    fn respects_budget_bound() {
        let ls = HalfSpace { beta: 4.0 };
        let oracle = CountingOracle::new(&ls);
        let sus = SusEstimator::new(500, 0.1, 6);
        let mut rng = StdRng::seed_from_u64(3);
        let _ = sus.estimate(&oracle, &mut rng);
        assert!(oracle.calls() <= sus.max_budget() + 500);
    }

    #[test]
    fn easy_event_short_circuits() {
        struct Common;
        impl LimitState for Common {
            fn dim(&self) -> usize {
                1
            }
            fn value(&self, x: &[f64]) -> f64 {
                1.0 - x[0] // P ≈ 0.159
            }
        }
        let sus = SusEstimator::new(1_000, 0.1, 4);
        let mut rng = StdRng::seed_from_u64(0);
        let p = sus.estimate(&Common, &mut rng);
        assert!((p - 0.159).abs() < 0.05);
    }

    #[test]
    fn impossible_event_returns_zero_or_tiny() {
        struct Impossible;
        impl LimitState for Impossible {
            fn dim(&self) -> usize {
                2
            }
            fn value(&self, _: &[f64]) -> f64 {
                1.0 // never fails
            }
        }
        let sus = SusEstimator::new(200, 0.1, 3);
        let mut rng = StdRng::seed_from_u64(0);
        let p = sus.estimate(&Impossible, &mut rng);
        assert!(p <= 1e-3, "p = {p}");
    }

    #[test]
    #[should_panic(expected = "p0 must be")]
    fn rejects_bad_p0() {
        let _ = SusEstimator::new(100, 1.5, 3);
    }
}
