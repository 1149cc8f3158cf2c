use crate::{sus::rng_shim, RareEventEstimator};
use nofis_prob::{normal_cdf, LimitState, StandardGaussian};
use rand::RngCore;

/// Line sampling (Koutsourelakis et al.; applied with active learning by
/// Song et al., MSSP 2021 — the paper's reference \[18\] and the source of
/// the oscillator test case).
///
/// An *important direction* `α` is estimated from the limit-state gradient
/// at the origin, then each sample is a line parallel to `α` through a
/// random point of the orthogonal subspace: the per-line failure
/// probability `1 − Φ(β)` is exact once the crossing distance `β` is
/// root-found, making the estimator exact for linear limit states and
/// low-variance for mildly curved ones. Not part of the paper's Table 1
/// columns, but included as the natural seventh baseline given reference
/// \[18\].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LineSamplingEstimator {
    n_lines: usize,
    max_root_iters: usize,
}

impl LineSamplingEstimator {
    /// Creates the estimator with `n_lines` lines; each line spends up to
    /// `~log2(40/1e-3)+2 ≈ 18` simulator calls on bisection.
    ///
    /// # Panics
    ///
    /// Panics if `n_lines == 0`.
    pub fn new(n_lines: usize) -> Self {
        assert!(n_lines > 0, "need at least one line");
        LineSamplingEstimator {
            n_lines,
            max_root_iters: 40,
        }
    }

    /// Finds the smallest `c ∈ (0, c_max]` with `g(z + c·α) ≤ 0` by coarse
    /// scan plus bisection; returns `None` if the line never fails.
    fn crossing(
        limit_state: &(dyn LimitState + Sync),
        z: &[f64],
        alpha: &[f64],
        max_iters: usize,
    ) -> Option<f64> {
        let point =
            |c: f64| -> Vec<f64> { z.iter().zip(alpha).map(|(&zi, &ai)| zi + c * ai).collect() };
        // Coarse scan out to 8 sigma.
        let mut lo = 0.0;
        let mut g_lo = limit_state.value(&point(0.0));
        if g_lo <= 0.0 {
            return Some(0.0);
        }
        let mut hi = None;
        for k in 1..=8 {
            let c = k as f64;
            let g = limit_state.value(&point(c));
            if g <= 0.0 {
                hi = Some(c);
                break;
            }
            lo = c;
            g_lo = g;
        }
        let mut hi = hi?;
        let _ = g_lo;
        // Bisection to ~1e-3 sigma resolution.
        for _ in 0..max_iters {
            if hi - lo < 1e-3 {
                break;
            }
            let mid = 0.5 * (lo + hi);
            if limit_state.value(&point(mid)) <= 0.0 {
                hi = mid;
            } else {
                lo = mid;
            }
        }
        Some(0.5 * (lo + hi))
    }
}

impl RareEventEstimator for LineSamplingEstimator {
    fn method_name(&self) -> &'static str {
        "LineSampling"
    }

    fn estimate(&self, limit_state: &(dyn LimitState + Sync), rng: &mut dyn RngCore) -> f64 {
        let dim = limit_state.dim();
        let base = StandardGaussian::new(dim);
        let mut rng = rng_shim(rng);

        // Important direction: descend the limit state (one gradient call).
        let (_, grad) = limit_state.value_grad(&vec![0.0; dim]);
        let norm: f64 = grad.iter().map(|g| g * g).sum::<f64>().sqrt();
        if norm == 0.0 {
            return 0.0; // flat limit state at the origin: no direction
        }
        let alpha: Vec<f64> = grad.iter().map(|g| -g / norm).collect();

        let mut acc = 0.0;
        for _ in 0..self.n_lines {
            // Orthogonal-subspace sample: project out the α component.
            let mut z = base.sample(&mut rng);
            let dot: f64 = z.iter().zip(&alpha).map(|(a, b)| a * b).sum();
            for (zi, ai) in z.iter_mut().zip(&alpha) {
                *zi -= dot * ai;
            }
            if let Some(beta) = Self::crossing(limit_state, &z, &alpha, self.max_root_iters) {
                acc += 1.0 - normal_cdf(beta);
            }
        }
        acc / self.n_lines as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nofis_prob::{log_error, CountingOracle};
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
        fn value_grad(&self, x: &[f64]) -> (f64, Vec<f64>) {
            (self.beta - x[0], vec![-1.0, 0.0, 0.0, 0.0])
        }
    }

    #[test]
    fn exact_on_linear_limit_state() {
        // For a half-space, every line crosses at the same β: the estimator
        // is exact up to root-finding resolution, even with few lines.
        let ls = HalfSpace { beta: 4.5 }; // P ≈ 3.4e-6
        let golden = 1.0 - normal_cdf(4.5);
        let est = LineSamplingEstimator::new(25);
        let mut rng = StdRng::seed_from_u64(0);
        let p = est.estimate(&ls, &mut rng);
        assert!(
            log_error(p, golden) < 0.01,
            "p = {p:.3e} vs golden {golden:.3e}"
        );
    }

    #[test]
    fn budget_is_modest() {
        let ls = HalfSpace { beta: 4.0 };
        let oracle = CountingOracle::new(&ls);
        let est = LineSamplingEstimator::new(50);
        let mut rng = StdRng::seed_from_u64(1);
        let _ = est.estimate(&oracle, &mut rng);
        // 1 gradient call + ≤ (8 scan + 40 bisection) per line.
        assert!(oracle.calls() <= 1 + 50 * 48, "calls = {}", oracle.calls());
    }

    #[test]
    fn curved_boundary_stays_close() {
        // Spherical failure region far from the origin along x0.
        struct Bowl;
        impl LimitState for Bowl {
            fn dim(&self) -> usize {
                3
            }
            fn value(&self, x: &[f64]) -> f64 {
                // fails when inside a half-space with slight curvature
                4.0 + 0.05 * (x[1] * x[1] + x[2] * x[2]) - x[0]
            }
            fn value_grad(&self, x: &[f64]) -> (f64, Vec<f64>) {
                (self.value(x), vec![-1.0, 0.1 * x[1], 0.1 * x[2]])
            }
        }
        // Golden: P = E[Φ̄(4 + 0.05·χ²₂)] ≈ Φ̄(4)·E[e^{-0.2 χ²₂}]
        //        = 3.17e-5 · 1/(1 + 0.4) ≈ 2.26e-5 (Mills-ratio approx).
        let golden = 2.26e-5;
        let est = LineSamplingEstimator::new(400);
        let mut rng = StdRng::seed_from_u64(3);
        let p = est.estimate(&Bowl, &mut rng);
        assert!(log_error(p, golden) < 0.5, "p = {p:.3e}");
    }

    #[test]
    fn never_failing_line_contributes_zero() {
        struct Never;
        impl LimitState for Never {
            fn dim(&self) -> usize {
                2
            }
            fn value(&self, _: &[f64]) -> f64 {
                1.0
            }
            fn value_grad(&self, _: &[f64]) -> (f64, Vec<f64>) {
                (1.0, vec![1.0, 0.0])
            }
        }
        let est = LineSamplingEstimator::new(10);
        let mut rng = StdRng::seed_from_u64(4);
        assert_eq!(est.estimate(&Never, &mut rng), 0.0);
    }
}
