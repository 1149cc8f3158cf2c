//! Defensive mixture proposals (Hesterberg, 1995).
//!
//! When a learned proposal `q` turns out to be degenerate — heavy-tailed
//! importance weights, one sample dominating the estimate — mixing the base
//! distribution back in rescues the estimator: under
//! `q_α = α·p + (1−α)·q` every importance weight `p/q_α` is bounded above
//! by `1/α`, so the estimate has finite variance *regardless of how bad `q`
//! is*. This is the third rung of the guarded estimation fallback ladder
//! (see [`FallbackRung`](crate::FallbackRung)).

use crate::{Proposal, StandardGaussian};
use rand::{Rng, RngCore};

/// The defensive mixture `α·p + (1−α)·q` of the standard Gaussian base `p`
/// and an arbitrary proposal `q`.
///
/// # Example
///
/// ```
/// use nofis_prob::{DefensiveMixture, Proposal, StandardGaussian};
/// use rand::SeedableRng;
///
/// // Even against a catastrophically narrow q, weights stay <= 1/alpha.
/// let q = StandardGaussian::new(2); // stand-in proposal
/// let defensive = DefensiveMixture::new(&q, 0.5).expect("valid alpha");
/// let p = StandardGaussian::new(2);
/// let mut rng = rand::rngs::StdRng::seed_from_u64(0);
/// let x = defensive.sample(&mut rng);
/// let w = (p.log_density(&x) - defensive.log_density(&x)).exp();
/// assert!(w <= 2.0 + 1e-9);
/// ```
#[derive(Debug, Clone)]
pub struct DefensiveMixture<'a, Q: Proposal + ?Sized> {
    base: StandardGaussian,
    q: &'a Q,
    alpha: f64,
}

impl<'a, Q: Proposal + ?Sized> DefensiveMixture<'a, Q> {
    /// Wraps `q` in a defensive mixture with base weight `alpha`.
    ///
    /// # Errors
    ///
    /// Returns a message if `alpha` is not in `(0, 1)` or `q` has zero
    /// dimension.
    pub fn new(q: &'a Q, alpha: f64) -> Result<Self, String> {
        if !(alpha > 0.0 && alpha < 1.0) {
            return Err(format!("defensive alpha must be in (0, 1), got {alpha}"));
        }
        let dim = q.dim();
        if dim == 0 {
            return Err("proposal dimension must be positive".into());
        }
        Ok(DefensiveMixture {
            base: StandardGaussian::new(dim),
            q,
            alpha,
        })
    }

    /// The base mixing weight `α`; importance weights are bounded by `1/α`.
    pub fn alpha(&self) -> f64 {
        self.alpha
    }

    /// `ln q_α(x)` from `lq_raw = ln q(x)`: log-sum-exp of `ln α + ln p(x)`
    /// and `ln(1−α) + ln q(x)`, a NaN `q` term (broken flow) counting as
    /// zero mass so the mixture stays a valid density.
    fn mix(&self, x: &[f64], lq_raw: f64) -> f64 {
        let lp = self.alpha.ln() + self.base.log_density(x);
        let lq = if lq_raw.is_nan() {
            f64::NEG_INFINITY
        } else {
            (1.0 - self.alpha).ln() + lq_raw
        };
        let max = lp.max(lq);
        if max == f64::NEG_INFINITY {
            return f64::NEG_INFINITY;
        }
        max + ((lp - max).exp() + (lq - max).exp()).ln()
    }
}

impl<Q: Proposal + ?Sized> Proposal for DefensiveMixture<'_, Q> {
    fn dim(&self) -> usize {
        self.base.dim()
    }

    fn sample(&self, mut rng: &mut dyn RngCore) -> Vec<f64> {
        let u: f64 = Rng::gen(&mut rng);
        if u < self.alpha {
            Proposal::sample(&self.base, rng)
        } else {
            self.q.sample(rng)
        }
    }

    fn log_density(&self, x: &[f64]) -> f64 {
        self.mix(x, self.q.log_density(x))
    }

    fn log_density_batch(&self, xs: &[Vec<f64>]) -> Vec<f64> {
        let lq = self.q.log_density_batch(xs);
        xs.iter().zip(lq).map(|(x, lq)| self.mix(x, lq)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{importance_sampling, normal_cdf, LimitState, WeightDiagnostics};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// A deliberately terrible proposal: a spike at (5, 5) with tiny width.
    struct Spike;
    impl Proposal for Spike {
        fn dim(&self) -> usize {
            2
        }
        fn sample(&self, mut rng: &mut dyn RngCore) -> Vec<f64> {
            let u: f64 = Rng::gen(&mut rng);
            let v: f64 = Rng::gen(&mut rng);
            vec![5.0 + 0.01 * (u - 0.5), 5.0 + 0.01 * (v - 0.5)]
        }
        fn log_density(&self, x: &[f64]) -> f64 {
            let in_box = (x[0] - 5.0).abs() <= 0.005 && (x[1] - 5.0).abs() <= 0.005;
            if in_box {
                (1.0f64 / (0.01 * 0.01)).ln()
            } else {
                f64::NEG_INFINITY
            }
        }
    }

    #[test]
    fn rejects_bad_alpha() {
        let q = StandardGaussian::new(2);
        assert!(DefensiveMixture::new(&q, 0.0).is_err());
        assert!(DefensiveMixture::new(&q, 1.0).is_err());
        assert!(DefensiveMixture::new(&q, f64::NAN).is_err());
        assert!(DefensiveMixture::new(&q, 0.5).is_ok());
    }

    #[test]
    fn weights_are_bounded_by_inverse_alpha() {
        let defensive = DefensiveMixture::new(&Spike, 0.25).unwrap();
        let p = StandardGaussian::new(2);
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..5_000 {
            let x = defensive.sample(&mut rng);
            let w = (p.log_density(&x) - defensive.log_density(&x)).exp();
            assert!(w.is_finite());
            assert!(w <= 4.0 + 1e-9, "weight {w} exceeds 1/alpha");
        }
    }

    #[test]
    fn rescues_estimation_from_a_degenerate_proposal() {
        // Event: x0 >= 1 (P = 1 - Φ(1) ≈ 0.1587). The spike proposal alone
        // would give a useless estimate; the defensive mixture recovers it.
        struct HalfSpace;
        impl LimitState for HalfSpace {
            fn dim(&self) -> usize {
                2
            }
            fn value(&self, x: &[f64]) -> f64 {
                1.0 - x[0]
            }
        }
        let defensive = DefensiveMixture::new(&Spike, 0.5).unwrap();
        let p = StandardGaussian::new(2);
        let mut rng = StdRng::seed_from_u64(3);
        let r = importance_sampling(&HalfSpace, 0.0, &defensive, &p, 40_000, &mut rng);
        let truth = 1.0 - normal_cdf(1.0);
        assert!(
            (r.estimate / truth - 1.0).abs() < 0.1,
            "estimate {} vs truth {truth}",
            r.estimate
        );
    }

    #[test]
    fn defensive_weights_pass_diagnostics() {
        struct Everything;
        impl LimitState for Everything {
            fn dim(&self) -> usize {
                2
            }
            fn value(&self, _: &[f64]) -> f64 {
                -1.0
            }
        }
        let defensive = DefensiveMixture::new(&Spike, 0.5).unwrap();
        let p = StandardGaussian::new(2);
        let mut rng = StdRng::seed_from_u64(4);
        let mut log_weights = Vec::new();
        for _ in 0..500 {
            let x = defensive.sample(&mut rng);
            let _ = Everything.value(&x);
            log_weights.push(p.log_density(&x) - defensive.log_density(&x));
        }
        let d = WeightDiagnostics::from_log_weights(&log_weights);
        assert!(
            d.looks_healthy(),
            "bounded defensive weights should be healthy: {d:?}"
        );
    }

    #[test]
    fn density_handles_nan_inner_proposal() {
        struct NanDensity;
        impl Proposal for NanDensity {
            fn dim(&self) -> usize {
                2
            }
            fn sample(&self, _rng: &mut dyn RngCore) -> Vec<f64> {
                vec![0.0, 0.0]
            }
            fn log_density(&self, _x: &[f64]) -> f64 {
                f64::NAN
            }
        }
        let defensive = DefensiveMixture::new(&NanDensity, 0.5).unwrap();
        let ld = defensive.log_density(&[0.0, 0.0]);
        assert!(ld.is_finite(), "NaN inner density must not poison mixture");
    }
}
