/// Floor applied to zero/negative probability estimates before taking
/// logarithms in [`log_error`].
///
/// An estimator that returns exactly zero (e.g. plain Monte Carlo seeing no
/// failures) would otherwise produce an infinite log-error; the paper's
/// Table 1 reports large-but-finite errors for those cases, implying a
/// similar floor.
pub const ESTIMATE_FLOOR: f64 = 1e-12;

/// The paper's evaluation metric: `| ln(estimate) - ln(golden) |`, with the
/// estimate floored at [`ESTIMATE_FLOOR`] so failed estimators yield a
/// large finite error rather than infinity.
///
/// # Panics
///
/// Panics if `golden` is not strictly positive.
///
/// # Example
///
/// ```
/// use nofis_prob::log_error;
///
/// assert!(log_error(1e-6, 1e-6) < 1e-12);          // perfect estimate
/// assert!((log_error(1e-5, 1e-6) - std::f64::consts::LN_10).abs() < 1e-12);
/// assert!(log_error(0.0, 1e-6).is_finite());       // floored, not infinite
/// ```
pub fn log_error(estimate: f64, golden: f64) -> f64 {
    assert!(golden > 0.0, "golden probability must be positive");
    let est = estimate.max(ESTIMATE_FLOOR);
    (est.ln() - golden.ln()).abs()
}

/// Streaming mean/variance/extremes accumulator (Welford's algorithm).
///
/// # Example
///
/// ```
/// use nofis_prob::RunningStats;
///
/// let mut s = RunningStats::new();
/// for v in [1.0, 2.0, 3.0] { s.push(v); }
/// assert_eq!(s.mean(), 2.0);
/// assert_eq!(s.count(), 3);
/// assert_eq!(s.sample_variance(), 1.0);
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct RunningStats {
    count: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl RunningStats {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        RunningStats {
            count: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Adds an observation.
    pub fn push(&mut self, v: f64) {
        self.count += 1;
        let delta = v - self.mean;
        self.mean += delta / self.count as f64;
        self.m2 += delta * (v - self.mean);
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sample mean (0 when empty).
    pub fn mean(&self) -> f64 {
        self.mean
    }

    /// Unbiased sample variance (0 when fewer than two observations).
    pub fn sample_variance(&self) -> f64 {
        if self.count < 2 {
            0.0
        } else {
            self.m2 / (self.count - 1) as f64
        }
    }

    /// Sample standard deviation.
    pub fn std_dev(&self) -> f64 {
        self.sample_variance().sqrt()
    }

    /// Smallest observation (`+inf` when empty).
    pub fn min(&self) -> f64 {
        self.min
    }

    /// Largest observation (`-inf` when empty).
    pub fn max(&self) -> f64 {
        self.max
    }
}

impl FromIterator<f64> for RunningStats {
    fn from_iter<I: IntoIterator<Item = f64>>(iter: I) -> Self {
        let mut s = RunningStats::new();
        for v in iter {
            s.push(v);
        }
        s
    }
}

impl Extend<f64> for RunningStats {
    fn extend<I: IntoIterator<Item = f64>>(&mut self, iter: I) {
        for v in iter {
            self.push(v);
        }
    }
}

/// Returns the `q`-quantile (0 ≤ q ≤ 1) of `values` by sorting a copy
/// (with [`f64::total_cmp`]), using linear interpolation between order
/// statistics.
///
/// Used by adaptive level selection (SUS and NOFIS's automatic threshold
/// schedule).
///
/// **NaN handling:** a broken simulator can return NaN scores, and the
/// adaptive schedule must not crash on them. NaN entries are filtered out
/// before the quantile is computed, so the result is the quantile of the
/// valid observations. If *every* entry is NaN the function returns NaN —
/// callers that cannot tolerate this should check `is_nan()` on the result.
///
/// # Panics
///
/// Panics if `values` is empty or `q` is outside `[0, 1]`.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    assert!(!values.is_empty(), "quantile of an empty slice");
    assert!((0.0..=1.0).contains(&q), "quantile level must be in [0,1]");
    let mut sorted: Vec<f64> = values.iter().copied().filter(|v| !v.is_nan()).collect();
    if sorted.is_empty() {
        return f64::NAN;
    }
    sorted.sort_by(f64::total_cmp);
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    if lo == hi {
        sorted[lo]
    } else {
        let w = pos - lo as f64;
        sorted[lo] * (1.0 - w) + sorted[hi] * w
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn log_error_basics() {
        assert_eq!(log_error(1e-6, 1e-6), 0.0);
        let e = log_error(2e-6, 1e-6);
        assert!((e - 2.0_f64.ln()).abs() < 1e-12);
        // symmetric over/under-estimation
        assert!((log_error(5e-7, 1e-6) - log_error(2e-6, 1e-6)).abs() < 1e-12);
    }

    #[test]
    fn log_error_floors_zero() {
        let e = log_error(0.0, 4.74e-6);
        assert!(e.is_finite());
        assert!((e - (4.74e-6_f64.ln() - ESTIMATE_FLOOR.ln())).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn log_error_rejects_zero_golden() {
        let _ = log_error(1e-6, 0.0);
    }

    #[test]
    fn running_stats_welford() {
        let s: RunningStats = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]
            .into_iter()
            .collect();
        assert_eq!(s.mean(), 5.0);
        assert!((s.sample_variance() - 32.0 / 7.0).abs() < 1e-12);
        assert_eq!(s.min(), 2.0);
        assert_eq!(s.max(), 9.0);
    }

    #[test]
    fn stats_extend() {
        let mut s = RunningStats::new();
        s.extend([1.0, 3.0]);
        assert_eq!(s.count(), 2);
        assert_eq!(s.mean(), 2.0);
    }

    #[test]
    fn quantile_interpolates() {
        let v = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert_eq!(quantile(&v, 0.5), 2.5);
        assert!((quantile(&v, 0.25) - 1.75).abs() < 1e-12);
    }

    #[test]
    fn quantile_handles_unsorted() {
        let v = [9.0, 1.0, 5.0];
        assert_eq!(quantile(&v, 0.5), 5.0);
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn quantile_rejects_empty() {
        let _ = quantile(&[], 0.5);
    }

    #[test]
    fn quantile_filters_nan() {
        // NaN scores from a broken simulator are skipped, not fatal.
        let v = [f64::NAN, 1.0, f64::NAN, 3.0];
        assert_eq!(quantile(&v, 0.5), 2.0);
        assert!(quantile(&[f64::NAN, f64::NAN], 0.5).is_nan());
        // Infinities are legitimate order statistics and survive total_cmp.
        let w = [f64::INFINITY, 0.0, f64::NEG_INFINITY];
        assert_eq!(quantile(&w, 0.5), 0.0);
    }
}
