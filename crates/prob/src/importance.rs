use crate::batch::ORACLE_CHUNK;
use crate::{batch_values_with, LimitState, StandardGaussian};
use nofis_parallel::ThreadPool;
use rand::RngCore;

/// A proposal distribution `q` that supports exact sampling and exact
/// log-density evaluation — the two properties importance sampling needs
/// and the reason normalizing flows compose the proposal family in NOFIS.
///
/// The batch methods (per-row loops by default) must return the per-row
/// methods' bits, and [`Proposal::sample_batch`] must consume the random
/// stream exactly as `n` calls to [`Proposal::sample`] would.
pub trait Proposal {
    /// Dimensionality of the sample space.
    fn dim(&self) -> usize;

    /// Draws one sample.
    fn sample(&self, rng: &mut dyn RngCore) -> Vec<f64>;

    /// Evaluates `ln q(x)`.
    fn log_density(&self, x: &[f64]) -> f64;

    /// Draws `n` samples.
    fn sample_batch(&self, n: usize, rng: &mut dyn RngCore) -> Vec<Vec<f64>> {
        (0..n).map(|_| self.sample(rng)).collect()
    }

    /// Evaluates `ln q(x)` at every row of `xs`.
    fn log_density_batch(&self, xs: &[Vec<f64>]) -> Vec<f64> {
        xs.iter().map(|x| self.log_density(x)).collect()
    }
}

impl Proposal for StandardGaussian {
    fn dim(&self) -> usize {
        StandardGaussian::dim(self)
    }

    fn sample(&self, mut rng: &mut dyn RngCore) -> Vec<f64> {
        StandardGaussian::sample(self, &mut rng)
    }

    fn log_density(&self, x: &[f64]) -> f64 {
        StandardGaussian::log_density(self, x)
    }
}

/// The proposal that produced an estimate: always the final proposal. The
/// type stays only because the end-to-end benchmark reads it; ROADMAP item
/// 5 removes it together with [`IsResult::rung`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FallbackRung {
    /// The final trained proposal.
    FinalProposal,
}

impl FallbackRung {
    /// Always 0, the final proposal's position.
    pub fn rank(&self) -> usize {
        0
    }
}

/// Outcome of an importance-sampling estimation (Eq. 2 of the paper),
/// with the summary of its weights that says whether it can be trusted.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IsResult {
    /// The unbiased probability estimate
    /// `(1/N) Σ 1[g(xₙ) ≤ a] · p(xₙ)/q(xₙ)`.
    pub estimate: f64,
    /// Number of proposal samples that landed in the failure region.
    pub hits: u64,
    /// Kish effective sample size of the failure-region weights; a small
    /// value relative to `hits` warns of weight degeneracy.
    pub effective_sample_size: f64,
    /// Standard error of [`IsResult::estimate`] from the realized weights,
    /// `sqrt(max(Σw²/N − p̂², 0) / (N − 1))`; infinite for a single draw.
    /// It is only as good as the weights' variance is finite, which
    /// [`IsResult::pareto_k`] judges.
    pub std_error: f64,
    /// PSIS shape `k̂` of the weight tail (Vehtari et al., arXiv
    /// 1507.02646): below 0.5 the weights have a finite variance, and
    /// from 0.7 up the estimate is unreliable. `None` when four or fewer
    /// weights lie in the tail.
    pub pareto_k: Option<f64>,
    /// Always [`FallbackRung::FinalProposal`]; kept only for the
    /// end-to-end benchmark, which still reads it.
    pub rung: FallbackRung,
}

/// Importance-sampling estimate of `P[g(x) ≤ threshold]` under the standard
/// Gaussian `p`, drawing `n` samples from `proposal`, with oracle calls
/// spread across `pool`.
///
/// Each drawn sample costs one call on `limit_state` (wrap it in a
/// [`CountingOracle`](crate::CountingOracle) to meter the budget).
///
/// The `n` samples are drawn in one [`Proposal::sample_batch`] call on the
/// caller thread (the random stream is identical to a serial run), then
/// the oracle evaluates them in fixed [`ORACLE_CHUNK`]-sized chunks across
/// `pool`. The failure-region samples are scored with one
/// [`Proposal::log_density_batch`] call, again on the caller thread: a
/// batched proposal may run its own pooled kernels, and the pool must not
/// be called from inside one of its chunks. The per-chunk partial sums
/// `(Σw, Σw²)` are reduced in chunk order and the tail fit is serial, so
/// every field of the result is bitwise identical for any thread count.
///
/// # Panics
///
/// Panics if `n == 0` or the proposal dimension differs from the limit
/// state's.
///
/// # Example
///
/// ```
/// use nofis_prob::{importance_sampling, LimitState, StandardGaussian};
/// use rand::SeedableRng;
///
/// struct HalfSpace;
/// impl LimitState for HalfSpace {
///     fn dim(&self) -> usize { 1 }
///     fn value(&self, x: &[f64]) -> f64 { 1.0 - x[0] } // fails when x >= 1
/// }
///
/// let p = StandardGaussian::new(1);
/// let mut rng = rand::rngs::StdRng::seed_from_u64(0);
/// let pool = nofis_parallel::global();
/// // Using p itself as the proposal reduces IS to plain Monte Carlo.
/// let r = importance_sampling(&HalfSpace, 0.0, &p, &p, 20_000, &mut rng, pool);
/// assert!((r.estimate - 0.1587).abs() < 0.02); // P[x >= 1] = 1 - Φ(1)
/// assert!(r.std_error < 0.003);
/// ```
pub fn importance_sampling(
    limit_state: &(impl LimitState + ?Sized + Sync),
    threshold: f64,
    proposal: &(impl Proposal + ?Sized + Sync),
    p: &StandardGaussian,
    n: usize,
    rng: &mut dyn RngCore,
    pool: &ThreadPool,
) -> IsResult {
    assert!(n > 0, "importance sampling needs at least one sample");
    assert_eq!(
        proposal.dim(),
        limit_state.dim(),
        "proposal and limit state dimensions differ"
    );
    let xs = proposal.sample_batch(n, rng);
    let gvals = batch_values_with(limit_state, &xs, pool);
    let hits: Vec<Vec<f64>> = xs
        .into_iter()
        .zip(&gvals)
        .filter(|(_, &g)| g <= threshold)
        .map(|(x, _)| x)
        .collect();
    let log_q = proposal.log_density_batch(&hits);
    let log_weights: Vec<f64> = hits
        .iter()
        .zip(log_q)
        .map(|(x, lq)| p.log_density(x) - lq)
        .collect();
    // Σw and Σw² are summed per ORACLE_CHUNK, then across chunks in chunk
    // order: the pinned estimate bits (tests/golden_estimates.rs) depend
    // on this addition order.
    let mut weights = log_weights.iter().map(|lw| lw.exp());
    let mut sum_w = 0.0;
    let mut sum_w2 = 0.0;
    for chunk in gvals.chunks(ORACLE_CHUNK) {
        let chunk_hits = chunk.iter().filter(|&&g| g <= threshold).count();
        let mut w_sum = 0.0;
        let mut w2_sum = 0.0;
        for w in weights.by_ref().take(chunk_hits) {
            w_sum += w;
            w2_sum += w * w;
        }
        sum_w += w_sum;
        sum_w2 += w2_sum;
    }
    let nf = n as f64;
    let estimate = sum_w / nf;
    let ess = if sum_w2 > 0.0 {
        sum_w * sum_w / sum_w2
    } else {
        0.0
    };
    let std_error = if n > 1 {
        ((sum_w2 / nf - estimate * estimate).max(0.0) / (nf - 1.0)).sqrt()
    } else {
        f64::INFINITY
    };
    IsResult {
        estimate,
        hits: log_weights.len() as u64,
        effective_sample_size: ess,
        std_error,
        pareto_k: pareto_k(log_weights, n),
        rung: FallbackRung::FinalProposal,
    }
}

/// PSIS tail shape of the weights of `n` draws, given the log-weights of
/// the draws that hit (a miss weighs 0).
///
/// The tail is every hit above the `(M+1)`-th largest log-weight, with
/// `M = ⌈min(n/5, 3√n)⌉` and that cutoff floored at the log of the
/// smallest positive `f64`, so with `M` or fewer hits every hit above that
/// floor is in the tail. The tail's exceedances over the cutoff, scaled by the largest
/// weight, are fitted by [`gpd_shape`]. `None` when four or fewer points
/// lie in the tail.
fn pareto_k(mut log_weights: Vec<f64>, n: usize) -> Option<f64> {
    let nf = n as f64;
    let m = (nf / 5.0).min(3.0 * nf.sqrt()).ceil() as usize;
    log_weights.sort_unstable_by(|a, b| b.total_cmp(a));
    let cutoff = log_weights
        .get(m)
        .copied()
        .unwrap_or(f64::NEG_INFINITY)
        .max(f64::MIN_POSITIVE.ln());
    let max = *log_weights.first()?;
    let floor = (cutoff - max).exp();
    let mut tail: Vec<f64> = log_weights
        .iter()
        .take_while(|&&lw| lw > cutoff)
        .map(|lw| (lw - max).exp() - floor)
        .collect();
    if tail.len() <= 4 {
        return None;
    }
    tail.reverse();
    Some(gpd_shape(&tail))
}

/// Generalized-Pareto shape of the exceedances `x` (sorted ascending, at
/// least two): the Zhang–Stephens posterior mean over a grid of
/// `30 + ⌊√len⌋` values of `θ = −k/σ`, then shrunk toward 0.5 by PSIS's
/// weakly informative prior `(len·k + 5)/(len + 10)`. Positive `k` is a
/// heavy tail.
fn gpd_shape(x: &[f64]) -> f64 {
    let len = x.len() as f64;
    let grid = 30 + len.sqrt() as usize;
    let first_quartile = x[(len / 4.0 + 0.5) as usize - 1];
    let x_max = x[x.len() - 1];
    let mean_log1p = |theta: f64| x.iter().map(|&xi| (-theta * xi).ln_1p()).sum::<f64>() / len;
    let thetas: Vec<f64> = (1..=grid)
        .map(|j| {
            let spread = 1.0 - (grid as f64 / (j as f64 - 0.5)).sqrt();
            1.0 / x_max + spread / (3.0 * first_quartile)
        })
        .collect();
    let log_lik: Vec<f64> = thetas
        .iter()
        .map(|&theta| {
            let k = mean_log1p(theta);
            len * ((-theta / k).ln() - k - 1.0)
        })
        .collect();
    let top = log_lik.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    let mut weight_sum = 0.0;
    let mut theta_sum = 0.0;
    for (theta, ll) in thetas.iter().zip(&log_lik) {
        let w = (ll - top).exp();
        weight_sum += w;
        theta_sum += theta * w;
    }
    let k = mean_log1p(theta_sum / weight_sum);
    (len * k + 5.0) / (len + 10.0)
}

/// Outcome of a plain Monte Carlo estimation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct McResult {
    /// Number of failing samples.
    pub hits: u64,
    /// Number of samples drawn.
    pub samples: u64,
}

impl McResult {
    /// The Monte Carlo probability estimate `hits / samples`.
    pub fn estimate(&self) -> f64 {
        self.hits as f64 / self.samples as f64
    }
}

/// Plain Monte Carlo estimate of `P[g(x) ≤ threshold]`, drawing `n` samples
/// from the standard Gaussian.
///
/// # Panics
///
/// Panics if `n == 0`.
pub fn monte_carlo(
    limit_state: &(impl LimitState + ?Sized + Sync),
    threshold: f64,
    n: usize,
    rng: &mut dyn RngCore,
) -> McResult {
    monte_carlo_with_pool(limit_state, threshold, n, rng, nofis_parallel::global())
}

/// [`monte_carlo`] on an explicit pool. Samples are drawn serially from
/// `rng` (identical stream to a serial run); oracle calls run chunked
/// across the pool via [`batch_values_with`], so the hit count is the same
/// for any thread count.
///
/// # Panics
///
/// Panics if `n == 0`.
pub fn monte_carlo_with_pool(
    limit_state: &(impl LimitState + ?Sized + Sync),
    threshold: f64,
    n: usize,
    rng: &mut dyn RngCore,
    pool: &ThreadPool,
) -> McResult {
    assert!(n > 0, "Monte Carlo needs at least one sample");
    let xs = StandardGaussian::new(limit_state.dim()).sample_batch(n, rng);
    let hits = batch_values_with(limit_state, &xs, pool)
        .iter()
        .filter(|&&g| g <= threshold)
        .count() as u64;
    McResult {
        hits,
        samples: n as u64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::normal_cdf;
    use nofis_parallel::global as pool;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    struct Shifted;
    impl LimitState for Shifted {
        fn dim(&self) -> usize {
            1
        }
        fn value(&self, x: &[f64]) -> f64 {
            3.0 - x[0] // fails when x >= 3
        }
    }

    /// A Gaussian proposal shifted to mean 3 for the `Shifted` event.
    struct ShiftedProposal;
    impl Proposal for ShiftedProposal {
        fn dim(&self) -> usize {
            1
        }
        fn sample(&self, rng: &mut dyn RngCore) -> Vec<f64> {
            let z: f64 = rand_distr::Distribution::sample(&rand_distr::StandardNormal, rng);
            vec![z + 3.0]
        }
        fn log_density(&self, x: &[f64]) -> f64 {
            let d = x[0] - 3.0;
            -0.5 * crate::LN_2PI - 0.5 * d * d
        }
    }

    #[test]
    fn shifted_proposal_estimates_tail_accurately() {
        let p = StandardGaussian::new(1);
        let mut rng = StdRng::seed_from_u64(7);
        let r = importance_sampling(&Shifted, 0.0, &ShiftedProposal, &p, 4000, &mut rng, pool());
        let truth = 1.0 - normal_cdf(3.0); // ≈ 1.35e-3
        assert!(
            (r.estimate / truth - 1.0).abs() < 0.1,
            "estimate={}, truth={truth}",
            r.estimate
        );
        assert!(r.hits > 1000); // about half the proposal mass fails
        assert!(r.effective_sample_size > 100.0);
    }

    #[test]
    fn monte_carlo_matches_cdf() {
        let mut rng = StdRng::seed_from_u64(1);
        let r = monte_carlo(&Shifted, 2.0, 50_000, &mut rng); // g <= 2 ⇔ x >= 1
        let truth = 1.0 - normal_cdf(1.0);
        assert!((r.estimate() / truth - 1.0).abs() < 0.05);
    }

    #[test]
    fn is_with_base_proposal_equals_mc_statistically() {
        let p = StandardGaussian::new(1);
        let mut rng = StdRng::seed_from_u64(2);
        let r = importance_sampling(&Shifted, 2.0, &p, &p, 50_000, &mut rng, pool());
        let truth = 1.0 - normal_cdf(1.0);
        assert!((r.estimate / truth - 1.0).abs() < 0.05);
        // All weights are exactly 1 here, so ESS equals hit count.
        assert!((r.effective_sample_size - r.hits as f64).abs() < 1e-6);
    }

    #[test]
    fn zero_hits_gives_zero_estimate() {
        let p = StandardGaussian::new(1);
        let mut rng = StdRng::seed_from_u64(3);
        let r = importance_sampling(&Shifted, -20.0, &p, &p, 100, &mut rng, pool());
        assert_eq!(r.estimate, 0.0);
        assert_eq!(r.hits, 0);
        assert_eq!(r.effective_sample_size, 0.0);
        assert_eq!(r.std_error, 0.0);
        assert_eq!(r.pareto_k, None);
    }

    /// `k̂` recovers the shape of exact Pareto weights `w = u^(−k)`: the
    /// mean over 20 seeds of 5000 draws lands within 0.1 of `k`.
    #[test]
    fn pareto_k_recovers_the_tail_shape() {
        let n = 5000;
        for k in [0.25, 0.5, 1.0, 2.0] {
            let mean = (0..20u64)
                .map(|seed| {
                    let mut rng = StdRng::seed_from_u64(seed);
                    let lw = (0..n).map(|_| -k * (1.0 - rng.gen::<f64>()).ln()).collect();
                    pareto_k(lw, n).expect("a full tail")
                })
                .sum::<f64>()
                / 20.0;
            assert!((mean - k).abs() < 0.1, "k = {k}: mean k̂ = {mean}");
        }
    }

    /// The reported standard error matches the spread of independent
    /// estimates: over 200 seeds, their SD is within 15% of the mean
    /// `std_error`.
    #[test]
    fn std_error_matches_the_spread_of_estimates() {
        let p = StandardGaussian::new(1);
        let (estimates, errors): (Vec<f64>, Vec<f64>) = (0..200u64)
            .map(|seed| {
                let mut rng = StdRng::seed_from_u64(seed);
                let r =
                    importance_sampling(&Shifted, 0.0, &ShiftedProposal, &p, 400, &mut rng, pool());
                (r.estimate, r.std_error)
            })
            .unzip();
        let mean = estimates.iter().sum::<f64>() / 200.0;
        let sd = (estimates.iter().map(|e| (e - mean).powi(2)).sum::<f64>() / 199.0).sqrt();
        let mean_se = errors.iter().sum::<f64>() / 200.0;
        assert!(
            (sd / mean_se - 1.0).abs() < 0.15,
            "SD {sd:e}, mean SE {mean_se:e}"
        );
    }

    #[test]
    fn a_short_tail_has_no_pareto_k() {
        // Four hits among 1000 draws: the whole tail, too few to fit.
        assert_eq!(pareto_k(vec![0.0, -1.0, -2.0, -3.0], 1000), None);
        // Five hits are enough.
        assert!(pareto_k(vec![0.0, -1.0, -2.0, -3.0, -4.0], 1000).is_some());
        // A hit whose weight underflows f64 is below the floored cutoff.
        let lw = vec![0.0, -1.0, -2.0, -3.0, -800.0];
        assert_eq!(pareto_k(lw, 1000), None);
    }
}
