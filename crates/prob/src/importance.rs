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

/// Which rung of the guarded estimation fallback ladder produced an
/// estimate.
///
/// A trusted estimator descends this ladder only when
/// [`WeightDiagnostics`](crate::WeightDiagnostics) flags the previous rung
/// as degenerate: the learned final proposal first, then an earlier-stage
/// proposal, and finally a defensive mixture `α·p + (1−α)·q` whose weights
/// are bounded by `1/α`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FallbackRung {
    /// The primary (final trained) proposal was used directly.
    FinalProposal,
    /// An earlier stage proposal `q_{mK}` was substituted (1-based stage).
    StageProposal {
        /// The stage whose proposal produced the estimate.
        stage: usize,
    },
    /// A defensive mixture `α·p + (1−α)·q` of the base and the final
    /// proposal was substituted.
    DefensiveMixture {
        /// Base-distribution mixing weight `α` (weights bounded by `1/α`).
        alpha: f64,
    },
}

impl FallbackRung {
    /// Position on the ladder (0 = primary proposal, 2 = defensive
    /// mixture).
    pub fn rank(&self) -> usize {
        match self {
            FallbackRung::FinalProposal => 0,
            FallbackRung::StageProposal { .. } => 1,
            FallbackRung::DefensiveMixture { .. } => 2,
        }
    }

    /// Stable machine-readable label for telemetry fields (`Display` is
    /// for humans and carries parameters).
    pub fn label(&self) -> &'static str {
        match self {
            FallbackRung::FinalProposal => "final_proposal",
            FallbackRung::StageProposal { .. } => "stage_proposal",
            FallbackRung::DefensiveMixture { .. } => "defensive_mixture",
        }
    }

    /// Whether any fallback was engaged (anything past the primary rung).
    pub fn is_fallback(&self) -> bool {
        self.rank() > 0
    }
}

impl std::fmt::Display for FallbackRung {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FallbackRung::FinalProposal => write!(f, "final proposal"),
            FallbackRung::StageProposal { stage } => write!(f, "stage-{stage} proposal"),
            FallbackRung::DefensiveMixture { alpha } => {
                write!(f, "defensive mixture (alpha = {alpha})")
            }
        }
    }
}

/// Outcome of an importance-sampling estimation (Eq. 2 of the paper).
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
    /// Which proposal actually produced this estimate. Direct calls to
    /// [`importance_sampling`] always report
    /// [`FallbackRung::FinalProposal`]; guarded estimators overwrite this
    /// when they descend the ladder.
    pub rung: FallbackRung,
}

/// Importance-sampling estimate of `P[g(x) ≤ threshold]` under the standard
/// Gaussian `p`, drawing `n` samples from `proposal`.
///
/// Each drawn sample costs one call on `limit_state` (wrap it in a
/// [`CountingOracle`](crate::CountingOracle) to meter the budget).
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
/// // Using p itself as the proposal reduces IS to plain Monte Carlo.
/// let r = importance_sampling(&HalfSpace, 0.0, &p, &p, 20_000, &mut rng);
/// assert!((r.estimate - 0.1587).abs() < 0.02); // P[x >= 1] = 1 - Φ(1)
/// ```
pub fn importance_sampling(
    limit_state: &(impl LimitState + ?Sized + Sync),
    threshold: f64,
    proposal: &(impl Proposal + ?Sized + Sync),
    p: &StandardGaussian,
    n: usize,
    rng: &mut dyn RngCore,
) -> IsResult {
    let (result, _) = importance_sampling_detailed_with_pool(
        limit_state,
        threshold,
        proposal,
        p,
        n,
        rng,
        nofis_parallel::global(),
    );
    result
}

/// Importance sampling like [`importance_sampling`] on an explicit pool,
/// additionally returning the log-weights of the failure-region samples so
/// callers can run
/// [`WeightDiagnostics`](crate::WeightDiagnostics) on them.
///
/// The `n` samples are drawn in one [`Proposal::sample_batch`] call on the
/// caller thread (the random stream is identical to a serial run), then
/// the oracle evaluates them in fixed [`ORACLE_CHUNK`]-sized chunks across
/// `pool`. The failure-region samples are scored with one
/// [`Proposal::log_density_batch`] call, again on the caller thread: a
/// batched proposal may run its own pooled kernels, and the pool must not
/// be called from inside one of its chunks. The per-chunk partial sums
/// `(Σw, Σw²)` are reduced in chunk order, so the estimate, hit count, ESS,
/// and log-weight list are all bitwise identical for any thread count.
///
/// # Panics
///
/// Same conditions as [`importance_sampling`].
pub fn importance_sampling_detailed_with_pool(
    limit_state: &(impl LimitState + ?Sized + Sync),
    threshold: f64,
    proposal: &(impl Proposal + ?Sized + Sync),
    p: &StandardGaussian,
    n: usize,
    rng: &mut dyn RngCore,
    pool: &ThreadPool,
) -> (IsResult, Vec<f64>) {
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
    let estimate = sum_w / n as f64;
    let ess = if sum_w2 > 0.0 {
        sum_w * sum_w / sum_w2
    } else {
        0.0
    };
    (
        IsResult {
            estimate,
            hits: log_weights.len() as u64,
            effective_sample_size: ess,
            rung: FallbackRung::FinalProposal,
        },
        log_weights,
    )
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
    use rand::rngs::StdRng;
    use rand::SeedableRng;

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
        let r = importance_sampling(&Shifted, 0.0, &ShiftedProposal, &p, 4000, &mut rng);
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
        let r = importance_sampling(&Shifted, 2.0, &p, &p, 50_000, &mut rng);
        let truth = 1.0 - normal_cdf(1.0);
        assert!((r.estimate / truth - 1.0).abs() < 0.05);
        // All weights are exactly 1 here, so ESS equals hit count.
        assert!((r.effective_sample_size - r.hits as f64).abs() < 1e-6);
    }

    #[test]
    fn zero_hits_gives_zero_estimate() {
        let p = StandardGaussian::new(1);
        let mut rng = StdRng::seed_from_u64(3);
        let r = importance_sampling(&Shifted, -20.0, &p, &p, 100, &mut rng);
        assert_eq!(r.estimate, 0.0);
        assert_eq!(r.hits, 0);
        assert_eq!(r.effective_sample_size, 0.0);
    }
}
