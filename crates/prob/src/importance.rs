use crate::batch::{BatchEval, ORACLE_CHUNK};
use crate::{LimitState, StandardGaussian};
use nofis_parallel::chunks::{chunk_count, chunk_range};
use nofis_parallel::ThreadPool;
use rand::RngCore;

/// A proposal distribution `q` that supports exact sampling and exact
/// log-density evaluation — the two properties importance sampling needs
/// and the reason normalizing flows compose the proposal family in NOFIS.
pub trait Proposal {
    /// Dimensionality of the sample space.
    fn dim(&self) -> usize;

    /// Draws one sample.
    fn sample(&self, rng: &mut dyn RngCore) -> Vec<f64>;

    /// Evaluates `ln q(x)`.
    fn log_density(&self, x: &[f64]) -> f64;
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
/// proposal, then a defensive mixture `α·p + (1−α)·q` whose weights are
/// bounded by `1/α`, and finally plain Monte Carlo, which is always
/// unbiased but has no variance reduction.
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
    /// Plain Monte Carlo under the base distribution `p`.
    PlainMonteCarlo,
}

impl FallbackRung {
    /// Position on the ladder (0 = primary proposal, 3 = plain MC).
    pub fn rank(&self) -> usize {
        match self {
            FallbackRung::FinalProposal => 0,
            FallbackRung::StageProposal { .. } => 1,
            FallbackRung::DefensiveMixture { .. } => 2,
            FallbackRung::PlainMonteCarlo => 3,
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
            FallbackRung::PlainMonteCarlo => write!(f, "plain Monte Carlo"),
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

impl IsResult {
    /// Returns the same result tagged with the given ladder rung.
    pub fn with_rung(self, rung: FallbackRung) -> Self {
        IsResult { rung, ..self }
    }
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
    let (result, _) = importance_sampling_detailed_with_exec(
        limit_state,
        threshold,
        proposal,
        p,
        n,
        rng,
        nofis_parallel::global(),
        None,
    );
    result
}

/// Importance sampling like [`importance_sampling`] on an explicit pool
/// and an optional external batch executor (the sharded worker-process
/// pool), additionally returning the log-weights of the failure-region
/// samples so callers can run
/// [`WeightDiagnostics`](crate::WeightDiagnostics) on them.
///
/// Samples are drawn serially from `rng` (sampling is cheap next to oracle
/// calls, and this keeps the random stream identical to a serial run), then
/// evaluated in fixed [`ORACLE_CHUNK`]-sized chunks across `pool`. The
/// per-chunk partial sums `(Σw, Σw²)` are reduced in chunk order, so the
/// estimate, hit count, ESS, and log-weight list are all bitwise identical
/// for any thread count.
///
/// When `exec` serves the batch, the oracle values for all `n` samples come
/// back precomputed in sample order and the per-chunk weight pass consumes
/// them instead of calling `limit_state` — same samples, same per-sample
/// arithmetic, same chunk-ordered reduction, so the estimate is bitwise
/// identical to the in-process path (the [`BatchEval`] contract guarantees
/// the values themselves match bitwise). When `exec` is `None` or declines
/// the batch, this *is* the in-process path, unchanged.
///
/// # Panics
///
/// Same conditions as [`importance_sampling`].
#[allow(clippy::too_many_arguments)]
pub fn importance_sampling_detailed_with_exec(
    limit_state: &(impl LimitState + ?Sized + Sync),
    threshold: f64,
    proposal: &(impl Proposal + ?Sized + Sync),
    p: &StandardGaussian,
    n: usize,
    rng: &mut dyn RngCore,
    pool: &ThreadPool,
    exec: Option<&dyn BatchEval>,
) -> (IsResult, Vec<f64>) {
    assert!(n > 0, "importance sampling needs at least one sample");
    assert_eq!(
        proposal.dim(),
        limit_state.dim(),
        "proposal and limit state dimensions differ"
    );
    let xs: Vec<Vec<f64>> = (0..n).map(|_| proposal.sample(rng)).collect();
    let pre = exec.and_then(|e| e.try_eval(&xs));
    // One parallel pass per chunk: oracle call (or precomputed external
    // value) + log-weight for failures.
    let partials: Vec<(f64, f64, Vec<f64>)> = pool.map_chunks(chunk_count(n, ORACLE_CHUNK), |ci| {
        let (start, end) = chunk_range(n, ORACLE_CHUNK, ci);
        let mut sum_w = 0.0;
        let mut sum_w2 = 0.0;
        let mut lws = Vec::new();
        for (i, x) in xs[start..end].iter().enumerate() {
            let value = match &pre {
                Some(vals) => vals[start + i],
                None => limit_state.value(x),
            };
            if value <= threshold {
                let lw = p.log_density(x) - proposal.log_density(x);
                lws.push(lw);
                let w = lw.exp();
                sum_w += w;
                sum_w2 += w * w;
            }
        }
        (sum_w, sum_w2, lws)
    });
    // Chunk-ordered reduction: fixed addition order for any thread count.
    let mut log_weights = Vec::new();
    let mut sum_w = 0.0;
    let mut sum_w2 = 0.0;
    for (w, w2, lws) in partials {
        sum_w += w;
        sum_w2 += w2;
        log_weights.extend(lws);
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
    monte_carlo_with_exec(
        limit_state,
        threshold,
        n,
        rng,
        nofis_parallel::global(),
        None,
    )
}

/// [`monte_carlo`] on an explicit pool and an optional external batch
/// executor. Samples are drawn serially from `rng` (identical stream to a
/// serial run); oracle calls run chunked across the pool (or through
/// `exec`) and the hit count is reduced in chunk order — the same seam (and the same bitwise-identity argument) as
/// [`importance_sampling_detailed_with_exec`].
///
/// # Panics
///
/// Panics if `n == 0`.
pub fn monte_carlo_with_exec(
    limit_state: &(impl LimitState + ?Sized + Sync),
    threshold: f64,
    n: usize,
    rng: &mut dyn RngCore,
    pool: &ThreadPool,
    exec: Option<&dyn BatchEval>,
) -> McResult {
    assert!(n > 0, "Monte Carlo needs at least one sample");
    let dim = limit_state.dim();
    let xs: Vec<Vec<f64>> = (0..n)
        .map(|_| {
            (0..dim)
                .map(|_| rand_distr::Distribution::sample(&rand_distr::StandardNormal, rng))
                .collect()
        })
        .collect();
    let pre = exec.and_then(|e| e.try_eval(&xs));
    let chunk_hits: Vec<u64> = pool.map_chunks(chunk_count(n, ORACLE_CHUNK), |ci| {
        let (start, end) = chunk_range(n, ORACLE_CHUNK, ci);
        match &pre {
            Some(vals) => vals[start..end].iter().filter(|v| **v <= threshold).count() as u64,
            None => xs[start..end]
                .iter()
                .filter(|x| limit_state.value(x) <= threshold)
                .count() as u64,
        }
    });
    McResult {
        hits: chunk_hits.iter().sum(),
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
