//! Pins the exact result of four small fixed-seed NOFIS runs.
//!
//! Each run goes through the whole pipeline (pilot or fixed schedule,
//! staged training, final-proposal estimate) and its estimate, hit count,
//! effective sample size and rung are compared bit for bit against
//! checked-in constants. A refactor of the sampling, scoring or weighting
//! path that changes any floating-point operation or the order in which
//! the random stream is consumed fails here.

use nofis::core::{Levels, Nofis, NofisConfig};
use nofis::prob::{CountingOracle, FallbackRung, IsResult, LimitState};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Fails when `x0 >= 3` (P = 1 − Φ(3) ≈ 1.35e-3).
struct RightTail;
impl LimitState for RightTail {
    fn dim(&self) -> usize {
        2
    }
    fn value(&self, x: &[f64]) -> f64 {
        3.0 - x[0]
    }
    fn value_grad(&self, x: &[f64]) -> (f64, Vec<f64>) {
        (3.0 - x[0], vec![-1.0, 0.0])
    }
}

/// A limit state whose training signal (`value_grad`, the right tail)
/// disagrees with its failure indicator (`value`, the left tail
/// `x0 <= -1.5`): training concentrates the proposal on the wrong side, and
/// the estimate is still the final proposal's.
struct MisleadingGradient;
impl LimitState for MisleadingGradient {
    fn dim(&self) -> usize {
        2
    }
    fn value(&self, x: &[f64]) -> f64 {
        x[0] + 1.5
    }
    fn value_grad(&self, x: &[f64]) -> (f64, Vec<f64>) {
        (3.0 - x[0], vec![-1.0, 0.0])
    }
}

fn config(levels: Levels) -> NofisConfig {
    NofisConfig {
        levels,
        layers_per_stage: 4,
        hidden: 16,
        epochs: 12,
        batch_size: 100,
        n_is: 400,
        tau: 15.0,
        learning_rate: 8e-3,
        ..Default::default()
    }
}

fn run(cfg: NofisConfig, ls: &(impl LimitState + Sync), seed: u64) -> IsResult {
    let mut rng = StdRng::seed_from_u64(seed);
    let (_, result) = Nofis::new(cfg)
        .expect("valid config")
        .run(ls, &mut rng)
        .expect("run succeeds");
    result
}

fn assert_pinned(r: &IsResult, estimate: u64, hits: u64, ess: u64, rung: FallbackRung) {
    assert_eq!(
        (
            r.estimate.to_bits(),
            r.hits,
            r.effective_sample_size.to_bits(),
            r.rung
        ),
        (estimate, hits, ess, rung),
        "estimate {:e}, ESS {:e}",
        r.estimate,
        r.effective_sample_size
    );
}

#[test]
fn fixed_levels_estimate_is_pinned() {
    let r = run(config(Levels::Fixed(vec![1.5, 0.0])), &RightTail, 1);
    assert_pinned(
        &r,
        0x3f47c9498d3e12a0,
        163,
        0x4033e14566b0e3c6,
        FallbackRung::FinalProposal,
    );
}

#[test]
fn adaptive_levels_estimate_is_pinned() {
    let levels = Levels::AdaptiveQuantile {
        max_stages: 3,
        p0: 0.2,
        pilot: 60,
    };
    let r = run(config(levels), &RightTail, 12);
    assert_pinned(
        &r,
        0x3f59ed24695ca2a0,
        296,
        0x4046b41182e2db34,
        FallbackRung::FinalProposal,
    );
}

#[test]
fn misleading_gradient_estimate_is_pinned() {
    let r = run(
        config(Levels::Fixed(vec![1.5, 0.0])),
        &MisleadingGradient,
        13,
    );
    // The final proposal misses the left tail entirely: estimate and ESS
    // are 0.0 (bits 0), and that is what is returned.
    assert_pinned(&r, 0, 0, 0, FallbackRung::FinalProposal);
}

/// The draw fails the weight-health check here; its estimate is returned
/// as drawn, with the failing diagnostics, and nothing is re-drawn.
#[test]
fn unhealthy_estimate_is_reported_not_replaced() {
    let n_is = 500;
    let cfg = NofisConfig {
        levels: Levels::Fixed(vec![2.0, 1.0, 0.0]),
        layers_per_stage: 4,
        hidden: 16,
        epochs: 8,
        batch_size: 64,
        n_is,
        ..Default::default()
    };
    let mut rng = StdRng::seed_from_u64(1);
    let trained = Nofis::new(cfg)
        .expect("valid config")
        .train(&RightTail, &mut rng)
        .expect("training succeeds");
    let oracle = CountingOracle::new(&RightTail);
    let (r, diag) = trained
        .estimate_with_diagnostics(&oracle, n_is, &mut rng)
        .expect("an unhealthy draw is still an estimate");
    assert_pinned(
        &r,
        0x3f37af7ad8eb3308,
        51,
        0x4023104895a233c2,
        FallbackRung::FinalProposal,
    );
    let diag = diag.expect("the draw saw hits");
    assert!(!diag.looks_healthy(), "{diag:?}");
    // One draw of `n_is`, no second proposal.
    assert_eq!(oracle.calls(), n_is as u64);
}
