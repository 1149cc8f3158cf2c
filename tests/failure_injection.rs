//! Failure-injection tests: the library must degrade loudly and
//! predictably when fed pathological limit states or broken inputs.

use nofis_baselines::{
    AdaptIsEstimator, McEstimator, RareEventEstimator, SssEstimator, SusEstimator,
};
use nofis_core::{Levels, Nofis, NofisConfig, NofisError};
use nofis_prob::{importance_sampling, CountingOracle, LimitState, Proposal, StandardGaussian};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::atomic::{AtomicUsize, Ordering};

/// A limit state that always fails: P = 1.
struct AlwaysFails;
impl LimitState for AlwaysFails {
    fn dim(&self) -> usize {
        3
    }
    fn value(&self, _: &[f64]) -> f64 {
        -1.0
    }
    fn value_grad(&self, _: &[f64]) -> (f64, Vec<f64>) {
        (-1.0, vec![0.0; 3])
    }
}

/// A limit state that never fails: P = 0.
struct NeverFails;
impl LimitState for NeverFails {
    fn dim(&self) -> usize {
        3
    }
    fn value(&self, _: &[f64]) -> f64 {
        1.0
    }
    fn value_grad(&self, _: &[f64]) -> (f64, Vec<f64>) {
        (1.0, vec![0.0; 3])
    }
}

/// Discontinuous, non-smooth limit state (no useful gradients anywhere).
struct Staircase;
impl LimitState for Staircase {
    fn dim(&self) -> usize {
        2
    }
    fn value(&self, x: &[f64]) -> f64 {
        3.0 - x[0].floor()
    }
}

fn tiny_config() -> NofisConfig {
    NofisConfig {
        levels: Levels::AdaptiveQuantile {
            max_stages: 3,
            p0: 0.2,
            pilot: 50,
        },
        layers_per_stage: 2,
        hidden: 8,
        epochs: 4,
        batch_size: 40,
        n_is: 200,
        ..Default::default()
    }
}

#[test]
fn certain_event_estimates_one() {
    let nofis = Nofis::new(tiny_config()).expect("valid config");
    let mut rng = StdRng::seed_from_u64(0);
    let (_, result) = nofis
        .run(&AlwaysFails, &mut rng)
        .expect("certain event must run");
    assert!(
        (result.estimate - 1.0).abs() < 0.15,
        "p = {}",
        result.estimate
    );
}

#[test]
fn impossible_event_estimates_zero_without_panic() {
    let nofis = Nofis::new(tiny_config()).expect("valid config");
    let mut rng = StdRng::seed_from_u64(1);
    let (_, result) = nofis
        .run(&NeverFails, &mut rng)
        .expect("impossible event must run");
    assert_eq!(result.estimate, 0.0);
    assert_eq!(result.hits, 0);
}

#[test]
fn non_smooth_limit_state_survives_training() {
    // The default finite-difference gradient of a staircase is zero almost
    // everywhere; NOFIS must still produce a finite (if poor) estimate.
    let nofis = Nofis::new(tiny_config()).expect("valid config");
    let mut rng = StdRng::seed_from_u64(2);
    let (_, result) = nofis.run(&Staircase, &mut rng).expect("staircase must run");
    assert!(result.estimate.is_finite());
    assert!(result.estimate >= 0.0);
}

#[test]
fn baselines_handle_trivial_events() {
    let mut rng = StdRng::seed_from_u64(3);
    assert!((McEstimator::new(500).estimate(&AlwaysFails, &mut rng) - 1.0).abs() < 1e-12);
    assert_eq!(McEstimator::new(500).estimate(&NeverFails, &mut rng), 0.0);
    let sus = SusEstimator::new(200, 0.1, 3);
    assert!((sus.estimate(&AlwaysFails, &mut rng) - 1.0).abs() < 0.05);
    let sss = SssEstimator::new(600);
    let p = sss.estimate(&AlwaysFails, &mut rng);
    assert!(p > 0.3, "SSS on certain event: {p}");
    let ais = AdaptIsEstimator::new(100, 2, 200);
    assert!((ais.estimate(&AlwaysFails, &mut rng) - 1.0).abs() < 0.1);
}

#[test]
fn oracle_counts_are_exact_under_failure_paths() {
    // Even when an estimator bails out early (impossible event), every
    // consumed sample must be counted.
    let oracle = CountingOracle::new(&NeverFails);
    let mut rng = StdRng::seed_from_u64(4);
    let _ = McEstimator::new(1234).estimate(&oracle, &mut rng);
    assert_eq!(oracle.calls(), 1234);
}

#[test]
fn weight_diagnostics_flag_degenerate_is() {
    // Proposal far off target: one dominant weight among tiny ones. The
    // proposal emits the points 0, 1, 2, … and puts e³⁰ times p's density
    // on every one but point 7, so all 40 draws fail with log-weight −30
    // except draw 7, whose log-weight is 0.
    struct OffTarget(AtomicUsize);
    impl Proposal for OffTarget {
        fn dim(&self) -> usize {
            1
        }
        fn sample(&self, _: &mut dyn rand::RngCore) -> Vec<f64> {
            vec![self.0.fetch_add(1, Ordering::Relaxed) as f64]
        }
        fn log_density(&self, x: &[f64]) -> f64 {
            let boost = if x[0] == 7.0 { 0.0 } else { 30.0 };
            StandardGaussian::new(1).log_density(x) + boost
        }
    }
    struct Everywhere;
    impl LimitState for Everywhere {
        fn dim(&self) -> usize {
            1
        }
        fn value(&self, _: &[f64]) -> f64 {
            -1.0
        }
    }
    let p = StandardGaussian::new(1);
    let mut rng = StdRng::seed_from_u64(0);
    let pool = nofis_parallel::global();
    let r = importance_sampling(
        &Everywhere,
        0.0,
        &OffTarget(AtomicUsize::new(0)),
        &p,
        40,
        &mut rng,
        pool,
    );
    assert_eq!(r.hits, 40);
    assert!(r.effective_sample_size < 2.0);
    // The dominant weight is the tail's only point: too few to fit a
    // shape, which the health rule counts as unhealthy.
    assert_eq!(r.pareto_k, None);
}

#[test]
fn nofis_rejects_one_dimensional_problems() {
    struct OneD;
    impl LimitState for OneD {
        fn dim(&self) -> usize {
            1
        }
        fn value(&self, x: &[f64]) -> f64 {
            3.0 - x[0]
        }
    }
    let nofis = Nofis::new(tiny_config()).expect("valid config");
    let mut rng = StdRng::seed_from_u64(5);
    let err = nofis.train(&OneD, &mut rng).unwrap_err();
    assert!(matches!(err, NofisError::InvalidInput { .. }), "{err}");
    assert!(format!("{err}").contains("dim"), "{err}");
}

/// A half-space event whose simulator returns NaN over a subregion (a
/// "broken corner" of the model): the poisoned samples must be sanitized
/// during training and never surface in the estimate.
struct NanSubregion;
impl LimitState for NanSubregion {
    fn dim(&self) -> usize {
        2
    }
    fn value(&self, x: &[f64]) -> f64 {
        if x[1].abs() < 0.3 {
            f64::NAN
        } else {
            2.5 - x[0]
        }
    }
    fn value_grad(&self, x: &[f64]) -> (f64, Vec<f64>) {
        if x[1].abs() < 0.3 {
            (f64::NAN, vec![f64::NAN, f64::NAN])
        } else {
            (2.5 - x[0], vec![-1.0, 0.0])
        }
    }
}

#[test]
fn nan_subregion_is_sanitized_during_training_and_estimation() {
    let cfg = NofisConfig {
        levels: Levels::Fixed(vec![1.0, 0.0]),
        ..tiny_config()
    };
    let nofis = Nofis::new(cfg).expect("valid config");
    let mut rng = StdRng::seed_from_u64(6);
    let (trained, result) = nofis
        .run(&NanSubregion, &mut rng)
        .expect("NaN subregion must run");
    assert!(result.estimate.is_finite(), "estimate {}", result.estimate);
    assert!(result.estimate >= 0.0);
    for losses in trained.loss_history() {
        assert!(losses.iter().all(|l| l.is_finite()), "losses {losses:?}");
    }
}

#[test]
fn budget_exhaustion_is_a_typed_error_with_exact_accounting() {
    struct Slope;
    impl LimitState for Slope {
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
    let oracle = CountingOracle::new(&Slope);
    let cfg = NofisConfig {
        // tiny_config needs 3 * (50 pilot + 4 * 40) calls; cap far below.
        max_calls: Some(100),
        ..tiny_config()
    };
    let nofis = Nofis::new(cfg).expect("valid config");
    let mut rng = StdRng::seed_from_u64(7);
    let err = nofis.run(&oracle, &mut rng).unwrap_err();
    match err {
        NofisError::BudgetExhausted { used, budget, .. } => {
            assert_eq!(budget, 100);
            assert_eq!(used, 100);
        }
        other => panic!("expected BudgetExhausted, got {other}"),
    }
    // Every consumed call is metered and the cap is never overrun.
    assert_eq!(oracle.calls(), 100);
}

#[test]
fn degenerate_proposal_still_returns_its_own_estimate() {
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
    /// Fails when x0 <= -1.5 (P ≈ 6.7e-2) — the opposite tail from the one
    /// the proposal was trained on, so the final proposal is degenerate for
    /// this event (few or no hits, unhealthy weights).
    struct LeftTail;
    impl LimitState for LeftTail {
        fn dim(&self) -> usize {
            2
        }
        fn value(&self, x: &[f64]) -> f64 {
            x[0] + 1.5
        }
    }
    // Train hard enough that the proposal genuinely concentrates on the
    // right tail (a barely-trained flow still covers the whole plane and
    // would sample the left tail healthily by accident).
    let cfg = NofisConfig {
        levels: Levels::Fixed(vec![1.5, 0.0]),
        layers_per_stage: 4,
        hidden: 16,
        epochs: 12,
        batch_size: 100,
        n_is: 400,
        tau: 15.0,
        learning_rate: 8e-3,
        ..Default::default()
    };
    let nofis = Nofis::new(cfg).expect("valid config");
    let mut rng = StdRng::seed_from_u64(8);
    let trained = nofis
        .train(&RightTail, &mut rng)
        .expect("training must succeed");

    let n_is = 400;
    let oracle = CountingOracle::new(&LeftTail);
    let (result, healthy) = trained
        .estimate(&oracle, n_is, &mut rng)
        .expect("a degenerate proposal still yields an estimate");
    assert!(result.estimate.is_finite() && result.estimate >= 0.0);
    assert!(!healthy, "{result:?}");
    // One draw from the final proposal, within the `n_is` budget.
    assert!(
        oracle.calls() <= n_is as u64,
        "estimate overran its budget: {} calls",
        oracle.calls()
    );
}

#[test]
fn divergent_training_rolls_back_or_fails_cleanly() {
    struct Slope;
    impl LimitState for Slope {
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
    // An absurd learning rate forces divergent epochs; the trainer must
    // either recover through checkpoint rollback (with the retries recorded
    // in the stage reports) or return TrainingDiverged — never panic and
    // never emit NaN.
    let cfg = NofisConfig {
        levels: Levels::Fixed(vec![1.5, 0.0]),
        learning_rate: 1e9,
        ..tiny_config()
    };
    let nofis = Nofis::new(cfg).expect("valid config");
    let mut rng = StdRng::seed_from_u64(9);
    match nofis.run(&Slope, &mut rng) {
        Ok((trained, result)) => {
            assert!(result.estimate.is_finite(), "estimate {}", result.estimate);
            assert!(
                trained.stage_reports().iter().any(|r| r.rolled_back),
                "a 1e9 learning rate cannot train cleanly: {:?}",
                trained.stage_reports()
            );
            for r in trained.stage_reports() {
                assert!(r.learning_rate < 1e9, "retries must halve the lr: {r}");
            }
        }
        Err(err) => {
            assert!(matches!(err, NofisError::TrainingDiverged { .. }), "{err}");
            let msg = format!("{err}");
            assert!(msg.contains("diverged"), "{msg}");
        }
    }
}
