//! Budget accounting under parallel oracle evaluation.
//!
//! `BudgetedOracle` promises exact call accounting: a budget of `B` calls
//! means at most `B` simulator invocations, ever, no matter how many
//! threads are spending them. These tests drive the parallel batch
//! evaluator with budgets that are deliberately not multiples of the
//! 32-sample chunk size, across several pool widths, and assert the counts
//! are exact — against both the budget meter and an independent
//! `CountingOracle` underneath it.

use nofis_parallel::ThreadPool;
use nofis_prob::{
    batch_values_budgeted, importance_sampling_detailed_with_pool, BudgetedOracle, CountingOracle,
    LimitState, StandardGaussian, ORACLE_CHUNK,
};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::atomic::{AtomicUsize, Ordering};

struct Sphere;
impl LimitState for Sphere {
    fn dim(&self) -> usize {
        2
    }
    fn value(&self, x: &[f64]) -> f64 {
        x[0] * x[0] + x[1] * x[1] - 4.0
    }
}

fn samples(n: usize) -> Vec<Vec<f64>> {
    (0..n)
        .map(|i| vec![(i % 17) as f64 * 0.2, (i % 11) as f64 * 0.3])
        .collect()
}

#[test]
fn indivisible_budget_never_overruns_under_parallel_eval() {
    // 103 = 3 full chunks of 32 + a ragged 7; batch of 256 wants more.
    assert_ne!(103 % ORACLE_CHUNK, 0);
    for threads in [1, 2, 8] {
        let xs = samples(256);
        let counting = CountingOracle::new(&Sphere);
        let budgeted = BudgetedOracle::new(&counting, 103);
        let pool = ThreadPool::new(threads);

        let vals = batch_values_budgeted(&budgeted, &xs, &pool);
        assert_eq!(vals.len(), 103, "threads={threads}");
        assert_eq!(budgeted.used(), 103, "threads={threads}");
        assert_eq!(budgeted.overruns(), 0, "threads={threads}");
        assert_eq!(budgeted.remaining(), 0, "threads={threads}");
        assert_eq!(counting.calls(), 103, "threads={threads}");
        // The evaluated samples are exactly the batch prefix, in order.
        for (i, v) in vals.iter().enumerate() {
            assert_eq!(v.to_bits(), Sphere.value(&xs[i]).to_bits());
        }
    }
}

#[test]
fn budget_spans_multiple_batches_exactly() {
    let counting = CountingOracle::new(&Sphere);
    let budgeted = BudgetedOracle::new(&counting, 150);
    let pool = ThreadPool::new(4);
    // 100 + 50(truncated from 100) + 0: the budget is consumed exactly.
    assert_eq!(
        batch_values_budgeted(&budgeted, &samples(100), &pool).len(),
        100
    );
    assert_eq!(
        batch_values_budgeted(&budgeted, &samples(100), &pool).len(),
        50
    );
    assert!(batch_values_budgeted(&budgeted, &samples(100), &pool).is_empty());
    assert_eq!(counting.calls(), 150);
    assert_eq!(budgeted.overruns(), 0);
}

#[test]
fn concurrent_reservations_cannot_jointly_exceed_the_budget() {
    // Hammer reserve() from many threads at once; the grants must sum to
    // exactly the budget no matter how the race interleaves.
    let budgeted = BudgetedOracle::new(&Sphere, 1000);
    let pool = ThreadPool::new(8);
    let granted_total = AtomicUsize::new(0);
    pool.run_chunks(64, |_| {
        let got = budgeted.reserve(37);
        granted_total.fetch_add(got, Ordering::Relaxed);
    });
    // 64 * 37 = 2368 wanted, but only 1000 affordable.
    assert_eq!(granted_total.load(Ordering::Relaxed), 1000);
    assert_eq!(budgeted.used(), 1000);
    assert_eq!(budgeted.overruns(), 0);
    assert_eq!(budgeted.reserve(1), 0, "budget is fully reserved");
}

#[test]
fn grant_plus_parallel_importance_sampling_is_exact() {
    // The estimator protocol: grant n up front, then spend exactly n calls
    // inside the (parallel) sampler — the meter must agree to the call.
    let counting = CountingOracle::new(&Sphere);
    let budgeted = BudgetedOracle::new(&counting, 5000);
    let p = StandardGaussian::new(2);
    for threads in [1, 2, 8] {
        let pool = ThreadPool::new(threads);
        let mut rng = StdRng::seed_from_u64(3);
        let n = budgeted.grant(777);
        assert_eq!(n, 777);
        let before = budgeted.used();
        let (result, _) =
            importance_sampling_detailed_with_pool(&budgeted, 0.0, &p, &p, n, &mut rng, &pool);
        assert!(result.estimate.is_finite());
        assert_eq!(budgeted.used() - before, 777, "threads={threads}");
    }
    assert_eq!(counting.calls(), 3 * 777);
    assert_eq!(budgeted.overruns(), 0);
}
