//! Chunked parallel batch evaluation of limit-state oracles.
//!
//! Oracle calls `g(x)` dominate NOFIS wall-clock, and batches of samples
//! are embarrassingly parallel. This module splits a batch into fixed
//! [`ORACLE_CHUNK`]-sized chunks (boundaries depend only on the batch size,
//! never the thread count), evaluates chunks across a
//! [`ThreadPool`](nofis_parallel::ThreadPool), and reassembles results in
//! chunk order — so the output `Vec` is bitwise identical to a serial
//! sample-by-sample loop for any thread count.
//!
//! For budget-metered oracles, [`batch_values_budgeted`] reserves each
//! chunk's calls up front on the calling thread (in chunk order, via
//! [`BudgetedOracle::reserve`]) before any worker runs, so the set of
//! evaluated samples is a deterministic prefix of the batch and the call
//! count is exact: never an overrun, even when `max_calls` is not divisible
//! by the chunk size.

use crate::{BudgetedOracle, LimitState};
use nofis_parallel::chunks::{chunk_count, chunk_range};
use nofis_parallel::ThreadPool;

/// Samples per parallel oracle chunk. Fixed so chunk boundaries are a
/// function of the batch size only — the determinism contract's first rule.
pub const ORACLE_CHUNK: usize = 32;

/// Evaluates `g(x)` for every sample in `xs` on `pool`, returning values
/// in sample order.
///
/// Every sample costs exactly one oracle call, the same as a serial loop;
/// wrappers like [`CountingOracle`](crate::CountingOracle) count correctly
/// because their counters are atomic.
pub fn batch_values_with(
    limit_state: &(impl LimitState + ?Sized + Sync),
    xs: &[Vec<f64>],
    pool: &ThreadPool,
) -> Vec<f64> {
    let n = xs.len();
    let per_chunk: Vec<Vec<f64>> = pool.map_chunks(chunk_count(n, ORACLE_CHUNK), |ci| {
        let (start, end) = chunk_range(n, ORACLE_CHUNK, ci);
        xs[start..end]
            .iter()
            .map(|x| limit_state.value(x))
            .collect()
    });
    per_chunk.into_iter().flatten().collect()
}

/// Budget-exact parallel batch evaluation.
///
/// Reserves each chunk's calls up front — in chunk order, on the calling
/// thread — so the evaluated samples are always the longest affordable
/// *prefix* of `xs`, regardless of scheduling. Returns that prefix's values
/// (`result.len() <= xs.len()`, shorter exactly when the budget ran out).
/// The oracle's `used` count increases by exactly `result.len()` and never
/// exceeds the budget.
pub fn batch_values_budgeted<T: LimitState + ?Sized + Sync>(
    budgeted: &BudgetedOracle<'_, T>,
    xs: &[Vec<f64>],
    pool: &ThreadPool,
) -> Vec<f64> {
    let n = xs.len();
    let n_chunks = chunk_count(n, ORACLE_CHUNK);
    // Serial, chunk-ordered reservation: under a tight budget the granted
    // counts form a deterministic prefix (full chunks, then one partial,
    // then zeros) no matter how many threads later run the evaluation.
    let granted: Vec<usize> = (0..n_chunks)
        .map(|ci| {
            let (start, end) = chunk_range(n, ORACLE_CHUNK, ci);
            budgeted.reserve(end - start)
        })
        .collect();
    let per_chunk: Vec<Vec<f64>> = pool.map_chunks(n_chunks, |ci| {
        let (start, _) = chunk_range(n, ORACLE_CHUNK, ci);
        xs[start..start + granted[ci]]
            .iter()
            .map(|x| budgeted.value_prepaid(x))
            .collect()
    });
    per_chunk.into_iter().flatten().collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CountingOracle;

    struct Norm2;
    impl LimitState for Norm2 {
        fn dim(&self) -> usize {
            2
        }
        fn value(&self, x: &[f64]) -> f64 {
            x[0] * x[0] + x[1] * x[1] - 1.0
        }
    }

    fn samples(n: usize) -> Vec<Vec<f64>> {
        (0..n)
            .map(|i| vec![(i as f64) * 0.01, 1.0 - (i as f64) * 0.005])
            .collect()
    }

    #[test]
    fn batch_matches_serial_loop_bitwise() {
        let xs = samples(103); // not divisible by ORACLE_CHUNK
        let serial: Vec<f64> = xs.iter().map(|x| Norm2.value(x)).collect();
        for threads in [1, 2, 8] {
            let pool = ThreadPool::new(threads);
            let par = batch_values_with(&Norm2, &xs, &pool);
            assert_eq!(par.len(), serial.len());
            for (a, b) in par.iter().zip(&serial) {
                assert_eq!(a.to_bits(), b.to_bits(), "threads={threads}");
            }
        }
    }

    #[test]
    fn batch_counts_every_call() {
        let xs = samples(77);
        let counting = CountingOracle::new(&Norm2);
        let pool = ThreadPool::new(4);
        let vals = batch_values_with(&counting, &xs, &pool);
        assert_eq!(vals.len(), 77);
        assert_eq!(counting.calls(), 77);
    }

    #[test]
    fn budgeted_batch_evaluates_exact_prefix() {
        let xs = samples(100);
        let counting = CountingOracle::new(&Norm2);
        let budgeted = BudgetedOracle::new(&counting, 45); // not divisible by 32
        let pool = ThreadPool::new(4);
        let vals = batch_values_budgeted(&budgeted, &xs, &pool);
        assert_eq!(vals.len(), 45);
        assert_eq!(budgeted.used(), 45);
        assert_eq!(budgeted.overruns(), 0);
        assert_eq!(counting.calls(), 45);
        // The prefix is the same one a serial loop would evaluate.
        for (i, v) in vals.iter().enumerate() {
            assert_eq!(v.to_bits(), Norm2.value(&xs[i]).to_bits());
        }
        // A second batch finds the budget exhausted.
        assert!(batch_values_budgeted(&budgeted, &xs, &pool).is_empty());
    }

    #[test]
    fn budgeted_batch_with_ample_budget_covers_all() {
        let xs = samples(64);
        let budgeted = BudgetedOracle::new(&Norm2, 1000);
        let pool = ThreadPool::new(2);
        let vals = batch_values_budgeted(&budgeted, &xs, &pool);
        assert_eq!(vals.len(), 64);
        assert_eq!(budgeted.remaining(), 1000 - 64);
    }

    #[test]
    fn empty_batch_is_free() {
        let budgeted = BudgetedOracle::new(&Norm2, 10);
        let pool = ThreadPool::new(2);
        assert!(batch_values_budgeted(&budgeted, &[], &pool).is_empty());
        assert_eq!(budgeted.used(), 0);
    }
}
