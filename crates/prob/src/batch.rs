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
//! For budget-metered oracles, the caller sizes the batch with
//! [`BudgetedOracle::grant`](crate::BudgetedOracle::grant) on its own
//! thread before evaluating it, so the evaluated samples and the call count
//! are fixed before any worker runs.

use crate::LimitState;
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
}
