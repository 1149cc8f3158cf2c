//! Determinism lockdown for the parallel execution layer.
//!
//! DESIGN.md §8 promises: the thread count never affects results, only
//! wall-clock. These tests pin that contract bitwise — for the parallel
//! matmul, chunked oracle batch evaluation, the external-rowwise tape op,
//! and the importance-sampling / Monte Carlo estimators — across pools of
//! 1, 2, and 8 threads (deliberately oversubscribing the host so
//! scheduling actually interleaves).

use nofis::autograd::{Graph, Tensor};
use nofis::parallel::ThreadPool;
use nofis::prob::{
    batch_values_with, importance_sampling, monte_carlo_with_pool, IsResult, LimitState, Proposal,
    StandardGaussian,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

const THREAD_COUNTS: [usize; 3] = [1, 2, 8];

/// Deterministic pseudo-random fill so no test depends on rng crate
/// internals.
fn fill(len: usize, seed: u64) -> Vec<f64> {
    let mut state = seed.wrapping_mul(0x9e3779b97f4a7c15).wrapping_add(1);
    (0..len)
        .map(|_| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 11) as f64 / (1u64 << 53) as f64) * 2.0 - 1.0
        })
        .collect()
}

fn assert_bits_eq(a: &[f64], b: &[f64], context: &str) {
    assert_eq!(a.len(), b.len(), "{context}: length mismatch");
    for (i, (x, y)) in a.iter().zip(b).enumerate() {
        assert_eq!(x.to_bits(), y.to_bits(), "{context}: index {i}: {x} vs {y}");
    }
}

#[test]
fn tensor_matmul_is_bitwise_identical_across_thread_counts() {
    let (m, k, n) = (96, 33, 41);
    let a = Tensor::from_vec(m, k, fill(m * k, 5));
    let b = Tensor::from_vec(k, n, fill(k * n, 6));
    let serial = a.matmul_with(&b, &ThreadPool::new(1));
    for threads in THREAD_COUNTS {
        let par = a.matmul_with(&b, &ThreadPool::new(threads));
        assert_bits_eq(
            par.as_slice(),
            serial.as_slice(),
            &format!("Tensor::matmul, {threads} threads"),
        );
    }
}

struct Ring;
impl LimitState for Ring {
    fn dim(&self) -> usize {
        3
    }
    fn value(&self, x: &[f64]) -> f64 {
        let r = x.iter().map(|v| v * v).sum::<f64>().sqrt();
        (r - 2.5).abs() - 0.4
    }
}

#[test]
fn oracle_batch_eval_is_bitwise_identical_across_thread_counts() {
    // 259 samples: not a multiple of the 32-sample oracle chunk.
    let xs: Vec<Vec<f64>> = (0..259).map(|i| fill(3, 1000 + i as u64)).collect();
    let serial: Vec<f64> = xs.iter().map(|x| Ring.value(x)).collect();
    for threads in THREAD_COUNTS {
        let pool = ThreadPool::new(threads);
        let par = batch_values_with(&Ring, &xs, &pool);
        assert_bits_eq(&par, &serial, &format!("batch_values, {threads} threads"));
    }
}

#[test]
fn external_rowwise_par_matches_serial_tape_bitwise() {
    let (n, d) = (61, 4);
    let input = Tensor::from_vec(n, d, fill(n * d, 77));
    let f = |row: &[f64]| {
        let v: f64 = row.iter().map(|x| x * x).sum::<f64>().sqrt() - 1.5;
        let grad = row
            .iter()
            .map(|x| x / (v + 1.5).max(1e-12))
            .collect::<Vec<f64>>();
        (v, grad)
    };

    // Reference: the serial tape op.
    let run_serial = || {
        let mut g = Graph::new();
        let x = g.constant(input.clone());
        let out = g.external_rowwise(x, f);
        let loss = g.mean_all(out);
        g.backward(loss);
        (g.value(out).clone(), g.grad(x).unwrap().clone())
    };
    let (serial_out, serial_grad) = run_serial();

    for threads in THREAD_COUNTS {
        let pool = ThreadPool::new(threads);
        let mut g = Graph::new();
        let x = g.constant(input.clone());
        let out = g.external_rowwise_par(x, &pool, f);
        let loss = g.mean_all(out);
        g.backward(loss);
        assert_bits_eq(
            g.value(out).as_slice(),
            serial_out.as_slice(),
            &format!("external_rowwise_par values, {threads} threads"),
        );
        assert_bits_eq(
            g.grad(x).unwrap().as_slice(),
            serial_grad.as_slice(),
            &format!("external_rowwise_par grads, {threads} threads"),
        );
    }
}

/// Every field of an importance-sampling result, as bits.
fn is_bits(r: &IsResult) -> (u64, u64, u64, u64, Option<u64>) {
    (
        r.estimate.to_bits(),
        r.hits,
        r.effective_sample_size.to_bits(),
        r.std_error.to_bits(),
        r.pareto_k.map(f64::to_bits),
    )
}

#[test]
fn importance_sampling_is_bitwise_identical_across_thread_counts() {
    let p = StandardGaussian::new(3);
    let run = |threads: usize| {
        let pool = ThreadPool::new(threads);
        let mut rng = StdRng::seed_from_u64(424242);
        importance_sampling(&Ring, 0.0, &p, &p, 2000, &mut rng, &pool)
    };
    let base = run(1);
    assert!(base.hits > 0, "test event must be observable");
    for threads in THREAD_COUNTS {
        assert_eq!(is_bits(&run(threads)), is_bits(&base), "{threads} threads");
    }
}

#[test]
fn monte_carlo_is_identical_across_thread_counts() {
    let run = |threads: usize| {
        let pool = ThreadPool::new(threads);
        let mut rng = StdRng::seed_from_u64(7);
        monte_carlo_with_pool(&Ring, 0.5, 5000, &mut rng, &pool)
    };
    let base = run(1);
    assert!(base.hits > 0);
    for threads in THREAD_COUNTS {
        assert_eq!(run(threads), base, "{threads} threads");
    }
}

/// A shifted proposal exercises non-unit importance weights, so the
/// chunk-ordered `(Σw, Σw²)` reduction is actually doing floating-point
/// work (the Gaussian-proposal test above has all weights exactly 1).
struct Shifted3;
impl Proposal for Shifted3 {
    fn dim(&self) -> usize {
        3
    }
    fn sample(&self, mut rng: &mut dyn rand::RngCore) -> Vec<f64> {
        StandardGaussian::new(3)
            .sample(&mut rng)
            .into_iter()
            .map(|v| v * 1.3 + 0.4)
            .collect()
    }
    fn log_density(&self, x: &[f64]) -> f64 {
        let sg = StandardGaussian::new(3);
        let z: Vec<f64> = x.iter().map(|v| (v - 0.4) / 1.3).collect();
        sg.log_density(&z) - 3.0 * 1.3f64.ln()
    }
}

#[test]
fn weighted_reduction_is_bitwise_identical_across_thread_counts() {
    let p = StandardGaussian::new(3);
    let run = |threads: usize| {
        let pool = ThreadPool::new(threads);
        let mut rng = StdRng::seed_from_u64(99);
        importance_sampling(&Ring, 0.0, &Shifted3, &p, 3000, &mut rng, &pool)
    };
    let base = run(1);
    // Weights must genuinely vary, and fill a tail long enough to fit,
    // for this test to mean anything.
    assert!(base.effective_sample_size < base.hits as f64 - 1.0);
    assert!(base.pareto_k.is_some());
    for threads in THREAD_COUNTS {
        assert_eq!(
            is_bits(&run(threads)),
            is_bits(&base),
            "weighted result, {threads} threads"
        );
    }
}
