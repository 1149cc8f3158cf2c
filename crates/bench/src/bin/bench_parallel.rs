//! Serial-vs-parallel throughput trajectory for the parallel execution
//! layer: the chunked matmul kernel and chunked oracle batch evaluation,
//! timed against explicit 1- and 4-thread pools, with bitwise-identity
//! checks folded into the record.
//!
//! ```text
//! bench_parallel [--threads T] [--batch N]
//! ```
//!
//! Writes `results/BENCH_parallel.json`. Speedups are *reported*, never
//! asserted: on a single-core host the parallel lane legitimately ties or
//! loses, and the determinism tests elsewhere already pin that the numbers
//! themselves cannot differ.

use nofis_autograd::Tensor;
use nofis_parallel::ThreadPool;
use nofis_prob::{
    batch_values_with, importance_sampling_detailed_with_exec, LimitState, StandardGaussian,
};
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::Serialize;
use std::time::Instant;

#[derive(Serialize)]
struct MatmulRecord {
    shape: String,
    serial_ns_per_iter: f64,
    parallel_ns_per_iter: f64,
    speedup: f64,
    bitwise_identical: bool,
}

#[derive(Serialize)]
struct OracleRecord {
    oracle: String,
    batch: usize,
    serial_ns_per_batch: f64,
    parallel_ns_per_batch: f64,
    speedup: f64,
    bitwise_identical: bool,
}

#[derive(Serialize)]
struct EstimateRecord {
    threads: usize,
    estimate: f64,
    bits_match_serial: bool,
}

#[derive(Serialize)]
struct BenchParallel {
    host_parallelism: usize,
    parallel_threads: usize,
    note: &'static str,
    matmul: Vec<MatmulRecord>,
    oracle_batch: Vec<OracleRecord>,
    is_estimates: Vec<EstimateRecord>,
}

/// Median-free, warmed-up ns/iteration: doubles the iteration count until
/// the timed window is at least 50 ms, so cheap kernels are not measured
/// at timer resolution.
fn time_per_iter(mut f: impl FnMut()) -> f64 {
    f(); // warm-up
    let mut iters = 1u64;
    loop {
        let t = Instant::now();
        for _ in 0..iters {
            f();
        }
        let elapsed = t.elapsed();
        if elapsed.as_millis() >= 50 || iters >= 1 << 24 {
            return elapsed.as_nanos() as f64 / iters as f64;
        }
        iters *= 2;
    }
}

fn lcg_fill(len: usize, seed: u64) -> Vec<f64> {
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

fn bits_eq(a: &[f64], b: &[f64]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

/// A deliberately simulator-priced oracle: each call runs a short damped
/// oscillator integration, so one `g(x)` costs microseconds (like the
/// circuit substrates) rather than nanoseconds, and the per-chunk
/// dispatch overhead is honest.
struct HeavyOscillator {
    dim: usize,
    steps: usize,
}

impl LimitState for HeavyOscillator {
    fn dim(&self) -> usize {
        self.dim
    }
    fn value(&self, x: &[f64]) -> f64 {
        let dt = 1e-2;
        let mut q = x[0];
        let mut p = x[1 % self.dim];
        let k = 1.0 + 0.1 * x.iter().sum::<f64>().tanh();
        for _ in 0..self.steps {
            p -= dt * (k * q + 0.05 * p);
            q += dt * p;
        }
        (q * q + p * p).sqrt() - 1.2
    }
}

/// A cheap analytic oracle, to show the regime where chunking overhead
/// dominates and parallel eval is *not* expected to win.
struct Ring3;
impl LimitState for Ring3 {
    fn dim(&self) -> usize {
        3
    }
    fn value(&self, x: &[f64]) -> f64 {
        let r = x.iter().map(|v| v * v).sum::<f64>().sqrt();
        (r - 2.5).abs() - 0.4
    }
}

fn main() {
    let mut threads = 4usize;
    let mut batch = 1024usize;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--threads" => {
                threads = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .expect("--threads T")
            }
            "--batch" => batch = args.next().and_then(|v| v.parse().ok()).expect("--batch N"),
            other => panic!("unknown argument {other}"),
        }
    }
    assert!(
        threads >= 1 && batch >= 256,
        "need --threads >= 1, --batch >= 256"
    );

    let host = std::thread::available_parallelism().map_or(1, |n| n.get());
    let serial = ThreadPool::new(1);
    let par = ThreadPool::new(threads);
    println!("host parallelism {host}, parallel pool {threads} threads\n");

    // --- Matmul: training-step shapes (batch x dim by dim x hidden). ---
    let mut matmul = Vec::new();
    for &(m, k, n) in &[(200usize, 62usize, 32usize), (256, 64, 64), (512, 128, 128)] {
        let a = Tensor::from_vec(m, k, lcg_fill(m * k, 11));
        let b = Tensor::from_vec(k, n, lcg_fill(k * n, 22));
        let ref_out = a.matmul_with(&b, &serial);
        let par_out = a.matmul_with(&b, &par);
        let identical = bits_eq(ref_out.as_slice(), par_out.as_slice());
        let t_serial = time_per_iter(|| {
            std::hint::black_box(a.matmul_with(&b, &serial));
        });
        let t_par = time_per_iter(|| {
            std::hint::black_box(a.matmul_with(&b, &par));
        });
        let rec = MatmulRecord {
            shape: format!("{m}x{k}x{n}"),
            serial_ns_per_iter: t_serial,
            parallel_ns_per_iter: t_par,
            speedup: t_serial / t_par,
            bitwise_identical: identical,
        };
        println!(
            "matmul {:>12}: serial {:>10.0} ns  parallel {:>10.0} ns  speedup {:.2}x  bitwise={}",
            rec.shape, rec.serial_ns_per_iter, rec.parallel_ns_per_iter, rec.speedup, identical
        );
        matmul.push(rec);
    }

    // --- Oracle batch evaluation on a >= 256-sample batch. ---
    let mut oracle_batch = Vec::new();
    let heavy = HeavyOscillator { dim: 6, steps: 400 };
    let oracles: [(&str, &(dyn LimitState + Sync)); 2] =
        [("heavy_oscillator", &heavy), ("ring3_cheap", &Ring3)];
    for (name, ls) in oracles {
        let xs: Vec<Vec<f64>> = (0..batch)
            .map(|i| lcg_fill(ls.dim(), 1000 + i as u64))
            .collect();
        let ref_vals = batch_values_with(ls, &xs, &serial);
        let par_vals = batch_values_with(ls, &xs, &par);
        let identical = bits_eq(&ref_vals, &par_vals);
        let t_serial = time_per_iter(|| {
            std::hint::black_box(batch_values_with(ls, &xs, &serial));
        });
        let t_par = time_per_iter(|| {
            std::hint::black_box(batch_values_with(ls, &xs, &par));
        });
        let rec = OracleRecord {
            oracle: name.to_string(),
            batch,
            serial_ns_per_batch: t_serial,
            parallel_ns_per_batch: t_par,
            speedup: t_serial / t_par,
            bitwise_identical: identical,
        };
        println!(
            "oracle {:>17} x{batch}: serial {:>11.0} ns  parallel {:>11.0} ns  speedup {:.2}x  bitwise={}",
            name, rec.serial_ns_per_batch, rec.parallel_ns_per_batch, rec.speedup, identical
        );
        oracle_batch.push(rec);
    }

    // --- End-to-end IS estimates must carry identical bits per thread count. ---
    let p = StandardGaussian::new(3);
    let run = |pool: &ThreadPool| {
        let mut rng = StdRng::seed_from_u64(20240607);
        importance_sampling_detailed_with_exec(&Ring3, 0.0, &p, &p, 4000, &mut rng, pool, None)
            .0
            .estimate
    };
    let base = run(&serial);
    let mut is_estimates = vec![EstimateRecord {
        threads: 1,
        estimate: base,
        bits_match_serial: true,
    }];
    for t in [2usize, threads, 8] {
        let e = run(&ThreadPool::new(t));
        let matches = e.to_bits() == base.to_bits();
        println!("IS estimate @ {t} threads: {e:.6e}  bits_match_serial={matches}");
        is_estimates.push(EstimateRecord {
            threads: t,
            estimate: e,
            bits_match_serial: matches,
        });
    }
    assert!(
        is_estimates.iter().all(|r| r.bits_match_serial),
        "determinism contract violated: estimates differ across thread counts"
    );

    let out = BenchParallel {
        host_parallelism: host,
        parallel_threads: threads,
        note: "speedups are reported, not asserted; on a 1-core host the \
               parallel lane ties or loses while remaining bitwise identical",
        matmul,
        oracle_batch,
        is_estimates,
    };
    std::fs::create_dir_all("results").ok();
    std::fs::write(
        "results/BENCH_parallel.json",
        serde_json::to_string_pretty(&out).expect("serializable"),
    )
    .expect("write results/BENCH_parallel.json");
    println!("\nwrote results/BENCH_parallel.json");
}
