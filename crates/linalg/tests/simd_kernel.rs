//! Exhaustive bitwise validation of the matmul row kernel against the
//! scalar reference, plus FD-checked gradients through the backward
//! kernels.
//!
//! # Accumulation-order contract
//!
//! Every kernel in `nofis_parallel::kernels` — scalar reference, row
//! kernel, and the `a·bᵀ` / `aᵀ·b` backward variants — computes each
//! output element as a sum over the reduction index `kk` in **ascending
//! order**, starting from `0.0`, with exactly one multiplication and one
//! addition per term and **no FMA contraction**, skipping terms whose
//! `a`-side factor is exactly `0.0` (load-bearing: `0.0 * inf` would
//! NaN-poison outputs that masking relies on). The row kernel changes
//! only *which register* holds each running sum (a `[f64; N]` array for
//! rows up to eight wide, the output row beyond), never the order of the
//! additions — so it is bitwise identical to the scalar triple loop,
//! which is what these tests pin: any reassociation (e.g. pairwise
//! summation, FMA, lane-crossing horizontal adds) fails the sweep
//! immediately.
//!
//! The sweep covers all shapes `M, N, K ≤ 9` (every register-array width
//! and tiny reductions), the row-block edges 63/64/65, the flow's
//! conditioner shapes on both sides of the parallel threshold, and a few
//! reductions hundreds of terms deep. Parallel runs are checked at 1, 2,
//! and 4 threads — the determinism contract requires the same bits at any
//! thread count.

use nofis_linalg::Tensor;
use nofis_parallel::kernels::{
    matmul_at_into, matmul_bt_into, matmul_into, matmul_scalar_into, matmul_serial_into,
    PAR_FLOPS_THRESHOLD,
};
use nofis_parallel::ThreadPool;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn fill(rng: &mut StdRng, len: usize) -> Vec<f64> {
    (0..len).map(|_| rng.gen_range(-2.0..2.0)).collect()
}

/// Sprinkles exact zeros so the zero-skip path runs inside the sweep.
fn fill_sparse(rng: &mut StdRng, len: usize) -> Vec<f64> {
    (0..len)
        .map(|_| {
            if rng.gen_range(0..4) == 0 {
                0.0
            } else {
                rng.gen_range(-2.0..2.0)
            }
        })
        .collect()
}

fn assert_bits(a: &[f64], b: &[f64], what: &str) {
    assert_eq!(a.len(), b.len(), "{what}: length");
    for (i, (x, y)) in a.iter().zip(b).enumerate() {
        assert_eq!(
            x.to_bits(),
            y.to_bits(),
            "{what}: element {i} drifted ({x:e} vs {y:e})"
        );
    }
}

/// All (m, k, n) the sweeps cover: the exhaustive ≤ 9 cube, the row-block
/// edges, deep reductions and the flow's conditioner shapes.
fn sweep_shapes() -> Vec<(usize, usize, usize)> {
    let mut shapes = Vec::new();
    for m in 1..=9 {
        for k in 1..=9 {
            for n in 1..=9 {
                shapes.push((m, k, n));
            }
        }
    }
    for &e in &[63usize, 64, 65] {
        shapes.push((e, 7, 5));
        shapes.push((5, e, 7));
        shapes.push((7, 5, e));
        shapes.push((e, e, 3));
        shapes.push((3, e, e));
    }
    // Deep reductions.
    shapes.push((4, 511, 9));
    shapes.push((4, 512, 9));
    shapes.push((4, 513, 9));
    shapes.push((11, 600, 7));
    // The flow's conditioner matmuls (Table 1: Opamp, Cube, Leaf,
    // Y-branch, ResNet18), below and above the parallel threshold.
    shapes.extend([
        (440, 5, 24),
        (440, 24, 5),
        (900, 24, 6),
        (400, 24, 2),
        (310, 26, 28),
        (310, 28, 26),
        (290, 62, 32),
        (290, 32, 62),
    ]);
    shapes
}

#[test]
fn row_kernel_sweep_matches_scalar_reference_bitwise() {
    let mut rng = StdRng::seed_from_u64(2024);
    let pools: Vec<ThreadPool> = [1usize, 2, 4].iter().map(|&t| ThreadPool::new(t)).collect();
    for (m, k, n) in sweep_shapes() {
        let a = fill_sparse(&mut rng, m * k);
        let b = fill(&mut rng, k * n);
        let mut want = vec![0.0; m * n];
        matmul_scalar_into(&a, &b, &mut want, m, k, n);
        let mut got = vec![f64::NAN; m * n];
        matmul_serial_into(&a, &b, &mut got, m, k, n);
        assert_bits(&got, &want, &format!("serial ({m},{k},{n})"));
        for pool in &pools {
            let mut got = vec![f64::NAN; m * n];
            matmul_into(pool, &a, &b, &mut got, m, k, n);
            assert_bits(
                &got,
                &want,
                &format!("parallel@{} ({m},{k},{n})", pool.threads()),
            );
        }
    }
}

#[test]
fn backward_kernels_sweep_matches_transpose_composition_bitwise() {
    let mut rng = StdRng::seed_from_u64(4048);
    let pools: Vec<ThreadPool> = [1usize, 2, 4].iter().map(|&t| ThreadPool::new(t)).collect();
    for (m, k, n) in sweep_shapes() {
        // out = a · bᵀ, a: m×k, b: n×k — reference composes an explicit
        // transpose of b with the scalar kernel.
        let a = fill_sparse(&mut rng, m * k);
        let b = fill(&mut rng, n * k);
        let mut bt = vec![0.0; k * n];
        for r in 0..n {
            for c in 0..k {
                bt[c * n + r] = b[r * k + c];
            }
        }
        let mut want = vec![0.0; m * n];
        matmul_scalar_into(&a, &bt, &mut want, m, k, n);
        for pool in &pools {
            let mut got = vec![f64::NAN; m * n];
            matmul_bt_into(pool, &a, &b, &mut got, m, k, n);
            assert_bits(&got, &want, &format!("bt@{} ({m},{k},{n})", pool.threads()));
        }

        // out = aᵀ · b, a: k×m, b: k×n.
        let a2 = fill_sparse(&mut rng, k * m);
        let b2 = fill(&mut rng, k * n);
        let mut at = vec![0.0; m * k];
        for r in 0..k {
            for c in 0..m {
                at[c * k + r] = a2[r * m + c];
            }
        }
        let mut want = vec![0.0; m * n];
        matmul_scalar_into(&at, &b2, &mut want, m, k, n);
        for pool in &pools {
            let mut got = vec![f64::NAN; m * n];
            matmul_at_into(pool, &a2, &b2, &mut got, k, m, n);
            assert_bits(&got, &want, &format!("at@{} ({m},{k},{n})", pool.threads()));
        }
    }
}

#[test]
fn tensor_matmul_rides_the_shared_kernel_bitwise() {
    // `nofis_linalg::Tensor::matmul` delegates to the same kernel layer;
    // pin that wiring so a Tensor-side regression can't drift silently.
    let mut rng = StdRng::seed_from_u64(99);
    for (m, k, n) in [(5, 7, 9), (64, 65, 63), (1, 1, 1)] {
        let a = fill(&mut rng, m * k);
        let b = fill(&mut rng, k * n);
        let ta = Tensor::from_vec(m, k, a.clone());
        let tb = Tensor::from_vec(k, n, b.clone());
        let tc = ta.matmul(&tb);
        let mut want = vec![0.0; m * n];
        matmul_scalar_into(&a, &b, &mut want, m, k, n);
        assert_bits(tc.as_slice(), &want, &format!("Tensor ({m},{k},{n})"));
    }
}

/// Row-major transpose of a `rows x cols` buffer.
fn transpose(src: &[f64], rows: usize, cols: usize) -> Vec<f64> {
    (0..cols)
        .flat_map(|c| (0..rows).map(move |r| src[r * cols + c]))
        .collect()
}

#[test]
fn zero_skip_shields_non_finite_b_bitwise() {
    // Every even reduction index `kk` pairs a column of signed zeros in
    // `a` (`+0.0` and `−0.0` by turns) with `+inf`, `−inf` and NaN in the
    // matching `b` entries. Each output must equal the scalar reference
    // composition bit for bit and stay finite. At m = 130 the k = n = 24
    // products take the parallel path; the others stay serial.
    let mut rng = StdRng::seed_from_u64(31);
    let pools: Vec<ThreadPool> = [1usize, 2, 4].iter().map(|&t| ThreadPool::new(t)).collect();
    let poison = [f64::INFINITY, f64::NEG_INFINITY, f64::NAN];
    let m = 130;
    for n in (1..=8).chain([24]) {
        for k in [1, 5, 24] {
            // `a` is m×k and `b` is k×n, poisoned at every even `kk`.
            let mut a = fill(&mut rng, m * k);
            let mut b = fill(&mut rng, k * n);
            for kk in (0..k).step_by(2) {
                for i in 0..m {
                    a[i * k + kk] = if (i + kk) % 2 == 0 { 0.0 } else { -0.0 };
                }
                for j in 0..n {
                    b[kk * n + j] = poison[(kk + j) % poison.len()];
                }
            }
            let mut want = vec![0.0; m * n];
            matmul_scalar_into(&a, &b, &mut want, m, k, n);
            assert!(
                want.iter().all(|v| v.is_finite()),
                "reference ({m},{k},{n})"
            );
            // The same product three ways: a·b; a·(bᵀ)ᵀ; (aᵀ)ᵀ·b.
            let b_t = transpose(&b, k, n);
            let a_t = transpose(&a, m, k);
            for pool in &pools {
                let t = pool.threads();
                let mut got = vec![f64::NAN; m * n];
                matmul_into(pool, &a, &b, &mut got, m, k, n);
                assert_bits(&got, &want, &format!("a·b@{t} ({m},{k},{n})"));
                let mut got = vec![f64::NAN; m * n];
                matmul_bt_into(pool, &a, &b_t, &mut got, m, k, n);
                assert_bits(&got, &want, &format!("a·bᵀ@{t} ({m},{k},{n})"));
                let mut got = vec![f64::NAN; m * n];
                matmul_at_into(pool, &a_t, &b, &mut got, k, m, n);
                assert_bits(&got, &want, &format!("aᵀ·b@{t} ({m},{k},{n})"));
            }
        }
    }
}

/// Central finite difference of `L(a, b) = Σ_ij w_ij (a·b)_ij` with respect
/// to one entry of `a` or `b`, evaluated through the scalar reference.
fn fd_loss(a: &[f64], b: &[f64], w: &[f64], m: usize, k: usize, n: usize) -> f64 {
    let mut out = vec![0.0; m * n];
    matmul_scalar_into(a, b, &mut out, m, k, n);
    out.iter().zip(w).map(|(o, wv)| o * wv).sum()
}

/// FD-checks the analytic gradients computed by the transpose-free
/// backward kernels (`dL/da = w · bᵀ`, `dL/db = aᵀ · w`) for one shape.
fn fd_check_backward(m: usize, k: usize, n: usize, pool: &ThreadPool, seed: u64) {
    let mut rng = StdRng::seed_from_u64(seed);
    let a = fill(&mut rng, m * k);
    let b = fill(&mut rng, k * n);
    let w = fill(&mut rng, m * n);

    let mut da = vec![0.0; m * k];
    matmul_bt_into(pool, &w, &b, &mut da, m, n, k);
    let mut db = vec![0.0; k * n];
    matmul_at_into(pool, &a, &w, &mut db, m, k, n);

    let h = 1e-5;
    let check = |buf: &mut Vec<f64>, idx: usize, grad: f64, what: &str, other_is_a: bool| {
        let orig = buf[idx];
        buf[idx] = orig + h;
        let hi = if other_is_a {
            fd_loss(buf, &b, &w, m, k, n)
        } else {
            fd_loss(&a, buf, &w, m, k, n)
        };
        buf[idx] = orig - h;
        let lo = if other_is_a {
            fd_loss(buf, &b, &w, m, k, n)
        } else {
            fd_loss(&a, buf, &w, m, k, n)
        };
        buf[idx] = orig;
        let fd = (hi - lo) / (2.0 * h);
        let tol = 1e-6 * fd.abs().max(1.0);
        assert!(
            (fd - grad).abs() <= tol,
            "{what}[{idx}] @({m},{k},{n}): analytic {grad:e} vs FD {fd:e}"
        );
    };
    // Sample entries across the buffers (every element for small shapes).
    let stride_a = (m * k / 24).max(1);
    let mut ab = a.clone();
    for idx in (0..m * k).step_by(stride_a) {
        check(&mut ab, idx, da[idx], "dL/da", true);
    }
    let stride_b = (k * n / 24).max(1);
    let mut bb = b.clone();
    for idx in (0..k * n).step_by(stride_b) {
        check(&mut bb, idx, db[idx], "dL/db", false);
    }
}

#[test]
fn fd_gradients_through_backward_kernels_straddle_parallel_threshold() {
    let pool = ThreadPool::new(4);
    // Just below the m·k·n = 64·1024 serial-fallback threshold…
    let below = (20usize, 40usize, 40usize);
    assert!(below.0 * below.1 * below.2 < PAR_FLOPS_THRESHOLD);
    fd_check_backward(below.0, below.1, below.2, &pool, 11);
    // …and just above it, so the chunk-ordered parallel path is the one
    // FD-checked (4 threads, deterministic by contract).
    let above = (40usize, 41usize, 40usize);
    assert!(above.0 * above.1 * above.2 >= PAR_FLOPS_THRESHOLD);
    fd_check_backward(above.0, above.1, above.2, &pool, 13);
    // Small sanity shape through the same harness.
    fd_check_backward(3, 5, 4, &pool, 17);
}
