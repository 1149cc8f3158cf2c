//! Shared numeric kernels executed on a [`ThreadPool`].
//!
//! The matmul kernels here are the single implementation behind
//! `nofis_linalg::Tensor::matmul` (re-exported as `nofis_autograd::Tensor`),
//! plus the backward products `a @ bᵀ` and `aᵀ @ b`. All three run one
//! row kernel and are **row-partitioned**: each chunk owns a disjoint block
//! of output rows, and each output row is computed by exactly the same
//! inner loop the serial path uses. Because no accumulator is ever shared between
//! chunks, the parallel result is bitwise identical to the serial one for
//! any thread count — row partitioning needs no reduction at all.
//!
//! # Accumulation-order contract
//!
//! Every kernel in this file computes each output element as a sum over the
//! reduction index `kk` **in ascending order**, starting from `0.0`, with
//! one `mul` and one `add` per term (never a fused multiply-add), and skips
//! the term whenever the `a`-side factor is exactly `0.0`. The row kernel
//! ([`matmul_serial_into`] / [`matmul_into`]) only changes *which
//! register* holds the running sum — a `[f64; N]` register array for rows
//! up to eight wide, the output row itself beyond that — so its
//! per-element add sequence is identical to the scalar reference
//! ([`matmul_scalar_into`]) and the results are bitwise equal. `a @ bᵀ`
//! is literally `transpose(b)` followed by the row kernel, and `aᵀ @ b`
//! is the row kernel reading each row's factors down a column of `a`. The
//! `aik == 0.0` skip is load-bearing for callers that multiply by sparse
//! masks (`0.0 * inf` would poison the row with NaN); every kernel
//! preserves it exactly.

use crate::ThreadPool;
use std::cell::Cell;

/// Below this many multiply-adds (`m * k * n`), `matmul_into` stays serial:
/// the dispatch overhead of even one channel send dwarfs the work.
pub const PAR_FLOPS_THRESHOLD: usize = 64 * 1024;

/// Output rows per parallel chunk. Chosen once, as a function of nothing:
/// chunk boundaries must never depend on the thread count.
pub const MATMUL_BLOCK_ROWS: usize = 8;

/// Widest output row whose running sums the row kernel keeps in a
/// register array; wider rows accumulate in the output row itself.
const MATMUL_ROW_REGS: usize = 8;

thread_local! {
    /// Reused home of `bᵀ` for [`matmul_bt_into`]: it grows to the largest
    /// weight matrix a thread transposes, then never allocates again.
    static BT_SCRATCH: Cell<Vec<f64>> = const { Cell::new(Vec::new()) };
}

/// Scalar reference kernel: `out = a * b` for row-major buffers, where `a`
/// is `m x k`, `b` is `k x n` and `out` is `m x n`.
///
/// This is the plain triple loop, kept as the ground truth the row kernel
/// is tested against bitwise (see `crates/linalg/tests/simd_kernel.rs`).
/// Production callers go through [`matmul_serial_into`] /
/// [`matmul_into`].
///
/// # Panics
///
/// Panics if the buffer lengths do not match the given dimensions.
pub fn matmul_scalar_into(a: &[f64], b: &[f64], out: &mut [f64], m: usize, k: usize, n: usize) {
    assert_eq!(a.len(), m * k, "lhs buffer length");
    assert_eq!(b.len(), k * n, "rhs buffer length");
    assert_eq!(out.len(), m * n, "out buffer length");
    out.fill(0.0);
    for local_i in 0..m {
        for kk in 0..k {
            let aik = a[local_i * k + kk];
            if aik == 0.0 {
                continue;
            }
            let b_row = &b[kk * n..(kk + 1) * n];
            let out_row = &mut out[local_i * n..(local_i + 1) * n];
            for (o, &bv) in out_row.iter_mut().zip(b_row) {
                *o += aik * bv;
            }
        }
    }
}

/// Serial kernel: `out = a * b` through the row kernel; bitwise identical
/// to [`matmul_scalar_into`] (see the module-level accumulation-order
/// contract).
///
/// # Panics
///
/// Panics if the buffer lengths do not match the given dimensions.
pub fn matmul_serial_into(a: &[f64], b: &[f64], out: &mut [f64], m: usize, k: usize, n: usize) {
    assert_eq!(a.len(), m * k, "lhs buffer length");
    assert_eq!(b.len(), k * n, "rhs buffer length");
    assert_eq!(out.len(), m * n, "out buffer length");
    matmul_rows(|i| a[i * k..(i + 1) * k].iter(), b, out, 0, k, n);
}

/// Row kernel computing the output rows `out_rows` holds of `A * b`, the
/// first of them being row `row_start`, where `a_row(i)` yields the `k`
/// factors `A[i, 0..k]` in ascending `kk` (a row of `a`, or a column of
/// it for `aᵀ * b`).
///
/// Each output row is walked once and each `A[i,kk]` tested for zero once.
/// Rows up to [`MATMUL_ROW_REGS`] wide keep their sums in a `[f64; N]`
/// register array; wider rows add `A[i,kk] · b[kk,:]` into the output row.
/// Every element is written, so callers need not pre-zero `out`.
fn matmul_rows<'a, I: Iterator<Item = &'a f64>>(
    a_row: impl Fn(usize) -> I,
    b: &[f64],
    out_rows: &mut [f64],
    row_start: usize,
    k: usize,
    n: usize,
) {
    if k == 0 || n == 0 {
        out_rows.fill(0.0);
        return;
    }
    match n {
        1 => rows_in_registers::<1, _>(a_row, b, out_rows, row_start),
        2 => rows_in_registers::<2, _>(a_row, b, out_rows, row_start),
        3 => rows_in_registers::<3, _>(a_row, b, out_rows, row_start),
        4 => rows_in_registers::<4, _>(a_row, b, out_rows, row_start),
        5 => rows_in_registers::<5, _>(a_row, b, out_rows, row_start),
        6 => rows_in_registers::<6, _>(a_row, b, out_rows, row_start),
        7 => rows_in_registers::<7, _>(a_row, b, out_rows, row_start),
        MATMUL_ROW_REGS => rows_in_registers::<MATMUL_ROW_REGS, _>(a_row, b, out_rows, row_start),
        _ => {
            for (i, out_row) in (row_start..).zip(out_rows.chunks_exact_mut(n)) {
                out_row.fill(0.0);
                for (&aik, b_row) in a_row(i).zip(b.chunks_exact(n)) {
                    if aik == 0.0 {
                        continue;
                    }
                    for (o, &bv) in out_row.iter_mut().zip(b_row) {
                        *o += aik * bv;
                    }
                }
            }
        }
    }
}

/// [`matmul_rows`] for output rows exactly `N` wide.
fn rows_in_registers<'a, const N: usize, I: Iterator<Item = &'a f64>>(
    a_row: impl Fn(usize) -> I,
    b: &[f64],
    out_rows: &mut [f64],
    row_start: usize,
) {
    for (i, out_row) in (row_start..).zip(out_rows.chunks_exact_mut(N)) {
        let mut acc = [0.0f64; N];
        for (&aik, b_row) in a_row(i).zip(b.chunks_exact(N)) {
            if aik == 0.0 {
                continue;
            }
            for (s, &bv) in acc.iter_mut().zip(b_row) {
                *s += aik * bv;
            }
        }
        out_row.copy_from_slice(&acc);
    }
}

/// Runs [`matmul_rows`] over all `m` output rows of `out`: serially when
/// `m * k * n` is below [`PAR_FLOPS_THRESHOLD`] or the pool has a single
/// lane, else in [`MATMUL_BLOCK_ROWS`]-row chunks on `pool`.
fn run_rows<'a, I: Iterator<Item = &'a f64>>(
    pool: &ThreadPool,
    a_row: impl Fn(usize) -> I + Sync,
    b: &[f64],
    out: &mut [f64],
    m: usize,
    k: usize,
    n: usize,
) {
    if pool.threads() == 1 || m.saturating_mul(k).saturating_mul(n) < PAR_FLOPS_THRESHOLD {
        matmul_rows(a_row, b, out, 0, k, n);
        return;
    }
    // Each chunk is MATMUL_BLOCK_ROWS complete output rows (the final chunk
    // may be shorter) — disjoint `&mut` slices of `out`, no reduction.
    pool.for_each_chunk_mut(out, MATMUL_BLOCK_ROWS * n, |chunk_idx, out_rows| {
        matmul_rows(&a_row, b, out_rows, chunk_idx * MATMUL_BLOCK_ROWS, k, n);
    });
}

/// Row-partitioned parallel matmul: `out = a * b` with `a` being
/// `m x k`, `b` being `k x n`, all row-major.
///
/// Falls back to the serial kernel when `m * k * n` is below
/// [`PAR_FLOPS_THRESHOLD`] or the pool has a single lane. The result is
/// bitwise identical to [`matmul_serial_into`] (and therefore to
/// [`matmul_scalar_into`]) in every case.
///
/// # Panics
///
/// Panics if the buffer lengths do not match the given dimensions.
pub fn matmul_into(
    pool: &ThreadPool,
    a: &[f64],
    b: &[f64],
    out: &mut [f64],
    m: usize,
    k: usize,
    n: usize,
) {
    assert_eq!(a.len(), m * k, "lhs buffer length");
    assert_eq!(b.len(), k * n, "rhs buffer length");
    assert_eq!(out.len(), m * n, "out buffer length");
    run_rows(pool, |i| a[i * k..(i + 1) * k].iter(), b, out, m, k, n);
}

/// Row-partitioned `out = a * bᵀ` with `a` being `m x k` and `b` being
/// `n x k`, all row-major (`out` is `m x n`).
///
/// This is the backward product `grad_lhs = upstream * bᵀ`: `b` (a weight
/// matrix) is transposed once per call into a reused thread-local buffer
/// and handed to [`matmul_into`], so the result is that composition, bit
/// for bit, at any thread count.
///
/// # Panics
///
/// Panics if the buffer lengths do not match the given dimensions.
pub fn matmul_bt_into(
    pool: &ThreadPool,
    a: &[f64],
    b: &[f64],
    out: &mut [f64],
    m: usize,
    k: usize,
    n: usize,
) {
    assert_eq!(b.len(), n * k, "rhs buffer length");
    BT_SCRATCH.with(|scratch| {
        // Taken, not borrowed: a reentrant call finds an empty buffer
        // rather than a held borrow.
        let mut bt = scratch.take();
        bt.clear();
        for kk in 0..k {
            bt.extend(b.iter().skip(kk).step_by(k));
        }
        matmul_into(pool, a, &bt, out, m, k, n);
        scratch.set(bt);
    });
}

/// Row-partitioned `out = aᵀ * b` with `a` being `k x m` and `b` being
/// `k x n`, all row-major (`out` is `m x n`).
///
/// This is the backward product `grad_rhs = aᵀ * upstream`: the row kernel
/// reads output row `i`'s factors down column `i` of `a`, so the result is
/// bitwise identical to materializing `transpose(a)` and calling
/// [`matmul_into`], at any thread count.
///
/// # Panics
///
/// Panics if the buffer lengths do not match the given dimensions.
pub fn matmul_at_into(
    pool: &ThreadPool,
    a: &[f64],
    b: &[f64],
    out: &mut [f64],
    k: usize,
    m: usize,
    n: usize,
) {
    assert_eq!(a.len(), k * m, "lhs buffer length");
    assert_eq!(b.len(), k * n, "rhs buffer length");
    assert_eq!(out.len(), m * n, "out buffer length");
    run_rows(
        pool,
        |i| a.chunks_exact(m).map(move |row| &row[i]),
        b,
        out,
        m,
        k,
        n,
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Deterministic pseudo-random fill (no RNG dependency in this crate).
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

    fn naive(a: &[f64], b: &[f64], m: usize, k: usize, n: usize) -> Vec<f64> {
        let mut out = vec![0.0; m * n];
        for i in 0..m {
            for j in 0..n {
                let mut acc = 0.0;
                for kk in 0..k {
                    acc += a[i * k + kk] * b[kk * n + j];
                }
                out[i * n + j] = acc;
            }
        }
        out
    }

    fn transpose(src: &[f64], rows: usize, cols: usize) -> Vec<f64> {
        let mut out = Vec::with_capacity(rows * cols);
        for c in 0..cols {
            out.extend((0..rows).map(|r| src[r * cols + c]));
        }
        out
    }

    #[test]
    fn serial_kernel_matches_naive() {
        for &(m, k, n) in &[(1, 1, 1), (3, 4, 5), (8, 8, 8), (17, 9, 23)] {
            let a = fill(m * k, 7);
            let b = fill(k * n, 13);
            let mut out = vec![f64::NAN; m * n];
            matmul_serial_into(&a, &b, &mut out, m, k, n);
            let expect = naive(&a, &b, m, k, n);
            for (x, y) in out.iter().zip(&expect) {
                assert!((x - y).abs() < 1e-12, "{x} vs {y}");
            }
        }
    }

    #[test]
    fn row_kernel_matches_scalar_reference_bitwise() {
        // Shapes covering every register-array width, wide rows, and long
        // reductions.
        for &(m, k, n) in &[
            (1, 1, 1),
            (4, 5, 2),
            (2, 3, 3),
            (5, 7, 4),
            (6, 4, 5),
            (3, 9, 6),
            (8, 8, 8),
            (17, 9, 23),
            (11, 600, 7),
            (4, 1025, 9),
        ] {
            let a = fill(m * k, 21);
            let b = fill(k * n, 22);
            let mut scalar = vec![f64::NAN; m * n];
            matmul_scalar_into(&a, &b, &mut scalar, m, k, n);
            let mut row = vec![f64::NAN; m * n];
            matmul_serial_into(&a, &b, &mut row, m, k, n);
            for (x, y) in row.iter().zip(&scalar) {
                assert_eq!(x.to_bits(), y.to_bits(), "({m}x{k}x{n})");
            }
        }
    }

    #[test]
    fn parallel_bitwise_matches_serial_across_thread_counts() {
        // Shapes straddling the threshold and not divisible by the block.
        for &(m, k, n) in &[(4, 4, 4), (37, 19, 29), (64, 64, 64), (130, 33, 65)] {
            let a = fill(m * k, 42);
            let b = fill(k * n, 99);
            let mut serial = vec![0.0; m * n];
            matmul_serial_into(&a, &b, &mut serial, m, k, n);
            for threads in [1, 2, 8] {
                let pool = ThreadPool::new(threads);
                let mut par = vec![f64::NAN; m * n];
                matmul_into(&pool, &a, &b, &mut par, m, k, n);
                for (x, y) in par.iter().zip(&serial) {
                    assert_eq!(x.to_bits(), y.to_bits(), "({m}x{k}x{n}) threads={threads}");
                }
            }
        }
    }

    #[test]
    fn bt_kernel_matches_transpose_composition_bitwise() {
        // out = a @ bᵀ vs transpose(b) then the forward kernel.
        for &(m, k, n) in &[(1, 1, 1), (3, 5, 4), (17, 9, 23), (130, 33, 65)] {
            let a = fill(m * k, 3);
            let b = fill(n * k, 4); // n x k
            let bt = transpose(&b, n, k); // k x n
            let mut composed = vec![0.0; m * n];
            matmul_scalar_into(&a, &bt, &mut composed, m, k, n);
            for threads in [1, 2, 8] {
                let pool = ThreadPool::new(threads);
                let mut direct = vec![f64::NAN; m * n];
                matmul_bt_into(&pool, &a, &b, &mut direct, m, k, n);
                for (x, y) in direct.iter().zip(&composed) {
                    assert_eq!(x.to_bits(), y.to_bits(), "({m}x{k}x{n}) threads={threads}");
                }
            }
        }
    }

    #[test]
    fn at_kernel_matches_transpose_composition_bitwise() {
        // out = aᵀ @ b vs transpose(a) then the forward kernel.
        for &(k, m, n) in &[(1, 1, 1), (5, 3, 4), (9, 17, 23), (33, 130, 65)] {
            let a = fill(k * m, 5); // k x m
            let b = fill(k * n, 6); // k x n
            let at = transpose(&a, k, m); // m x k
            let mut composed = vec![0.0; m * n];
            matmul_scalar_into(&at, &b, &mut composed, m, k, n);
            for threads in [1, 2, 8] {
                let pool = ThreadPool::new(threads);
                let mut direct = vec![f64::NAN; m * n];
                matmul_at_into(&pool, &a, &b, &mut direct, k, m, n);
                for (x, y) in direct.iter().zip(&composed) {
                    assert_eq!(x.to_bits(), y.to_bits(), "({k}x{m}x{n}) threads={threads}");
                }
            }
        }
    }

    #[test]
    fn zero_skip_is_preserved() {
        // A row of zeros in `a` must leave inf/nan in `b` untouched, exactly
        // like the serial kernel's `aik == 0.0` skip.
        let (m, k, n) = (130, 33, 65); // above threshold
        let mut a = fill(m * k, 5);
        for v in a[..k].iter_mut() {
            *v = 0.0;
        }
        let mut b = fill(k * n, 6);
        b[0] = f64::INFINITY;
        let pool = ThreadPool::new(4);
        let mut out = vec![f64::NAN; m * n];
        matmul_into(&pool, &a, &b, &mut out, m, k, n);
        assert!(out[..n].iter().all(|&v| v == 0.0), "zero row stays zero");
    }

    #[test]
    fn zero_skip_is_preserved_in_backward_kernels() {
        let (m, k, n) = (65, 33, 40);
        let mut a = fill(m * k, 15);
        for v in a[..k].iter_mut() {
            *v = 0.0;
        }
        let mut b = fill(n * k, 16); // n x k for bt
        b[0] = f64::INFINITY;
        let pool = ThreadPool::new(4);
        let mut out = vec![f64::NAN; m * n];
        matmul_bt_into(&pool, &a, &b, &mut out, m, k, n);
        assert!(out[..n].iter().all(|&v| v == 0.0), "bt zero row stays zero");

        // at: zero out column 0 of `a` (k x m); out row 0 must stay zero.
        let (k2, m2, n2) = (33, 65, 40);
        let mut a2 = fill(k2 * m2, 17);
        for kk in 0..k2 {
            a2[kk * m2] = 0.0;
        }
        let mut b2 = fill(k2 * n2, 18);
        b2[0] = f64::INFINITY;
        let mut out2 = vec![f64::NAN; m2 * n2];
        matmul_at_into(&pool, &a2, &b2, &mut out2, k2, m2, n2);
        assert!(
            out2[..n2].iter().all(|&v| v == 0.0),
            "at zero column stays zero"
        );
    }

    #[test]
    fn degenerate_shapes() {
        let pool = ThreadPool::new(4);
        let mut out = vec![];
        matmul_into(&pool, &[], &[], &mut out, 0, 0, 0);
        assert!(out.is_empty());
        let mut out = vec![0.0; 3];
        matmul_into(&pool, &[2.0], &[1.0, 2.0, 3.0], &mut out, 1, 1, 3);
        assert_eq!(out, vec![2.0, 4.0, 6.0]);
        // Empty reduction must still produce zeros (write-once kernels).
        let mut out = vec![f64::NAN; 6];
        matmul_into(&pool, &[], &[], &mut out, 2, 0, 3);
        assert_eq!(out, vec![0.0; 6]);
        let mut out = vec![f64::NAN; 6];
        matmul_bt_into(&pool, &[], &[], &mut out, 2, 0, 3);
        assert_eq!(out, vec![0.0; 6]);
        let mut out = vec![f64::NAN; 6];
        matmul_at_into(&pool, &[], &[], &mut out, 0, 2, 3);
        assert_eq!(out, vec![0.0; 6]);
    }
}
