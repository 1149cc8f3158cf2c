//! Shared numeric kernels executed on a [`ThreadPool`].
//!
//! The matmul kernels here are the single implementation behind
//! `nofis_linalg::Tensor::matmul` (re-exported as `nofis_autograd::Tensor`),
//! plus the transpose-free backward products `a @ bᵀ` and `aᵀ @ b`.
//! All of them are **row-partitioned**: each chunk owns a disjoint block of
//! output rows, and each output row is computed by exactly the same inner
//! loop the serial path uses. Because no accumulator is ever shared between
//! chunks, the parallel result is bitwise identical to the serial one for
//! any thread count — row partitioning needs no reduction at all.
//!
//! # Accumulation-order contract
//!
//! Every kernel in this file computes each output element as a sum over the
//! reduction index `kk` **in ascending order**, starting from `0.0`, with
//! one `mul` and one `add` per term (never a fused multiply-add), and skips
//! the term whenever the `a`-side factor is exactly `0.0`. The blocked
//! microkernel ([`matmul_serial_into`] / [`matmul_into`]) only changes
//! *which register* holds the running sum — a 4-wide accumulator tile
//! instead of the output row — so its per-element add sequence is
//! identical to the scalar reference ([`matmul_scalar_into`]) and the
//! results are bitwise equal. The `aik == 0.0` skip is load-bearing for
//! callers that multiply by sparse masks (`0.0 * inf` would poison the row
//! with NaN); every kernel preserves it exactly.

use crate::ThreadPool;

/// Below this many multiply-adds (`m * k * n`), `matmul_into` stays serial:
/// the dispatch overhead of even one channel send dwarfs the work.
pub const PAR_FLOPS_THRESHOLD: usize = 64 * 1024;

/// Output rows per parallel chunk. Chosen once, as a function of nothing:
/// chunk boundaries must never depend on the thread count.
pub const MATMUL_BLOCK_ROWS: usize = 8;

/// Output columns per register tile in the blocked microkernel — four
/// hand-unrolled f64 lanes, the widest tile that still vectorizes cleanly
/// on baseline x86-64 (two SSE2 registers) without spilling.
pub const MATMUL_LANES: usize = 4;

/// Reduction-panel depth of the cache-blocked microkernel: how many `b`
/// rows a register tile consumes before its accumulators spill to `out`.
/// A 512-row panel of a 4-wide tile touches 16 KiB of `b` — inside L1 on
/// every current x86-64/aarch64 part. Blocks are visited in ascending
/// order, so the per-element add sequence is unchanged.
const MATMUL_KC: usize = 512;

/// Scalar reference kernel: `out = a * b` for row-major buffers, where `a`
/// is `m x k`, `b` is `k x n` and `out` is `m x n`.
///
/// This is the pre-blocking inner loop, kept verbatim as the ground truth
/// the blocked microkernel is tested against bitwise (see
/// `crates/linalg/tests/simd_kernel.rs`). Production callers go through
/// [`matmul_serial_into`] / [`matmul_into`].
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

/// Serial kernel: `out = a * b` through the blocked microkernel; bitwise
/// identical to [`matmul_scalar_into`] (see the module-level
/// accumulation-order contract).
///
/// # Panics
///
/// Panics if the buffer lengths do not match the given dimensions.
pub fn matmul_serial_into(a: &[f64], b: &[f64], out: &mut [f64], m: usize, k: usize, n: usize) {
    assert_eq!(a.len(), m * k, "lhs buffer length");
    assert_eq!(b.len(), k * n, "rhs buffer length");
    assert_eq!(out.len(), m * n, "out buffer length");
    matmul_rows(a, b, out, 0, m, k, n);
}

/// Blocked microkernel computing output rows `[row_start, row_start + rows)`
/// of `a * b` into `out_rows` (which holds exactly those rows, row-major).
///
/// Register tiling: each output row is produced in [`MATMUL_LANES`]-wide
/// column tiles whose running sums live in a hand-unrolled `[f64; 4]`
/// accumulator, consuming the reduction in [`MATMUL_KC`]-deep panels; the
/// tile is written back once per panel. Every element is written (never
/// read-modify-written across calls), so callers need not pre-zero `out`.
fn matmul_rows(
    a: &[f64],
    b: &[f64],
    out_rows: &mut [f64],
    row_start: usize,
    rows: usize,
    k: usize,
    n: usize,
) {
    if k == 0 {
        out_rows.fill(0.0);
        return;
    }
    let split = n - n % MATMUL_LANES;
    for local_i in 0..rows {
        let i = row_start + local_i;
        let a_row = &a[i * k..(i + 1) * k];
        let out_row = &mut out_rows[local_i * n..(local_i + 1) * n];
        let mut kb = 0;
        while kb < k {
            let k_end = (kb + MATMUL_KC).min(k);
            let first = kb == 0;
            let a_panel = &a_row[kb..k_end];
            let b_panel = &b[kb * n..k_end * n];
            let mut j = 0;
            while j < split {
                let mut acc = if first {
                    [0.0f64; MATMUL_LANES]
                } else {
                    [out_row[j], out_row[j + 1], out_row[j + 2], out_row[j + 3]]
                };
                for (&aik, b_row) in a_panel.iter().zip(b_panel.chunks_exact(n)) {
                    if aik == 0.0 {
                        continue;
                    }
                    let bt = &b_row[j..j + MATMUL_LANES];
                    acc[0] += aik * bt[0];
                    acc[1] += aik * bt[1];
                    acc[2] += aik * bt[2];
                    acc[3] += aik * bt[3];
                }
                out_row[j..j + MATMUL_LANES].copy_from_slice(&acc);
                j += MATMUL_LANES;
            }
            for j in split..n {
                let mut acc = if first { 0.0 } else { out_row[j] };
                for (&aik, b_row) in a_panel.iter().zip(b_panel.chunks_exact(n)) {
                    if aik == 0.0 {
                        continue;
                    }
                    acc += aik * b_row[j];
                }
                out_row[j] = acc;
            }
            kb = k_end;
        }
    }
}

/// Blocked, row-partitioned parallel matmul: `out = a * b` with `a` being
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
    if pool.threads() == 1 || m.saturating_mul(k).saturating_mul(n) < PAR_FLOPS_THRESHOLD {
        matmul_rows(a, b, out, 0, m, k, n);
        return;
    }
    // Each chunk is MATMUL_BLOCK_ROWS complete output rows (the final chunk
    // may be shorter) — disjoint `&mut` slices of `out`, no reduction.
    pool.for_each_chunk_mut(out, MATMUL_BLOCK_ROWS * n, |chunk_idx, out_rows| {
        let row_start = chunk_idx * MATMUL_BLOCK_ROWS;
        let rows = out_rows.len() / n;
        matmul_rows(a, b, out_rows, row_start, rows, k, n);
    });
}

/// Microkernel for output rows of `a * bᵀ` with `a` being `m x k` and `b`
/// being `n x k` (`out` is `m x n`): `out[i][j] = Σ_kk a[i,kk] * b[j,kk]`.
///
/// Both factors are read along contiguous rows (the transposed-B layout for
/// the backward pass — each output element is a row-row dot product), so no
/// reduction panel is needed; a 4-wide tile of `b` rows shares each `a`
/// load. The `kk` order, the `a[i,kk] == 0.0` skip, and the start-from-zero
/// accumulators match `transpose(b)` followed by the forward kernel
/// exactly, so the result is bitwise identical to that composition.
fn matmul_bt_rows(
    a: &[f64],
    b: &[f64],
    out_rows: &mut [f64],
    row_start: usize,
    rows: usize,
    k: usize,
    n: usize,
) {
    let split = n - n % MATMUL_LANES;
    for local_i in 0..rows {
        let i = row_start + local_i;
        let a_row = &a[i * k..(i + 1) * k];
        let out_row = &mut out_rows[local_i * n..(local_i + 1) * n];
        let mut j = 0;
        while j < split {
            let b0 = &b[j * k..(j + 1) * k];
            let b1 = &b[(j + 1) * k..(j + 2) * k];
            let b2 = &b[(j + 2) * k..(j + 3) * k];
            let b3 = &b[(j + 3) * k..(j + 4) * k];
            let mut acc = [0.0f64; MATMUL_LANES];
            for (kk, &aik) in a_row.iter().enumerate() {
                if aik == 0.0 {
                    continue;
                }
                acc[0] += aik * b0[kk];
                acc[1] += aik * b1[kk];
                acc[2] += aik * b2[kk];
                acc[3] += aik * b3[kk];
            }
            out_row[j..j + MATMUL_LANES].copy_from_slice(&acc);
            j += MATMUL_LANES;
        }
        for j in split..n {
            let bj = &b[j * k..(j + 1) * k];
            let mut acc = 0.0;
            for (kk, &aik) in a_row.iter().enumerate() {
                if aik == 0.0 {
                    continue;
                }
                acc += aik * bj[kk];
            }
            out_row[j] = acc;
        }
    }
}

/// Row-partitioned `out = a * bᵀ` with `a` being `m x k` and `b` being
/// `n x k`, all row-major (`out` is `m x n`).
///
/// This is the transpose-free backward product (`grad_lhs = upstream * bᵀ`):
/// bitwise identical to materializing `transpose(b)` and calling
/// [`matmul_into`], with the same serial-fallback threshold
/// (`m * k * n < `[`PAR_FLOPS_THRESHOLD`]) and the same
/// [`MATMUL_BLOCK_ROWS`]-row chunking, so the determinism contract holds at
/// any thread count.
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
    assert_eq!(a.len(), m * k, "lhs buffer length");
    assert_eq!(b.len(), n * k, "rhs buffer length");
    assert_eq!(out.len(), m * n, "out buffer length");
    if pool.threads() == 1 || m.saturating_mul(k).saturating_mul(n) < PAR_FLOPS_THRESHOLD {
        matmul_bt_rows(a, b, out, 0, m, k, n);
        return;
    }
    pool.for_each_chunk_mut(out, MATMUL_BLOCK_ROWS * n, |chunk_idx, out_rows| {
        let row_start = chunk_idx * MATMUL_BLOCK_ROWS;
        let rows = out_rows.len() / n;
        matmul_bt_rows(a, b, out_rows, row_start, rows, k, n);
    });
}

/// Microkernel for output rows of `aᵀ * b` with `a` being `k x m` and `b`
/// being `k x n` (`out` is `m x n`): `out[i][j] = Σ_kk a[kk,i] * b[kk,j]`.
///
/// The reduction streams whole rows of `a` and `b` (ascending `kk`), so
/// the composed `transpose(a)` + forward-kernel zero-skip — `at[i,kk]`,
/// i.e. `a[kk,i]` — is expressed directly on `a`'s column and the result
/// is bitwise identical to that composition.
#[allow(clippy::too_many_arguments)] // kernel entry mirrors the (a, b, out, range, dims) calling convention
fn matmul_at_rows(
    a: &[f64],
    b: &[f64],
    out_rows: &mut [f64],
    row_start: usize,
    rows: usize,
    k: usize,
    m: usize,
    n: usize,
) {
    if k == 0 {
        out_rows.fill(0.0);
        return;
    }
    let split = n - n % MATMUL_LANES;
    for local_i in 0..rows {
        let i = row_start + local_i;
        let out_row = &mut out_rows[local_i * n..(local_i + 1) * n];
        let mut j = 0;
        while j < split {
            let mut acc = [0.0f64; MATMUL_LANES];
            for (a_row, b_row) in a.chunks_exact(m).zip(b.chunks_exact(n)) {
                let aik = a_row[i];
                if aik == 0.0 {
                    continue;
                }
                let bt = &b_row[j..j + MATMUL_LANES];
                acc[0] += aik * bt[0];
                acc[1] += aik * bt[1];
                acc[2] += aik * bt[2];
                acc[3] += aik * bt[3];
            }
            out_row[j..j + MATMUL_LANES].copy_from_slice(&acc);
            j += MATMUL_LANES;
        }
        for j in split..n {
            let mut acc = 0.0;
            for (a_row, b_row) in a.chunks_exact(m).zip(b.chunks_exact(n)) {
                let aik = a_row[i];
                if aik == 0.0 {
                    continue;
                }
                acc += aik * b_row[j];
            }
            out_row[j] = acc;
        }
    }
}

/// Row-partitioned `out = aᵀ * b` with `a` being `k x m` and `b` being
/// `k x n`, all row-major (`out` is `m x n`).
///
/// This is the transpose-free backward product (`grad_rhs = aᵀ * upstream`):
/// bitwise identical to materializing `transpose(a)` and calling
/// [`matmul_into`], with the same serial-fallback threshold
/// (`m * k * n < `[`PAR_FLOPS_THRESHOLD`]) and the same
/// [`MATMUL_BLOCK_ROWS`]-row chunking, so the determinism contract holds at
/// any thread count.
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
    if pool.threads() == 1 || m.saturating_mul(k).saturating_mul(n) < PAR_FLOPS_THRESHOLD {
        matmul_at_rows(a, b, out, 0, m, k, m, n);
        return;
    }
    pool.for_each_chunk_mut(out, MATMUL_BLOCK_ROWS * n, |chunk_idx, out_rows| {
        let row_start = chunk_idx * MATMUL_BLOCK_ROWS;
        let rows = out_rows.len() / n;
        matmul_at_rows(a, b, out_rows, row_start, rows, k, m, n);
    });
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
    fn blocked_microkernel_matches_scalar_reference_bitwise() {
        // Shapes covering sub-tile widths, tile remainders, and a reduction
        // longer than one MATMUL_KC panel.
        for &(m, k, n) in &[
            (1, 1, 1),
            (2, 3, 3),
            (5, 7, 4),
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
            let mut blocked = vec![f64::NAN; m * n];
            matmul_serial_into(&a, &b, &mut blocked, m, k, n);
            for (x, y) in blocked.iter().zip(&scalar) {
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
