//! Chunk partitioning arithmetic.
//!
//! The determinism contract hinges on one rule: **chunk boundaries are a
//! function of the workload size only** — never of the thread count or the
//! runtime schedule. Given that, any chunked computation whose results land
//! in chunk-indexed slots, reduced by summing those slots in chunk order,
//! produces bitwise-identical output on 1 thread or 100.

/// Number of chunks needed to cover `n` items with `chunk_len`-sized chunks.
///
/// `chunk_len` is clamped to at least 1. `n == 0` yields zero chunks.
pub fn chunk_count(n: usize, chunk_len: usize) -> usize {
    let chunk_len = chunk_len.max(1);
    n.div_ceil(chunk_len)
}

/// Half-open item range `[start, end)` covered by chunk `idx`.
///
/// The final chunk is truncated to `n`.
pub fn chunk_range(n: usize, chunk_len: usize, idx: usize) -> (usize, usize) {
    let chunk_len = chunk_len.max(1);
    let start = (idx * chunk_len).min(n);
    let end = ((idx + 1) * chunk_len).min(n);
    (start, end)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chunk_count_covers_everything() {
        assert_eq!(chunk_count(0, 32), 0);
        assert_eq!(chunk_count(1, 32), 1);
        assert_eq!(chunk_count(32, 32), 1);
        assert_eq!(chunk_count(33, 32), 2);
        assert_eq!(chunk_count(103, 32), 4);
        assert_eq!(chunk_count(5, 0), 5, "chunk_len clamps to 1");
    }

    #[test]
    fn chunk_ranges_partition_exactly() {
        let (n, chunk_len) = (103, 32);
        let mut covered = 0;
        for idx in 0..chunk_count(n, chunk_len) {
            let (start, end) = chunk_range(n, chunk_len, idx);
            assert_eq!(start, covered, "ranges are contiguous");
            assert!(end > start, "no empty chunks");
            covered = end;
        }
        assert_eq!(covered, n);
    }

    #[test]
    fn out_of_range_chunk_is_empty() {
        let (s, e) = chunk_range(10, 4, 99);
        assert_eq!(s, e);
    }
}
