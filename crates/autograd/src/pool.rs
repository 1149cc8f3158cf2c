//! Size-classed recycling pool for the `Vec<f64>` buffers behind every
//! tape tensor.
//!
//! A NOFIS training step rebuilds its computation tape from scratch, so
//! without reuse every op allocates (and soon frees) a fresh buffer. The
//! [`BufferPool`] keeps freed buffers in power-of-two size classes;
//! [`take`](BufferPool::take) hands back a recycled buffer of the right
//! capacity when one is available and only falls back to the allocator on a
//! *miss*. After a warmup step the pool holds one buffer per live slot of
//! the step, and steady-state training performs zero heap allocations
//! through the tape (see DESIGN.md §9).
//!
//! The hit/miss counters double as an allocation regression meter: a test
//! (or benchmark) can record [`BufferPool::stats`] after warmup and assert
//! the miss count no longer moves.

/// Allocation statistics of a [`BufferPool`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PoolStats {
    /// Requests served from a recycled buffer (no allocation).
    pub hits: u64,
    /// Requests that had to allocate a fresh buffer.
    pub misses: u64,
}

/// A pool of recycled `f64` buffers, segregated into power-of-two size
/// classes by capacity.
///
/// # Example
///
/// ```
/// use nofis_autograd::BufferPool;
///
/// let mut pool = BufferPool::new();
/// let a = pool.take(100);          // miss: allocates capacity 128
/// assert_eq!(a.len(), 100);
/// pool.put(a);
/// let b = pool.take(120);          // hit: same class (<= 128)
/// assert_eq!(b.len(), 120);
/// assert_eq!(pool.stats().hits, 1);
/// assert_eq!(pool.stats().misses, 1);
/// ```
#[derive(Debug, Default)]
pub struct BufferPool {
    /// `classes[c]` holds free buffers whose capacity is at least `1 << c`
    /// (and was allocated as exactly `1 << c`).
    classes: Vec<Vec<Vec<f64>>>,
    hits: u64,
    misses: u64,
}

/// Smallest class that can serve a request of `len` entries.
fn class_for(len: usize) -> usize {
    // next_power_of_two(0) == 1, so the empty buffer lands in class 0.
    len.next_power_of_two().trailing_zeros() as usize
}

impl BufferPool {
    /// Creates an empty pool.
    pub fn new() -> Self {
        BufferPool::default()
    }

    /// Returns a zero-filled buffer of exactly `len` entries.
    ///
    /// Serves from the matching size class when a recycled buffer is
    /// available (a *hit*); otherwise allocates one with the class capacity
    /// (a *miss*). Either way the caller owns the buffer until it is handed
    /// back with [`BufferPool::put`].
    pub fn take(&mut self, len: usize) -> Vec<f64> {
        let class = class_for(len);
        if class >= self.classes.len() {
            self.classes.resize_with(class + 1, Vec::new);
        }
        match self.classes[class].pop() {
            Some(mut buf) => {
                self.hits += 1;
                buf.clear();
                buf.resize(len, 0.0);
                buf
            }
            None => {
                self.misses += 1;
                let mut buf = Vec::with_capacity(1usize << class);
                buf.resize(len, 0.0);
                buf
            }
        }
    }

    /// Returns an **empty** buffer with `capacity >= len`, skipping the
    /// zero-fill of [`BufferPool::take`].
    ///
    /// For producers that write every element exactly once (elementwise
    /// maps, copies), the `take` zero-fill is a second full pass over the
    /// buffer; at training-step sizes that memset costs more than the
    /// allocation it replaces. Callers fill the buffer with
    /// `extend`/`extend_from_slice` up to `len`. Counted in the same
    /// hit/miss statistics as `take`.
    pub fn take_uninit(&mut self, len: usize) -> Vec<f64> {
        let class = class_for(len);
        if class >= self.classes.len() {
            self.classes.resize_with(class + 1, Vec::new);
        }
        match self.classes[class].pop() {
            Some(mut buf) => {
                self.hits += 1;
                buf.clear();
                buf
            }
            None => {
                self.misses += 1;
                Vec::with_capacity(1usize << class)
            }
        }
    }

    /// Returns `buf` to the pool for reuse.
    ///
    /// Zero-capacity buffers are dropped (nothing to recycle).
    pub fn put(&mut self, mut buf: Vec<f64>) {
        if buf.capacity() == 0 {
            return;
        }
        // Largest class the capacity can fully serve. Buffers the pool
        // allocated itself have exact power-of-two capacities; foreign
        // buffers (e.g. a `Tensor::from_vec` input recycled on reset) are
        // filed under the class they can still satisfy.
        let class = usize::BITS as usize - 1 - buf.capacity().leading_zeros() as usize;
        if class >= self.classes.len() {
            self.classes.resize_with(class + 1, Vec::new);
        }
        buf.clear();
        self.classes[class].push(buf);
    }

    /// Current hit/miss counters.
    pub fn stats(&self) -> PoolStats {
        PoolStats {
            hits: self.hits,
            misses: self.misses,
        }
    }

    /// Number of free buffers currently held across all classes.
    pub fn free_buffers(&self) -> usize {
        self.classes.iter().map(Vec::len).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn take_is_zeroed_and_exact_len() {
        let mut pool = BufferPool::new();
        let mut a = pool.take(10);
        assert_eq!(a.len(), 10);
        assert!(a.iter().all(|&v| v == 0.0));
        a.iter_mut().for_each(|v| *v = 7.0);
        pool.put(a);
        // Recycled buffer must come back zeroed, not with stale contents.
        let b = pool.take(10);
        assert!(b.iter().all(|&v| v == 0.0));
        assert_eq!(pool.stats(), PoolStats { hits: 1, misses: 1 });
    }

    #[test]
    fn take_uninit_recycles_without_filling() {
        let mut pool = BufferPool::new();
        let mut a = pool.take_uninit(10);
        assert!(a.is_empty() && a.capacity() >= 10);
        a.extend((0..10).map(|i| i as f64));
        pool.put(a);
        let b = pool.take_uninit(12); // same class -> hit, comes back empty
        assert!(b.is_empty() && b.capacity() >= 12);
        assert_eq!(pool.stats(), PoolStats { hits: 1, misses: 1 });
    }

    #[test]
    fn size_classes_are_shared_within_powers_of_two() {
        let mut pool = BufferPool::new();
        let a = pool.take(100); // class 128
        pool.put(a);
        let _b = pool.take(65); // 65..=128 shares the class -> hit
        assert_eq!(pool.stats().hits, 1);
        let _c = pool.take(129); // class 256 -> miss
        assert_eq!(pool.stats().misses, 2);
    }

    #[test]
    fn steady_state_has_no_misses() {
        let mut pool = BufferPool::new();
        for _ in 0..3 {
            let bufs: Vec<_> = [64, 200, 33, 1].iter().map(|&n| pool.take(n)).collect();
            for b in bufs {
                pool.put(b);
            }
        }
        let s = pool.stats();
        assert_eq!(s.misses, 4, "only the first round allocates");
        assert_eq!(s.hits, 8);
    }

    #[test]
    fn empty_and_foreign_buffers() {
        let mut pool = BufferPool::new();
        pool.put(Vec::new()); // dropped, not filed
        assert_eq!(pool.free_buffers(), 0);
        let v = Vec::with_capacity(100); // foreign capacity, class 64
        pool.put(v);
        let got = pool.take(60);
        assert_eq!(pool.stats().hits, 1);
        assert!(got.capacity() >= 60);
    }
}
