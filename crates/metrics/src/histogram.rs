//! Fixed-layout log-scale histograms.
//!
//! Every histogram in the registry shares one bucket layout: half-octave
//! (√2-ratio) buckets spanning `2⁻²⁴ ‥ 2²⁴`, plus a final `+Inf` bucket.
//! A fixed layout keeps the hot path a single `log2`, one `fetch_add`, and
//! two more atomics (count, sum) — no allocation, no locking — and makes
//! two histograms mergeable by plain element-wise addition, which is what
//! the registry's snapshot merge (and the offline `nofis-trace metrics`
//! replay) relies on.
//!
//! Quantiles are derived from the bucket counts: the reported quantile is
//! the upper bound of the bucket holding the target rank, so it is exact
//! to within one bucket boundary (a √2 ratio) of the true sorted-order
//! quantile. `tests/properties.rs` pins this contract under proptest.

use std::sync::atomic::{AtomicU64, Ordering};

/// Sub-buckets per octave (buckets per doubling of the recorded value).
pub const SUBS: u32 = 2;
/// Exponent of the lowest finite bucket boundary: values at or below
/// `2^MIN_EXP` land in bucket 0.
pub const MIN_EXP: i32 = -24;
/// Exponent of the highest finite bucket boundary; larger values land in
/// the `+Inf` bucket.
pub const MAX_EXP: i32 = 24;
/// Number of finite buckets.
pub const FINITE_BUCKETS: usize = ((MAX_EXP - MIN_EXP) as usize) * SUBS as usize;
/// Total buckets including the final `+Inf` overflow bucket.
pub const NUM_BUCKETS: usize = FINITE_BUCKETS + 1;

/// Upper bound of finite bucket `i`: `2^(MIN_EXP + (i+1)/SUBS)`.
/// `bound(FINITE_BUCKETS - 1) == 2^MAX_EXP`; the bucket after it is `+Inf`.
pub fn bucket_bound(i: usize) -> f64 {
    debug_assert!(i < FINITE_BUCKETS);
    (MIN_EXP as f64 + (i as f64 + 1.0) / SUBS as f64).exp2()
}

/// The bucket a value is recorded into: the smallest bucket whose upper
/// bound is ≥ the value. Non-positive (and NaN) values take bucket 0,
/// values above `2^MAX_EXP` take the `+Inf` bucket.
pub fn bucket_index(v: f64) -> usize {
    if v.is_nan() || v <= 0.0 {
        return 0;
    }
    let pos = (v.log2() - MIN_EXP as f64) * SUBS as f64 - 1.0;
    let i = pos.ceil();
    if i <= 0.0 {
        0
    } else if i >= FINITE_BUCKETS as f64 {
        FINITE_BUCKETS
    } else {
        i as usize
    }
}

/// A lock-free log-scale histogram: per-bucket atomic counters plus a
/// running count / sum / max. `observe` never allocates or blocks.
pub struct Histogram {
    buckets: [AtomicU64; NUM_BUCKETS],
    count: AtomicU64,
    /// Bit pattern of the f64 running sum, updated by CAS loop.
    sum_bits: AtomicU64,
    /// Bit pattern of the non-negative f64 maximum. For non-negative
    /// floats the IEEE-754 bit patterns order like the values, so a plain
    /// `fetch_max` on the bits is a lock-free float max.
    max_bits: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Histogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum_bits: AtomicU64::new(0f64.to_bits()),
            max_bits: AtomicU64::new(0f64.to_bits()),
        }
    }

    /// Records one sample. Negative and NaN samples count into bucket 0
    /// and contribute zero to the sum/max (recorded series are
    /// non-negative by construction; this is belt-and-braces).
    pub fn observe(&self, v: f64) {
        self.buckets[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        let add = if v.is_finite() && v > 0.0 { v } else { 0.0 };
        if add > 0.0 {
            let mut cur = self.sum_bits.load(Ordering::Relaxed);
            loop {
                let next = (f64::from_bits(cur) + add).to_bits();
                match self.sum_bits.compare_exchange_weak(
                    cur,
                    next,
                    Ordering::Relaxed,
                    Ordering::Relaxed,
                ) {
                    Ok(_) => break,
                    Err(seen) => cur = seen,
                }
            }
            self.max_bits.fetch_max(add.to_bits(), Ordering::Relaxed);
        }
    }

    /// Total samples recorded.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// A point-in-time copy of the bucket counts and aggregates.
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            buckets: std::array::from_fn(|i| self.buckets[i].load(Ordering::Relaxed)),
            count: self.count.load(Ordering::Relaxed),
            sum: f64::from_bits(self.sum_bits.load(Ordering::Relaxed)),
            max: f64::from_bits(self.max_bits.load(Ordering::Relaxed)),
        }
    }
}

/// A plain-data copy of a [`Histogram`], the unit the registry snapshot,
/// quantile derivation, and merge operate on.
#[derive(Debug, Clone, PartialEq)]
pub struct HistogramSnapshot {
    /// Per-bucket sample counts (layout per module docs).
    pub buckets: [u64; NUM_BUCKETS],
    /// Total samples.
    pub count: u64,
    /// Sum of the (non-negative, finite) samples.
    pub sum: f64,
    /// Largest (non-negative, finite) sample.
    pub max: f64,
}

impl Default for HistogramSnapshot {
    fn default() -> Self {
        HistogramSnapshot {
            buckets: [0; NUM_BUCKETS],
            count: 0,
            sum: 0.0,
            max: 0.0,
        }
    }
}

impl HistogramSnapshot {
    /// Element-wise merge: bucket and total counts add, sums add, max is
    /// the max. Counts and max merge associatively and exactly; the f64
    /// sum is associative up to float rounding.
    pub fn merge(&mut self, other: &HistogramSnapshot) {
        for (a, b) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *a += *b;
        }
        self.count += other.count;
        self.sum += other.sum;
        self.max = self.max.max(other.max);
    }

    /// The bucket index holding rank `⌈q·count⌉` (nearest-rank quantile),
    /// or `None` on an empty histogram.
    pub fn quantile_bucket(&self, q: f64) -> Option<usize> {
        if self.count == 0 {
            return None;
        }
        let rank = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, b) in self.buckets.iter().enumerate() {
            seen += b;
            if seen >= rank {
                return Some(i);
            }
        }
        Some(NUM_BUCKETS - 1)
    }

    /// The quantile as a value: the upper bound of the rank's bucket, or
    /// the observed max for samples that landed in the `+Inf` bucket.
    /// Exact to within one bucket boundary of the sorted-order quantile.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        let i = self.quantile_bucket(q)?;
        Some(if i < FINITE_BUCKETS {
            bucket_bound(i)
        } else {
            self.max
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bounds_increase_and_bracket_their_bucket() {
        for i in 1..FINITE_BUCKETS {
            assert!(bucket_bound(i) > bucket_bound(i - 1));
        }
        // A value strictly inside a bucket maps back to that bucket.
        for i in 1..FINITE_BUCKETS {
            let mid = (bucket_bound(i - 1) * bucket_bound(i)).sqrt();
            assert_eq!(bucket_index(mid), i, "midpoint of bucket {i}");
        }
    }

    #[test]
    fn edge_values_land_in_edge_buckets() {
        assert_eq!(bucket_index(0.0), 0);
        assert_eq!(bucket_index(-3.0), 0);
        assert_eq!(bucket_index(f64::NAN), 0);
        assert_eq!(bucket_index(1e-300), 0);
        assert_eq!(bucket_index(1e300), FINITE_BUCKETS);
        assert_eq!(bucket_index(f64::INFINITY), FINITE_BUCKETS);
    }

    #[test]
    fn observe_tracks_count_sum_max() {
        let h = Histogram::new();
        for v in [0.5, 2.0, 8.0, 8.0] {
            h.observe(v);
        }
        let s = h.snapshot();
        assert_eq!(s.count, 4);
        assert!((s.sum - 18.5).abs() < 1e-12);
        assert_eq!(s.max, 8.0);
        assert_eq!(s.buckets.iter().sum::<u64>(), 4);
    }

    #[test]
    fn quantile_of_point_mass_is_its_bucket_bound() {
        let h = Histogram::new();
        for _ in 0..100 {
            h.observe(3.0);
        }
        let s = h.snapshot();
        let b = bucket_index(3.0);
        for q in [0.0, 0.5, 0.9, 0.99, 1.0] {
            assert_eq!(s.quantile_bucket(q), Some(b));
            let v = s.quantile(q).unwrap();
            assert!((3.0..=3.0 * std::f64::consts::SQRT_2 * 1.0001).contains(&v));
        }
        assert_eq!(HistogramSnapshot::default().quantile(0.5), None);
    }

    #[test]
    fn merge_adds_counts() {
        let a = Histogram::new();
        let b = Histogram::new();
        a.observe(1.0);
        a.observe(4.0);
        b.observe(4.0);
        let mut sa = a.snapshot();
        let sb = b.snapshot();
        sa.merge(&sb);
        assert_eq!(sa.count, 3);
        assert_eq!(sa.buckets[bucket_index(4.0)], 2);
    }
}
