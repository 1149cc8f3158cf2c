//! Content-addressed oracle-result cache shared across co-tenant jobs.
//!
//! A corner sweep asks a *family* of limit states the same expensive
//! question at nearby points: every corner's `g_i(x)` is a cheap
//! per-corner shift of one shared simulator metric. When two corner jobs
//! evaluate the identical input vector — which common-random-number
//! seeding makes routine — the second simulation is pure waste. An
//! [`OracleCache`] memoizes results by *content address*: the key is
//! FNV-1a over the input vector's raw IEEE-754 bits plus a caller-chosen
//! 64-bit oracle id, so the same `x` under the same oracle id hits
//! regardless of which job, thread, or corner asks.
//!
//! # Key format
//!
//! The composed key hashes, in order: the oracle id's 8 little-endian
//! bytes, then each coordinate's `f64::to_bits()` as 8 little-endian
//! bytes, through FNV-1a (offset `0xcbf2_9ce4_8422_2325`, prime
//! `0x0000_0100_0000_01b3`). Raw bits — not numeric equality — are the
//! identity: `-0.0` and `+0.0` are *distinct* entries, and distinct NaN
//! payloads are distinct entries. This is deliberate: the cache must be
//! invisible to the determinism contract, and a simulator is free to
//! treat `-0.0` and `+0.0` differently.
//!
//! The 64-bit FNV value is only a bucket locator. Entries are stored
//! under the **full** `(oracle id, bit pattern)` key and compared with
//! exact equality, so an FNV collision degrades to a lookup miss /
//! bucket neighbor — it can never return the wrong cached value.
//!
//! # Determinism contract
//!
//! Cached values are the bit-for-bit results of the first evaluation.
//! Turning the cache on or off changes *call counts*, never *values*;
//! hit/miss/insert counters flow to telemetry under the workspace's
//! "observe but never influence" rule (DESIGN.md §10).

use nofis_telemetry as tele;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// FNV-1a offset basis (64-bit).
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
/// FNV-1a prime (64-bit).
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Number of independently locked shards. Power of two; bounds lock
/// contention when many corner jobs share one cache.
const SHARDS: usize = 16;

/// The composed content-address: FNV-1a over the oracle id's bytes
/// followed by each coordinate's raw IEEE-754 bits (little-endian).
///
/// Exposed so tests and trace tooling can reproduce the key exactly.
/// This is a *locator*, not the identity — see the module docs.
#[must_use]
pub fn cache_key(oracle_id: u64, x: &[f64]) -> u64 {
    let mut h = FNV_OFFSET;
    for b in oracle_id.to_le_bytes() {
        h = (h ^ u64::from(b)).wrapping_mul(FNV_PRIME);
    }
    for &xi in x {
        for b in xi.to_bits().to_le_bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(FNV_PRIME);
        }
    }
    h
}

/// A plain-`u64` pass-through hasher: map keys are already FNV-1a
/// digests, so re-hashing them would only discard avalanche quality.
#[derive(Default)]
struct IdentityHasher(u64);

impl Hasher for IdentityHasher {
    fn finish(&self) -> u64 {
        self.0
    }
    fn write(&mut self, _bytes: &[u8]) {
        unreachable!("identity hasher only accepts u64 keys");
    }
    fn write_u64(&mut self, n: u64) {
        self.0 = n;
    }
}

/// Full identity of one cached evaluation: the oracle id and the exact
/// bit pattern of the input vector. `Eq` on this struct is what makes a
/// 64-bit digest collision harmless.
#[derive(PartialEq, Eq)]
struct FullKey {
    oracle_id: u64,
    bits: Box<[u64]>,
}

impl std::hash::Hash for FullKey {
    fn hash<H: Hasher>(&self, state: &mut H) {
        // Re-derive the FNV digest so bucket placement is deterministic
        // across processes (std's default RandomState is not).
        let mut h = FNV_OFFSET;
        for b in self.oracle_id.to_le_bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(FNV_PRIME);
        }
        for &w in self.bits.iter() {
            for b in w.to_le_bytes() {
                h = (h ^ u64::from(b)).wrapping_mul(FNV_PRIME);
            }
        }
        state.write_u64(h);
    }
}

/// One memoized evaluation. The gradient is optional: a `value`-only
/// entry cannot serve a `value_grad` request (that would silently drop
/// sensitivities), so such a request re-evaluates and upgrades the entry.
struct Entry {
    value: f64,
    grad: Option<Box<[f64]>>,
}

type Shard = Mutex<HashMap<FullKey, Entry, BuildHasherDefault<IdentityHasher>>>;

/// Monotonic counters describing cache traffic. Snapshot via
/// [`OracleCache::stats`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Lookups answered from the cache (no simulator call).
    pub hits: u64,
    /// Lookups that fell through to the simulator.
    pub misses: u64,
    /// Entries written (first-time inserts and gradient upgrades).
    pub inserts: u64,
}

impl CacheStats {
    /// Hit fraction in `[0, 1]`; 0 when no lookups happened.
    #[must_use]
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// A thread-safe, content-addressed store of oracle evaluations.
///
/// Share one instance (behind an `Arc`) across every job of a corner
/// sweep; key traffic by the family's oracle id so unrelated families
/// never alias. See the module docs for the key format and the
/// determinism contract.
///
/// # Example
///
/// ```
/// use nofis_prob::OracleCache;
///
/// let cache = OracleCache::new();
/// let x = [0.25, -1.5];
/// assert_eq!(cache.get_value(7, &x), None);
/// cache.insert_value(7, &x, 3.5);
/// assert_eq!(cache.get_value(7, &x), Some(3.5));
/// assert_eq!(cache.get_value(8, &x), None); // different oracle id
/// assert_eq!(cache.stats().hits, 1);
/// ```
pub struct OracleCache {
    shards: Vec<Shard>,
    hits: AtomicU64,
    misses: AtomicU64,
    inserts: AtomicU64,
}

impl Default for OracleCache {
    fn default() -> Self {
        Self::new()
    }
}

impl std::fmt::Debug for OracleCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("OracleCache")
            .field("entries", &self.len())
            .field("stats", &self.stats())
            .finish()
    }
}

impl OracleCache {
    /// An empty cache.
    #[must_use]
    pub fn new() -> Self {
        OracleCache {
            shards: (0..SHARDS).map(|_| Shard::default()).collect(),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            inserts: AtomicU64::new(0),
        }
    }

    fn shard(&self, digest: u64) -> &Shard {
        &self.shards[(digest as usize) & (SHARDS - 1)]
    }

    fn full_key(oracle_id: u64, x: &[f64]) -> FullKey {
        FullKey {
            oracle_id,
            bits: x.iter().map(|v| v.to_bits()).collect(),
        }
    }

    fn record(&self, hit: bool) {
        if hit {
            self.hits.fetch_add(1, Ordering::Relaxed);
        } else {
            self.misses.fetch_add(1, Ordering::Relaxed);
        }
        if tele::enabled(tele::Level::Trace) {
            let name = if hit { "cache.hit" } else { "cache.miss" };
            tele::counter(tele::Level::Trace, name, 1).emit();
        }
    }

    /// Looks up a cached `g(x)` value. Counts a hit or miss.
    pub fn get_value(&self, oracle_id: u64, x: &[f64]) -> Option<f64> {
        let digest = cache_key(oracle_id, x);
        let key = Self::full_key(oracle_id, x);
        let found = self
            .shard(digest)
            .lock()
            .expect("cache shard poisoned")
            .get(&key)
            .map(|e| e.value);
        self.record(found.is_some());
        found
    }

    /// Looks up a cached `(g(x), ∇g(x))` pair. A value-only entry does
    /// **not** satisfy this request (counts as a miss); the caller should
    /// re-evaluate with gradients and upgrade via
    /// [`OracleCache::insert_value_grad`].
    pub fn get_value_grad(&self, oracle_id: u64, x: &[f64]) -> Option<(f64, Vec<f64>)> {
        let digest = cache_key(oracle_id, x);
        let key = Self::full_key(oracle_id, x);
        let found = self
            .shard(digest)
            .lock()
            .expect("cache shard poisoned")
            .get(&key)
            .and_then(|e| e.grad.as_ref().map(|g| (e.value, g.to_vec())));
        self.record(found.is_some());
        found
    }

    /// Stores a value-only evaluation. First write wins: re-inserting an
    /// existing key keeps the original entry (the first evaluation is the
    /// published bit pattern), but never downgrades a gradient entry.
    pub fn insert_value(&self, oracle_id: u64, x: &[f64], value: f64) {
        let digest = cache_key(oracle_id, x);
        let key = Self::full_key(oracle_id, x);
        let mut shard = self.shard(digest).lock().expect("cache shard poisoned");
        if let std::collections::hash_map::Entry::Vacant(slot) = shard.entry(key) {
            slot.insert(Entry { value, grad: None });
            drop(shard);
            self.note_insert();
        }
    }

    /// Stores (or upgrades to) a gradient-carrying evaluation. First
    /// gradient write wins; a value-only entry is upgraded in place
    /// keeping its original value bits.
    pub fn insert_value_grad(&self, oracle_id: u64, x: &[f64], value: f64, grad: &[f64]) {
        let digest = cache_key(oracle_id, x);
        let key = Self::full_key(oracle_id, x);
        let mut shard = self.shard(digest).lock().expect("cache shard poisoned");
        match shard.get_mut(&key) {
            Some(e) => {
                if e.grad.is_none() {
                    // Keep the published value bits; attach sensitivities.
                    e.grad = Some(grad.into());
                    drop(shard);
                    self.note_insert();
                }
            }
            None => {
                shard.insert(
                    key,
                    Entry {
                        value,
                        grad: Some(grad.into()),
                    },
                );
                drop(shard);
                self.note_insert();
            }
        }
    }

    fn note_insert(&self) {
        self.inserts.fetch_add(1, Ordering::Relaxed);
        if tele::enabled(tele::Level::Trace) {
            tele::counter(tele::Level::Trace, "cache.insert", 1).emit();
        }
    }

    /// Number of distinct entries currently stored.
    #[must_use]
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.lock().expect("cache shard poisoned").len())
            .sum()
    }

    /// Whether the cache holds no entries.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// A snapshot of the traffic counters. Pure read; never emits.
    #[must_use]
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            inserts: self.inserts.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn oracle_ids_partition_the_namespace() {
        let cache = OracleCache::new();
        let x = [1.0];
        cache.insert_value(1, &x, 10.0);
        cache.insert_value(2, &x, 20.0);
        assert_eq!(cache.get_value(1, &x), Some(10.0));
        assert_eq!(cache.get_value(2, &x), Some(20.0));
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn signed_zeros_are_distinct_entries() {
        let cache = OracleCache::new();
        cache.insert_value(0, &[0.0], 1.0);
        cache.insert_value(0, &[-0.0], 2.0);
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.get_value(0, &[0.0]), Some(1.0));
        assert_eq!(cache.get_value(0, &[-0.0]), Some(2.0));
        assert_ne!(cache_key(0, &[0.0]), cache_key(0, &[-0.0]));
    }

    #[test]
    fn nan_payloads_are_distinct_entries() {
        let cache = OracleCache::new();
        let quiet = f64::from_bits(0x7ff8_0000_0000_0001);
        let other = f64::from_bits(0x7ff8_0000_0000_0002);
        assert!(quiet.is_nan() && other.is_nan());
        cache.insert_value(0, &[quiet], 1.0);
        cache.insert_value(0, &[other], 2.0);
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.get_value(0, &[quiet]), Some(1.0));
        assert_eq!(cache.get_value(0, &[other]), Some(2.0));
    }

    #[test]
    fn first_insert_wins() {
        let cache = OracleCache::new();
        let x = [5.0];
        cache.insert_value(0, &x, 1.0);
        cache.insert_value(0, &x, 999.0);
        assert_eq!(cache.get_value(0, &x), Some(1.0));
        cache.insert_value_grad(0, &x, 999.0, &[7.0]);
        // Value bits survive the gradient upgrade.
        assert_eq!(cache.get_value(0, &x), Some(1.0));
        assert_eq!(cache.get_value_grad(0, &x), Some((1.0, vec![7.0])));
    }

    #[test]
    fn key_is_order_and_length_sensitive() {
        assert_ne!(cache_key(0, &[1.0, 2.0]), cache_key(0, &[2.0, 1.0]));
        assert_ne!(cache_key(0, &[1.0]), cache_key(0, &[1.0, 0.0]));
        assert_ne!(cache_key(0, &[]), cache_key(1, &[]));
        // FNV-1a of the empty input under id 0: eight zero bytes mixed in.
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for _ in 0..8 {
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        assert_eq!(cache_key(0, &[]), h);
    }

    #[test]
    fn concurrent_mixed_traffic_is_consistent() {
        let cache = Arc::new(OracleCache::new());
        let mut handles = Vec::new();
        for t in 0..4u64 {
            let cache = Arc::clone(&cache);
            handles.push(std::thread::spawn(move || {
                for i in 0..200u64 {
                    let x = [(i % 50) as f64, t as f64 % 2.0];
                    if let Some(v) = cache.get_value(7, &x) {
                        assert_eq!(v, x[0] + x[1]);
                    } else {
                        cache.insert_value(7, &x, x[0] + x[1]);
                    }
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        // 50 distinct x[0] values × 2 distinct x[1] values.
        assert_eq!(cache.len(), 100);
        let s = cache.stats();
        assert_eq!(s.hits + s.misses, 800);
    }
}
