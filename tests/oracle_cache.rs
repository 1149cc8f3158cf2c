//! The corner sweep's shared raw-metric memo (DESIGN.md §14), driven
//! through `CornerOracle`, the only way a sweep reaches it.
//!
//! * Corners that ask for the same point at the same time share one
//!   simulation: the second waits for the first's bits.
//! * A simulation that panics stores nothing, so the next request for
//!   the point simulates it.
//! * Entries are keyed on the oracle id and the input's **raw IEEE-754
//!   bits**: distinct bit patterns never alias — not ±0.0, which `==`
//!   calls equal, nor two NaN payloads — and distinct oracle ids never
//!   read each other's results.

use nofis::prob::LimitState;
use nofis::sweep::{CornerOracle, OracleMemo};
use nofis::testcases::CornerFamily;
use proptest::prelude::*;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Barrier};
use std::time::Duration;

/// A one-corner family whose raw metric answers the `n`-th simulation
/// with `n` (from 0), so a memo hit is told apart from a fresh
/// simulation by its value. `value` and `value_grad` count separately.
/// Optionally every simulation sleeps first, and the first few panic.
#[derive(Default)]
struct Tagged {
    id: u64,
    delay: Duration,
    panics: AtomicU64,
    values: AtomicU64,
    grads: AtomicU64,
}

impl Tagged {
    fn with_id(id: u64) -> Self {
        Tagged {
            id,
            ..Default::default()
        }
    }

    fn simulate(&self, counter: &AtomicU64) -> f64 {
        std::thread::sleep(self.delay);
        if self
            .panics
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |n| n.checked_sub(1))
            .is_ok()
        {
            panic!("simulator crashed");
        }
        counter.fetch_add(1, Ordering::Relaxed) as f64
    }
}

impl CornerFamily for Tagged {
    fn dim(&self) -> usize {
        2
    }
    fn name(&self) -> &str {
        "tagged"
    }
    fn oracle_id(&self) -> u64 {
        self.id
    }
    fn corners(&self) -> usize {
        2
    }
    fn corner_params(&self, corner: usize) -> Vec<f64> {
        vec![corner as f64]
    }
    fn corner_label(&self, corner: usize) -> String {
        format!("t{corner}")
    }
    fn raw(&self, _x: &[f64]) -> f64 {
        self.simulate(&self.values)
    }
    fn raw_grad(&self, x: &[f64]) -> (f64, Vec<f64>) {
        (self.simulate(&self.grads), vec![1.0; x.len()])
    }
    fn threshold(&self, _corner: usize) -> f64 {
        0.0
    }
}

#[test]
fn concurrent_requests_for_one_point_share_one_simulation() {
    let family = Arc::new(Tagged {
        delay: Duration::from_millis(50),
        ..Default::default()
    });
    let memo = Arc::new(OracleMemo::new());
    let corners: Vec<_> = (0..2)
        .map(|c| {
            Arc::new(CornerOracle::new(
                Arc::clone(&family),
                c,
                Some(Arc::clone(&memo)),
            ))
        })
        .collect();
    let barrier = Arc::new(Barrier::new(2));
    let x = [0.25, -1.5];
    let answers: Vec<(u64, (u64, Vec<f64>))> = corners
        .iter()
        .map(|o| {
            let (o, barrier) = (Arc::clone(o), Arc::clone(&barrier));
            std::thread::spawn(move || {
                barrier.wait();
                let v = o.value(&x).to_bits();
                barrier.wait();
                let (vg, g) = o.value_grad(&x);
                (v, (vg.to_bits(), g))
            })
        })
        .collect::<Vec<_>>()
        .into_iter()
        .map(|h| h.join().unwrap())
        .collect();

    assert_eq!(family.values.load(Ordering::Relaxed), 1, "one value sim");
    assert_eq!(family.grads.load(Ordering::Relaxed), 1, "one gradient sim");
    assert_eq!(answers[0], answers[1], "both corners see the same bits");
    for o in &corners {
        assert_eq!(o.evals(), 2);
        assert_eq!(o.real_calls() + o.cache_hits(), o.evals());
    }
    let real: u64 = corners.iter().map(|o| o.real_calls()).sum();
    let hits: u64 = corners.iter().map(|o| o.cache_hits()).sum();
    assert_eq!((real, hits), (2, 2), "a wait counts as a hit");
    assert_eq!(memo.len(), 2);
}

#[test]
fn a_panicking_simulation_leaves_the_point_unsimulated() {
    let family = Arc::new(Tagged {
        panics: AtomicU64::new(1),
        ..Default::default()
    });
    let memo = Arc::new(OracleMemo::new());
    let o = CornerOracle::new(Arc::clone(&family), 0, Some(Arc::clone(&memo)));
    let x = [1.0, 2.0];
    let crashed = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| o.value(&x)));
    assert!(crashed.is_err());
    assert!(memo.is_empty(), "a panic stores nothing");
    assert_eq!(
        (o.real_calls(), o.cache_hits()),
        (1, 0),
        "it ran, it crashed"
    );

    assert_eq!(o.value(&x), 0.0, "the next request simulates the point");
    assert_eq!(o.value(&x), 0.0, "and later ones hit");
    assert_eq!(family.values.load(Ordering::Relaxed), 1);
    assert_eq!((o.evals(), o.real_calls(), o.cache_hits()), (3, 2, 1));
    assert_eq!(memo.len(), 1);
}

/// The pathological corners of the f64 format.
const SPECIALS: [u64; 9] = [
    0x7ff8_0000_0000_0000, // canonical quiet NaN
    0x7ff8_0000_0000_0001, // quiet NaN, payload 1
    0xfff8_dead_beef_0001, // negative NaN, junk payload
    0x7ff0_0000_0000_0001, // signaling NaN
    0x0000_0000_0000_0000, // +0.0
    0x8000_0000_0000_0000, // -0.0
    0x7ff0_0000_0000_0000, // +inf
    0xfff0_0000_0000_0000, // -inf
    0x0000_0000_0000_0001, // smallest subnormal
];

/// Maps raw bit soup onto a mix of special patterns (roughly half) and
/// arbitrary bits, deterministically per drawn element.
fn weirden(raw: &[u64]) -> Vec<u64> {
    raw.iter()
        .map(|&b| {
            if b % 2 == 0 {
                SPECIALS[(b >> 1) as usize % SPECIALS.len()]
            } else {
                b
            }
        })
        .collect()
}

fn to_f64s(bits: &[u64]) -> Vec<f64> {
    bits.iter().copied().map(f64::from_bits).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Two inputs with distinct bit patterns never alias: each gets its
    /// own simulation and reads back its own result.
    #[test]
    fn distinct_bit_patterns_never_alias(
        a_raw in prop::collection::vec(0u64..u64::MAX, 1..8),
        b_raw in prop::collection::vec(0u64..u64::MAX, 1..8),
        id in 0u64..u64::MAX,
    ) {
        let (a, b) = (weirden(&a_raw), weirden(&b_raw));
        if a == b {
            return Ok(()); // drew the same pattern twice: nothing to test
        }
        let (xa, xb) = (to_f64s(&a), to_f64s(&b));
        let memo = Arc::new(OracleMemo::new());
        let o = CornerOracle::new(Arc::new(Tagged::with_id(id)), 0, Some(Arc::clone(&memo)));
        prop_assert_eq!(o.value(&xa), 0.0);
        prop_assert_eq!(o.value(&xb), 1.0);
        prop_assert_eq!(o.value(&xa), 0.0);
        prop_assert_eq!(o.value(&xb), 1.0);
        prop_assert_eq!(memo.len(), 2);
        prop_assert_eq!(o.real_calls(), 2);
    }

    /// Distinct oracle ids partition the memo even for identical inputs:
    /// corner families with different raw metrics can share one memo
    /// without reading each other's simulations.
    #[test]
    fn oracle_ids_partition_the_cache(
        x_raw in prop::collection::vec(0u64..u64::MAX, 1..8),
        id1 in 0u64..u64::MAX,
        id2 in 0u64..u64::MAX,
    ) {
        if id1 == id2 {
            return Ok(());
        }
        let x = to_f64s(&weirden(&x_raw));
        let memo = Arc::new(OracleMemo::new());
        let one = Arc::new(Tagged::with_id(id1));
        let two = Arc::new(Tagged::with_id(id2));
        let o1 = CornerOracle::new(Arc::clone(&one), 0, Some(Arc::clone(&memo)));
        let o2 = CornerOracle::new(Arc::clone(&two), 0, Some(Arc::clone(&memo)));
        prop_assert_eq!(o1.value(&x), 0.0);
        prop_assert_eq!(o2.value(&x), 0.0);
        prop_assert_eq!(o2.real_calls(), 1);
        prop_assert_eq!(o1.value(&x), 0.0);
        prop_assert_eq!(o2.value(&x), 0.0);
        prop_assert_eq!(memo.len(), 2);
        prop_assert_eq!(one.values.load(Ordering::Relaxed), 1);
        prop_assert_eq!(two.values.load(Ordering::Relaxed), 1);
    }
}

/// The textbook aliasing traps, pinned deterministically: −0.0 vs +0.0
/// (equal under `==`) and NaN payloads (unequal to themselves under
/// `==`) each get their own entry and read back their own value.
#[test]
fn signed_zeros_and_nan_payloads_get_distinct_entries() {
    let memo = Arc::new(OracleMemo::new());
    let o = CornerOracle::new(Arc::new(Tagged::with_id(42)), 0, Some(Arc::clone(&memo)));
    let nan1 = f64::from_bits(0x7ff8_0000_0000_0001);
    let nan2 = f64::from_bits(0x7ff8_0000_0000_0002);
    let points = [[0.0, 1.0], [-0.0, 1.0], [nan1, 1.0], [nan2, 1.0]];
    for (n, x) in points.iter().enumerate() {
        assert_eq!(o.value(x), n as f64, "{x:?} aliased an earlier point");
    }
    assert_eq!(memo.len(), 4);
    for (n, x) in points.iter().enumerate() {
        assert_eq!(o.value(x), n as f64, "{x:?} read another point's entry");
    }
    assert_eq!((o.real_calls(), o.cache_hits()), (4, 4));
}
