//! Corner-sweep engine integration (DESIGN.md §14).
//!
//! Pins the sweep's determinism contract on a 3×3 warm-started PVT grid:
//!
//! * Per-corner estimates are **bitwise identical** with the shared
//!   oracle cache on or off, and at any runner worker count — the cache
//!   and the schedule may change *call counts*, never values.
//! * A corner re-run cold and solo (no runner, no cache, no co-tenants)
//!   reproduces its sweep estimate bitwise.
//! * Warm-started corners request strictly fewer oracle evaluations than
//!   the cold control corner.
//!
//! CI runs this file under `NOFIS_THREADS=1` and `NOFIS_THREADS=4`, so
//! the same comparisons are also exercised at both pool widths.

use nofis::core::{Levels, Nofis, NofisConfig};
use nofis::sweep::{run_sweep, CornerOracle, SweepConfig, SweepReport};
use nofis::testcases::PvtGrid;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::path::PathBuf;
use std::sync::Arc;

// Matches examples/pvt_sweep.rs: a budget large enough that every corner
// stays on the final-proposal rung, so eval counts reflect the schedule
// alone (a rung fallback would draw extra diagnostic samples).
fn base_config() -> NofisConfig {
    NofisConfig {
        levels: Levels::Fixed(vec![2.0, 0.0]),
        layers_per_stage: 2,
        hidden: 8,
        epochs: 6,
        batch_size: 48,
        minibatch: 16,
        n_is: 200,
        tau: 5.0,
        learning_rate: 5e-3,
        ..Default::default()
    }
}

fn family() -> Arc<PvtGrid> {
    Arc::new(PvtGrid::opamp(3, 3).with_base_spec(76.0))
}

fn fresh_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("nofis-sweep-it-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn sweep(tag: &str, cache: bool, workers: usize) -> SweepReport {
    let dir = fresh_dir(tag);
    let mut cfg = SweepConfig::new(base_config(), &dir);
    cfg.seed = 7;
    cfg.workers = workers;
    cfg.warm_epochs = 2;
    cfg.cache = cache;
    let report = run_sweep(family(), &cfg).expect("sweep config is valid");
    let _ = std::fs::remove_dir_all(&dir);
    report
}

#[test]
fn estimates_are_bitwise_identical_across_cache_and_worker_settings() {
    let cached_seq = sweep("cached-w1", true, 1);
    let cached_par = sweep("cached-w3", true, 3);
    let uncached = sweep("plain-w2", false, 2);

    for r in [&cached_seq, &cached_par, &uncached] {
        assert!(r.all_ok(), "all corners must estimate: {:?}", r.corners);
    }
    for ((a, b), c) in cached_seq
        .corners
        .iter()
        .zip(&cached_par.corners)
        .zip(&uncached.corners)
    {
        let bits = a.estimate.unwrap().to_bits();
        assert_eq!(
            bits,
            b.estimate.unwrap().to_bits(),
            "worker count changed corner {}",
            a.label
        );
        assert_eq!(
            bits,
            c.estimate.unwrap().to_bits(),
            "cache changed corner {}",
            a.label
        );
        // The *requested* evaluation count is schedule-determined, hence
        // identical in all three runs; only the simulator-call split moves.
        assert_eq!(a.evals, b.evals);
        assert_eq!(a.evals, c.evals);
        assert_eq!(c.cache_hits, 0, "no cache, no hits");
        assert_eq!(c.real_calls, c.evals);
        assert_eq!(a.real_calls + a.cache_hits, a.evals);
    }

    // With sequential workers the cache hits are deterministic: sibling
    // corners share donor parameters and the CRN seed, so the second
    // sibling's early minibatches re-request the first's points.
    let totals = cached_seq.cache.expect("cache totals recorded");
    assert!(totals.hits > 0, "co-tenant corners must share simulations");
    assert!(
        cached_seq.total_real_calls < uncached.total_real_calls,
        "cache hits must reduce simulator traffic ({} vs {})",
        cached_seq.total_real_calls,
        uncached.total_real_calls
    );
    assert_eq!(cached_seq.total_evals, uncached.total_evals);
    assert_eq!(cached_par.total_real_calls, cached_seq.total_real_calls);
}

#[test]
fn warm_corners_spend_strictly_fewer_evals_than_the_cold_control() {
    let report = sweep("warm-accounting", true, 2);
    let cold = report.corners.iter().find(|c| c.wave == 0).unwrap();
    assert!(!cold.warm);
    let warm: Vec<_> = report.corners.iter().filter(|c| c.warm).collect();
    assert_eq!(warm.len(), 8, "all non-seed corners find finished donors");
    for c in &warm {
        assert!(
            c.evals < cold.evals,
            "warm corner {} ({} evals) must undercut cold {} ({} evals)",
            c.label,
            c.evals,
            cold.label,
            cold.evals
        );
        assert!(c.donor.is_some());
        assert_eq!(c.epochs, 2);
    }
    assert_eq!(cold.epochs, 6);
}

#[test]
fn a_corner_rerun_cold_and_solo_reproduces_its_sweep_estimate_bitwise() {
    let report = sweep("solo-check", true, 3);
    let center = report.corners.iter().find(|c| c.wave == 0).unwrap();

    // Same corner, no runner, no cache, no co-tenants, no checkpointing —
    // the sweep's supervision and reuse machinery must be invisible.
    let oracle = CornerOracle::new(family(), center.corner, None);
    let nofis = Nofis::new(base_config()).unwrap();
    let mut rng = StdRng::seed_from_u64(7);
    let (_, solo) = nofis.run(&oracle, &mut rng).unwrap();
    assert_eq!(
        solo.estimate.to_bits(),
        center.estimate.unwrap().to_bits(),
        "solo cold re-run of {} must reproduce the sweep bitwise",
        center.label
    );
    assert_eq!(oracle.evals(), center.evals);
}

#[test]
fn cold_sweep_disables_every_reuse_mechanism() {
    let dir = fresh_dir("cold-baseline");
    let mut cfg = SweepConfig::new(base_config(), &dir);
    cfg.seed = 7;
    cfg.workers = 1;
    cfg.warm = false;
    cfg.cache = false;
    let report = run_sweep(family(), &cfg).expect("sweep config is valid");
    let _ = std::fs::remove_dir_all(&dir);

    assert!(report.all_ok());
    assert!(report.cache.is_none());
    for c in &report.corners {
        assert!(!c.warm);
        assert!(c.donor.is_none());
        assert_eq!(c.epochs, 6);
        assert_eq!(c.real_calls, c.evals);
        assert_eq!(c.cache_hits, 0);
    }
}
