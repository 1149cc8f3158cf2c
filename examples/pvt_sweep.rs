//! Corner-sweep demo: estimate the op-amp's failure probability across a
//! 3×3 voltage × temperature grid with the `nofis-sweep` workload engine
//! (DESIGN.md §14).
//!
//! The engine runs the grid as one scheduled workload: the center corner
//! trains cold, every other corner warm-starts from its nearest finished
//! neighbor on a shortened refine schedule, and all corners share one
//! memo of the op-amp's gain simulation. The final
//! lines print machine-checkable invariants (CI greps for them):
//!
//! * `warm-evals-ok` — every warm corner requested strictly fewer oracle
//!   evaluations than the cold control corner.
//! * `sweep-ok` — all corners produced estimates.
//!
//! ```text
//! cargo run --release --example pvt_sweep
//! ```

use nofis::core::{Levels, NofisConfig};
use nofis::sweep::{run_sweep, SweepConfig};
use nofis::testcases::PvtGrid;
use std::sync::Arc;

fn main() {
    let dir = std::env::temp_dir().join(format!("nofis-pvt-sweep-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    // A gentler spec than the calibrated 72.96 dB keeps the failure
    // event common enough for a demo-sized budget.
    let family = Arc::new(PvtGrid::opamp(3, 3).with_base_spec(76.0));

    let base = NofisConfig {
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
    };
    let mut cfg = SweepConfig::new(base, &dir);
    cfg.seed = 7;
    cfg.workers = 3;
    cfg.warm_epochs = 2;

    let report = run_sweep(family, &cfg).expect("sweep configuration is valid");

    println!("corner  wave  mode  donor  epochs  evals  sims  hits  estimate");
    for c in &report.corners {
        println!(
            "{:<7} {:<5} {:<5} {:<6} {:<7} {:<6} {:<5} {:<5} {}",
            c.label,
            c.wave,
            if c.warm { "warm" } else { "cold" },
            c.donor.as_deref().unwrap_or("-"),
            c.epochs,
            c.evals,
            c.real_calls,
            c.cache_hits,
            c.estimate
                .map(|e| format!("{e:.3e}"))
                .unwrap_or_else(|| c.error.clone().unwrap_or_default()),
        );
    }
    if let Some(cache) = &report.cache {
        println!(
            "cache: {} entries, {} hits / {} misses (hit rate {:.1}%)",
            cache.entries,
            cache.hits,
            cache.misses,
            100.0 * cache.hit_rate
        );
    }
    println!(
        "total: {} evals, {} simulator calls, {:.0} ms wall",
        report.total_evals, report.total_real_calls, report.wall_ms
    );

    // --- Machine-checkable invariants -----------------------------------
    assert!(report.all_ok(), "every corner must produce an estimate");
    let cold = report
        .corners
        .iter()
        .find(|c| c.wave == 0)
        .expect("wave 0 exists");
    let warm: Vec<_> = report.corners.iter().filter(|c| c.warm).collect();
    assert_eq!(warm.len(), 8, "every non-seed corner finds its donor");
    for c in &warm {
        assert!(
            c.evals < cold.evals,
            "warm corner {} spent {} evals, cold control {} spent {}",
            c.label,
            c.evals,
            cold.label,
            cold.evals
        );
    }
    println!(
        "warm-evals-ok: 8 warm corners < cold control ({} evals)",
        cold.evals
    );
    println!("sweep-ok: {} corners estimated", report.corners.len());

    let _ = std::fs::remove_dir_all(&dir);
}
