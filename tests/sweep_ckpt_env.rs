//! `NOFIS_CKPT_DIR` must not redirect a sweep's explicit checkpoint
//! directory (DESIGN.md §11): the sweep finds warm-start donors under
//! `SweepConfig::checkpoint_dir`, so corners that wrote elsewhere would
//! all train cold.
//!
//! The environment is process-global, so this binary holds one test.

use nofis::core::{Levels, NofisConfig};
use nofis::sweep::{run_sweep, SweepConfig};
use nofis::testcases::PvtGrid;
use std::sync::Arc;

#[test]
fn env_checkpoint_dir_leaves_sweep_warm_starts_on() {
    let tmp = std::env::temp_dir().join(format!("nofis-sweep-ckpt-env-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&tmp);
    let env_dir = tmp.join("env");
    let sweep_dir = tmp.join("sweep");
    std::env::set_var("NOFIS_CKPT_DIR", &env_dir);

    // The 3×3 grid and config of tests/corner_sweep.rs.
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
    let mut cfg = SweepConfig::new(base, &sweep_dir);
    cfg.seed = 7;
    cfg.workers = 2;
    cfg.warm_epochs = 2;
    let report = run_sweep(Arc::new(PvtGrid::opamp(3, 3).with_base_spec(76.0)), &cfg)
        .expect("sweep config is valid");

    let env_files = std::fs::read_dir(&env_dir).map_or(0, |d| d.count());
    let _ = std::fs::remove_dir_all(&tmp);
    assert!(
        report.all_ok(),
        "all corners must estimate: {:?}",
        report.corners
    );
    let warm = report.corners.iter().filter(|c| c.warm).count();
    assert_eq!(warm, 8, "every corner but the seed must warm-start");
    assert_eq!(env_files, 0, "nothing may be written under NOFIS_CKPT_DIR");
}
