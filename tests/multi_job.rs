//! Multi-job runtime integration (DESIGN.md §12): the per-job determinism
//! contract under co-tenancy, the chaos matrix for the runner (an injected
//! job panic and queue overflow — every submitted job must reach a
//! terminal typed state, co-tenants must be unaffected bitwise), and
//! checkpoint namespacing across jobs that share one parent directory.
//!
//! Fault plans and telemetry sinks are process-global, so every test takes
//! the `GLOBAL` lock (cargo runs in-file tests on parallel threads).

use nofis::core::checkpoint::CheckpointConfig;
use nofis::core::{Levels, Nofis, NofisConfig};
use nofis::faults::{self, FaultPlan};
use nofis::jobs::{JobError, JobRunner, JobSpec, RunnerConfig, ShutdownMode};
use nofis::prob::{IsResult, LimitState};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::path::PathBuf;
use std::sync::{Arc, Mutex, MutexGuard};

static GLOBAL: Mutex<()> = Mutex::new(());

fn serial() -> MutexGuard<'static, ()> {
    GLOBAL.lock().unwrap_or_else(|e| e.into_inner())
}

struct HalfSpace {
    beta: f64,
}
impl LimitState for HalfSpace {
    fn dim(&self) -> usize {
        2
    }
    fn value(&self, x: &[f64]) -> f64 {
        self.beta - x[0]
    }
    fn value_grad(&self, x: &[f64]) -> (f64, Vec<f64>) {
        (self.beta - x[0], vec![-1.0, 0.0])
    }
    fn name(&self) -> &str {
        "halfspace"
    }
}

fn tiny_config() -> NofisConfig {
    NofisConfig {
        levels: Levels::Fixed(vec![1.0, 0.0]),
        layers_per_stage: 2,
        hidden: 8,
        epochs: 3,
        batch_size: 30,
        minibatch: 10,
        n_is: 150,
        tau: 10.0,
        learning_rate: 5e-3,
        ..Default::default()
    }
}

/// Ground truth: the identical run with nothing else in the process.
/// Checkpointing and co-tenancy must not change a single bit vs this.
fn solo(cfg: &NofisConfig, beta: f64, seed: u64) -> IsResult {
    let mut cfg = cfg.clone();
    cfg.checkpoint = None;
    let nofis = Nofis::new(cfg).unwrap();
    let mut rng = StdRng::seed_from_u64(seed);
    nofis.run(&HalfSpace { beta }, &mut rng).unwrap().1
}

fn assert_bitwise(label: &str, got: &IsResult, want: &IsResult) {
    assert_eq!(
        got.estimate.to_bits(),
        want.estimate.to_bits(),
        "{label}: estimate differs ({} vs {})",
        got.estimate,
        want.estimate
    );
    assert_eq!(got.hits, want.hits, "{label}: hits differ");
    assert_eq!(
        got.effective_sample_size.to_bits(),
        want.effective_sample_size.to_bits(),
        "{label}: ESS differs"
    );
    assert_eq!(
        got.std_error.to_bits(),
        want.std_error.to_bits(),
        "{label}: standard error differs"
    );
    assert_eq!(
        got.pareto_k.map(f64::to_bits),
        want.pareto_k.map(f64::to_bits),
        "{label}: Pareto k differs"
    );
}

fn fresh_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("nofis-multijob-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Satellite: per-job determinism under co-tenancy. Two different-seed
/// jobs running concurrently on the shared pool must each be
/// bitwise-identical to their solo runs — at whatever thread count the CI
/// matrix exports via `NOFIS_THREADS` (1 and 4).
#[test]
fn co_tenant_jobs_match_their_solo_runs_bitwise() {
    let _g = serial();
    let cfg = tiny_config();
    let solo_a = solo(&cfg, 2.0, 11);
    let solo_b = solo(&cfg, 2.5, 22);

    let runner = JobRunner::new(RunnerConfig {
        workers: 2,
        queue_capacity: 8,
    });
    let a = runner.submit(JobSpec::new(
        "tenant-a",
        cfg.clone(),
        Arc::new(HalfSpace { beta: 2.0 }),
        11,
    ));
    let b = runner.submit(JobSpec::new(
        "tenant-b",
        cfg,
        Arc::new(HalfSpace { beta: 2.5 }),
        22,
    ));
    let got_a = a.wait().expect("tenant-a should finish");
    let got_b = b.wait().expect("tenant-b should finish");
    runner.shutdown(ShutdownMode::Drain);

    assert_bitwise("tenant-a", &got_a, &solo_a);
    assert_bitwise("tenant-b", &got_b, &solo_b);
}

/// Regression (PR 7): consecutive jobs on ONE worker with *different
/// frozen-mask trajectories* must not leak `requires_grad` pruning state
/// (or, with the compiled engine, a stale `CompiledStep` pruning plan)
/// from one job into the next. A `freeze: true` job trains with earlier
/// stages frozen; a `freeze: false` job (the NoFreeze ablation) never
/// freezes anything — run back-to-back on the same worker, each must be
/// bitwise-identical to its solo run, in both submission orders and with
/// the compiled engine both on (default) and off.
#[test]
fn consecutive_jobs_with_different_frozen_masks_do_not_leak_pruning_state() {
    let _g = serial();
    for compile in [true, false] {
        let frozen_cfg = NofisConfig {
            compile_tape: compile,
            ..tiny_config()
        };
        let nofreeze_cfg = NofisConfig {
            freeze: false,
            compile_tape: compile,
            ..tiny_config()
        };
        let solo_frozen = solo(&frozen_cfg, 2.2, 31);
        let solo_nofreeze = solo(&nofreeze_cfg, 2.2, 31);

        for order in [0, 1] {
            let runner = JobRunner::new(RunnerConfig {
                workers: 1, // same worker reuses its Graph/tape across jobs
                queue_capacity: 4,
            });
            let specs = [
                JobSpec::new(
                    "frozen",
                    frozen_cfg.clone(),
                    Arc::new(HalfSpace { beta: 2.2 }),
                    31,
                ),
                JobSpec::new(
                    "nofreeze",
                    nofreeze_cfg.clone(),
                    Arc::new(HalfSpace { beta: 2.2 }),
                    31,
                ),
            ];
            let mut specs = Vec::from(specs);
            if order == 1 {
                specs.reverse();
            }
            let handles: Vec<_> = specs.into_iter().map(|s| runner.submit(s)).collect();
            let results: Vec<_> = handles
                .into_iter()
                .map(|h| h.wait().expect("job should finish"))
                .collect();
            runner.shutdown(ShutdownMode::Drain);
            let (got_frozen, got_nofreeze) = if order == 0 {
                (&results[0], &results[1])
            } else {
                (&results[1], &results[0])
            };
            assert_bitwise(
                &format!("frozen (compile={compile}, order={order})"),
                got_frozen,
                &solo_frozen,
            );
            assert_bitwise(
                &format!("nofreeze (compile={compile}, order={order})"),
                got_nofreeze,
                &solo_nofreeze,
            );
        }
    }
}

/// Acceptance criterion: with an injected job panic and queue overflow,
/// every submitted job reaches a terminal typed state (no hang) and the
/// unaffected co-tenant is bitwise-identical to its solo run.
#[test]
fn chaos_matrix_every_job_terminal_and_cotenants_unaffected() {
    let _g = serial();
    let cfg = tiny_config();
    let solo_survivor = solo(&cfg, 2.0, 77);

    // One worker makes the JobStart visit order the submission order:
    // visit 0 = "panics", visit 1 = "survivor" (the shed job never reaches
    // JobStart).
    faults::install(FaultPlan::parse("queue_overflow@0;job_panic@0").unwrap());
    let runner = JobRunner::new(RunnerConfig {
        workers: 1,
        queue_capacity: 8,
    });

    // JobSubmit visit 0: forced overflow on an empty queue sheds the
    // newcomer.
    let shed = runner.submit(JobSpec::new(
        "shed",
        cfg.clone(),
        Arc::new(HalfSpace { beta: 2.0 }),
        1,
    ));
    let panicked = runner.submit(JobSpec::new(
        "panics",
        cfg.clone(),
        Arc::new(HalfSpace { beta: 2.0 }),
        2,
    ));
    let survivor = runner.submit(JobSpec::new(
        "survivor",
        cfg,
        Arc::new(HalfSpace { beta: 2.0 }),
        77,
    ));

    assert_eq!(shed.wait(), Err(JobError::Shed { capacity: 8 }));
    match panicked.wait() {
        Err(JobError::Panicked { message }) => {
            assert!(message.contains("injected"), "unexpected panic: {message}")
        }
        other => panic!("expected Panicked, got {other:?}"),
    }
    let got_survivor = survivor.wait().expect("survivor must be unaffected");
    runner.shutdown(ShutdownMode::Drain);
    faults::clear();
    assert_bitwise("survivor", &got_survivor, &solo_survivor);
}

/// Satellite regression: two jobs sharing one checkpoint parent directory
/// must not clobber (or silently resume) each other's generations. The
/// runner auto-namespaces by job id + seed; before namespacing, job B
/// (same config, different seed) would have adopted job A's checkpoints —
/// same config fingerprint — and reproduced A's results.
#[test]
fn jobs_sharing_a_checkpoint_dir_do_not_clobber_each_other() {
    let _g = serial();
    let dir = fresh_dir("shared-ckpt");
    let mut cfg = tiny_config();
    let mut ckpt = CheckpointConfig::new(&dir);
    ckpt.every_steps = 1; // checkpoint at every minibatch boundary
    cfg.checkpoint = Some(ckpt);

    let solo_a = solo(&cfg, 2.0, 11);
    let solo_b = solo(&cfg, 2.0, 22);

    let runner = JobRunner::new(RunnerConfig {
        workers: 1,
        queue_capacity: 8,
    });
    let a = runner.submit(JobSpec::new(
        "ckpt-a",
        cfg.clone(),
        Arc::new(HalfSpace { beta: 2.0 }),
        11,
    ));
    let got_a = a.wait().expect("job A should finish");
    let b = runner.submit(JobSpec::new(
        "ckpt-b",
        cfg,
        Arc::new(HalfSpace { beta: 2.0 }),
        22,
    ));
    let got_b = b.wait().expect("job B should finish");
    runner.shutdown(ShutdownMode::Drain);

    assert_bitwise("ckpt-a", &got_a, &solo_a);
    assert_bitwise("ckpt-b", &got_b, &solo_b);

    // Each job got its own `job-<id>-s<seed>` subdirectory with at least
    // one durable generation; nothing was written to the shared root.
    for ns in ["job-1-s11", "job-2-s22"] {
        let sub = dir.join(ns);
        let generations = std::fs::read_dir(&sub)
            .unwrap_or_else(|e| panic!("missing namespace dir {}: {e}", sub.display()))
            .filter_map(|entry| entry.ok())
            .filter(|entry| {
                entry
                    .file_name()
                    .to_str()
                    .is_some_and(|n| n.starts_with("ckpt-") && n.ends_with(".nofis"))
            })
            .count();
        assert!(generations > 0, "no checkpoints under {}", sub.display());
    }
    let root_ckpts = std::fs::read_dir(&dir)
        .unwrap()
        .filter_map(|entry| entry.ok())
        .filter(|entry| entry.file_type().map(|t| t.is_file()).unwrap_or(false))
        .count();
    assert_eq!(
        root_ckpts, 0,
        "checkpoint files leaked into the shared root"
    );

    let _ = std::fs::remove_dir_all(&dir);
}
