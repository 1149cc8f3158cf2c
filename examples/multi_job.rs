//! Multi-job walkthrough: a small batch of concurrent NOFIS estimations on
//! one shared worker pool.
//!
//! ```text
//! cargo run --release --example multi_job
//! ```
//!
//! Every submitted job reaches a *terminal typed state* (done, failed,
//! shed, panicked) — the example prints the final table and exits 0 as
//! long as that invariant holds, even when individual jobs fail.
//!
//! This is also the CI `job-chaos` driver: with `NOFIS_FAULT_PLAN` set
//! (e.g. `job_panic@0;queue_overflow@2`) faults are injected at the
//! runner's seams, and with `NOFIS_TRACE_FILE=run.jsonl` the full per-job
//! lifecycle lands in a JSONL trace for `nofis-trace summary --by-job`.
//! Set `NOFIS_CKPT_DIR` to give every job a durable, namespaced checkpoint
//! directory.

use nofis_core::{Levels, NofisConfig};
use nofis_jobs::{JobError, JobRunner, JobSpec, RunnerConfig, ShutdownMode};
use nofis_testcases::{Leaf, Ring};
use std::sync::Arc;

fn ring_config() -> NofisConfig {
    NofisConfig {
        levels: Levels::Fixed(vec![3.0, 2.0, 1.0, 0.5, 0.0]),
        layers_per_stage: 4,
        hidden: 16,
        epochs: 10,
        batch_size: 100,
        n_is: 1_000,
        tau: 15.0,
        learning_rate: 8e-3,
        ..Default::default()
    }
}

fn leaf_config() -> NofisConfig {
    NofisConfig {
        levels: Levels::Fixed(vec![15.0, 8.0, 3.0, 0.0]),
        layers_per_stage: 4,
        hidden: 16,
        epochs: 10,
        batch_size: 100,
        n_is: 1_000,
        tau: 20.0,
        ..Default::default()
    }
}

fn main() {
    // Two concurrent job lanes over the shared pool; a small queue so the
    // shedding path is reachable under chaos plans.
    let runner = JobRunner::new(RunnerConfig {
        workers: 2,
        queue_capacity: 4,
    });

    let specs = vec![
        JobSpec::new("ring-1", ring_config(), Arc::new(Ring::default()), 11),
        JobSpec::new("leaf-1", leaf_config(), Arc::new(Leaf), 22),
        JobSpec::new("ring-2", ring_config(), Arc::new(Ring::default()), 33),
        JobSpec::new("ring-3", ring_config(), Arc::new(Ring::default()), 44),
        JobSpec::new("leaf-2", leaf_config(), Arc::new(Leaf), 55),
    ];
    let submitted = specs.len();
    let handles: Vec<_> = specs.into_iter().map(|s| runner.submit(s)).collect();

    println!("submitted {submitted} jobs; waiting for terminal states...\n");
    println!("{:<6} {:<14} {:<10} detail", "id", "name", "state");
    let mut terminal = 0;
    for handle in &handles {
        let detail = match handle.wait() {
            Ok(result) => format!(
                "done       estimate={:.3e} hits={}",
                result.estimate, result.hits
            ),
            Err(err) => format!("{:<10} {err}", state_of(&err)),
        };
        terminal += 1;
        println!(
            "{:<6} {:<14} {detail}",
            handle.id().to_string(),
            handle.name()
        );
    }

    runner.shutdown(ShutdownMode::Drain);

    println!("\n{terminal}/{submitted} jobs reached a terminal state");
    if terminal != submitted {
        // Unreachable by construction (wait() blocks for a terminal
        // result); kept as the example's hard invariant for CI.
        std::process::exit(1);
    }
}

fn state_of(err: &JobError) -> &'static str {
    match err {
        JobError::Shed { .. } => "shed",
        JobError::Panicked { .. } => "panicked",
        JobError::Failed { .. } => "failed",
    }
}
