//! Deterministic fault-injection matrix (DESIGN.md §11).
//!
//! Every scenario installs a seeded [`nofis::faults::FaultPlan`], runs the
//! full pipeline, and asserts the contract the chaos harness exists to
//! enforce: the pipeline finishes with `Ok` or a *typed* [`NofisError`] —
//! it never panics and never exceeds its simulator-call budget — no matter
//! which seam misbehaves.
//!
//! The plan is process-global, so every scenario runs sequentially inside
//! ONE `#[test]` in its own test binary (cargo gives each integration-test
//! file its own process; in-file tests would race on the installed plan).
//! The `kill` fault kind exits the whole process and is exercised by the CI
//! chaos job instead.

use nofis::core::checkpoint::CheckpointConfig;
use nofis::core::{Levels, Nofis, NofisConfig, NofisError};
use nofis::faults::{self, FaultPlan, Site};
use nofis::prob::{CountingOracle, IsResult, LimitState};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::path::PathBuf;

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

fn matrix_config() -> NofisConfig {
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

fn fresh_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("nofis-faultmx-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Runs the pipeline under `plan` and returns the outcome plus the real
/// simulator calls made. Panics (the thing the matrix forbids) propagate
/// and fail the test with the scenario name attached by the caller.
fn run_under(
    plan: &str,
    cfg: NofisConfig,
    seed: u64,
) -> (Result<IsResult, NofisError>, u64, std::sync::Arc<FaultPlan>) {
    let installed = faults::install(FaultPlan::parse(plan).expect("plan grammar"));
    let ls = HalfSpace { beta: 2.0 };
    let oracle = CountingOracle::new(&ls);
    let nofis = Nofis::new(cfg).unwrap();
    let mut rng = StdRng::seed_from_u64(seed);
    let outcome = nofis.run(&oracle, &mut rng).map(|(_, r)| r);
    faults::clear();
    (outcome, oracle.calls(), installed)
}

/// `Ok` or typed error — and if an error, one the pipeline is documented to
/// return under injected faults.
fn assert_graceful(scenario: &str, outcome: &Result<IsResult, NofisError>) {
    match outcome {
        Ok(result) => {
            assert!(
                result.estimate.is_finite(),
                "{scenario}: Ok result with non-finite estimate"
            );
        }
        Err(
            NofisError::TrainingDiverged { .. }
            | NofisError::BudgetExhausted { .. }
            | NofisError::DegenerateProposal { .. },
        ) => {}
        Err(other) => panic!("{scenario}: unexpected error class: {other:?}"),
    }
}

#[test]
fn fault_matrix_never_panics_never_overruns() {
    // --- Oracle value corruption: NaN and Inf bursts mid-training. The
    // PR 1 divergence rollback (or the estimation ladder) must absorb them.
    for (scenario, plan) in [
        ("oracle_nan burst", "oracle_nan@5x20"),
        ("oracle_inf burst", "oracle_inf@40x10"),
        ("oracle_nan in estimation", "oracle_nan@200x30"),
    ] {
        let (outcome, _, installed) = run_under(plan, matrix_config(), 42);
        assert!(
            installed.visits(Site::OracleCall) > 0,
            "{scenario}: fault never reached the oracle seam"
        );
        assert_graceful(scenario, &outcome);
    }

    // --- Oracle panics: the budgeted wrapper contains the panic and
    // degrades it to a NaN evaluation, so the NaN machinery takes over.
    let (outcome, _, _) = run_under("oracle_panic@7x3", matrix_config(), 42);
    assert_graceful("oracle_panic", &outcome);

    // --- Budget forced to exhaustion at the very first planning call:
    // nothing is affordable, so the run must surface a typed budget error
    // (or truncate into a degraded Ok) without a single overrun call.
    let mut cfg = matrix_config();
    cfg.max_calls = Some(10_000);
    let (outcome, calls, _) = run_under("budget_exhaust@0", cfg, 42);
    match &outcome {
        Err(NofisError::BudgetExhausted { used, budget, .. }) => {
            assert!(used <= budget, "budget overrun reported: {used} > {budget}");
        }
        other => assert_graceful("budget_exhaust@0", other),
    }
    assert!(calls <= 10_000, "budget overrun: {calls} real calls");

    // --- Budget exhaustion mid-run: training truncates gracefully or the
    // estimate descends the ladder; never an overrun.
    let mut cfg = matrix_config();
    cfg.max_calls = Some(10_000);
    let (outcome, calls, _) = run_under("budget_exhaust@30", cfg, 42);
    match &outcome {
        Err(NofisError::BudgetExhausted { used, budget, .. }) => {
            assert!(used <= budget, "budget overrun reported: {used} > {budget}");
        }
        other => assert_graceful("budget_exhaust@30", other),
    }
    assert!(calls <= 10_000, "budget overrun: {calls} real calls");

    // --- Worker-thread panic inside the parallel pool. The seam only
    // exists on helper lanes, so it needs a minibatch wide enough to split
    // into multiple row chunks AND more than one pool thread; when the
    // environment gives us helpers, the panic must cross the re-raise path
    // and be contained as a divergent minibatch (rollback or typed error),
    // not a test-process abort.
    let mut cfg = matrix_config();
    cfg.batch_size = 48;
    cfg.minibatch = 48;
    let (outcome, _, installed) = run_under("worker_panic@0x4", cfg, 42);
    if installed.visits(Site::WorkerChunk) > 0 {
        assert_graceful("worker_panic", &outcome);
    } else {
        // Single-threaded pool: the seam never fires and the run is clean.
        assert_graceful("worker_panic (no helpers)", &outcome);
        assert!(outcome.is_ok(), "unfaulted run failed");
    }

    // --- Worker-thread panic during *estimation*: train cleanly first,
    // then poison every pooled batch evaluation. The ladder must treat the
    // panicked rungs as unhealthy and descend, or surface a typed error
    // when every rung is lost — never an unwinding test process.
    let ls = HalfSpace { beta: 2.0 };
    let nofis = Nofis::new(matrix_config()).unwrap();
    let mut rng = StdRng::seed_from_u64(42);
    let trained = nofis.train(&ls, &mut rng).unwrap();
    let installed = faults::install(FaultPlan::parse("worker_panic@0x100000").unwrap());
    let outcome = trained.estimate(&ls, 150, &mut rng);
    faults::clear();
    if installed.visits(Site::WorkerChunk) > 0 {
        match &outcome {
            Ok(_) | Err(NofisError::DegenerateProposal { .. }) => {}
            other => panic!("estimation under worker panics: {other:?}"),
        }
    } else {
        assert!(outcome.is_ok(), "unfaulted estimate failed");
    }

    // --- Checkpoint writes failing: durability is observability, so a
    // write-fault burst is swallowed (with telemetry) and the run is
    // bitwise identical to the unfaulted one.
    let dir = fresh_dir("ckpt-fail");
    let mut cfg = matrix_config();
    cfg.checkpoint = Some(CheckpointConfig {
        dir: dir.clone(),
        every_steps: 1,
        keep: 1000,
        namespace: None,
    });
    let (faulted, _, installed) = run_under("ckpt_fail@0x5", cfg.clone(), 42);
    assert!(
        installed.visits(Site::CkptWrite) >= 5,
        "ckpt_fail burst never reached the writer"
    );
    let clean_dir = fresh_dir("ckpt-clean");
    cfg.checkpoint.as_mut().unwrap().dir = clean_dir.clone();
    let nofis = Nofis::new(cfg).unwrap();
    let ls = HalfSpace { beta: 2.0 };
    let mut rng = StdRng::seed_from_u64(42);
    let (_, clean) = nofis.run(&ls, &mut rng).unwrap();
    let faulted = faulted.expect("ckpt_fail must not fail the run");
    assert_eq!(faulted.estimate.to_bits(), clean.estimate.to_bits());
    assert_eq!(faulted.hits, clean.hits);
    assert_eq!(
        faulted.effective_sample_size.to_bits(),
        clean.effective_sample_size.to_bits()
    );
    assert_eq!(faulted.std_error.to_bits(), clean.std_error.to_bits());
    assert_eq!(
        faulted.pareto_k.map(f64::to_bits),
        clean.pareto_k.map(f64::to_bits)
    );
    // The failed generations are simply missing; later writes succeeded.
    let survivors = nofis::core::checkpoint::list_generations(&dir).unwrap();
    let clean_count = nofis::core::checkpoint::list_generations(&clean_dir)
        .unwrap()
        .len();
    assert_eq!(survivors.len(), clean_count - 5);
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir_all(&clean_dir);
}
