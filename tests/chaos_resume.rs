//! Crash-recovery lockdown for the durable checkpoint layer (DESIGN.md §11).
//!
//! The contract under test: a run killed at *any* checkpoint generation —
//! every stage boundary and every mid-stage optimizer step — and resumed
//! via [`Nofis::run_or_resume`] produces a final `IsResult` and trained
//! parameters **bitwise identical** to the uninterrupted run, at any thread
//! count; torn or truncated checkpoint files never panic the loader and
//! cost at most one checkpoint interval; and checkpointing itself is pure
//! observability (results with it on and off are bitwise equal).
//!
//! The kill is simulated by copying a prefix of the golden run's
//! checkpoint generations into a fresh directory and resuming from it —
//! exactly the on-disk state a `kill -9` after that generation's rename
//! would leave (the CI chaos job performs a real process kill on top).

use nofis::core::checkpoint::{self, CheckpointConfig};
use nofis::core::{Levels, Nofis, NofisConfig, NofisError, TrainedNofis};
use nofis::prob::{CountingOracle, IsResult, LimitState};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::path::{Path, PathBuf};

/// g(x) = beta - x0 in 2-D: an analytic half-space with a known tail.
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

/// Two stages x 3 epochs x 3 minibatches = 18 optimizer steps; with
/// `every_steps = 1` that is 18 mid-stage generations plus 2 stage
/// boundaries — every possible resume point of the run.
fn chaos_config(ckpt: Option<CheckpointConfig>) -> NofisConfig {
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
        checkpoint: ckpt,
        ..Default::default()
    }
}

fn keep_all(dir: &Path) -> CheckpointConfig {
    CheckpointConfig {
        dir: dir.to_path_buf(),
        every_steps: 1,
        keep: 1000,
        namespace: None,
    }
}

fn fresh_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("nofis-chaos-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Everything the determinism contract promises, reduced to raw bits.
#[derive(Debug, PartialEq, Eq)]
struct Outcome {
    estimate: u64,
    ess: u64,
    std_error: u64,
    pareto_k: Option<u64>,
    hits: u64,
    rung: String,
    levels: Vec<u64>,
    params: Vec<u64>,
}

fn outcome(trained: &TrainedNofis, result: &IsResult) -> Outcome {
    let (_, store) = trained.flow();
    Outcome {
        estimate: result.estimate.to_bits(),
        ess: result.effective_sample_size.to_bits(),
        std_error: result.std_error.to_bits(),
        pareto_k: result.pareto_k.map(f64::to_bits),
        hits: result.hits,
        rung: format!("{:?}", result.rung),
        levels: trained.levels().iter().map(|l| l.to_bits()).collect(),
        params: store
            .iter()
            .flat_map(|(_, t)| t.as_slice().iter().map(|v| v.to_bits()))
            .collect(),
    }
}

/// Runs the golden (uninterrupted) chaos run, optionally checkpointing.
fn golden(ckpt: Option<CheckpointConfig>, ls: &HalfSpace) -> (Outcome, u64) {
    let oracle = CountingOracle::new(ls);
    let nofis = Nofis::new(chaos_config(ckpt)).unwrap();
    let mut rng = StdRng::seed_from_u64(42);
    let (trained, result) = nofis.run(&oracle, &mut rng).unwrap();
    (outcome(&trained, &result), oracle.calls())
}

/// Copies generations `<= upto` from the golden directory — the disk state
/// a kill right after generation `upto` leaves behind.
fn copy_prefix(src: &Path, dst: &Path, upto: u64) {
    std::fs::create_dir_all(dst).unwrap();
    for (generation, path) in checkpoint::list_generations(src).unwrap() {
        if generation <= upto {
            std::fs::copy(&path, dst.join(path.file_name().unwrap())).unwrap();
        }
    }
}

#[test]
fn kill_and_resume_is_bitwise_identical_at_every_generation() {
    let ls = HalfSpace { beta: 2.0 };
    let golden_dir = fresh_dir("golden");
    let (golden_outcome, golden_calls) = golden(Some(keep_all(&golden_dir)), &ls);

    let generations = checkpoint::list_generations(&golden_dir).unwrap();
    // 18 mid-stage steps + 2 stage boundaries.
    assert_eq!(generations.len(), 20, "unexpected checkpoint cadence");

    let resume_dir = fresh_dir("resume");
    for (generation, _) in &generations {
        let _ = std::fs::remove_dir_all(&resume_dir);
        copy_prefix(&golden_dir, &resume_dir, *generation);
        let (_, ckpt) = checkpoint::load_latest(&resume_dir).unwrap().unwrap();

        let oracle = CountingOracle::new(&ls);
        let nofis = Nofis::new(chaos_config(Some(keep_all(&resume_dir)))).unwrap();
        let mut rng = StdRng::seed_from_u64(42);
        let (trained, result) = nofis.run_or_resume(&oracle, &mut rng).unwrap();

        assert_eq!(
            outcome(&trained, &result),
            golden_outcome,
            "resume from generation {generation} diverged from the golden run"
        );
        // Budget accounting spans the crash: the resumed run pays only for
        // the work after the checkpoint, and restored + fresh covers the
        // golden total exactly.
        assert_eq!(
            ckpt.oracle_spent + oracle.calls(),
            golden_calls,
            "simulator-call accounting broke across the generation {generation} crash boundary"
        );
    }
    let _ = std::fs::remove_dir_all(&golden_dir);
    let _ = std::fs::remove_dir_all(&resume_dir);
}

#[test]
fn checkpointing_is_pure_observability() {
    let ls = HalfSpace { beta: 2.0 };
    let dir = fresh_dir("on-off");
    let (with_ckpt, calls_with) = golden(Some(keep_all(&dir)), &ls);
    let (without, calls_without) = golden(None, &ls);
    assert_eq!(with_ckpt, without, "checkpointing changed the results");
    assert_eq!(calls_with, calls_without);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn run_or_resume_without_history_is_a_plain_run() {
    let ls = HalfSpace { beta: 2.0 };
    let (plain, _) = golden(None, &ls);

    // Empty directory: trains from scratch, then leaves checkpoints behind.
    let dir = fresh_dir("scratch");
    let nofis = Nofis::new(chaos_config(Some(keep_all(&dir)))).unwrap();
    let mut rng = StdRng::seed_from_u64(42);
    let (trained, result) = nofis.run_or_resume(&ls, &mut rng).unwrap();
    assert_eq!(outcome(&trained, &result), plain);
    assert!(!checkpoint::list_generations(&dir).unwrap().is_empty());

    // No checkpoint config at all: also a plain run.
    let nofis = Nofis::new(chaos_config(None)).unwrap();
    let mut rng = StdRng::seed_from_u64(42);
    let (trained, result) = nofis.run_or_resume(&ls, &mut rng).unwrap();
    assert_eq!(outcome(&trained, &result), plain);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn torn_newest_checkpoint_falls_back_one_generation_never_panics() {
    let ls = HalfSpace { beta: 2.0 };
    let golden_dir = fresh_dir("torn-golden");
    let (golden_outcome, _) = golden(Some(keep_all(&golden_dir)), &ls);

    // Build a directory holding generations 7 and 8, then tear generation 8
    // at every byte offset: the loader must fall back to generation 7 every
    // time, without panicking.
    let torn_dir = fresh_dir("torn");
    copy_prefix(&golden_dir, &torn_dir, 8);
    for (generation, path) in checkpoint::list_generations(&torn_dir).unwrap() {
        if generation < 7 {
            std::fs::remove_file(path).unwrap();
        }
    }
    let newest = checkpoint::list_generations(&torn_dir).unwrap();
    let (gen8, gen8_path) = newest.last().cloned().unwrap();
    assert_eq!(gen8, 8);
    let intact = std::fs::read(&gen8_path).unwrap();

    for cut in 0..intact.len() {
        std::fs::write(&gen8_path, &intact[..cut]).unwrap();
        let (generation, _) = checkpoint::load_latest(&torn_dir)
            .unwrap()
            .unwrap_or_else(|| panic!("no loadable checkpoint after tearing at {cut}"));
        assert_eq!(
            generation, 7,
            "tear at byte {cut} lost more than one generation"
        );
    }

    // A resumed run from the torn directory (plus a stale tmp from the
    // "crashed writer") still reproduces the golden bitwise.
    std::fs::write(&gen8_path, &intact[..intact.len() / 2]).unwrap();
    std::fs::write(torn_dir.join("ckpt-0000000099.tmp"), b"half-written").unwrap();
    let nofis = Nofis::new(chaos_config(Some(keep_all(&torn_dir)))).unwrap();
    let mut rng = StdRng::seed_from_u64(42);
    let (trained, result) = nofis.run_or_resume(&ls, &mut rng).unwrap();
    assert_eq!(outcome(&trained, &result), golden_outcome);
    assert!(!torn_dir.join("ckpt-0000000099.tmp").exists());

    let _ = std::fs::remove_dir_all(&golden_dir);
    let _ = std::fs::remove_dir_all(&torn_dir);
}

#[test]
fn mismatched_config_is_a_typed_checkpoint_error() {
    let ls = HalfSpace { beta: 2.0 };
    let dir = fresh_dir("mismatch");
    let _ = golden(Some(keep_all(&dir)), &ls);

    // Same directory, different run-shaping hyper-parameter.
    let mut cfg = chaos_config(Some(keep_all(&dir)));
    cfg.hidden = 16;
    let nofis = Nofis::new(cfg).unwrap();
    let oracle = CountingOracle::new(&ls);
    let mut rng = StdRng::seed_from_u64(42);
    let err = nofis.resume_within(
        &nofis::prob::BudgetedOracle::new(&oracle, u64::MAX),
        &mut rng,
    );
    match err {
        Err(NofisError::Checkpoint { message }) => {
            assert!(message.contains("configuration"), "{message}");
        }
        other => panic!("expected a typed Checkpoint error, got {other:?}"),
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn rotation_bounds_disk_usage() {
    let ls = HalfSpace { beta: 2.0 };
    let dir = fresh_dir("rotate");
    let cfg = chaos_config(Some(CheckpointConfig {
        dir: dir.clone(),
        every_steps: 1,
        keep: 3,
        namespace: None,
    }));
    let nofis = Nofis::new(cfg).unwrap();
    let mut rng = StdRng::seed_from_u64(42);
    nofis.run(&ls, &mut rng).unwrap();
    let gens = checkpoint::list_generations(&dir).unwrap();
    assert_eq!(gens.len(), 3, "rotation kept {} generations", gens.len());
    // The survivors are the newest three, and the newest is the done-marker.
    assert_eq!(
        gens.iter().map(|(g, _)| *g).collect::<Vec<_>>(),
        vec![18, 19, 20]
    );
    let (_, newest) = checkpoint::load_latest(&dir).unwrap().unwrap();
    assert!(newest.done);
    let _ = std::fs::remove_dir_all(&dir);
}
