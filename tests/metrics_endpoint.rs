//! Observe-never-influence contract for the observability sinks: attaching
//! the post-mortem flight recorder and a `Trace`-level collector must not
//! change an estimation run by a single bit. (The file keeps its name from
//! the deleted `/metrics` endpoint, whose aggregation sink this test used
//! to attach.)
//!
//! Telemetry sinks are process-global, so every test takes the `GLOBAL`
//! lock (cargo runs in-file tests on parallel threads).

use nofis::core::{Levels, Nofis, NofisConfig};
use nofis::prob::{IsResult, LimitState};
use nofis::telemetry::{self as tele, FlightRecorder, Level, MemorySink};
use rand::rngs::StdRng;
use rand::SeedableRng;
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

fn run_once(cfg: &NofisConfig, beta: f64, seed: u64) -> IsResult {
    let nofis = Nofis::new(cfg.clone()).unwrap();
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

/// An estimation run with a `Trace`-level collector and a flight-recorder
/// ring attached is bitwise identical to the bare run. The `Trace` sink
/// raises the global level gate, so every event the codebase can emit gets
/// built and recorded; none of that may touch the numerics. The pool is
/// sized once per process from `NOFIS_THREADS`, so CI's 1- and 4-thread
/// runs of this file cover both widths.
#[test]
fn estimation_is_bitwise_identical_with_metrics_on_and_off() {
    let _g = serial();
    let cfg = tiny_config();
    let baseline = run_once(&cfg, 2.0, 7);

    let dir = std::env::temp_dir().join(format!("nofis-metrics-identity-{}", std::process::id()));
    let collector = Arc::new(MemorySink::new(Level::Trace));
    let id_c = tele::add_sink(collector.clone());
    let id_r = tele::add_sink(Arc::new(FlightRecorder::new(&dir)));
    let observed = run_once(&cfg, 2.0, 7);
    tele::remove_sink(id_c);
    tele::remove_sink(id_r);
    let _ = std::fs::remove_dir_all(&dir);

    assert_bitwise("sinks on", &observed, &baseline);

    // The identity must not be vacuous: the sinks saw real traffic.
    let steps = collector.named("train.step").len();
    assert!(steps > 0, "collector saw no train.step events");
    let events = collector.events().len();
    assert!(events > steps, "collector saw almost no events");
}
