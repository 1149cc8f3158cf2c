//! Telemetry contract tests: the instrumented pipeline emits the expected
//! structured event sequence, and — the other half of the contract —
//! telemetry *observes but never influences*: every numeric output is
//! bitwise identical with sinks attached or absent (DESIGN.md §10).
//!
//! The sink registry is process-global, so every test serializes on one
//! lock and detaches its sink before releasing it.

use nofis_core::{Levels, Nofis, NofisConfig};
use nofis_prob::{CountingOracle, LimitState};
use nofis_telemetry::{self as tele, Event, FlightRecorder, Level, MemorySink};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::{Arc, Mutex};

static LOCK: Mutex<()> = Mutex::new(());

/// g(x) = 1.5 - x0 in 2-D with analytic gradients.
struct RightTail;
impl LimitState for RightTail {
    fn dim(&self) -> usize {
        2
    }
    fn value(&self, x: &[f64]) -> f64 {
        1.5 - x[0]
    }
    fn value_grad(&self, x: &[f64]) -> (f64, Vec<f64>) {
        (1.5 - x[0], vec![-1.0, 0.0])
    }
}

/// Fails on the opposite tail (x0 <= -1.5), so a proposal trained on
/// [`RightTail`] is degenerate for it and its weights look unhealthy.
struct LeftTail;
impl LimitState for LeftTail {
    fn dim(&self) -> usize {
        2
    }
    fn value(&self, x: &[f64]) -> f64 {
        x[0] + 1.5
    }
}

/// Never fails, so the estimate sees no hit and is 0.
struct NeverFails;
impl LimitState for NeverFails {
    fn dim(&self) -> usize {
        2
    }
    fn value(&self, _: &[f64]) -> f64 {
        1.0
    }
}

fn two_stage_config() -> NofisConfig {
    NofisConfig {
        levels: Levels::Fixed(vec![1.0, 0.0]),
        layers_per_stage: 2,
        hidden: 8,
        epochs: 4,
        batch_size: 40,
        minibatch: 20,
        n_is: 200,
        ..Default::default()
    }
}

/// Runs `f` with a fresh in-memory sink attached, returning everything it
/// recorded. The sink is detached before the registry lock is released.
fn capture<T>(min_level: Level, f: impl FnOnce() -> T) -> (Vec<Event>, T) {
    let sink = Arc::new(MemorySink::new(min_level));
    let id = tele::add_sink(sink.clone());
    let out = f();
    tele::remove_sink(id);
    (sink.events(), out)
}

fn index_of(events: &[Event], pred: impl Fn(&Event) -> bool) -> usize {
    events
        .iter()
        .position(pred)
        .unwrap_or_else(|| panic!("expected event not recorded"))
}

fn estimate_span(events: &[Event]) -> &Event {
    events
        .iter()
        .find(|e| e.name == "estimate" && e.kind == tele::Kind::Span)
        .expect("estimate span recorded")
}

#[test]
fn two_stage_run_emits_expected_event_sequence() {
    let _guard = LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let cfg = two_stage_config();
    let (epochs, batch, minibatch, n_is) = (cfg.epochs, cfg.batch_size, cfg.minibatch, cfg.n_is);
    let oracle = CountingOracle::new(&RightTail);
    let (events, result) = capture(Level::Trace, || {
        let mut rng = StdRng::seed_from_u64(42);
        Nofis::new(cfg)
            .expect("valid config")
            .run(&oracle, &mut rng)
    });
    let (_, result) = result.expect("two-stage run succeeds");

    // Ordering: run start, then per-stage start/span pairs in stage order,
    // then training end, then the estimation span.
    let start = index_of(&events, |e| e.name == "train.start");
    let stage_starts: Vec<usize> = events
        .iter()
        .enumerate()
        .filter(|(_, e)| e.name == "train.stage.start")
        .map(|(i, _)| i)
        .collect();
    let stage_spans: Vec<&Event> = events
        .iter()
        .filter(|e| e.name == "train.stage" && e.kind == tele::Kind::Span)
        .collect();
    let end = index_of(&events, |e| e.name == "train.end");
    let estimate = index_of(&events, |e| {
        e.name == "estimate" && e.kind == tele::Kind::Span
    });
    assert_eq!(stage_starts.len(), 2, "one start per stage");
    assert_eq!(stage_spans.len(), 2, "one span per stage");
    assert!(start < stage_starts[0] && stage_starts[0] < stage_starts[1]);
    assert!(stage_starts[1] < end && end < estimate);

    // Per-stage span payloads: stage number, the full epoch count, the
    // step count implied by the minibatch split, and the oracle spend.
    let steps_per_stage = (epochs * batch.div_ceil(minibatch)) as u64;
    for (i, span) in stage_spans.iter().enumerate() {
        assert_eq!(span.u64_field("stage"), Some(i as u64 + 1));
        assert_eq!(span.u64_field("epochs"), Some(epochs as u64));
        assert_eq!(span.u64_field("steps"), Some(steps_per_stage));
        assert_eq!(span.u64_field("retries"), Some(0));
        assert_eq!(span.bool_field("truncated"), Some(false));
        assert_eq!(
            span.u64_field("oracle_calls"),
            Some((epochs * batch) as u64)
        );
        assert!(span.duration_us.is_some(), "spans carry a duration");
    }
    assert_eq!(events[stage_starts[0]].f64_field("level"), Some(1.0));
    assert_eq!(events[stage_starts[1]].f64_field("level"), Some(0.0));

    // Per-step events carry loss and the pre-clip gradient norm.
    let steps: Vec<&Event> = events.iter().filter(|e| e.name == "train.step").collect();
    assert_eq!(steps.len(), 2 * steps_per_stage as usize);
    assert!(steps.iter().all(|e| e.f64_field("loss").is_some()));
    assert!(steps.iter().all(|e| e.f64_field("grad_norm").is_some()));

    // The estimate span reports the draw's health and matches the result.
    let est = &events[estimate];
    assert_eq!(est.bool_field("healthy"), Some(true));
    assert_eq!(est.u64_field("oracle_calls"), Some(n_is as u64));
    assert_eq!(
        est.f64_field("estimate").map(f64::to_bits),
        Some(result.estimate.to_bits())
    );

    // Snapshot counters surface the autograd pool and pruning meters.
    for name in [
        "autograd.pool.hits",
        "autograd.pool.misses",
        "autograd.backward.skipped",
        "oracle.calls",
        "parallel.runs",
    ] {
        assert!(
            events
                .iter()
                .any(|e| e.name == name && e.kind == tele::Kind::Counter),
            "missing counter {name}"
        );
    }

    // Once the sink is detached the disabled fast path is restored.
    assert!(!tele::enabled(Level::Error));
}

#[test]
fn divergence_and_rollback_events_fire() {
    let _guard = LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let cfg = NofisConfig {
        learning_rate: 1e9,
        ..two_stage_config()
    };
    let (events, outcome) = capture(Level::Trace, || {
        let mut rng = StdRng::seed_from_u64(9);
        Nofis::new(cfg)
            .expect("valid config")
            .run(&RightTail, &mut rng)
    });

    let divergences: Vec<&Event> = events
        .iter()
        .filter(|e| e.name == "train.divergence")
        .collect();
    assert!(
        !divergences.is_empty(),
        "a 1e9 learning rate must emit at least one divergence"
    );
    assert!(divergences
        .iter()
        .all(|e| e.level == Level::Warn && e.str_field("detail").is_some()));

    let rollbacks: Vec<&Event> = events
        .iter()
        .filter(|e| e.name == "train.rollback")
        .collect();
    match outcome {
        Ok((trained, _)) => {
            let total_retries: usize = trained.stage_reports().iter().map(|r| r.retries).sum();
            assert_eq!(rollbacks.len(), total_retries, "one event per retry");
            assert!(rollbacks.iter().all(|e| e.f64_field("lr").unwrap() < 1e9));
        }
        Err(_) => {
            // Training gave up: every retry before the failure was logged.
            assert_eq!(divergences.len(), rollbacks.len() + 1);
        }
    }
}

#[test]
fn unhealthy_estimates_are_reported_on_the_span() {
    let _guard = LOCK.lock().unwrap_or_else(|e| e.into_inner());
    // Train hard on the right tail so the proposal genuinely concentrates
    // there, then estimate the opposite tail: the draw is unhealthy.
    let cfg = NofisConfig {
        levels: Levels::Fixed(vec![1.5, 0.0]),
        layers_per_stage: 4,
        hidden: 16,
        epochs: 12,
        batch_size: 100,
        n_is: 400,
        tau: 15.0,
        learning_rate: 8e-3,
        ..Default::default()
    };
    let mut rng = StdRng::seed_from_u64(8);
    let trained = Nofis::new(cfg)
        .expect("valid config")
        .train(&RightTail, &mut rng)
        .expect("training succeeds");

    let (events, result) = capture(Level::Trace, || trained.estimate(&LeftTail, 400, &mut rng));
    let result = result.expect("an unhealthy draw is still an estimate");
    let est = estimate_span(&events);
    assert_eq!(est.bool_field("healthy"), Some(false));
    assert_eq!(
        est.f64_field("estimate").map(f64::to_bits),
        Some(result.estimate.to_bits())
    );
    // The health verdict is observed, never acted on: no re-draw.
    assert!(events.iter().all(|e| e.name != "estimate.rung"));
    assert_eq!(est.u64_field("oracle_calls"), Some(400));

    // A draw without a single hit estimates 0 and is reported unhealthy.
    let (events, result) = capture(Level::Info, || trained.estimate(&NeverFails, 400, &mut rng));
    let result = result.expect("a hitless draw is still an estimate");
    assert_eq!(result.estimate, 0.0);
    assert_eq!(estimate_span(&events).bool_field("healthy"), Some(false));
}

#[test]
fn invalid_nofis_threads_is_a_typed_config_error() {
    let _guard = LOCK.lock().unwrap_or_else(|e| e.into_inner());
    std::env::set_var("NOFIS_THREADS", "fourx");
    let err = Nofis::new(two_stage_config()).unwrap_err();
    std::env::remove_var("NOFIS_THREADS");
    let msg = err.to_string();
    assert!(msg.contains("NOFIS_THREADS"), "{msg}");
    assert!(msg.contains("fourx"), "{msg}");
    // A valid value (and an unset variable) still construct fine.
    std::env::set_var("NOFIS_THREADS", "2");
    assert!(Nofis::new(two_stage_config()).is_ok());
    std::env::remove_var("NOFIS_THREADS");
}

#[test]
fn results_are_bitwise_identical_with_telemetry_on_and_off() {
    let _guard = LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let run = || {
        let mut rng = StdRng::seed_from_u64(2024);
        Nofis::new(two_stage_config())
            .expect("valid config")
            .run(&RightTail, &mut rng)
            .expect("run succeeds")
    };
    let (trained_off, result_off) = run();
    // The "on" run is observed by a Trace-level memory sink and a
    // flight-recorder ring.
    let dir = std::env::temp_dir().join(format!("nofis-flight-identity-{}", std::process::id()));
    let recorder = tele::add_sink(Arc::new(FlightRecorder::new(&dir)));
    let (events, (trained_on, result_on)) = capture(Level::Trace, run);
    tele::remove_sink(recorder);
    let _ = std::fs::remove_dir_all(&dir);
    assert!(!events.is_empty(), "the sink observed the run");

    assert_eq!(
        result_off.estimate.to_bits(),
        result_on.estimate.to_bits(),
        "estimate must not depend on telemetry"
    );
    assert_eq!(result_off.hits, result_on.hits);
    assert_eq!(
        result_off.effective_sample_size.to_bits(),
        result_on.effective_sample_size.to_bits()
    );
    assert_eq!(trained_off.levels(), trained_on.levels());
    let bits = |h: &[Vec<f64>]| -> Vec<Vec<u64>> {
        h.iter()
            .map(|s| s.iter().map(|l| l.to_bits()).collect())
            .collect()
    };
    assert_eq!(
        bits(trained_off.loss_history()),
        bits(trained_on.loss_history()),
        "per-epoch losses must be bitwise identical"
    );
}
