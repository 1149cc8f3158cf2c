//! Flight-recorder acceptance (DESIGN.md §10): a panicking job must leave
//! a post-mortem JSONL dump on disk whose events match the tail of what an
//! in-memory sink saw, ending at the job's terminal `job.end`.
//!
//! `tele::init` is one-shot per process (global sinks, panic hook), so
//! this lives in its own integration binary with a single test.

use nofis::core::{Levels, NofisConfig};
use nofis::faults::{self, FaultPlan};
use nofis::jobs::{JobError, JobRunner, JobSpec, RunnerConfig, ShutdownMode};
use nofis::prob::LimitState;
use nofis::telemetry as tele;
use nofis::telemetry::trace::parse_trace;
use std::sync::Arc;

struct HalfSpace;
impl LimitState for HalfSpace {
    fn dim(&self) -> usize {
        2
    }
    fn value(&self, x: &[f64]) -> f64 {
        2.0 - x[0]
    }
    fn value_grad(&self, x: &[f64]) -> (f64, Vec<f64>) {
        (2.0 - x[0], vec![-1.0, 0.0])
    }
    fn name(&self) -> &str {
        "halfspace"
    }
}

#[test]
fn panicking_job_dumps_flight_tail_matching_memory_sink() {
    let dir = std::env::temp_dir().join(format!("nofis-flight-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    // Flight ring + chained panic hook.
    let settings = tele::Settings {
        flight_dir: Some(dir.clone()),
        ..Default::default()
    };
    assert!(
        tele::init(&settings).expect("install telemetry"),
        "first init must activate"
    );
    // Reference stream: everything the recorder saw, the memory sink saw.
    let memory = Arc::new(tele::MemorySink::new(tele::Level::Trace));
    let sink_id = tele::add_sink(memory.clone());

    faults::install(FaultPlan::parse("job_panic@0").unwrap());
    let runner = JobRunner::new(RunnerConfig {
        workers: 1,
        queue_capacity: 4,
    });
    let cfg = NofisConfig {
        levels: Levels::Fixed(vec![1.0, 0.0]),
        layers_per_stage: 2,
        hidden: 8,
        epochs: 2,
        batch_size: 30,
        minibatch: 10,
        n_is: 100,
        tau: 10.0,
        ..Default::default()
    };
    let handle = runner.submit(JobSpec::new("doomed", cfg, Arc::new(HalfSpace), 3));
    let err = handle.wait().expect_err("injected panic must surface");
    assert!(
        matches!(err, JobError::Panicked { .. }),
        "expected Panicked, got {err:?}"
    );
    runner.shutdown(ShutdownMode::Drain);
    faults::clear();
    tele::remove_sink(sink_id);

    // The terminal-state dump (`finish` emits job.end, then dumps). The
    // injected fault and the panic hook write their own dumps too; this
    // test pins the job_panicked one.
    let dump_path = std::fs::read_dir(&dir)
        .expect("flight dir exists")
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .find(|p| {
            p.file_name()
                .and_then(|n| n.to_str())
                .is_some_and(|n| n.starts_with("flight-") && n.ends_with("-job_panicked.jsonl"))
        })
        .expect("job_panicked flight dump written");
    let text = std::fs::read_to_string(&dump_path).unwrap();
    let dumped = parse_trace(&text).expect("dump is valid JSONL trace");
    assert!(!dumped.is_empty(), "empty flight dump");

    // The dump ends at the panicked job's terminal event...
    let last = dumped.last().unwrap();
    assert_eq!(last.name, "job.end", "dump must end at job.end");
    let outcome = last
        .fields
        .iter()
        .find(|(k, _)| k == "outcome")
        .map(|(_, v)| format!("{v:?}"))
        .unwrap_or_default();
    assert!(outcome.contains("panicked"), "outcome was {outcome}");

    // ...and its events are exactly the tail of the reference stream up
    // to that point: locate the job.end in the memory sink and compare
    // (ts_us, name) sequences. Both sides are sorted by timestamp first:
    // the recorder's auto-dump on `fault.injected` emits `flight.dump`
    // *during* sink dispatch, so the two sinks legitimately observe that
    // one pair in opposite orders.
    let mem = memory.events();
    let end_idx = mem
        .iter()
        .rposition(|e| e.name == "job.end")
        .expect("memory sink saw job.end");
    let mut want: Vec<(u64, &str)> = mem[..=end_idx]
        .iter()
        .rev()
        .take(dumped.len())
        .rev()
        .map(|e| (e.ts_us, e.name))
        .collect();
    let mut got: Vec<(u64, &str)> = dumped.iter().map(|e| (e.ts_us, e.name.as_str())).collect();
    want.sort_unstable();
    got.sort_unstable();
    assert_eq!(
        got, want,
        "flight dump tail diverges from the in-memory sink"
    );

    // The terminal dump announces itself on the event stream (but, by
    // ordering, is never part of its own dump).
    assert!(
        mem.iter()
            .any(|e| e.name == "flight.dump" && e.str_field("reason") == Some("job_panicked")),
        "no flight.dump event with reason job_panicked"
    );
    assert!(
        !dumped.iter().any(|e| e.name == "flight.dump"
            && e.fields
                .iter()
                .any(|(k, v)| k == "reason" && format!("{v:?}").contains("job_panicked"))),
        "a dump must not contain its own announcement"
    );

    let _ = std::fs::remove_dir_all(&dir);
}
