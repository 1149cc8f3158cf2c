//! A failed `tele::init` must fail again on the next call: the trace
//! error keeps surfacing (as a typed config error from `Nofis::new`)
//! instead of later calls reporting "already initialized" while the run
//! continues with no trace.
//!
//! `tele::init` is one-shot per process once it succeeds, so this lives
//! in its own integration binary with a single test.

use nofis::core::{Nofis, NofisConfig};
use nofis::telemetry::{self as tele, TelemetryError};

#[test]
fn failed_init_is_reported_on_every_call() {
    // A trace path under a regular file cannot be created, whoever runs
    // the test.
    let blocker = std::env::temp_dir().join(format!("nofis-init-blocker-{}", std::process::id()));
    std::fs::write(&blocker, b"not a directory").unwrap();
    let settings = tele::Settings {
        trace_file: Some(blocker.join("trace.jsonl")),
        ..Default::default()
    };

    for attempt in 1..=2 {
        let err = tele::init(&settings).expect_err("unwritable trace file");
        assert!(
            matches!(err, TelemetryError::TraceFile { .. }),
            "attempt {attempt}: {err:?}"
        );
    }
    let err = Nofis::new(NofisConfig {
        telemetry: settings,
        ..Default::default()
    })
    .expect_err("Nofis::new must surface the trace error too");
    assert!(err.to_string().contains("trace file"), "{err}");

    let _ = std::fs::remove_file(&blocker);
}
