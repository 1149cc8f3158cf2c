//! A failed telemetry init must fail again on the next call: the trace
//! error keeps surfacing (as a typed config error from `Nofis::new`)
//! instead of later calls reporting "already initialized" while the run
//! continues with no trace.
//!
//! `tele::init` is one-shot per process once it succeeds, and this test
//! sets `NOFIS_TRACE_FILE`, so it lives in its own integration binary with
//! a single test.

use nofis::core::{Nofis, NofisConfig};
use nofis::telemetry::{self as tele, TelemetryError};

#[test]
fn failed_init_is_reported_on_every_call() {
    // A trace path under a regular file cannot be created, whoever runs
    // the test.
    let blocker = std::env::temp_dir().join(format!("nofis-init-blocker-{}", std::process::id()));
    std::fs::write(&blocker, b"not a directory").unwrap();
    std::env::set_var("NOFIS_TRACE_FILE", blocker.join("trace.jsonl"));

    for attempt in 1..=2 {
        let err = tele::init_from_env().expect_err("unwritable trace file");
        assert!(
            matches!(err, TelemetryError::TraceFile { .. }),
            "attempt {attempt}: {err:?}"
        );
    }
    let err = Nofis::new(NofisConfig::default())
        .expect_err("Nofis::new must surface the trace error too");
    assert!(err.to_string().contains("trace file"), "{err}");

    std::env::remove_var("NOFIS_TRACE_FILE");
    let _ = std::fs::remove_file(&blocker);
}
