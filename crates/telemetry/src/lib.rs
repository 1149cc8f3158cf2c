//! Structured telemetry for the NOFIS pipeline: point events and spans,
//! fanned out to pluggable sinks.
//!
//! NOFIS's multi-stage schedule only works when every stage actually
//! converges before it freezes, and adaptive importance sampling fails
//! *quietly* when a proposal collapses. This crate gives every layer of
//! the workspace one uniform way to narrate what it is doing — per-stage
//! training progress, rollback decisions, estimate weight health, budget
//! spend, buffer-pool churn — without perturbing the computation.
//!
//! # Model
//!
//! * An [`Event`] is one timestamped record: a point event or a completed
//!   [`Span`] (with a duration). Fields are typed [`Value`]s keyed by
//!   `&'static str`; a meter is a field of the span that owns it (a
//!   stage's oracle calls ride on its `train.stage` span).
//! * A [`Sink`] receives events. Built-ins: [`StderrSink`] (pretty
//!   one-line-per-event for humans), [`JsonlSink`] (one JSON object per
//!   line, machine-readable, consumed by the `nofis-trace` tool),
//!   [`FlightRecorder`] (a ring of the last events, dumped as JSONL for
//!   post-mortems), and [`MemorySink`] (test assertions).
//! * Sinks register in a process-global registry ([`add_sink`] /
//!   [`remove_sink`]). [`init`] wires sinks from a [`Settings`] value plus
//!   the `NOFIS_LOG` / `NOFIS_TRACE_FILE` / `NOFIS_FLIGHT_DIR` environment
//!   variables (env wins).
//!
//! # Disabled fast path
//!
//! When no sink is interested in a level, an instrumentation site costs a
//! single relaxed atomic load: the registry caches the maximum level any
//! sink accepts in an `AtomicU8`, and [`enabled`] compares against it.
//! [`event`] and [`span`] both perform this check before allocating
//! anything. Callers whose *field expressions* are expensive (formatting,
//! `to_string`) should guard the whole site with [`enabled`] — field
//! arguments are evaluated eagerly.
//!
//! # Observe but never influence
//!
//! Telemetry records wall-clock timestamps and durations, but no value
//! read from the clock (or from any sink) ever feeds back into the
//! computation. Instrumented code takes the identical sequence of RNG
//! draws, oracle calls, and floating-point operations whether telemetry
//! is enabled or disabled — the golden-value and bitwise-determinism
//! suites run with it both on and off. See DESIGN.md §10.
//!
//! # Example
//!
//! ```
//! use nofis_telemetry as tele;
//! use std::sync::Arc;
//!
//! let sink = Arc::new(tele::MemorySink::new(tele::Level::Debug));
//! let id = tele::add_sink(sink.clone());
//!
//! let mut span = tele::span(tele::Level::Info, "train.stage");
//! span.field("stage", 1u64);
//! tele::event(tele::Level::Debug, "train.epoch")
//!     .field("epoch", 3u64)
//!     .field("loss", -1.25f64)
//!     .emit();
//! span.end();
//!
//! let events = sink.take();
//! assert_eq!(events.len(), 2);
//! assert_eq!(events[0].name, "train.epoch");
//! assert_eq!(events[1].name, "train.stage");
//! assert!(events[1].duration_us.is_some());
//! tele::remove_sink(id);
//! ```

#![deny(missing_docs)]

mod context;
mod event;
mod json;
mod recorder;
mod sink;
pub mod trace;

pub use context::{push_context, ContextGuard};
pub use event::{event, span, Event, EventBuilder, Kind, Span, Value};
pub use json::event_to_json;
pub use recorder::{FlightRecorder, DEFAULT_FLIGHT_CAPACITY};
pub use sink::{JsonlSink, MemorySink, Sink, StderrSink};

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::sync::{Arc, Mutex, OnceLock, RwLock};
use std::time::Instant;

/// Severity / verbosity of an event.
///
/// Ordered from most to least severe; a sink with `min_level = Info`
/// accepts `Error`, `Warn`, and `Info` events. `Off` never matches any
/// event and is only meaningful as a sink threshold / `NOFIS_LOG=off`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[repr(u8)]
pub enum Level {
    /// Nothing — used to silence a sink, never carried by an event.
    Off = 0,
    /// Unrecoverable failures (training diverged past retries, budget hit).
    Error = 1,
    /// Degraded-but-continuing conditions (rollback, truncated stage).
    Warn = 2,
    /// Run / stage lifecycle: the default human-facing verbosity.
    Info = 3,
    /// Per-epoch progress, pilot quantiles and budget truncations.
    Debug = 4,
    /// Per-step firehose (loss and grad-norm for every minibatch).
    Trace = 5,
}

impl Level {
    /// Canonical lowercase name (`"off"`, `"error"`, … `"trace"`).
    pub fn as_str(self) -> &'static str {
        match self {
            Level::Off => "off",
            Level::Error => "error",
            Level::Warn => "warn",
            Level::Info => "info",
            Level::Debug => "debug",
            Level::Trace => "trace",
        }
    }

    /// Parses a level name (case-insensitive; `"warning"` accepted for
    /// `"warn"`). Returns `None` for anything else.
    pub fn parse(s: &str) -> Option<Level> {
        match s.trim().to_ascii_lowercase().as_str() {
            "off" | "none" => Some(Level::Off),
            "error" => Some(Level::Error),
            "warn" | "warning" => Some(Level::Warn),
            "info" => Some(Level::Info),
            "debug" => Some(Level::Debug),
            "trace" => Some(Level::Trace),
            _ => None,
        }
    }
}

impl std::fmt::Display for Level {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

impl std::str::FromStr for Level {
    type Err = TelemetryError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        Level::parse(s).ok_or_else(|| TelemetryError::InvalidLevel { raw: s.to_string() })
    }
}

/// Errors raised while configuring telemetry (never while emitting).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TelemetryError {
    /// A level name (e.g. from `NOFIS_LOG`) did not parse.
    InvalidLevel {
        /// The rejected input.
        raw: String,
    },
    /// The JSONL trace file could not be created.
    TraceFile {
        /// Path that failed to open.
        path: PathBuf,
        /// Stringified I/O error.
        message: String,
    },
}

impl std::fmt::Display for TelemetryError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TelemetryError::InvalidLevel { raw } => write!(
                f,
                "invalid telemetry level {raw:?}: expected one of off, error, warn, info, debug, trace"
            ),
            TelemetryError::TraceFile { path, message } => {
                write!(f, "cannot open trace file {}: {message}", path.display())
            }
        }
    }
}

impl std::error::Error for TelemetryError {}

/// Sink selection passed to [`init`], which lets the environment override
/// each field.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Settings {
    /// Pretty per-event lines on stderr at this verbosity. `None` (the
    /// default) and `Some(Level::Off)` both mean no stderr sink.
    pub stderr: Option<Level>,
    /// Write a full-verbosity JSONL trace to this path.
    pub trace_file: Option<PathBuf>,
    /// Keep a [`FlightRecorder`] ring and dump it into this directory on
    /// a panic, an injected fault, or a [`flight_dump`] call.
    pub flight_dir: Option<PathBuf>,
}

impl Settings {
    /// Stderr logging at `level`, no trace file.
    pub fn stderr(level: Level) -> Settings {
        Settings {
            stderr: Some(level),
            ..Settings::default()
        }
    }
}

// ---------------------------------------------------------------------------
// Registry
// ---------------------------------------------------------------------------

struct SinkEntry {
    id: u64,
    sink: Arc<dyn Sink>,
}

/// Cached maximum level any registered sink accepts; the entire cost of a
/// disabled instrumentation site is one relaxed load of this.
static MAX_LEVEL: AtomicU8 = AtomicU8::new(0);
static NEXT_SINK_ID: AtomicU64 = AtomicU64::new(1);
/// Whether [`init`] has installed its sinks; held across the whole of
/// `init` so a failed attempt leaves it unset.
static INIT_DONE: Mutex<bool> = Mutex::new(false);
/// The recorder [`init`] installed, if `flight_dir` was set.
static FLIGHT: OnceLock<Arc<FlightRecorder>> = OnceLock::new();

fn registry() -> &'static RwLock<Vec<SinkEntry>> {
    static SINKS: OnceLock<RwLock<Vec<SinkEntry>>> = OnceLock::new();
    SINKS.get_or_init(|| RwLock::new(Vec::new()))
}

/// Process-start epoch; every `ts_us` is relative to this so traces from
/// one run share a zero point.
pub(crate) fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

/// Opaque handle returned by [`add_sink`], used to [`remove_sink`] it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SinkId(u64);

/// Whether any registered sink accepts events at `level`.
///
/// This is the hot-path gate: one relaxed atomic load. Instrumentation
/// whose field expressions allocate or format should call this first.
#[inline]
pub fn enabled(level: Level) -> bool {
    level as u8 <= MAX_LEVEL.load(Ordering::Relaxed) && level != Level::Off
}

fn recompute_max_level(entries: &[SinkEntry]) {
    let max = entries
        .iter()
        .map(|e| e.sink.min_level() as u8)
        .max()
        .unwrap_or(0);
    MAX_LEVEL.store(max, Ordering::Relaxed);
}

/// Registers a sink; events at or above its `min_level` severity
/// threshold will be delivered to it from every thread.
pub fn add_sink(sink: Arc<dyn Sink>) -> SinkId {
    let mut entries = registry().write().unwrap_or_else(|e| e.into_inner());
    let id = NEXT_SINK_ID.fetch_add(1, Ordering::Relaxed);
    entries.push(SinkEntry { id, sink });
    recompute_max_level(&entries);
    SinkId(id)
}

/// Unregisters a sink previously added with [`add_sink`]; returns whether
/// it was still registered. The sink is flushed on removal.
pub fn remove_sink(id: SinkId) -> bool {
    let mut entries = registry().write().unwrap_or_else(|e| e.into_inner());
    let before = entries.len();
    let mut removed: Option<Arc<dyn Sink>> = None;
    entries.retain(|e| {
        if e.id == id.0 {
            removed = Some(Arc::clone(&e.sink));
            false
        } else {
            true
        }
    });
    recompute_max_level(&entries);
    drop(entries);
    let was_registered = removed.is_some();
    if let Some(sink) = removed {
        sink.flush();
    }
    before > 0 && was_registered
}

/// Flushes every registered sink (buffered stderr / trace-file writers).
pub fn flush() {
    let entries = registry().read().unwrap_or_else(|e| e.into_inner());
    for e in entries.iter() {
        e.sink.flush();
    }
}

pub(crate) fn dispatch(ev: &Event) {
    let entries = registry().read().unwrap_or_else(|e| e.into_inner());
    for e in entries.iter() {
        if ev.level as u8 <= e.sink.min_level() as u8 {
            e.sink.record(ev);
        }
    }
}

// ---------------------------------------------------------------------------
// Initialization from Settings + environment
// ---------------------------------------------------------------------------

/// Resolves the effective settings: `NOFIS_LOG` overrides
/// `settings.stderr` (value `off` silences it), `NOFIS_TRACE_FILE`
/// overrides `settings.trace_file` and `NOFIS_FLIGHT_DIR` overrides
/// `settings.flight_dir` (an empty value leaves either unchanged).
///
/// Exposed so configuration validation can reject a bad `NOFIS_LOG`
/// before a run starts.
pub fn resolve_settings(settings: &Settings) -> Result<Settings, TelemetryError> {
    let mut resolved = settings.clone();
    if let Ok(raw) = std::env::var("NOFIS_LOG") {
        if !raw.trim().is_empty() {
            resolved.stderr = Some(raw.parse::<Level>()?);
        }
    }
    if let Ok(raw) = std::env::var("NOFIS_TRACE_FILE") {
        if !raw.trim().is_empty() {
            resolved.trace_file = Some(PathBuf::from(raw));
        }
    }
    if let Ok(raw) = std::env::var("NOFIS_FLIGHT_DIR") {
        if !raw.trim().is_empty() {
            resolved.flight_dir = Some(PathBuf::from(raw));
        }
    }
    Ok(resolved)
}

/// Installs sinks according to `settings` plus environment overrides.
///
/// Idempotent per process: the first successful call wins and returns
/// `Ok(true)`; later calls return `Ok(false)` without touching the
/// registry, so a library entry point (e.g. `Nofis::new`) can call this
/// unconditionally. A failed call installs nothing, so the next call
/// tries again and reports the same error. Sinks added directly via
/// [`add_sink`] (tests) are unaffected.
///
/// A flight directory also installs a panic hook (chained to the previous
/// one) that dumps the recorder with reason `panic`.
///
/// Errors: invalid `NOFIS_LOG` value, or an unwritable trace file.
pub fn init(settings: &Settings) -> Result<bool, TelemetryError> {
    let resolved = resolve_settings(settings)?;
    let mut done = INIT_DONE.lock().unwrap_or_else(|e| e.into_inner());
    if *done {
        return Ok(false);
    }
    let jsonl = match &resolved.trace_file {
        Some(path) => Some(
            JsonlSink::create(path).map_err(|e| TelemetryError::TraceFile {
                path: path.clone(),
                message: e.to_string(),
            })?,
        ),
        None => None,
    };
    if let Some(level) = resolved.stderr {
        if level != Level::Off {
            add_sink(Arc::new(StderrSink::new(level)));
        }
    }
    if let Some(sink) = jsonl {
        add_sink(Arc::new(sink));
    }
    if let Some(dir) = &resolved.flight_dir {
        let recorder = FLIGHT.get_or_init(|| Arc::new(FlightRecorder::new(dir)));
        add_sink(recorder.clone());
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let _ = flight_dump("panic");
            prev(info);
        }));
    }
    *done = true;
    Ok(true)
}

/// Dumps the flight recorder [`init`] installed with the given reason and
/// returns the dump path. Best-effort: `None` when no recorder is
/// installed or the write failed — callers on failure paths (panic hook,
/// job post-mortems) must not fail twice.
pub fn flight_dump(reason: &str) -> Option<PathBuf> {
    FLIGHT.get()?.dump(reason).ok()
}

/// Convenience for binaries: [`init`] with default settings, so only the
/// environment (`NOFIS_LOG`, `NOFIS_TRACE_FILE`, `NOFIS_FLIGHT_DIR`)
/// selects sinks.
pub fn init_from_env() -> Result<bool, TelemetryError> {
    init(&Settings::default())
}

#[cfg(test)]
mod tests {
    use super::*;

    // Registry state is process-global; serialize the tests that mutate it.
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

    #[test]
    fn level_parse_round_trip() {
        for lvl in [
            Level::Off,
            Level::Error,
            Level::Warn,
            Level::Info,
            Level::Debug,
            Level::Trace,
        ] {
            assert_eq!(Level::parse(lvl.as_str()), Some(lvl));
        }
        assert_eq!(Level::parse("WARNING"), Some(Level::Warn));
        assert_eq!(Level::parse(" Info "), Some(Level::Info));
        assert_eq!(Level::parse("verbose"), None);
        assert!("loud".parse::<Level>().is_err());
    }

    #[test]
    fn disabled_sites_are_off_and_enabled_tracks_sinks() {
        let _guard = LOCK.lock().unwrap_or_else(|e| e.into_inner());
        assert!(!enabled(Level::Off));
        let sink = Arc::new(MemorySink::new(Level::Info));
        let id = add_sink(sink.clone());
        assert!(enabled(Level::Error));
        assert!(enabled(Level::Info));
        // The *global* gate is the max across sinks; per-sink filtering
        // happens at dispatch.
        assert!(!enabled(Level::Trace));
        event(Level::Debug, "dropped").emit();
        event(Level::Info, "kept").emit();
        assert!(remove_sink(id));
        assert!(!enabled(Level::Error));
        let events = sink.take();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].name, "kept");
    }

    #[test]
    fn remove_unknown_sink_is_false() {
        let _guard = LOCK.lock().unwrap_or_else(|e| e.into_inner());
        assert!(!remove_sink(SinkId(u64::MAX)));
    }

    #[test]
    fn resolve_settings_prefers_env() {
        let _guard = LOCK.lock().unwrap_or_else(|e| e.into_inner());
        // Env manipulation is racy across tests; scope it under the lock.
        std::env::set_var("NOFIS_LOG", "debug");
        std::env::set_var("NOFIS_TRACE_FILE", "/tmp/t.jsonl");
        std::env::set_var("NOFIS_FLIGHT_DIR", "/tmp/flight");
        let resolved = resolve_settings(&Settings::stderr(Level::Error)).unwrap();
        assert_eq!(resolved.stderr, Some(Level::Debug));
        assert_eq!(resolved.trace_file, Some(PathBuf::from("/tmp/t.jsonl")));
        assert_eq!(resolved.flight_dir, Some(PathBuf::from("/tmp/flight")));
        std::env::set_var("NOFIS_LOG", "loud");
        assert!(matches!(
            resolve_settings(&Settings::default()),
            Err(TelemetryError::InvalidLevel { .. })
        ));
        std::env::remove_var("NOFIS_LOG");
        std::env::remove_var("NOFIS_TRACE_FILE");
        std::env::remove_var("NOFIS_FLIGHT_DIR");
        let resolved = resolve_settings(&Settings::stderr(Level::Warn)).unwrap();
        assert_eq!(resolved.stderr, Some(Level::Warn));
        assert_eq!(resolved.trace_file, None);
        assert_eq!(resolved.flight_dir, None);
    }

    #[test]
    fn error_display_is_actionable() {
        let e = TelemetryError::InvalidLevel { raw: "loud".into() };
        assert!(e.to_string().contains("loud"));
        assert!(e.to_string().contains("trace"));
        let e = TelemetryError::TraceFile {
            path: PathBuf::from("/nope/x.jsonl"),
            message: "denied".into(),
        };
        assert!(e.to_string().contains("/nope/x.jsonl"));
    }
}
