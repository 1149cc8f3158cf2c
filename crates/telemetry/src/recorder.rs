//! Flight recorder: a bounded ring of the most recent telemetry events,
//! dumped to JSONL when something goes wrong (a panic, an injected fault,
//! a panicked job). The dump reuses the [`JsonlSink`] line
//! format, so `nofis-trace check`/`summary` read flight dumps unchanged.
//!
//! [`JsonlSink`]: crate::JsonlSink

use crate::json::event_to_json;
use crate::{Event, Level, Sink};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;

/// Events a [`FlightRecorder`] retains.
pub const DEFAULT_FLIGHT_CAPACITY: usize = 256;

/// A bounded ring of the last [`DEFAULT_FLIGHT_CAPACITY`] telemetry
/// events. `record` claims a slot with one `fetch_add` and takes only that
/// slot's mutex, so concurrent writers never contend on shared state
/// beyond their own slot.
pub struct FlightRecorder {
    slots: Vec<Mutex<Option<Event>>>,
    /// Total events ever recorded; `head % capacity` is the next slot.
    head: AtomicUsize,
    dir: PathBuf,
    seq: AtomicU64,
}

impl FlightRecorder {
    /// A recorder keeping the last [`DEFAULT_FLIGHT_CAPACITY`] events,
    /// dumping into `dir` (created on the first dump).
    pub fn new(dir: &Path) -> Self {
        FlightRecorder {
            slots: (0..DEFAULT_FLIGHT_CAPACITY)
                .map(|_| Mutex::new(None))
                .collect(),
            head: AtomicUsize::new(0),
            dir: dir.to_path_buf(),
            seq: AtomicU64::new(0),
        }
    }

    /// Stores one event, evicting the oldest once the ring is full.
    pub(crate) fn push(&self, ev: Event) {
        let slot = self.head.fetch_add(1, Ordering::Relaxed) % self.slots.len();
        *self.slots[slot].lock().unwrap_or_else(|e| e.into_inner()) = Some(ev);
    }

    /// The retained events, oldest first. Concurrent pushes may tear the
    /// ordering at the ring boundary; dumps are diagnostic, not a ledger.
    pub(crate) fn events(&self) -> Vec<Event> {
        let head = self.head.load(Ordering::Relaxed);
        let cap = self.slots.len();
        let start = head.saturating_sub(cap);
        (start..head)
            .filter_map(|i| {
                self.slots[i % cap]
                    .lock()
                    .unwrap_or_else(|e| e.into_inner())
                    .clone()
            })
            .collect()
    }

    /// Writes the retained events as JSONL to
    /// `{dir}/flight-{seq}-{reason}.jsonl` and returns the path. Creates
    /// the dump directory on first use. Emits a `flight.dump` telemetry
    /// event on success (after the file is closed, so the dump never
    /// contains its own announcement).
    pub(crate) fn dump(&self, reason: &str) -> std::io::Result<PathBuf> {
        let events = self.events();
        std::fs::create_dir_all(&self.dir)?;
        let seq = self.seq.fetch_add(1, Ordering::Relaxed);
        let safe: String = reason
            .chars()
            .map(|c| if c.is_ascii_alphanumeric() { c } else { '_' })
            .collect();
        let path = self.dir.join(format!("flight-{seq:03}-{safe}.jsonl"));
        let mut body = String::new();
        for ev in &events {
            body.push_str(&event_to_json(ev));
            body.push('\n');
        }
        std::fs::write(&path, body)?;
        crate::event(Level::Info, "flight.dump")
            .field("reason", reason.to_string())
            .field("events", events.len() as u64)
            .field("path", path.display().to_string())
            .emit();
        Ok(path)
    }
}

impl Sink for FlightRecorder {
    fn min_level(&self) -> Level {
        Level::Trace
    }

    fn record(&self, ev: &Event) {
        self.push(ev.clone());
        // An injected fault is exactly the moment we want the recent
        // history on disk — dump immediately, best-effort.
        if ev.name == "fault.injected" {
            let _ = self.dump("fault");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Kind, Value};

    fn ev(name: &'static str, i: u64) -> Event {
        Event {
            ts_us: i,
            kind: Kind::Event,
            level: Level::Info,
            name,
            fields: vec![("i", Value::U64(i))],
            duration_us: None,
        }
    }

    #[test]
    fn ring_keeps_only_the_newest() {
        let dir = std::env::temp_dir().join("nofis-flight-ring-test");
        let rec = FlightRecorder::new(&dir);
        let total = DEFAULT_FLIGHT_CAPACITY as u64 + 6;
        for i in 0..total {
            rec.push(ev("tick", i));
        }
        let kept = rec.events();
        assert_eq!(kept.len(), DEFAULT_FLIGHT_CAPACITY);
        let ids: Vec<u64> = kept.iter().map(|e| e.u64_field("i").unwrap()).collect();
        let want: Vec<u64> = (6..total).collect();
        assert_eq!(ids, want, "oldest-first tail of the stream");
    }

    #[test]
    fn dump_writes_parseable_jsonl() {
        let dir = std::env::temp_dir().join(format!("nofis-flight-dump-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let rec = FlightRecorder::new(&dir);
        for i in 0..3 {
            rec.push(ev("tick", i));
        }
        let path = rec.dump("unit test!").unwrap();
        assert!(path
            .file_name()
            .unwrap()
            .to_str()
            .unwrap()
            .contains("unit_test_"));
        let text = std::fs::read_to_string(&path).unwrap();
        let parsed = crate::trace::parse_trace(&text).unwrap();
        assert_eq!(parsed.len(), 3);
        assert_eq!(parsed[2].u64_field("i"), Some(2));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
