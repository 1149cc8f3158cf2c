//! Event records, field values, and the builder / span entry points.

use crate::{dispatch, enabled, epoch, Level};
use std::time::Instant;

/// What an [`Event`] records.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Kind {
    /// A point-in-time occurrence.
    Event,
    /// A completed scope; `duration_us` is set.
    Span,
}

impl Kind {
    /// Canonical lowercase name, as written in JSONL traces.
    pub fn as_str(self) -> &'static str {
        match self {
            Kind::Event => "event",
            Kind::Span => "span",
        }
    }

    /// Parses a canonical kind name.
    pub fn parse(s: &str) -> Option<Kind> {
        match s {
            "event" => Some(Kind::Event),
            "span" => Some(Kind::Span),
            _ => None,
        }
    }
}

/// A typed field value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// Unsigned integer (counts, indices, byte sizes).
    U64(u64),
    /// Signed integer.
    I64(i64),
    /// Floating point. Non-finite values are serialized as the JSON
    /// strings `"NaN"`, `"inf"`, `"-inf"` (JSON has no literals for them).
    F64(f64),
    /// Boolean flag.
    Bool(bool),
    /// Short label (rung names, sources). Kept rare on hot paths.
    Str(String),
}

impl From<u64> for Value {
    fn from(v: u64) -> Self {
        Value::U64(v)
    }
}
impl From<usize> for Value {
    fn from(v: usize) -> Self {
        Value::U64(v as u64)
    }
}
impl From<u32> for Value {
    fn from(v: u32) -> Self {
        Value::U64(u64::from(v))
    }
}
impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::I64(v)
    }
}
impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::F64(v)
    }
}
impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Value::Bool(v)
    }
}
impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::Str(v.to_string())
    }
}
impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Str(v)
    }
}

impl std::fmt::Display for Value {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Value::U64(v) => write!(f, "{v}"),
            Value::I64(v) => write!(f, "{v}"),
            Value::F64(v) => write!(f, "{v}"),
            Value::Bool(v) => write!(f, "{v}"),
            Value::Str(v) => write!(f, "{v}"),
        }
    }
}

/// One telemetry record, delivered to every interested [`Sink`](crate::Sink).
#[derive(Debug, Clone, PartialEq)]
pub struct Event {
    /// Microseconds since the process-wide telemetry epoch.
    pub ts_us: u64,
    /// Record kind.
    pub kind: Kind,
    /// Severity.
    pub level: Level,
    /// Dotted event name, e.g. `train.stage.start`.
    pub name: &'static str,
    /// Typed fields in emission order.
    pub fields: Vec<(&'static str, Value)>,
    /// Span duration; `Some` only for [`Kind::Span`].
    pub duration_us: Option<u64>,
}

impl Event {
    /// Looks up a field by key (first match).
    pub fn field(&self, key: &str) -> Option<&Value> {
        self.fields.iter().find(|(k, _)| *k == key).map(|(_, v)| v)
    }

    /// Field as `u64` (accepts `U64` and non-negative `I64`).
    pub fn u64_field(&self, key: &str) -> Option<u64> {
        match self.field(key)? {
            Value::U64(v) => Some(*v),
            Value::I64(v) if *v >= 0 => Some(*v as u64),
            _ => None,
        }
    }

    /// Field as `f64` (accepts any numeric value).
    pub fn f64_field(&self, key: &str) -> Option<f64> {
        match self.field(key)? {
            Value::F64(v) => Some(*v),
            Value::U64(v) => Some(*v as f64),
            Value::I64(v) => Some(*v as f64),
            _ => None,
        }
    }

    /// Field as `bool`.
    pub fn bool_field(&self, key: &str) -> Option<bool> {
        match self.field(key)? {
            Value::Bool(v) => Some(*v),
            _ => None,
        }
    }

    /// Field as string slice.
    pub fn str_field(&self, key: &str) -> Option<&str> {
        match self.field(key)? {
            Value::Str(v) => Some(v.as_str()),
            _ => None,
        }
    }
}

fn now_us() -> u64 {
    epoch().elapsed().as_micros() as u64
}

/// Builder for a point event; obtained from [`event`]. When telemetry is
/// disabled at the requested level the builder is inert and
/// allocation-free (but field *arguments* are still evaluated — guard
/// expensive ones with [`enabled`]).
#[must_use = "an EventBuilder does nothing until .emit()"]
pub struct EventBuilder {
    inner: Option<Event>,
}

impl EventBuilder {
    /// Attaches a typed field.
    pub fn field(mut self, key: &'static str, value: impl Into<Value>) -> Self {
        if let Some(ev) = &mut self.inner {
            ev.fields.push((key, value.into()));
        }
        self
    }

    /// Delivers the event to all interested sinks.
    pub fn emit(self) {
        if let Some(ev) = self.inner {
            dispatch(&ev);
        }
    }
}

/// Starts building a point event at `level` named `name`. Thread-local
/// context fields ([`crate::push_context`]) are prepended automatically.
pub fn event(level: Level, name: &'static str) -> EventBuilder {
    EventBuilder {
        inner: enabled(level).then(|| Event {
            ts_us: now_us(),
            kind: Kind::Event,
            level,
            name,
            fields: crate::context::snapshot(),
            duration_us: None,
        }),
    }
}

/// A scoped measurement: records wall-clock duration from creation to
/// [`Span::end`] (or drop) and emits a [`Kind::Span`] event carrying any
/// fields attached along the way. Inert when telemetry is disabled.
pub struct Span {
    inner: Option<SpanInner>,
}

struct SpanInner {
    level: Level,
    name: &'static str,
    start: Instant,
    start_us: u64,
    fields: Vec<(&'static str, Value)>,
}

/// Opens a span at `level` named `name`. Thread-local context fields
/// ([`crate::push_context`]) are prepended automatically.
pub fn span(level: Level, name: &'static str) -> Span {
    Span {
        inner: enabled(level).then(|| SpanInner {
            level,
            name,
            start: Instant::now(),
            start_us: now_us(),
            fields: crate::context::snapshot(),
        }),
    }
}

impl Span {
    /// Attaches a typed field to the eventual span event.
    pub fn field(&mut self, key: &'static str, value: impl Into<Value>) {
        if let Some(inner) = &mut self.inner {
            inner.fields.push((key, value.into()));
        }
    }

    /// Whether the span is live (telemetry was enabled when it opened).
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Closes the span now, emitting its event.
    pub fn end(mut self) {
        self.finish();
    }

    fn finish(&mut self) {
        if let Some(inner) = self.inner.take() {
            let ev = Event {
                ts_us: inner.start_us,
                kind: Kind::Span,
                level: inner.level,
                name: inner.name,
                fields: inner.fields,
                duration_us: Some(inner.start.elapsed().as_micros() as u64),
            };
            dispatch(&ev);
        }
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        self.finish();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{add_sink, remove_sink, MemorySink};
    use std::sync::Arc;

    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

    #[test]
    fn builder_is_inert_when_disabled() {
        let _guard = LOCK.lock().unwrap_or_else(|e| e.into_inner());
        // No sinks registered in this scope: the builder must carry nothing.
        let b = event(Level::Error, "x").field("k", 1u64);
        assert!(b.inner.is_none());
        b.emit();
        let s = span(Level::Error, "y");
        assert!(!s.is_enabled());
        s.end();
    }

    #[test]
    fn span_measures_and_carries_fields() {
        let _guard = LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let sink = Arc::new(MemorySink::new(Level::Trace));
        let id = add_sink(sink.clone());
        let mut s = span(Level::Info, "stage");
        s.field("stage", 2u64);
        s.field("healthy", true);
        s.end();
        remove_sink(id);
        let evs = sink.take();
        assert_eq!(evs.len(), 1);
        assert_eq!(evs[0].kind, Kind::Span);
        assert_eq!(evs[0].u64_field("stage"), Some(2));
        assert_eq!(evs[0].bool_field("healthy"), Some(true));
        assert!(evs[0].duration_us.is_some());
    }

    #[test]
    fn field_accessors_coerce_numerics() {
        let ev = Event {
            ts_us: 0,
            kind: Kind::Event,
            level: Level::Info,
            name: "t",
            fields: vec![
                ("u", Value::U64(7)),
                ("i", Value::I64(-3)),
                ("f", Value::F64(1.5)),
                ("s", Value::Str("rung".into())),
            ],
            duration_us: None,
        };
        assert_eq!(ev.u64_field("u"), Some(7));
        assert_eq!(ev.f64_field("i"), Some(-3.0));
        assert_eq!(ev.f64_field("u"), Some(7.0));
        assert_eq!(ev.u64_field("i"), None);
        assert_eq!(ev.str_field("s"), Some("rung"));
        assert_eq!(ev.field("missing"), None);
    }
}
