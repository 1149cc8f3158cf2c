//! Reading and validating JSONL traces written by
//! [`JsonlSink`](crate::JsonlSink); the parsing half of the `nofis-trace`
//! tool, kept here so the schema's writer and reader live (and are
//! round-trip tested) in one crate.

use crate::json::{parse_json, Json};
use crate::{Kind, Level};

/// One parsed trace record (the reader-side mirror of
/// [`Event`](crate::Event), with owned names).
#[derive(Debug, Clone, PartialEq)]
pub struct TraceEvent {
    /// Microseconds since the emitting process's telemetry epoch.
    pub ts_us: u64,
    /// Record kind.
    pub kind: Kind,
    /// Severity.
    pub level: Level,
    /// Dotted event name.
    pub name: String,
    /// Fields in emission order.
    pub fields: Vec<(String, TraceValue)>,
    /// Span duration, for [`Kind::Span`] records.
    pub duration_us: Option<u64>,
}

/// A field value as read back from JSON. Numbers collapse to `f64`;
/// the strings `"NaN"`, `"inf"`, `"-inf"` decode to the corresponding
/// non-finite floats (matching the writer).
#[derive(Debug, Clone, PartialEq)]
pub enum TraceValue {
    /// Numeric field (including decoded non-finite floats).
    Num(f64),
    /// Boolean field.
    Bool(bool),
    /// String field.
    Str(String),
}

impl TraceValue {
    /// Numeric coercion.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            TraceValue::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// String coercion.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            TraceValue::Str(s) => Some(s.as_str()),
            _ => None,
        }
    }
}

impl std::fmt::Display for TraceValue {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TraceValue::Num(n) => write!(f, "{n}"),
            TraceValue::Bool(b) => write!(f, "{b}"),
            TraceValue::Str(s) => write!(f, "{s}"),
        }
    }
}

impl TraceEvent {
    /// Field lookup (first match).
    pub fn field(&self, key: &str) -> Option<&TraceValue> {
        self.fields.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }

    /// Field as `f64`.
    pub fn f64_field(&self, key: &str) -> Option<f64> {
        self.field(key).and_then(TraceValue::as_f64)
    }

    /// Field as `u64` (non-negative integral number).
    pub fn u64_field(&self, key: &str) -> Option<u64> {
        let n = self.f64_field(key)?;
        (n >= 0.0 && n.fract() == 0.0).then_some(n as u64)
    }

    /// Field as string slice.
    pub fn str_field(&self, key: &str) -> Option<&str> {
        self.field(key).and_then(TraceValue::as_str)
    }

    /// Field as bool.
    pub fn bool_field(&self, key: &str) -> Option<bool> {
        match self.field(key)? {
            TraceValue::Bool(b) => Some(*b),
            _ => None,
        }
    }
}

/// A schema violation in a trace file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceError {
    /// 1-based line number.
    pub line: usize,
    /// What was wrong with it.
    pub message: String,
}

impl std::fmt::Display for TraceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "trace line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for TraceError {}

fn trace_err(line: usize, message: impl Into<String>) -> TraceError {
    TraceError {
        line,
        message: message.into(),
    }
}

fn decode_value(v: &Json) -> Option<TraceValue> {
    match v {
        Json::Num(n) => Some(TraceValue::Num(*n)),
        Json::Bool(b) => Some(TraceValue::Bool(*b)),
        Json::Str(s) => Some(match s.as_str() {
            "NaN" => TraceValue::Num(f64::NAN),
            "inf" => TraceValue::Num(f64::INFINITY),
            "-inf" => TraceValue::Num(f64::NEG_INFINITY),
            _ => TraceValue::Str(s.clone()),
        }),
        _ => None,
    }
}

fn u64_member(doc: &Json, key: &str, line: usize) -> Result<u64, TraceError> {
    let n = doc
        .get(key)
        .and_then(Json::as_f64)
        .ok_or_else(|| trace_err(line, format!("missing or non-numeric {key:?}")))?;
    if n < 0.0 || n.fract() != 0.0 {
        return Err(trace_err(
            line,
            format!("{key:?} must be a non-negative integer"),
        ));
    }
    Ok(n as u64)
}

/// Parses and schema-validates one JSONL line (1-based `line` for error
/// reporting).
pub fn parse_line(text: &str, line: usize) -> Result<TraceEvent, TraceError> {
    let doc = parse_json(text).map_err(|e| trace_err(line, e.to_string()))?;
    let ts_us = u64_member(&doc, "ts_us", line)?;
    let kind_str = doc
        .get("kind")
        .and_then(Json::as_str)
        .ok_or_else(|| trace_err(line, "missing \"kind\""))?;
    let kind = Kind::parse(kind_str)
        .ok_or_else(|| trace_err(line, format!("unknown kind {kind_str:?}")))?;
    let level_str = doc
        .get("level")
        .and_then(Json::as_str)
        .ok_or_else(|| trace_err(line, "missing \"level\""))?;
    let level = Level::parse(level_str)
        .filter(|l| *l != Level::Off)
        .ok_or_else(|| trace_err(line, format!("unknown level {level_str:?}")))?;
    let name = doc
        .get("name")
        .and_then(Json::as_str)
        .ok_or_else(|| trace_err(line, "missing \"name\""))?
        .to_string();
    if name.is_empty() {
        return Err(trace_err(line, "empty \"name\""));
    }
    let duration_us = match doc.get("duration_us") {
        None => None,
        Some(_) => Some(u64_member(&doc, "duration_us", line)?),
    };
    if (kind == Kind::Span) != duration_us.is_some() {
        return Err(trace_err(
            line,
            "\"duration_us\" must be present exactly for span records",
        ));
    }
    let fields_doc = doc
        .get("fields")
        .ok_or_else(|| trace_err(line, "missing \"fields\""))?;
    let members = match fields_doc {
        Json::Obj(members) => members,
        _ => return Err(trace_err(line, "\"fields\" must be an object")),
    };
    let mut fields = Vec::with_capacity(members.len());
    for (k, v) in members {
        let value = decode_value(v)
            .ok_or_else(|| trace_err(line, format!("field {k:?} has a non-scalar value")))?;
        fields.push((k.clone(), value));
    }
    Ok(TraceEvent {
        ts_us,
        kind,
        level,
        name,
        fields,
        duration_us,
    })
}

/// Parses a whole JSONL trace (blank lines skipped), failing on the
/// first schema violation.
pub fn parse_trace(text: &str) -> Result<Vec<TraceEvent>, TraceError> {
    let mut events = Vec::new();
    for (idx, raw) in text.lines().enumerate() {
        if raw.trim().is_empty() {
            continue;
        }
        events.push(parse_line(raw, idx + 1)?);
    }
    Ok(events)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::event_to_json;
    use crate::{Event, Value};

    #[test]
    fn round_trips_writer_output() {
        let ev = Event {
            ts_us: 42,
            kind: Kind::Span,
            level: Level::Info,
            name: "train.stage",
            fields: vec![
                ("stage", Value::U64(1)),
                ("loss", Value::F64(f64::NAN)),
                ("rung", Value::Str("plain MC".into())),
                ("truncated", Value::Bool(true)),
            ],
            duration_us: Some(99),
        };
        let parsed = parse_line(&event_to_json(&ev), 1).unwrap();
        assert_eq!(parsed.ts_us, 42);
        assert_eq!(parsed.kind, Kind::Span);
        assert_eq!(parsed.level, Level::Info);
        assert_eq!(parsed.name, "train.stage");
        assert_eq!(parsed.duration_us, Some(99));
        assert_eq!(parsed.u64_field("stage"), Some(1));
        assert!(parsed.f64_field("loss").unwrap().is_nan());
        assert_eq!(parsed.str_field("rung"), Some("plain MC"));
        assert_eq!(parsed.bool_field("truncated"), Some(true));
    }

    #[test]
    fn rejects_schema_violations() {
        // Not JSON.
        assert!(parse_line("nope", 3).is_err());
        // Missing kind.
        assert!(parse_line(
            "{\"ts_us\":1,\"level\":\"info\",\"name\":\"x\",\"fields\":{}}",
            1
        )
        .is_err());
        // Unknown kind.
        assert!(parse_line(
            "{\"ts_us\":1,\"kind\":\"blob\",\"level\":\"info\",\"name\":\"x\",\"fields\":{}}",
            1
        )
        .is_err());
        // Span without duration.
        assert!(parse_line(
            "{\"ts_us\":1,\"kind\":\"span\",\"level\":\"info\",\"name\":\"x\",\"fields\":{}}",
            1
        )
        .is_err());
        // Non-span with duration.
        assert!(parse_line(
            "{\"ts_us\":1,\"kind\":\"event\",\"level\":\"info\",\"name\":\"x\",\"duration_us\":2,\"fields\":{}}",
            1
        )
        .is_err());
        // Counter records, as older builds wrote them, are an unknown kind
        // even with their `value` field.
        let e = parse_line(
            "{\"ts_us\":1,\"kind\":\"counter\",\"level\":\"info\",\"name\":\"x\",\"fields\":{\"value\":1}}",
            1,
        )
        .unwrap_err();
        assert!(e.message.contains("unknown kind \"counter\""), "{e}");
        // Negative timestamp.
        assert!(parse_line(
            "{\"ts_us\":-1,\"kind\":\"event\",\"level\":\"info\",\"name\":\"x\",\"fields\":{}}",
            1
        )
        .is_err());
        // Level off is not an event level.
        let e = parse_line(
            "{\"ts_us\":1,\"kind\":\"event\",\"level\":\"off\",\"name\":\"x\",\"fields\":{}}",
            7,
        )
        .unwrap_err();
        assert_eq!(e.line, 7);
    }

    #[test]
    fn parse_trace_skips_blank_lines_and_reports_line_numbers() {
        let good =
            "{\"ts_us\":1,\"kind\":\"event\",\"level\":\"info\",\"name\":\"a\",\"fields\":{}}";
        let text = format!("{good}\n\n{good}\n");
        assert_eq!(parse_trace(&text).unwrap().len(), 2);
        let bad = format!("{good}\nbroken\n");
        assert_eq!(parse_trace(&bad).unwrap_err().line, 2);
    }
}
