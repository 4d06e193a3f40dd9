//! The trace recorder: spans and instants collected from any thread.

use std::collections::HashMap;
use std::sync::{Arc, Mutex};
use std::thread::ThreadId;

use serde::value::Value;
use serde::{Deserialize, Serialize};

use crate::clock::Clock;

/// A typed span/instant annotation value.
///
/// Args used to be stringly (`Vec<(String, String)>`); numeric values
/// — job indices, queue waits, batch totals — now serialize as JSON
/// numbers, which shrinks the JSONL log and lets consumers read them
/// without parsing. [`ArgValue::render`] gives the canonical string
/// form (`U64(3)` and a legacy `Str("3")` render identically), which
/// is what structural validation matches on, so traces recorded by
/// older builds keep validating.
#[derive(Debug, Clone, PartialEq)]
pub enum ArgValue {
    /// An unsigned integer (indices, counts, microsecond waits).
    U64(u64),
    /// A float (rates, seconds).
    F64(f64),
    /// Free-form text (labels, provenance tags).
    Str(String),
}

impl ArgValue {
    /// The canonical string rendering: integers and text render as
    /// themselves, floats through Rust's shortest-roundtrip `Display`.
    pub fn render(&self) -> String {
        match self {
            ArgValue::U64(v) => v.to_string(),
            ArgValue::F64(v) => v.to_string(),
            ArgValue::Str(s) => s.clone(),
        }
    }

    /// The value as `u64` when it is one (never parses strings).
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            ArgValue::U64(v) => Some(*v),
            _ => None,
        }
    }

    /// The value as `&str` when it is text.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            ArgValue::Str(s) => Some(s),
            _ => None,
        }
    }
}

impl From<u64> for ArgValue {
    fn from(v: u64) -> Self {
        ArgValue::U64(v)
    }
}

impl From<usize> for ArgValue {
    fn from(v: usize) -> Self {
        ArgValue::U64(v as u64)
    }
}

impl From<u32> for ArgValue {
    fn from(v: u32) -> Self {
        ArgValue::U64(v as u64)
    }
}

impl From<f64> for ArgValue {
    fn from(v: f64) -> Self {
        ArgValue::F64(v)
    }
}

impl From<&str> for ArgValue {
    fn from(v: &str) -> Self {
        ArgValue::Str(v.to_string())
    }
}

impl From<String> for ArgValue {
    fn from(v: String) -> Self {
        ArgValue::Str(v)
    }
}

impl Serialize for ArgValue {
    fn to_value(&self) -> Value {
        match self {
            ArgValue::U64(v) => Value::UInt(*v),
            ArgValue::F64(v) => Value::Float(*v),
            ArgValue::Str(s) => Value::Str(s.clone()),
        }
    }
}

impl Deserialize for ArgValue {
    /// Strict: an unsigned integer, a finite float or a string — the
    /// three values an arg serializes as. A signed integer (`-3`, or
    /// `-0`) is an error, not a float: it would serialize back as
    /// something the text does not say.
    fn from_value(v: &Value) -> Result<Self, serde::Error> {
        match v {
            Value::UInt(n) => Ok(ArgValue::U64(*n)),
            Value::Float(f) if f.is_finite() => Ok(ArgValue::F64(*f)),
            Value::Str(s) => Ok(ArgValue::Str(s.clone())),
            Value::Int(n) => Err(serde::Error::custom(format!(
                "is a signed integer ({n}), not an unsigned one"
            ))),
            _ => Err(serde::Error::custom(
                "is not an unsigned integer, a finite float or a string",
            )),
        }
    }
}

/// The temporal shape of one [`TraceEvent`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EventKind {
    /// A closed interval of work. `end_us >= start_us` by
    /// construction when recorded through [`TraceRecorder`]; trace
    /// validation re-checks it on files of unknown provenance.
    Span {
        /// Start timestamp, clock microseconds.
        start_us: u64,
        /// End timestamp, clock microseconds.
        end_us: u64,
    },
    /// A point event (e.g. `job-finished`).
    Instant {
        /// Timestamp, clock microseconds.
        at_us: u64,
    },
}

/// One recorded event.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceEvent {
    /// Event name (`simulate`, `cache-lookup`, `job-finished`, …).
    pub name: String,
    /// Coarse category (`campaign`, `batch`, `job`) — becomes the
    /// Chrome trace `cat` field, which Perfetto can filter on.
    pub cat: String,
    /// The track (thread lane) the event belongs to. Track 0 is the
    /// first thread that recorded; worker threads get 1, 2, … in
    /// first-use order.
    pub track: u64,
    /// Span or instant, with timestamps.
    pub kind: EventKind,
    /// Free-form `(key, value)` annotations (job label, provenance,
    /// queue wait). Values are typed ([`ArgValue`]): numbers serialize
    /// as JSON numbers, text as strings — the JSONL stays schema-free.
    pub args: Vec<(String, ArgValue)>,
}

impl Serialize for TraceEvent {
    fn to_value(&self) -> Value {
        let mut fields: Vec<(String, Value)> = Vec::with_capacity(7);
        match self.kind {
            EventKind::Span { start_us, end_us } => {
                fields.push(("kind".into(), Value::Str("span".into())));
                fields.push(("name".into(), Value::Str(self.name.clone())));
                fields.push(("cat".into(), Value::Str(self.cat.clone())));
                fields.push(("track".into(), Value::UInt(self.track)));
                fields.push(("start_us".into(), Value::UInt(start_us)));
                fields.push(("end_us".into(), Value::UInt(end_us)));
            }
            EventKind::Instant { at_us } => {
                fields.push(("kind".into(), Value::Str("instant".into())));
                fields.push(("name".into(), Value::Str(self.name.clone())));
                fields.push(("cat".into(), Value::Str(self.cat.clone())));
                fields.push(("track".into(), Value::UInt(self.track)));
                fields.push(("at_us".into(), Value::UInt(at_us)));
            }
        }
        fields.push((
            "args".into(),
            Value::Object(
                self.args
                    .iter()
                    .map(|(k, v)| (k.clone(), v.to_value()))
                    .collect(),
            ),
        ));
        Value::Object(fields)
    }
}

impl Deserialize for TraceEvent {
    /// Strict: an object holding each field its kind writes exactly once
    /// and no other (`args` may be absent, and reads as empty), with an
    /// unsigned-integer track and timestamps. Anything else — an unknown
    /// field, an `end_us` on an instant — is an error naming the field,
    /// and the JSON parser already rejects a repeated field or arg, so an
    /// accepted event serializes back to exactly what the text holds.
    fn from_value(v: &Value) -> Result<Self, serde::Error> {
        let fields = v
            .as_object()
            .ok_or_else(|| serde::Error::custom("trace event is not an object"))?;
        let field = |name: &str| {
            v.get(name)
                .ok_or_else(|| serde::Error::custom(format!("trace event has no `{name}` field")))
        };
        let str_field = |name: &str| {
            field(name)?.as_str().map(str::to_string).ok_or_else(|| {
                serde::Error::custom(format!("trace event `{name}` is not a string"))
            })
        };
        let u64_field = |name: &str| match field(name)? {
            Value::UInt(n) => Ok(*n),
            _ => Err(serde::Error::custom(format!(
                "trace event `{name}` is not an unsigned integer"
            ))),
        };
        let kind_name = str_field("kind")?;
        let (kind, timestamps) = match kind_name.as_str() {
            "span" => (
                EventKind::Span {
                    start_us: u64_field("start_us")?,
                    end_us: u64_field("end_us")?,
                },
                &["start_us", "end_us"][..],
            ),
            "instant" => (
                EventKind::Instant {
                    at_us: u64_field("at_us")?,
                },
                &["at_us"][..],
            ),
            other => {
                return Err(serde::Error::custom(format!(
                    "unknown trace event kind '{other}'"
                )))
            }
        };
        let known = ["kind", "name", "cat", "track", "args"];
        if let Some((key, _)) = fields
            .iter()
            .find(|(k, _)| !known.contains(&k.as_str()) && !timestamps.contains(&k.as_str()))
        {
            return Err(serde::Error::custom(format!(
                "trace event field `{key}` is unknown to a {kind_name} event"
            )));
        }
        let args = match v.get("args") {
            None => Vec::new(),
            Some(args) => {
                let args = args
                    .as_object()
                    .ok_or_else(|| serde::Error::custom("trace event `args` is not an object"))?;
                args.iter()
                    .map(|(k, val)| {
                        ArgValue::from_value(val)
                            .map(|a| (k.clone(), a))
                            .map_err(|e| serde::Error::custom(format!("trace event arg `{k}` {e}")))
                    })
                    .collect::<Result<Vec<_>, _>>()?
            }
        };
        Ok(TraceEvent {
            name: str_field("name")?,
            cat: str_field("cat")?,
            track: u64_field("track")?,
            kind,
            args,
        })
    }
}

/// Collects [`TraceEvent`]s from any thread against one injected
/// [`Clock`].
///
/// Threads are mapped to stable *tracks* on first use, so a trace
/// viewer shows one lane per worker. Recording is lock-per-event; the
/// runner emits a handful of events per job, which is far below the
/// mutex's noise floor.
pub struct TraceRecorder {
    clock: Arc<dyn Clock>,
    events: Mutex<Vec<TraceEvent>>,
    tracks: Mutex<HashMap<ThreadId, u64>>,
}

impl TraceRecorder {
    /// A recorder reading time from `clock`.
    pub fn new(clock: Arc<dyn Clock>) -> Self {
        TraceRecorder {
            clock,
            events: Mutex::new(Vec::new()),
            tracks: Mutex::new(HashMap::new()),
        }
    }

    /// The recorder's current time, clock microseconds.
    pub fn now_us(&self) -> u64 {
        self.clock.now_us()
    }

    /// The clock this recorder reads, for callers that must stamp
    /// other measurements on the same timeline.
    pub fn clock(&self) -> Arc<dyn Clock> {
        self.clock.clone()
    }

    /// The calling thread's track, assigned on first use (0, 1, 2, …).
    pub fn current_track(&self) -> u64 {
        let mut tracks = self.tracks.lock().expect("track lock");
        let next = tracks.len() as u64;
        *tracks.entry(std::thread::current().id()).or_insert(next)
    }

    /// Opens a span starting now; the returned guard records it on
    /// drop, on the calling thread's track.
    pub fn span(&self, name: impl Into<String>, cat: impl Into<String>) -> SpanGuard<'_> {
        SpanGuard {
            recorder: self,
            name: name.into(),
            cat: cat.into(),
            start_us: self.now_us(),
            args: Vec::new(),
        }
    }

    /// Records a completed span with explicit timestamps (clamped so
    /// `end_us >= start_us` always holds for recorder-produced traces).
    pub fn record_span(
        &self,
        name: impl Into<String>,
        cat: impl Into<String>,
        start_us: u64,
        end_us: u64,
        args: Vec<(String, ArgValue)>,
    ) {
        self.push(TraceEvent {
            name: name.into(),
            cat: cat.into(),
            track: self.current_track(),
            kind: EventKind::Span {
                start_us,
                end_us: end_us.max(start_us),
            },
            args,
        });
    }

    /// Records an instant event stamped now.
    pub fn instant(
        &self,
        name: impl Into<String>,
        cat: impl Into<String>,
        args: Vec<(String, ArgValue)>,
    ) {
        self.push(TraceEvent {
            name: name.into(),
            cat: cat.into(),
            track: self.current_track(),
            kind: EventKind::Instant {
                at_us: self.now_us(),
            },
            args,
        });
    }

    fn push(&self, event: TraceEvent) {
        self.events.lock().expect("event lock").push(event);
    }

    /// A snapshot of every event recorded so far.
    pub fn events(&self) -> Vec<TraceEvent> {
        self.events.lock().expect("event lock").clone()
    }

    /// The JSONL rendering: one compact JSON object per line, in
    /// recording order (spans appear at their *end* time). This is the
    /// `repro --trace-out` file format; parse it back with
    /// [`crate::parse_jsonl`].
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for event in self.events.lock().expect("event lock").iter() {
            out.push_str(&serde_json::to_string(event).expect("value trees always serialize"));
            out.push('\n');
        }
        out
    }
}

/// An open span; records itself on drop. Annotate with
/// [`SpanGuard::arg`] before it closes.
pub struct SpanGuard<'a> {
    recorder: &'a TraceRecorder,
    name: String,
    cat: String,
    start_us: u64,
    args: Vec<(String, ArgValue)>,
}

impl SpanGuard<'_> {
    /// Attaches one `(key, value)` annotation; the value may be a
    /// string, `u64`/`usize`/`u32` or `f64` (see [`ArgValue`]).
    pub fn arg(mut self, key: impl Into<String>, value: impl Into<ArgValue>) -> Self {
        self.args.push((key.into(), value.into()));
        self
    }
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        self.recorder.record_span(
            std::mem::take(&mut self.name),
            std::mem::take(&mut self.cat),
            self.start_us,
            self.recorder.now_us(),
            std::mem::take(&mut self.args),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::ManualClock;

    fn manual() -> (Arc<ManualClock>, TraceRecorder) {
        let clock = Arc::new(ManualClock::new());
        let recorder = TraceRecorder::new(clock.clone());
        (clock, recorder)
    }

    #[test]
    fn span_guard_records_start_and_end_from_the_injected_clock() {
        let (clock, recorder) = manual();
        clock.advance(10);
        {
            let _span = recorder
                .span("simulate", "job")
                .arg("job", "cpu/lu/AdvHetx4");
            clock.advance(25);
        }
        let events = recorder.events();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].name, "simulate");
        assert_eq!(
            events[0].kind,
            EventKind::Span {
                start_us: 10,
                end_us: 35
            }
        );
        assert_eq!(
            events[0].args,
            [("job".to_string(), ArgValue::Str("cpu/lu/AdvHetx4".into()))]
        );
    }

    #[test]
    fn typed_args_serialize_as_json_numbers() {
        let (_clock, recorder) = manual();
        {
            let _span = recorder
                .span("simulate", "job")
                .arg("index", 3usize)
                .arg("queue_us", 250u64)
                .arg("rate", 1.5f64)
                .arg("job", "cpu/lu/AdvHetx4");
        }
        let event = &recorder.events()[0];
        let args = event.to_value();
        let args = args.get("args").expect("args object");
        assert_eq!(args.get("index").and_then(Value::as_u64), Some(3));
        assert_eq!(args.get("queue_us").and_then(Value::as_u64), Some(250));
        assert_eq!(args.get("rate").and_then(Value::as_f64), Some(1.5));
        assert_eq!(
            args.get("job").and_then(Value::as_str),
            Some("cpu/lu/AdvHetx4")
        );
        // The canonical rendering is the same whether the arg was
        // recorded typed or stringly — legacy traces keep matching.
        assert_eq!(
            ArgValue::U64(3).render(),
            ArgValue::Str("3".into()).render()
        );
    }

    #[test]
    fn instants_stamp_the_current_time() {
        let (clock, recorder) = manual();
        clock.advance(7);
        recorder.instant("job-finished", "job", vec![]);
        match recorder.events()[0].kind {
            EventKind::Instant { at_us } => assert_eq!(at_us, 7),
            ref other => panic!("expected instant, got {other:?}"),
        }
    }

    #[test]
    fn tracks_are_stable_per_thread_and_distinct_across_threads() {
        let (_clock, recorder) = manual();
        let main_track = recorder.current_track();
        assert_eq!(main_track, recorder.current_track(), "stable on re-ask");
        let other =
            std::thread::scope(|s| s.spawn(|| recorder.current_track()).join().expect("joins"));
        assert_ne!(main_track, other);
    }

    #[test]
    fn explicit_spans_clamp_inverted_timestamps() {
        let (_clock, recorder) = manual();
        recorder.record_span("s", "c", 100, 40, vec![]);
        match recorder.events()[0].kind {
            EventKind::Span { start_us, end_us } => {
                assert_eq!((start_us, end_us), (100, 100));
            }
            ref other => panic!("expected span, got {other:?}"),
        }
    }

    #[test]
    fn events_round_trip_through_serde() {
        let (clock, recorder) = manual();
        clock.advance(3);
        recorder.record_span(
            "cache-write",
            "job",
            1,
            3,
            vec![("index".into(), "4".into())],
        );
        recorder.instant(
            "job-finished",
            "job",
            vec![("provenance".into(), "ran".into())],
        );
        for event in recorder.events() {
            let back = TraceEvent::from_value(&event.to_value()).expect("round trip");
            assert_eq!(back, event);
        }
    }
}
