//! Structural validation of trace files (`repro check --trace-in`).
//!
//! A trace produced by this crate satisfies three properties by
//! construction; a trace file of unknown provenance (hand-edited,
//! truncated, produced by a buggy build) is re-checked against them:
//!
//! 1. every span ends at or after it starts;
//! 2. spans on one track nest properly — two spans on the same track
//!    either contain one another or are disjoint (a partial overlap
//!    means the recorder interleaved open spans on one thread, which
//!    the guard API makes impossible);
//! 3. in a batch whose runner has a cache, every `job-finished` instant
//!    has a matching `cache-lookup` span for the same job — the same
//!    `index` and `job` label, since indices restart in every batch —
//!    (every job is looked up exactly once before it finishes); in a
//!    batch whose `batch-started` instant says `cache: none`, no
//!    `cache-lookup` or `cache-write` span is recorded; and every
//!    executed job (`provenance: ran`) has a `simulate` span. A batch
//!    spans the events from its `batch-started` instant to the next
//!    one: a run records its batches one after another.

use serde::value::Value;
use serde::Deserialize;

use crate::recorder::{EventKind, TraceEvent};

/// Parses a JSONL trace file (one event object per line, as written by
/// `repro --trace-out`). Blank lines are ignored. The reader is strict
/// (see [`TraceEvent`]'s `Deserialize`): every event it returns
/// serializes back to exactly what its line holds.
///
/// # Errors
///
/// Returns a message naming the 1-based line of the first malformed
/// entry and, where one is at fault, its field.
pub fn parse_jsonl(text: &str) -> Result<Vec<TraceEvent>, String> {
    let mut events = Vec::new();
    for (i, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let value: Value = serde_json::from_str(line)
            .map_err(|e| format!("line {}: not valid JSON: {e}", i + 1))?;
        let event = TraceEvent::from_value(&value).map_err(|e| format!("line {}: {e}", i + 1))?;
        events.push(event);
    }
    Ok(events)
}

/// An event's arg by key, in canonical string form (see
/// [`crate::ArgValue::render`]): a typed `U64(3)` and a legacy
/// stringly `"3"` match identically, so traces recorded before args
/// were typed keep validating.
fn arg(event: &TraceEvent, key: &str) -> Option<String> {
    event
        .args
        .iter()
        .find(|(k, _)| k == key)
        .map(|(_, v)| v.render())
}

/// Checks the three structural trace properties, returning one message
/// per violation (empty means the trace is well-formed).
pub fn validate_events(events: &[TraceEvent]) -> Vec<String> {
    let mut violations = Vec::new();

    // ---- property 1: end >= start ----
    for event in events {
        if let EventKind::Span { start_us, end_us } = event.kind {
            if end_us < start_us {
                violations.push(format!(
                    "span `{}` on track {} ends before it starts ({end_us} < {start_us})",
                    event.name, event.track
                ));
            }
        }
    }

    // ---- property 2: proper nesting per track ----
    let mut tracks: Vec<u64> = events.iter().map(|e| e.track).collect();
    tracks.sort_unstable();
    tracks.dedup();
    for track in tracks {
        // Sort by start ascending, then end descending, so an
        // enclosing span precedes everything it contains; a running
        // stack of open intervals then catches partial overlaps.
        let mut spans: Vec<(&TraceEvent, u64, u64)> = events
            .iter()
            .filter(|e| e.track == track)
            .filter_map(|e| match e.kind {
                EventKind::Span { start_us, end_us } if end_us >= start_us => {
                    Some((e, start_us, end_us))
                }
                _ => None,
            })
            .collect();
        spans.sort_by(|a, b| a.1.cmp(&b.1).then(b.2.cmp(&a.2)));
        let mut stack: Vec<(&TraceEvent, u64, u64)> = Vec::new();
        for (event, start, end) in spans {
            while let Some(&(_, _, open_end)) = stack.last() {
                if open_end <= start {
                    stack.pop();
                } else {
                    break;
                }
            }
            if let Some(&(open, _, open_end)) = stack.last() {
                if end > open_end {
                    violations.push(format!(
                        "span `{}` [{start}, {end}] on track {track} partially overlaps \
                         `{}` (ends at {open_end}): spans on one track must nest",
                        event.name, open.name
                    ));
                    continue; // don't push a malformed interval
                }
            }
            stack.push((event, start, end));
        }
    }

    // ---- property 3: every JobFinished has its spans ----
    // A job is its `(index, job)` pair: indices restart in every batch,
    // so an index alone could match another batch's span.
    let job_of = |e: &TraceEvent| arg(e, "index").map(|index| (index, arg(e, "job")));
    let span_jobs = |name: &str| -> Vec<(String, Option<String>)> {
        events
            .iter()
            .filter(|e| matches!(e.kind, EventKind::Span { .. }) && e.name == name)
            .filter_map(job_of)
            .collect()
    };
    let lookups = span_jobs("cache-lookup");
    let simulates = span_jobs("simulate");
    // A log that starts outside any batch is held to the cached rule.
    let mut cached = true;
    for event in events {
        match (&event.kind, event.name.as_str()) {
            (EventKind::Instant { .. }, "batch-started") => {
                cached = arg(event, "cache").as_deref() != Some("none");
                continue;
            }
            (EventKind::Span { .. }, "cache-lookup" | "cache-write") if !cached => {
                violations.push(format!(
                    "`{}` span on track {} in a batch without a cache",
                    event.name, event.track
                ));
                continue;
            }
            (EventKind::Instant { .. }, "job-finished") => {}
            _ => continue,
        }
        let Some(job) = job_of(event) else {
            violations.push("`job-finished` instant has no `index` arg".to_string());
            continue;
        };
        let name = match &job {
            (index, Some(label)) => format!("#{index} ({label})"),
            (index, None) => format!("#{index}"),
        };
        if cached && !lookups.contains(&job) {
            violations.push(format!(
                "job-finished {name} has no matching `cache-lookup` span"
            ));
        }
        if arg(event, "provenance").as_deref() == Some("ran") && !simulates.contains(&job) {
            violations.push(format!(
                "job-finished {name} was executed but has no `simulate` span"
            ));
        }
    }

    violations
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &str, track: u64, start_us: u64, end_us: u64, index: Option<&str>) -> TraceEvent {
        TraceEvent {
            name: name.into(),
            cat: "job".into(),
            track,
            kind: EventKind::Span { start_us, end_us },
            args: index
                .map(|i| ("index".to_string(), i.into()))
                .into_iter()
                .collect(),
        }
    }

    fn finished(index: &str, provenance: &str, at_us: u64) -> TraceEvent {
        TraceEvent {
            name: "job-finished".into(),
            cat: "job".into(),
            track: 0,
            kind: EventKind::Instant { at_us },
            args: vec![
                ("index".into(), index.into()),
                ("provenance".into(), provenance.into()),
            ],
        }
    }

    #[test]
    fn a_well_formed_trace_validates_clean() {
        let events = vec![
            span("batch", 0, 0, 100, None),
            span("cache-lookup", 0, 1, 2, Some("0")),
            span("cache-lookup", 0, 2, 3, Some("1")),
            span("simulate", 1, 5, 50, Some("1")),
            span("cache-write", 1, 50, 52, Some("1")),
            finished("0", "disk", 2),
            finished("1", "ran", 53),
        ];
        assert_eq!(validate_events(&events), Vec::<String>::new());
    }

    #[test]
    fn inverted_spans_are_flagged() {
        let events = vec![span("simulate", 1, 50, 10, Some("0"))];
        let violations = validate_events(&events);
        assert!(
            violations
                .iter()
                .any(|v| v.contains("ends before it starts")),
            "{violations:?}"
        );
    }

    #[test]
    fn partial_overlap_on_one_track_is_flagged_but_containment_is_not() {
        let nested = vec![
            span("batch", 0, 0, 100, None),
            span("cache-lookup", 0, 10, 20, Some("0")),
        ];
        assert!(validate_events(&nested).is_empty(), "containment nests");
        let torn = vec![span("a", 0, 0, 50, None), span("b", 0, 25, 75, None)];
        let violations = validate_events(&torn);
        assert!(
            violations.iter().any(|v| v.contains("partially overlaps")),
            "{violations:?}"
        );
        let disjoint = vec![span("a", 0, 0, 50, None), span("b", 0, 50, 75, None)];
        assert!(validate_events(&disjoint).is_empty(), "disjoint is fine");
        let other_track = vec![span("a", 0, 0, 50, None), span("b", 1, 25, 75, None)];
        assert!(
            validate_events(&other_track).is_empty(),
            "tracks are independent"
        );
    }

    #[test]
    fn job_finished_without_its_spans_is_flagged() {
        let no_lookup = vec![finished("3", "disk", 9)];
        let violations = validate_events(&no_lookup);
        assert!(
            violations
                .iter()
                .any(|v| v.contains("no matching `cache-lookup`")),
            "{violations:?}"
        );
        let ran_without_simulate = vec![
            span("cache-lookup", 0, 0, 1, Some("3")),
            finished("3", "ran", 9),
        ];
        let violations = validate_events(&ran_without_simulate);
        assert!(
            violations.iter().any(|v| v.contains("no `simulate` span")),
            "{violations:?}"
        );
    }

    fn batch_started(cache: &str, at_us: u64) -> TraceEvent {
        TraceEvent {
            name: "batch-started".into(),
            cat: "runner".into(),
            track: 0,
            kind: EventKind::Instant { at_us },
            args: vec![("cache".into(), cache.into())],
        }
    }

    #[test]
    fn a_cached_batch_needs_a_lookup_span_per_finished_job() {
        let events = vec![
            batch_started("disk", 0),
            span("cache-lookup", 0, 1, 2, Some("0")),
            span("simulate", 1, 5, 50, Some("1")),
            finished("0", "disk", 2),
            finished("1", "ran", 53),
        ];
        assert_eq!(
            validate_events(&events),
            ["job-finished #1 has no matching `cache-lookup` span"]
        );
    }

    #[test]
    fn a_batch_without_a_cache_validates_without_lookup_spans() {
        let events = vec![
            batch_started("none", 0),
            span("simulate", 1, 5, 50, Some("0")),
            span("simulate", 1, 50, 60, Some("1")),
            finished("0", "ran", 51),
            finished("1", "ran", 61),
        ];
        assert_eq!(validate_events(&events), Vec::<String>::new());
        // Each batch keeps its own rule: a cached batch after it still
        // needs its lookups.
        let mut two = events.clone();
        two.extend([batch_started("disk", 70), finished("0", "disk", 71)]);
        assert_eq!(
            validate_events(&two),
            ["job-finished #0 has no matching `cache-lookup` span"]
        );
    }

    #[test]
    fn a_batch_without_a_cache_records_no_cache_spans() {
        let events = vec![
            batch_started("none", 0),
            span("cache-lookup", 0, 1, 2, Some("0")),
            span("simulate", 1, 5, 50, Some("0")),
            span("cache-write", 1, 50, 52, Some("0")),
            finished("0", "ran", 53),
        ];
        assert_eq!(
            validate_events(&events),
            [
                "`cache-lookup` span on track 0 in a batch without a cache",
                "`cache-write` span on track 1 in a batch without a cache",
            ]
        );
    }

    /// `event` with a `job` label arg added.
    fn labelled(mut event: TraceEvent, job: &str) -> TraceEvent {
        event.args.push(("job".into(), job.into()));
        event
    }

    #[test]
    fn a_job_matches_its_spans_by_index_and_label_across_batches() {
        // A CPU and a GPU batch, each with a job 0 that ran. Indices
        // restart per batch, so the GPU job's missing `simulate` span
        // must not be covered by the CPU job's.
        let (cpu, gpu) = ("cpu/lu/AdvHetx4", "gpu/matmul/AdvHet");
        let events = vec![
            labelled(span("cache-lookup", 0, 1, 2, Some("0")), cpu),
            labelled(span("simulate", 1, 3, 10, Some("0")), cpu),
            labelled(finished("0", "ran", 11), cpu),
            labelled(span("cache-lookup", 0, 20, 21, Some("0")), gpu),
            labelled(finished("0", "ran", 30), gpu),
        ];
        let violations = validate_events(&events);
        assert_eq!(
            violations,
            [format!(
                "job-finished #0 ({gpu}) was executed but has no `simulate` span"
            )]
        );
        // A label the spans do not carry matches nothing either.
        let stray = vec![
            labelled(span("cache-lookup", 0, 1, 2, Some("0")), cpu),
            labelled(finished("0", "disk", 3), gpu),
        ];
        let violations = validate_events(&stray);
        assert!(
            violations
                .iter()
                .any(|v| v.contains("no matching `cache-lookup`")),
            "{violations:?}"
        );
    }

    #[test]
    fn typed_and_stringly_index_args_match_each_other() {
        use crate::recorder::ArgValue;
        // Lookup span carries a typed index, the legacy finished
        // instant a stringly one — canonical rendering must unify them.
        let mut lookup = span("cache-lookup", 0, 1, 2, None);
        lookup.args = vec![("index".to_string(), ArgValue::U64(3))];
        let events = vec![lookup, finished("3", "disk", 2)];
        assert_eq!(validate_events(&events), Vec::<String>::new());
    }

    #[test]
    fn jsonl_round_trips_and_flags_malformed_lines() {
        let events = vec![
            span("cache-lookup", 0, 1, 2, Some("0")),
            finished("0", "disk", 2),
        ];
        let jsonl: String = events
            .iter()
            .map(|e| {
                let mut line =
                    serde_json::to_string(&serde::Serialize::to_value(e)).expect("serializes");
                line.push('\n');
                line
            })
            .collect();
        let back = parse_jsonl(&jsonl).expect("parses");
        assert_eq!(back, events);

        let err = parse_jsonl("{\"kind\": \"span\"").expect_err("truncated");
        assert!(err.starts_with("line 1:"), "{err}");
        let err = parse_jsonl("{\"kind\": \"wat\", \"name\": \"x\", \"cat\": \"c\", \"track\": 0}")
            .expect_err("unknown kind");
        assert!(err.contains("unknown trace event kind"), "{err}");
    }

    /// A well-formed first line, so each case below fails on line 2.
    const GOOD: &str =
        r#"{"kind":"instant","name":"job-finished","cat":"job","track":0,"at_us":2,"args":{}}"#;

    /// Parses `GOOD` then `line`, returning the error, which must name
    /// line 2 and `field`.
    fn second_line_error(line: &str, field: &str) -> String {
        let err = parse_jsonl(&format!("{GOOD}\n{line}\n")).expect_err(line);
        assert!(err.starts_with("line 2:"), "{err}");
        assert!(err.contains(&format!("`{field}`")), "{err}");
        err
    }

    #[test]
    fn a_repeated_field_is_an_error_not_first_wins() {
        let line = r#"{"kind":"instant","name":"a","name":"b","cat":"job","track":0,"at_us":1}"#;
        let err = second_line_error(line, "name");
        assert!(err.contains("appears twice"), "{err}");
    }

    #[test]
    fn an_unknown_field_is_an_error_not_dropped() {
        let extra =
            r#"{"kind":"span","name":"s","cat":"job","track":0,"start_us":1,"end_us":2,"zzz":[1]}"#;
        second_line_error(extra, "zzz");
        let misplaced =
            r#"{"kind":"instant","name":"i","cat":"job","track":0,"at_us":1,"end_us":2}"#;
        let err = second_line_error(misplaced, "end_us");
        assert!(err.contains("instant"), "{err}");
    }

    #[test]
    fn a_repeated_arg_is_an_error_not_two_args() {
        let line = r#"{"kind":"instant","name":"i","cat":"job","track":0,"at_us":1,"args":{"index":1,"index":2}}"#;
        let err = second_line_error(line, "index");
        assert!(err.contains("appears twice"), "{err}");
    }

    #[test]
    fn a_negative_integer_arg_is_an_error_not_a_float() {
        let line =
            r#"{"kind":"instant","name":"i","cat":"job","track":0,"at_us":1,"args":{"delta":-3}}"#;
        let err = second_line_error(line, "delta");
        assert!(err.contains("signed integer"), "{err}");
        let zero =
            r#"{"kind":"instant","name":"i","cat":"job","track":0,"at_us":1,"args":{"delta":-0}}"#;
        second_line_error(zero, "delta");
    }
}
