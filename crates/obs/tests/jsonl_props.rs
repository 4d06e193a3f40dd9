//! Property tests of the strict JSONL span-log reader (`parse_jsonl`).
//!
//! A span log carries no checksum, so "never a wrong value" means:
//! whatever the damage — a cut at any byte, flipped bits, an edited
//! digit, a line of another kind or format — reading it is an error, or
//! events that serialize back to exactly the value tree each line holds
//! (an absent `args` reads as `{}`). The reader never panics, and never
//! drops, merges or reinterprets what a line says.

use std::sync::Arc;

use hetsim_obs::{parse_jsonl, ArgValue, ManualClock, TraceEvent, TraceRecorder};
use proptest::collection::vec;
use proptest::prelude::*;
use serde::value::Value;
use serde::Serialize;

/// One recorded event: span or instant, name index, clock advance
/// before it, span length, and its args as `(key index, kind, number)`.
type RawEvent = (bool, usize, u64, u64, Vec<(usize, u32, u64)>);

fn raw_events() -> impl Strategy<Value = Vec<RawEvent>> {
    let arg = (0usize..6, 0u32..3, any::<u64>());
    let event = (
        any::<bool>(),
        0usize..5,
        0u64..5_000,
        0u64..900,
        vec(arg, 0..4),
    );
    vec(event, 1..8)
}

const NAMES: [&str; 5] = [
    "simulate",
    "cache-lookup",
    "cache-write",
    "job-finished",
    "batch",
];
const KEYS: [&str; 6] = ["index", "job", "provenance", "queue_us", "rate", "worker"];

/// The log a recorder writes for `raw`: spans and instants with
/// unsigned, float and text args (keys distinct within an event).
fn recorded_log(raw: &[RawEvent]) -> (String, Vec<TraceEvent>) {
    let clock = Arc::new(ManualClock::new());
    let recorder = TraceRecorder::new(clock.clone());
    for (span, name, advance, len, args) in raw {
        clock.advance(*advance);
        let mut seen = Vec::new();
        let args: Vec<(String, ArgValue)> = args
            .iter()
            .filter(|(key, _, _)| {
                let fresh = !seen.contains(key);
                seen.push(*key);
                fresh
            })
            .map(|&(key, kind, n)| {
                let value = match kind {
                    0 => ArgValue::U64(n),
                    1 => ArgValue::F64((n % 1_000_000) as f64 / 8.0),
                    _ => ArgValue::Str(format!("cpu/lu/AdvHetx{}", n % 16)),
                };
                (KEYS[key].to_string(), value)
            })
            .collect();
        let start = recorder.now_us();
        if *span {
            recorder.record_span(NAMES[*name], "job", start, start + len, args);
        } else {
            recorder.instant(NAMES[*name], "job", args);
        }
    }
    (recorder.to_jsonl(), recorder.events())
}

/// The reader's contract on `bytes`: an error, or one event per
/// non-blank line that serializes back to that line's value tree.
fn read_back(bytes: &[u8]) -> Option<Vec<TraceEvent>> {
    let text = std::str::from_utf8(bytes).ok()?;
    let events = parse_jsonl(text).ok()?;
    let lines: Vec<&str> = text.lines().filter(|l| !l.trim().is_empty()).collect();
    assert_eq!(lines.len(), events.len(), "accepted a log that lost lines");
    for (line, event) in lines.iter().zip(&events) {
        let mut tree: Value = serde_json::from_str(line).expect("an accepted line is JSON");
        if let Value::Object(fields) = &mut tree {
            if !fields.iter().any(|(k, _)| k == "args") {
                fields.push(("args".into(), Value::Object(Vec::new())));
            }
        }
        assert_eq!(
            event.to_value(),
            tree,
            "accepted a line it does not reproduce: {line}"
        );
    }
    Some(events)
}

/// Asserts that `err` names what the reader found, never a Rust
/// `Option` (`None`, `Some(..)`).
fn assert_plain_error(err: &str) {
    assert!(
        !err.contains("None") && !err.contains("Some("),
        "the error prints an Option: {err}"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// A log cut at any byte reads as an error that names what the
    /// reader found or as the events of the lines it still holds whole;
    /// the intact log reads back as recorded.
    #[test]
    fn truncation_at_every_offset_is_an_error_or_a_prefix(raw in raw_events()) {
        let (text, recorded) = recorded_log(&raw);
        let bytes = text.as_bytes();
        for cut in 0..bytes.len() {
            if let Some(events) = read_back(&bytes[..cut]) {
                prop_assert!(events.len() <= recorded.len());
                prop_assert_eq!(&events[..], &recorded[..events.len()]);
            } else if let Err(err) = parse_jsonl(&text[..cut]) {
                assert_plain_error(&err);
            }
        }
        prop_assert_eq!(read_back(bytes).expect("the intact log reads"), recorded);
    }

    /// Flipped bits anywhere — digits, names, keys, punctuation — never
    /// yield an event the text does not say, and never panic.
    #[test]
    fn bit_flips_never_yield_a_wrong_event(
        raw in raw_events(),
        flips in vec((0usize..1 << 20, 0u32..8), 1..4),
    ) {
        let mut bytes = recorded_log(&raw).0.into_bytes();
        for (at, bit) in flips {
            let at = at % bytes.len();
            bytes[at] ^= 1 << bit;
        }
        read_back(&bytes);
    }

    /// A digit changed inside a track, timestamp or arg reads as the
    /// number the text now says, or as an error.
    #[test]
    fn a_changed_digit_is_read_faithfully_or_rejected(
        raw in raw_events(),
        pick in 0usize..1 << 20,
        digit in 0u8..10,
    ) {
        let mut bytes = recorded_log(&raw).0.into_bytes();
        let digits: Vec<usize> = (0..bytes.len()).filter(|&i| bytes[i].is_ascii_digit()).collect();
        let at = digits[pick % digits.len()];
        bytes[at] = b'0' + digit;
        read_back(&bytes);
    }

    /// A line whose kind, timestamp fields or whole format belong to
    /// something else is an error, also when it only gains the other
    /// kind's timestamp.
    #[test]
    fn a_swapped_schema_is_an_error(raw in raw_events(), swap in 0usize..6, line in 0usize..8) {
        let (text, _) = recorded_log(&raw);
        let mut lines: Vec<String> = text.lines().map(str::to_string).collect();
        let at = line % lines.len();
        let victim = &lines[at];
        let swapped = match swap {
            0 if victim.contains(r#""kind":"span""#) => {
                victim.replace(r#""kind":"span""#, r#""kind":"instant""#)
            }
            0 => victim.replace(r#""kind":"instant""#, r#""kind":"span""#),
            1 if victim.contains(r#""at_us""#) => victim.replace(r#""at_us""#, r#""start_us""#),
            1 => victim.replace(r#""start_us""#, r#""at_us""#),
            2 if victim.contains(r#""at_us""#) => victim.replacen('{', r#"{"end_us":1,"#, 1),
            2 => victim.replacen('{', r#"{"at_us":1,"#, 1),
            3 => victim.replace(r#""track""#, r#""lane""#),
            4 => r#"{"schema":"hetsim-profile-v1","rows":[]}"#.to_string(),
            _ => r#"{"schema":"hetsim-shard-v1","shard":0,"of":2}"#.to_string(),
        };
        prop_assert_ne!(&swapped, victim);
        lines[at] = swapped;
        let err = parse_jsonl(&lines.join("\n")).expect_err("a swapped line reads");
        prop_assert!(err.starts_with(&format!("line {}:", at + 1)), "{}", err);
    }
}

/// An event written without `args` reads as one with none.
#[test]
fn an_absent_args_reads_as_empty() {
    let line = r#"{"kind":"instant","name":"job-finished","cat":"job","track":0,"at_us":4}"#;
    let events = read_back(line.as_bytes()).expect("reads");
    assert!(events[0].args.is_empty());
}
