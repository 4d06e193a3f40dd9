//! Property tests of the stats-dump reader (`DumpDoc`) behind `repro
//! diff` and `ci-gate`.
//!
//! `DumpDoc` flattens a document into lanes instead of deserializing
//! it, so "never a wrong value" means: whatever the damage — a cut at
//! any byte, flipped bits, edited digits, swapped schema tags, appended
//! bytes, a key that spells another leaf's path — reading it is an
//! error, or lanes that hold each non-null leaf of the text's value
//! tree exactly once, under its path, and no two leaves under one path.
//! The inputs are cut from a real baseline.

use hetcore::regression::{diff_dumps, DiffPolicy, DumpDoc};
use hetcore::CPU_SCHEMA;
use proptest::collection::vec;
use proptest::prelude::*;
use serde::value::Value;

/// The checked-in Figure 7 baseline.
const BASELINE: &str = include_str!("../../../baselines/fig7.json");

/// Keeps the `items` that `flags` select, or else the first one.
fn pick<'a, T: Clone>(items: &mut Vec<T>, flags: &mut impl Iterator<Item = &'a bool>) {
    let first = items[0].clone();
    items.retain(|_| *flags.next().expect("cycled"));
    if items.is_empty() {
        items.push(first);
    }
}

/// The baseline cut down to the designs and report rows `keep` selects
/// (at least one of each), pretty-printed as `repro baseline` writes.
fn document(keep: &[bool]) -> String {
    let mut tree: Value = serde_json::from_str(BASELINE).expect("the baseline parses");
    let mut flags = keep.iter().cycle();
    let Value::Object(top) = &mut tree else {
        panic!("the baseline is an object");
    };
    for (key, section) in top.iter_mut() {
        let children = match (key.as_str(), section) {
            ("cpu", Value::Object(cpu)) => cpu,
            ("reports", Value::Array(reports)) => {
                for report in reports.iter_mut() {
                    let Value::Object(fields) = report else {
                        continue;
                    };
                    for (name, rows) in fields.iter_mut() {
                        if let ("rows", Value::Array(rows)) = (name.as_str(), rows) {
                            pick(rows, &mut flags);
                        }
                    }
                }
                continue;
            }
            _ => continue,
        };
        for (name, designs) in children.iter_mut() {
            if let ("designs", Value::Object(designs)) = (name.as_str(), designs) {
                pick(designs, &mut flags);
            }
        }
    }
    serde_json::to_string_pretty(&tree).expect("value trees serialize")
}

/// A lane entry, for comparing lanes with the text's leaves.
#[derive(Debug, Clone, PartialEq)]
enum Leaf {
    Counter(u64),
    Metric(f64),
    Tag(String),
}

/// Each non-null leaf of a dump's value tree under the path `DumpDoc`
/// files it at: `a.b` / `a[0]`, and `report.<title>.<label>.<column>`
/// for a report cell. Panics on a report shape the reader must refuse.
fn leaves(tree: &Value) -> Vec<(String, Leaf)> {
    fn walk(v: &Value, path: String, out: &mut Vec<(String, Leaf)>) {
        match v {
            Value::Object(entries) => {
                for (key, child) in entries {
                    walk(child, format!("{path}.{key}"), out);
                }
            }
            Value::Array(items) => {
                for (i, child) in items.iter().enumerate() {
                    walk(child, format!("{path}[{i}]"), out);
                }
            }
            Value::UInt(n) => out.push((path, Leaf::Counter(*n))),
            Value::Int(n) => out.push((path, Leaf::Metric(*n as f64))),
            Value::Float(x) => out.push((path, Leaf::Metric(*x))),
            Value::Str(s) => out.push((path, Leaf::Tag(s.clone()))),
            Value::Bool(b) => out.push((path, Leaf::Tag(b.to_string()))),
            Value::Null => {}
        }
    }
    let mut out = Vec::new();
    for (key, section) in tree.as_object().expect("an accepted dump is an object") {
        if key != "reports" {
            walk(section, key.clone(), &mut out);
            continue;
        }
        for report in section.as_array().expect("accepted reports are an array") {
            let fields = report.as_object().expect("an accepted report is an object");
            let names: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
            assert_eq!(
                names,
                ["title", "columns", "rows"],
                "accepted report fields"
            );
            let title = report.get("title").and_then(Value::as_str).expect("title");
            let columns = report
                .get("columns")
                .and_then(Value::as_array)
                .expect("columns");
            for row in report.get("rows").and_then(Value::as_array).expect("rows") {
                let row = row.as_array().expect("an accepted row is an array");
                let label = row[0].as_str().expect("accepted a non-string label");
                let cells = row[1].as_array().expect("accepted non-array cells");
                assert_eq!(cells.len(), columns.len(), "accepted a short or long row");
                for (column, cell) in columns.iter().zip(cells) {
                    let column = column.as_str().expect("accepted a non-string column");
                    let path = format!("report.{title}.{label}.{column}");
                    match cell {
                        Value::Null => {}
                        _ => out.push((path, Leaf::Metric(cell.as_f64().expect("a number")))),
                    }
                }
            }
        }
    }
    out
}

/// Sorted, so lanes and leaves compare as multisets.
fn sorted(mut entries: Vec<(String, Leaf)>) -> Vec<(String, Leaf)> {
    entries.sort_by_cached_key(|(path, leaf)| format!("{path}\u{0}{leaf:?}"));
    entries
}

/// The reader's contract on `bytes`: an error, or lanes that hold each
/// non-null leaf of the text exactly once, under its path, and each
/// path once.
fn read_back(bytes: &[u8]) -> Option<DumpDoc> {
    let text = std::str::from_utf8(bytes).ok()?;
    let doc = DumpDoc::parse(text).ok()?;
    let tree: Value = serde_json::from_str(text).expect("an accepted dump is JSON");
    let counters = doc
        .counters
        .iter()
        .map(|(p, n)| (p.clone(), Leaf::Counter(*n)));
    let metrics = doc
        .metrics
        .iter()
        .map(|(p, x)| (p.clone(), Leaf::Metric(*x)));
    let tags = doc
        .tags
        .iter()
        .map(|(p, s)| (p.clone(), Leaf::Tag(s.clone())));
    let lanes = sorted(counters.chain(metrics).chain(tags).collect());
    assert_eq!(
        lanes,
        sorted(leaves(&tree)),
        "lanes differ from the leaves of: {text}"
    );
    for pair in lanes.windows(2) {
        assert_ne!(pair[0].0, pair[1].0, "two leaves share a path in: {text}");
    }
    Some(doc)
}

fn picks() -> impl Strategy<Value = Vec<bool>> {
    vec(any::<bool>(), 1..24)
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
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// A dump cut at any byte is an error that names what the reader
    /// found, unless the cut leaves only whitespace behind; the whole
    /// one reads every leaf. (One design keeps the quadratic walk
    /// short.)
    #[test]
    fn truncation_at_every_offset_is_an_error(design in 0usize..11) {
        let keep: Vec<bool> = (0..11).map(|i| i == design).collect();
        let text = document(&keep);
        let bytes = text.as_bytes();
        for cut in 0..bytes.len() {
            let blank_tail = bytes[cut..].iter().all(u8::is_ascii_whitespace);
            prop_assert!(read_back(&bytes[..cut]).is_none() || blank_tail, "cut at {} was accepted", cut);
            if let Err(err) = DumpDoc::parse(&text[..cut]) {
                assert_plain_error(&err);
            }
        }
        prop_assert!(read_back(bytes).is_some(), "the intact dump reads");
    }

    /// Flipped bits anywhere never drop, duplicate or misfile a leaf,
    /// and never panic.
    #[test]
    fn bit_flips_never_yield_a_wrong_lane(
        keep in picks(),
        flips in vec((0usize..1 << 20, 0u32..8), 1..4),
    ) {
        let mut bytes = document(&keep).into_bytes();
        for (at, bit) in flips {
            let at = at % bytes.len();
            bytes[at] ^= 1 << bit;
        }
        read_back(&bytes);
    }

    /// A changed digit reads as the number the text now says, or is an
    /// error.
    #[test]
    fn a_changed_digit_is_read_faithfully_or_rejected(
        keep in picks(),
        edits in vec((0usize..1 << 20, 0u8..10), 1..4),
    ) {
        let mut bytes = document(&keep).into_bytes();
        let digits: Vec<usize> = (0..bytes.len()).filter(|&i| bytes[i].is_ascii_digit()).collect();
        for (pick, digit) in edits {
            bytes[digits[pick % digits.len()]] = b'0' + digit;
        }
        read_back(&bytes);
    }

    /// A swapped schema tag reads as the tag the text says, and the diff
    /// against the baseline fails on it; a `schema` section that is not
    /// an object is an error.
    #[test]
    fn a_swapped_schema_is_read_and_fails_the_diff(keep in picks(), version in 0u64..100) {
        let text = document(&keep);
        let tag = format!("cpu-v{version}");
        if tag == CPU_SCHEMA {
            return Ok(());
        }
        let written = format!("\"cpu\": \"{CPU_SCHEMA}\"");
        let swapped = text.replacen(&written, &format!("\"cpu\": \"{tag}\""), 1);
        prop_assert_ne!(&swapped, &text);
        let base = read_back(text.as_bytes()).expect("the intact dump reads");
        let cand = read_back(swapped.as_bytes()).expect("a swapped tag reads");
        prop_assert!(!diff_dumps(&base, &cand, &DiffPolicy::default()).is_clean());
        let flat = text.replacen("\"schema\": {", "\"schema\": \"flat\", \"was\": {", 1);
        prop_assert!(read_back(flat.as_bytes()).is_none(), "accepted a flat schema");
    }

    /// A path names one leaf: a top-level key that spells the path of a
    /// leaf the dump already holds (a counter, a tag or a report cell)
    /// makes it an error naming that path.
    #[test]
    fn no_two_leaves_may_share_a_path(keep in picks(), pick in 0usize..1 << 20) {
        let text = document(&keep);
        let tree: Value = serde_json::from_str(&text).expect("the baseline parses");
        let paths = leaves(&tree);
        let (path, _) = &paths[pick % paths.len()];
        let key = serde_json::to_string(&Value::Str(path.clone())).expect("a key serializes");
        let end = text.rfind('}').expect("the dump is an object");
        let collided = format!("{}, {key}: 1\n}}", text[..end].trim_end());
        prop_assert!(read_back(text.as_bytes()).is_some(), "the intact dump reads");
        let err = DumpDoc::parse(&collided).expect_err("two leaves under one path");
        prop_assert_eq!(err, format!("two leaves share the path `{path}`"));
    }

    /// Bytes appended after the dump make it an error.
    #[test]
    fn appended_garbage_is_an_error(keep in picks(), garbage in vec(any::<u8>(), 1..24)) {
        let mut bytes = document(&keep).into_bytes();
        bytes.extend(&garbage);
        let blank = garbage.iter().all(u8::is_ascii_whitespace);
        prop_assert!(read_back(&bytes).is_none() || blank);
    }
}
