//! Property tests of the strict `hetsim-profile-v1` reader.
//!
//! A profile document carries no checksum, so "never a wrong value"
//! means: whatever the damage — a cut at any byte, flipped bits,
//! another schema tag — reading it is an error or a value that
//! serializes back to exactly the value tree the text holds. The
//! reader never panics, and never merges, drops, reorders or
//! reinterprets what the text says.

use hetsim_obs::{CycleProfile, ProfileRow, PROFILE_SCHEMA};
use hetsim_stats::attribution::CycleClass;
use hetsim_stats::Histogram;
use proptest::collection::vec;
use proptest::prelude::*;
use serde::value::Value;
use serde::{Deserialize, Serialize};

/// One unit: design and unit index, per-class cycles, and ROB samples.
type RawRow = (usize, usize, Vec<u64>, Vec<u64>);

fn rows() -> impl Strategy<Value = Vec<RawRow>> {
    let row = (
        0usize..3,
        0usize..12,
        vec(0u64..5_000, 7..8),
        vec(0u64..300, 0..6),
    );
    vec(row, 1..6)
}

/// The pretty-printed document of `raw` (rows sharing a key merge).
fn document(raw: &[RawRow]) -> String {
    let mut profile = CycleProfile::new();
    for (design, unit, classes, samples) in raw {
        let design = ["AdvHet", "BaseCMOS", "BaseTFET"][*design];
        let mut row = ProfileRow::new(design, format!("core{unit}"));
        for (&class, &cycles) in CycleClass::ALL.iter().zip(classes) {
            row.classes.charge(class, cycles);
        }
        row.cycles = row.classes.total();
        let mut rob = Histogram::new();
        samples.iter().for_each(|&s| rob.record(s));
        row.add_histogram("rob", &rob);
        profile.merge_row(row);
    }
    serde_json::to_string_pretty(&profile).expect("value trees serialize")
}

/// The reader's contract on `bytes`: an error, or a consistent profile
/// that reproduces the value tree the bytes hold.
fn read_back(bytes: &[u8]) -> Option<CycleProfile> {
    let text = std::str::from_utf8(bytes).ok()?;
    let tree = serde_json::from_str::<Value>(text).ok()?;
    let profile = CycleProfile::from_value(&tree).ok()?;
    assert_eq!(
        profile.to_value(),
        tree,
        "accepted a value it does not reproduce"
    );
    for row in profile.rows() {
        assert_eq!(row.classes.total(), row.cycles, "accepted unequal cycles");
        for (name, h) in &row.histograms {
            let in_buckets: u64 = h.bucket_counts().iter().sum();
            assert_eq!(
                in_buckets,
                h.count(),
                "accepted `{name}` with a wrong count"
            );
        }
    }
    Some(profile)
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

    /// A document cut at any byte is an error that names what the
    /// reader found, except the whole text, which reads back as the
    /// profile written.
    #[test]
    fn truncation_at_every_offset_is_an_error(raw in rows()) {
        let text = document(&raw);
        let bytes = text.as_bytes();
        for cut in 0..bytes.len() {
            prop_assert!(read_back(&bytes[..cut]).is_none(), "cut at {} was accepted", cut);
            let err = serde_json::from_str::<CycleProfile>(&text[..cut]).expect_err("rejected");
            assert_plain_error(&err.to_string());
        }
        let whole = read_back(bytes).expect("the intact document reads");
        prop_assert_eq!(serde_json::to_string_pretty(&whole).expect("serializes"), text);
    }

    /// Flipped bits anywhere — digits, names, punctuation — never yield
    /// a value the text does not say, and never panic.
    #[test]
    fn bit_flips_never_yield_a_wrong_value(
        raw in rows(),
        flips in vec((0usize..1 << 20, 0u32..8), 1..4),
    ) {
        let mut bytes = document(&raw).into_bytes();
        for (at, bit) in flips {
            let at = at % bytes.len();
            bytes[at] ^= 1 << bit;
        }
        read_back(&bytes);
    }

    /// A digit flipped inside a number: the count cross-checks
    /// (cycles vs classes, count vs buckets, quantiles vs buckets)
    /// catch every change they cover, and the rest reads faithfully.
    #[test]
    fn a_changed_number_is_caught_or_read_faithfully(
        raw in rows(),
        pick in 0usize..1 << 20,
        digit in 0u8..10,
    ) {
        let mut bytes = document(&raw).into_bytes();
        let digits: Vec<usize> = (0..bytes.len()).filter(|&i| bytes[i].is_ascii_digit()).collect();
        let at = digits[pick % digits.len()];
        bytes[at] = b'0' + digit;
        read_back(&bytes);
    }

    /// Any other schema tag is an error.
    #[test]
    fn a_swapped_schema_is_an_error(raw in rows(), version in 0u64..100, other in 0usize..3) {
        let text = document(&raw);
        let schema = match other {
            0 => format!("hetsim-profile-v{version}"),
            1 => "hetsim-cache-segment-v2".to_string(),
            _ => format!("hetsim-shard-v{version}"),
        };
        if schema == PROFILE_SCHEMA {
            return Ok(());
        }
        let swapped = text.replace(PROFILE_SCHEMA, &schema);
        prop_assert!(read_back(swapped.as_bytes()).is_none());
    }
}
