//! Property tests of the `BENCH_*.json` reader (`BenchDump::from_json`).
//!
//! `repro bench --compare`, `--trend` and the CI ratchet read dumps that
//! an older build wrote. A dump carries no checksum, so "never a wrong
//! value" means: whatever the damage — a cut at any byte, flipped bits,
//! edited digits, another schema tag, appended bytes — reading it is an
//! error or a dump that serializes back to exactly the value tree the
//! text holds. The inputs are cut from a real recorded dump.

use hetsim_bench::{BenchDump, BENCH_SCHEMA};
use proptest::collection::vec;
use proptest::prelude::*;
use serde::value::Value;
use serde::Serialize;

/// A dump `repro bench` recorded on the 2-vCPU bench host.
const RECORDED: &str = include_str!("../../../BENCH_20.json");

/// The recorded dump cut down to the scenarios `keep` selects (at
/// least one), as `repro bench --out` writes it.
fn document(keep: &[bool]) -> String {
    let mut dump = BenchDump::from_json(RECORDED).expect("the recorded dump reads");
    let mut flags = keep.iter().cycle();
    dump.scenarios.retain(|_| *flags.next().expect("cycled"));
    if dump.scenarios.is_empty() {
        dump = BenchDump::from_json(RECORDED).expect("the recorded dump reads");
        dump.scenarios.truncate(1);
    }
    dump.to_json()
}

/// The reader's contract on `bytes`: an error, or a dump that
/// reproduces the value tree the bytes hold. A panic fails the test.
fn read_back(bytes: &[u8]) -> Option<BenchDump> {
    let text = std::str::from_utf8(bytes).ok()?;
    let dump = BenchDump::from_json(text).ok()?;
    let tree: Value = serde_json::from_str(text).expect("an accepted dump is JSON");
    assert_eq!(
        dump.to_value(),
        tree,
        "accepted a dump it does not reproduce: {text}"
    );
    Some(dump)
}

/// `text` with the first `field`'s number rewritten by `edit`.
fn with_number(text: &str, field: &str, edit: impl Fn(&str) -> String) -> String {
    let key = format!("\"{field}\": ");
    let at = text.find(&key).expect("the field") + key.len();
    let end = at + text[at..].find([',', '\n']).expect("the number ends");
    format!("{}{}{}", &text[..at], edit(&text[at..end]), &text[end..])
}

fn picks() -> impl Strategy<Value = Vec<bool>> {
    vec(any::<bool>(), 10)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// A dump cut at any byte is an error, unless the cut removes only
    /// the trailing newline; the whole one reads back as written.
    #[test]
    fn truncation_at_every_offset_is_an_error(keep in picks()) {
        let text = document(&keep);
        let bytes = text.as_bytes();
        for cut in 0..bytes.len() {
            let blank_tail = bytes[cut..].iter().all(u8::is_ascii_whitespace);
            prop_assert!(read_back(&bytes[..cut]).is_none() || blank_tail, "cut at {} was accepted", cut);
        }
        let whole = read_back(bytes).expect("the intact dump reads");
        prop_assert_eq!(whole.to_json(), text);
    }

    /// Flipped bits anywhere never yield a value the text does not say,
    /// and never panic.
    #[test]
    fn bit_flips_never_yield_a_wrong_value(
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

    /// A digit changed inside a number reads as the number the text now
    /// says, or is an error.
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

    /// Any other schema tag is an error.
    #[test]
    fn a_swapped_schema_is_an_error(keep in picks(), version in 0u64..100, other in 0usize..3) {
        let schema = match other {
            0 => format!("hetsim-bench-v{version}"),
            1 => "hetsim-profile-v1".to_string(),
            _ => String::new(),
        };
        if schema == BENCH_SCHEMA {
            return Ok(());
        }
        let swapped = document(&keep).replace(BENCH_SCHEMA, &schema);
        prop_assert!(read_back(swapped.as_bytes()).is_none());
    }

    /// A dump edited into a form no build writes — an extra field, two
    /// fields swapped, a count written `-0`, a float written as an
    /// integer — is an error: reading it would drop or reinterpret what
    /// the text says.
    #[test]
    fn an_edited_dump_is_an_error(keep in picks(), edit in 0usize..4) {
        let text = document(&keep);
        let edited = match edit {
            0 => text.replacen('{', "{\n  \"note\": 1,", 1),
            1 => text.replacen("\"insts\": ", "\"@\": ", 1)
                .replacen("\"seed\": ", "\"insts\": ", 1)
                .replacen("\"@\": ", "\"seed\": ", 1),
            2 => with_number(&text, "warmup", |_| "-0".to_string()),
            _ => with_number(&text, "mean_us", |x| x.split('.').next().expect("digits").to_string()),
        };
        prop_assert_ne!(&edited, &text);
        prop_assert!(read_back(edited.as_bytes()).is_none(), "accepted {}", edited);
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
