//! Property tests of the result cache's segment reader.
//!
//! Entries are runner records — an outcome plus the observations its
//! simulation returned — and go in through the public API; then the
//! segments on disk are
//! damaged: truncated at every byte offset, bit-flipped (key digits,
//! length and checksum fields included), given another header, padded
//! with garbage, or spliced together with a second writer's segment.
//! Whatever the damage, every lookup returns the exact stored value or
//! a counted miss — never a panic, never another key's value — and
//! every record the damage did not touch still hits. A last property
//! holds the key spelling the reader parses: `from_hex` inverts `hex`.

use std::path::{Path, PathBuf};

use hetsim_obs::profile::CycleClass;
use hetsim_obs::{Observations, ProfileRow};
use hetsim_runner::{CacheStats, JobKey, ResultCache};
use proptest::collection::vec;
use proptest::prelude::*;

/// A runner's record: the outcome and its observations.
type Value = ((u64, String), Observations);

/// Observations derived from `text`: a row for its first byte (if
/// any), with cycles and skip counts from the bytes. The skipped cycles
/// are the row's memory cycles, so they stay within its measured ones.
fn observed(i: u64, text: &[u8]) -> Observations {
    let mut observations = Observations {
        skipped_cycles: if text.is_empty() { 0 } else { i },
        wakeup_jumps: text.len() as u64,
        ..Observations::default()
    };
    for (unit, &byte) in text.iter().enumerate().take(1) {
        let mut row = ProfileRow::new(format!("D{i}"), format!("core{unit}"));
        row.classes.charge(CycleClass::Retire, u64::from(byte));
        row.classes.charge(CycleClass::MemLatency, i);
        row.cycles = row.classes.total();
        let mut rob = hetsim_stats::Histogram::new();
        rob.record_n(u64::from(byte % 7), row.cycles);
        row.add_histogram("rob", &rob);
        observations.profile.merge_row(row);
    }
    observations
}

/// One entry per text, each value distinct (it carries its index), so
/// an answer with another key's value cannot pass for the right one.
fn entries(texts: &[Vec<u8>]) -> Vec<(JobKey, Value)> {
    texts
        .iter()
        .enumerate()
        .map(|(i, text)| {
            let outcome = (i as u64, String::from_utf8_lossy(text).into_owned());
            let value = (outcome, observed(i as u64, text));
            (JobKey::of(&("cache-props", i as u64)), value)
        })
        .collect()
}

/// An empty directory for `test`.
fn fresh_dir(test: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("hetsim-cache-props-{}-{test}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("mkdir");
    dir
}

fn open(dir: &Path) -> ResultCache<Value> {
    ResultCache::on_disk(dir).expect("cache dir")
}

/// Writes `entries` through one handle; returns its segment.
fn write(dir: &Path, entries: &[(JobKey, Value)]) -> PathBuf {
    let cache = open(dir);
    for (key, value) in entries {
        cache.put(*key, value);
    }
    cache.path_of(entries[0].0).expect("a segment")
}

/// Where each of `entries`' records starts and ends in `bytes`, the
/// segment one handle wrote them to in order.
fn spans(bytes: &[u8], entries: &[(JobKey, Value)]) -> Vec<(usize, usize)> {
    let starts: Vec<usize> = entries
        .iter()
        .map(|(key, _)| {
            let digits = key.hex();
            bytes
                .windows(digits.len())
                .position(|w| w == digits.as_bytes())
                .expect("every record is in the segment")
        })
        .collect();
    let ends = starts.iter().skip(1).copied().chain([bytes.len()]);
    starts.iter().copied().zip(ends).collect()
}

/// Looks every entry up through a fresh handle on `dir`, checking the
/// contract: an answer is the entry's own value, and every miss is
/// counted. Returns which entries hit, and the handle's counters.
fn read_back(dir: &Path, entries: &[(JobKey, Value)]) -> (Vec<bool>, CacheStats) {
    let cache = open(dir);
    let hits: Vec<bool> = entries
        .iter()
        .map(|(key, value)| match cache.get(*key) {
            Some(found) => {
                assert_eq!(&found, value, "a lookup answered with a wrong value");
                true
            }
            None => false,
        })
        .collect();
    let stats = cache.stats();
    let missed = hits.iter().filter(|hit| !**hit).count() as u64;
    assert_eq!(stats.misses, missed, "every miss is counted");
    assert_eq!(stats.disk_hits, entries.len() as u64 - missed);
    assert!(stats.corrupt_files <= stats.misses);
    (hits, stats)
}

fn header_len(bytes: &[u8]) -> usize {
    bytes
        .iter()
        .position(|&b| b == b'\n')
        .expect("a header line")
        + 1
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// A segment cut at any byte keeps exactly the records wholly
    /// before the cut; at most the one record the cut splits counts
    /// as corrupt.
    #[test]
    fn truncation_at_every_offset_keeps_the_whole_records(
        texts in vec(vec(any::<u8>(), 0..24), 1..5),
    ) {
        let dir = fresh_dir("truncate");
        let entries = entries(&texts);
        let segment = write(&dir, &entries);
        let bytes = std::fs::read(&segment).expect("segment");
        let spans = spans(&bytes, &entries);
        for cut in 0..=bytes.len() {
            std::fs::write(&segment, &bytes[..cut]).expect("truncate");
            let (hits, stats) = read_back(&dir, &entries);
            let whole: Vec<bool> = spans.iter().map(|&(_, end)| end <= cut).collect();
            prop_assert_eq!(hits, whole, "cut at {}", cut);
            prop_assert!(stats.corrupt_files <= 1);
        }
    }

    /// Flipped bits anywhere — key digits, length and checksum fields
    /// targeted — never yield a wrong value, and every record wholly
    /// before the first flipped byte still hits.
    #[test]
    fn bit_flips_never_yield_a_wrong_value(
        texts in vec(vec(any::<u8>(), 0..24), 1..6),
        flips in vec((0usize..64, 0usize..4, 0usize..4096, 0u32..8), 1..4),
    ) {
        let dir = fresh_dir("flip");
        let entries = entries(&texts);
        let segment = write(&dir, &entries);
        let mut bytes = std::fs::read(&segment).expect("segment");
        let spans = spans(&bytes, &entries);
        let mut first = bytes.len();
        for (record, field, offset, bit) in flips {
            let start = spans[record % spans.len()].0;
            let at = match field {
                0 => start + offset % 32,      // key digits
                1 => start + 33 + offset % 8,  // payload length
                2 => start + 42 + offset % 16, // checksum
                _ => offset % bytes.len(),     // anywhere, header included
            };
            bytes[at] ^= 1 << bit;
            first = first.min(at);
        }
        std::fs::write(&segment, &bytes).expect("damage");
        let (hits, _) = read_back(&dir, &entries);
        for (hit, &(_, end)) in hits.iter().zip(&spans) {
            prop_assert!(*hit || end > first, "an undamaged record missed");
        }
    }

    /// A segment whose header is not this build's is not read at all:
    /// every lookup is a counted miss.
    #[test]
    fn an_unknown_header_hides_the_segment(
        texts in vec(vec(any::<u8>(), 0..24), 1..5),
        version in 1u64..100,
        garbage in vec(any::<u8>(), 0..40),
        use_garbage in any::<bool>(),
    ) {
        let dir = fresh_dir("header");
        let entries = entries(&texts);
        let segment = write(&dir, &entries);
        let bytes = std::fs::read(&segment).expect("segment");
        let header = &bytes[..header_len(&bytes)];
        let tag = if use_garbage {
            garbage
        } else {
            String::from_utf8_lossy(header)
                .replace("-v2\n", &format!("-v{version}\n"))
                .into_bytes()
        };
        if tag == header {
            return Ok(()); // nothing swapped
        }
        std::fs::write(&segment, [&tag[..], &bytes[header.len()..]].concat()).expect("swap");
        let (hits, stats) = read_back(&dir, &entries);
        prop_assert!(hits.iter().all(|hit| !hit));
        prop_assert_eq!(stats.misses, entries.len() as u64);
    }

    /// Garbage after the last record can only damage itself.
    #[test]
    fn appended_garbage_leaves_every_record_readable(
        texts in vec(vec(any::<u8>(), 0..24), 1..5),
        garbage in vec(any::<u8>(), 1..200),
    ) {
        let dir = fresh_dir("garbage");
        let entries = entries(&texts);
        let segment = write(&dir, &entries);
        let mut bytes = std::fs::read(&segment).expect("segment");
        bytes.extend_from_slice(&garbage);
        std::fs::write(&segment, &bytes).expect("append");
        let (hits, _) = read_back(&dir, &entries);
        prop_assert!(hits.iter().all(|hit| *hit));
    }

    /// Two writers interleave their puts (one key written by both);
    /// a reader sees every record. Then their segments are spliced
    /// into one file, at record boundaries (every record still hits)
    /// and at arbitrary byte boundaries (exact value or counted miss).
    #[test]
    fn interleaved_writers_segments_stay_readable(
        texts in vec(vec(any::<u8>(), 0..24), 2..8),
        owners in vec(any::<bool>(), 8..9),
        chunks in vec(1usize..64, 1..12),
    ) {
        let dir = fresh_dir("interleave");
        let entries = entries(&texts);
        let (a, b) = (open(&dir), open(&dir));
        // Entry 0 goes to both writers; the others alternate by `owners`.
        a.put(entries[0].0, &entries[0].1);
        let first = a.path_of(entries[0].0).expect("a's segment");
        b.put(entries[0].0, &entries[0].1);
        let mut written: [Vec<(JobKey, Value)>; 2] = [vec![entries[0].clone()], vec![entries[0].clone()]];
        for (i, (key, value)) in entries.iter().enumerate().skip(1) {
            let side = usize::from(owners[i % owners.len()]);
            [&a, &b][side].put(*key, value);
            written[side].push((*key, value.clone()));
        }
        drop((a, b));
        let second: Vec<PathBuf> = std::fs::read_dir(&dir)
            .expect("dir")
            .map(|e| e.expect("entry").path())
            .filter(|p| *p != first)
            .collect();
        prop_assert_eq!(second.len(), 1, "one segment per writer");
        let segments = [first, second[0].clone()];
        let (hits, _) = read_back(&dir, &entries);
        prop_assert!(hits.iter().all(|hit| *hit));

        // Splice at record boundaries, alternating sides.
        let bytes: Vec<Vec<u8>> = segments.iter().map(|s| std::fs::read(s).expect("segment")).collect();
        let records: Vec<Vec<&[u8]>> = bytes
            .iter()
            .zip(&written)
            .map(|(seg, side)| spans(seg, side).into_iter().map(|(s, e)| &seg[s..e]).collect())
            .collect();
        let mut spliced = bytes[0][..header_len(&bytes[0])].to_vec();
        for i in 0..records[0].len().max(records[1].len()) {
            for side in &records {
                if let Some(record) = side.get(i) {
                    spliced.extend_from_slice(record);
                }
            }
        }
        std::fs::write(&segments[0], &spliced).expect("splice");
        std::fs::remove_file(&segments[1]).expect("remove");
        let (hits, stats) = read_back(&dir, &entries);
        prop_assert!(hits.iter().all(|hit| *hit));
        prop_assert_eq!(stats.corrupt_files, 0);

        // Splice at arbitrary byte boundaries: the contract still holds.
        let (mut spliced, mut at) = (Vec::new(), [0usize; 2]);
        for (i, &chunk) in chunks.iter().cycle().take(64).enumerate() {
            let side = i % 2;
            let end = (at[side] + chunk).min(bytes[side].len());
            spliced.extend_from_slice(&bytes[side][at[side]..end]);
            at[side] = end;
        }
        std::fs::write(&segments[0], &spliced).expect("splice");
        read_back(&dir, &entries);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Keys survive the hex spelling a record's header gives them:
    /// `from_hex` inverts `hex`, so the segment reader reads back the
    /// key each record was written under.
    #[test]
    fn keys_round_trip_through_hex(seeds in vec(vec(any::<u8>(), 0..24), 0..40)) {
        for key in seeds.iter().map(|s| JobKey::from_bytes(s)) {
            prop_assert_eq!(JobKey::from_hex(&key.hex()), Some(key));
        }
    }
}
