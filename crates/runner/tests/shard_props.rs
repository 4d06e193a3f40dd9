//! Property tests of the shard partitioner.
//!
//! The shard protocol's correctness rests on the partition being an
//! exact cover that every process can recompute independently. These
//! properties pin that down for arbitrary job counts, shard counts and
//! key material — the unit tests in `shard.rs` cover the hand-picked
//! edges, this file covers the space between them.

use std::path::{Path, PathBuf};

use hetsim_runner::{manifest_path, partition, JobKey, ShardManifest, SHARD_SCHEMA};
use proptest::collection::vec;
use proptest::prelude::*;
use serde::value::Value;
use serde::Serialize;

/// Arbitrary key material: keys derive from hashed byte strings, the
/// same way real jobs derive them from canonical configs.
fn keys_from(seeds: &[Vec<u8>]) -> Vec<JobKey> {
    seeds.iter().map(|s| JobKey::from_bytes(s)).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Every index appears in exactly one shard (no loss, no
    /// duplication), and each shard preserves submission order — so
    /// re-concatenating shards is a permutation-free exact cover.
    #[test]
    fn partition_is_an_exact_cover(
        seeds in proptest::collection::vec(proptest::collection::vec(any::<u8>(), 0..24), 0..80),
        shards in 1usize..12,
    ) {
        let keys = keys_from(&seeds);
        let parts = partition(&keys, shards);
        prop_assert_eq!(parts.len(), shards);
        for part in &parts {
            prop_assert!(part.windows(2).all(|w| w[0] < w[1]));
        }
        let mut all: Vec<usize> = parts.iter().flatten().copied().collect();
        all.sort_unstable();
        let expect: Vec<usize> = (0..keys.len()).collect();
        prop_assert_eq!(all, expect);
    }

    /// The partition is a pure function: computing it twice — as the
    /// supervisor and each worker do in separate processes — gives the
    /// identical assignment.
    #[test]
    fn partition_is_deterministic_across_calls(
        seeds in proptest::collection::vec(proptest::collection::vec(any::<u8>(), 0..24), 0..80),
        shards in 1usize..12,
    ) {
        let keys = keys_from(&seeds);
        prop_assert_eq!(partition(&keys, shards), partition(&keys, shards));
        for key in &keys {
            prop_assert_eq!(key.shard_of(shards), key.shard_of(shards));
        }
    }

    /// One shard degenerates to the whole batch in submission order —
    /// `--shards 1` must behave exactly like a single-process run.
    #[test]
    fn single_shard_is_the_identity(
        seeds in proptest::collection::vec(proptest::collection::vec(any::<u8>(), 0..24), 0..80),
    ) {
        let keys = keys_from(&seeds);
        let parts = partition(&keys, 1);
        prop_assert_eq!(parts.len(), 1);
        let expect: Vec<usize> = (0..keys.len()).collect();
        prop_assert_eq!(parts[0].clone(), expect);
    }

    /// Shard membership depends only on the key: dropping an arbitrary
    /// subset of the batch never moves a surviving job to a different
    /// shard. (This is what keeps warm caches valid when a campaign
    /// grows or shrinks between runs.)
    #[test]
    fn membership_is_stable_under_batch_changes(
        seeds in proptest::collection::vec(proptest::collection::vec(any::<u8>(), 0..24), 1..80),
        shards in 1usize..12,
        keep_mask in proptest::collection::vec(any::<bool>(), 80),
    ) {
        let keys = keys_from(&seeds);
        let survivors: Vec<JobKey> = keys
            .iter()
            .zip(&keep_mask)
            .filter(|(_, keep)| **keep)
            .map(|(k, _)| *k)
            .collect();
        for key in &survivors {
            prop_assert_eq!(key.shard_of(shards), key.shard_of(shards));
        }
        // Assignment of a surviving key is identical whether computed
        // against the full batch or the shrunken one.
        let full = partition(&keys, shards);
        let half = partition(&survivors, shards);
        for (shard, part) in half.iter().enumerate() {
            for &idx in part {
                let key = survivors[idx];
                prop_assert_eq!(key.shard_of(shards), shard);
                let pos = keys.iter().position(|k| *k == key).unwrap();
                prop_assert!(full[shard].contains(&pos));
            }
        }
    }

    /// Keys survive the manifest round trip: hex → from_hex is the
    /// identity, so the supervisor can audit a worker's claimed cover.
    #[test]
    fn keys_round_trip_through_hex(
        seeds in proptest::collection::vec(proptest::collection::vec(any::<u8>(), 0..24), 0..40),
    ) {
        for key in keys_from(&seeds) {
            prop_assert_eq!(JobKey::from_hex(&key.hex()), Some(key));
        }
    }
}

/// An empty directory for `test`.
fn fresh_dir(test: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("hetsim-shard-props-{}-{test}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("mkdir");
    dir
}

/// A manifest as a worker writes it, from arbitrary counts and keys.
fn manifest(counts: (u64, u64, u64, u64, u64), seeds: &[Vec<u8>]) -> ShardManifest {
    let (shard, shards, attempt, jobs, executed) = counts;
    ShardManifest {
        schema: SHARD_SCHEMA.into(),
        shard,
        shards,
        attempt,
        jobs,
        executed,
        keys: keys_from(seeds).iter().map(JobKey::hex).collect(),
    }
}

/// The text `ShardManifest::write_to` writes for `m`.
fn written(dir: &Path, m: &ShardManifest) -> Vec<u8> {
    let path = manifest_path(dir, 0);
    m.write_to(&path).expect("write manifest");
    std::fs::read(&path).expect("read manifest")
}

/// The reader's contract on `bytes`: an error, or a manifest that
/// serializes back to exactly the value tree the text holds. A panic
/// fails the test.
fn read_back(dir: &Path, bytes: &[u8]) -> Option<ShardManifest> {
    let path = dir.join("damaged.manifest.json");
    std::fs::write(&path, bytes).expect("write damaged manifest");
    let manifest = ShardManifest::load(&path).ok()?;
    let text = std::str::from_utf8(bytes).expect("an accepted manifest is UTF-8");
    let tree: Value = serde_json::from_str(text).expect("an accepted manifest is JSON");
    assert_eq!(
        manifest.to_value(),
        tree,
        "accepted a manifest it does not reproduce: {text}"
    );
    Some(manifest)
}

fn counts() -> impl Strategy<Value = (u64, u64, u64, u64, u64)> {
    (0u64..64, 1u64..65, 0u64..4, 0u64..1_000, any::<u64>())
}

fn key_seeds() -> impl Strategy<Value = Vec<Vec<u8>>> {
    vec(vec(any::<u8>(), 0..16), 0..6)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// A manifest cut at any byte is an error (the object never closes
    /// early); the whole one reads back as written.
    #[test]
    fn a_manifest_truncated_at_every_offset_is_an_error(counts in counts(), seeds in key_seeds()) {
        let dir = fresh_dir("truncate");
        let m = manifest(counts, &seeds);
        let bytes = written(&dir, &m);
        for cut in 0..bytes.len() {
            let trimmed = bytes[..cut].iter().all(u8::is_ascii_whitespace)
                || bytes[cut..].iter().all(u8::is_ascii_whitespace);
            let read = read_back(&dir, &bytes[..cut]);
            prop_assert!(read.is_none() || trimmed, "accepted a cut at {}", cut);
        }
        prop_assert_eq!(read_back(&dir, &bytes), Some(m));
    }

    /// Flipped bits in the digits and the keys read as what the text now
    /// says, or as an error; never a panic.
    #[test]
    fn bit_flips_in_digits_and_keys_never_yield_a_wrong_manifest(
        counts in counts(),
        seeds in key_seeds(),
        flips in vec((0usize..1 << 20, 0u32..8), 1..4),
    ) {
        let dir = fresh_dir("flips");
        let mut bytes = written(&dir, &manifest(counts, &seeds));
        // Digits and the letters of field names and hex keys.
        let targets: Vec<usize> = (0..bytes.len())
            .filter(|&i| bytes[i].is_ascii_alphanumeric() || bytes[i] == b'_')
            .collect();
        for (at, bit) in flips {
            bytes[targets[at % targets.len()]] ^= 1 << bit;
        }
        read_back(&dir, &bytes);
    }

    /// Another schema tag is an error, whatever else the manifest holds.
    #[test]
    fn a_swapped_schema_tag_is_an_error(
        counts in counts(),
        seeds in key_seeds(),
        tag in 0usize..4,
    ) {
        let dir = fresh_dir("schema");
        let m = ShardManifest {
            schema: ["hetsim-shard-v0", "hetsim-shard-v2", "hetsim-cache-v2", ""][tag].into(),
            ..manifest(counts, &seeds)
        };
        prop_assert!(read_back(&dir, &written(&dir, &m)).is_none());
    }

    /// A manifest edited into a form no worker writes — an extra field,
    /// two fields swapped, a count written `-0` or negative — is an
    /// error: reading it would drop or reinterpret what the text says.
    #[test]
    fn an_edited_manifest_is_an_error(counts in counts(), seeds in key_seeds(), edit in 0usize..3) {
        let dir = fresh_dir("edited");
        let m = manifest(counts, &seeds);
        let text = String::from_utf8(written(&dir, &m)).expect("UTF-8");
        let edited = match edit {
            0 => text.replacen('{', "{\n  \"note\": 1,", 1),
            1 => {
                let (shard, shards) = (format!("\"shard\": {},", m.shard), format!("\"shards\": {},", m.shards));
                text.replacen(&shard, "@", 1).replacen(&shards, &shard, 1).replacen('@', &shards, 1)
            }
            _ => text.replacen(&format!("\"attempt\": {}", m.attempt), &format!("\"attempt\": -{}", m.attempt), 1),
        };
        prop_assert_ne!(&edited, &text);
        prop_assert!(read_back(&dir, edited.as_bytes()).is_none(), "accepted {}", edited);
    }

    /// Bytes appended after the manifest make it an error.
    #[test]
    fn appended_garbage_is_an_error(
        counts in counts(),
        seeds in key_seeds(),
        garbage in vec(any::<u8>(), 1..24),
    ) {
        let dir = fresh_dir("garbage");
        let mut bytes = written(&dir, &manifest(counts, &seeds));
        bytes.extend(&garbage);
        let blank = garbage.iter().all(u8::is_ascii_whitespace);
        prop_assert!(read_back(&dir, &bytes).is_none() || blank);
    }
}
