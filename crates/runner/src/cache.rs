//! The content-addressed result cache: an on-disk directory of
//! append-only *segments*, keyed by [`JobKey`]. Each cache handle
//! appends its outcomes to one segment of its own and reads every
//! handle's records through an in-memory index of the directory. Torn,
//! damaged or unparseable records are counted and treated as misses —
//! a cache can never make a campaign wrong, only slow. A
//! [`crate::Runner`] without a cache directory has no cache at all and
//! runs every job it is given.
//!
//! # Segment layout
//!
//! A segment is named `<pid>-<n>.seg` (`n` from a process-wide counter,
//! retried while the name is taken) and starts with the line
//! [`SEGMENT_HEADER`], which carries the format's schema tag. Each
//! [`ResultCache::put`] then appends one record in a single `write`:
//!
//! ```text
//! <key: 32 hex digits> <payload length: 8 hex> <checksum: 16 hex>\n<payload>\n
//! ```
//!
//! The payload is the stored value's compact JSON (for a
//! [`crate::Runner`], the outcome and its observations as one
//! two-element array); the checksum is 64-bit
//! FNV-1a over the key digits followed by the payload. Nothing is
//! buffered in user space, so a record is readable by any handle once
//! `put` returns. A failed append retires the segment and the next
//! `put` opens a new one, so no record ever follows a partial one.
//!
//! # Reading
//!
//! The first disk lookup scans every segment in the directory into an
//! index from key to record location; [`ResultCache::refresh`] (called
//! by the runner at the start of each batch) makes the next lookup
//! read only what was appended since. A lookup re-reads its record and
//! checks key and checksum again before parsing the payload. The rules:
//!
//! * a record cut short (a torn tail, or an append still in flight)
//!   ends the scan of its segment until the next refresh;
//! * a record whose fields or checksum do not hold ends the scan of
//!   its segment for good, as does a header that is not
//!   [`SEGMENT_HEADER`];
//! * a torn or bad record whose key digits are readable marks that key
//!   damaged, and a payload that fails to parse does the same: looking
//!   the key up is a counted corrupt miss. An intact record of the key
//!   (the re-simulation's) supersedes the mark;
//! * of several intact records of one key, the last scanned answers —
//!   segments in name order, records in file order. They hold equal
//!   values, since a key fixes its outcome.
//!
//! Files without the `.seg` extension — subdirectories, shard
//! manifests, legacy per-key `<hex>.json` entries — are never read.

use std::collections::HashMap;
use std::ffi::OsStr;
use std::fs::{File, OpenOptions};
use std::io::{self, Read, Seek, SeekFrom, Write};
use std::marker::PhantomData;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use hetsim_stats::counters;
use serde::{Deserialize, Serialize};

use crate::job::JobKey;

counters! {
    /// Counters describing how a cache behaved over some window.
    ///
    /// Defined through [`hetsim_stats::counters!`], so `merge`/`minus`
    /// and `iter()` over `(name, value)` pairs come for free.
    pub struct CacheStats {
        /// Lookups answered from disk.
        pub disk_hits: u64,
        /// Lookups that found nothing (the job must run).
        pub misses: u64,
        /// Disk records that existed but were torn, damaged or failed
        /// to parse (counted as misses).
        pub corrupt_files: u64,
    }
}

impl CacheStats {
    /// Total lookups.
    pub fn lookups(&self) -> u64 {
        self.disk_hits + self.misses
    }

    /// Hit rate in `[0, 1]`; `0` when no lookups happened.
    pub fn hit_rate(&self) -> f64 {
        if self.lookups() == 0 {
            0.0
        } else {
            self.disk_hits as f64 / self.lookups() as f64
        }
    }
}

/// A result cache in one directory.
pub struct ResultCache<T> {
    disk: Disk,
    stats: Mutex<CacheStats>,
    _value: PhantomData<fn() -> T>,
}

impl<T: Serialize + Deserialize> ResultCache<T> {
    /// A cache backed by `dir` (created if missing). Nothing is read
    /// until the first disk lookup, and no segment is created until
    /// the first `put`.
    ///
    /// # Errors
    ///
    /// Returns the underlying I/O error if the directory cannot be
    /// created.
    pub fn on_disk(dir: impl Into<PathBuf>) -> std::io::Result<Self> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir)?;
        Ok(ResultCache {
            disk: Disk {
                dir,
                index: Mutex::new(Index::default()),
                writer: Mutex::new(None),
            },
            stats: Mutex::default(),
            _value: PhantomData,
        })
    }

    /// The segment holding `key`'s record, if this cache has indexed or
    /// written such a record.
    pub fn path_of(&self, key: JobKey) -> Option<PathBuf> {
        let mut index = self.disk.index();
        index.scan_if_stale(&self.disk.dir);
        match index.records.get(&key)? {
            Record::At { segment, .. } => Some(index.segments[*segment].path.clone()),
            Record::Damaged => None,
        }
    }

    /// Makes the next disk lookup first read what every handle
    /// appended to the directory since this handle last scanned it,
    /// new segments included. [`crate::Runner::run`] calls this at the
    /// start of each batch.
    pub(crate) fn refresh(&self) {
        self.disk.index().fresh = false;
    }

    /// Looks up `key`.
    pub fn get(&self, key: JobKey) -> Option<T> {
        let loaded = self
            .disk
            .load(key, |text| serde_json::from_str::<T>(text).ok());
        let mut stats = self.stats.lock().expect("stats lock");
        match loaded {
            LoadResult::Loaded(value) => {
                stats.disk_hits += 1;
                return Some(value);
            }
            // A torn or damaged record: count it, then fall through to
            // a miss so the job re-simulates and appends a fresh record.
            LoadResult::Corrupt => stats.corrupt_files += 1,
            LoadResult::Absent => {}
        }
        stats.misses += 1;
        None
    }

    /// Appends `value` under `key`.
    ///
    /// Write failures are swallowed: the cache is an accelerator, and a
    /// full disk must not fail a campaign that already computed its
    /// result.
    pub fn put(&self, key: JobKey, value: &T) {
        if let Ok(text) = serde_json::to_string(value) {
            let _ = self.disk.append(key, &text);
        }
    }

    /// A snapshot of the cache counters.
    pub fn stats(&self) -> CacheStats {
        *self.stats.lock().expect("stats lock")
    }

    /// Resets the counters (e.g. between campaigns sharing a runner).
    pub fn reset_stats(&self) {
        *self.stats.lock().expect("stats lock") = CacheStats::default();
    }
}

/// The first line of every segment: the format's schema tag. (`v2`: a
/// runner's record holds the outcome plus its observations, so a `v1`
/// directory reads as plain misses.)
pub(crate) const SEGMENT_HEADER: &[u8] = b"hetsim-cache-segment-v2\n";

/// The extension that marks a file in the cache directory as a segment.
const SEGMENT_EXT: &str = "seg";

/// Bytes in a record's head line: key, length and checksum fields,
/// two separating spaces and the newline.
const HEAD: usize = 32 + 1 + 8 + 1 + 16 + 1;

/// The directory, this handle's index of it, and the segment this
/// handle appends to (opened by the first `put`).
///
/// Lock order: `writer`, then `index`.
struct Disk {
    dir: PathBuf,
    index: Mutex<Index>,
    writer: Mutex<Option<Writer>>,
}

/// This handle's open segment.
struct Writer {
    file: File,
    /// The segment's position in [`Index::segments`].
    segment: usize,
    /// Bytes written so far: where the next record starts.
    len: u64,
}

/// What this handle knows of the directory's segments.
#[derive(Default)]
struct Index {
    /// False until the first scan and after each refresh: the next
    /// lookup scans first.
    fresh: bool,
    segments: Vec<Segment>,
    records: HashMap<JobKey, Record>,
}

/// One segment file and how far it has been read.
struct Segment {
    path: PathBuf,
    /// Bytes consumed: the header and every whole record before the
    /// first one that is not intact. The next scan resumes here.
    scanned: u64,
    /// Set by an unknown header or a bad record: never read again.
    closed: bool,
}

/// Where a key's record is, or that the key's last record is damaged.
#[derive(Clone, Copy)]
enum Record {
    At {
        segment: usize,
        offset: u64,
        len: usize,
    },
    Damaged,
}

enum LoadResult<T> {
    Loaded(T),
    Corrupt,
    Absent,
}

impl Disk {
    fn index(&self) -> std::sync::MutexGuard<'_, Index> {
        self.index.lock().expect("index lock")
    }

    /// Reads `key`'s record and parses its payload with `parse`.
    fn load<R>(&self, key: JobKey, parse: impl FnOnce(&str) -> Option<R>) -> LoadResult<R> {
        let mut index = self.index();
        index.scan_if_stale(&self.dir);
        let Some(&record) = index.records.get(&key) else {
            return LoadResult::Absent;
        };
        let loaded = match record {
            Record::Damaged => None,
            Record::At {
                segment,
                offset,
                len,
            } => read_at(&index.segments[segment].path, offset, len)
                .ok()
                .and_then(|bytes| match decode(&bytes) {
                    Frame::Intact {
                        key: found,
                        payload,
                        len: whole,
                    } if found == key && whole == bytes.len() => {
                        std::str::from_utf8(payload).ok().and_then(parse)
                    }
                    _ => None,
                }),
        };
        match loaded {
            Some(value) => LoadResult::Loaded(value),
            None => {
                index.records.insert(key, Record::Damaged);
                LoadResult::Corrupt
            }
        }
    }

    /// Appends one record to this handle's segment, opening one first
    /// if needed. A failed or short write retires the segment.
    fn append(&self, key: JobKey, payload: &str) -> io::Result<()> {
        let record = encode(key, payload)?;
        let mut writer = self.writer.lock().expect("writer lock");
        if writer.is_none() {
            *writer = Some(self.create_segment()?);
        }
        let open = writer.as_mut().expect("opened above");
        let offset = open.len;
        match open.file.write(&record) {
            Ok(n) if n == record.len() => open.len += n as u64,
            failed => {
                *writer = None;
                return Err(failed.err().unwrap_or(io::ErrorKind::WriteZero.into()));
            }
        }
        let at = Record::At {
            segment: open.segment,
            offset,
            len: record.len(),
        };
        self.index().records.insert(key, at);
        Ok(())
    }

    /// Creates a fresh segment named by pid and a process-wide counter,
    /// writes its header and registers it in the index.
    fn create_segment(&self) -> io::Result<Writer> {
        static SEGMENTS: AtomicU64 = AtomicU64::new(0);
        loop {
            // The counter only has to be unique, so `Relaxed` suffices.
            let n = SEGMENTS.fetch_add(1, Ordering::Relaxed);
            let path = self
                .dir
                .join(format!("{}-{n}.{SEGMENT_EXT}", std::process::id()));
            let mut file = match OpenOptions::new().append(true).create_new(true).open(&path) {
                Ok(file) => file,
                Err(e) if e.kind() == io::ErrorKind::AlreadyExists => continue,
                Err(e) => return Err(e),
            };
            if let Err(e) = file.write_all(SEGMENT_HEADER) {
                let _ = std::fs::remove_file(&path);
                return Err(e);
            }
            let mut index = self.index();
            let segment = index.segments.len();
            index.segments.push(Segment::new(path));
            return Ok(Writer {
                file,
                segment,
                len: SEGMENT_HEADER.len() as u64,
            });
        }
    }
}

impl Segment {
    fn new(path: PathBuf) -> Self {
        Segment {
            path,
            scanned: 0,
            closed: false,
        }
    }
}

impl Index {
    fn scan_if_stale(&mut self, dir: &Path) {
        if !self.fresh {
            self.scan(dir);
            self.fresh = true;
        }
    }

    /// Adds the directory's new segments (in name order), then reads
    /// every open segment from where its last scan stopped.
    fn scan(&mut self, dir: &Path) {
        let mut found: Vec<PathBuf> = std::fs::read_dir(dir)
            .into_iter()
            .flatten()
            .flatten()
            .map(|entry| entry.path())
            .filter(|path| path.extension() == Some(OsStr::new(SEGMENT_EXT)))
            .filter(|path| !self.segments.iter().any(|s| &s.path == path))
            .collect();
        found.sort();
        self.segments.extend(found.into_iter().map(Segment::new));
        for segment in 0..self.segments.len() {
            self.scan_segment(segment);
        }
    }

    fn scan_segment(&mut self, segment: usize) {
        let Segment {
            ref path,
            scanned: base,
            closed,
        } = self.segments[segment];
        if closed {
            return;
        }
        let Ok(bytes) = read_from(path, base) else {
            return;
        };
        let mut at = 0;
        if base == 0 {
            if !bytes.starts_with(SEGMENT_HEADER) {
                // A header still being written is a prefix of ours;
                // anything else is a format this build does not read.
                self.segments[segment].closed = !SEGMENT_HEADER.starts_with(&bytes);
                return;
            }
            at = SEGMENT_HEADER.len();
        }
        let closed = loop {
            match decode(&bytes[at..]) {
                Frame::Intact { key, len, .. } => {
                    let offset = base + at as u64;
                    let record = Record::At {
                        segment,
                        offset,
                        len,
                    };
                    self.records.insert(key, record);
                    at += len;
                }
                Frame::Torn(key) => {
                    self.mark_damaged(key);
                    break false;
                }
                Frame::Bad(key) => {
                    self.mark_damaged(key);
                    break true;
                }
            }
        };
        let read = &mut self.segments[segment];
        read.scanned = base + at as u64;
        read.closed = closed;
    }

    /// Marks `key` damaged unless an intact record of it is indexed.
    fn mark_damaged(&mut self, key: Option<JobKey>) {
        if let Some(key) = key {
            self.records.entry(key).or_insert(Record::Damaged);
        }
    }
}

/// One record decoded from the front of a byte slice.
enum Frame<'a> {
    /// A whole record whose fields and checksum hold; `len` counts the
    /// head line, the payload and the closing newline.
    Intact {
        key: JobKey,
        payload: &'a [u8],
        len: usize,
    },
    /// Fewer bytes than the head declares: a torn tail or an append in
    /// flight. Carries the key when its digits are readable.
    Torn(Option<JobKey>),
    /// A whole record whose fields, framing or checksum do not hold.
    Bad(Option<JobKey>),
}

/// The record frame of `key` carrying `payload`.
pub(crate) fn encode(key: JobKey, payload: &str) -> io::Result<Vec<u8>> {
    let len = u32::try_from(payload.len())
        .map_err(|_| io::Error::new(io::ErrorKind::InvalidInput, "record too large"))?;
    let digits = key.hex();
    let sum = checksum(digits.as_bytes(), payload.as_bytes());
    Ok(format!("{digits} {len:08x} {sum:016x}\n{payload}\n").into_bytes())
}

fn decode(bytes: &[u8]) -> Frame<'_> {
    let key = bytes
        .get(..32)
        .and_then(hex_digits)
        .and_then(JobKey::from_hex);
    let Some(head) = bytes.get(..HEAD) else {
        return Frame::Torn(key);
    };
    let len = hex_digits(&head[33..41]).and_then(|d| u32::from_str_radix(d, 16).ok());
    let sum = hex_digits(&head[42..58]).and_then(|d| u64::from_str_radix(d, 16).ok());
    let framed = head[32] == b' ' && head[41] == b' ' && head[58] == b'\n';
    let (Some(len), Some(sum), true) = (len, sum, framed) else {
        return Frame::Bad(key);
    };
    let Some(end) = (len as usize).checked_add(HEAD + 1) else {
        return Frame::Bad(key);
    };
    let Some(record) = bytes.get(..end) else {
        return Frame::Torn(key);
    };
    let payload = &record[HEAD..end - 1];
    match key {
        Some(key) if record[end - 1] == b'\n' && checksum(&head[..32], payload) == sum => {
            Frame::Intact {
                key,
                payload,
                len: end,
            }
        }
        _ => Frame::Bad(key),
    }
}

/// `field` as a string if it is all lowercase hex digits — the only
/// spelling the writer produces.
fn hex_digits(field: &[u8]) -> Option<&str> {
    let hex = field.iter().all(|b| matches!(b, b'0'..=b'9' | b'a'..=b'f'));
    if hex {
        std::str::from_utf8(field).ok()
    } else {
        None
    }
}

/// 64-bit FNV-1a over `key_digits` followed by `payload`.
fn checksum(key_digits: &[u8], payload: &[u8]) -> u64 {
    key_digits
        .iter()
        .chain(payload)
        .fold(0xcbf2_9ce4_8422_2325, |hash, &b| {
            (hash ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
        })
}

/// Everything in `path` from byte `offset` on.
fn read_from(path: &Path, offset: u64) -> io::Result<Vec<u8>> {
    let mut file = File::open(path)?;
    file.seek(SeekFrom::Start(offset))?;
    let mut bytes = Vec::new();
    file.read_to_end(&mut bytes)?;
    Ok(bytes)
}

/// Exactly `len` bytes of `path` from byte `offset`.
fn read_at(path: &Path, offset: u64, len: usize) -> io::Result<Vec<u8>> {
    let mut file = File::open(path)?;
    file.seek(SeekFrom::Start(offset))?;
    let mut bytes = vec![0; len];
    file.read_exact(&mut bytes)?;
    Ok(bytes)
}

/// Writes `contents` to `path` atomically: temp file in the same
/// directory, then rename, so concurrent readers never observe a torn
/// file. Missing parent directories are created first.
///
/// Telemetry dumps, shard manifests and baseline files go through it,
/// so a crashed or concurrent run can never leave a half-written JSON
/// document behind. Every call writes its own temp file (named by
/// process id and a process-wide call counter), so concurrent writers
/// of one path, in one process or several, never share one.
///
/// # Errors
///
/// Returns the underlying I/O error if the directory cannot be
/// created or either write step fails; the temp file is removed then.
pub fn write_atomic(path: &Path, contents: &str) -> std::io::Result<()> {
    static CALLS: AtomicU64 = AtomicU64::new(0);
    if let Some(parent) = path.parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent)?;
        }
    }
    // The counter only has to be unique, so `Relaxed` suffices.
    let call = CALLS.fetch_add(1, Ordering::Relaxed);
    let tmp = path.with_extension(format!("tmp.{}.{call}", std::process::id()));
    let written = std::fs::write(&tmp, contents).and_then(|()| std::fs::rename(&tmp, path));
    if written.is_err() {
        let _ = std::fs::remove_file(&tmp);
    }
    written
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "hetsim-runner-cache-test-{}-{tag}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn disk_cache_survives_process_boundaries() {
        let dir = tmp_dir("persist");
        let key = JobKey::from_bytes(b"persisted");
        {
            let cache: ResultCache<Vec<f64>> = ResultCache::on_disk(&dir).expect("mkdir");
            cache.put(key, &vec![1.5, 2.5]);
        }
        // A fresh handle (a fresh index) must load from disk.
        let cache: ResultCache<Vec<f64>> = ResultCache::on_disk(&dir).expect("mkdir");
        assert_eq!(cache.get(key), Some(vec![1.5, 2.5]));
        assert_eq!(cache.stats().disk_hits, 1);
        std::fs::remove_dir_all(&dir).expect("cleanup");
    }

    /// The one segment file in `dir`.
    fn only_segment(dir: &Path) -> PathBuf {
        let segments = segments_in(dir);
        assert_eq!(segments.len(), 1, "one segment in {}", dir.display());
        segments.into_iter().next().expect("one segment")
    }

    fn segments_in(dir: &Path) -> Vec<PathBuf> {
        let mut segments: Vec<PathBuf> = std::fs::read_dir(dir)
            .expect("dir")
            .map(|e| e.expect("entry").path())
            .filter(|p| p.extension() == Some(OsStr::new(SEGMENT_EXT)))
            .collect();
        segments.sort();
        segments
    }

    #[test]
    fn corrupted_file_is_a_counted_miss() {
        let dir = tmp_dir("corrupt");
        let key = JobKey::from_bytes(b"torn");
        {
            let writer: ResultCache<Vec<f64>> = ResultCache::on_disk(&dir).expect("mkdir");
            writer.put(key, &vec![1.5, 2.5]);
        }
        // Cut the record mid-payload, as a crashed writer would.
        let segment = only_segment(&dir);
        let bytes = std::fs::read(&segment).expect("segment");
        std::fs::write(&segment, &bytes[..bytes.len() - 4]).expect("truncate");
        let cache: ResultCache<Vec<f64>> = ResultCache::on_disk(&dir).expect("mkdir");
        assert_eq!(cache.get(key), None);
        let stats = cache.stats();
        assert_eq!((stats.corrupt_files, stats.misses), (1, 1));
        // Re-simulation appends a fresh record and the cache heals.
        cache.put(key, &vec![3.0]);
        assert_eq!(cache.get(key), Some(vec![3.0]));
        let healed: ResultCache<Vec<f64>> = ResultCache::on_disk(&dir).expect("mkdir");
        assert_eq!(healed.get(key), Some(vec![3.0]));
        assert_eq!(
            (healed.stats().disk_hits, healed.stats().corrupt_files),
            (1, 0)
        );
        std::fs::remove_dir_all(&dir).expect("cleanup");
    }

    #[test]
    fn a_second_handle_reads_a_record_as_soon_as_put_returns() {
        // The shard protocol writes a worker's manifest after its last
        // `put`: by then every record must be readable by another
        // handle, with the writer still open and nothing flushed.
        let dir = tmp_dir("visible");
        let (first, second) = (JobKey::from_bytes(b"first"), JobKey::from_bytes(b"second"));
        let writer: ResultCache<u64> = ResultCache::on_disk(&dir).expect("mkdir");
        let reader: ResultCache<u64> = ResultCache::on_disk(&dir).expect("mkdir");
        writer.put(first, &1);
        assert_eq!(reader.get(first), Some(1));
        // A handle that has scanned sees later puts after a refresh.
        writer.put(second, &2);
        reader.refresh();
        assert_eq!(reader.get(second), Some(2));
        assert_eq!(reader.stats().disk_hits, 2);
        assert_eq!(reader.path_of(second), writer.path_of(second));
        drop(writer);
        std::fs::remove_dir_all(&dir).expect("cleanup");
    }

    #[test]
    fn a_handle_appends_every_put_to_one_segment() {
        let dir = tmp_dir("one-segment");
        let cache: ResultCache<u64> = ResultCache::on_disk(&dir).expect("mkdir");
        assert!(segments_in(&dir).is_empty(), "no segment before a put");
        std::thread::scope(|s| {
            for t in 0..4u64 {
                let cache = &cache;
                s.spawn(move || {
                    for i in 0..25 {
                        cache.put(JobKey::of(&(t, i)), &(t * 100 + i));
                    }
                });
            }
        });
        let entries = std::fs::read_dir(&dir).expect("dir").count();
        assert_eq!(entries, 1, "one file for 100 entries");
        let fresh: ResultCache<u64> = ResultCache::on_disk(&dir).expect("mkdir");
        for t in 0..4u64 {
            for i in 0..25 {
                assert_eq!(fresh.get(JobKey::of(&(t, i))), Some(t * 100 + i));
            }
        }
        assert_eq!(fresh.stats().disk_hits, 100);
        std::fs::remove_dir_all(&dir).expect("cleanup");
    }

    #[test]
    fn failed_append_retires_the_segment() {
        let dir = tmp_dir("failed-append");
        let keys: Vec<JobKey> = (0..3u64).map(|i| JobKey::of(&i)).collect();
        let cache: ResultCache<u64> = ResultCache::on_disk(&dir).expect("mkdir");
        cache.put(keys[0], &0);
        let first = only_segment(&dir);
        // The disk fails mid-append: the record's head line reaches the
        // segment, its payload does not, and the handle can no longer
        // write to it.
        let torn = encode(keys[1], "1").expect("frame");
        OpenOptions::new()
            .append(true)
            .open(&first)
            .and_then(|mut f| f.write_all(&torn[..HEAD]))
            .expect("tear");
        let len_after_tear = std::fs::metadata(&first).expect("segment").len();
        cache
            .disk
            .writer
            .lock()
            .expect("writer lock")
            .as_mut()
            .expect("open segment")
            .file = File::open(&first).expect("read-only handle");
        cache.put(keys[1], &1);
        cache.put(keys[2], &2);
        let segments = segments_in(&dir);
        assert_eq!(segments.len(), 2, "the next put opened a new segment");
        assert_eq!(
            std::fs::metadata(&first).expect("segment").len(),
            len_after_tear,
            "nothing landed after the partial record"
        );
        let fresh: ResultCache<u64> = ResultCache::on_disk(&dir).expect("mkdir");
        assert_eq!(fresh.get(keys[0]), Some(0));
        assert_eq!(fresh.get(keys[1]), None, "the torn record is a miss");
        assert_eq!(fresh.get(keys[2]), Some(2));
        let stats = fresh.stats();
        assert_eq!(
            (stats.disk_hits, stats.misses, stats.corrupt_files),
            (2, 1, 1)
        );
        std::fs::remove_dir_all(&dir).expect("cleanup");
    }

    #[test]
    fn damage_after_the_scan_is_caught_at_lookup() {
        let dir = tmp_dir("late-damage");
        let (key, other) = (JobKey::from_bytes(b"late"), JobKey::from_bytes(b"other"));
        ResultCache::on_disk(&dir)
            .expect("mkdir")
            .put(key, &vec![1.25]);
        let cache: ResultCache<Vec<f64>> = ResultCache::on_disk(&dir).expect("mkdir");
        assert_eq!(
            cache.get(other),
            None,
            "the first lookup indexes the segment"
        );
        // 1.25 -> 1.35: still valid JSON, but not the stored value.
        let segment = only_segment(&dir);
        let mut bytes = std::fs::read(&segment).expect("segment");
        let digit = bytes.len() - 4;
        assert_eq!(bytes[digit], b'2');
        bytes[digit] = b'3';
        std::fs::write(&segment, bytes).expect("damage");
        assert_eq!(cache.get(key), None);
        assert_eq!(cache.stats().corrupt_files, 1);
        std::fs::remove_dir_all(&dir).expect("cleanup");
    }

    #[test]
    fn a_torn_duplicate_does_not_hide_an_intact_record() {
        // One writer stored the key; another died mid-append of the
        // same key in a segment that sorts after the first.
        let dir = tmp_dir("torn-duplicate");
        let key = JobKey::from_bytes(b"duplicate");
        ResultCache::on_disk(&dir).expect("mkdir").put(key, &7u64);
        let torn = encode(key, "7").expect("frame");
        let dead = dir.join(format!("~dead.{SEGMENT_EXT}"));
        std::fs::write(&dead, [SEGMENT_HEADER, &torn[..HEAD]].concat()).expect("torn segment");
        let cache: ResultCache<u64> = ResultCache::on_disk(&dir).expect("mkdir");
        assert_eq!(cache.get(key), Some(7));
        assert_eq!(cache.stats().corrupt_files, 0);
        std::fs::remove_dir_all(&dir).expect("cleanup");
    }

    #[test]
    fn legacy_per_key_files_are_not_read() {
        let dir = tmp_dir("legacy");
        let key = JobKey::from_bytes(b"legacy");
        std::fs::create_dir_all(&dir).expect("mkdir");
        std::fs::write(dir.join(format!("{}.json", key.hex())), "7").expect("legacy entry");
        let cache: ResultCache<u64> = ResultCache::on_disk(&dir).expect("mkdir");
        assert_eq!(cache.get(key), None);
        let stats = cache.stats();
        assert_eq!((stats.misses, stats.corrupt_files), (1, 0));
        std::fs::remove_dir_all(&dir).expect("cleanup");
    }

    #[test]
    fn a_v1_segment_reads_as_plain_misses() {
        // A cache directory written before records carried observations:
        // an intact record under the old header is not read at all.
        let dir = tmp_dir("v1");
        let key = JobKey::from_bytes(b"v1");
        let record = encode(key, "[1.5]").expect("frame");
        std::fs::create_dir_all(&dir).expect("mkdir");
        let old = [b"hetsim-cache-segment-v1\n".as_slice(), &record].concat();
        std::fs::write(dir.join(format!("0-0.{SEGMENT_EXT}")), old).expect("v1 segment");
        let cache: ResultCache<Vec<f64>> = ResultCache::on_disk(&dir).expect("mkdir");
        assert_eq!(cache.get(key), None);
        let stats = cache.stats();
        assert_eq!((stats.misses, stats.corrupt_files), (1, 0));
        std::fs::remove_dir_all(&dir).expect("cleanup");
    }

    #[test]
    fn a_torn_tail_is_read_again_once_complete() {
        // A reader that scans while an append is in flight sees a torn
        // tail; once the write completes, its next refresh finds the
        // record.
        let dir = tmp_dir("in-flight");
        let key = JobKey::from_bytes(b"in-flight");
        let record = encode(key, "[1.5]").expect("frame");
        let segment = dir.join(format!("0-0.{SEGMENT_EXT}"));
        std::fs::create_dir_all(&dir).expect("mkdir");
        std::fs::write(&segment, [SEGMENT_HEADER, &record[..HEAD + 2]].concat()).expect("head");
        let cache: ResultCache<Vec<f64>> = ResultCache::on_disk(&dir).expect("mkdir");
        assert_eq!(cache.get(key), None);
        assert_eq!(cache.stats().corrupt_files, 1);
        OpenOptions::new()
            .append(true)
            .open(&segment)
            .and_then(|mut f| f.write_all(&record[HEAD + 2..]))
            .expect("rest of the record");
        cache.refresh();
        assert_eq!(cache.get(key), Some(vec![1.5]));
        std::fs::remove_dir_all(&dir).expect("cleanup");
    }

    #[test]
    fn write_atomic_creates_missing_parent_directories() {
        let dir = tmp_dir("atomic-parents");
        let nested = dir.join("a/b/c/out.json");
        write_atomic(&nested, "{\"ok\": true}").expect("write with missing parents");
        assert_eq!(
            std::fs::read_to_string(&nested).expect("readable"),
            "{\"ok\": true}"
        );
        // No temp-file droppings left beside the target.
        let siblings: Vec<_> = std::fs::read_dir(nested.parent().expect("parent"))
            .expect("dir")
            .map(|e| e.expect("entry").file_name())
            .collect();
        assert_eq!(siblings, ["out.json"]);
        std::fs::remove_dir_all(&dir).expect("cleanup");
    }

    #[test]
    fn write_atomic_overwrites_in_place() {
        let dir = tmp_dir("atomic-overwrite");
        let path = dir.join("out.json");
        write_atomic(&path, "first").expect("initial write");
        write_atomic(&path, "second, longer contents").expect("overwrite");
        assert_eq!(
            std::fs::read_to_string(&path).expect("readable"),
            "second, longer contents"
        );
        let siblings: Vec<_> = std::fs::read_dir(&dir)
            .expect("dir")
            .map(|e| e.expect("entry").file_name())
            .collect();
        assert_eq!(siblings, ["out.json"], "no temp files survive overwrite");
        std::fs::remove_dir_all(&dir).expect("cleanup");
    }

    #[test]
    fn write_atomic_unwritable_parent_fails_cleanly() {
        // A regular file where a parent directory should be: the write
        // must fail with an error (not panic) and leave no temp files.
        // (A chmod-based read-only directory can't be used here — the
        // test may run as root, which bypasses permission bits.)
        let dir = tmp_dir("atomic-obstructed");
        std::fs::create_dir_all(&dir).expect("setup");
        let obstruction = dir.join("not-a-dir");
        std::fs::write(&obstruction, "file").expect("setup");
        let target = obstruction.join("out.json");
        assert!(
            write_atomic(&target, "{}").is_err(),
            "must surface an error"
        );
        let entries: Vec<_> = std::fs::read_dir(&dir)
            .expect("dir")
            .map(|e| e.expect("entry").file_name())
            .collect();
        assert_eq!(entries, ["not-a-dir"], "no temp files left behind");
        std::fs::remove_dir_all(&dir).expect("cleanup");
    }

    #[test]
    fn write_atomic_concurrent_writers_in_one_process_never_tear() {
        // Two writer threads overwrite one path while a reader reads it:
        // every read must be one writer's whole document, every write
        // must succeed, and no temp file may survive.
        let dir = tmp_dir("atomic-concurrent");
        let path = dir.join("entry.json");
        let contents = ["a".repeat(4096), "b".repeat(8192)];
        write_atomic(&path, &contents[0]).expect("initial write");
        let writers_done = std::sync::atomic::AtomicUsize::new(0);
        let start = std::sync::Barrier::new(3);
        let (failed_writes, (reads, torn_reads)) = std::thread::scope(|s| {
            let writers: Vec<_> = contents
                .iter()
                .map(|text| {
                    let (path, start, writers_done) = (&path, &start, &writers_done);
                    s.spawn(move || {
                        start.wait();
                        let failed = (0..2000)
                            .filter(|_| write_atomic(path, text).is_err())
                            .count();
                        writers_done.fetch_add(1, Ordering::SeqCst);
                        failed
                    })
                })
                .collect();
            let reader = s.spawn(|| {
                start.wait();
                let (mut reads, mut torn) = (0u64, 0u64);
                while writers_done.load(Ordering::SeqCst) < contents.len() {
                    let text = std::fs::read_to_string(&path).unwrap_or_default();
                    torn += u64::from(!contents.contains(&text));
                    reads += 1;
                }
                (reads, torn)
            });
            let failed: usize = writers
                .into_iter()
                .map(|w| w.join().expect("writer thread"))
                .sum();
            (failed, reader.join().expect("reader thread"))
        });
        assert_eq!(failed_writes, 0, "failed writes");
        assert_eq!(torn_reads, 0, "torn reads out of {reads}");
        let entries: Vec<_> = std::fs::read_dir(&dir)
            .expect("dir")
            .map(|e| e.expect("entry").file_name())
            .collect();
        assert_eq!(entries, ["entry.json"], "no temp files left behind");
        std::fs::remove_dir_all(&dir).expect("cleanup");
    }

    #[test]
    fn hit_rate_is_well_defined() {
        let empty = CacheStats::default();
        assert_eq!(empty.hit_rate(), 0.0);
        let half = CacheStats {
            disk_hits: 2,
            misses: 2,
            corrupt_files: 0,
        };
        assert!((half.hit_rate() - 0.5).abs() < 1e-12);
    }
}
