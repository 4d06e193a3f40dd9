//! The content-addressed result cache.
//!
//! Two layers, both keyed by [`JobKey`]:
//!
//! * an **in-process store** (`HashMap` behind a mutex) that memoizes
//!   every outcome produced or loaded during this process — repeated
//!   figures within one `repro` invocation never re-simulate;
//! * an optional **on-disk layer** (`--cache-dir`): one JSON file per
//!   key, `<hex-key>.json`, written atomically (temp file + rename) so
//!   concurrent campaigns sharing a directory never observe torn
//!   writes. Corrupted, truncated or type-incompatible files are
//!   treated as misses and re-simulated — a cache can never make a
//!   campaign wrong, only slow.

use std::collections::HashMap;
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
        /// Lookups answered from the in-process store.
        pub memory_hits: u64,
        /// Lookups answered from the on-disk layer.
        pub disk_hits: u64,
        /// Lookups that found nothing (the job must run).
        pub misses: u64,
        /// Disk files that existed but failed to parse (counted as misses).
        pub corrupt_files: u64,
    }
}

impl CacheStats {
    /// Total lookups.
    pub fn lookups(&self) -> u64 {
        self.memory_hits + self.disk_hits + self.misses
    }

    /// Hits (memory + disk).
    pub fn hits(&self) -> u64 {
        self.memory_hits + self.disk_hits
    }

    /// Hit rate in `[0, 1]`; `0` when no lookups happened.
    pub fn hit_rate(&self) -> f64 {
        if self.lookups() == 0 {
            0.0
        } else {
            self.hits() as f64 / self.lookups() as f64
        }
    }
}

/// Which cache layer answered a lookup.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheLayer {
    /// The in-process store.
    Memory,
    /// The on-disk JSON layer.
    Disk,
}

/// A two-layer (memory + optional disk) result cache.
pub struct ResultCache<T> {
    memory: Mutex<HashMap<JobKey, T>>,
    dir: Option<PathBuf>,
    stats: Mutex<CacheStats>,
}

impl<T: Clone + Serialize + Deserialize> ResultCache<T> {
    /// An in-process-only cache.
    pub fn in_memory() -> Self {
        ResultCache {
            memory: Mutex::new(HashMap::new()),
            dir: None,
            stats: Mutex::default(),
        }
    }

    /// A cache backed by `dir` (created if missing).
    ///
    /// # Errors
    ///
    /// Returns the underlying I/O error if the directory cannot be
    /// created.
    pub fn on_disk(dir: impl Into<PathBuf>) -> std::io::Result<Self> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir)?;
        Ok(ResultCache {
            memory: Mutex::new(HashMap::new()),
            dir: Some(dir),
            stats: Mutex::default(),
        })
    }

    /// The disk path for `key`, if this cache has a disk layer.
    pub fn path_of(&self, key: JobKey) -> Option<PathBuf> {
        self.dir
            .as_ref()
            .map(|d| d.join(format!("{}.json", key.hex())))
    }

    /// Looks up `key`, trying memory then disk.
    pub fn get(&self, key: JobKey) -> Option<T> {
        self.get_traced(key).map(|(value, _)| value)
    }

    /// Like [`ResultCache::get`], also reporting which layer answered.
    pub fn get_traced(&self, key: JobKey) -> Option<(T, CacheLayer)> {
        if let Some(hit) = self.memory.lock().expect("cache lock").get(&key).cloned() {
            self.stats.lock().expect("stats lock").memory_hits += 1;
            return Some((hit, CacheLayer::Memory));
        }
        if let Some(path) = self.path_of(key) {
            match load_json::<T>(&path) {
                LoadResult::Loaded(value) => {
                    self.stats.lock().expect("stats lock").disk_hits += 1;
                    self.memory
                        .lock()
                        .expect("cache lock")
                        .insert(key, value.clone());
                    return Some((value, CacheLayer::Disk));
                }
                LoadResult::Corrupt => {
                    // A torn or stale file: count it, then fall through
                    // to a miss so the job re-simulates and overwrites.
                    let mut stats = self.stats.lock().expect("stats lock");
                    stats.corrupt_files += 1;
                }
                LoadResult::Absent => {}
            }
        }
        self.stats.lock().expect("stats lock").misses += 1;
        None
    }

    /// Stores `value` under `key` in both layers.
    ///
    /// Disk write failures are swallowed: the cache is an accelerator,
    /// and a full disk must not fail a campaign that already computed
    /// its result.
    pub fn put(&self, key: JobKey, value: &T) {
        self.memory
            .lock()
            .expect("cache lock")
            .insert(key, value.clone());
        if let Some(path) = self.path_of(key) {
            let _ = store_json(&path, value);
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

enum LoadResult<T> {
    Loaded(T),
    Corrupt,
    Absent,
}

fn load_json<T: Deserialize>(path: &Path) -> LoadResult<T> {
    let text = match std::fs::read_to_string(path) {
        Ok(text) => text,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return LoadResult::Absent,
        Err(_) => return LoadResult::Corrupt,
    };
    match serde_json::from_str::<T>(&text) {
        Ok(value) => LoadResult::Loaded(value),
        Err(_) => LoadResult::Corrupt,
    }
}

fn store_json<T: Serialize>(path: &Path, value: &T) -> std::io::Result<()> {
    let text = serde_json::to_string(value)
        .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string()))?;
    write_atomic(path, &text)
}

/// Writes `contents` to `path` atomically: temp file in the same
/// directory, then rename, so concurrent readers never observe a torn
/// file. Missing parent directories are created first.
///
/// This is the write path every cache entry goes through; telemetry
/// dumps and baseline files reuse it so a crashed or concurrent run
/// can never leave a half-written JSON document behind. Every call
/// writes its own temp file (named by process id and a process-wide
/// call counter), so concurrent writers of one path, in one process
/// or several, never share one.
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
    fn memory_cache_hits_after_put() {
        let cache: ResultCache<u64> = ResultCache::in_memory();
        let key = JobKey::from_bytes(b"k");
        assert_eq!(cache.get(key), None);
        cache.put(key, &99);
        assert_eq!(cache.get(key), Some(99));
        let stats = cache.stats();
        assert_eq!((stats.misses, stats.memory_hits), (1, 1));
    }

    #[test]
    fn disk_cache_survives_process_boundaries() {
        let dir = tmp_dir("persist");
        let key = JobKey::from_bytes(b"persisted");
        {
            let cache: ResultCache<Vec<f64>> = ResultCache::on_disk(&dir).expect("mkdir");
            cache.put(key, &vec![1.5, 2.5]);
        }
        // A fresh cache (fresh memory layer) must load from disk.
        let cache: ResultCache<Vec<f64>> = ResultCache::on_disk(&dir).expect("mkdir");
        assert_eq!(cache.get(key), Some(vec![1.5, 2.5]));
        assert_eq!(cache.stats().disk_hits, 1);
        std::fs::remove_dir_all(&dir).expect("cleanup");
    }

    #[test]
    fn corrupted_file_is_a_counted_miss() {
        let dir = tmp_dir("corrupt");
        let cache: ResultCache<Vec<f64>> = ResultCache::on_disk(&dir).expect("mkdir");
        let key = JobKey::from_bytes(b"torn");
        std::fs::write(cache.path_of(key).expect("disk layer"), "[1.5, 2.").expect("write");
        assert_eq!(cache.get(key), None);
        let stats = cache.stats();
        assert_eq!((stats.corrupt_files, stats.misses), (1, 1));
        // Re-simulation overwrites the torn file and the cache heals.
        cache.put(key, &vec![3.0]);
        assert_eq!(cache.get(key), Some(vec![3.0]));
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
            memory_hits: 1,
            disk_hits: 1,
            misses: 2,
            corrupt_files: 0,
        };
        assert!((half.hit_rate() - 0.5).abs() < 1e-12);
    }
}
