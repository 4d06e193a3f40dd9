//! The shard protocol: deterministic partitioning of a campaign across
//! worker *processes*, plus the supervisor that drives them.
//!
//! A sharded run splits one campaign's job list into `N` disjoint
//! shards and hands each shard to a separate worker process. The
//! pieces, all in this module:
//!
//! * **partitioner** — [`JobKey::shard_of`] assigns every key to
//!   exactly one shard as a pure function of the key, so the
//!   supervisor and every worker compute the identical partition
//!   independently, and the assignment is stable when jobs are added
//!   or removed elsewhere in the campaign ([`partition`] builds the
//!   full index cover);
//! * **manifest** — a worker commits its shard by writing a
//!   [`ShardManifest`] through [`write_atomic`] *after* all of its
//!   results are in the shared result cache (a record is readable by
//!   every handle once its `put` returns); a missing or mismatched
//!   manifest means the shard did not complete, no matter how the
//!   process exited. The manifest is a worker's only commit record;
//! * **wire events** — workers narrate per-job completion as JSONL
//!   [`WorkerEvent`] lines on stdout ([`ShardEventSink`]); the
//!   supervisor parses them ([`WorkerEvent::from_line`]) and tallies
//!   them ([`ShardTally`]) into its own [`ProgressSink`], so
//!   `--progress=dashboard` aggregates across workers;
//! * **supervisor** — [`supervise`] spawns one child per shard,
//!   streams their stdout, and retries failed or crashed shards with
//!   bounded exponential backoff ([`ShardPolicy`]). A shard that still
//!   has no valid manifest after the last attempt fails the run with
//!   an error naming the shard. The batch summary comes from the
//!   manifests, the tallied events and the supervisor's own clock
//!   ([`ShardTally::summary`]).
//!
//! The module stays simulator-agnostic: it sees `std::process::Command`
//! factories and manifest files, never job closures or outcome types.
//! Outcome transport is the content-addressed result cache the workers
//! and the supervisor share — a shard's results are exactly the cache
//! entries its jobs produced, so the supervisor's merge pass replays
//! the campaign against a warm cache and inherits the determinism
//! contract (a cache hit is bit-identical to a fresh simulation).

use std::collections::HashMap;
use std::io::{BufRead, BufReader, Write};
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::sync::Mutex;
use std::time::Duration;

use serde::value::Value;
use serde::{Deserialize, Serialize};

use crate::cache::write_atomic;
use crate::job::JobKey;
use crate::progress::{narrate, ProgressEvent, ProgressSink, Provenance, RunnerStats};

/// Schema tag of manifest files; bump on incompatible layout changes
/// so stale shard directories retire themselves.
pub const SHARD_SCHEMA: &str = "hetsim-shard-v1";

/// Splits `keys` into `shards` disjoint index lists (an exact cover:
/// every index appears in exactly one shard, in submission order).
///
/// Shard membership comes from [`JobKey::shard_of`], so the partition
/// is deterministic across calls and processes, and stable under
/// changes to the rest of the job list. With `shards == 1` every index
/// lands in shard 0.
pub fn partition(keys: &[JobKey], shards: usize) -> Vec<Vec<usize>> {
    let shards = shards.max(1);
    let mut out = vec![Vec::new(); shards];
    for (index, key) in keys.iter().enumerate() {
        out[key.shard_of(shards)].push(index);
    }
    out
}

/// The commit record one worker writes (atomically, last) after every
/// result of its shard is durably in the shared cache.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ShardManifest {
    /// [`SHARD_SCHEMA`].
    pub schema: String,
    /// This worker's shard index in `0..shards`.
    pub shard: u64,
    /// Total shard count of the run.
    pub shards: u64,
    /// Which attempt produced this manifest (0 = first).
    pub attempt: u64,
    /// Jobs in this shard.
    pub jobs: u64,
    /// Jobs the worker actually simulated (the rest were already in
    /// the shared cache).
    pub executed: u64,
    /// Hex [`JobKey`]s of every job in the shard, submission order —
    /// the supervisor can audit the cover without re-deriving it.
    pub keys: Vec<String>,
}

/// `shard-<I>.manifest.json` under `dir`.
pub fn manifest_path(dir: &Path, shard: usize) -> PathBuf {
    dir.join(format!("shard-{shard}.manifest.json"))
}

/// `shard-<I>.trace.jsonl` under `dir` (per-worker trace log, stitched
/// by `trace-export`).
pub fn trace_path(dir: &Path, shard: usize) -> PathBuf {
    dir.join(format!("shard-{shard}.trace.jsonl"))
}

impl ShardManifest {
    /// Writes the manifest atomically (temp file + rename), creating
    /// missing parent directories; an error names the path. This is
    /// the form workers commit and [`ShardManifest::load`] accepts.
    pub fn write_to(&self, path: &Path) -> Result<(), String> {
        let json = serde_json::to_string_pretty(&self.to_value())
            .expect("manifest serialization is infallible");
        write_atomic(path, &json).map_err(|e| format!("cannot write {}: {e}", path.display()))
    }

    /// Loads and validates a manifest file. Only the form
    /// [`ShardManifest::write_to`] writes is accepted: a field the
    /// reader would skip (unknown, or out of order) or a count it would
    /// coerce (`-0`) is an error, so an accepted manifest says exactly
    /// what its text says.
    pub fn load(path: &Path) -> Result<ShardManifest, String> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        let value: Value =
            serde_json::from_str(&text).map_err(|e| format!("{}: {e}", path.display()))?;
        let manifest = ShardManifest::from_value(&value)
            .map_err(|e| format!("{}: malformed manifest: {e:?}", path.display()))?;
        if manifest.to_value() != value {
            return Err(format!(
                "{}: malformed manifest: fields or numbers not as a worker writes them",
                path.display()
            ));
        }
        if manifest.schema != SHARD_SCHEMA {
            return Err(format!(
                "{}: schema {} (expected {SHARD_SCHEMA})",
                path.display(),
                manifest.schema
            ));
        }
        Ok(manifest)
    }
}

/// One per-job completion line on a worker's stdout.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkerEvent {
    /// The job's label (globally unique within a campaign, so the
    /// supervisor can map it back to a submission index).
    pub label: String,
    /// How the worker obtained the outcome.
    pub provenance: Provenance,
    /// Simulated seconds the outcome covers.
    pub sim_seconds: f64,
}

impl WorkerEvent {
    /// The JSONL wire rendering (one line, newline-terminated).
    pub fn to_line(&self) -> String {
        let value = Value::Object(vec![
            ("ev".into(), Value::Str("job-finished".into())),
            ("label".into(), Value::Str(self.label.clone())),
            (
                "provenance".into(),
                Value::Str(self.provenance.tag().into()),
            ),
            ("sim_seconds".into(), self.sim_seconds.to_value()),
        ]);
        let mut line = serde_json::to_string(&value).expect("wire serialization is infallible");
        line.push('\n');
        line
    }

    /// Parses one stdout line; `None` for anything that is not a
    /// well-formed worker event (workers own their stdout, but a
    /// hostile or truncated line must not kill the supervisor).
    pub fn from_line(line: &str) -> Option<WorkerEvent> {
        let value: Value = serde_json::from_str(line.trim()).ok()?;
        let Value::Object(fields) = value else {
            return None;
        };
        let get = |name: &str| fields.iter().find(|(k, _)| k == name).map(|(_, v)| v);
        match get("ev") {
            Some(Value::Str(ev)) if ev == "job-finished" => {}
            _ => return None,
        }
        let Some(Value::Str(label)) = get("label") else {
            return None;
        };
        let provenance = match get("provenance") {
            Some(Value::Str(tag)) => Provenance::from_tag(tag)?,
            _ => return None,
        };
        let sim_seconds = match get("sim_seconds") {
            Some(v) => f64::from_value(v).ok()?,
            None => return None,
        };
        Some(WorkerEvent {
            label: label.clone(),
            provenance,
            sim_seconds,
        })
    }
}

/// A [`ProgressSink`] that narrates job completions as [`WorkerEvent`]
/// JSONL on a writer (workers pass their stdout). Lines are formatted
/// before the lock is taken and written with one `write_all`, so
/// concurrent completions never tear mid-line.
pub struct ShardEventSink {
    out: Mutex<Box<dyn Write + Send>>,
}

impl ShardEventSink {
    /// A sink writing to the process's stdout (the worker side of the
    /// shard protocol — the supervisor reads the pipe).
    pub fn stdout() -> Self {
        ShardEventSink::with_writer(Box::new(std::io::stdout()))
    }

    /// A sink writing to an arbitrary writer (tests inject buffers).
    pub fn with_writer(out: Box<dyn Write + Send>) -> Self {
        ShardEventSink {
            out: Mutex::new(out),
        }
    }
}

impl ProgressSink for ShardEventSink {
    fn event(&self, event: &ProgressEvent) {
        let ProgressEvent::JobFinished {
            label,
            provenance,
            sim_seconds,
            ..
        } = event
        else {
            return;
        };
        let line = WorkerEvent {
            label: label.clone(),
            provenance: *provenance,
            sim_seconds: *sim_seconds,
        }
        .to_line();
        let mut out = self.out.lock().expect("shard sink lock");
        // Best-effort: a supervisor that hung up must not kill the job.
        let _ = out.write_all(line.as_bytes());
        let _ = out.flush();
    }
}

/// The supervisor's tally of one sharded batch, built from what it
/// already holds: the workers' wire events and, once they commit, their
/// manifests.
///
/// Each job index has one slot for its simulated seconds. A retried
/// shard narrates again the jobs its crashed attempt finished, so an
/// index can see more than one event: a repeat overwrites its slot
/// (with the same value, since a cache hit equals the simulation) and
/// is not forwarded. Every forwarded `JobFinished` therefore has
/// `done <= total`, and the last one has `done == total`.
pub struct ShardTally {
    index: HashMap<String, usize>,
    slots: Mutex<Vec<Option<f64>>>,
}

impl ShardTally {
    /// A tally over the batch whose job `i` is labelled `labels[i]`.
    pub fn new<'a>(labels: impl IntoIterator<Item = &'a str>) -> Self {
        let index: HashMap<String, usize> = labels
            .into_iter()
            .enumerate()
            .map(|(i, label)| (label.to_string(), i))
            .collect();
        let slots = Mutex::new(vec![None; index.len()]);
        ShardTally { index, slots }
    }

    /// Reads one line of a worker's stdout. A well-formed event for a
    /// job of the batch fills its slot; the first one per job is
    /// forwarded to `sink`, under the tally's lock so `done` reaches the
    /// sink in order. Other lines are ignored.
    pub fn record(&self, line: &str, sink: &dyn ProgressSink) {
        let Some(event) = WorkerEvent::from_line(line) else {
            return;
        };
        let Some(&index) = self.index.get(&event.label) else {
            return;
        };
        let mut slots = self.slots.lock().expect("tally lock");
        let first = slots[index].replace(event.sim_seconds).is_none();
        if first {
            sink.event(&ProgressEvent::JobFinished {
                index,
                label: event.label,
                provenance: event.provenance,
                done: slots.iter().filter(|s| s.is_some()).count(),
                total: slots.len(),
                sim_seconds: event.sim_seconds,
            });
        }
    }

    /// The batch summary: `jobs` and `executed` summed over the
    /// committed manifests, cache hits their difference, the simulated
    /// seconds of every tallied job once, and `wall` as the supervisor
    /// timed it. The cache-layer detail stays zero: no manifest
    /// carries it.
    pub fn summary(&self, runs: &[ShardRun], wall: Duration) -> RunnerStats {
        let jobs: u64 = runs.iter().map(|r| r.manifest.jobs).sum();
        let executed: u64 = runs.iter().map(|r| r.manifest.executed).sum();
        let slots = self.slots.lock().expect("tally lock");
        RunnerStats {
            jobs,
            executed,
            cache_hits: jobs.saturating_sub(executed),
            sim_seconds: slots.iter().flatten().sum(),
            wall,
            ..RunnerStats::default()
        }
    }
}

/// Retry discipline of the supervisor.
#[derive(Debug, Clone, Copy)]
pub struct ShardPolicy {
    /// Attempts per shard (first try + retries), at least 1.
    pub max_attempts: u32,
    /// Backoff before retry `k` is `backoff << (k - 1)`, capped at
    /// [`ShardPolicy::MAX_BACKOFF`] — bounded, so a permanently broken
    /// shard fails the run quickly instead of stalling it.
    pub backoff: Duration,
}

impl ShardPolicy {
    /// The backoff ceiling.
    pub const MAX_BACKOFF: Duration = Duration::from_secs(2);
}

impl Default for ShardPolicy {
    fn default() -> Self {
        ShardPolicy {
            max_attempts: 3,
            backoff: Duration::from_millis(50),
        }
    }
}

/// One successfully completed shard.
#[derive(Debug, Clone)]
pub struct ShardRun {
    /// The shard index.
    pub shard: usize,
    /// Attempts it took (1 = clean first run).
    pub attempts: u32,
    /// The worker's commit record.
    pub manifest: ShardManifest,
}

/// Spawns one worker process per shard, streams their stdout line by
/// line into `on_line`, and retries failed shards per `policy`.
///
/// `command_for(shard, attempt)` builds the worker invocation; the
/// supervisor pipes its stdout and inherits its stderr. A shard
/// succeeds when its process exits 0 **and** its manifest under
/// `out_dir` parses with matching shard/shards — an exit status alone
/// proves nothing after a mid-write crash. Stale manifests from prior
/// attempts are removed before each spawn so they cannot mask one.
///
/// All shards run concurrently (one supervising thread each). On
/// success the manifests are returned in shard order; on failure the
/// error names every shard that exhausted its attempts.
pub fn supervise(
    shards: usize,
    out_dir: &Path,
    policy: &ShardPolicy,
    command_for: &(dyn Fn(usize, u32) -> Command + Sync),
    on_line: &(dyn Fn(usize, &str) + Sync),
) -> Result<Vec<ShardRun>, String> {
    let shards = shards.max(1);
    let max_attempts = policy.max_attempts.max(1);
    let runs: Vec<Result<ShardRun, String>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..shards)
            .map(|shard| {
                scope.spawn(move || {
                    run_shard(
                        shard,
                        shards,
                        out_dir,
                        max_attempts,
                        policy,
                        command_for,
                        on_line,
                    )
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("shard supervisor thread panicked"))
            .collect()
    });
    let mut ok = Vec::with_capacity(shards);
    let mut errors = Vec::new();
    for run in runs {
        match run {
            Ok(r) => ok.push(r),
            Err(e) => errors.push(e),
        }
    }
    if errors.is_empty() {
        Ok(ok)
    } else {
        Err(errors.join("; "))
    }
}

/// The per-shard attempt loop of [`supervise`].
fn run_shard(
    shard: usize,
    shards: usize,
    out_dir: &Path,
    max_attempts: u32,
    policy: &ShardPolicy,
    command_for: &(dyn Fn(usize, u32) -> Command + Sync),
    on_line: &(dyn Fn(usize, &str) + Sync),
) -> Result<ShardRun, String> {
    let mpath = manifest_path(out_dir, shard);
    let mut last_error = String::new();
    for attempt in 0..max_attempts {
        if attempt > 0 {
            let backoff = policy
                .backoff
                .saturating_mul(1 << (attempt - 1).min(16))
                .min(ShardPolicy::MAX_BACKOFF);
            narrate(&format!(
                "[shard] retrying shard {shard} (attempt {} of {max_attempts}, backoff {} ms): {last_error}",
                attempt + 1,
                backoff.as_millis()
            ));
            std::thread::sleep(backoff);
        }
        // A manifest from a previous attempt must not count as this
        // attempt's commit.
        let _ = std::fs::remove_file(&mpath);
        let mut command = command_for(shard, attempt);
        command.stdout(Stdio::piped());
        let mut child = match command.spawn() {
            Ok(c) => c,
            Err(e) => {
                last_error = format!("shard {shard}: cannot spawn worker: {e}");
                continue;
            }
        };
        if let Some(out) = child.stdout.take() {
            for line in BufReader::new(out).lines() {
                match line {
                    Ok(line) => on_line(shard, &line),
                    Err(_) => break, // pipe died with the child; wait() below judges
                }
            }
        }
        let status = match child.wait() {
            Ok(s) => s,
            Err(e) => {
                last_error = format!("shard {shard}: cannot wait for worker: {e}");
                continue;
            }
        };
        if !status.success() {
            last_error = format!("shard {shard}: worker exited with {status}");
            continue;
        }
        match ShardManifest::load(&mpath) {
            Ok(m) if m.shard == shard as u64 && m.shards == shards as u64 => {
                return Ok(ShardRun {
                    shard,
                    attempts: attempt + 1,
                    manifest: m,
                });
            }
            Ok(m) => {
                last_error = format!(
                    "shard {shard}: manifest claims shard {}/{} (expected {shard}/{shards})",
                    m.shard, m.shards
                );
            }
            Err(e) => {
                last_error =
                    format!("shard {shard}: worker exited 0 without a valid manifest: {e}");
            }
        }
    }
    Err(format!(
        "shard {shard} failed after {max_attempts} attempt(s): {last_error}"
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("hetsim-shard-test-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create tmp dir");
        dir
    }

    fn keys(n: usize) -> Vec<JobKey> {
        (0..n)
            .map(|i| JobKey::from_bytes(format!("job-{i}").as_bytes()))
            .collect()
    }

    #[test]
    fn partition_is_an_exact_cover_in_submission_order() {
        let keys = keys(37);
        for shards in [1, 2, 3, 7, 64] {
            let parts = partition(&keys, shards);
            assert_eq!(parts.len(), shards);
            let mut seen: Vec<usize> = parts.iter().flatten().copied().collect();
            for part in &parts {
                assert!(part.windows(2).all(|w| w[0] < w[1]), "order preserved");
            }
            seen.sort_unstable();
            assert_eq!(seen, (0..keys.len()).collect::<Vec<_>>());
        }
    }

    #[test]
    fn one_shard_takes_everything_and_zero_clamps() {
        let keys = keys(9);
        assert_eq!(partition(&keys, 1)[0].len(), 9);
        assert_eq!(partition(&keys, 0).len(), 1);
        assert_eq!(partition(&keys, 0)[0].len(), 9);
    }

    #[test]
    fn assignment_is_stable_under_other_jobs() {
        // Membership depends only on the key: dropping half the batch
        // must not move any surviving job to a different shard.
        let all = keys(40);
        let survivors: Vec<JobKey> = all.iter().copied().step_by(2).collect();
        for shards in [2, 5] {
            for key in &survivors {
                assert_eq!(key.shard_of(shards), key.shard_of(shards));
            }
            let full = partition(&all, shards);
            let half = partition(&survivors, shards);
            for (shard, part) in half.iter().enumerate() {
                for &idx in part {
                    let original = survivors[idx];
                    let pos = all.iter().position(|k| *k == original).expect("subset");
                    assert!(
                        full[shard].contains(&pos),
                        "key moved shards when the batch shrank"
                    );
                }
            }
        }
    }

    #[test]
    fn manifest_round_trips_through_disk() {
        let dir = tmp_dir("manifest");
        let m = ShardManifest {
            schema: SHARD_SCHEMA.into(),
            shard: 2,
            shards: 4,
            attempt: 1,
            jobs: 3,
            executed: 2,
            keys: vec!["a".repeat(32), "b".repeat(32), "c".repeat(32)],
        };
        let path = manifest_path(&dir, 2);
        m.write_to(&path).expect("write manifest");
        assert_eq!(ShardManifest::load(&path).expect("load"), m);
        std::fs::remove_dir_all(&dir).expect("cleanup");
    }

    #[test]
    fn manifest_load_rejects_garbage_and_wrong_schema() {
        let dir = tmp_dir("badmanifest");
        let path = manifest_path(&dir, 0);
        assert!(ShardManifest::load(&path).is_err(), "missing file");
        std::fs::write(&path, "{ torn").expect("write");
        assert!(ShardManifest::load(&path).is_err(), "torn json");
        let wrong = ShardManifest {
            schema: "hetsim-shard-v0".into(),
            shard: 0,
            shards: 1,
            attempt: 0,
            jobs: 0,
            executed: 0,
            keys: Vec::new(),
        };
        wrong.write_to(&path).expect("write");
        assert!(ShardManifest::load(&path).is_err(), "wrong schema");
        std::fs::remove_dir_all(&dir).expect("cleanup");
    }

    #[test]
    fn a_manifest_repeating_a_key_is_an_error_not_first_wins() {
        let dir = tmp_dir("dupmanifest");
        let path = manifest_path(&dir, 0);
        let m = ShardManifest {
            schema: SHARD_SCHEMA.into(),
            shard: 0,
            shards: 2,
            attempt: 0,
            jobs: 3,
            executed: 3,
            keys: vec!["a".repeat(32)],
        };
        m.write_to(&path).expect("write");
        let text = std::fs::read_to_string(&path).expect("read");
        let repeated = text.replacen(
            "\"executed\": 3,",
            "\"executed\": 3,\n  \"executed\": 0,",
            1,
        );
        assert_ne!(repeated, text);
        std::fs::write(&path, repeated).expect("write");
        let err = ShardManifest::load(&path).expect_err("repeated key");
        assert!(err.contains("`executed` appears twice"), "{err}");
        std::fs::remove_dir_all(&dir).expect("cleanup");
    }

    #[test]
    fn wire_events_round_trip_and_reject_noise() {
        let event = WorkerEvent {
            label: "cpu/lu/AdvHetx4".into(),
            provenance: Provenance::DiskCache,
            sim_seconds: 0.125,
        };
        let line = event.to_line();
        assert!(line.ends_with('\n'));
        assert_eq!(WorkerEvent::from_line(&line), Some(event));
        assert_eq!(WorkerEvent::from_line("not json"), None);
        assert_eq!(WorkerEvent::from_line("{\"ev\":\"other\"}"), None);
        assert_eq!(
            WorkerEvent::from_line("{\"ev\":\"job-finished\",\"label\":\"x\"}"),
            None,
            "missing fields"
        );
    }

    #[test]
    fn shard_event_sink_narrates_only_job_finished() {
        #[derive(Clone, Default)]
        struct SharedBuf(std::sync::Arc<Mutex<Vec<u8>>>);
        impl Write for SharedBuf {
            fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
                self.0.lock().expect("buf lock").extend_from_slice(buf);
                Ok(buf.len())
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        let buf = SharedBuf::default();
        let sink = ShardEventSink::with_writer(Box::new(buf.clone()));
        sink.event(&ProgressEvent::BatchStarted {
            total: 1,
            workers: 1,
            columns: Vec::new(),
        });
        sink.event(&ProgressEvent::JobFinished {
            index: 0,
            label: "gpu/matmul/AdvHet".into(),
            provenance: Provenance::Executed,
            done: 1,
            total: 1,
            sim_seconds: 0.5,
        });
        let bytes = buf.0.lock().expect("buf lock").clone();
        let text = String::from_utf8(bytes).expect("utf8");
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 1, "batch events are not wire events");
        let event = WorkerEvent::from_line(lines[0]).expect("valid wire line");
        assert_eq!(event.label, "gpu/matmul/AdvHet");
        assert_eq!(event.provenance, Provenance::Executed);
    }

    /// Collects the `(done, total, sim_seconds)` of every forwarded
    /// `JobFinished`, in arrival order.
    #[derive(Default)]
    struct Finished(Mutex<Vec<(usize, usize, f64)>>);

    impl ProgressSink for Finished {
        fn event(&self, event: &ProgressEvent) {
            if let ProgressEvent::JobFinished {
                done,
                total,
                sim_seconds,
                ..
            } = event
            {
                let seen = (*done, *total, *sim_seconds);
                self.0.lock().expect("sink lock").push(seen);
            }
        }
    }

    fn wire(label: &str, provenance: Provenance, sim_seconds: f64) -> String {
        let event = WorkerEvent {
            label: label.into(),
            provenance,
            sim_seconds,
        };
        event.to_line()
    }

    fn run_of(shard: usize, jobs: u64, executed: u64) -> ShardRun {
        ShardRun {
            shard,
            attempts: 1,
            manifest: ShardManifest {
                schema: SHARD_SCHEMA.into(),
                shard: shard as u64,
                shards: 2,
                attempt: 0,
                jobs,
                executed,
                keys: Vec::new(),
            },
        }
    }

    #[test]
    fn a_retried_shards_repeated_events_count_once() {
        let labels = ["cpu/lu/BaseCMOSx4", "cpu/lu/AdvHetx4", "cpu/fft/AdvHetx4"];
        let tally = ShardTally::new(labels);
        let sink = Finished::default();
        // Shard 1 runs jobs 1 and 2; its first attempt finishes job 1
        // and crashes. The retry answers job 1 from the cache and runs
        // job 2. Shard 0 runs job 0 in between.
        tally.record(&wire(labels[1], Provenance::Executed, 0.25), &sink);
        tally.record(&wire(labels[0], Provenance::Executed, 0.5), &sink);
        tally.record(&wire(labels[1], Provenance::DiskCache, 0.25), &sink);
        tally.record("not a wire event", &sink);
        tally.record(&wire("cpu/lu/Unknownx4", Provenance::Executed, 9.0), &sink);
        tally.record(&wire(labels[2], Provenance::Executed, 1.0), &sink);

        let seen = sink.0.into_inner().expect("sink lock");
        let dones: Vec<usize> = seen.iter().map(|e| e.0).collect();
        assert_eq!(dones, [1, 2, 3], "one event per job, in order");
        assert!(seen.iter().all(|e| e.1 == 3), "total is the batch size");
        let runs = [run_of(0, 1, 1), run_of(1, 2, 1)];
        let stats = tally.summary(&runs, Duration::from_millis(1500));
        assert_eq!(stats.sim_seconds, 1.75, "job 1's seconds count once");
    }

    #[test]
    fn the_summary_sums_the_manifests_and_takes_the_supervisors_wall() {
        let tally = ShardTally::new(["gpu/matmul/AdvHet", "gpu/bfs/AdvHet"]);
        let runs = [run_of(0, 5, 5), run_of(1, 4, 1)];
        let wall = Duration::from_millis(2240);
        let stats = tally.summary(&runs, wall);
        assert_eq!(
            (stats.jobs, stats.executed, stats.cache_hits),
            (9, 6, 3),
            "jobs and executed sum; hits are their difference"
        );
        assert_eq!(stats.wall, wall, "one wall clock, not a sum of workers'");
        assert_eq!(stats.sim_seconds, 0.0, "no events tallied yet");
    }

    /// A worker stub: emits one wire line, then commits a manifest via
    /// a tiny shell script (the supervisor only sees a `Command`).
    fn stub_worker(dir: &Path, shard: usize, shards: usize, fail_first: bool) -> Command {
        let mpath = manifest_path(dir, shard);
        let marker = dir.join(format!("attempted-{shard}"));
        let manifest = format!(
            "{{\"schema\":\"{SHARD_SCHEMA}\",\"shard\":{shard},\"shards\":{shards},\
             \"attempt\":0,\"jobs\":1,\"executed\":1,\"keys\":[\"{}\"]}}",
            "0".repeat(32)
        );
        let fail_clause = if fail_first {
            format!(
                "if [ ! -e {marker} ]; then touch {marker}; exit 7; fi;",
                marker = marker.display()
            )
        } else {
            String::new()
        };
        let script = format!(
            "{fail_clause} printf '%s\\n' '{{\"ev\":\"job-finished\",\"label\":\"cpu/lu/AdvHetx4\",\
             \"provenance\":\"ran\",\"sim_seconds\":0.25}}'; printf '%s' '{manifest}' > {mpath}",
            mpath = mpath.display()
        );
        let mut cmd = Command::new("sh");
        cmd.arg("-c").arg(script);
        cmd
    }

    #[test]
    fn supervisor_collects_manifests_and_fans_in_events() {
        let dir = tmp_dir("supervise");
        let events = Mutex::new(Vec::new());
        let runs = supervise(
            2,
            &dir,
            &ShardPolicy::default(),
            &|shard, _attempt| stub_worker(&dir, shard, 2, false),
            &|shard, line| {
                if let Some(e) = WorkerEvent::from_line(line) {
                    events.lock().expect("events lock").push((shard, e.label));
                }
            },
        )
        .expect("both shards succeed");
        assert_eq!(runs.len(), 2);
        for run in &runs {
            assert_eq!(run.attempts, 1);
            assert_eq!(run.manifest.jobs, 1);
        }
        let mut seen = events.into_inner().expect("events lock");
        seen.sort();
        assert_eq!(seen.len(), 2, "one wire event per worker");
        std::fs::remove_dir_all(&dir).expect("cleanup");
    }

    #[test]
    fn supervisor_retries_a_crashed_shard_and_succeeds() {
        let dir = tmp_dir("retry");
        let policy = ShardPolicy {
            max_attempts: 3,
            backoff: Duration::from_millis(1),
        };
        let runs = supervise(
            2,
            &dir,
            &policy,
            &|shard, _attempt| stub_worker(&dir, shard, 2, shard == 1),
            &|_, _| {},
        )
        .expect("retry heals the crash");
        let by_shard = |s: usize| runs.iter().find(|r| r.shard == s).expect("shard ran");
        assert_eq!(by_shard(0).attempts, 1);
        assert_eq!(by_shard(1).attempts, 2, "crashed once, then succeeded");
        std::fs::remove_dir_all(&dir).expect("cleanup");
    }

    #[test]
    fn supervisor_fails_when_attempts_are_exhausted() {
        let dir = tmp_dir("exhaust");
        let policy = ShardPolicy {
            max_attempts: 2,
            backoff: Duration::from_millis(1),
        };
        let err = supervise(
            1,
            &dir,
            &policy,
            &|_, _| {
                let mut cmd = Command::new("sh");
                cmd.arg("-c").arg("exit 9");
                cmd
            },
            &|_, _| {},
        )
        .expect_err("a permanently broken shard must fail the run");
        assert!(
            err.contains("shard 0 failed after 2 attempt(s)"),
            "error names the shard and the attempts: {err}"
        );
        std::fs::remove_dir_all(&dir).expect("cleanup");
    }

    #[test]
    fn exit_zero_without_a_manifest_is_a_failure() {
        let dir = tmp_dir("nomanifest");
        let policy = ShardPolicy {
            max_attempts: 1,
            backoff: Duration::from_millis(1),
        };
        let err = supervise(
            1,
            &dir,
            &policy,
            &|_, _| {
                let mut cmd = Command::new("sh");
                cmd.arg("-c").arg("exit 0");
                cmd
            },
            &|_, _| {},
        )
        .expect_err("exit 0 without a commit record proves nothing");
        assert!(err.contains("without a valid manifest"), "{err}");
        std::fs::remove_dir_all(&dir).expect("cleanup");
    }
}
