//! Structured progress and throughput events.
//!
//! The runner narrates a campaign through a [`ProgressSink`]: batch
//! start, per-job completion (with cache provenance), and a final
//! [`RunnerStats`] summary carrying the cache hit rate and the
//! simulated-seconds-per-wall-second throughput metric. Sinks must be
//! `Send + Sync` — completion events arrive from worker threads.

use std::io::Write;
use std::sync::Mutex;
use std::time::Duration;

use serde::value::Value;
use serde::Serialize;

use crate::cache::CacheStats;

/// How a job's outcome was obtained.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Provenance {
    /// Freshly simulated on a worker.
    Executed,
    /// Answered from the on-disk cache.
    DiskCache,
}

impl Provenance {
    /// A short, stable tag (`ran`/`disk`) used in progress lines and
    /// trace-event args.
    pub fn tag(self) -> &'static str {
        match self {
            Provenance::Executed => "ran",
            Provenance::DiskCache => "disk",
        }
    }

    /// Parses a [`Provenance::tag`] rendering back (the shard wire
    /// protocol ships provenance as its tag).
    pub fn from_tag(tag: &str) -> Option<Provenance> {
        match tag {
            "ran" => Some(Provenance::Executed),
            "disk" => Some(Provenance::DiskCache),
            _ => None,
        }
    }
}

/// The design name encoded in a job label.
///
/// Campaign labels are `cpu/{app}/{design}x{cores}` or
/// `gpu/{kernel}/{design}`; anything unrecognized groups under its
/// last path segment.
pub fn design_of(label: &str) -> &str {
    let last = label.rsplit('/').next().unwrap_or(label);
    match last.rsplit_once('x') {
        Some((design, cores))
            if !design.is_empty()
                && !cores.is_empty()
                && cores.bytes().all(|b| b.is_ascii_digit()) =>
        {
            design
        }
        _ => last,
    }
}

/// A batch's per-design job counts: `(design, jobs)` parsed from the
/// job labels with [`design_of`], in first-submission order, so the
/// first entry is the campaign's baseline column.
pub fn design_columns<'a>(labels: impl IntoIterator<Item = &'a str>) -> Vec<(String, usize)> {
    let mut columns: Vec<(String, usize)> = Vec::new();
    for label in labels {
        let design = design_of(label);
        match columns.iter_mut().find(|(d, _)| d == design) {
            Some((_, count)) => *count += 1,
            None => columns.push((design.to_string(), 1)),
        }
    }
    columns
}

/// One progress event.
#[derive(Debug, Clone)]
pub enum ProgressEvent {
    /// A batch was submitted: `total` jobs, `workers` threads.
    BatchStarted {
        /// Jobs in the batch.
        total: usize,
        /// Worker threads executing it.
        workers: usize,
        /// Per-design job counts ([`design_columns`]). Sinks that
        /// render per-design completion (the dashboard's figure rows)
        /// read the expected column sizes from here.
        columns: Vec<(String, usize)>,
    },
    /// A job finished (by execution or cache hit).
    JobFinished {
        /// Index of the job in the batch.
        index: usize,
        /// The job's label.
        label: String,
        /// How the outcome was obtained.
        provenance: Provenance,
        /// Jobs finished so far, including this one.
        done: usize,
        /// Jobs in the batch.
        total: usize,
        /// Simulated seconds covered by the outcome
        /// ([`crate::SimMetrics::sim_seconds`]), identical whether the
        /// job ran or was answered from cache.
        sim_seconds: f64,
    },
    /// The batch completed.
    BatchFinished {
        /// Summary counters for the batch.
        stats: RunnerStats,
    },
}

/// Summary counters for one batch (or a whole campaign).
#[derive(Debug, Clone, Copy, Default)]
pub struct RunnerStats {
    /// Jobs submitted.
    pub jobs: u64,
    /// Jobs actually simulated (cache misses).
    pub executed: u64,
    /// Jobs answered from the cache.
    pub cache_hits: u64,
    /// Cache-layer detail.
    pub cache: CacheStats,
    /// Simulated seconds covered by the batch's outcomes.
    pub sim_seconds: f64,
    /// Wall-clock time the batch took.
    pub wall: Duration,
}

impl RunnerStats {
    /// Whether these counters are a pure function of the simulated
    /// configuration. They are **not**: wall time varies with machine
    /// load, and the cache-hit split varies with disk state, so two
    /// byte-identical campaigns legitimately report different
    /// [`RunnerStats`]. Cross-run regression gates consult this
    /// declaration to exempt runner telemetry from comparison, instead
    /// of hand-listing section names at every call site.
    pub const DETERMINISTIC: bool = false;

    /// Cache hit rate over the batch in `[0, 1]`.
    pub fn hit_rate(&self) -> f64 {
        if self.jobs == 0 {
            0.0
        } else {
            self.cache_hits as f64 / self.jobs as f64
        }
    }

    /// Simulated seconds per wall-clock second (the runner's
    /// throughput metric); `0` for an instantaneous batch.
    pub fn sim_seconds_per_wall_second(&self) -> f64 {
        let wall = self.wall.as_secs_f64();
        if wall > 0.0 {
            self.sim_seconds / wall
        } else {
            0.0
        }
    }

    /// Folds another batch's counters into this one.
    pub fn merge(&mut self, other: &RunnerStats) {
        self.jobs += other.jobs;
        self.executed += other.executed;
        self.cache_hits += other.cache_hits;
        self.cache.merge(&other.cache);
        self.sim_seconds += other.sim_seconds;
        self.wall += other.wall;
    }
}

impl Serialize for RunnerStats {
    fn to_value(&self) -> Value {
        Value::Object(vec![
            ("jobs".into(), self.jobs.to_value()),
            ("executed".into(), self.executed.to_value()),
            ("cache_hits".into(), self.cache_hits.to_value()),
            ("cache".into(), self.cache.to_value()),
            ("sim_seconds".into(), self.sim_seconds.to_value()),
            ("wall_seconds".into(), self.wall.as_secs_f64().to_value()),
        ])
    }
}

/// A consumer of progress events.
pub trait ProgressSink: Send + Sync {
    /// Receives one event. Called from worker threads; implementations
    /// should be quick and must not panic.
    fn event(&self, event: &ProgressEvent);

    /// Forces any buffered or rate-limited output out *now*. The
    /// campaign driver calls this once on completion so sinks that
    /// throttle redraws (the dashboard) never leave a stale mid-run
    /// frame on screen. The default is a no-op — line-oriented sinks
    /// already emit eagerly.
    fn flush(&self) {}
}

/// Discards every event (the default sink).
#[derive(Debug, Default, Clone, Copy)]
pub struct NullSink;

impl ProgressSink for NullSink {
    fn event(&self, _event: &ProgressEvent) {}
}

/// Renders events as single-line updates on stderr (the `repro
/// --progress` sink).
///
/// Each event is formatted into one complete line *before* the writer
/// lock is taken, and emitted with a single `write_all` under that
/// lock — so completion lines arriving concurrently from worker
/// threads can interleave whole lines, but never tear mid-line (the
/// per-handle locking `eprintln!` relies on only covers one `write`
/// call, not a formatted sequence of them).
pub struct StderrSink {
    out: Mutex<Box<dyn Write + Send>>,
}

impl Default for StderrSink {
    fn default() -> Self {
        StderrSink::new()
    }
}

impl StderrSink {
    /// A sink writing to the process's stderr.
    pub fn new() -> Self {
        StderrSink::with_writer(Box::new(std::io::stderr()))
    }

    /// A sink writing to an arbitrary writer (tests inject a shared
    /// buffer to assert on the emitted lines).
    pub fn with_writer(out: Box<dyn Write + Send>) -> Self {
        StderrSink {
            out: Mutex::new(out),
        }
    }

    /// The one-line rendering of `event`, newline-terminated.
    fn format(event: &ProgressEvent) -> String {
        match event {
            ProgressEvent::BatchStarted { total, workers, .. } => {
                format!("[runner] {total} jobs on {workers} worker(s)\n")
            }
            ProgressEvent::JobFinished {
                label,
                provenance,
                done,
                total,
                ..
            } => format!("[runner] {done}/{total} {label} ({})\n", provenance.tag()),
            ProgressEvent::BatchFinished { stats } => format!(
                "[runner] done: {} jobs, {} executed, {} cached ({:.0}% hit rate), \
                 {:.2} sim-ms in {:.2} s wall ({:.1} sim-ms/s)\n",
                stats.jobs,
                stats.executed,
                stats.cache_hits,
                stats.hit_rate() * 100.0,
                stats.sim_seconds * 1e3,
                stats.wall.as_secs_f64(),
                stats.sim_seconds_per_wall_second() * 1e3,
            ),
        }
    }
}

impl ProgressSink for StderrSink {
    fn event(&self, event: &ProgressEvent) {
        let line = StderrSink::format(event);
        let mut out = self.out.lock().expect("stderr sink lock");
        // Progress is best-effort: a closed stderr must not kill a job.
        let _ = out.write_all(line.as_bytes());
        let _ = out.flush();
    }
}

/// Writes `line` and a newline to stderr in one `write_all`, ignoring
/// failure: narration is best-effort, as [`StderrSink`]'s is, and one
/// write per line keeps lines whole where several threads or processes
/// share the stream (`eprintln!` writes each formatted piece
/// separately, so a shard worker's line could be split by the
/// supervisor's progress lines).
pub fn narrate(line: &str) {
    let _ = std::io::stderr().write_all(format!("{line}\n").as_bytes());
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hit_rate_and_throughput_handle_zero_denominators() {
        let stats = RunnerStats::default();
        assert_eq!(stats.hit_rate(), 0.0);
        assert_eq!(stats.sim_seconds_per_wall_second(), 0.0);
    }

    #[test]
    fn merge_accumulates_all_counters() {
        let mut a = RunnerStats {
            jobs: 2,
            executed: 1,
            cache_hits: 1,
            cache: CacheStats {
                disk_hits: 0,
                misses: 1,
                corrupt_files: 0,
            },
            sim_seconds: 0.5,
            wall: Duration::from_secs(1),
        };
        let b = RunnerStats {
            jobs: 3,
            executed: 3,
            cache_hits: 0,
            cache: CacheStats {
                disk_hits: 0,
                misses: 3,
                corrupt_files: 1,
            },
            sim_seconds: 1.5,
            wall: Duration::from_secs(2),
        };
        a.merge(&b);
        assert_eq!(a.jobs, 5);
        assert_eq!(a.executed, 4);
        assert_eq!(a.cache.misses, 4);
        assert_eq!(a.cache.corrupt_files, 1);
        assert!((a.sim_seconds - 2.0).abs() < 1e-12);
        assert_eq!(a.wall, Duration::from_secs(3));
    }

    #[test]
    fn runner_stats_serialize_for_telemetry() {
        let stats = RunnerStats {
            jobs: 4,
            executed: 3,
            cache_hits: 1,
            cache: CacheStats {
                disk_hits: 0,
                misses: 3,
                corrupt_files: 0,
            },
            sim_seconds: 0.25,
            wall: Duration::from_millis(1500),
        };
        let Value::Object(fields) = stats.to_value() else {
            panic!("RunnerStats must serialize to an object");
        };
        let names: Vec<&str> = fields.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(
            names,
            [
                "jobs",
                "executed",
                "cache_hits",
                "cache",
                "sim_seconds",
                "wall_seconds"
            ]
        );
        let wall = fields.iter().find(|(n, _)| n == "wall_seconds").unwrap();
        assert_eq!(wall.1, 1.5f64.to_value());
    }

    #[test]
    fn design_names_parse_from_both_label_shapes() {
        assert_eq!(design_of("cpu/lu/AdvHetx4"), "AdvHet");
        assert_eq!(design_of("cpu/lu/AdvHetx16"), "AdvHet");
        assert_eq!(design_of("gpu/matmul/HetGPU"), "HetGPU");
        assert_eq!(design_of("HetGPU"), "HetGPU");
        // An `x` not followed by a pure core count is part of the name.
        assert_eq!(design_of("cpu/lu/Extreme"), "Extreme");
    }

    #[test]
    fn design_columns_count_jobs_in_first_submission_order() {
        let labels = ["cpu/lu/BaseCMOSx4", "cpu/lu/AdvHetx4", "cpu/fft/BaseCMOSx4"];
        assert_eq!(
            design_columns(labels),
            [("BaseCMOS".to_string(), 2), ("AdvHet".to_string(), 1)]
        );
    }

    #[test]
    fn stderr_sink_formats_without_panicking() {
        let sink = StderrSink::default();
        sink.event(&ProgressEvent::BatchStarted {
            total: 2,
            workers: 2,
            columns: vec![("AdvHet".into(), 2)],
        });
        sink.event(&ProgressEvent::JobFinished {
            index: 0,
            label: "lu/AdvHet".into(),
            provenance: Provenance::DiskCache,
            done: 1,
            total: 2,
            sim_seconds: 0.25,
        });
        sink.event(&ProgressEvent::BatchFinished {
            stats: RunnerStats::default(),
        });
    }

    /// A writer that shares its buffer, so the test can hammer one
    /// sink from many threads and then inspect what came out.
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

    #[test]
    fn concurrent_job_finished_lines_never_tear() {
        let buf = SharedBuf::default();
        let sink = std::sync::Arc::new(StderrSink::with_writer(Box::new(buf.clone())));
        const THREADS: usize = 8;
        const EVENTS: usize = 50;
        std::thread::scope(|scope| {
            for t in 0..THREADS {
                let sink = sink.clone();
                scope.spawn(move || {
                    for i in 0..EVENTS {
                        sink.event(&ProgressEvent::JobFinished {
                            index: t * EVENTS + i,
                            label: format!("cpu/lu/AdvHetx{t}"),
                            provenance: Provenance::Executed,
                            done: i + 1,
                            total: THREADS * EVENTS,
                            sim_seconds: 0.0,
                        });
                    }
                });
            }
        });
        let bytes = buf.0.lock().expect("buf lock").clone();
        let text = String::from_utf8(bytes).expect("utf8");
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), THREADS * EVENTS);
        for line in lines {
            // A torn write would splice one line into another; every
            // line must independently be a complete progress line.
            assert!(
                line.starts_with("[runner] ") && line.ends_with("(ran)"),
                "torn line: {line:?}"
            );
            assert_eq!(line.matches("[runner]").count(), 1, "torn line: {line:?}");
        }
    }
}
