//! The [`Runner`]: cache lookup, pool dispatch, deterministic merge.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use hetsim_obs::{Clock, MonotonicClock, TraceRecorder};
use serde::{Deserialize, Serialize};

use crate::cache::{CacheLayer, ResultCache};
use crate::job::Job;
use crate::pool::{run_batch, Task};
use crate::progress::{design_of, NullSink, ProgressEvent, ProgressSink, Provenance, RunnerStats};
use crate::timing::RunnerTiming;
use crate::SimMetrics;

/// The campaign-execution engine: a worker count, a result cache and a
/// progress sink.
///
/// A batch of [`Job`]s submitted through [`Runner::run`] is answered in
/// three steps:
///
/// 1. **lookup** — every key is probed in the cache (memory, then
///    disk); hits fill their result slot immediately and emit a
///    `JobFinished` event with cache provenance;
/// 2. **execute** — the remaining misses run on the work-stealing pool
///    ([`run_batch`]), each storing its outcome back into the cache;
/// 3. **merge** — results are returned in submission order, so the
///    output is independent of worker count and scheduling.
///
/// The runner keeps cumulative [`RunnerStats`] across batches (a
/// campaign is usually several figures' worth of batches on one
/// runner), plus per-phase wall-time histograms ([`RunnerTiming`]).
///
/// All timestamps come from an injected [`Clock`] — a
/// [`hetsim_obs::ManualClock`] under test makes timing and tracing
/// assertions exact — and, when a
/// [`TraceRecorder`] is attached via [`Runner::with_recorder`], each
/// job's phases (`cache-lookup`, `simulate`, `cache-write`) are
/// recorded as spans on the thread that ran them.
pub struct Runner<T> {
    workers: usize,
    cache: ResultCache<T>,
    bypass_cache: bool,
    sink: Arc<dyn ProgressSink>,
    clock: Arc<dyn Clock>,
    recorder: Option<Arc<TraceRecorder>>,
    total: Mutex<RunnerStats>,
    last: Mutex<RunnerStats>,
    timing: Mutex<RunnerTiming>,
}

impl<T> Runner<T>
where
    T: Clone + Send + Serialize + Deserialize + SimMetrics,
{
    /// A runner with `workers` threads (clamped to at least 1) and an
    /// in-memory cache.
    pub fn new(workers: usize) -> Self {
        Runner {
            workers: workers.max(1),
            cache: ResultCache::in_memory(),
            bypass_cache: false,
            sink: Arc::new(NullSink),
            clock: Arc::new(MonotonicClock::new()),
            recorder: None,
            total: Mutex::default(),
            last: Mutex::default(),
            timing: Mutex::default(),
        }
    }

    /// A single-threaded runner — the reference execution order.
    pub fn serial() -> Self {
        Runner::new(1)
    }

    /// A runner sized by `std::thread::available_parallelism` (1 if
    /// that cannot be determined).
    pub fn parallel() -> Self {
        let workers = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        Runner::new(workers)
    }

    /// Adds an on-disk cache layer rooted at `dir` (created if
    /// missing). Results already memoized in memory are kept.
    ///
    /// # Errors
    ///
    /// Returns the underlying I/O error if the directory cannot be
    /// created.
    pub fn with_cache_dir(mut self, dir: impl Into<std::path::PathBuf>) -> std::io::Result<Self> {
        self.cache = ResultCache::on_disk(dir)?;
        Ok(self)
    }

    /// Bypasses the result cache entirely: every job executes, nothing
    /// is probed or stored, and the `cache_lookup_us`/`cache_write_us`
    /// timing histograms stay empty.
    ///
    /// This is the benchmark mode — a perf measurement must time the
    /// simulation itself, never a warm-cache lookup, and must follow
    /// the *identical* timing path whether or not a previous run
    /// populated a cache.
    pub fn with_cache_bypass(mut self, bypass: bool) -> Self {
        self.bypass_cache = bypass;
        self
    }

    /// Replaces the progress sink.
    pub fn with_sink(mut self, sink: Arc<dyn ProgressSink>) -> Self {
        self.sink = sink;
        self
    }

    /// Replaces the clock used for wall-time and span timestamps
    /// (tests inject a [`hetsim_obs::ManualClock`]).
    pub fn with_clock(mut self, clock: Arc<dyn Clock>) -> Self {
        self.clock = clock;
        self
    }

    /// Attaches a trace recorder: each job's phases are recorded as
    /// spans (`cache-lookup` for every probe; `simulate` and
    /// `cache-write` for misses; one `batch` span per [`Runner::run`]).
    ///
    /// The runner adopts the recorder's clock, so span timestamps and
    /// wall-time histograms share one timeline (a later
    /// [`Runner::with_clock`] call would split them — don't).
    pub fn with_recorder(mut self, recorder: Arc<TraceRecorder>) -> Self {
        self.clock = recorder.clock();
        self.recorder = Some(recorder);
        self
    }

    /// The worker-thread count.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Runs a batch, returning outcomes in submission order.
    pub fn run(&self, jobs: Vec<Job<T>>) -> Vec<T> {
        let started_us = self.clock.now_us();
        let n = jobs.len();
        self.cache.reset_stats();
        // Per-design job counts, first-submission order, so sinks know
        // each campaign column's size up front.
        let mut columns: Vec<(String, usize)> = Vec::new();
        for job in &jobs {
            let design = design_of(&job.label);
            match columns.iter_mut().find(|(d, _)| d == design) {
                Some((_, count)) => *count += 1,
                None => columns.push((design.to_string(), 1)),
            }
        }
        self.sink.event(&ProgressEvent::BatchStarted {
            total: n,
            workers: self.workers,
            columns,
        });
        let mut batch_timing = RunnerTiming::default();

        // Step 1: probe the cache for every job, in submission order.
        let done = AtomicUsize::new(0);
        let mut slots: Vec<Option<T>> = Vec::with_capacity(n);
        let mut misses: Vec<(usize, Job<T>)> = Vec::new();
        for (index, job) in jobs.into_iter().enumerate() {
            if self.bypass_cache {
                // Benchmark mode: no probe, no lookup sample, no span —
                // the timing path is identical cold and warm.
                slots.push(None);
                misses.push((index, job));
                continue;
            }
            let lookup_start_us = self.clock.now_us();
            let hit = self.cache.get_traced(job.key);
            let lookup_end_us = self.clock.now_us();
            batch_timing
                .cache_lookup_us
                .record(lookup_end_us.saturating_sub(lookup_start_us));
            let provenance = match hit {
                Some((_, CacheLayer::Memory)) => Provenance::MemoryCache,
                Some((_, CacheLayer::Disk)) => Provenance::DiskCache,
                None => Provenance::Executed, // will run on the pool
            };
            if let Some(recorder) = &self.recorder {
                recorder.record_span(
                    "cache-lookup",
                    "job",
                    lookup_start_us,
                    lookup_end_us,
                    vec![
                        ("index".into(), index.into()),
                        ("job".into(), job.label.clone().into()),
                        (
                            "provenance".into(),
                            if hit.is_some() {
                                provenance.tag()
                            } else {
                                "miss"
                            }
                            .into(),
                        ),
                    ],
                );
            }
            match hit {
                Some((value, _)) => {
                    self.sink.event(&ProgressEvent::JobFinished {
                        index,
                        label: job.label,
                        provenance,
                        done: done.fetch_add(1, Ordering::SeqCst) + 1,
                        total: n,
                        counters: value.counters(),
                        sim_seconds: value.sim_seconds(),
                    });
                    slots.push(Some(value));
                }
                None => {
                    slots.push(None);
                    misses.push((index, job));
                }
            }
        }

        // Step 2: execute the misses on the pool. Each task announces
        // itself, simulates, stores the outcome, and reports. Phase
        // times land in `timing` (shared, per-sample lock) and — when
        // tracing — as spans on the worker's own track.
        let executed = misses.len() as u64;
        let bypass_cache = self.bypass_cache;
        let cache = &self.cache;
        let sink = &self.sink;
        let clock = &self.clock;
        let recorder = self.recorder.as_deref();
        let timing = &self.timing;
        let done = &done;
        let tasks: Vec<Task<'_, (usize, T)>> = misses
            .into_iter()
            .map(|(index, job)| {
                let Job { key, label, run } = job;
                Box::new(move || {
                    sink.event(&ProgressEvent::JobStarted {
                        index,
                        label: label.clone(),
                    });
                    // Queue wait: submission (= batch start; all misses
                    // are submitted together) to worker pickup. Not a
                    // span — waits overlap arbitrarily on a worker's
                    // track — so it rides on the simulate span as an
                    // annotation instead.
                    let sim_start_us = clock.now_us();
                    let queue_us = sim_start_us.saturating_sub(started_us);
                    let value = run();
                    let sim_end_us = clock.now_us();
                    let write_end_us = if bypass_cache {
                        sim_end_us // nothing stored, no write phase
                    } else {
                        cache.put(key, &value);
                        clock.now_us()
                    };
                    {
                        let mut timing = timing.lock().expect("timing lock");
                        timing.queue_wait_us.record(queue_us);
                        timing
                            .simulate_us
                            .record(sim_end_us.saturating_sub(sim_start_us));
                        if !bypass_cache {
                            timing
                                .cache_write_us
                                .record(write_end_us.saturating_sub(sim_end_us));
                        }
                    }
                    if let Some(recorder) = recorder {
                        recorder.record_span(
                            "simulate",
                            "job",
                            sim_start_us,
                            sim_end_us,
                            vec![
                                ("index".into(), index.into()),
                                ("job".into(), label.clone().into()),
                                ("queue_us".into(), queue_us.into()),
                            ],
                        );
                        if !bypass_cache {
                            recorder.record_span(
                                "cache-write",
                                "job",
                                sim_end_us,
                                write_end_us,
                                vec![("index".into(), index.into())],
                            );
                        }
                    }
                    sink.event(&ProgressEvent::JobFinished {
                        index,
                        label,
                        provenance: Provenance::Executed,
                        done: done.fetch_add(1, Ordering::SeqCst) + 1,
                        total: n,
                        counters: value.counters(),
                        sim_seconds: value.sim_seconds(),
                    });
                    (index, value)
                }) as Task<'_, (usize, T)>
            })
            .collect();
        for (index, value) in run_batch(self.workers, tasks) {
            slots[index] = Some(value);
        }

        // Step 3: merge by submission index.
        let results: Vec<T> = slots
            .into_iter()
            .enumerate()
            .map(|(i, slot)| slot.unwrap_or_else(|| panic!("job {i} produced no outcome")))
            .collect();

        let end_us = self.clock.now_us();
        // Step-1 lookup times merge here rather than sampling the
        // shared histogram once per probe on the hot submission path.
        self.timing
            .lock()
            .expect("timing lock")
            .merge(&batch_timing);
        if let Some(recorder) = &self.recorder {
            recorder.record_span(
                "batch",
                "runner",
                started_us,
                end_us,
                vec![
                    ("jobs".into(), n.into()),
                    ("executed".into(), executed.into()),
                ],
            );
        }
        let stats = RunnerStats {
            jobs: n as u64,
            executed,
            cache_hits: n as u64 - executed,
            cache: self.cache.stats(),
            sim_seconds: results.iter().map(SimMetrics::sim_seconds).sum(),
            wall: Duration::from_micros(end_us.saturating_sub(started_us)),
        };
        self.sink.event(&ProgressEvent::BatchFinished { stats });
        // Settle rate-limited sinks (the dashboard) so the final frame
        // always reflects the completed batch.
        self.sink.flush();
        *self.last.lock().expect("stats lock") = stats;
        self.total.lock().expect("stats lock").merge(&stats);
        results
    }

    /// Counters for the most recent batch.
    pub fn last_stats(&self) -> RunnerStats {
        *self.last.lock().expect("stats lock")
    }

    /// Cumulative counters across every batch this runner has run.
    pub fn total_stats(&self) -> RunnerStats {
        *self.total.lock().expect("stats lock")
    }

    /// Cumulative per-phase wall-time histograms across every batch
    /// (always collected, with or without a recorder attached).
    pub fn total_timing(&self) -> RunnerTiming {
        *self.timing.lock().expect("timing lock")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[derive(Debug, Clone, PartialEq)]
    struct Out(f64);

    impl Serialize for Out {
        fn to_value(&self) -> serde::value::Value {
            self.0.to_value()
        }
    }

    impl Deserialize for Out {
        fn from_value(v: &serde::value::Value) -> Result<Self, serde::Error> {
            f64::from_value(v).map(Out)
        }
    }

    impl SimMetrics for Out {
        fn sim_seconds(&self) -> f64 {
            self.0
        }

        fn counters(&self) -> Vec<(String, u64)> {
            vec![("value_millis".into(), (self.0 * 1e3) as u64)]
        }
    }

    fn batch(counter: &'static AtomicU64, n: u64) -> Vec<Job<Out>> {
        (0..n)
            .map(|i| {
                Job::keyed(&("test-v1", i), format!("job{i}"), move || {
                    counter.fetch_add(1, Ordering::SeqCst);
                    Out(i as f64)
                })
            })
            .collect()
    }

    #[test]
    fn serial_and_parallel_runs_agree() {
        static RUNS: AtomicU64 = AtomicU64::new(0);
        let serial = Runner::serial().run(batch(&RUNS, 31));
        let parallel = Runner::new(8).run(batch(&RUNS, 31));
        assert_eq!(serial, parallel);
    }

    #[test]
    fn second_batch_is_answered_from_memory() {
        static RUNS: AtomicU64 = AtomicU64::new(0);
        let runner = Runner::new(4);
        runner.run(batch(&RUNS, 10));
        assert_eq!(RUNS.load(Ordering::SeqCst), 10);
        runner.run(batch(&RUNS, 10));
        assert_eq!(
            RUNS.load(Ordering::SeqCst),
            10,
            "warm batch must execute nothing"
        );
        let last = runner.last_stats();
        assert_eq!((last.executed, last.cache_hits), (0, 10));
        assert_eq!(last.cache.memory_hits, 10);
        assert!((last.hit_rate() - 1.0).abs() < 1e-12);
        let total = runner.total_stats();
        assert_eq!((total.jobs, total.executed), (20, 10));
    }

    #[test]
    fn disk_cache_feeds_a_fresh_runner() {
        static RUNS: AtomicU64 = AtomicU64::new(0);
        let dir =
            std::env::temp_dir().join(format!("hetsim-runner-runner-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cold = Runner::new(2).with_cache_dir(&dir).expect("cache dir");
        let a = cold.run(batch(&RUNS, 6));
        assert_eq!(RUNS.load(Ordering::SeqCst), 6);
        let warm = Runner::new(2).with_cache_dir(&dir).expect("cache dir");
        let b = warm.run(batch(&RUNS, 6));
        assert_eq!(
            RUNS.load(Ordering::SeqCst),
            6,
            "disk-warm batch must execute nothing"
        );
        assert_eq!(a, b);
        assert_eq!(warm.last_stats().cache.disk_hits, 6);
        std::fs::remove_dir_all(&dir).expect("cleanup");
    }

    #[test]
    fn deeply_nested_cache_entry_is_a_corrupt_miss_not_an_abort() {
        static RUNS: AtomicU64 = AtomicU64::new(0);
        let dir = std::env::temp_dir().join(format!(
            "hetsim-runner-deep-entry-test-{}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let cold = Runner::serial().with_cache_dir(&dir).expect("cache dir");
        let fresh = cold.run(batch(&RUNS, 1));
        // Far past the parser's nesting limit: parsing it recursively
        // would overflow the stack.
        let entry = dir.join(format!(
            "{}.json",
            crate::JobKey::of(&("test-v1", 0u64)).hex()
        ));
        std::fs::write(&entry, "[".repeat(100_000)).expect("overwrite entry");

        let again = Runner::serial().with_cache_dir(&dir).expect("cache dir");
        assert_eq!(again.run(batch(&RUNS, 1)), fresh);
        let stats = again.last_stats();
        assert_eq!(stats.executed, 1, "the deep entry must re-simulate");
        assert_eq!(stats.cache.corrupt_files, 1, "and count as corrupt");
        std::fs::remove_dir_all(&dir).expect("cleanup");
    }

    #[test]
    fn progress_events_cover_every_job() {
        struct Counting(AtomicU64, AtomicU64);
        impl ProgressSink for Counting {
            fn event(&self, event: &ProgressEvent) {
                match event {
                    ProgressEvent::JobFinished { .. } => {
                        self.0.fetch_add(1, Ordering::SeqCst);
                    }
                    ProgressEvent::BatchFinished { .. } => {
                        self.1.fetch_add(1, Ordering::SeqCst);
                    }
                    _ => {}
                }
            }
        }
        static RUNS: AtomicU64 = AtomicU64::new(0);
        let sink = Arc::new(Counting(AtomicU64::new(0), AtomicU64::new(0)));
        let runner = Runner::new(4).with_sink(sink.clone());
        runner.run(batch(&RUNS, 12));
        assert_eq!(sink.0.load(Ordering::SeqCst), 12);
        assert_eq!(sink.1.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn job_finished_events_carry_outcome_counters_cold_and_warm() {
        struct Collecting(Mutex<Vec<Vec<(String, u64)>>>);
        impl ProgressSink for Collecting {
            fn event(&self, event: &ProgressEvent) {
                if let ProgressEvent::JobFinished {
                    index, counters, ..
                } = event
                {
                    let mut seen = self.0.lock().expect("sink lock");
                    // Keyed by index so worker completion order is moot.
                    if seen.len() <= *index {
                        seen.resize(*index + 1, Vec::new());
                    }
                    seen[*index] = counters.clone();
                }
            }
        }
        static RUNS: AtomicU64 = AtomicU64::new(0);
        let sink = Arc::new(Collecting(Mutex::new(Vec::new())));
        let runner = Runner::new(4).with_sink(sink.clone());
        runner.run(batch(&RUNS, 3));
        let cold = std::mem::take(&mut *sink.0.lock().expect("sink lock"));
        assert_eq!(cold[2], vec![("value_millis".to_string(), 2000)]);

        // A warm batch (pure memory hits) must report the same counters.
        runner.run(batch(&RUNS, 3));
        assert_eq!(runner.last_stats().executed, 0);
        let warm = std::mem::take(&mut *sink.0.lock().expect("sink lock"));
        assert_eq!(cold, warm);
    }

    #[test]
    fn sim_seconds_accumulate_in_stats() {
        static RUNS: AtomicU64 = AtomicU64::new(0);
        let runner = Runner::serial();
        runner.run(batch(&RUNS, 4)); // outcomes 0.0 + 1.0 + 2.0 + 3.0
        assert!((runner.last_stats().sim_seconds - 6.0).abs() < 1e-12);
    }

    #[test]
    fn timing_histograms_count_every_phase() {
        static RUNS: AtomicU64 = AtomicU64::new(0);
        let runner = Runner::new(4);
        runner.run(batch(&RUNS, 10)); // cold: 10 misses
        runner.run(batch(&RUNS, 10)); // warm: 10 memory hits
        let timing = runner.total_timing();
        assert_eq!(timing.cache_lookup_us.count(), 20, "every probe sampled");
        assert_eq!(timing.simulate_us.count(), 10, "misses only");
        assert_eq!(timing.cache_write_us.count(), 10);
        assert_eq!(timing.queue_wait_us.count(), 10);
    }

    #[test]
    fn cache_bypass_follows_the_identical_timing_path_cold_and_warm() {
        static RUNS: AtomicU64 = AtomicU64::new(0);
        let runner = Runner::new(4).with_cache_bypass(true);
        let cold = runner.run(batch(&RUNS, 7));
        assert_eq!(RUNS.load(Ordering::SeqCst), 7);
        let warm = runner.run(batch(&RUNS, 7));
        assert_eq!(
            RUNS.load(Ordering::SeqCst),
            14,
            "a bypassing runner re-executes every job"
        );
        assert_eq!(cold, warm, "determinism is unaffected");
        let last = runner.last_stats();
        assert_eq!((last.executed, last.cache_hits), (7, 0));
        let timing = runner.total_timing();
        assert_eq!(
            timing.cache_lookup_us.count(),
            0,
            "no lookup ever sampled — cold and warm time the same phases"
        );
        assert_eq!(timing.cache_write_us.count(), 0, "no write phase either");
        assert_eq!(timing.simulate_us.count(), 14, "every job, both batches");
    }

    #[test]
    fn bypass_leaves_a_shared_cache_dir_untouched() {
        static RUNS: AtomicU64 = AtomicU64::new(0);
        let dir =
            std::env::temp_dir().join(format!("hetsim-runner-bypass-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let bench = Runner::new(2)
            .with_cache_dir(&dir)
            .expect("cache dir")
            .with_cache_bypass(true);
        bench.run(batch(&RUNS, 5));
        let leaked = std::fs::read_dir(&dir).expect("dir exists").count();
        assert_eq!(leaked, 0, "bench runs must not populate the cache");
        std::fs::remove_dir_all(&dir).expect("cleanup");
    }

    #[test]
    fn recorder_captures_a_structurally_valid_trace() {
        static RUNS: AtomicU64 = AtomicU64::new(0);
        let recorder = Arc::new(hetsim_obs::TraceRecorder::new(Arc::new(
            hetsim_obs::MonotonicClock::new(),
        )));
        let sink = Arc::new(crate::TraceEventSink::new(recorder.clone()));
        let runner = Runner::new(4)
            .with_recorder(recorder.clone())
            .with_sink(sink);
        runner.run(batch(&RUNS, 8)); // cold
        runner.run(batch(&RUNS, 8)); // warm
        let events = recorder.events();
        let spans_named = |name: &str| {
            events
                .iter()
                .filter(|e| e.name == name && matches!(e.kind, hetsim_obs::EventKind::Span { .. }))
                .count()
        };
        assert_eq!(spans_named("cache-lookup"), 16, "one per probe");
        assert_eq!(spans_named("simulate"), 8, "cold misses only");
        assert_eq!(spans_named("cache-write"), 8);
        assert_eq!(spans_named("batch"), 2);
        assert_eq!(
            hetsim_obs::validate_events(&events),
            Vec::<String>::new(),
            "runner traces must self-validate"
        );
    }
}
