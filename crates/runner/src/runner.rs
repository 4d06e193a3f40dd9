//! The [`Runner`]: cache lookup, pool dispatch, deterministic merge.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use hetsim_obs::{Clock, MonotonicClock, Observations, TraceRecorder};
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
///    ([`run_batch`]), each storing its outcome and [`Observations`]
///    back into the cache as one record;
/// 3. **merge** — results are returned in submission order, so the
///    output is independent of worker count and scheduling, and every
///    answered job's observations fold into the runner's total in the
///    same order, hit or executed.
///
/// The runner keeps cumulative [`RunnerStats`] across batches (a
/// campaign is usually several figures' worth of batches on one
/// runner), per-phase wall-time histograms ([`RunnerTiming`], which
/// also sum the skip counts of the jobs it executed) and the folded
/// observations ([`Runner::total_observations`]).
///
/// All timestamps come from an injected [`Clock`] — a
/// [`hetsim_obs::ManualClock`] under test makes timing and tracing
/// assertions exact — and, when a
/// [`TraceRecorder`] is attached via [`Runner::with_recorder`], each
/// job's phases (`cache-lookup`, `simulate`, `cache-write`) are
/// recorded as spans on the thread that ran them.
pub struct Runner<T> {
    workers: usize,
    cache: ResultCache<(T, Observations)>,
    sink: Arc<dyn ProgressSink>,
    clock: Arc<dyn Clock>,
    recorder: Option<Arc<TraceRecorder>>,
    total: Mutex<RunnerStats>,
    last: Mutex<RunnerStats>,
    timing: Mutex<RunnerTiming>,
    observations: Mutex<Observations>,
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
            sink: Arc::new(NullSink),
            clock: Arc::new(MonotonicClock::new()),
            recorder: None,
            total: Mutex::default(),
            last: Mutex::default(),
            timing: Mutex::default(),
            observations: Mutex::default(),
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
        self.cache.refresh();
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
        let mut slots: Vec<Option<(T, Observations)>> = Vec::with_capacity(n);
        let mut misses: Vec<(usize, Job<T>)> = Vec::new();
        for (index, job) in jobs.into_iter().enumerate() {
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
                Some((record, _)) => {
                    self.sink.event(&ProgressEvent::JobFinished {
                        index,
                        label: job.label,
                        provenance,
                        done: done.fetch_add(1, Ordering::SeqCst) + 1,
                        total: n,
                        counters: record.0.counters(),
                        sim_seconds: record.0.sim_seconds(),
                    });
                    slots.push(Some(record));
                }
                None => {
                    slots.push(None);
                    misses.push((index, job));
                }
            }
        }

        // Step 2: execute the misses on the pool. Each task announces
        // itself, simulates, stores outcome and observations, and
        // reports. Phase times and skip counts land in `timing`
        // (shared, per-sample lock) and — when tracing — as spans on
        // the worker's own track.
        let executed = misses.len() as u64;
        let cache = &self.cache;
        let sink = &self.sink;
        let clock = &self.clock;
        let recorder = self.recorder.as_deref();
        let timing = &self.timing;
        let done = &done;
        let tasks: Vec<Task<'_, (usize, (T, Observations))>> = misses
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
                    let record = run();
                    let sim_end_us = clock.now_us();
                    cache.put(key, &record);
                    let write_end_us = clock.now_us();
                    {
                        let mut timing = timing.lock().expect("timing lock");
                        timing.skipped_cycles += record.1.skipped_cycles;
                        timing.wakeup_jumps += record.1.wakeup_jumps;
                        timing.queue_wait_us.record(queue_us);
                        timing
                            .simulate_us
                            .record(sim_end_us.saturating_sub(sim_start_us));
                        timing
                            .cache_write_us
                            .record(write_end_us.saturating_sub(sim_end_us));
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
                        recorder.record_span(
                            "cache-write",
                            "job",
                            sim_end_us,
                            write_end_us,
                            vec![("index".into(), index.into())],
                        );
                    }
                    sink.event(&ProgressEvent::JobFinished {
                        index,
                        label,
                        provenance: Provenance::Executed,
                        done: done.fetch_add(1, Ordering::SeqCst) + 1,
                        total: n,
                        counters: record.0.counters(),
                        sim_seconds: record.0.sim_seconds(),
                    });
                    (index, record)
                }) as Task<'_, (usize, (T, Observations))>
            })
            .collect();
        for (index, record) in run_batch(self.workers, tasks) {
            slots[index] = Some(record);
        }

        // Step 3: merge by submission index, folding observations in
        // the same order.
        let mut observations = self.observations.lock().expect("observations lock");
        let results: Vec<T> = slots
            .into_iter()
            .enumerate()
            .map(|(i, slot)| {
                let (value, observed) =
                    slot.unwrap_or_else(|| panic!("job {i} produced no outcome"));
                observations.merge(&observed);
                value
            })
            .collect();
        drop(observations);

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
    /// (always collected, with or without a recorder attached), with
    /// the skip counts of every job this runner executed.
    pub fn total_timing(&self) -> RunnerTiming {
        *self.timing.lock().expect("timing lock")
    }

    /// The observations of every job every batch answered, executed or
    /// hit, folded in submission order.
    pub fn total_observations(&self) -> Observations {
        self.observations.lock().expect("observations lock").clone()
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

    /// Job `i`'s observations: one row and `i` skipped cycles.
    fn observed(i: u64) -> Observations {
        let mut row = hetsim_obs::ProfileRow::new("T", format!("core{}", i % 3));
        row.classes
            .charge(hetsim_obs::profile::CycleClass::Retire, i + 1);
        row.cycles = i + 1;
        let mut observations = Observations::default();
        observations.profile.merge_row(row);
        observations.skipped_cycles = i;
        observations.wakeup_jumps = 1;
        observations
    }

    fn batch(counter: &'static AtomicU64, n: u64) -> Vec<Job<Out>> {
        (0..n)
            .map(|i| {
                Job::keyed(&("test-v1", i), format!("job{i}"), move || {
                    counter.fetch_add(1, Ordering::SeqCst);
                    (Out(i as f64), observed(i))
                })
            })
            .collect()
    }

    /// The fold of jobs `0..n`'s observations.
    fn folded(n: u64) -> Observations {
        let mut total = Observations::default();
        (0..n).for_each(|i| total.merge(&observed(i)));
        total
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
        // would overflow the stack. The record's checksum holds, so
        // only the payload parser stands in the way.
        let key = crate::JobKey::of(&("test-v1", 0u64));
        let segment = cold.cache.path_of(key).expect("the cold run's segment");
        let record = crate::cache::encode(key, &"[".repeat(100_000)).expect("frame");
        std::fs::write(&segment, [crate::cache::SEGMENT_HEADER, &record].concat())
            .expect("overwrite segment");

        let again = Runner::serial().with_cache_dir(&dir).expect("cache dir");
        assert_eq!(again.run(batch(&RUNS, 1)), fresh);
        let stats = again.last_stats();
        assert_eq!(stats.executed, 1, "the deep entry must re-simulate");
        assert_eq!(stats.cache.corrupt_files, 1, "and count as corrupt");
        std::fs::remove_dir_all(&dir).expect("cleanup");
    }

    #[test]
    fn a_record_skipping_more_than_its_cycles_is_a_corrupt_miss() {
        static RUNS: AtomicU64 = AtomicU64::new(0);
        let dir = std::env::temp_dir().join(format!(
            "hetsim-runner-skip-bound-test-{}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let cold = Runner::serial().with_cache_dir(&dir).expect("cache dir");
        let fresh = cold.run(batch(&RUNS, 1));
        // Job 0's one row covers 1 cycle; a record claiming 2 skipped
        // cycles is well-formed JSON under a valid checksum.
        let key = crate::JobKey::of(&("test-v1", 0u64));
        let mut observations = observed(0);
        observations.skipped_cycles = 2;
        let text = serde_json::to_string(&(Out(0.0), observations)).expect("serializes");
        let record = crate::cache::encode(key, &text).expect("frame");
        let segment = cold.cache.path_of(key).expect("the cold run's segment");
        std::fs::write(&segment, [crate::cache::SEGMENT_HEADER, &record].concat())
            .expect("overwrite segment");

        let again = Runner::serial().with_cache_dir(&dir).expect("cache dir");
        assert_eq!(again.run(batch(&RUNS, 1)), fresh);
        let stats = again.last_stats();
        assert_eq!(stats.executed, 1, "the record must re-simulate");
        assert_eq!(stats.cache.corrupt_files, 1, "and count as corrupt");
        std::fs::remove_dir_all(&dir).expect("cleanup");
    }

    #[test]
    fn a_batch_answers_another_handles_puts_from_disk() {
        static RUNS: AtomicU64 = AtomicU64::new(0);
        let dir =
            std::env::temp_dir().join(format!("hetsim-runner-refresh-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let runner = Runner::new(2).with_cache_dir(&dir).expect("cache dir");
        // The first batch scans the empty directory and runs 3 jobs.
        runner.run(batch(&RUNS, 3));
        // Another handle on the directory (a shard worker, say) stores
        // jobs 3..6 after this runner's index was built.
        let other: ResultCache<(Out, Observations)> =
            ResultCache::on_disk(&dir).expect("cache dir");
        for i in 3..6u64 {
            let record = (Out(i as f64), observed(i));
            other.put(crate::JobKey::of(&("test-v1", i)), &record);
        }
        let outcomes = runner.run(batch(&RUNS, 6));
        assert_eq!(
            RUNS.load(Ordering::SeqCst),
            3,
            "the second batch runs nothing"
        );
        assert_eq!(outcomes, (0..6).map(|i| Out(i as f64)).collect::<Vec<_>>());
        let last = runner.last_stats();
        assert_eq!((last.cache.memory_hits, last.cache.disk_hits), (3, 3));
        let mut expected = folded(3);
        expected.merge(&folded(6));
        assert_eq!(runner.total_observations(), expected);
        std::fs::remove_dir_all(&dir).expect("cleanup");
    }

    #[test]
    fn skip_totals_sum_the_executed_jobs_and_a_warm_batch_adds_none() {
        static RUNS: AtomicU64 = AtomicU64::new(0);
        let runner = Runner::new(3);
        runner.run(batch(&RUNS, 10));
        let cold = runner.total_timing();
        assert_eq!((cold.skipped_cycles, cold.wakeup_jumps), (45, 10));
        runner.run(batch(&RUNS, 10)); // all memory hits
        let warm = runner.total_timing();
        assert_eq!((warm.skipped_cycles, warm.wakeup_jumps), (45, 10));
        // The fold covers every answered job, hit or executed.
        let mut twice = folded(10);
        twice.merge(&folded(10));
        assert_eq!(runner.total_observations(), twice);
    }

    #[test]
    fn a_disk_warm_runner_folds_the_observations_a_cold_one_did() {
        static RUNS: AtomicU64 = AtomicU64::new(0);
        let dir =
            std::env::temp_dir().join(format!("hetsim-runner-observe-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cold = Runner::new(2).with_cache_dir(&dir).expect("cache dir");
        cold.run(batch(&RUNS, 7));
        let warm = Runner::new(2).with_cache_dir(&dir).expect("cache dir");
        warm.run(batch(&RUNS, 7));
        assert_eq!(RUNS.load(Ordering::SeqCst), 7, "the warm batch ran nothing");
        assert_eq!(cold.total_observations(), folded(7));
        assert_eq!(warm.total_observations(), folded(7));
        assert_eq!(warm.total_timing().skipped_cycles, 0);
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
