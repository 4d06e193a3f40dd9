//! The [`Runner`]: cache lookup, pool dispatch, deterministic merge.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use hetsim_obs::{Clock, MonotonicClock, Observations, TraceRecorder};
use serde::{Deserialize, Serialize};

use crate::cache::ResultCache;
use crate::job::Job;
use crate::pool::{run_batch, Task};
use crate::progress::{
    design_columns, NullSink, ProgressEvent, ProgressSink, Provenance, RunnerStats,
};
use crate::timing::RunnerTiming;
use crate::SimMetrics;

/// The campaign-execution engine: a worker count, an optional on-disk
/// result cache and a progress sink.
///
/// A batch of [`Job`]s submitted through [`Runner::run`] is answered in
/// three steps:
///
/// 1. **lookup** — with a cache directory, every key is probed on
///    disk; hits fill their result slot immediately and emit a
///    `JobFinished` event with cache provenance. Without one, every
///    job is a miss;
/// 2. **execute** — the misses run on the work-stealing pool
///    ([`run_batch`]), each storing its outcome and [`Observations`]
///    back into the cache (if any) as one record;
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
/// assertions exact. When a [`TraceRecorder`] is attached via
/// [`Runner::with_recorder`], each job's phases (`cache-lookup`,
/// `simulate`, `cache-write`) are recorded as spans on the thread that
/// ran them, and the batch's progress as instants: `batch-started` and
/// `batch-finished` on the submitting thread, and one `job-finished`
/// per job on the thread that answered it.
pub struct Runner<T> {
    workers: usize,
    cache: Option<ResultCache<(T, Observations)>>,
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
    T: Send + Serialize + Deserialize + SimMetrics,
{
    /// A runner with `workers` threads (clamped to at least 1) and no
    /// cache: every job it is given runs.
    pub fn new(workers: usize) -> Self {
        Runner {
            workers: workers.max(1),
            cache: None,
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

    /// Caches outcomes in `dir` (created if missing).
    ///
    /// # Errors
    ///
    /// Returns the underlying I/O error if the directory cannot be
    /// created.
    pub fn with_cache_dir(mut self, dir: impl Into<std::path::PathBuf>) -> std::io::Result<Self> {
        self.cache = Some(ResultCache::on_disk(dir)?);
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
    /// `cache-write` for misses; one `batch` span per [`Runner::run`]),
    /// and the batch's progress as `batch-started`, `job-finished` and
    /// `batch-finished` instants.
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
        if let Some(cache) = &self.cache {
            cache.reset_stats();
            cache.refresh();
        }
        self.sink.event(&ProgressEvent::BatchStarted {
            total: n,
            workers: self.workers,
            columns: design_columns(jobs.iter().map(|job| job.label.as_str())),
        });
        if let Some(recorder) = &self.recorder {
            recorder.instant(
                "batch-started",
                "runner",
                vec![
                    ("total".into(), n.into()),
                    ("workers".into(), self.workers.into()),
                ],
            );
        }
        let mut batch_timing = RunnerTiming::default();

        // Step 1: probe the cache for every job, in submission order.
        let done = AtomicUsize::new(0);
        let mut slots: Vec<Option<(T, Observations)>> = Vec::with_capacity(n);
        let mut misses: Vec<(usize, Job<T>)> = Vec::new();
        for (index, job) in jobs.into_iter().enumerate() {
            let lookup_start_us = self.clock.now_us();
            let hit = self.cache.as_ref().and_then(|cache| cache.get(job.key));
            let lookup_end_us = self.clock.now_us();
            batch_timing
                .cache_lookup_us
                .record(lookup_end_us.saturating_sub(lookup_start_us));
            if let Some(recorder) = &self.recorder {
                let found = hit.as_ref().map_or("miss", |_| Provenance::DiskCache.tag());
                recorder.record_span(
                    "cache-lookup",
                    "job",
                    lookup_start_us,
                    lookup_end_us,
                    vec![
                        ("index".into(), index.into()),
                        ("job".into(), job.label.clone().into()),
                        ("provenance".into(), found.into()),
                    ],
                );
            }
            match hit {
                Some(record) => {
                    let sim_seconds = record.0.sim_seconds();
                    self.finished(
                        index,
                        job.label,
                        Provenance::DiskCache,
                        &done,
                        n,
                        sim_seconds,
                    );
                    slots.push(Some(record));
                }
                None => {
                    slots.push(None);
                    misses.push((index, job));
                }
            }
        }

        // Step 2: execute the misses on the pool. Each task simulates,
        // stores outcome and observations, and reports. Phase times and
        // skip counts land in `timing` (shared, per-sample lock) and —
        // when tracing — as spans on the worker's own track.
        let executed = misses.len() as u64;
        let done = &done;
        let tasks: Vec<Task<'_, (usize, (T, Observations))>> = misses
            .into_iter()
            .map(|(index, job)| {
                let Job { key, label, run } = job;
                Box::new(move || {
                    // Queue wait: submission (= batch start; all misses
                    // are submitted together) to worker pickup. Not a
                    // span — waits overlap arbitrarily on a worker's
                    // track — so it rides on the simulate span as an
                    // annotation instead.
                    let sim_start_us = self.clock.now_us();
                    let queue_us = sim_start_us.saturating_sub(started_us);
                    let record = run();
                    let sim_end_us = self.clock.now_us();
                    if let Some(cache) = &self.cache {
                        cache.put(key, &record);
                    }
                    let write_end_us = self.clock.now_us();
                    {
                        let mut timing = self.timing.lock().expect("timing lock");
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
                    if let Some(recorder) = &self.recorder {
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
                    let sim_seconds = record.0.sim_seconds();
                    self.finished(index, label, Provenance::Executed, done, n, sim_seconds);
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
            cache: self
                .cache
                .as_ref()
                .map(ResultCache::stats)
                .unwrap_or_default(),
            sim_seconds: results.iter().map(SimMetrics::sim_seconds).sum(),
            wall: Duration::from_micros(end_us.saturating_sub(started_us)),
        };
        self.sink.event(&ProgressEvent::BatchFinished { stats });
        if let Some(recorder) = &self.recorder {
            recorder.instant(
                "batch-finished",
                "runner",
                vec![
                    ("jobs".into(), stats.jobs.into()),
                    ("executed".into(), stats.executed.into()),
                    ("cache_hits".into(), stats.cache_hits.into()),
                ],
            );
        }
        // Settle rate-limited sinks (the dashboard) so the final frame
        // always reflects the completed batch.
        self.sink.flush();
        *self.last.lock().expect("stats lock") = stats;
        self.total.lock().expect("stats lock").merge(&stats);
        results
    }

    /// Reports job `index` answered (`done` counts it): a `JobFinished`
    /// event to the sink and, when tracing, a `job-finished` instant on
    /// the calling thread.
    fn finished(
        &self,
        index: usize,
        label: String,
        provenance: Provenance,
        done: &AtomicUsize,
        total: usize,
        sim_seconds: f64,
    ) {
        let done = done.fetch_add(1, Ordering::SeqCst) + 1;
        let event = ProgressEvent::JobFinished {
            index,
            label,
            provenance,
            done,
            total,
            sim_seconds,
        };
        self.sink.event(&event);
        if let (Some(recorder), ProgressEvent::JobFinished { label, .. }) = (&self.recorder, event)
        {
            let args = vec![
                ("index".into(), index.into()),
                ("job".into(), label.into()),
                ("provenance".into(), provenance.tag().into()),
                ("done".into(), done.into()),
                ("total".into(), total.into()),
            ];
            recorder.instant("job-finished", "job", args);
        }
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
    }

    /// An empty scratch directory named for this process and `tag`.
    fn tmp_dir(tag: &str) -> std::path::PathBuf {
        let dir =
            std::env::temp_dir().join(format!("hetsim-runner-{tag}-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
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
    fn a_runner_without_a_cache_dir_runs_every_job_it_is_given() {
        static RUNS: AtomicU64 = AtomicU64::new(0);
        let runner = Runner::new(4);
        runner.run(batch(&RUNS, 10));
        runner.run(batch(&RUNS, 10));
        assert_eq!(RUNS.load(Ordering::SeqCst), 20, "nothing is remembered");
        let last = runner.last_stats();
        assert_eq!((last.executed, last.cache_hits), (10, 0));
        assert_eq!(last.cache.lookups(), 0, "no cache to probe");
        let total = runner.total_stats();
        assert_eq!((total.jobs, total.executed), (20, 20));
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
        let cache = cold.cache.as_ref().expect("a cache dir");
        let segment = cache.path_of(key).expect("the cold run's segment");
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
        let cache = cold.cache.as_ref().expect("a cache dir");
        let segment = cache.path_of(key).expect("the cold run's segment");
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
        assert_eq!((last.cache.disk_hits, last.cache.misses), (6, 0));
        let mut expected = folded(3);
        expected.merge(&folded(6));
        assert_eq!(runner.total_observations(), expected);
        std::fs::remove_dir_all(&dir).expect("cleanup");
    }

    #[test]
    fn skip_totals_sum_the_executed_jobs_and_a_warm_batch_adds_none() {
        static RUNS: AtomicU64 = AtomicU64::new(0);
        let dir = tmp_dir("skip-totals");
        let runner = Runner::new(3).with_cache_dir(&dir).expect("cache dir");
        runner.run(batch(&RUNS, 10));
        let cold = runner.total_timing();
        assert_eq!((cold.skipped_cycles, cold.wakeup_jumps), (45, 10));
        runner.run(batch(&RUNS, 10)); // all disk hits
        assert_eq!(runner.last_stats().executed, 0);
        let warm = runner.total_timing();
        assert_eq!((warm.skipped_cycles, warm.wakeup_jumps), (45, 10));
        // The fold covers every answered job, hit or executed.
        let mut twice = folded(10);
        twice.merge(&folded(10));
        assert_eq!(runner.total_observations(), twice);
        std::fs::remove_dir_all(&dir).expect("cleanup");
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
    fn job_finished_events_carry_sim_seconds_cold_and_warm() {
        struct Collecting(Mutex<Vec<(usize, Provenance, f64)>>);
        impl ProgressSink for Collecting {
            fn event(&self, event: &ProgressEvent) {
                if let ProgressEvent::JobFinished {
                    index,
                    provenance,
                    sim_seconds,
                    ..
                } = event
                {
                    let mut seen = self.0.lock().expect("sink lock");
                    seen.push((*index, *provenance, *sim_seconds));
                }
            }
        }
        static RUNS: AtomicU64 = AtomicU64::new(0);
        let dir = tmp_dir("sim-seconds");
        let sink = Arc::new(Collecting(Mutex::new(Vec::new())));
        let runner = Runner::new(4)
            .with_cache_dir(&dir)
            .expect("cache dir")
            .with_sink(sink.clone());
        let taken = |expected: Provenance| {
            runner.run(batch(&RUNS, 3));
            let mut seen = std::mem::take(&mut *sink.0.lock().expect("sink lock"));
            // Sorted by index so worker completion order is moot.
            seen.sort_by_key(|&(index, ..)| index);
            assert!(seen.iter().all(|&(_, p, _)| p == expected), "{seen:?}");
            seen.into_iter().map(|(.., s)| s).collect::<Vec<f64>>()
        };
        let cold = taken(Provenance::Executed);
        assert_eq!(cold, [0.0, 1.0, 2.0]);
        // A warm batch (pure disk hits) reports the same values.
        assert_eq!(taken(Provenance::DiskCache), cold);
        std::fs::remove_dir_all(&dir).expect("cleanup");
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
        let dir = tmp_dir("timing");
        let runner = Runner::new(4).with_cache_dir(&dir).expect("cache dir");
        runner.run(batch(&RUNS, 10)); // cold: 10 misses
        runner.run(batch(&RUNS, 10)); // warm: 10 disk hits
        let timing = runner.total_timing();
        assert_eq!(timing.cache_lookup_us.count(), 20, "every probe sampled");
        assert_eq!(timing.simulate_us.count(), 10, "misses only");
        assert_eq!(timing.cache_write_us.count(), 10);
        assert_eq!(timing.queue_wait_us.count(), 10);
        std::fs::remove_dir_all(&dir).expect("cleanup");
    }

    #[test]
    fn recorder_captures_a_structurally_valid_trace() {
        static RUNS: AtomicU64 = AtomicU64::new(0);
        let dir = tmp_dir("valid-trace");
        let recorder = Arc::new(hetsim_obs::TraceRecorder::new(Arc::new(
            hetsim_obs::MonotonicClock::new(),
        )));
        let runner = Runner::new(4)
            .with_cache_dir(&dir)
            .expect("cache dir")
            .with_recorder(recorder.clone());
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
        std::fs::remove_dir_all(&dir).expect("cleanup");
    }

    #[test]
    fn recorder_captures_the_batch_and_each_job_as_instants() {
        use hetsim_obs::{EventKind, ManualClock, TraceEvent};
        static RUNS: AtomicU64 = AtomicU64::new(0);
        let dir = tmp_dir("instants");
        // Jobs 0 and 1 are on disk, so the traced batch hits two and
        // executes two.
        Runner::serial()
            .with_cache_dir(&dir)
            .expect("cache dir")
            .run(batch(&RUNS, 2));
        let clock = Arc::new(ManualClock::new());
        clock.advance(7);
        let recorder = Arc::new(hetsim_obs::TraceRecorder::new(clock));
        let runner = Runner::new(2)
            .with_cache_dir(&dir)
            .expect("cache dir")
            .with_recorder(recorder.clone());
        runner.run(batch(&RUNS, 4));
        assert_eq!(RUNS.load(Ordering::SeqCst), 4, "2 cold + 2 traced misses");

        let events = recorder.events();
        let instants: Vec<&TraceEvent> = events
            .iter()
            .filter(|e| matches!(e.kind, EventKind::Instant { .. }))
            .collect();
        let named = |name: &str| -> Vec<&TraceEvent> {
            instants
                .iter()
                .copied()
                .filter(|e| e.name == name)
                .collect()
        };
        let arg = |e: &TraceEvent, key: &str| {
            let found = e.args.iter().find(|(k, _)| k == key);
            found.map(|(_, v)| v.render())
        };
        let (started, finished) = (named("batch-started"), named("batch-finished"));
        assert_eq!((started.len(), finished.len()), (1, 1));
        assert_eq!(started[0].kind, EventKind::Instant { at_us: 7 });
        assert_eq!(arg(started[0], "total").as_deref(), Some("4"));
        assert_eq!(arg(started[0], "workers").as_deref(), Some("2"));
        assert_eq!(arg(finished[0], "jobs").as_deref(), Some("4"));
        assert_eq!(arg(finished[0], "executed").as_deref(), Some("2"));
        assert_eq!(arg(finished[0], "cache_hits").as_deref(), Some("2"));
        // The batch boundaries and both hits are stamped on the
        // submitting thread.
        assert_eq!(started[0].track, finished[0].track);

        let mut jobs: Vec<(String, String, String, String)> = named("job-finished")
            .into_iter()
            .map(|e| {
                let get = |key| arg(e, key).unwrap_or_else(|| panic!("`{key}` arg"));
                assert_eq!(get("total"), "4");
                (get("index"), get("job"), get("provenance"), get("done"))
            })
            .collect();
        assert_eq!(jobs.len(), 4, "one per job: {jobs:?}");
        let mut done: Vec<String> = jobs.iter().map(|j| j.3.clone()).collect();
        done.sort();
        assert_eq!(done, ["1", "2", "3", "4"]);
        jobs.sort();
        let answered: Vec<(&str, &str, &str)> = jobs
            .iter()
            .map(|(i, job, provenance, _)| (i.as_str(), job.as_str(), provenance.as_str()))
            .collect();
        assert_eq!(
            answered,
            [
                ("0", "job0", "disk"),
                ("1", "job1", "disk"),
                ("2", "job2", "ran"),
                ("3", "job3", "ran"),
            ]
        );
        for hit in named("job-finished")
            .iter()
            .filter(|e| arg(e, "provenance").as_deref() == Some("disk"))
        {
            assert_eq!(hit.track, started[0].track);
        }
        std::fs::remove_dir_all(&dir).expect("cleanup");
    }
}
