//! The [`Runner`]: cache lookup, pool dispatch, deterministic merge.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use hetsim_obs::{Clock, MonotonicClock, Observations, TraceRecorder};
use serde::{Deserialize, Serialize};

use crate::cache::ResultCache;
use crate::job::Job;
use crate::pool::{run_batch, Task};
use crate::progress::{narrate, Provenance, RunnerStats};
use crate::SimMetrics;

/// The campaign-execution engine: a worker count, an optional on-disk
/// result cache, and the two ways a batch reports its progress.
///
/// A batch of [`Job`]s submitted through [`Runner::run`] is answered in
/// three steps:
///
/// 1. **lookup** — with a cache directory, every key is probed on
///    disk; hits fill their result slot immediately and are reported
///    finished with cache provenance. Without one, every job is a
///    miss;
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
/// runner) and the folded observations
/// ([`Runner::total_observations`]), whose skip counts cover every
/// answered job, so a warm runner reports what a cold one did.
///
/// All timestamps come from one [`Clock`]: a [`MonotonicClock`], or
/// the clock of an attached recorder — a [`hetsim_obs::ManualClock`]
/// under test makes timing and tracing assertions exact. The span log
/// is the one record of where a job's host time went: when a
/// [`TraceRecorder`] is attached via
/// [`Runner::with_recorder`], each job's phases (`cache-lookup`,
/// `simulate` with its queue wait, `cache-write`) are recorded as spans
/// on the thread that ran them, and the batch's progress as instants:
/// `batch-started` and `batch-finished` on the submitting thread, and
/// one `job-finished` per job on the thread that answered it. A runner
/// without a cache directory has no cache phases to record, and its
/// `batch-started` instants say `cache: none`. A runner built
/// with [`Runner::narrating`] also writes each of those three progress
/// events to stderr as one `[runner]` line, from the same values.
pub struct Runner<T> {
    workers: usize,
    cache: Option<ResultCache<(T, Observations)>>,
    narrate: bool,
    clock: Arc<dyn Clock>,
    recorder: Option<Arc<TraceRecorder>>,
    total: Mutex<RunnerStats>,
    last: Mutex<RunnerStats>,
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
            narrate: false,
            clock: Arc::new(MonotonicClock::new()),
            recorder: None,
            total: Mutex::default(),
            last: Mutex::default(),
            observations: Mutex::default(),
        }
    }

    /// A single-threaded runner — the reference execution order.
    pub fn serial() -> Self {
        Runner::new(1)
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

    /// Narrates every batch on stderr through [`narrate`]: a
    /// `[runner] N jobs on W worker(s)` line when it starts, a
    /// `[runner] k/N <label> (ran|disk)` line per job answered, and a
    /// `[runner] done: …` summary of its [`RunnerStats`].
    pub fn narrating(mut self) -> Self {
        self.narrate = true;
        self
    }

    /// Attaches a trace recorder: each job's phases are recorded as
    /// spans (`cache-lookup` for every probe; `simulate` for misses and
    /// `cache-write` for their stores; one `batch` span per
    /// [`Runner::run`]), and the batch's progress as `batch-started`
    /// (with `cache`: `disk` or `none`), `job-finished` and
    /// `batch-finished` instants.
    ///
    /// The runner adopts the recorder's clock, so span timestamps and
    /// the batch wall time in [`RunnerStats`] share one timeline.
    pub fn with_recorder(mut self, recorder: Arc<TraceRecorder>) -> Self {
        self.clock = recorder.clock();
        self.recorder = Some(recorder);
        self
    }

    /// Runs a batch, returning outcomes in submission order.
    pub fn run(&self, jobs: Vec<Job<T>>) -> Vec<T> {
        let started_us = self.clock.now_us();
        let n = jobs.len();
        if let Some(cache) = &self.cache {
            cache.reset_stats();
            cache.refresh();
        }
        if self.narrate {
            narrate(&format!("[runner] {n} jobs on {} worker(s)", self.workers));
        }
        if let Some(recorder) = &self.recorder {
            let cache = if self.cache.is_some() { "disk" } else { "none" };
            recorder.instant(
                "batch-started",
                "runner",
                vec![
                    ("total".into(), n.into()),
                    ("workers".into(), self.workers.into()),
                    ("cache".into(), cache.into()),
                ],
            );
        }

        // Step 1: probe the cache, if there is one, for every job, in
        // submission order.
        let done = AtomicUsize::new(0);
        let mut slots: Vec<Option<(T, Observations)>> = Vec::with_capacity(n);
        let mut misses: Vec<(usize, Job<T>)> = Vec::new();
        for (index, job) in jobs.into_iter().enumerate() {
            let hit = self.cache.as_ref().and_then(|cache| {
                let lookup_start_us = self.clock.now_us();
                let hit = cache.get(job.key);
                if let Some(recorder) = &self.recorder {
                    let lookup_end_us = self.clock.now_us();
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
                hit
            });
            match hit {
                Some(record) => {
                    self.finished(index, job.label, Provenance::DiskCache, &done, n);
                    slots.push(Some(record));
                }
                None => {
                    slots.push(None);
                    misses.push((index, job));
                }
            }
        }

        // Step 2: execute the misses on the pool. Each task simulates,
        // stores outcome and observations, and reports; when tracing,
        // its phase times land as spans on the worker's own track.
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
                    let write_end_us = self.cache.as_ref().map(|cache| {
                        cache.put(key, &record);
                        self.clock.now_us()
                    });
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
                        if let Some(write_end_us) = write_end_us {
                            recorder.record_span(
                                "cache-write",
                                "job",
                                sim_end_us,
                                write_end_us,
                                vec![("index".into(), index.into())],
                            );
                        }
                    }
                    self.finished(index, label, Provenance::Executed, done, n);
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
        if self.narrate {
            narrate(&format!(
                "[runner] done: {} jobs, {} executed, {} cached ({:.0}% hit rate), \
                 {:.2} sim-ms in {:.2} s wall ({:.1} sim-ms/s)",
                stats.jobs,
                stats.executed,
                stats.cache_hits,
                stats.hit_rate() * 100.0,
                stats.sim_seconds * 1e3,
                stats.wall.as_secs_f64(),
                stats.sim_seconds_per_wall_second() * 1e3,
            ));
        }
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
        *self.last.lock().expect("stats lock") = stats;
        self.total.lock().expect("stats lock").merge(&stats);
        results
    }

    /// Reports job `index` answered (`done` counts it): a `[runner]`
    /// line when narrating and, when tracing, a `job-finished` instant
    /// on the calling thread.
    fn finished(
        &self,
        index: usize,
        label: String,
        provenance: Provenance,
        done: &AtomicUsize,
        total: usize,
    ) {
        let done = done.fetch_add(1, Ordering::SeqCst) + 1;
        if self.narrate {
            narrate(&format!(
                "[runner] {done}/{total} {label} ({})",
                provenance.tag()
            ));
        }
        if let Some(recorder) = &self.recorder {
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

    /// The observations of every job every batch answered, executed or
    /// hit, folded in submission order: a warm runner's skip counts are
    /// those of the cold run that cached its records.
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
                Job::new(
                    crate::JobKey::of(&("test-v1", i)),
                    format!("job{i}"),
                    move || {
                        counter.fetch_add(1, Ordering::SeqCst);
                        (Out(i as f64), observed(i))
                    },
                )
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
        // Another handle on the directory (another process, say) stores
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
    fn skip_totals_fold_every_answered_job_hit_or_executed() {
        static RUNS: AtomicU64 = AtomicU64::new(0);
        let dir = tmp_dir("skip-totals");
        let runner = Runner::new(3).with_cache_dir(&dir).expect("cache dir");
        runner.run(batch(&RUNS, 10));
        let cold = runner.total_observations();
        assert_eq!((cold.skipped_cycles, cold.wakeup_jumps), (45, 10));
        runner.run(batch(&RUNS, 10)); // all disk hits
        assert_eq!(runner.last_stats().executed, 0);
        let warm = runner.total_observations();
        assert_eq!((warm.skipped_cycles, warm.wakeup_jumps), (90, 20));
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
        std::fs::remove_dir_all(&dir).expect("cleanup");
    }

    #[test]
    fn progress_events_cover_every_job() {
        static RUNS: AtomicU64 = AtomicU64::new(0);
        let recorder = Arc::new(hetsim_obs::TraceRecorder::new(Arc::new(
            hetsim_obs::MonotonicClock::new(),
        )));
        let runner = Runner::new(4).with_recorder(recorder.clone());
        runner.run(batch(&RUNS, 12));
        let events = recorder.events();
        let named = |name: &str| events.iter().filter(|e| e.name == name).count();
        assert_eq!(named("job-finished"), 12);
        assert_eq!(named("batch-finished"), 1);
    }

    #[test]
    fn sim_seconds_accumulate_in_stats() {
        static RUNS: AtomicU64 = AtomicU64::new(0);
        let runner = Runner::serial();
        runner.run(batch(&RUNS, 4)); // outcomes 0.0 + 1.0 + 2.0 + 3.0
        assert!((runner.last_stats().sim_seconds - 6.0).abs() < 1e-12);
    }

    #[test]
    fn a_runner_without_a_cache_dir_records_no_cache_phases() {
        static RUNS: AtomicU64 = AtomicU64::new(0);
        let recorder = Arc::new(hetsim_obs::TraceRecorder::new(Arc::new(
            hetsim_obs::MonotonicClock::new(),
        )));
        let runner = Runner::new(3).with_recorder(recorder.clone());
        runner.run(batch(&RUNS, 6));
        let events = recorder.events();
        let named = |name: &str| events.iter().filter(|e| e.name == name).count();
        assert_eq!((named("simulate"), named("job-finished")), (6, 6));
        assert_eq!(named("cache-lookup"), 0);
        assert_eq!(named("cache-write"), 0);
        let started = events
            .iter()
            .find(|e| e.name == "batch-started")
            .expect("a batch-started instant");
        let cache = started.args.iter().find(|(k, _)| k == "cache");
        assert_eq!(cache.map(|(_, v)| v.render()).as_deref(), Some("none"));
        assert_eq!(
            hetsim_obs::validate_events(&events),
            Vec::<String>::new(),
            "a no-cache trace validates without lookup spans"
        );
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
        // The queue wait is no span of its own: it rides on `simulate`.
        for simulate in events.iter().filter(|e| e.name == "simulate") {
            assert!(
                simulate.args.iter().any(|(k, _)| k == "queue_us"),
                "a simulate span without `queue_us`: {simulate:?}"
            );
        }
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
        assert_eq!(arg(started[0], "cache").as_deref(), Some("disk"));
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
