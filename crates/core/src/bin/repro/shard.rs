//! Sharded execution (`--shards N`): the shard protocol's supervisor and
//! worker sides. See `hetsim_runner::shard` for the process-independent
//! pieces (partition, manifests, wire events, retry loop).
//!
//! The supervisor never moves outcome values through pipes. Workers
//! execute their shard of the campaign against the *shared*
//! content-addressed cache, commit a manifest, and exit; the caller
//! then replays the whole campaign through the ordinary `execute()`
//! path, where every job is answered from the warm cache. Because a
//! cache hit is bit-identical to a fresh simulation and results merge by
//! submission index, the headline stdout and stats dump are the ones a
//! single-process run produces. So is the cycle profile: each cache
//! record carries its job's observations, and the replay folds them.

use std::collections::{BTreeSet, HashMap};
use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use hetcore::suite::{Experiment, Extension, Suite};
use hetcore::telemetry::StatsDump;
use hetsim_obs::TraceEvent;
use hetsim_runner::{
    design_of, fragment_path, manifest_path, supervise, trace_path, Job, JobKey, ProgressEvent,
    ProgressSink, Runner, RunnerStats, RunnerTiming, ShardEventSink, ShardManifest, ShardPolicy,
    SimMetrics, WorkerEvent, SHARD_SCHEMA,
};
use serde::value::Value;

use crate::args::{
    Args, Progress, ATTEMPT, CACHE_DIR, INSTS, JOBS, OUT_DIR, SEED, SHARD, SHARDS, TRACE,
};
use crate::exec::{self, resolve_target};
use crate::CliError;

/// What a sharded campaign runs — the shape every worker is handed.
pub struct ShardedCampaign<'a> {
    pub suite: &'a Suite,
    pub requested: &'a [Experiment],
    pub extensions: &'a [Extension],
    /// The worker-thread budget, split across the worker processes.
    pub jobs: usize,
    pub progress: Progress,
    /// Workers record trace logs beside their manifests.
    pub trace: bool,
}

/// Where `shards` workers and their supervisor meet: the shared cache
/// directory and the `shards/` directory of manifests, stats fragments
/// and worker traces in it. A cache directory the user did not name is
/// ephemeral: it is removed when this value drops.
pub struct ShardDirs {
    pub cache: PathBuf,
    pub out: PathBuf,
    pub shards: usize,
    ephemeral: bool,
}

impl ShardDirs {
    /// Uses `cache_dir`, or else an ephemeral `hetsim-{tag}-run-{pid}`.
    pub fn new(cache_dir: Option<PathBuf>, tag: &str, shards: usize) -> Result<ShardDirs, String> {
        let ephemeral = cache_dir.is_none();
        let cache = cache_dir.unwrap_or_else(|| {
            std::env::temp_dir().join(format!("hetsim-{tag}-run-{}", std::process::id()))
        });
        let out = cache.join("shards");
        let dirs = ShardDirs {
            cache,
            out,
            shards,
            ephemeral,
        };
        std::fs::create_dir_all(&dirs.out)
            .map_err(|e| format!("cannot create {}: {e}", dirs.out.display()))?;
        Ok(dirs)
    }

    /// Every worker's trace log, in shard order.
    pub fn worker_traces(&self) -> Result<Vec<Vec<TraceEvent>>, String> {
        let traces = (0..self.shards).map(|shard| trace_path(&self.out, shard));
        traces.map(|path| exec::read_trace(&path)).collect()
    }
}

impl Drop for ShardDirs {
    fn drop(&mut self) {
        if self.ephemeral {
            let _ = std::fs::remove_dir_all(&self.cache);
        }
    }
}

/// The supervisor phase: spawn `dirs.shards` workers over the shared
/// cache, fan their progress into this process's sink, retry
/// crashed shards, and audit the merged manifests against the canonical
/// job cover.
pub fn supervise_campaign(campaign: &ShardedCampaign, dirs: &ShardDirs) -> Result<(), String> {
    let exe =
        std::env::current_exe().map_err(|e| format!("cannot locate the repro binary: {e}"))?;
    let shards = dirs.shards;

    // The run's plan, built exactly as workers build it, giving the
    // progress fan-in its label→index map and the audit its expected
    // key cover.
    let plan = campaign.suite.plan(campaign.requested, campaign.extensions);
    let cpu = plan.cpu.iter().map(|j| (&j.label, j.key));
    let (labels, keys): (Vec<&String>, Vec<_>) = cpu
        .chain(plan.gpu.iter().map(|j| (&j.label, j.key)))
        .unzip();
    let expected: BTreeSet<String> = keys.iter().map(|k| k.hex()).collect();
    let total = labels.len();
    let words: Vec<&str> = campaign
        .requested
        .iter()
        .map(|e| e.cli_name())
        .chain(campaign.extensions.iter().map(|x| x.cli_name()))
        .collect();
    eprintln!("running sharded campaign ({total} job(s) across {shards} worker process(es))...");

    // One aggregate batch over all workers: columns in first-submission
    // design order, like the in-process runner announces them.
    let sink = exec::progress_sink(campaign.progress, None);
    let mut columns: Vec<(String, usize)> = Vec::new();
    for label in &labels {
        let design = design_of(label);
        match columns.iter_mut().find(|(name, _)| name == design) {
            Some((_, count)) => *count += 1,
            None => columns.push((design.to_string(), 1)),
        }
    }
    sink.event(&ProgressEvent::BatchStarted {
        total,
        workers: shards,
        columns,
    });
    let label_index: HashMap<&str, usize> = labels
        .iter()
        .enumerate()
        .map(|(i, l)| (l.as_str(), i))
        .collect();
    let done = AtomicUsize::new(0);

    // Split the worker-thread budget across the worker processes so
    // `--shards N` does not oversubscribe the machine N-fold.
    let worker_jobs = campaign.jobs.div_ceil(shards).max(1);
    let runs = supervise(
        shards,
        &dirs.out,
        &ShardPolicy::default(),
        &|shard, attempt| {
            let mut cmd = std::process::Command::new(&exe);
            cmd.arg("shard-worker");
            for (flag, value) in [
                (&SHARD, shard.to_string()),
                (&SHARDS, shards.to_string()),
                (&ATTEMPT, attempt.to_string()),
                (&INSTS, campaign.suite.insts_per_app.to_string()),
                (&SEED, campaign.suite.seed.to_string()),
                (&JOBS, worker_jobs.to_string()),
            ] {
                cmd.arg(flag.name).arg(value);
            }
            cmd.arg(CACHE_DIR.name).arg(&dirs.cache);
            cmd.arg(OUT_DIR.name).arg(&dirs.out);
            if campaign.trace {
                cmd.arg(TRACE.name);
            }
            cmd.args(&words);
            cmd
        },
        &|_shard, line| {
            let Some(event) = WorkerEvent::from_line(line) else {
                return;
            };
            let Some(&index) = label_index.get(event.label.as_str()) else {
                return;
            };
            let done_now = done.fetch_add(1, Ordering::SeqCst) + 1;
            sink.event(&ProgressEvent::JobFinished {
                index,
                label: event.label,
                provenance: event.provenance,
                done: done_now,
                total,
                counters: Vec::new(),
                sim_seconds: event.sim_seconds,
            });
        },
    )?;

    // Audit the cover: every canonical key claimed by exactly one
    // manifest. A mismatch means a worker and the supervisor disagree
    // about the partition — refusing to merge beats silently reporting
    // a half-run campaign.
    let mut claimed: BTreeSet<String> = BTreeSet::new();
    for run in &runs {
        for key in &run.manifest.keys {
            if !claimed.insert(key.clone()) {
                return Err(format!(
                    "shard cover violation: key {key} claimed by more than one shard"
                ));
            }
        }
    }
    if claimed != expected {
        return Err(format!(
            "shard cover mismatch: workers claimed {} job(s), supervisor expected {}",
            claimed.len(),
            expected.len()
        ));
    }

    // Merge the per-shard StatsDump fragments' runner sections — value
    // trees folded leaf-wise, then parsed back into `RunnerStats` so
    // the batch summary goes through the same merge machinery an
    // in-process campaign uses.
    let fragments: Vec<Value> = runs
        .iter()
        .map(|run| {
            let path = fragment_path(&dirs.out, run.shard);
            serde_json::from_str(&exec::read(&path)?)
                .map_err(|e| format!("{}: {e}", path.display()))
        })
        .collect::<Result<_, String>>()?;
    let mut merged = RunnerStats::default();
    for section in ["cpu", "gpu"] {
        let parts: Vec<Value> = fragments
            .iter()
            .filter_map(|f| f.get("runner").and_then(|r| r.get(section)).cloned())
            .collect();
        if parts.is_empty() {
            continue;
        }
        let folded = hetsim_stats::merge_counter_fragments(&parts)?;
        let stats = RunnerStats::from_dump_value(&folded)
            .ok_or_else(|| format!("malformed runner.{section} section in shard fragments"))?;
        merged.merge(&stats);
    }
    sink.event(&ProgressEvent::BatchFinished { stats: merged });
    // The supervisor fans worker events into rate-limited sinks by
    // hand (no Runner in this process), so it settles them by hand too.
    sink.flush();
    Ok(())
}

/// Whether this worker should crash mid-shard: `HETSIM_SHARD_FAIL=<I>`
/// kills shard `I` on its first attempt (retry heals it),
/// `HETSIM_SHARD_FAIL=<I>:always` kills every attempt (retries
/// exhaust). Fault injection for the chaos tests, same pattern as
/// `HETSIM_CHECK_PERTURB`.
fn shard_fail_requested(shard: usize, attempt: u64) -> bool {
    let Ok(spec) = std::env::var("HETSIM_SHARD_FAIL") else {
        return false;
    };
    let (target, always) = match spec.strip_suffix(":always") {
        Some(t) => (t, true),
        None => (spec.as_str(), false),
    };
    target.parse::<usize>() == Ok(shard) && (always || attempt == 0)
}

/// Runs one campaign's slice of this shard, cut to what is left of the
/// fault-injection `budget` (if any).
fn run_slice<T>(
    mut batch: Vec<Job<T>>,
    budget: &mut Option<usize>,
    runner: Runner<T>,
) -> (RunnerStats, RunnerTiming)
where
    T: Clone + Send + serde::Serialize + serde::Deserialize + SimMetrics,
{
    if let Some(b) = budget {
        let take = (*b).min(batch.len());
        batch.truncate(take);
        *b -= take;
    }
    runner.run(batch);
    (runner.total_stats(), runner.total_timing())
}

/// The hidden worker subcommand the supervisor spawns: run this shard's
/// slice of the campaign into the shared cache, narrate wire events on
/// stdout, then commit fragment + manifest (manifest last — it is the
/// shard's commit record).
pub fn worker(mut args: Args) -> Result<ExitCode, CliError> {
    let words = std::mem::take(&mut args.positionals);
    let targets = args.parse_each(&words, resolve_target);
    args.valid()?;
    let (requested, extensions): (Vec<_>, Vec<_>) = targets.into_iter().unzip();
    let shard = args.num(&SHARD).expect("required");
    let shards = args.num(&SHARDS).expect("required");
    let attempt = args.num(&ATTEMPT).unwrap_or(0);
    let cache_dir = args.path(&CACHE_DIR).expect("required");
    let out_dir = args.path(&OUT_DIR).expect("required");
    let suite = args.suite();
    let in_shard = |e| format!("shard {shard}: {e}");

    let sink: Arc<dyn ProgressSink> = Arc::new(ShardEventSink::stdout());
    let recorder = args.has(&TRACE).then(exec::recorder);

    // This shard's slice of the plan's batches, by key — every worker
    // and the supervisor compute the same partition independently.
    let plan = suite.plan(&requested.concat(), &extensions.concat());
    let (needs_cpu, needs_gpu) = (!plan.cpu.is_empty(), !plan.gpu.is_empty());
    let mine = |key: JobKey| key.shard_of(shards) == shard;
    let cpu_mine: Vec<_> = plan.cpu.into_iter().filter(|j| mine(j.key)).collect();
    let gpu_mine: Vec<_> = plan.gpu.into_iter().filter(|j| mine(j.key)).collect();
    let keys: Vec<String> = cpu_mine
        .iter()
        .map(|j| j.key.hex())
        .chain(gpu_mine.iter().map(|j| j.key.hex()))
        .collect();
    let total = keys.len();

    // Fault injection: crash after roughly half the shard's work, with
    // results of the completed half already committed to the shared
    // cache — exactly the mid-shard death the supervisor must survive.
    let fail_now = shard_fail_requested(shard, attempt);
    let mut budget = fail_now.then_some(total / 2);

    let mut dump = StatsDump::new().with_run(suite.insts_per_app, suite.seed, &words);
    let mut executed = 0u64;
    let jobs = args.jobs();
    if needs_cpu {
        let runner =
            exec::runner(jobs, Some(&cache_dir), &sink, recorder.as_ref()).map_err(in_shard)?;
        let (stats, timing) = run_slice(cpu_mine, &mut budget, runner);
        executed += stats.executed;
        dump = dump
            .with_runner("cpu", stats)
            .with_runner_timing("cpu", timing);
    }
    if needs_gpu {
        let runner =
            exec::runner(jobs, Some(&cache_dir), &sink, recorder.as_ref()).map_err(in_shard)?;
        let (stats, timing) = run_slice(gpu_mine, &mut budget, runner);
        executed += stats.executed;
        dump = dump
            .with_runner("gpu", stats)
            .with_runner_timing("gpu", timing);
    }
    if fail_now {
        // Die without a manifest: the half-done work stays in the
        // cache, the commit record does not exist, and the supervisor
        // must retry this shard.
        eprintln!("[shard {shard}] HETSIM_SHARD_FAIL: crashing mid-shard (attempt {attempt})");
        std::process::exit(3);
    }

    if let Some(rec) = &recorder {
        exec::write(&trace_path(&out_dir, shard), &rec.to_jsonl()).map_err(in_shard)?;
    }
    exec::write(&fragment_path(&out_dir, shard), &dump.to_json()).map_err(in_shard)?;
    let manifest = ShardManifest {
        schema: SHARD_SCHEMA.into(),
        shard: shard as u64,
        shards: shards as u64,
        attempt,
        jobs: total as u64,
        executed,
        keys,
    };
    exec::write(&manifest_path(&out_dir, shard), &exec::pretty(&manifest)).map_err(in_shard)?;
    Ok(ExitCode::SUCCESS)
}
