//! The one execution path shared by the run, baseline and ci-gate
//! commands, plus the output helpers every command shares.

use std::io::Write;
use std::path::Path;
use std::process::ExitCode;
use std::sync::Arc;

use hetcore::campaign::traced_campaign;
use hetcore::check::{perturbation_from_env, validate_outputs};
use hetcore::report::Report;
use hetcore::suite::{Experiment, Extension, Suite};
use hetcore::telemetry::StatsDump;
use hetsim_check::Checker;
use hetsim_obs::{CycleProfile, MonotonicClock, TraceRecorder};
use hetsim_runner::{narrate, write_atomic, Job, Runner, SimMetrics};
use serde::Serialize as _;

/// Writes a report or document to stdout. Stdout carries a command's
/// result, so a failed write fails the command; stderr narration, by
/// contrast, is best-effort (`narrate`).
pub fn print(text: &str) -> Result<(), String> {
    let mut out = std::io::stdout().lock();
    out.write_all(text.as_bytes())
        .and_then(|()| out.flush())
        .map_err(|e| format!("cannot write to stdout: {e}"))
}

/// A span recorder on the monotonic clock.
pub fn recorder() -> Arc<TraceRecorder> {
    Arc::new(TraceRecorder::new(Arc::new(MonotonicClock::new())))
}

/// A run target: one experiment word (`all`, `ext`, a figure or an
/// extension), resolved to the experiments and extensions it runs.
pub fn resolve_target(word: &str) -> Result<(Vec<Experiment>, Vec<Extension>), String> {
    let experiment = Experiment::from_cli_name(word);
    match (word, experiment, Extension::from_cli_name(word)) {
        ("all", ..) => Ok((Experiment::ALL.to_vec(), Vec::new())),
        ("ext", ..) => Ok((Vec::new(), Extension::ALL.to_vec())),
        (_, Some(e), _) => Ok((vec![e], Vec::new())),
        (_, None, Some(x)) => Ok((Vec::new(), vec![x])),
        (_, None, None) => Err(format!("unknown experiment '{word}'")),
    }
}

/// Everything one run produces: the rendered reports, the complete
/// telemetry dump (campaign counters, runner stats, reports, run
/// config), ready to print, persist or diff, and the cycle profile both
/// runners folded from their jobs' observations, cold or warm.
pub struct Execution {
    pub reports: Vec<Report>,
    pub dump: StatsDump,
    pub profile: CycleProfile,
}

/// A campaign runner on `jobs` workers, sharing `cache_dir`, narrating
/// on stderr when `progress` is set and, when tracing, recording to
/// `recorder`.
fn runner<T>(
    jobs: usize,
    cache_dir: Option<&Path>,
    progress: bool,
    recorder: Option<&Arc<TraceRecorder>>,
) -> Result<Runner<T>, String>
where
    T: Send + serde::Serialize + serde::Deserialize + SimMetrics,
{
    let mut runner = Runner::new(jobs);
    if let Some(dir) = cache_dir {
        runner = runner
            .with_cache_dir(dir)
            .map_err(|e| format!("cannot open cache directory {}: {e}", dir.display()))?;
    }
    if progress {
        runner = runner.narrating();
    }
    if let Some(rec) = recorder {
        runner = runner.with_recorder(rec.clone());
    }
    Ok(runner)
}

/// Runs `requested` + `extensions` on `suite` and collects the output.
/// This is the one execution path shared by the default command, the
/// baseline writer and the CI gate, so a replayed baseline is produced
/// by *exactly* the code a normal run uses. A target named twice runs
/// and reports once, where it was first named: a dump holds one report
/// per path.
///
/// Every run validates what it simulated against the accounting
/// invariants (see `hetcore::check`): each outcome of both batches,
/// then the dump. Any violation fails the run, listed on stderr, even
/// where no baseline exists to diff it against.
pub fn execute(
    suite: &Suite,
    requested: &[Experiment],
    extensions: &[Extension],
    jobs: usize,
    cache_dir: Option<&Path>,
    progress: bool,
    recorder: Option<&Arc<TraceRecorder>>,
) -> Result<Execution, String> {
    let requested = &first_occurrences(requested);
    let extensions = &first_occurrences(extensions);

    // One CPU and one GPU batch: every simulation the requested targets
    // declare, deduplicated by key, so shared simulations run once. Both
    // runners share one cache directory: their key spaces are separated
    // by schema tags (see `hetcore::campaign`). Runners outlive their
    // batches: their cumulative stats feed the telemetry dump after the
    // reports are rendered.
    let plan = suite.plan(requested, extensions);
    let cpu_runner = (!plan.cpu.is_empty())
        .then(|| runner(jobs, cache_dir, progress, recorder))
        .transpose()?;
    let gpu_runner = (!plan.gpu.is_empty())
        .then(|| runner(jobs, cache_dir, progress, recorder))
        .transpose()?;
    let recorder = recorder.map(Arc::as_ref);
    let outcomes = plan.run(
        |batch| run_batch(cpu_runner.as_ref(), "cpu-campaign", batch, recorder),
        |batch| run_batch(gpu_runner.as_ref(), "gpu-campaign", batch, recorder),
    );
    let reports = suite.reports(&outcomes);
    let (cpu, gpu) = (outcomes.cpu_campaign(), outcomes.gpu_campaign());

    // The canonical experiment words: what `run.experiments` records
    // and what `ci-gate` replays. Derived the same way on record and
    // replay, so the words themselves always diff clean.
    let words: Vec<String> = requested
        .iter()
        .map(|e| e.cli_name().to_string())
        .chain(extensions.iter().map(|e| e.cli_name().to_string()))
        .collect();
    let mut dump = StatsDump::new().with_run(suite.insts_per_app, suite.seed, &words);
    if let Some(c) = &cpu {
        dump = dump.with_cpu_campaign(c);
    }
    if let Some(c) = &gpu {
        dump = dump.with_gpu_campaign(c);
    }
    let mut profile = CycleProfile::new();
    if let Some(r) = &cpu_runner {
        let observed = r.total_observations();
        dump = dump.with_runner("cpu", r.total_stats(), &observed);
        profile.merge(&observed.profile);
    }
    if let Some(r) = &gpu_runner {
        let observed = r.total_observations();
        dump = dump.with_runner("gpu", r.total_stats(), &observed);
        profile.merge(&observed.profile);
    }
    dump = dump.with_reports(&reports);
    let mut checker = Checker::new();
    let spec = perturbation_from_env();
    validate_outputs(&outcomes, &dump.to_value(), spec.as_deref(), &mut checker);
    if !checker.is_clean() {
        for v in checker.violations() {
            narrate(&v.to_string());
        }
        let n = checker.violations().len();
        return Err(format!("{n} invariant violation(s)"));
    }
    Ok(Execution {
        reports,
        dump,
        profile,
    })
}

/// `items` without repeats, each kept where it first occurs.
fn first_occurrences<T: Copy + PartialEq>(items: &[T]) -> Vec<T> {
    let mut unique = Vec::with_capacity(items.len());
    for &item in items {
        if !unique.contains(&item) {
            unique.push(item);
        }
    }
    unique
}

/// Runs one of a plan's batches on its runner (an empty batch has none)
/// inside the trace span `span`.
fn run_batch<T>(
    runner: Option<&Runner<T>>,
    span: &str,
    batch: Vec<Job<T>>,
    recorder: Option<&TraceRecorder>,
) -> Vec<T>
where
    T: Send + serde::Serialize + serde::Deserialize + SimMetrics,
{
    let Some(runner) = runner else {
        return Vec::new();
    };
    traced_campaign(recorder, span, || runner.run(batch))
}

/// Exit 0 when clean, 1 otherwise.
pub fn verdict(clean: bool) -> ExitCode {
    match clean {
        true => ExitCode::SUCCESS,
        false => ExitCode::FAILURE,
    }
}

/// Pretty JSON of a value tree (which always serializes).
pub fn pretty<T: serde::Serialize + ?Sized>(value: &T) -> String {
    serde_json::to_string_pretty(value).expect("value trees always serialize")
}

/// Writes `text` to `path` atomically, naming the path on failure.
pub fn write(path: &Path, text: &str) -> Result<(), String> {
    write_atomic(path, text).map_err(|e| format!("cannot write {}: {e}", path.display()))
}

/// Fails unless [`write()`] can later write `path`: creates its directory
/// the same way, then writes and removes a probe file beside it. Every
/// output path is probed before any work starts, so a bad path costs
/// no simulation.
pub fn writable(path: &Path) -> Result<(), String> {
    let probe = path.with_file_name(format!(".repro-{}.probe", std::process::id()));
    let probed = write_atomic(&probe, "").and_then(|()| std::fs::remove_file(&probe));
    probed.map_err(|e| format!("cannot write {}: {e}", path.display()))
}

/// Reads a whole file, naming the path on failure.
pub fn read(path: &Path) -> Result<String, String> {
    std::fs::read_to_string(path).map_err(|e| format!("cannot read {}: {e}", path.display()))
}
