//! The one execution path shared by the run, baseline, ci-gate, check
//! and profile commands, plus the output helpers they share.

use std::io::{IsTerminal, Write};
use std::path::Path;
use std::process::ExitCode;
use std::sync::Arc;

use hetcore::campaign::traced_campaign;
use hetcore::check::{
    perturbation_from_env, validate_cpu_outcome, validate_dump, validate_gpu_outcome,
};
use hetcore::report::Report;
use hetcore::suite::{CpuCampaign, Experiment, Extension, GpuCampaign, Suite};
use hetcore::telemetry::StatsDump;
use hetsim_check::Checker;
use hetsim_obs::{parse_jsonl, CycleProfile, MonotonicClock, TraceEvent, TraceRecorder};
use hetsim_runner::{
    narrate, write_atomic, DashboardSink, Job, NullSink, ProgressSink, Runner, SimMetrics,
    StderrSink,
};
use serde::Serialize as _;

use crate::args::Progress;

/// The progress sink for `mode`, honoring the dashboard's TTY degrade.
/// The dashboard reads `recorder`'s clock when tracing, so its rates
/// share the trace's timeline.
pub fn progress_sink(
    mode: Progress,
    recorder: Option<&Arc<TraceRecorder>>,
) -> Arc<dyn ProgressSink> {
    match mode {
        Progress::Quiet => Arc::new(NullSink),
        Progress::Dashboard if std::io::stderr().is_terminal() => {
            let clock = match recorder {
                Some(r) => r.clock(),
                None => Arc::new(MonotonicClock::new()),
            };
            Arc::new(DashboardSink::new(clock))
        }
        Progress::Stderr | Progress::Dashboard => Arc::new(StderrSink::new()),
    }
}

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

/// One figure-or-table word (no extensions).
pub fn experiment(word: &str) -> Result<Experiment, String> {
    Experiment::from_cli_name(word).ok_or_else(|| format!("unknown experiment '{word}'"))
}

/// Everything one run produces: the rendered reports, the complete
/// telemetry dump (campaign counters, runner stats, reports, run
/// config), ready to print, persist or diff, and the cycle profile both
/// runners folded from their jobs' observations, cold or warm.
pub struct Execution {
    pub reports: Vec<Report>,
    pub dump: StatsDump,
    pub profile: CycleProfile,
    /// The raw campaigns behind the reports, kept so `repro check` can
    /// validate every individual outcome (unused by the other commands).
    pub cpu: Option<CpuCampaign>,
    pub gpu: Option<GpuCampaign>,
}

/// A campaign runner on `jobs` workers, sharing `cache_dir`, reporting
/// to `sink` and, when tracing, to `recorder`.
pub fn runner<T>(
    jobs: usize,
    cache_dir: Option<&Path>,
    sink: &Arc<dyn ProgressSink>,
    recorder: Option<&Arc<TraceRecorder>>,
) -> Result<Runner<T>, String>
where
    T: Send + serde::Serialize + serde::Deserialize + SimMetrics,
{
    let mut runner = Runner::new(jobs);
    if let Some(dir) = cache_dir {
        runner = runner
            .with_cache_dir(dir)
            .map_err(|e| format!("cannot open cache directory: {e}"))?;
    }
    if let Some(rec) = recorder {
        runner = runner.with_recorder(rec.clone());
    }
    Ok(runner.with_sink(sink.clone()))
}

/// Runs `requested` + `extensions` on `suite` and collects the output.
/// This is the one execution path shared by the default command, the
/// baseline writer and the CI gate, so a replayed baseline is produced
/// by *exactly* the code a normal run uses.
pub fn execute(
    suite: &Suite,
    requested: &[Experiment],
    extensions: &[Extension],
    jobs: usize,
    cache_dir: Option<&Path>,
    progress: Progress,
    recorder: Option<&Arc<TraceRecorder>>,
) -> Result<Execution, String> {
    let sink = progress_sink(progress, recorder);

    // One CPU and one GPU batch: every simulation the requested targets
    // declare, deduplicated by key, so shared simulations run once. Both
    // runners share one cache directory: their key spaces are separated
    // by schema tags (see `hetcore::campaign`). Runners outlive their
    // batches: their cumulative stats feed the telemetry dump after the
    // reports are rendered.
    let plan = suite.plan(requested, extensions);
    let cpu_runner = (!plan.cpu.is_empty())
        .then(|| runner(jobs, cache_dir, &sink, recorder))
        .transpose()?;
    let gpu_runner = (!plan.gpu.is_empty())
        .then(|| runner(jobs, cache_dir, &sink, recorder))
        .transpose()?;
    let recorder = recorder.map(Arc::as_ref);
    let outcomes = plan.run(
        |batch| run_batch(cpu_runner.as_ref(), "CPU", batch, recorder),
        |batch| run_batch(gpu_runner.as_ref(), "GPU", batch, recorder),
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
        dump = dump
            .with_runner("cpu", r.total_stats())
            .with_runner_timing("cpu", r.total_timing());
        profile.merge(&r.total_observations().profile);
    }
    if let Some(r) = &gpu_runner {
        dump = dump
            .with_runner("gpu", r.total_stats())
            .with_runner_timing("gpu", r.total_timing());
        profile.merge(&r.total_observations().profile);
    }
    dump = dump.with_reports(&reports);
    let execution = Execution {
        reports,
        dump,
        profile,
        cpu,
        gpu,
    };
    // With HETSIM_CHECK set, every command that executes experiments
    // (run, baseline, ci-gate) also validates the outcomes and the
    // serialized telemetry against the accounting invariants — a run
    // that is internally inconsistent fails even if no baseline exists
    // to diff it against. Pure counter arithmetic: no simulation cost.
    if hetsim_check::CheckConfig::from_env().enabled() {
        let mut checker = Checker::new();
        validate_execution(&execution, &mut checker);
        if !checker.is_clean() {
            for v in checker.violations() {
                narrate(&v.to_string());
            }
            return Err(format!(
                "{} invariant violation(s) (HETSIM_CHECK)",
                checker.violations().len()
            ));
        }
    }
    Ok(execution)
}

/// Runs one of a plan's batches on its runner (an empty batch has none)
/// inside a `cpu-campaign`/`gpu-campaign` trace span.
fn run_batch<T>(
    runner: Option<&Runner<T>>,
    kind: &str,
    batch: Vec<Job<T>>,
    recorder: Option<&TraceRecorder>,
) -> Vec<T>
where
    T: Send + serde::Serialize + serde::Deserialize + SimMetrics,
{
    let Some(runner) = runner else {
        return Vec::new();
    };
    let workers = runner.workers();
    narrate(&format!(
        "running {} {kind} job(s) on {workers} worker(s)...",
        batch.len()
    ));
    let span = format!("{}-campaign", kind.to_lowercase());
    traced_campaign(recorder, &span, || runner.run(batch))
}

/// Validates every campaign outcome and the serialized telemetry of one
/// execution (shared by the HETSIM_CHECK hook above and `repro check`,
/// which also counts the checks and injects perturbations).
pub fn validate_execution(execution: &Execution, checker: &mut Checker) {
    let mut max_cores = 1;
    let mut apps = 1;
    if let Some(campaign) = &execution.cpu {
        apps = campaign.outcomes.len() as u64;
        checker.scoped("campaign", |c| {
            for outcome in campaign.outcomes.iter().flatten() {
                max_cores = max_cores.max(outcome.cores);
                validate_cpu_outcome(outcome, c);
            }
        });
    }
    if let Some(campaign) = &execution.gpu {
        checker.scoped("campaign", |c| {
            for outcome in campaign.outcomes.iter().flatten() {
                validate_gpu_outcome(outcome, c);
            }
        });
    }
    validate_dump(
        &execution.dump.to_value(),
        apps,
        max_cores,
        perturbation_from_env().as_deref(),
        checker,
    );
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

/// Reads a whole file, naming the path on failure.
pub fn read(path: &Path) -> Result<String, String> {
    std::fs::read_to_string(path).map_err(|e| format!("cannot read {}: {e}", path.display()))
}

/// Reads and parses one JSONL trace log.
pub fn read_trace(path: &Path) -> Result<Vec<TraceEvent>, String> {
    parse_jsonl(&read(path)?).map_err(|e| format!("{}: {e}", path.display()))
}
