//! The one execution path shared by the run, baseline, ci-gate, check
//! and profile commands, plus the output helpers they share.

use std::io::IsTerminal;
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
use hetsim_obs::{parse_jsonl, MonotonicClock, TraceEvent, TraceRecorder};
use hetsim_runner::{
    write_atomic, DashboardSink, MultiSink, NullSink, ProgressSink, Runner, SimMetrics, StderrSink,
    TraceEventSink,
};
use serde::Serialize as _;

use crate::args::Progress;

/// The progress sink for `mode` (+ a trace-event bridge when tracing),
/// honoring the dashboard's TTY degrade.
pub fn progress_sink(
    mode: Progress,
    recorder: Option<&Arc<TraceRecorder>>,
) -> Arc<dyn ProgressSink> {
    let mut sinks: Vec<Arc<dyn ProgressSink>> = Vec::new();
    match mode {
        Progress::Quiet => {}
        Progress::Dashboard if std::io::stderr().is_terminal() => {
            let clock = match recorder {
                Some(r) => r.clock(),
                None => Arc::new(MonotonicClock::new()),
            };
            sinks.push(Arc::new(DashboardSink::new(clock)));
        }
        Progress::Stderr | Progress::Dashboard => sinks.push(Arc::new(StderrSink::new())),
    }
    if let Some(recorder) = recorder {
        sinks.push(Arc::new(TraceEventSink::new(recorder.clone())));
    }
    match sinks.len() {
        0 => Arc::new(NullSink),
        1 => sinks.pop().expect("one sink"),
        _ => Arc::new(MultiSink::new(sinks)),
    }
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

/// Which campaigns (CPU, GPU) `requested` needs. The rest compute
/// inline and need no runner.
pub fn campaign_needs(requested: &[Experiment]) -> (bool, bool) {
    use Experiment::*;
    let cpu = requested
        .iter()
        .any(|e| matches!(e, Fig7 | Fig8 | Fig9 | Fig13));
    let gpu = requested.iter().any(|e| matches!(e, Fig10 | Fig11 | Fig12));
    (cpu, gpu)
}

/// Everything one run produces: the rendered reports plus the complete
/// telemetry dump (campaign counters, runner stats, reports, run
/// config), ready to print, persist or diff.
pub struct Execution {
    pub reports: Vec<Report>,
    pub dump: StatsDump,
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
    T: Clone + Send + serde::Serialize + serde::Deserialize + SimMetrics,
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

    // Share campaigns across the figures that need them. CPU and GPU
    // campaigns share one cache directory: their key spaces are
    // separated by schema tags (see `hetcore::campaign`). Runners
    // outlive their campaigns: their cumulative stats feed the
    // telemetry dump after the reports are rendered.
    let (needs_cpu, needs_gpu) = campaign_needs(requested);
    let cpu_runner = needs_cpu
        .then(|| runner(jobs, cache_dir, &sink, recorder))
        .transpose()?;
    let gpu_runner = needs_gpu
        .then(|| runner(jobs, cache_dir, &sink, recorder))
        .transpose()?;
    // Zero the event-driven-step telemetry so the skip counters in this
    // dump cover exactly this execution (the atomics are process-global
    // and otherwise accumulate across runs in one process).
    hetsim_cpu::telemetry::reset();
    hetsim_gpu::telemetry::reset();
    let recorder_ref = recorder.map(Arc::as_ref);
    let cpu = cpu_runner.as_ref().map(|r| {
        eprintln!("running CPU campaign (11 chips x 14 applications, {jobs} worker(s))...");
        traced_campaign(recorder_ref, "cpu-campaign", || suite.cpu_campaign_with(r))
    });
    let gpu = gpu_runner.as_ref().map(|r| {
        eprintln!("running GPU campaign (5 designs x 20 kernels, {jobs} worker(s))...");
        traced_campaign(recorder_ref, "gpu-campaign", || suite.gpu_campaign_with(r))
    });

    let cpu_ref = || cpu.as_ref().expect("campaign ran");
    let gpu_ref = || gpu.as_ref().expect("campaign ran");
    let mut reports = Vec::new();
    for e in requested {
        reports.push(match e {
            Experiment::Table1 => suite.table1(),
            Experiment::Fig1 => suite.fig1(),
            Experiment::Fig2 => suite.fig2(),
            Experiment::Fig3 => suite.fig3(),
            Experiment::Fig7 => suite.fig7(cpu_ref()),
            Experiment::Fig8 => suite.fig8(cpu_ref()),
            Experiment::Fig9 => suite.fig9(cpu_ref()),
            Experiment::Fig10 => suite.fig10(gpu_ref()),
            Experiment::Fig11 => suite.fig11(gpu_ref()),
            Experiment::Fig12 => suite.fig12(gpu_ref()),
            Experiment::Fig13 => suite.fig13(cpu_ref()),
            Experiment::Fig14 => suite.fig14(),
        });
        if *e == Experiment::Fig8 {
            // The stacked-bar detail of Figure 8.
            reports.push(suite.fig8_breakdown(cpu_ref()));
        }
    }
    for e in extensions {
        reports.push(match e {
            Extension::Migration => suite.ext_migration(),
            Extension::PartitionedRf => suite.ext_partitioned_rf(),
            Extension::Scheduling => suite.ext_scheduling(),
        });
    }

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
    if let Some(r) = &cpu_runner {
        // Fold the event-driven core's skip totals into the (already
        // regression-exempt) timing section.
        let mut timing = r.total_timing();
        timing.skipped_cycles = hetsim_cpu::telemetry::skipped_cycles();
        timing.wakeup_jumps = hetsim_cpu::telemetry::wakeup_jumps();
        dump = dump
            .with_runner("cpu", r.total_stats())
            .with_runner_timing("cpu", timing);
    }
    if let Some(r) = &gpu_runner {
        let mut timing = r.total_timing();
        timing.skipped_cycles = hetsim_gpu::telemetry::skipped_cycles();
        timing.wakeup_jumps = hetsim_gpu::telemetry::wakeup_jumps();
        dump = dump
            .with_runner("gpu", r.total_stats())
            .with_runner_timing("gpu", timing);
    }
    dump = dump.with_reports(&reports);
    let execution = Execution {
        reports,
        dump,
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
                eprintln!("{v}");
            }
            return Err(format!(
                "{} invariant violation(s) (HETSIM_CHECK)",
                checker.violations().len()
            ));
        }
    }
    Ok(execution)
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
