//! The default command: run experiments, print reports, optionally
//! persist telemetry, a trace log and a cycle profile.

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use hetcore::suite::Experiment;
use hetsim_runner::narrate;
use serde::Serialize as _;

use crate::args::{Args, CACHE_DIR, PROFILE_OUT, PROGRESS, STATS_OUT, TRACE_OUT};
use crate::exec::{self, execute, pretty, resolve_target};
use crate::CliError;

pub fn run(mut args: Args) -> Result<ExitCode, CliError> {
    let words = std::mem::take(&mut args.positionals);
    let targets = args.parse_each(&words, resolve_target);
    args.valid()?;
    let (requested, extensions): (Vec<_>, Vec<_>) = targets.into_iter().unzip();
    let (mut requested, extensions) = (requested.concat(), extensions.concat());
    if (requested.is_empty() && extensions.is_empty()) || words.iter().any(|w| w == "all") {
        requested = Experiment::ALL.to_vec();
    }
    let suite = args.suite();
    let jobs = args.jobs();
    let stats_out = args.path(&STATS_OUT);
    let trace_out = args.path(&TRACE_OUT);
    let profile_out = args.path(&PROFILE_OUT);
    // Each output is its own file: a path two flags share would be
    // written twice, the last write silently replacing the first.
    let mut claimed: Vec<(&str, PathBuf)> = Vec::new();
    for (flag, path) in [
        (&STATS_OUT, &stats_out),
        (&TRACE_OUT, &trace_out),
        (&PROFILE_OUT, &profile_out),
    ] {
        let Some(path) = path else { continue };
        exec::writable(path)?;
        let file = resolved(path);
        if let Some((first, _)) = claimed.iter().find(|(_, other)| *other == file) {
            let path = path.display();
            return Err(format!("{first} and {} both name {path}", flag.name).into());
        }
        claimed.push((flag.name, file));
    }

    // The recorder exists only when a trace was requested; without it
    // the run takes exactly the untraced code path, so headline output
    // stays byte-identical.
    let recorder = trace_out.is_some().then(exec::recorder);
    let execution = execute(
        &suite,
        &requested,
        &extensions,
        jobs,
        args.path(&CACHE_DIR).as_deref(),
        args.has(&PROGRESS),
        recorder.as_ref(),
    )?;
    let reports = &execution.reports;
    let rendered: String = match args.format() {
        "json" => pretty(&reports.to_vec()) + "\n",
        "csv" => reports.iter().map(|r| r.to_csv() + "\n").collect(),
        _ => reports.iter().map(|r| format!("{r}\n")).collect(),
    };
    exec::print(&rendered)?;
    if let Some(path) = &stats_out {
        exec::write(path, &execution.dump.to_json())?;
        narrate(&format!("wrote counter telemetry to {}", path.display()));
    }
    if let (Some(path), Some(recorder)) = (&trace_out, &recorder) {
        let log = recorder.to_jsonl();
        exec::write(path, &log)?;
        narrate(&format!(
            "wrote {} trace event(s) to {}",
            log.lines().count(),
            path.display()
        ));
    }
    if let Some(path) = &profile_out {
        // Cold or warm: the runners folded every job's cached
        // observations, so the document is the same, and it is what
        // `repro profile` renders.
        let profile = &execution.profile;
        exec::write(path, &(pretty(&profile.to_value()) + "\n"))?;
        let units = profile.rows().len();
        narrate(&format!(
            "wrote cycle profile ({units} unit(s)) to {}",
            path.display()
        ));
    }
    Ok(ExitCode::SUCCESS)
}

/// The file `path` names once its directory exists: the directory
/// resolved, so `d/x.json` and `d/./x.json` are one file.
fn resolved(path: &Path) -> PathBuf {
    let dir = path.parent().filter(|d| !d.as_os_str().is_empty());
    let dir = std::fs::canonicalize(dir.unwrap_or(Path::new(".")));
    match (dir, path.file_name()) {
        (Ok(dir), Some(name)) => dir.join(name),
        _ => path.to_path_buf(),
    }
}
