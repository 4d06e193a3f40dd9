//! The default command: run experiments, print reports, optionally
//! persist telemetry, a trace log and a cycle profile. With
//! `--shards N` every job first warms a shared cache through N worker
//! processes (see `shard`), and the report and profile come from the
//! same path as a single-process run, answered from that cache.

use std::process::ExitCode;

use hetcore::suite::Experiment;
use hetsim_obs::stitch_traces;
use serde::Serialize as _;

use crate::args::{Args, Progress, CACHE_DIR, PROFILE_OUT, SHARDS, STATS_OUT, TRACE_OUT};
use crate::exec::{self, execute, pretty, resolve_target};
use crate::shard::{supervise_campaign, ShardDirs, ShardedCampaign};
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
    let profile_out = args.path(&PROFILE_OUT);
    let trace_out = args.path(&TRACE_OUT);
    let mut cache_dir = args.path(&CACHE_DIR);
    let mut progress = args.progress();

    // Sharded: workers and supervisor share one cache directory, an
    // ephemeral one unless --cache-dir named it. The workers warm it;
    // the pass below is then the unchanged single-process path,
    // answered entirely from the warm cache, so stdout and the stats
    // dump are byte-for-byte what `--jobs` alone produces. Progress
    // stays quiet there — the shard phase already narrated the batch.
    let dirs = match args.num(&SHARDS) {
        Some(shards) => {
            let dirs = ShardDirs::new(cache_dir.take(), "shard", shards)?;
            let campaign = ShardedCampaign {
                suite: &suite,
                requested: &requested,
                extensions: &extensions,
                jobs,
                progress,
                trace: trace_out.is_some(),
            };
            supervise_campaign(&campaign, &dirs)?;
            cache_dir = Some(dirs.cache.clone());
            progress = Progress::Quiet;
            Some(dirs)
        }
        None => None,
    };

    // The recorder exists only when a trace was requested; without it
    // the run takes exactly the untraced code path, so headline output
    // stays byte-identical.
    let recorder = trace_out.is_some().then(exec::recorder);
    let execution = execute(
        &suite,
        &requested,
        &extensions,
        jobs,
        cache_dir.as_deref(),
        progress,
        recorder.as_ref(),
    )?;
    let profile = &execution.profile;
    let mut dump = execution.dump;
    if profile_out.is_some() {
        dump = dump.with_profile(profile.to_value());
    }
    let reports = &execution.reports;
    match args.format() {
        "json" => println!("{}", pretty(&reports.to_vec())),
        "csv" => reports.iter().for_each(|r| println!("{}", r.to_csv())),
        _ => reports.iter().for_each(|r| println!("{r}")),
    }
    if let Some(path) = args.path(&STATS_OUT) {
        exec::write(&path, &dump.to_json())?;
        eprintln!("wrote counter telemetry to {}", path.display());
    }
    if let (Some(path), Some(recorder)) = (&trace_out, &recorder) {
        // Per-worker trace logs (sharded runs) plus this pass, stitched
        // onto disjoint track lanes; a lone log passes through as is.
        let mut inputs = dirs
            .as_ref()
            .map_or(Ok(Vec::new()), ShardDirs::worker_traces)?;
        inputs.push(recorder.events());
        let events = stitch_traces(inputs);
        let line = |e| serde_json::to_string(e).expect("value trees always serialize") + "\n";
        exec::write(path, &events.iter().map(line).collect::<String>())?;
        eprintln!(
            "wrote {} trace event(s) to {}{}",
            events.len(),
            path.display(),
            dirs.as_ref().map_or(String::new(), |d| format!(
                " (stitched from {} worker(s) + merge pass)",
                d.shards
            ))
        );
    }
    if let Some(path) = &profile_out {
        // Cold, warm or sharded: the runners folded every job's cached
        // observations, so the document is the same, and it is what
        // `repro profile --format json` prints.
        exec::write(path, &(pretty(&profile.to_value()) + "\n"))?;
        let units = profile.rows().len();
        eprintln!(
            "wrote cycle profile ({units} unit(s)) to {}",
            path.display()
        );
    }
    Ok(ExitCode::SUCCESS)
}
