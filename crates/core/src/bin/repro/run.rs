//! The default command: run experiments, print reports, optionally
//! persist telemetry, a trace log and a cycle profile. With
//! `--shards N` the campaigns first warm a shared cache through N
//! worker processes (see `shard`), and the report comes from the same
//! path as a single-process run, answered from that cache.

use std::process::ExitCode;

use hetcore::suite::Experiment;
use hetsim_obs::profile::collector;
use hetsim_obs::{stitch_traces, CycleProfile};
use hetsim_stats::attribution;
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
                jobs,
                progress,
                trace: trace_out.is_some(),
                profile: profile_out.is_some(),
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
    // stays byte-identical. Attribution is the same shape of opt-in:
    // the process-global flag stays off (and the simulators skip all
    // histogram work) unless --profile-out asked for it. On sharded
    // runs it stays on here too: campaign jobs replay from cache
    // (publishing nothing), but the inline extension studies simulate
    // in this process and their rows merge with the worker fragments.
    if profile_out.is_some() {
        attribution::set_enabled(true);
    }
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
    let mut profile = match (&profile_out, &dirs) {
        (None, _) => None,
        (Some(_), Some(dirs)) => Some(dirs.merged_profile()?),
        (Some(_), None) => Some(CycleProfile::new()),
    };
    let mut dump = execution.dump;
    if let Some(p) = &mut profile {
        // Drained exactly once per run; with profiling off the collector
        // was never touched and stays empty.
        p.merge(&collector::take());
        dump = dump.with_profile(p.to_value());
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
    if let (Some(path), Some(profile)) = (&profile_out, &profile) {
        // A warm-cache run legitimately yields an empty document (cache
        // replay skips simulation), so emptiness is reported, not failed.
        exec::write(path, &pretty(&profile.to_value()))?;
        let empty = match profile.is_empty() {
            true => " (empty: all jobs replayed from cache)",
            false => "",
        };
        let units = profile.rows().len();
        eprintln!(
            "wrote cycle profile ({units} unit(s)) to {}{empty}",
            path.display()
        );
    }
    Ok(ExitCode::SUCCESS)
}
