//! `repro profile` — run campaign experiments (default: fig7 + fig10,
//! the CPU and GPU campaigns) with top-down cycle attribution enabled
//! and render the per-design roll-up, the raw `hetsim-profile-v1`
//! document, or folded stacks (see `hetsim_obs::profile`). The cache is
//! never consulted, so every job simulates and the document covers the
//! whole campaign; with `--shards N` the workers simulate and their
//! fragments merge, exactly like sharded trace logs stitch.

use std::process::ExitCode;

use hetcore::suite::{Experiment, Suite};
use hetsim_obs::profile::collector;
use hetsim_obs::CycleProfile;
use hetsim_stats::attribution::{self, ClassCounts, CycleClass};
use serde::Serialize as _;

use crate::args::{Args, Progress, COUNTERS_OUT, OUT, SHARDS};
use crate::exec::{self, execute, experiment, pretty};
use crate::shard::{supervise_campaign, ShardDirs, ShardedCampaign};
use crate::CliError;

pub fn run(mut args: Args) -> Result<ExitCode, CliError> {
    let words = std::mem::take(&mut args.positionals);
    let mut requested = args.parse_each(&words, experiment);
    args.valid()?;
    if requested.is_empty() {
        requested = vec![Experiment::Fig7, Experiment::Fig10];
    }
    let suite = args.suite();
    let jobs = args.jobs();

    attribution::set_enabled(true);
    let profile = match args.num(&SHARDS) {
        Some(shards) => {
            // The sharded path: workers simulate the cold shared cache
            // and write per-shard fragments; no merge pass is needed —
            // the fragments *are* the result.
            let dirs = ShardDirs::new(None, "profile", shards)?;
            let campaign = ShardedCampaign {
                suite: &suite,
                requested: &requested,
                jobs,
                progress: Progress::Quiet,
                trace: false,
                profile: true,
            };
            supervise_campaign(&campaign, &dirs)?;
            dirs.merged_profile()?
        }
        None => {
            // No cache directory: every job simulates, so the document
            // covers the whole campaign (a warm cache would replay
            // jobs without attributing anything).
            execute(&suite, &requested, &[], jobs, None, Progress::Quiet, None)?;
            collector::take()
        }
    };

    if let Some(path) = args.path(&COUNTERS_OUT) {
        exec::write(&path, &pretty(&profile.counter_track_doc()))?;
        eprintln!(
            "wrote Perfetto counter tracks to {} — load in Perfetto or chrome://tracing",
            path.display()
        );
    }
    let rendered = match args.format() {
        "json" => pretty(&profile.to_value()) + "\n",
        "folded" => profile.folded(),
        _ => render_table(&profile, &suite),
    };
    match args.path(&OUT) {
        Some(path) => {
            exec::write(&path, &rendered)?;
            eprintln!(
                "wrote cycle profile ({} unit(s)) to {}",
                profile.rows().len(),
                path.display()
            );
        }
        None => print!("{rendered}"),
    }
    Ok(ExitCode::SUCCESS)
}

/// The per-design roll-up: units merged per `(design, unit kind)` —
/// `core` and `cu` stay separate rows because CPU chips and GPU
/// designs share names — with total attributed cycles and each
/// top-down class as a percentage of them.
fn render_table(profile: &CycleProfile, suite: &Suite) -> String {
    use std::fmt::Write as _;
    let mut groups: Vec<(String, String, u64, u64, ClassCounts)> = Vec::new();
    for row in profile.rows() {
        let kind = row.unit.trim_end_matches(|c: char| c.is_ascii_digit());
        let kind = kind.to_string();
        match groups
            .iter_mut()
            .find(|(d, k, ..)| d == &row.design && k == &kind)
        {
            Some((_, _, units, cycles, classes)) => {
                *units += 1;
                *cycles += row.cycles;
                classes.merge(&row.classes);
            }
            None => groups.push((row.design.clone(), kind, 1, row.cycles, row.classes)),
        }
    }
    let mut out = String::new();
    let _ = writeln!(
        out,
        "profile: {} unit(s) across {} design row(s), --insts {}, seed {}",
        profile.rows().len(),
        groups.len(),
        suite.insts_per_app,
        suite.seed
    );
    let _ = write!(
        out,
        "{:<12} {:<5} {:>5} {:>14}",
        "design", "unit", "n", "cycles"
    );
    for class in CycleClass::ALL {
        let _ = write!(out, " {:>15}", class.name());
    }
    out.push('\n');
    for (design, kind, units, cycles, classes) in &groups {
        let _ = write!(out, "{design:<12} {kind:<5} {units:>5} {cycles:>14}");
        for class in CycleClass::ALL {
            let pct = if *cycles > 0 {
                100.0 * classes.get(class) as f64 / *cycles as f64
            } else {
                0.0
            };
            let _ = write!(out, " {:>14.1}%", pct);
        }
        out.push('\n');
    }
    out
}
