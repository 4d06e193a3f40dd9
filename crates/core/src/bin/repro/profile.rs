//! `repro profile` — run campaign experiments (default: fig7 + fig10,
//! the CPU and GPU campaigns) and render where their simulated cycles
//! went: the per-design roll-up, the raw `hetsim-profile-v1` document,
//! or folded stacks (see `hetsim_obs::profile`). The document is the
//! runners' fold of every job's observations, so with `--shards N` the
//! workers simulate and the warm replay below folds the same document.

use std::process::ExitCode;

use hetcore::suite::{Experiment, Suite};
use hetsim_obs::CycleProfile;
use hetsim_runner::narrate;
use hetsim_stats::attribution::{ClassCounts, CycleClass};
use serde::Serialize as _;

use crate::args::{Args, Progress, COUNTERS_OUT, OUT};
use crate::exec::{self, execute, experiment, pretty};
use crate::shard;
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

    // Sharded: the workers warm an ephemeral cache, and the pass below
    // replays it.
    let dirs = shard::warm(&args, &requested, &[])?;
    let cache_dir = dirs.as_ref().map(|d| d.cache.as_path());
    let execution = execute(
        &suite,
        &requested,
        &[],
        jobs,
        cache_dir,
        Progress::Quiet,
        None,
    )?;
    let profile = execution.profile;

    if let Some(path) = args.path(&COUNTERS_OUT) {
        exec::write(&path, &pretty(&profile.counter_track_doc()))?;
        narrate(&format!(
            "wrote Perfetto counter tracks to {} — load in Perfetto or chrome://tracing",
            path.display()
        ));
    }
    let rendered = match args.format() {
        "json" => pretty(&profile.to_value()) + "\n",
        "folded" => profile.folded(),
        _ => render_table(&profile, &suite),
    };
    match args.path(&OUT) {
        Some(path) => {
            exec::write(&path, &rendered)?;
            narrate(&format!(
                "wrote cycle profile ({} unit(s)) to {}",
                profile.rows().len(),
                path.display()
            ));
        }
        None => exec::print(&rendered)?,
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
