//! `repro profile PROFILE.json` — render where a run's simulated cycles
//! went from the `hetsim-profile-v1` document that `repro --profile-out`
//! wrote (see `hetsim_obs::profile`): the per-design roll-up, folded
//! stacks or Perfetto counter tracks. It simulates nothing, so a cold,
//! warm, any-`--jobs` or extension run renders the same way.

use std::path::Path;
use std::process::ExitCode;

use hetsim_obs::CycleProfile;
use hetsim_stats::attribution::{ClassCounts, CycleClass};

use crate::args::Args;
use crate::exec::{self, pretty};
use crate::CliError;

pub fn run(mut args: Args) -> Result<ExitCode, CliError> {
    if args.positionals.len() != 1 {
        args.error(format!(
            "profile expects one PROFILE.json, got {} path(s)",
            args.positionals.len()
        ));
    }
    args.valid()?;
    let path = Path::new(&args.positionals[0]);
    let profile: CycleProfile =
        serde_json::from_str(&exec::read(path)?).map_err(|e| format!("{}: {e}", path.display()))?;
    exec::print(&match args.format() {
        "folded" => profile.folded(),
        "perfetto" => pretty(&profile.counter_track_doc()) + "\n",
        _ => render_table(&profile),
    })?;
    Ok(ExitCode::SUCCESS)
}

/// The per-design roll-up: units merged per `(design, unit kind)` —
/// `core` and `cu` stay separate rows because CPU chips and GPU
/// designs share names — with total attributed cycles and each
/// top-down class as a percentage of them. The design column is as
/// wide as the document's longest name, and never below 12.
fn render_table(profile: &CycleProfile) -> String {
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
    let width = groups
        .iter()
        .map(|(design, ..)| design.chars().count())
        .fold(12, usize::max);
    let mut out = String::new();
    let _ = writeln!(
        out,
        "profile: {} unit(s) across {} design row(s)",
        profile.rows().len(),
        groups.len(),
    );
    let _ = write!(
        out,
        "{:<width$} {:<5} {:>5} {:>14}",
        "design", "unit", "n", "cycles"
    );
    for class in CycleClass::ALL {
        let _ = write!(out, " {:>15}", class.name());
    }
    out.push('\n');
    for (design, kind, units, cycles, classes) in &groups {
        let _ = write!(out, "{design:<width$} {kind:<5} {units:>5} {cycles:>14}");
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
