//! `repro baseline DIR [TARGET]...` — rerun the pinned targets and write
//! one self-describing stats dump per target into `DIR` (see
//! `hetcore::regression`), without the host-timing histograms.

use std::path::PathBuf;
use std::process::ExitCode;

use hetcore::suite::Suite;
use hetsim_runner::narrate;

use crate::args::{Args, CACHE_DIR, INSTS};
use crate::exec::{self, execute, resolve_target};
use crate::CliError;

/// The targets `repro baseline` pins by default (and the CI gate
/// replays): the paper's headline CPU figures, the device-level
/// Figure 14, and the extension studies.
const DEFAULT_BASELINE_TARGETS: [&str; 4] = ["fig7", "fig8", "fig14", "ext"];

/// Instruction budget baselines are recorded at: small enough for CI,
/// matching the golden-test snapshots.
pub const DEFAULT_BASELINE_INSTS: u64 = 3_000;

pub fn run(mut args: Args) -> Result<ExitCode, CliError> {
    let mut positionals = std::mem::take(&mut args.positionals).into_iter();
    let dir = positionals.next().map(PathBuf::from);
    let mut targets: Vec<String> = positionals.collect();
    args.parse_each(&targets, resolve_target);
    if dir.is_none() {
        args.error("baseline requires an output directory");
    }
    args.valid()?;
    let dir = dir.expect("validated above");
    if targets.is_empty() {
        targets = DEFAULT_BASELINE_TARGETS.map(String::from).to_vec();
    }
    let suite = Suite {
        insts_per_app: args.num(&INSTS).unwrap_or(DEFAULT_BASELINE_INSTS),
        ..Suite::default()
    };
    let cache_dir = args.path(&CACHE_DIR);
    for target in &targets {
        let (requested, extensions) = resolve_target(target).expect("validated above");
        let execution = execute(
            &suite,
            &requested,
            &extensions,
            args.jobs(),
            cache_dir.as_deref(),
            args.progress(),
            None,
        )?;
        // The gate exempts `runner.*`, and host timing would make every
        // re-blessed baseline differ where the simulation did not.
        let dump = execution.dump.without_runner_timing();
        let path = dir.join(format!("{target}.json"));
        exec::write(&path, &dump.to_json())?;
        narrate(&format!("wrote baseline {}", path.display()));
    }
    Ok(ExitCode::SUCCESS)
}
