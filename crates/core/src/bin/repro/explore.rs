//! `repro explore` — design-space exploration over the fig7 grid: a
//! budget-capped Pareto-frontier search (see `hetcore::explore`).
//! Prints the frontier in the requested format; `--frontier-out PATH`
//! additionally writes the full frontier dump (unless `--format json`,
//! which already prints that dump on stdout).

use std::process::ExitCode;

use hetcore::explore::{
    explore, DesignSpace, ExploreConfig, DEFAULT_BUDGET, DEFAULT_EXPLORE_INSTS,
};
use hetsim_runner::narrate;

use crate::args::{Args, BUDGET, CACHE_DIR, FRONTIER_OUT, INSTS, SEED, SWEEP};
use crate::exec;
use crate::CliError;

pub fn run(mut args: Args) -> Result<ExitCode, CliError> {
    let mut space = DesignSpace::fig7();
    for sweep in args.texts(&SWEEP) {
        if let Err(e) = space.apply_sweep(&sweep) {
            args.error(e);
        }
    }
    if args.format() == "json" && args.has(&FRONTIER_OUT) {
        args.error(
            "--format json writes the frontier dump to stdout; it cannot be combined with \
             --frontier-out (pick one destination)",
        );
    }
    // Cross-axis constraints (DVFS reachability, ROB vs. issue width)
    // are validated with the sweeps applied, before anything runs.
    if let Err(e) = space.validate() {
        args.error(e);
    }
    args.valid()?;

    let cfg = ExploreConfig {
        budget: args.num(&BUDGET).unwrap_or(DEFAULT_BUDGET),
        seed: args.num(&SEED).unwrap_or(42),
        insts: args.num(&INSTS).unwrap_or(DEFAULT_EXPLORE_INSTS),
        jobs: args.jobs(),
        cache_dir: args.path(&CACHE_DIR),
    };
    let result = explore(&space, &cfg)?;
    if let Some(path) = args.path(&FRONTIER_OUT) {
        exec::write(&path, &result.to_json())?;
        narrate(&format!("wrote frontier dump to {}", path.display()));
    }
    exec::print(&match args.format() {
        "json" => result.to_json() + "\n",
        "csv" => result.frontier_report().to_csv(),
        _ => result.frontier_report().to_string(),
    })?;
    Ok(ExitCode::SUCCESS)
}
