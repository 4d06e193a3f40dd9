//! Regenerates every table and figure of the paper's evaluation, and
//! gates reruns against pinned baselines.
//!
//! The usage text — printed after any argument error, `repro --help`
//! included — is rendered from the option table in `args.rs`, where
//! every flag and subcommand is declared. With no experiment arguments,
//! `repro` runs `all`. `--quick` shrinks the instruction budget for fast smoke
//! runs (CI); `--insts N` sets it exactly (and wins over `--quick`);
//! full runs use the default budget of `Suite::default()`.
//!
//! `--format` picks the report rendering: `table` (default) prints the
//! paper-shaped text tables, `json` emits one JSON array of report
//! objects, `csv` emits one CSV block per report (full precision).
//! Independently, `--stats-out PATH` writes the run's complete counter
//! telemetry — every per-design pipeline/memory/GPU counter plus the
//! runner's execution stats — as JSON to `PATH` (see
//! `hetcore::telemetry`), atomically. Every output path written after a
//! simulation has its directory created and is probed before the
//! simulation starts, so a path that cannot be written costs no work,
//! and a run whose output flags name one file between them is refused.
//!
//! The subcommands, one module each:
//!
//! * `baseline`, `diff` and `ci-gate` close the regression loop (see
//!   `hetcore::regression`): pin dumps, compare two, replay a
//!   directory of them — the CI job;
//! * `bench` is the pinned perf-measurement subsystem (see
//!   `hetcore::bench` and `hetsim_bench`);
//! * `check` runs the metamorphic fuzz rounds (see `hetcore::check`) or
//!   validates a `--trace-out` log;
//! * `explore` searches the fig7 design space for its Pareto frontier
//!   (see `hetcore::explore`);
//! * `profile` renders the top-down cycle attribution a run recorded
//!   with `--profile-out` (see `hetsim_obs::profile`) as a table,
//!   folded stacks or Perfetto counter tracks, simulating nothing;
//! * `trace-export` converts a `--trace-out` log for Perfetto.
//!
//! The campaigns run on the `hetsim-runner` engine: `--jobs N` sets the
//! worker-thread count (default: all available cores; output is
//! bit-identical for any `N`; it is the one way to run a campaign in
//! parallel), `--cache-dir PATH` persists simulation outcomes as
//! content-addressed JSON so reruns are near-free (a run killed midway
//! resumes from what it cached), and
//! `--progress` narrates per-job completion and cache hits on stderr,
//! one `[runner]` line per event.
//! Tracing (`--trace-out`) and attribution (`--profile-out`) only add
//! output: reports on stdout are byte-identical with and without them.
//! Every command that runs experiments (the default, `baseline` and
//! `ci-gate`) validates each outcome it simulated and its counter dump
//! against the accounting invariants, and fails with the violations on
//! stderr if any breaks.
//!
//! Arguments are validated up front: every unknown argument, flag
//! missing its value or bad value fails the run before any experiment
//! starts, no matter where it appears on the command line, and all of
//! them are reported together.

mod args;
mod baseline;
mod bench;
mod check;
mod ci_gate;
mod diff;
mod exec;
mod explore;
mod profile;
mod run;
mod trace_export;

use std::process::ExitCode;

use hetsim_runner::narrate;

/// Why a subcommand failed.
pub enum CliError {
    /// Bad arguments: every problem found, reported with the usage text.
    Usage(Vec<String>),
    /// A failure while running.
    Failed(String),
}

impl From<String> for CliError {
    fn from(e: String) -> Self {
        CliError::Failed(e)
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (cmd, rest) = args::command(&argv);
    match (cmd.run)(args::parse(cmd, rest)) {
        Ok(code) => code,
        Err(CliError::Usage(errors)) => {
            for e in errors {
                narrate(&format!("error: {e}"));
            }
            narrate(&args::usage());
            ExitCode::FAILURE
        }
        Err(CliError::Failed(e)) => {
            narrate(&format!("error: {e}"));
            ExitCode::FAILURE
        }
    }
}
