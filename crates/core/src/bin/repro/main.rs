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
//! `--json` is a shorthand for `--format json`. Independently,
//! `--stats-out PATH` writes the run's complete counter telemetry —
//! every per-design pipeline/memory/GPU counter plus the runner's
//! execution stats — as JSON to `PATH` (see `hetcore::telemetry`),
//! atomically and creating missing parent directories.
//!
//! The subcommands, one module each:
//!
//! * `baseline`, `diff` and `ci-gate` close the regression loop (see
//!   `hetcore::regression`): pin dumps, compare two, replay a
//!   directory of them — the CI job;
//! * `bench` is the pinned perf-measurement subsystem (see
//!   `hetcore::bench` and `hetsim_bench`);
//! * `check` is the runtime-invariant and metamorphic-fuzz harness (see
//!   `hetcore::check`);
//! * `explore` searches the fig7 design space for its Pareto frontier
//!   (see `hetcore::explore`);
//! * `profile` reports the campaigns' top-down cycle attribution (see
//!   `hetsim_obs::profile`), cold, warm or sharded alike;
//! * `trace-export` converts `--trace-out` logs for Perfetto;
//! * the hidden `shard-worker` is the worker half of `--shards N`.
//!
//! The campaigns run on the `hetsim-runner` engine: `--jobs N` sets the
//! worker-thread count (default: all available cores; output is
//! bit-identical for any `N`), `--cache-dir PATH` persists simulation
//! outcomes as content-addressed JSON so reruns are near-free, and
//! `--progress` narrates per-job completion and cache hits on stderr
//! (`--progress=dashboard` draws a live in-place dashboard on a TTY).
//! Tracing (`--trace-out`) and attribution (`--profile-out`) only add
//! output: reports on stdout are byte-identical with and without them.
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
mod shard;
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
            if !cmd.hidden {
                narrate(&args::usage());
            }
            ExitCode::FAILURE
        }
        Err(CliError::Failed(e)) => {
            narrate(&format!("error: {e}"));
            ExitCode::FAILURE
        }
    }
}
