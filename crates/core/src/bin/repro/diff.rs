//! `repro diff BASELINE.json CANDIDATE.json` — compare two stats dumps
//! and exit non-zero on any regression, naming the design, counter,
//! delta and violated tolerance (see `hetcore::regression`).

use std::path::Path;
use std::process::ExitCode;

use hetcore::regression::{diff_dumps, DiffPolicy, DumpDoc};

use crate::args::{Args, ALLOW, ALLOW_SCHEMA_CHANGE, REL_TOL};
use crate::exec::{self, pretty, verdict};
use crate::CliError;

/// The diff policy `--rel-tol`, `--allow` and `--allow-schema-change`
/// describe (each defaulting to `DiffPolicy::default()`).
pub fn policy(args: &Args) -> DiffPolicy {
    let mut policy = DiffPolicy::default();
    if let Some(t) = args.num(&REL_TOL) {
        policy.rel_tol = t;
    }
    policy.allowed_counter_changes.extend(args.texts(&ALLOW));
    policy.allow_schema_change |= args.has(&ALLOW_SCHEMA_CHANGE);
    policy
}

pub fn run(mut args: Args) -> Result<ExitCode, CliError> {
    if args.positionals.len() != 2 {
        args.error(format!(
            "diff expects exactly two dump files, got {}",
            args.positionals.len()
        ));
    }
    args.valid()?;
    let base = DumpDoc::load(Path::new(&args.positionals[0]))?;
    let cand = DumpDoc::load(Path::new(&args.positionals[1]))?;
    let report = diff_dumps(&base, &cand, &policy(&args));
    exec::print(&match args.format() {
        "json" => pretty(&report) + "\n",
        "csv" => report.to_csv(),
        _ => report.to_table(),
    })?;
    Ok(verdict(report.is_clean()))
}
