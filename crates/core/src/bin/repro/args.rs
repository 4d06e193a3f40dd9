//! The option table every `repro` subcommand shares.
//!
//! Each flag is defined once below, with its value's validator and
//! error text. Each [`Command`] lists the flags and positionals it
//! accepts; [`parse`] reads any command's argument list against its
//! entry, collecting *every* problem instead of stopping at the first,
//! and [`usage`] renders the usage text from the same table.
//!
//! Flags taking a value accept both `--flag VALUE` and `--flag=VALUE`;
//! a repeated flag's last value wins, except for [`Kind::List`] flags
//! (`--allow`, `--sweep`), which accumulate in order.

use std::path::PathBuf;
use std::process::ExitCode;

use hetcore::bench::QUICK_INSTS;
use hetcore::suite::{Experiment, Extension, Suite, TWOX_CORES};

use crate::{baseline, CliError};
use crate::{bench, check, ci_gate, diff, explore, profile, run, trace_export};

/// How a flag's value is read and validated.
#[derive(Clone, Copy)]
enum Kind {
    /// Presence only; takes no value.
    Switch,
    /// An integer `>= min`, no larger than `max`.
    Int { min: u64, max: u64 },
    /// A finite number `>= 0`.
    Tolerance,
    /// One of the command's report formats (see [`Command::formats`]).
    Format,
    /// Free text (a path, a prefix, a sweep spec), checked by the
    /// subcommand that reads it.
    Text,
    /// Free text that may repeat, every occurrence counting.
    List,
}

/// One command-line flag.
pub struct Flag {
    /// `--name`.
    pub name: &'static str,
    /// The value's placeholder in the usage text.
    meta: &'static str,
    /// How the value is read.
    kind: Kind,
}

impl Flag {
    const fn switch(name: &'static str) -> Flag {
        Flag::new(name, "", Kind::Switch)
    }

    const fn int(name: &'static str, meta: &'static str, min: u64, max: u64) -> Flag {
        Flag::new(name, meta, Kind::Int { min, max })
    }

    const fn text(name: &'static str, meta: &'static str) -> Flag {
        Flag::new(name, meta, Kind::Text)
    }

    const fn new(name: &'static str, meta: &'static str, kind: Kind) -> Flag {
        Flag { name, meta, kind }
    }
}

const U32: u64 = u32::MAX as u64;
const USIZE: u64 = usize::MAX as u64;

// Run shape.
pub static QUICK: Flag = Flag::switch("--quick");
// A chip shares its parallel budget evenly among its cores, so a budget
// below the largest chip's core count can leave a chip with no work.
pub static INSTS: Flag = Flag::int("--insts", "N", TWOX_CORES as u64, u64::MAX);
pub static SEED: Flag = Flag::int("--seed", "S", 0, u64::MAX);
pub static JOBS: Flag = Flag::int("--jobs", "N", 1, USIZE);
pub static CACHE_DIR: Flag = Flag::text("--cache-dir", "PATH");
pub static PROGRESS: Flag = Flag::switch("--progress");
// Output.
pub static FORMAT: Flag = Flag::new("--format", "", Kind::Format);
pub static STATS_OUT: Flag = Flag::text("--stats-out", "PATH");
pub static TRACE_OUT: Flag = Flag::text("--trace-out", "PATH");
pub static PROFILE_OUT: Flag = Flag::text("--profile-out", "PATH");
pub static OUT: Flag = Flag::text("--out", "PATH");
pub static FRONTIER_OUT: Flag = Flag::text("--frontier-out", "PATH");
// Regression diffs.
pub static BASELINE: Flag = Flag::text("--baseline", "DIR");
pub static REL_TOL: Flag = Flag::new("--rel-tol", "X", Kind::Tolerance);
pub static ALLOW: Flag = Flag::new("--allow", "PREFIX", Kind::List);
pub static ALLOW_SCHEMA_CHANGE: Flag = Flag::switch("--allow-schema-change");
// check.
pub static FUZZ: Flag = Flag::int("--fuzz", "N", 1, u64::MAX);
pub static TRACE_IN: Flag = Flag::text("--trace-in", "PATH");
// bench.
pub static WARMUP: Flag = Flag::int("--warmup", "N", 0, U32);
pub static REPEATS: Flag = Flag::int("--repeats", "N", 1, U32);
pub static COMPARE: Flag = Flag::text("--compare", "BASELINE.json");
pub static RATCHET: Flag = Flag::switch("--ratchet");
pub static TREND: Flag = Flag::switch("--trend");
// explore.
pub static BUDGET: Flag = Flag::int("--budget", "N", 1, USIZE);
pub static SWEEP: Flag = Flag::new("--sweep", "AXIS=V1,V2...", Kind::List);

/// The formats most commands render reports in.
const REPORT_FORMATS: &[&str] = &["table", "json", "csv"];

/// One subcommand's entry in the table.
pub struct Command {
    /// The subcommand word; empty for the default (run) command.
    name: &'static str,
    /// Every flag it accepts.
    flags: &'static [&'static Flag],
    /// The flags it cannot run without.
    required: &'static [&'static Flag],
    /// Usage of its positional arguments; empty when it takes none.
    positionals: &'static str,
    /// The `--format` values it renders.
    formats: &'static [&'static str],
    /// The flags only a measuring run reads: its read-only modes
    /// reject them (see [`Args::reject_measuring`]).
    measuring: &'static [&'static Flag],
    /// Runs the command on its parsed arguments.
    pub run: fn(Args) -> Result<ExitCode, CliError>,
}

const DEFAULT: Command = Command {
    name: "",
    flags: &[],
    required: &[],
    positionals: "",
    formats: REPORT_FORMATS,
    measuring: &[],
    run: run::run,
};

/// Every command, in usage order; the first is the default.
pub static COMMANDS: &[Command] = &[
    Command {
        flags: &[
            &QUICK,
            &INSTS,
            &FORMAT,
            &STATS_OUT,
            &TRACE_OUT,
            &PROFILE_OUT,
            &JOBS,
            &CACHE_DIR,
            &PROGRESS,
        ],
        positionals: "[EXPERIMENT]...",
        ..DEFAULT
    },
    Command {
        name: "baseline",
        flags: &[&INSTS, &JOBS, &CACHE_DIR, &PROGRESS],
        positionals: "DIR [TARGET]...",
        run: baseline::run,
        ..DEFAULT
    },
    Command {
        name: "diff",
        flags: &[&FORMAT, &REL_TOL, &ALLOW, &ALLOW_SCHEMA_CHANGE],
        positionals: "BASELINE.json CANDIDATE.json",
        run: diff::run,
        ..DEFAULT
    },
    Command {
        name: "ci-gate",
        flags: &[&BASELINE, &JOBS, &CACHE_DIR, &REL_TOL, &PROGRESS],
        required: &[&BASELINE],
        run: ci_gate::run,
        ..DEFAULT
    },
    Command {
        name: "check",
        flags: &[&FUZZ, &SEED, &FORMAT, &TRACE_IN],
        formats: &["table", "json"],
        measuring: &[&FUZZ, &SEED],
        run: check::run,
        ..DEFAULT
    },
    Command {
        name: "bench",
        flags: &[
            &QUICK, &INSTS, &SEED, &WARMUP, &REPEATS, &JOBS, &OUT, &FORMAT, &TREND, &COMPARE,
            &REL_TOL, &RATCHET,
        ],
        positionals: "[CANDIDATE.json]",
        formats: &["table", "json"],
        measuring: &[&QUICK, &INSTS, &SEED, &WARMUP, &REPEATS, &JOBS, &OUT],
        run: bench::run,
        ..DEFAULT
    },
    Command {
        name: "profile",
        flags: &[&FORMAT],
        positionals: "PROFILE.json",
        formats: &["table", "folded", "perfetto"],
        run: profile::run,
        ..DEFAULT
    },
    Command {
        name: "explore",
        flags: &[
            &BUDGET,
            &SEED,
            &INSTS,
            &JOBS,
            &CACHE_DIR,
            &SWEEP,
            &FORMAT,
            &FRONTIER_OUT,
        ],
        run: explore::run,
        ..DEFAULT
    },
    Command {
        name: "trace-export",
        positionals: "IN.jsonl OUT.json",
        run: trace_export::run,
        ..DEFAULT
    },
];

/// The command `args` names, and the arguments that follow its word.
pub fn command(args: &[String]) -> (&'static Command, &[String]) {
    let named = |c: &&Command| args.first().is_some_and(|word| *word == c.name);
    match COMMANDS[1..].iter().find(named) {
        Some(cmd) => (cmd, &args[1..]),
        None => (&COMMANDS[0], args),
    }
}

/// One command's parsed arguments, plus every problem found so far.
pub struct Args {
    cmd: &'static Command,
    /// Validated `(flag name, value)` pairs in command-line order
    /// (switches record an empty value).
    values: Vec<(&'static str, String)>,
    /// The positional arguments, in order.
    pub positionals: Vec<String>,
    errors: Vec<String>,
}

/// Parses `args` against `cmd`'s entry in the table. Errors are
/// collected, not returned: the subcommand adds its own cross-argument
/// checks, then [`Args::valid`] fails with all of them at once.
pub fn parse(cmd: &'static Command, args: &[String]) -> Args {
    let mut out = Args {
        cmd,
        values: Vec::new(),
        positionals: Vec::new(),
        errors: Vec::new(),
    };
    let mut rest = args.iter();
    while let Some(arg) = rest.next() {
        let (name, inline) = match arg.split_once('=') {
            Some((n, v)) if n.starts_with("--") => (n, Some(v)),
            _ => (arg.as_str(), None),
        };
        let Some(flag) = cmd.flags.iter().find(|f| f.name == name) else {
            if cmd.positionals.is_empty() {
                out.error(format!("unknown argument '{name}'"));
            } else if name.starts_with("--") {
                out.error(format!("unknown flag '{name}'"));
            } else {
                out.positionals.push(arg.clone());
            }
            continue;
        };
        let value = match (flag.kind, inline) {
            (Kind::Switch, None) => String::new(),
            (Kind::Switch, Some(v)) => {
                out.error(format!("{name} takes no value, got '{v}'"));
                continue;
            }
            (_, Some(v)) => v.to_string(),
            (_, None) => match rest.next() {
                Some(v) => v.clone(),
                None => {
                    out.error(format!("{name} requires a value"));
                    continue;
                }
            },
        };
        match validate(cmd, flag, &value) {
            Ok(()) => out.values.push((flag.name, value)),
            Err(e) => out.error(e),
        }
    }
    for flag in cmd.required {
        if !out.has(flag) {
            out.error(format!("{} requires {} {}", cmd.name, flag.name, flag.meta));
        }
    }
    out
}

/// Checks one flag value against its kind.
fn validate(cmd: &Command, flag: &Flag, v: &str) -> Result<(), String> {
    let (ok, expects) = match flag.kind {
        Kind::Int { min, max } => (
            v.parse::<u64>().is_ok_and(|n| (min..=max).contains(&n)),
            match min {
                0 => "an integer".to_string(),
                min => format!("an integer >= {min}"),
            },
        ),
        Kind::Tolerance => (
            v.parse::<f64>().is_ok_and(|t| t >= 0.0 && t.is_finite()),
            "a number >= 0".to_string(),
        ),
        Kind::Format => {
            // A command rendering part of the report formats still names
            // all of them, then says which it supports.
            let family = match cmd.formats.iter().all(|f| REPORT_FORMATS.contains(f)) {
                true => REPORT_FORMATS,
                false => cmd.formats,
            };
            if family.contains(&v) && !cmd.formats.contains(&v) {
                return Err(format!(
                    "{} supports --format {}",
                    cmd.name,
                    one_of(cmd.formats)
                ));
            }
            (family.contains(&v), one_of(family))
        }
        Kind::Switch | Kind::Text | Kind::List => (true, String::new()),
    };
    match ok {
        true => Ok(()),
        false => Err(format!("{} expects {expects}, got '{v}'", flag.name)),
    }
}

/// `n`, a setting read from a file rather than the command line, if
/// integer `flag` accepts it: a replay runs only what the command line
/// would. The error names `field`, where the file keeps the setting.
pub fn bounded(flag: &Flag, field: &str, n: u64) -> Result<u64, String> {
    // An integer flag's check reads nothing of the command.
    validate(&DEFAULT, flag, &n.to_string())
        .map(|()| n)
        .map_err(|e| format!("`{field}` is out of range: {e}"))
}

/// `a`, `a or b`, `a, b or c`.
fn one_of(words: &[&str]) -> String {
    match words {
        [init @ .., last] if !init.is_empty() => format!("{} or {last}", init.join(", ")),
        _ => words.join(""),
    }
}

impl Args {
    /// Whether `flag` was given.
    pub fn has(&self, flag: &Flag) -> bool {
        self.text(flag).is_some()
    }

    /// A flag's value; the last one wins.
    pub fn text(&self, flag: &Flag) -> Option<&str> {
        let mut given = self.values.iter().rev();
        given
            .find(|(name, _)| *name == flag.name)
            .map(|(_, v)| v.as_str())
    }

    /// A numeric flag's value (the table validated that it parses).
    pub fn num<T: std::str::FromStr>(&self, flag: &Flag) -> Option<T> {
        self.text(flag).map(|v| v.parse().ok().expect("validated"))
    }

    /// A flag's value, as a path.
    pub fn path(&self, flag: &Flag) -> Option<PathBuf> {
        self.text(flag).map(PathBuf::from)
    }

    /// Every value of a repeatable flag, in order.
    pub fn texts(&self, flag: &Flag) -> Vec<String> {
        let given = self.values.iter().filter(|(name, _)| *name == flag.name);
        given.map(|(_, v)| v.clone()).collect()
    }

    /// The suite `--quick`, `--insts` and `--seed` describe, each
    /// defaulting to `Suite::default()`; an explicit `--insts` wins over
    /// `--quick` wherever it appears.
    pub fn suite(&self) -> Suite {
        let mut suite = Suite::default();
        if self.has(&QUICK) {
            suite.insts_per_app = QUICK_INSTS;
        }
        if let Some(n) = self.num(&INSTS) {
            suite.insts_per_app = n;
        }
        if let Some(s) = self.num(&SEED) {
            suite.seed = s;
        }
        suite
    }

    /// `--jobs`, defaulting to every available core.
    pub fn jobs(&self) -> usize {
        self.num(&JOBS)
            .unwrap_or_else(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
    }

    /// `--format`, defaulting to `table`.
    pub fn format(&self) -> &str {
        self.text(&FORMAT).unwrap_or("table")
    }

    /// Records an argument error.
    pub fn error(&mut self, e: impl Into<String>) {
        self.errors.push(e.into());
    }

    /// Each of `words` read by `parse`; failures become argument errors.
    pub fn parse_each<T>(
        &mut self,
        words: &[String],
        parse: impl Fn(&str) -> Result<T, String>,
    ) -> Vec<T> {
        let parsed = words.iter().map(|word| parse(word));
        parsed
            .filter_map(|r| r.map_err(|e| self.error(e)).ok())
            .collect()
    }

    /// In a mode that only reads existing files (`mode` says which and
    /// why), rejects every given flag that only a measuring run reads,
    /// plus any of `also`.
    pub fn reject_measuring(&mut self, mode: &str, also: &[&Flag]) {
        let measuring = self.cmd.measuring.iter().chain(also);
        let given: Vec<&str> = measuring.filter(|f| self.has(f)).map(|f| f.name).collect();
        if !given.is_empty() {
            self.error(format!(
                "{mode}; it cannot be combined with {}",
                one_of(&given)
            ));
        }
    }

    /// Fails with every error collected so far.
    pub fn valid(&mut self) -> Result<(), CliError> {
        match self.errors.is_empty() {
            true => Ok(()),
            false => Err(CliError::Usage(std::mem::take(&mut self.errors))),
        }
    }
}

/// The usage text, rendered from [`COMMANDS`].
pub fn usage() -> String {
    let mut lines = Vec::new();
    for cmd in COMMANDS {
        let mut line = format!("repro {}", cmd.name).trim_end().to_string();
        for flag in cmd.flags {
            let spelled = match flag.kind {
                Kind::Switch => flag.name.to_string(),
                Kind::Format => format!("{} {}", flag.name, cmd.formats.join("|")),
                _ => format!("{} {}", flag.name, flag.meta),
            };
            line += &match flag.kind {
                _ if cmd.required.iter().any(|r| r.name == flag.name) => format!(" {spelled}"),
                Kind::List => format!(" [{spelled}]..."),
                _ => format!(" [{spelled}]"),
            };
        }
        if !cmd.positionals.is_empty() {
            line += &format!(" {}", cmd.positionals);
        }
        lines.push(line);
    }
    let names = |words: Vec<&str>| words.join(", ");
    format!(
        "usage: {}\nexperiments: all, ext, {}\nextensions:  {}",
        lines.join("\n       "),
        names(Experiment::ALL.iter().map(|e| e.cli_name()).collect()),
        names(Extension::ALL.iter().map(|e| e.cli_name()).collect()),
    )
}
