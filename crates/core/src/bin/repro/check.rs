//! `repro check [--fuzz N] [--seed S]` — the metamorphic-fuzz harness
//! (see `hetcore::check`): run N seeded fuzz rounds of random workloads
//! with the simulators' in-loop checks on, asserting the accounting
//! invariants and oracle-free metamorphic relations; exit non-zero on
//! any violation. Real runs need no separate sweep: every executing
//! command validates its own outcomes and dump. With `--trace-in PATH`
//! it instead validates a trace file recorded by `repro --trace-out`
//! (span structure and job-finished/span matching; see
//! `hetsim_obs::validate_events`).

use std::path::Path;
use std::process::ExitCode;

use hetcore::check::fuzz_round;
use hetsim_check::Checker;
use hetsim_obs::{parse_jsonl, validate_events};
use hetsim_runner::narrate;
use serde::value::Value;
use serde::Serialize as _;

use crate::args::{Args, FUZZ, SEED, TRACE_IN};
use crate::exec::{self, pretty, verdict};
use crate::CliError;

/// Instruction budget of each metamorphic fuzz round (each round runs
/// the sampled workload several times, so this stays small).
const FUZZ_ROUND_INSTS: u64 = 3_000;

pub fn run(mut args: Args) -> Result<ExitCode, CliError> {
    if args.has(&TRACE_IN) {
        // Trace validation is a pure file check: the flags that shape
        // the fuzz rounds have nothing to act on.
        args.reject_measuring("--trace-in validates an existing trace", &[]);
    }
    args.valid()?;
    if let Some(path) = args.path(&TRACE_IN) {
        return check_trace(&path, args.format());
    }
    let fuzz: u64 = args.num(&FUZZ).unwrap_or(8);
    let seed: u64 = args.num(&SEED).unwrap_or(42);

    narrate(&format!("[check] fuzzing {fuzz} round(s) from seed {seed}"));
    let mut checker = Checker::new();
    for round in 0..fuzz {
        fuzz_round(seed.wrapping_add(round), FUZZ_ROUND_INSTS, &mut checker);
    }

    let checks = checker.checks_run();
    let violations = checker.into_violations();
    if args.format() == "json" {
        let list = violations.iter().map(|v| {
            Value::Object(vec![
                ("invariant".into(), Value::Str(v.invariant.to_string())),
                ("path".into(), Value::Str(v.path.clone())),
                ("expected".into(), Value::Str(v.expected.clone())),
                ("actual".into(), Value::Str(v.actual.clone())),
            ])
        });
        let value = Value::Object(vec![
            ("checks_run".into(), Value::UInt(checks)),
            ("fuzz_rounds".into(), Value::UInt(fuzz)),
            ("seed".into(), Value::UInt(seed)),
            ("violations".into(), Value::Array(list.collect())),
        ]);
        exec::print(&(pretty(&value) + "\n"))?;
    } else {
        let mut out: String = violations.iter().map(|v| format!("{v}\n")).collect();
        out += &format!(
            "repro check: {checks} checks, {} violation(s) ({fuzz} fuzz round(s), seed {seed})\n",
            violations.len()
        );
        exec::print(&out)?;
    }
    Ok(verdict(violations.is_empty()))
}

/// Validates a recorded trace file's structure; fails on any malformed
/// line or violated property.
fn check_trace(path: &Path, format: &str) -> Result<ExitCode, CliError> {
    let text = exec::read(path)?;
    let (events_seen, violations) = match parse_jsonl(&text) {
        Ok(events) => (events.len(), validate_events(&events)),
        // An unparsable file is itself the (single) finding.
        Err(e) => (0, vec![e]),
    };
    if format == "json" {
        let value = Value::Object(vec![
            ("trace".into(), Value::Str(path.display().to_string())),
            ("events".into(), Value::UInt(events_seen as u64)),
            ("violations".into(), violations.to_value()),
        ]);
        exec::print(&(pretty(&value) + "\n"))?;
    } else {
        let mut out: String = violations.iter().map(|v| format!("{v}\n")).collect();
        out += &format!(
            "repro check: trace {}: {events_seen} event(s), {} violation(s)\n",
            path.display(),
            violations.len()
        );
        exec::print(&out)?;
    }
    Ok(verdict(violations.is_empty()))
}
