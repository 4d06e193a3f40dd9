//! `repro check [--fuzz N] [--seed S]` — the runtime-invariant and
//! metamorphic-fuzz harness (see `hetcore::check`): rerun the fig7 +
//! fig10 campaigns validating every outcome and the serialized
//! telemetry against the accounting invariants, then run N seeded fuzz
//! rounds of random workloads asserting oracle-free metamorphic
//! relations; exit non-zero on any violation. With `--trace-in PATH` it
//! instead validates a trace file recorded by `repro --trace-out` (span
//! structure and job-finished/span matching; see
//! `hetsim_obs::validate_events`).

use std::path::Path;
use std::process::ExitCode;

use hetcore::check::fuzz_round;
use hetcore::suite::{Experiment, Suite};
use hetsim_check::Checker;
use hetsim_obs::{parse_jsonl, validate_events};
use hetsim_runner::narrate;
use serde::value::Value;
use serde::Serialize as _;

use crate::args::{Args, CACHE_DIR, FUZZ, INSTS, SEED, TRACE_IN};
use crate::baseline::DEFAULT_BASELINE_INSTS;
use crate::exec::{self, execute, pretty, validate_execution, verdict};
use crate::CliError;

/// The experiments the invariant phase sweeps: the two targets that
/// exercise both campaign engines (CPU and GPU).
const CHECK_TARGETS: [Experiment; 2] = [Experiment::Fig7, Experiment::Fig10];

/// Instruction budget of each metamorphic fuzz round (each round runs
/// the sampled workload several times, so this stays small).
const FUZZ_ROUND_INSTS: u64 = 3_000;

pub fn run(mut args: Args) -> Result<ExitCode, CliError> {
    if args.has(&TRACE_IN) {
        // Trace validation is a pure file check: the flags that shape
        // the campaign/fuzz phases have nothing to act on.
        args.reject_measuring("--trace-in validates an existing trace", &[]);
    }
    args.valid()?;
    if let Some(path) = args.path(&TRACE_IN) {
        return check_trace(&path, args.format());
    }
    let fuzz: u64 = args.num(&FUZZ).unwrap_or(8);
    let seed: u64 = args.num(&SEED).unwrap_or(42);
    let insts = args.num(&INSTS).unwrap_or(DEFAULT_BASELINE_INSTS);
    let suite = Suite {
        insts_per_app: insts,
        ..Suite::default()
    };

    // Phase 1: run the real campaigns once and validate every outcome
    // plus the serialized telemetry (where HETSIM_CHECK_PERTURB can
    // inject a fault to prove the layer fires).
    narrate(&format!(
        "[check] invariant sweep: fig7 + fig10 at --insts {insts}"
    ));
    let execution = execute(
        &suite,
        &CHECK_TARGETS,
        &[],
        args.jobs(),
        args.path(&CACHE_DIR).as_deref(),
        args.progress(),
        None,
    )?;
    let mut checker = Checker::new();
    validate_execution(&execution, &mut checker);

    // Phase 2: metamorphic fuzz rounds over random-but-legal workloads.
    narrate(&format!("[check] fuzzing {fuzz} round(s) from seed {seed}"));
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
