//! Argument-validation tests for the `repro` subcommands: bad flags must
//! be rejected up front — before any simulation starts — with a named
//! error on stderr, the usage text, and a non-zero exit.

use std::process::{Command, Output};

fn repro(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(args)
        .output()
        .expect("repro runs")
}

/// Asserts the invocation is rejected with `expected` somewhere in the
/// error output (plus the usage text) — and fast, proving nothing ran.
fn assert_rejected(args: &[&str], expected: &str) {
    let out = repro(args);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        !out.status.success(),
        "{args:?} must exit non-zero; stderr: {stderr}"
    );
    assert!(
        stderr.contains(expected),
        "{args:?}: expected error containing '{expected}', got: {stderr}"
    );
    assert!(stderr.contains("usage: repro"), "usage follows the error");
}

#[test]
fn check_rejects_zero_fuzz_rounds() {
    assert_rejected(
        &["check", "--fuzz", "0"],
        "--fuzz expects an integer >= 1, got '0'",
    );
}

#[test]
fn check_rejects_non_numeric_fuzz_and_seed() {
    assert_rejected(
        &["check", "--fuzz", "lots"],
        "--fuzz expects an integer >= 1, got 'lots'",
    );
    assert_rejected(
        &["check", "--seed", "0x2a"],
        "--seed expects an integer, got '0x2a'",
    );
}

#[test]
fn check_rejects_unknown_format_and_csv() {
    assert_rejected(
        &["check", "--format", "yaml"],
        "--format expects table, json or csv, got 'yaml'",
    );
    // csv is a valid repro format but check does not render it.
    assert_rejected(
        &["check", "--format", "csv"],
        "check supports --format table or json",
    );
}

#[test]
fn check_rejects_unknown_arguments_and_missing_values() {
    assert_rejected(&["check", "--verbose"], "unknown argument '--verbose'");
    assert_rejected(&["check", "fig7"], "unknown argument 'fig7'");
    assert_rejected(&["check", "--seed"], "--seed requires a value");
}

#[test]
fn check_collects_every_error_not_just_the_first() {
    let out = repro(&["check", "--fuzz", "0", "--format", "yaml", "--bogus"]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!out.status.success());
    for expected in [
        "--fuzz expects an integer >= 1",
        "--format expects table, json or csv",
        "unknown argument '--bogus'",
    ] {
        assert!(stderr.contains(expected), "missing '{expected}': {stderr}");
    }
}

#[test]
fn run_rejects_bad_progress_and_missing_trace_out_value() {
    assert_rejected(
        &["--progress=bogus", "fig7"],
        "--progress expects stderr or dashboard, got 'bogus'",
    );
    assert_rejected(&["fig7", "--trace-out"], "--trace-out requires a value");
}

#[test]
fn check_rejects_trace_in_combined_with_campaign_flags() {
    assert_rejected(
        &["check", "--trace-in", "t.jsonl", "--fuzz", "2"],
        "--trace-in validates an existing trace; it cannot be combined with",
    );
}

#[test]
fn check_fails_cleanly_on_missing_trace_file() {
    let out = repro(&["check", "--trace-in", "/nonexistent/t.jsonl"]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!out.status.success());
    assert!(
        stderr.contains("error:") && stderr.contains("/nonexistent/t.jsonl"),
        "names the unreadable file: {stderr}"
    );
}

#[test]
fn trace_export_rejects_wrong_path_count_and_unknown_flags() {
    // At least one input and the output are required; more inputs are
    // fine (per-worker traces of a sharded run stitch before export).
    assert_rejected(
        &["trace-export", "only-in.jsonl"],
        "trace-export expects IN.jsonl [IN2.jsonl]... and OUT.json, got 1 path(s)",
    );
    assert_rejected(
        &["trace-export"],
        "trace-export expects IN.jsonl [IN2.jsonl]... and OUT.json, got 0 path(s)",
    );
    assert_rejected(
        &["trace-export", "--wat", "a.jsonl", "b.json"],
        "unknown flag '--wat'",
    );
}

#[test]
fn explore_rejects_zero_budget_and_bad_counts() {
    assert_rejected(
        &["explore", "--budget", "0"],
        "--budget expects an integer >= 1, got '0'",
    );
    // Worker processes are the campaign runs' knob; a search scales
    // with --jobs.
    assert_rejected(&["explore", "--shards", "2"], "unknown argument '--shards'");
    assert_rejected(
        &["explore", "--insts", "many"],
        "--insts expects an integer >= 1, got 'many'",
    );
}

#[test]
fn explore_rejects_conflicting_output_destinations() {
    // --format json already streams the dump to stdout; adding a file
    // destination would silently pick one. Refuse instead.
    assert_rejected(
        &["explore", "--format", "json", "--frontier-out", "f.json"],
        "--format json writes the frontier dump to stdout; it cannot be combined with",
    );
}

#[test]
fn explore_rejects_unknown_sweep_axes_and_values() {
    assert_rejected(
        &["explore", "--sweep", "depth=5"],
        "--sweep axis 'depth' is not in the fig7 design space (axes: design, cores, vdd, rob)",
    );
    assert_rejected(
        &["explore", "--sweep", "design=Imaginary"],
        "--sweep design value 'Imaginary' is not a Table IV design",
    );
    assert_rejected(
        &["explore", "--sweep", "cores"],
        "--sweep expects AXIS=V1[,V2,...], got 'cores'",
    );
    assert_rejected(
        &["explore", "--sweep", "rob="],
        "--sweep rob= lists no values",
    );
}

#[test]
fn explore_rejects_unknown_arguments_and_spaces() {
    assert_rejected(
        &["explore", "--space", "fig13"],
        "--space expects fig7, got 'fig13'",
    );
    assert_rejected(&["explore", "fig7"], "unknown argument 'fig7'");
    assert_rejected(
        &["explore", "--frontier-out"],
        "--frontier-out requires a value",
    );
}

#[test]
fn explore_collects_every_error_not_just_the_first() {
    let out = repro(&["explore", "--budget", "0", "--sweep", "depth=5", "--bogus"]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!out.status.success());
    for expected in [
        "--budget expects an integer >= 1",
        "--sweep axis 'depth' is not in the fig7 design space",
        "unknown argument '--bogus'",
    ] {
        assert!(stderr.contains(expected), "missing '{expected}': {stderr}");
    }
}

#[test]
fn diff_rejects_wrong_file_count() {
    assert_rejected(
        &["diff", "only-one.json"],
        "diff expects exactly two dump files, got 1",
    );
    assert_rejected(&["diff"], "diff expects exactly two dump files, got 0");
}

#[test]
fn diff_rejects_bad_tolerance_and_unknown_flags() {
    assert_rejected(
        &["diff", "a.json", "b.json", "--rel-tol", "-0.5"],
        "--rel-tol expects a number >= 0, got '-0.5'",
    );
    assert_rejected(
        &["diff", "a.json", "b.json", "--wat"],
        "unknown flag '--wat'",
    );
}

#[test]
fn diff_fails_cleanly_on_missing_files() {
    let out = repro(&["diff", "/nonexistent/a.json", "/nonexistent/b.json"]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!out.status.success());
    assert!(
        stderr.contains("error:") && stderr.contains("/nonexistent/a.json"),
        "names the unreadable file: {stderr}"
    );
}

#[test]
fn run_rejects_undeclared_flags_as_flags_not_experiments() {
    assert_rejected(&["--bogus"], "unknown flag '--bogus'");
    assert_rejected(&["--help"], "unknown flag '--help'");
    assert_rejected(&["fig7", "--bogus=3"], "unknown flag '--bogus'");
    // Words that are not flags are still experiment names.
    assert_rejected(&["fig99"], "unknown experiment 'fig99'");
    // Switches take no inline value.
    assert_rejected(&["--quick=yes"], "--quick takes no value, got 'yes'");
}

#[test]
fn usage_lists_every_subcommand_but_the_worker() {
    let stderr = String::from_utf8_lossy(&repro(&["--bogus"]).stderr).into_owned();
    for expected in [
        "repro baseline",
        "repro diff",
        "repro ci-gate --baseline DIR",
        "repro check",
        "repro bench",
        "repro profile",
        "repro explore",
        "repro trace-export IN.jsonl [IN2.jsonl]... OUT.json",
    ] {
        assert!(stderr.contains(expected), "missing '{expected}': {stderr}");
    }
    assert!(!stderr.contains("shard-worker"), "{stderr}");
}

#[test]
fn check_rejects_trace_in_combined_with_any_measuring_flag() {
    assert_rejected(
        &[
            "check",
            "--trace-in",
            "t.jsonl",
            "--jobs",
            "3",
            "--cache-dir",
            "X",
            "--progress",
        ],
        "--trace-in validates an existing trace; it cannot be combined with \
         --jobs, --cache-dir or --progress",
    );
}

#[test]
fn deeply_nested_json_is_an_error_not_an_abort() {
    let deep = std::env::temp_dir().join(format!("hetsim-cli-deep-{}.json", std::process::id()));
    std::fs::write(&deep, "[".repeat(100_000)).expect("write deep file");
    let path = deep.to_str().expect("utf8 path");
    let out = repro(&["diff", path, path]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "not an abort: {stderr}");
    assert!(stderr.starts_with(&format!("error: {path}: ")), "{stderr}");
    std::fs::remove_file(&deep).expect("cleanup");
}

/// A handle on `/dev/full`, where every write fails with ENOSPC.
#[cfg(target_os = "linux")]
fn dev_full() -> std::process::Stdio {
    std::fs::OpenOptions::new()
        .write(true)
        .open("/dev/full")
        .expect("open /dev/full")
        .into()
}

#[cfg(target_os = "linux")]
#[test]
fn a_report_that_cannot_reach_stdout_fails_the_command() {
    let out = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(["--quick", "fig10"])
        .stdout(dev_full())
        .output()
        .expect("repro runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(
        out.status.code(),
        Some(1),
        "an error, not a panic: {stderr}"
    );
    assert!(
        stderr.contains("error: cannot write to stdout: "),
        "{stderr}"
    );
    assert!(!stderr.contains("panicked"), "{stderr}");
}

#[cfg(target_os = "linux")]
#[test]
fn narration_that_cannot_reach_stderr_does_not_fail_the_command() {
    let reference = repro(&["--quick", "fig10"]);
    assert!(reference.status.success());
    let out = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(["--quick", "fig10"])
        .stderr(dev_full())
        .output()
        .expect("repro runs");
    assert_eq!(out.status.code(), Some(0), "stderr is best-effort");
    assert_eq!(out.stdout, reference.stdout, "the report still prints");
}

#[cfg(target_os = "linux")]
#[test]
fn a_usage_error_with_stderr_on_dev_full_still_exits_1() {
    let out = Command::new(env!("CARGO_BIN_EXE_repro"))
        .arg("--bogus")
        .stderr(dev_full())
        .output()
        .expect("repro runs");
    assert_eq!(out.status.code(), Some(1), "an error, not a panic");
}
