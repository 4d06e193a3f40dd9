//! Argument-validation tests for the `repro` subcommands: bad flags must
//! be rejected up front — before any simulation starts — with a named
//! error on stderr, the usage text, and a non-zero exit.

use std::process::{Command, Output};

use serde::value::Value;

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
    // `check` runs no campaign, so it takes none of a run's flags.
    for flag in ["--insts", "--jobs", "--cache-dir"] {
        assert_rejected(&["check", flag, "8"], &format!("unknown argument '{flag}'"));
    }
    assert_rejected(&["check", "--progress"], "unknown argument '--progress'");
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
    // `--progress` is a plain switch: it names no sink.
    for mode in ["dashboard", "stderr", "bogus"] {
        let flag = format!("--progress={mode}");
        assert_rejected(
            &[&flag, "fig7"],
            &format!("--progress takes no value, got '{mode}'"),
        );
    }
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
    // Exactly one input and the output: a run writes one log.
    assert_rejected(
        &["trace-export", "only-in.jsonl"],
        "trace-export expects IN.jsonl and OUT.json, got 1 path(s)",
    );
    assert_rejected(
        &["trace-export"],
        "trace-export expects IN.jsonl and OUT.json, got 0 path(s)",
    );
    assert_rejected(
        &["trace-export", "a.jsonl", "b.jsonl", "out.json"],
        "trace-export expects IN.jsonl and OUT.json, got 3 path(s)",
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
    assert_rejected(
        &["explore", "--insts", "many"],
        "--insts expects an integer >= 8, got 'many'",
    );
}

#[test]
fn a_budget_below_the_largest_chip_is_rejected() {
    // The AdvHet-2X chip shares its budget among 8 cores: fewer
    // instructions can leave some chip with no work and a report cell of 0
    // or NaN.
    for args in [&["--insts", "7", "fig7"][..], &["explore", "--insts", "7"]] {
        assert_rejected(args, "--insts expects an integer >= 8, got '7'");
    }
}

#[test]
fn the_smallest_budget_renders_every_cell() {
    let out = repro(&["--insts", "8", "--format", "json", "all", "ext"]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(0), "{stderr}");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 reports");
    let reports: Value = serde_json::from_str(&stdout).expect("a JSON report array");
    let reports = reports.as_array().expect("an array");
    let mut fig7_cells = 0;
    for report in reports {
        let title = report.get("title").and_then(Value::as_str).expect("title");
        let rows = report.get("rows").and_then(Value::as_array).expect("rows");
        for row in rows {
            let cells = row.as_array().and_then(|r| r[1].as_array()).expect("cells");
            for cell in cells {
                let v = cell.as_f64();
                assert!(v.is_some(), "{title}: a null cell in {row:?}");
                if title.starts_with("Figure 7:") {
                    assert!(v > Some(0.0), "{title}: a zero cell in {row:?}");
                    fig7_cells += 1;
                }
            }
        }
    }
    assert_eq!(fig7_cells, 15 * 6, "14 apps + mean, 6 designs");
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
        &["explore", "--space", "fig7"],
        "unknown argument '--space'",
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
    // JSON reports have one spelling, `--format json`.
    assert_rejected(&["--json", "fig1"], "unknown flag '--json'");
    // Words that are not flags are still experiment names.
    assert_rejected(&["fig99"], "unknown experiment 'fig99'");
    // Switches take no inline value.
    assert_rejected(&["--quick=yes"], "--quick takes no value, got 'yes'");
}

#[test]
fn profile_renders_a_recorded_document_and_runs_nothing() {
    // A run records the document (`--profile-out`); `profile` takes one
    // path and a format, and none of a run's flags.
    for flag in ["--quick", "--insts", "--jobs", "--counters-out"] {
        let expected = format!("unknown flag '{flag}'");
        assert_rejected(&["profile", "p.json", flag, "8"], &expected);
    }
    assert_rejected(
        &["profile", "p.json", "--format", "json"],
        "--format expects table, folded or perfetto, got 'json'",
    );
    assert_rejected(
        &["profile"],
        "profile expects one PROFILE.json, got 0 path(s)",
    );
    assert_rejected(
        &["profile", "fig7", "fig10"],
        "profile expects one PROFILE.json, got 2 path(s)",
    );
}

#[test]
fn an_output_path_that_cannot_be_written_fails_before_running() {
    for args in [
        &["--insts", "8", "--stats-out", "/proc/nope/s.json", "fig10"][..],
        &["--insts", "8", "--trace-out", "/proc/nope/t.jsonl", "fig10"],
        &[
            "--insts",
            "8",
            "--profile-out",
            "/proc/nope/p.json",
            "fig10",
        ],
        &["baseline", "--progress", "/proc/nope", "fig1"],
        &[
            "explore",
            "--budget",
            "1",
            "--insts",
            "8",
            "--frontier-out",
            "/proc/nope/f.json",
        ],
    ] {
        let out = repro(args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{args:?}: {stderr}");
        assert!(
            stderr.contains("error: cannot write /proc/nope/"),
            "{stderr}"
        );
        assert!(out.stdout.is_empty(), "{args:?} reported before failing");
        assert!(!stderr.contains("[runner]"), "{args:?} ran jobs: {stderr}");
    }
}

#[test]
fn an_output_path_gets_its_directory() {
    let dir = std::env::temp_dir().join(format!("hetsim-cli-newdir-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let dump = dir.join("new").join("s.json");
    let out = repro(&[
        "--insts",
        "8",
        "--stats-out",
        dump.to_str().expect("utf8"),
        "fig1",
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(dump.is_file(), "the dump's directory is created");
    let left: Vec<_> = std::fs::read_dir(dump.parent().expect("parent"))
        .expect("dir")
        .map(|e| e.expect("entry").file_name())
        .collect();
    assert_eq!(
        left,
        vec![std::ffi::OsString::from("s.json")],
        "no probe left"
    );
    std::fs::remove_dir_all(&dir).expect("cleanup");
}

#[test]
fn two_output_flags_that_name_one_file_are_refused_before_running() {
    let dir = std::env::temp_dir().join(format!("hetsim-cli-shared-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let path = |p: &str| dir.join(p).to_str().expect("utf8").to_string();
    let (plain, dotted) = (path("d/x.json"), path("d/./x.json"));
    for (first, second) in [
        ("--stats-out", "--profile-out"),
        ("--stats-out", "--trace-out"),
        ("--trace-out", "--profile-out"),
    ] {
        let out = repro(&["--insts", "8", first, &plain, second, &dotted, "fig10"]);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{first} {second}: {stderr}");
        assert!(
            stderr.contains(&format!("error: {first} and {second} both name {dotted}")),
            "{stderr}"
        );
        assert!(
            out.stdout.is_empty(),
            "{first} {second} reported before failing"
        );
        assert!(
            !dir.join("d/x.json").exists(),
            "{first} {second} wrote a file"
        );
    }
    std::fs::remove_dir_all(&dir).expect("cleanup");
}

#[test]
fn usage_lists_every_subcommand() {
    let stderr = String::from_utf8_lossy(&repro(&["--bogus"]).stderr).into_owned();
    for expected in [
        "repro baseline",
        "repro diff",
        "repro ci-gate --baseline DIR",
        "repro check",
        "repro bench",
        "repro profile",
        "repro explore",
        "repro trace-export IN.jsonl OUT.json",
    ] {
        assert!(stderr.contains(expected), "missing '{expected}': {stderr}");
    }
}

#[test]
fn worker_processes_are_not_a_run_option() {
    // `--jobs N` is the one way to run a campaign in parallel: there is
    // no `--shards` flag and no worker subcommand.
    for (args, expected) in [
        (&["--shards", "2", "fig7"][..], "unknown flag '--shards'"),
        (&["profile", "--shards", "2"], "unknown flag '--shards'"),
        (&["explore", "--shards", "2"], "unknown argument '--shards'"),
        (&["shard-worker"], "unknown experiment 'shard-worker'"),
    ] {
        let out = repro(args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{args:?}: {stderr}");
        assert!(stderr.contains(expected), "{args:?}: {stderr}");
    }
}

#[test]
fn check_rejects_trace_in_combined_with_any_measuring_flag() {
    assert_rejected(
        &[
            "check",
            "--trace-in",
            "t.jsonl",
            "--fuzz",
            "2",
            "--seed",
            "3",
        ],
        "--trace-in validates an existing trace; it cannot be combined with \
         --fuzz or --seed",
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

#[test]
fn a_plain_run_writes_nothing_to_stderr() {
    let out = repro(&["--quick", "fig10"]);
    assert!(out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.is_empty(), "narration without --progress: {stderr}");
}

#[cfg(target_os = "linux")]
#[test]
fn narration_that_cannot_reach_stderr_does_not_fail_the_command() {
    let reference = repro(&["--quick", "fig10"]);
    assert!(reference.status.success());
    let out = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(["--quick", "--progress", "fig10"])
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

#[test]
fn a_repeated_target_runs_and_reports_once() {
    let dump = std::env::temp_dir().join(format!("hetsim-cli-repeat-{}.json", std::process::id()));
    let path = dump.to_str().expect("utf8 path");
    let twice = repro(&["--insts", "800", "--stats-out", path, "fig14", "fig14"]);
    let stderr = String::from_utf8_lossy(&twice.stderr);
    assert!(twice.status.success(), "{stderr}");
    let once = repro(&["--insts", "800", "fig14"]);
    assert_eq!(twice.stdout, once.stdout, "Figure 14 prints once");

    // The dump records the word once, so it diffs clean against itself.
    let text = std::fs::read_to_string(&dump).expect("dump written");
    let doc: Value = serde_json::from_str(&text).expect("dump parses");
    let words = doc.get("run").and_then(|run| run.get("experiments"));
    assert_eq!(words, Some(&Value::Array(vec![Value::Str("fig14".into())])));
    let diff = repro(&["diff", path, path]);
    let stderr = String::from_utf8_lossy(&diff.stderr);
    assert_eq!(diff.status.code(), Some(0), "{stderr}");
    std::fs::remove_file(&dump).expect("cleanup");

    // An extension named alone and again through `ext` reports once.
    let repeated = repro(&["--insts", "800", "--format", "json", "ext-migration", "ext"]);
    assert!(repeated.status.success());
    let ext = repro(&["--insts", "800", "--format", "json", "ext"]);
    assert_eq!(repeated.stdout, ext.stdout);
}

#[test]
fn a_cache_directory_that_cannot_be_opened_is_named() {
    for args in [
        &["--insts", "8", "--cache-dir", "/proc/nope", "fig10"][..],
        &[
            "explore",
            "--budget",
            "1",
            "--insts",
            "8",
            "--cache-dir",
            "/proc/nope",
        ],
    ] {
        let out = repro(args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{args:?}: {stderr}");
        assert!(
            stderr.contains("error: cannot open cache directory /proc/nope: "),
            "{args:?}: {stderr}"
        );
        assert!(out.stdout.is_empty(), "{args:?} reported before failing");
    }
}
