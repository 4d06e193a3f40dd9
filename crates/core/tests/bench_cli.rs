//! End-to-end tests of `repro bench`: the dump a real CLI run writes,
//! the compare exit codes, and the argument validation.
//!
//! Wall times vary run to run, so the "golden" assertions here pin the
//! *schema* — the exact top-level keys, scenario names in menu order,
//! per-scenario keys — not the measured values. One fresh run is
//! shared across the tests that need a dump; the compare tests then
//! operate on files only, which is instant.

use std::path::Path;
use std::process::{Command, Output};
use std::sync::OnceLock;

use hetcore::bench::SCENARIOS;

fn repro(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(args)
        .output()
        .expect("repro runs")
}

/// A scratch directory for this test binary's artifacts.
fn scratch() -> &'static Path {
    static DIR: OnceLock<std::path::PathBuf> = OnceLock::new();
    DIR.get_or_init(|| {
        let dir = std::env::temp_dir().join(format!("hetsim-bench-cli-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("scratch dir");
        dir
    })
}

/// One real `repro bench` run at the tiny budget, shared by every test
/// that needs a fresh dump on disk. Returns the dump path.
fn fresh_dump() -> &'static Path {
    static DUMP: OnceLock<std::path::PathBuf> = OnceLock::new();
    DUMP.get_or_init(|| {
        let path = scratch().join("BENCH_fresh.json");
        let out = repro(&[
            "bench",
            "--insts",
            "3000",
            "--warmup",
            "0",
            "--repeats",
            "1",
            "--jobs",
            "2",
            "--out",
            path.to_str().expect("utf8 path"),
        ]);
        assert!(
            out.status.success(),
            "bench run failed: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        path
    })
}

#[test]
fn quick_run_writes_a_schema_valid_dump() {
    let text = std::fs::read_to_string(fresh_dump()).expect("dump written");
    let dump = hetsim_bench::BenchDump::from_json(&text).expect("dump parses and validates");

    // Golden schema snapshot: the exact key set of the document and of
    // each scenario, independent of the measured values.
    let value = serde_json::to_value(&dump).expect("dump to value");
    let doc = value.as_object().expect("dump is an object");
    let keys: Vec<&str> = doc.iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(
        keys,
        [
            "schema",
            "quick",
            "insts",
            "seed",
            "warmup",
            "repeats",
            "host",
            "scenarios"
        ],
        "BENCH_*.json top-level layout is pinned; bump BENCH_SCHEMA to change it"
    );
    let scenarios = doc
        .iter()
        .find(|(k, _)| k == "scenarios")
        .and_then(|(_, v)| v.as_array())
        .expect("scenarios array");
    for s in scenarios {
        let keys: Vec<&str> = s
            .as_object()
            .expect("scenario object")
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(
            keys,
            ["name", "insts", "wall_us", "insts_per_sec", "timing"],
            "scenario layout is pinned"
        );
    }

    assert_eq!(dump.schema, hetsim_bench::BENCH_SCHEMA);
    assert_eq!(
        dump.scenarios
            .iter()
            .map(|s| s.name.as_str())
            .collect::<Vec<_>>(),
        SCENARIOS.to_vec(),
        "every pinned scenario present, in menu order"
    );
    for s in &dump.scenarios {
        assert!(s.insts > 0, "{}: simulated no work", s.name);
        assert!(
            s.insts_per_sec >= 0.0 && s.insts_per_sec.is_finite(),
            "{}: insts/sec {}",
            s.name,
            s.insts_per_sec
        );
    }
    assert_eq!((dump.insts, dump.seed), (3_000, 42));
}

#[test]
fn self_compare_exits_zero_and_reports_pass() {
    let dump = fresh_dump().to_str().expect("utf8");
    let out = repro(&["bench", "--compare", dump, dump]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "self-compare must pass: {stdout}");
    assert!(stdout.contains("bench compare: PASS"), "{stdout}");
}

#[test]
fn injected_slowdown_exits_nonzero_and_names_the_scenario() {
    let base = fresh_dump();
    let text = std::fs::read_to_string(base).expect("dump written");
    let mut slow = hetsim_bench::BenchDump::from_json(&text).expect("parses");
    slow.scenarios[0].insts_per_sec *= 0.2; // 5x slower
    slow.scenarios[0].wall_us *= 5;
    let slow_path = scratch().join("BENCH_slow.json");
    std::fs::write(&slow_path, slow.to_json()).expect("write slow dump");

    let out = repro(&[
        "bench",
        "--compare",
        base.to_str().expect("utf8"),
        slow_path.to_str().expect("utf8"),
    ]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(!out.status.success(), "5x slowdown must fail: {stdout}");
    assert!(stdout.contains("REGRESSED"), "{stdout}");
    assert!(stdout.contains(SCENARIOS[0]), "{stdout}");
    assert!(stdout.contains("bench compare: FAIL"), "{stdout}");
}

#[test]
fn compare_refuses_dumps_that_measured_different_work() {
    let base = fresh_dump();
    let text = std::fs::read_to_string(base).expect("dump written");
    let mut other = hetsim_bench::BenchDump::from_json(&text).expect("parses");
    other.insts = 9_999;
    let other_path = scratch().join("BENCH_other_budget.json");
    std::fs::write(&other_path, other.to_json()).expect("write dump");

    let out = repro(&[
        "bench",
        "--compare",
        base.to_str().expect("utf8"),
        other_path.to_str().expect("utf8"),
    ]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!out.status.success());
    assert!(
        stderr.contains("measured different work"),
        "names the mismatch: {stderr}"
    );
}

#[test]
fn compare_fails_cleanly_on_missing_and_malformed_files() {
    let out = repro(&[
        "bench",
        "--compare",
        "/nonexistent/a.json",
        "/nonexistent/b.json",
    ]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!out.status.success());
    assert!(
        stderr.contains("error:") && stderr.contains("/nonexistent/a.json"),
        "names the unreadable file: {stderr}"
    );

    let garbage = scratch().join("garbage.json");
    std::fs::write(&garbage, "not json").expect("write garbage");
    let out = repro(&[
        "bench",
        "--compare",
        garbage.to_str().expect("utf8"),
        garbage.to_str().expect("utf8"),
    ]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!out.status.success());
    assert!(stderr.contains("not a bench dump"), "{stderr}");
}

#[test]
fn bench_rejects_bad_arguments_up_front() {
    // Rejections are validated before any simulation starts, so all of
    // these return fast.
    let cases: &[(&[&str], &str)] = &[
        (
            &["bench", "--repeats", "0"],
            "--repeats expects an integer >= 1, got '0'",
        ),
        (
            &["bench", "--insts", "lots"],
            "--insts expects an integer >= 1, got 'lots'",
        ),
        (&["bench", "--wat"], "unknown flag '--wat'"),
        (
            &["bench", "cand.json"],
            "a positional CANDIDATE.json requires --compare",
        ),
        (
            &["bench", "--compare", "a.json", "b.json", "--out", "c.json"],
            "cannot be combined with",
        ),
        (
            &["bench", "--ratchet", "--rel-tol", "0.5"],
            "--ratchet pins the CI tolerance",
        ),
        (
            &["bench", "--format", "csv"],
            "bench supports --format table or json",
        ),
    ];
    for (args, expected) in cases {
        let out = repro(args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(!out.status.success(), "{args:?} must be rejected");
        assert!(
            stderr.contains(expected),
            "{args:?}: expected '{expected}', got: {stderr}"
        );
        assert!(stderr.contains("usage: repro"), "usage follows the error");
    }
}

#[test]
fn read_only_modes_reject_every_measuring_flag() {
    let cases: &[(&[&str], &str)] = &[
        (
            &[
                "bench",
                "--compare",
                "a.json",
                "b.json",
                "--repeats",
                "7",
                "--seed",
                "3",
                "--jobs",
                "9",
            ],
            "comparing two existing dumps runs nothing; it cannot be combined with \
             --seed, --repeats or --jobs",
        ),
        (
            &["bench", "--trend", "--warmup", "2", "--ratchet"],
            "--trend reads the existing BENCH_*.json dumps and runs nothing; it cannot be \
             combined with --warmup or --ratchet",
        ),
    ];
    for (args, expected) in cases {
        let stderr = String::from_utf8_lossy(&repro(args).stderr).into_owned();
        assert!(stderr.contains(expected), "{args:?}: {stderr}");
    }
}

#[test]
fn file_compare_accepts_tolerance_and_format_flags() {
    let dump = fresh_dump().to_str().expect("utf8");
    for extra in [
        &["--rel-tol", "0.5"][..],
        &["--ratchet"],
        &["--format", "json"],
    ] {
        let args = [&["bench", "--compare", dump, dump][..], extra].concat();
        let out = repro(&args);
        assert!(out.status.success(), "{args:?}: {out:?}");
    }
}
