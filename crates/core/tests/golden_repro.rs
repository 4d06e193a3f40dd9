//! Golden tests for the machine-readable `repro` output.
//!
//! Runs the real `repro` binary (`--format json`) on small campaigns
//! and compares the parsed reports against the `reports` array of the
//! checked-in baseline for the same target (`baselines/<target>.json`,
//! run at its recorded `run.insts`) with numeric tolerance; the fig7
//! invocation's `--stats-out` dump is additionally checked for full
//! counter-name coverage. Covered targets: fig7 and fig8 (CPU campaign
//! figures), fig14 (device-level table, no campaign) and the extension
//! studies.
//!
//! The baselines are the one pinned copy of each report: after an
//! intentional simulator change, re-bless them with `repro baseline
//! baselines` (see `schema_guard.rs` for the schema tags that must move
//! with them).

use std::path::{Path, PathBuf};
use std::process::Command;

use hetsim_cpu::stats::CoreStats;
use hetsim_mem::stats::MemStats;
use serde::value::Value;

/// Relative tolerance for report values: the simulation is
/// deterministic, so this only needs to absorb float-formatting noise.
const REL_TOL: f64 = 1e-9;

fn baseline_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../../baselines")
}

fn run_repro(insts: u64, args: &[&str]) -> String {
    let output = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(["--insts", &insts.to_string(), "--format", "json"])
        .args(args)
        .output()
        .expect("repro runs");
    assert!(
        output.status.success(),
        "repro failed: {}",
        String::from_utf8_lossy(&output.stderr)
    );
    String::from_utf8(output.stdout).expect("utf-8 stdout")
}

/// Runs `repro --insts <run.insts> --format json <target>` and compares
/// the JSON report array against the `reports` of
/// `baselines/<target>.json`.
fn check_against_baseline(target: &str, extra_args: &[&str]) -> String {
    let path = baseline_dir().join(format!("{target}.json"));
    let text = std::fs::read_to_string(&path).expect("baseline exists");
    let baseline: Value = serde_json::from_str(&text).expect("baseline is valid JSON");
    let insts = baseline
        .get("run")
        .and_then(|run| run.get("insts"))
        .and_then(Value::as_u64)
        .expect("baseline records run.insts");
    let golden = baseline.get("reports").expect("baseline has reports");
    let mut args = vec![target];
    args.extend_from_slice(extra_args);
    let stdout = run_repro(insts, &args);
    let actual: Value = serde_json::from_str(&stdout).expect("repro emits valid JSON");
    assert_matches(&actual, golden, "$");
    stdout
}

fn close(a: f64, b: f64) -> bool {
    let scale = a.abs().max(b.abs());
    (a - b).abs() <= REL_TOL * scale.max(1e-300)
}

/// Structural equality with numeric tolerance on leaf numbers.
fn assert_matches(actual: &Value, golden: &Value, path: &str) {
    match (actual, golden) {
        (Value::Object(a), Value::Object(g)) => {
            let a_keys: Vec<&String> = a.iter().map(|(k, _)| k).collect();
            let g_keys: Vec<&String> = g.iter().map(|(k, _)| k).collect();
            assert_eq!(a_keys, g_keys, "object keys at {path}");
            for ((k, av), (_, gv)) in a.iter().zip(g.iter()) {
                assert_matches(av, gv, &format!("{path}.{k}"));
            }
        }
        (Value::Array(a), Value::Array(g)) => {
            assert_eq!(a.len(), g.len(), "array length at {path}");
            for (i, (av, gv)) in a.iter().zip(g.iter()).enumerate() {
                assert_matches(av, gv, &format!("{path}[{i}]"));
            }
        }
        _ => match (actual.as_f64(), golden.as_f64()) {
            (Some(a), Some(g)) => {
                assert!(close(a, g), "value at {path}: {a} vs golden {g}")
            }
            _ => assert_eq!(actual, golden, "value at {path}"),
        },
    }
}

#[test]
fn fig7_json_matches_the_checked_in_snapshot() {
    let stats_path =
        std::env::temp_dir().join(format!("hetcore-golden-stats-{}.json", std::process::id()));
    let stats_arg = stats_path.to_string_lossy().into_owned();
    check_against_baseline("fig7", &["--stats-out", &stats_arg]);

    // The same run's --stats-out dump: valid JSON carrying every
    // counter name the structs enumerate, for every design.
    let dump_text = std::fs::read_to_string(&stats_path).expect("stats dump written");
    let dump: Value = serde_json::from_str(&dump_text).expect("dump is valid JSON");
    assert_eq!(
        dump.get("schema")
            .and_then(|s| s.get("cpu"))
            .and_then(Value::as_str),
        Some(hetcore::CPU_SCHEMA)
    );
    let designs = dump
        .get("cpu")
        .and_then(|c| c.get("designs"))
        .and_then(Value::as_object)
        .expect("cpu designs present");
    assert!(!designs.is_empty());
    for (design, entry) in designs {
        for (section, names) in [
            (
                "core",
                CoreStats::default()
                    .iter()
                    .map(|(n, _)| n)
                    .collect::<Vec<_>>(),
            ),
            (
                "mem",
                MemStats::default()
                    .iter()
                    .map(|(n, _)| n)
                    .collect::<Vec<_>>(),
            ),
        ] {
            let map = entry
                .get(section)
                .and_then(Value::as_object)
                .unwrap_or_else(|| panic!("{design} has a {section} map"));
            for name in names {
                assert!(
                    map.iter().any(|(k, _)| *k == name),
                    "{design}.{section} is missing counter {name}"
                );
            }
        }
    }
    let _ = std::fs::remove_file(&stats_path);
}

#[test]
fn fig8_json_matches_the_checked_in_snapshot() {
    // fig8 also emits its stacked-bar breakdown report; both land in
    // the same JSON array and the same baseline.
    let stdout = check_against_baseline("fig8", &[]);
    let reports: Value = serde_json::from_str(&stdout).expect("valid JSON");
    let reports = reports.as_array().expect("array of reports");
    assert_eq!(reports.len(), 2, "fig8 emits the figure plus its breakdown");
}

#[test]
fn fig14_json_matches_the_checked_in_snapshot() {
    check_against_baseline("fig14", &[]);
}

#[test]
fn ext_json_matches_the_checked_in_snapshot() {
    // `ext` expands to all three extension studies.
    let stdout = check_against_baseline("ext", &[]);
    let reports: Value = serde_json::from_str(&stdout).expect("valid JSON");
    let reports = reports.as_array().expect("array of reports");
    assert_eq!(
        reports.len(),
        3,
        "ext expands to all three extension studies"
    );
}
