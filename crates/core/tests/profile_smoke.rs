//! End-to-end smoke tests for the cycle-attribution profiler.
//!
//! Runs the real `repro` binary and checks the whole chain: the
//! `hetsim-profile-v1` document a run writes with `--profile-out`
//! conserves cycles for every unit, `repro profile` renders that
//! document as well-formed folded stacks and Perfetto counter tracks,
//! runs on any worker count and warm-cache runs write the document a
//! cold serial run does, a corrupt or foreign document fails cleanly,
//! and — the headline guarantee — stdout stays byte-identical whether
//! or not a profile is written.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};
use std::sync::OnceLock;

use hetsim_obs::{CycleProfile, PROFILE_SCHEMA};
use hetsim_stats::attribution::CycleClass;
use serde::value::Value;
use serde::Deserialize as _;

/// Instruction budget (matches the baselines; small enough for
/// a quick run, large enough that every design executes real work).
const INSTS: &str = "3000";

fn repro(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(args)
        .output()
        .expect("repro runs")
}

/// Runs `repro` with `args`, asserting success; returns stdout.
fn stdout_of(args: &[&str]) -> String {
    let out = repro(args);
    assert!(
        out.status.success(),
        "repro {args:?} fails: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).expect("utf-8 stdout")
}

fn tmp(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!(
        "hetcore-profile-smoke-{}-{name}",
        std::process::id()
    ))
}

fn arg(path: &Path) -> &str {
    path.to_str().expect("utf-8 path")
}

/// Runs `repro --insts 3000 --profile-out PATH` plus `args`, so that
/// `PATH` holds the run's document.
fn record(path: &Path, args: &[&str]) {
    let flags = ["--insts", INSTS, "--profile-out", arg(path)];
    stdout_of(&[&flags[..], args].concat());
}

/// The document of one recorded `fig7 fig10` run (both device
/// campaigns), shared by every test that only reads it.
fn recorded() -> &'static Path {
    static DOC: OnceLock<PathBuf> = OnceLock::new();
    DOC.get_or_init(|| {
        let path = tmp("recorded.json");
        record(&path, &["fig7", "fig10"]);
        path
    })
}

fn load_profile(path: &Path) -> CycleProfile {
    let text = std::fs::read_to_string(path).expect("profile written");
    let value: Value = serde_json::from_str(&text).expect("profile is valid JSON");
    assert_eq!(
        value.get("schema").and_then(Value::as_str),
        Some(PROFILE_SCHEMA)
    );
    CycleProfile::from_value(&value).expect("profile deserializes")
}

/// Every row's classes must sum to its attributed cycles — the same
/// conservation invariant `hetsim-check` enforces inside the
/// simulators, replayed here on the serialized artifact — and every
/// per-cycle occupancy histogram (recorded in bulk, per level) must
/// hold exactly one sample per attributed cycle.
fn assert_conservation(profile: &CycleProfile) {
    assert!(!profile.is_empty(), "profile has rows");
    for row in profile.rows() {
        assert_eq!(
            row.classes.total(),
            row.cycles,
            "classes must sum to cycles for {}/{}",
            row.design,
            row.unit
        );
        for (name, h) in &row.histograms {
            if ["rob", "iq", "lsq", "residency"].contains(&name.as_str()) {
                assert_eq!(
                    h.count(),
                    row.cycles,
                    "`{name}` samples every cycle of {}/{}",
                    row.design,
                    row.unit
                );
            }
        }
    }
}

#[test]
fn profile_document_conserves_cycles_and_exports() {
    let profile = load_profile(recorded());
    assert_conservation(&profile);
    // Both device campaigns contribute: CPU cores and GPU CUs.
    assert!(profile.rows().iter().any(|r| r.unit.starts_with("core")));
    assert!(profile.rows().iter().any(|r| r.unit.starts_with("cu")));
    // CPU rows carry the occupancy histograms.
    let core = profile
        .rows()
        .iter()
        .find(|r| r.unit.starts_with("core"))
        .expect("a core row");
    for name in ["rob", "iq", "lsq"] {
        assert!(
            core.histograms.iter().any(|(n, _)| n == name),
            "core rows carry a `{name}` occupancy histogram"
        );
    }
    // GPU rows carry wave residency.
    let cu = profile
        .rows()
        .iter()
        .find(|r| r.unit.starts_with("cu"))
        .expect("a cu row");
    assert!(cu.histograms.iter().any(|(n, _)| n == "residency"));

    // The Perfetto export is Chrome-trace shaped: "C" events on one
    // lane per design, one per unit, args keyed by class names.
    let text = stdout_of(&["profile", arg(recorded()), "--format", "perfetto"]);
    let doc: Value = serde_json::from_str(&text).expect("counters are valid JSON");
    let events = doc
        .get("traceEvents")
        .and_then(Value::as_array)
        .expect("traceEvents array");
    let counters: Vec<&Value> = events
        .iter()
        .filter(|e| e.get("ph").and_then(Value::as_str) == Some("C"))
        .collect();
    assert_eq!(counters.len(), profile.rows().len(), "one counter per unit");
    for event in &counters {
        let args = event.get("args").expect("counter args");
        for class in CycleClass::ALL {
            assert!(
                args.get(class.name()).is_some(),
                "counter carries the `{}` series",
                class.name()
            );
        }
    }
}

#[test]
fn folded_stacks_parse_and_use_known_class_names() {
    let folded = stdout_of(&["profile", arg(recorded()), "--format", "folded"]);
    assert!(!folded.trim().is_empty(), "folded output has lines");
    for line in folded.lines() {
        let (stack, count) = line.rsplit_once(' ').expect("`stack count` shape");
        count.parse::<u64>().expect("count is a number");
        let frames: Vec<&str> = stack.split(';').collect();
        assert_eq!(frames.len(), 3, "design;unit;class: {line}");
        assert!(
            CycleClass::from_name(frames[2]).is_some(),
            "unknown class `{}` in folded output",
            frames[2]
        );
    }
}

#[test]
fn the_table_aligns_design_names_longer_than_twelve_columns() {
    let table = stdout_of(&["profile", arg(recorded())]);
    let mut lines = table.lines().skip(1);
    let header = lines.next().expect("a header line");
    let unit_at = header.find(" unit ").expect("a unit column") + 1;
    let mut longest = 0;
    for line in lines {
        let mut fields = line.split_whitespace();
        let (design, unit) = (fields.next().expect("design"), fields.next().expect("unit"));
        longest = longest.max(design.len());
        assert!(
            line[unit_at..].starts_with(&format!("{unit} ")),
            "`{unit}` of {design} is not under the header's `unit`:\n{table}"
        );
    }
    assert!(
        longest > 12,
        "Fig 7 names a design past 12 columns:\n{table}"
    );
}

#[test]
fn profiles_match_across_worker_counts() {
    let (serial, parallel) = (tmp("serial.json"), tmp("parallel.json"));
    record(&serial, &["--jobs", "1", "fig7"]);
    record(&parallel, &["--jobs", "3", "fig7"]);
    let parallel_doc = load_profile(&parallel);
    assert_conservation(&parallel_doc);
    assert_eq!(
        load_profile(&serial),
        parallel_doc,
        "three workers must fold exactly the serial document"
    );
    for path in [&serial, &parallel] {
        let _ = std::fs::remove_file(path);
    }
}

#[test]
fn warm_runs_report_the_cold_document() {
    let cache = tmp("warm-cache");
    let _ = std::fs::remove_dir_all(&cache);
    let (cold, warm) = (tmp("cold.json"), tmp("warm.json"));
    for path in [&cold, &warm] {
        record(path, &["--cache-dir", arg(&cache), "fig7", "fig10"]);
    }
    let read = |p: &PathBuf| std::fs::read_to_string(p).expect("profile written");
    assert_eq!(
        read(&cold),
        read(&warm),
        "a warm replay folds the cached rows"
    );
    let _ = std::fs::remove_dir_all(&cache);
    for path in [&cold, &warm] {
        let _ = std::fs::remove_file(path);
    }
}

#[test]
fn stdout_is_byte_identical_with_and_without_profiling() {
    let profile_path = tmp("identity.json");
    let stats_plain = tmp("stats-plain.json");
    let stats_profiled = tmp("stats-profiled.json");
    let run = ["--insts", INSTS, "--format", "json", "--stats-out"];

    let plain = repro(&[&run[..], &[arg(&stats_plain), "fig7"]].concat());
    assert!(plain.status.success());
    let profiled = repro(
        &[
            &run[..],
            &[arg(&stats_profiled), "--profile-out", arg(&profile_path)],
            &["fig7"],
        ]
        .concat(),
    );
    let stderr = String::from_utf8_lossy(&profiled.stderr);
    assert!(profiled.status.success(), "profiled run fails: {stderr}");
    assert_eq!(
        plain.stdout, profiled.stdout,
        "stdout must stay byte-identical under --profile-out"
    );
    assert!(
        stderr.contains("wrote cycle profile"),
        "narrates the profile write: {stderr}"
    );
    assert_conservation(&load_profile(&profile_path));

    // The profile has one copy, the `--profile-out` document: neither
    // dump carries it, and profiling perturbs no section of the dump.
    let read = |p: &PathBuf| -> Value {
        serde_json::from_str(&std::fs::read_to_string(p).expect("dump written"))
            .expect("dump parses")
    };
    let (plain_dump, profiled_dump) = (read(&stats_plain), read(&stats_profiled));
    assert!(plain_dump.get("profile").is_none());
    assert!(profiled_dump.get("profile").is_none());
    // `runner` carries wall-clock timing and varies run to run (that
    // is why the diff policy exempts it); everything else must match.
    let strip = |v: &Value| match v {
        Value::Object(fields) => Value::Object(
            fields
                .iter()
                .filter(|(k, _)| k != "runner")
                .cloned()
                .collect(),
        ),
        other => other.clone(),
    };
    assert_eq!(
        strip(&plain_dump),
        strip(&profiled_dump),
        "profiling must not perturb any deterministic telemetry section"
    );

    for path in [&profile_path, &stats_plain, &stats_profiled] {
        let _ = std::fs::remove_file(path);
    }
}

#[test]
fn a_corrupt_or_foreign_document_fails_cleanly() {
    let text = std::fs::read(recorded()).expect("profile written");
    let truncated = tmp("truncated.json");
    std::fs::write(&truncated, &text[..text.len() / 2]).expect("write truncated");
    // Flip the low bit of the first row's first `cycles` digit: the row
    // then disagrees with its class total.
    let flipped = tmp("flipped.json");
    let mut bytes = text.clone();
    let key = b"\"cycles\": ";
    let at = bytes
        .windows(key.len())
        .position(|w| w == key)
        .expect("a row")
        + key.len();
    bytes[at] ^= 1;
    std::fs::write(&flipped, &bytes).expect("write flipped");
    let dump = tmp("dump.json");
    stdout_of(&["--insts", "8", "--stats-out", arg(&dump), "fig1"]);

    for path in [&truncated, &flipped, &dump] {
        let text = std::fs::read_to_string(path).expect("document written");
        let reader_error = serde_json::from_str::<CycleProfile>(&text).expect_err("rejected");
        let out = repro(&["profile", arg(path)]);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{path:?}: {stderr}");
        let expected = format!("error: {}: {reader_error}", arg(path));
        assert!(stderr.contains(&expected), "{stderr}");
        assert!(!stderr.contains("panicked"), "{stderr}");
        assert!(out.stdout.is_empty(), "{path:?} rendered something");
    }
    for path in [&truncated, &flipped, &dump] {
        let _ = std::fs::remove_file(path);
    }
}

#[test]
fn an_extension_run_renders_its_designs() {
    let path = tmp("ext.json");
    stdout_of(&["--quick", "--profile-out", arg(&path), "ext"]);
    let table = stdout_of(&["profile", arg(&path)]);
    let profile = load_profile(&path);
    assert_conservation(&profile);
    // ext-partrf's design exists only in the extensions.
    assert!(
        table.lines().any(|l| l.starts_with("AdvHet-PartRF cu ")),
        "{table}"
    );
    let header = format!("profile: {} unit(s) across ", profile.rows().len());
    assert!(table.starts_with(&header), "{table}");
    let _ = std::fs::remove_file(&path);
}
