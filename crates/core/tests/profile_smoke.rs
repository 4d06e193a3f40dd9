//! End-to-end smoke tests for the cycle-attribution profiler.
//!
//! Runs the real `repro` binary and checks the whole chain: `repro
//! profile` emits a `hetsim-profile-v1` document whose classes sum to
//! the attributed cycles for every unit, the folded-stack and Perfetto
//! counter-track exports are well-formed, runs on any worker count and
//! warm-cache runs report the same document a cold serial run does,
//! and — the headline guarantee — stdout stays byte-identical whether
//! or not a profile is written.

use std::path::PathBuf;
use std::process::{Command, Output};

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

fn tmp(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!(
        "hetcore-profile-smoke-{}-{name}",
        std::process::id()
    ))
}

fn load_profile(path: &PathBuf) -> CycleProfile {
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
    let doc_path = tmp("profile.json");
    let counters_path = tmp("counters.json");

    let out = repro(&[
        "profile",
        "--insts",
        INSTS,
        "--format",
        "json",
        "--out",
        &doc_path.to_string_lossy(),
        "--counters-out",
        &counters_path.to_string_lossy(),
    ]);
    assert!(
        out.status.success(),
        "profile run fails: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let profile = load_profile(&doc_path);
    assert_conservation(&profile);
    // Both device campaigns contribute: CPU cores and GPU CUs.
    assert!(profile.rows().iter().any(|r| r.unit.starts_with("core")));
    assert!(profile.rows().iter().any(|r| r.unit.starts_with("cu")));
    // CPU rows carry the occupancy histograms the tentpole promises.
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

    // The counter-track doc is Chrome-trace shaped: "C" events on one
    // lane per design, args keyed by class names.
    let text = std::fs::read_to_string(&counters_path).expect("counters written");
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

    for path in [&doc_path, &counters_path] {
        let _ = std::fs::remove_file(path);
    }
}

#[test]
fn folded_stacks_parse_and_use_known_class_names() {
    let out = repro(&["profile", "--insts", INSTS, "--format", "folded", "fig7"]);
    assert!(
        out.status.success(),
        "folded profile fails: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(!stdout.trim().is_empty(), "folded output has lines");
    for line in stdout.lines() {
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
fn profiles_match_across_worker_counts() {
    let serial_path = tmp("serial.json");
    let parallel_path = tmp("parallel.json");
    for (jobs, path) in [("1", &serial_path), ("3", &parallel_path)] {
        let path_arg = path.to_string_lossy().into_owned();
        let out = repro(&[
            "profile", "--insts", INSTS, "--jobs", jobs, "--format", "json", "--out", &path_arg,
            "fig7",
        ]);
        assert!(
            out.status.success(),
            "profile run fails: {}",
            String::from_utf8_lossy(&out.stderr)
        );
    }
    let serial = load_profile(&serial_path);
    let parallel = load_profile(&parallel_path);
    assert_conservation(&parallel);
    assert_eq!(
        serial, parallel,
        "three workers must fold exactly the serial document"
    );
    for path in [&serial_path, &parallel_path] {
        let _ = std::fs::remove_file(path);
    }
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

#[test]
fn warm_runs_report_the_cold_document() {
    let cache = tmp("warm-cache");
    let _ = std::fs::remove_dir_all(&cache);
    let (cold, warm) = (tmp("cold.json"), tmp("warm.json"));
    let cache_arg = cache.to_string_lossy().into_owned();
    for path in [&cold, &warm] {
        let path_arg = path.to_string_lossy().into_owned();
        stdout_of(&[
            "--insts",
            INSTS,
            "--cache-dir",
            &cache_arg,
            "--profile-out",
            &path_arg,
            "fig7",
            "fig10",
        ]);
    }
    let read = |p: &PathBuf| std::fs::read_to_string(p).expect("profile written");
    assert_eq!(
        read(&cold),
        read(&warm),
        "a warm replay folds the cached rows"
    );
    let plain = stdout_of(&[
        "profile", "--insts", INSTS, "--format", "json", "fig7", "fig10",
    ]);
    assert_eq!(plain, read(&cold), "--profile-out writes the same document");

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

    let plain = repro(&[
        "--insts",
        INSTS,
        "--format",
        "json",
        "--stats-out",
        &stats_plain.to_string_lossy(),
        "fig7",
    ]);
    assert!(plain.status.success());

    let profiled = repro(&[
        "--insts",
        INSTS,
        "--format",
        "json",
        "--stats-out",
        &stats_profiled.to_string_lossy(),
        "--profile-out",
        &profile_path.to_string_lossy(),
        "fig7",
    ]);
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

    // The attribution lands in the telemetry dump under the
    // diff-exempt `profile` section — and nowhere else: stripping it
    // must make the two dumps identical.
    let read = |p: &PathBuf| -> Value {
        serde_json::from_str(&std::fs::read_to_string(p).expect("dump written"))
            .expect("dump parses")
    };
    let plain_dump = read(&stats_plain);
    let profiled_dump = read(&stats_profiled);
    assert!(plain_dump.get("profile").is_none());
    assert_eq!(
        profiled_dump
            .get("profile")
            .and_then(|p| p.get("schema"))
            .and_then(Value::as_str),
        Some(PROFILE_SCHEMA)
    );
    // `runner` carries wall-clock timing and varies run to run (that
    // is why the diff policy exempts it); everything else must match.
    let strip = |v: &Value| match v {
        Value::Object(fields) => Value::Object(
            fields
                .iter()
                .filter(|(k, _)| k != "profile" && k != "runner")
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
