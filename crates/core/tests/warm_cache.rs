//! Every simulation a run performs goes through the job runner, so a
//! warm result cache answers all of them.
//!
//! A cold `repro all ext` executes each distinct job once — the CPU
//! campaign (154), Figure 14 (36) and the migration study's
//! characterisation runs (28); the GPU campaign (100) and the partitioned-RF
//! (20) and scheduling (40) launches the campaign lacks. A warm rerun
//! over the same cache directory executes none, prints the same report,
//! and charges no event-driven skip telemetry to runners that ran
//! nothing.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

use serde::value::Value;

fn repro(args: &[&str]) -> Output {
    let out = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(args)
        .output()
        .expect("repro runs");
    assert!(
        out.status.success(),
        "{args:?} fails: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    out
}

fn scratch() -> PathBuf {
    std::env::temp_dir().join(format!("hetcore-warm-cache-{}", std::process::id()))
}

/// Runs `repro --quick all ext` over `cache`, returning stdout and the
/// stats dump.
fn run_all_ext(cache: &Path, stats: &Path) -> (Vec<u8>, Value) {
    let out = repro(&[
        "--quick",
        "--jobs",
        "2",
        "--cache-dir",
        &cache.to_string_lossy(),
        "--stats-out",
        &stats.to_string_lossy(),
        "all",
        "ext",
    ]);
    let text = std::fs::read_to_string(stats).expect("stats dump written");
    (
        out.stdout,
        serde_json::from_str(&text).expect("stats dump parses"),
    )
}

fn counter(dump: &Value, path: &[&str]) -> u64 {
    let mut v = dump;
    for key in path {
        v = v
            .get(key)
            .unwrap_or_else(|| panic!("dump has {}", path.join(".")));
    }
    match v {
        Value::UInt(n) => *n,
        other => panic!("{} is not a count: {other:?}", path.join(".")),
    }
}

#[test]
fn a_warm_all_ext_run_simulates_nothing() {
    let base = scratch();
    let _ = std::fs::remove_dir_all(&base);
    let cache = base.join("cache");

    let (cold_stdout, cold) = run_all_ext(&cache, &base.join("cold.json"));
    for (runner, jobs) in [("cpu", 154 + 36 + 28), ("gpu", 100 + 20 + 40)] {
        assert_eq!(
            counter(&cold, &["runner", runner, "jobs"]),
            jobs,
            "{runner} batch"
        );
        assert_eq!(
            counter(&cold, &["runner", runner, "executed"]),
            jobs,
            "a cold {runner} batch executes each distinct job once"
        );
    }

    let (warm_stdout, warm) = run_all_ext(&cache, &base.join("warm.json"));
    assert_eq!(cold_stdout, warm_stdout, "warm stdout is byte-identical");
    for runner in ["cpu", "gpu"] {
        assert_eq!(
            counter(&warm, &["runner", runner, "executed"]),
            0,
            "{runner}"
        );
        for skip in ["skipped_cycles", "wakeup_jumps"] {
            assert_eq!(
                counter(&warm, &["runner", "timing", runner, skip]),
                0,
                "a warm {runner} runner simulated nothing, so it skipped nothing"
            );
        }
    }

    let _ = std::fs::remove_dir_all(&base);
}
