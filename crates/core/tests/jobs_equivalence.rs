//! The worker count must be invisible in the results.
//!
//! `--jobs N` is the one way to run a campaign in parallel, and a pure
//! throughput knob: the runner merges outcomes by submission index, so
//! the final report — both the headline stdout and the `--stats-out`
//! dump — is what a run on any other worker count produces. These
//! tests run the real `repro` binary on the fig7 + fig14 workload and
//! hold that line byte-for-byte across worker counts, including a
//! count (7) that divides neither the CPU nor the GPU job total, each
//! on a cold cache directory of its own.
//!
//! One carve-out: the `runner` section of the stats dump is declared
//! nondeterministic by the schema (`RunnerStats::DETERMINISTIC` is
//! false — wall-clock timings and hit provenance legitimately move
//! between runs), so dumps are compared with that key removed. Stdout
//! carries no runner timings and is compared whole.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

use serde::value::Value;

/// Instruction budget: small enough that a cold campaign is quick,
/// large enough that every design retires real work.
const INSTS: &str = "2000";

/// Worker counts under test: the serial reference order, even splits,
/// and a count that neither divides the CPU nor the GPU job total.
const JOB_COUNTS: [&str; 4] = ["1", "2", "4", "7"];

fn repro(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(args)
        .output()
        .expect("repro runs")
}

fn scratch() -> PathBuf {
    std::env::temp_dir().join(format!("hetcore-jobs-eq-{}", std::process::id()))
}

/// Parses a stats dump and drops the schema-declared-nondeterministic
/// `runner` section; everything else must match exactly.
fn deterministic_dump(path: &Path) -> Value {
    let text = std::fs::read_to_string(path)
        .unwrap_or_else(|e| panic!("stats dump at {} readable: {e}", path.display()));
    let mut dump: Value = serde_json::from_str(&text).expect("stats dump parses");
    match &mut dump {
        Value::Object(entries) => entries.retain(|(key, _)| key != "runner"),
        other => panic!("stats dump is not an object: {other:?}"),
    }
    dump
}

#[test]
fn cold_runs_match_at_every_job_count_byte_for_byte() {
    let base = scratch();
    let _ = std::fs::remove_dir_all(&base);
    std::fs::create_dir_all(&base).expect("scratch dir");

    // ---- reference: a plain run on the default worker count ----
    let ref_stats = base.join("reference.stats.json");
    let reference = repro(&[
        "--insts",
        INSTS,
        "--format",
        "json",
        "--stats-out",
        &ref_stats.to_string_lossy(),
        "fig7",
        "fig14",
    ]);
    assert!(
        reference.status.success(),
        "reference run fails: {}",
        String::from_utf8_lossy(&reference.stderr)
    );
    let ref_dump = deterministic_dump(&ref_stats);

    // ---- every worker count reproduces it exactly ----
    for jobs in JOB_COUNTS {
        // A fresh cache directory per worker count: each run is a
        // genuinely cold campaign, not a warm read of the last one.
        let cache = base.join(format!("cache-{jobs}"));
        let stats = base.join(format!("jobs-{jobs}.stats.json"));
        let out = repro(&[
            "--insts",
            INSTS,
            "--format",
            "json",
            "--cache-dir",
            &cache.to_string_lossy(),
            "--stats-out",
            &stats.to_string_lossy(),
            "--jobs",
            jobs,
            "fig7",
            "fig14",
        ]);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(out.status.success(), "--jobs {jobs} fails: {stderr}");
        assert_eq!(
            reference.stdout, out.stdout,
            "stdout must be byte-identical at --jobs {jobs}"
        );
        assert_eq!(
            ref_dump,
            deterministic_dump(&stats),
            "stats dump (minus the nondeterministic `runner` section) \
             must match at --jobs {jobs}"
        );
    }

    let _ = std::fs::remove_dir_all(&base);
}

/// The exploration engine makes a stronger promise than the campaign
/// path: its runner feeds deterministic counters, so the frontier dump
/// — `runner` section included — is byte-identical at any worker count.
/// Cold caches per worker count keep the comparison honest (no run
/// reads another's results).
#[test]
fn explore_frontier_dumps_match_across_job_counts() {
    let base = scratch().with_file_name(format!("hetcore-jobs-eq-explore-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&base);
    std::fs::create_dir_all(&base).expect("scratch dir");

    let dump_for = |jobs: &str| -> String {
        let cache = base.join(format!("cache-{jobs}"));
        let out_path = base.join(format!("frontier-{jobs}.json"));
        let out = repro(&[
            "explore",
            "--budget",
            "12",
            "--seed",
            "42",
            "--insts",
            INSTS,
            "--jobs",
            jobs,
            "--cache-dir",
            &cache.to_string_lossy(),
            "--frontier-out",
            &out_path.to_string_lossy(),
        ]);
        assert!(
            out.status.success(),
            "explore --jobs {jobs} fails: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        std::fs::read_to_string(&out_path).expect("frontier dump written")
    };

    let reference = dump_for("1");
    for jobs in ["2", "4"] {
        assert_eq!(
            reference,
            dump_for(jobs),
            "frontier dump must be byte-identical at --jobs {jobs}"
        );
    }

    let _ = std::fs::remove_dir_all(&base);
}
