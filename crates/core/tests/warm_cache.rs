//! Every simulation a run performs goes through the job runner, so a
//! warm result cache answers all of them.
//!
//! A cold `repro all ext` executes each distinct job once — the CPU
//! campaign (154), Figure 14 (36) and the migration study's
//! characterisation runs (28); the GPU campaign (100) and the partitioned-RF
//! (20) and scheduling (40) launches the campaign lacks. A warm rerun
//! over the same cache directory executes none, prints the same report,
//! and reports the event-driven skip counts the cold run did: they are
//! folded from every answered job's observations, hit or executed.
//!
//! A cache directory is also what a process shares and what survives
//! one: two runs racing on one directory leave it clean, and a run
//! killed mid-campaign leaves the records it finished, so a rerun
//! executes only the rest.

use std::path::{Path, PathBuf};
use std::process::{Child, Command, Output, Stdio};
use std::time::Duration;

use serde::value::Value;

fn repro_cmd() -> Command {
    Command::new(env!("CARGO_BIN_EXE_repro"))
}

fn repro(args: &[&str]) -> Output {
    let out = repro_cmd().args(args).output().expect("repro runs");
    assert!(
        out.status.success(),
        "{args:?} fails: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    out
}

/// A directory path for `test`, cleared of an earlier run's files.
fn scratch(test: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("hetcore-warm-cache-{}-{test}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// A `repro` run in the background, its output discarded.
fn spawn(args: &[&str]) -> Child {
    let mut cmd = repro_cmd();
    cmd.args(args).stdout(Stdio::null()).stderr(Stdio::null());
    cmd.spawn().expect("repro spawns")
}

/// The stats dump at `path`.
fn read_dump(path: &Path) -> Value {
    let text = std::fs::read_to_string(path).expect("stats dump written");
    serde_json::from_str(&text).expect("stats dump parses")
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
    (out.stdout, read_dump(stats))
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
    let base = scratch("all-ext");
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
            let path = ["runner", runner, skip];
            assert!(counter(&cold, &path) > 0, "a cold {runner} runner skips");
            assert_eq!(
                counter(&warm, &path),
                counter(&cold, &path),
                "a warm {runner} runner folds the {skip} its cached jobs observed"
            );
        }
    }
    for dump in [&cold, &warm] {
        let runner = dump.get("runner").expect("runner section");
        assert!(
            runner.get("timing").is_none(),
            "no runner.timing: {runner:?}"
        );
    }

    let _ = std::fs::remove_dir_all(&base);
}

#[test]
fn concurrent_runs_share_a_cache_without_corruption() {
    let base = scratch("race");
    let cache = base.join("cache");
    let cache_arg = cache.to_string_lossy().into_owned();
    let reference = repro(&["--insts", "2000", "--format", "json", "fig7"]).stdout;

    // Two runs race every fig7 job on one directory. Each appends to
    // segments of its own, and duplicate records of one key hold
    // identical bytes, so both must succeed.
    let race = [
        "--insts",
        "2000",
        "--jobs",
        "2",
        "--cache-dir",
        &cache_arg,
        "fig7",
    ];
    let racers = [spawn(&race), spawn(&race)];
    for mut racer in racers {
        let status = racer.wait().expect("repro finishes");
        assert!(status.success(), "a racing run fails: {status}");
    }

    // The shared cache is complete and clean: a warm run answers every
    // job from disk and reproduces the reference bytes.
    let stats = base.join("warm.json");
    let warm = repro(&[
        "--insts",
        "2000",
        "--format",
        "json",
        "--cache-dir",
        &cache_arg,
        "--stats-out",
        &stats.to_string_lossy(),
        "fig7",
    ]);
    assert_eq!(reference, warm.stdout, "a warm read reproduces the report");
    let dump = read_dump(&stats);
    assert_eq!(counter(&dump, &["runner", "cpu", "executed"]), 0);
    assert_eq!(
        counter(&dump, &["runner", "cpu", "cache", "disk_hits"]),
        154
    );
    assert_eq!(
        counter(&dump, &["runner", "cpu", "cache", "corrupt_files"]),
        0,
        "the racing runs left no corrupt record"
    );

    let _ = std::fs::remove_dir_all(&base);
}

/// The bytes of every cache segment in `dir` (0 before it exists).
fn segment_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    let segments = entries
        .flatten()
        .filter(|e| e.path().extension().is_some_and(|x| x == "seg"));
    segments
        .filter_map(|e| e.metadata().ok())
        .map(|m| m.len())
        .sum()
}

#[test]
fn a_killed_cached_run_resumes_where_it_stopped() {
    let base = scratch("killed");
    let cache = base.join("cache");
    let cache_arg = cache.to_string_lossy().into_owned();
    let run = [
        "--insts", "20000", "--jobs", "2", "--format", "json", "fig7",
    ];
    let reference = repro(&run).stdout;

    // SIGKILL the run once its segments pass 64 KiB (about a dozen of
    // the 154 records), or let it finish if it gets there first.
    let mut victim = spawn(&[&run[..], &["--cache-dir", &cache_arg]].concat());
    while victim.try_wait().expect("poll the run").is_none() {
        if segment_bytes(&cache) > 64 * 1024 {
            victim.kill().expect("SIGKILL the run");
            break;
        }
        std::thread::sleep(Duration::from_millis(2));
    }
    victim.wait().expect("reap the run");

    // The rerun executes only what the killed run did not store, at
    // most one record torn by the kill reads as corrupt, and the report
    // is the uncached run's.
    let stats = base.join("rerun.json");
    let stats_arg = stats.to_string_lossy();
    let extra = ["--cache-dir", &cache_arg, "--stats-out", &stats_arg];
    let rerun = repro(&[&run[..], &extra].concat());
    assert_eq!(
        reference, rerun.stdout,
        "the rerun prints the uncached report"
    );
    let dump = read_dump(&stats);
    let jobs = counter(&dump, &["runner", "cpu", "jobs"]);
    let executed = counter(&dump, &["runner", "cpu", "executed"]);
    assert!(
        executed < jobs,
        "the rerun executed {executed} of {jobs} jobs"
    );
    let corrupt = counter(&dump, &["runner", "cpu", "cache", "corrupt_files"]);
    assert!(corrupt <= 1, "{corrupt} corrupt records");

    let _ = std::fs::remove_dir_all(&base);
}
