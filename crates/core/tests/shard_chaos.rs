//! Crash-recovery and shared-cache contention tests for the shard
//! protocol.
//!
//! The supervisor's promise is stronger than "usually works": a worker
//! that dies mid-shard is retried with bounded backoff and the final
//! report is still byte-identical to an undisturbed run, while a shard
//! that keeps dying exhausts its attempts and fails the whole campaign
//! loudly. These tests drive both paths through the real `repro`
//! binary using the `HETSIM_SHARD_FAIL` fault-injection hook
//! (`<shard>` crashes that shard's first attempt halfway through;
//! `<shard>:always` crashes every attempt).
//!
//! Two tests hold the supervisor's own narration: a healed run reports
//! each job once, and the batch summary counts from the manifests and
//! times the supervisor's wall clock, not the sum of the workers'.
//!
//! The last test attacks the other shared resource: two full-campaign
//! workers race on one `--cache-dir`. Because each cache handle appends
//! whole records to a segment of its own and both workers compute
//! identical values for identical keys, the race must leave no corrupt
//! records and a warm read of the shared cache must answer every job
//! from disk.

use std::path::PathBuf;
use std::process::{Command, Output};
use std::time::Instant;

use serde::value::Value;

/// Instruction budget for all runs (small, but real work per design).
const INSTS: &str = "2000";

fn repro_cmd() -> Command {
    Command::new(env!("CARGO_BIN_EXE_repro"))
}

fn repro(args: &[&str]) -> Output {
    repro_cmd().args(args).output().expect("repro runs")
}

fn scratch(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("hetcore-shard-chaos-{}-{name}", std::process::id()))
}

fn fresh_dir(name: &str) -> PathBuf {
    let dir = scratch(name);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

/// The undisturbed single-process fig7 report every scenario must
/// reproduce.
fn reference_stdout() -> Vec<u8> {
    let out = repro(&["--insts", INSTS, "--format", "json", "fig7"]);
    assert!(
        out.status.success(),
        "reference run fails: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    out.stdout
}

#[test]
fn crashed_worker_is_retried_and_the_report_is_unchanged() {
    let cache = fresh_dir("retry-cache");
    let reference = reference_stdout();

    // Shard 1's first attempt dies halfway through its jobs, before it
    // writes a manifest; the supervisor must notice, back off, retry,
    // and finish with exit 0 and byte-identical output.
    let out = repro_cmd()
        .env("HETSIM_SHARD_FAIL", "1")
        .args([
            "--insts",
            INSTS,
            "--format",
            "json",
            "--cache-dir",
            &cache.to_string_lossy(),
            "--shards",
            "2",
            "fig7",
        ])
        .output()
        .expect("repro runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "chaos run must recover: {stderr}");
    assert!(
        stderr.contains("retrying shard 1"),
        "supervisor narrates the retry: {stderr}"
    );
    assert_eq!(
        reference, out.stdout,
        "report must be byte-identical despite the mid-shard crash"
    );

    let _ = std::fs::remove_dir_all(&cache);
}

#[test]
fn a_persistently_crashing_shard_fails_the_campaign_loudly() {
    let cache = fresh_dir("exhaust-cache");

    // `:always` crashes every attempt: retries must run out and the
    // campaign must fail with a nonzero exit and a clear error naming
    // the shard and the attempt budget.
    let out = repro_cmd()
        .env("HETSIM_SHARD_FAIL", "1:always")
        .args([
            "--insts",
            INSTS,
            "--format",
            "json",
            "--cache-dir",
            &cache.to_string_lossy(),
            "--shards",
            "2",
            "fig7",
        ])
        .output()
        .expect("repro runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        !out.status.success(),
        "exhausted retries must fail the run: {stderr}"
    );
    assert!(
        stderr.contains("shard 1 failed after") && stderr.contains("attempt"),
        "error names the shard and the attempt budget: {stderr}"
    );

    let _ = std::fs::remove_dir_all(&cache);
}

/// The `(done, total)` of every `[runner] D/T label (tag)` line, and
/// the `[runner] done: ...` summary line. Workers and the supervisor
/// write each stderr line whole, so every line starts with its own tag.
fn narration(stderr: &str) -> (Vec<(u64, u64)>, &str) {
    let mut progress = Vec::new();
    let mut summary = None;
    for line in stderr.lines() {
        let Some(rest) = line.strip_prefix("[runner] ") else {
            continue;
        };
        if rest.starts_with("done:") {
            summary = Some(rest);
        } else if let Some((done, tail)) = rest.split_once('/') {
            let total = tail.split(' ').next().expect("a count");
            if let (Ok(done), Ok(total)) = (done.parse(), total.parse()) {
                progress.push((done, total));
            }
        }
    }
    (progress, summary.expect("a batch summary line"))
}

/// The number just before `word` in `line`.
fn count_before(line: &str, word: &str) -> f64 {
    let head = &line[..line
        .find(word)
        .unwrap_or_else(|| panic!("`{word}` in {line}"))];
    let number = head.trim_end().rsplit(' ').next().expect("a number");
    number
        .parse()
        .unwrap_or_else(|_| panic!("a number before `{word}` in {line}"))
}

#[test]
fn a_healed_run_narrates_each_job_once() {
    let cache = fresh_dir("narrate-cache");
    // Shard 1's crashed attempt finished half its jobs; its retry
    // answers them from the cache and narrates them again. The
    // supervisor must count each job once.
    let out = repro_cmd()
        .env("HETSIM_SHARD_FAIL", "1")
        .args([
            "--insts",
            INSTS,
            "--cache-dir",
            &cache.to_string_lossy(),
            "--shards",
            "2",
            "--progress",
            "fig7",
        ])
        .output()
        .expect("repro runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "chaos run must recover: {stderr}");
    // The crashed worker's message reaches the shared stderr whole, not
    // split around the supervisor's progress lines.
    let crash_lines: Vec<&str> = stderr
        .lines()
        .filter(|line| line.contains("HETSIM_SHARD_FAIL"))
        .collect();
    assert!(
        !crash_lines.is_empty(),
        "the worker says why it died: {stderr}"
    );
    for line in crash_lines {
        assert!(line.starts_with("[shard "), "torn crash line: {line:?}");
    }
    let (progress, summary) = narration(&stderr);
    assert_eq!(progress.len(), 154, "one line per fig7 job: {stderr}");
    for (done, total) in &progress {
        assert!(done <= total, "progress overran its total: {done}/{total}");
    }
    assert_eq!(
        progress.last(),
        Some(&(154, 154)),
        "the last line completes"
    );
    // The committed manifests count the retry's cache hits as cached.
    let (jobs, executed) = (
        count_before(summary, "jobs"),
        count_before(summary, "executed"),
    );
    let cached = count_before(summary, "cached");
    assert_eq!(jobs, 154.0, "{summary}");
    assert_eq!(executed + cached, jobs, "{summary}");
    assert!(
        cached > 0.0,
        "the crashed attempt's jobs were cached: {summary}"
    );
    let _ = std::fs::remove_dir_all(&cache);
}

#[test]
fn the_sharded_summary_times_the_supervisors_own_wall() {
    let cache = fresh_dir("wall-cache");
    // Two workers run concurrently, so the sum of their batch walls
    // exceeds the run's own; the summary must report the latter.
    let started = Instant::now();
    let out = repro(&[
        "--insts",
        "20000",
        "--jobs",
        "2",
        "--cache-dir",
        &cache.to_string_lossy(),
        "--shards",
        "2",
        "--progress",
        "fig7",
    ]);
    let elapsed = started.elapsed().as_secs_f64();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "sharded run fails: {stderr}");
    let (_, summary) = narration(&stderr);
    let wall = count_before(summary, "s wall");
    // The summary prints two decimals.
    assert!(
        wall <= elapsed + 0.005,
        "summary wall {wall} s exceeds the run's {elapsed:.3} s: {summary}"
    );
    assert_eq!(count_before(summary, "executed"), 154.0, "{summary}");

    // A manifest is a worker's only commit record.
    let mut files: Vec<String> = std::fs::read_dir(cache.join("shards"))
        .expect("shard directory")
        .map(|e| e.expect("entry").file_name().to_string_lossy().into_owned())
        .collect();
    files.sort();
    assert_eq!(files, ["shard-0.manifest.json", "shard-1.manifest.json"]);
    let _ = std::fs::remove_dir_all(&cache);
}

#[test]
fn concurrent_workers_share_a_cache_without_corruption() {
    let cache = fresh_dir("contend-cache");
    let reference = reference_stdout();

    // Two full-coverage workers (--shard 0 --shards 1) race every
    // cache entry on the same directory. Both must succeed: each
    // appends to its own segments, and duplicate records of one key
    // hold identical bytes.
    let mut workers = Vec::new();
    for worker in 0..2 {
        let out_dir = fresh_dir(&format!("contend-out-{worker}"));
        let child = repro_cmd()
            .args([
                "shard-worker",
                "--shard",
                "0",
                "--shards",
                "1",
                "--cache-dir",
                &cache.to_string_lossy(),
                "--out-dir",
                &out_dir.to_string_lossy(),
                "--insts",
                INSTS,
                "--jobs",
                "2",
                "fig7",
            ])
            .stdout(std::process::Stdio::null())
            .spawn()
            .expect("worker spawns");
        workers.push((child, out_dir));
    }
    for (child, out_dir) in &mut workers {
        let status = child.wait().expect("worker finishes");
        assert!(status.success(), "contending worker must still succeed");
        let _ = std::fs::remove_dir_all(out_dir);
    }

    // The shared cache must now be complete and clean: a warm
    // single-process run answers every CPU job from disk (executed 0,
    // zero corrupt entries) and reproduces the reference bytes.
    let stats = scratch("contend.stats.json");
    let out = repro(&[
        "--insts",
        INSTS,
        "--format",
        "json",
        "--cache-dir",
        &cache.to_string_lossy(),
        "--stats-out",
        &stats.to_string_lossy(),
        "fig7",
    ]);
    assert!(
        out.status.success(),
        "warm read fails: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert_eq!(reference, out.stdout, "warm read reproduces the report");

    let text = std::fs::read_to_string(&stats).expect("stats dump written");
    let dump: Value = serde_json::from_str(&text).expect("stats dump parses");
    let runner = dump
        .get("runner")
        .and_then(|r| r.get("cpu"))
        .expect("dump has a runner.cpu section");
    let field = |name: &str| runner.get(name).and_then(Value::as_u64);
    assert_eq!(field("executed"), Some(0), "every job served from cache");
    assert_eq!(
        runner
            .get("cache")
            .and_then(|c| c.get("corrupt_files"))
            .and_then(Value::as_u64),
        Some(0),
        "the racing writers left no corrupt cache entries"
    );

    let _ = std::fs::remove_dir_all(&cache);
    let _ = std::fs::remove_file(&stats);
}
