//! End-to-end smoke tests for the observability layer.
//!
//! Runs the real `repro` binary on the fig7 campaign with tracing
//! enabled and checks the whole chain: the JSONL event log parses and
//! validates clean, `trace-export` emits loadable Chrome trace-event
//! JSON, `check --trace-in` accepts the recorded trace and rejects a
//! perturbed one — and, the headline guarantee, stdout stays
//! byte-identical whether or not tracing and progress lines are on.
//! With both on, stderr holds one whole `[runner]` line per progress
//! instant in the trace.

use std::path::PathBuf;
use std::process::{Command, Output};

use hetsim_obs::{parse_jsonl, validate_events, EventKind, TraceEvent};
use serde::value::Value;

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
    std::env::temp_dir().join(format!("hetcore-trace-smoke-{}-{name}", std::process::id()))
}

fn names_of(events: &[TraceEvent], want_span: bool) -> Vec<&str> {
    events
        .iter()
        .filter(|e| matches!(e.kind, EventKind::Span { .. }) == want_span)
        .map(|e| e.name.as_str())
        .collect()
}

/// Runs fig7 with `--trace-out` (and `extra` flags) and returns the
/// parsed log, which must validate clean.
fn record_fig7(trace_path: &std::path::Path, extra: &[&str]) -> Vec<TraceEvent> {
    let trace_arg = trace_path.to_string_lossy();
    let mut args = vec![
        "--insts",
        INSTS,
        "--format",
        "json",
        "--trace-out",
        &trace_arg,
    ];
    args.extend(extra);
    args.push("fig7");
    let out = repro(&args);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "traced run fails: {stderr}");
    assert!(
        stderr.contains("trace event(s)"),
        "narrates the trace write: {stderr}"
    );
    let text = std::fs::read_to_string(trace_path).expect("trace written");
    let events = parse_jsonl(&text).expect("trace parses");
    assert_eq!(validate_events(&events), Vec::<String>::new());
    assert!(
        names_of(&events, false).contains(&"job-finished"),
        "trace has job-finished instants"
    );
    events
}

#[test]
fn fig7_trace_records_exports_and_validates() {
    let trace_path = tmp("trace.jsonl");
    let chrome_path = tmp("trace.json");
    let cache_dir = tmp("cache");
    let _ = std::fs::remove_dir_all(&cache_dir);
    let trace_arg = trace_path.to_string_lossy().into_owned();
    let chrome_arg = chrome_path.to_string_lossy().into_owned();

    // ---- record: repro --trace-out writes a JSONL span log ----
    // With a cache directory the log covers every span kind the runner
    // emits plus the campaign scope wrapped around it.
    let events = record_fig7(&trace_path, &["--cache-dir", &cache_dir.to_string_lossy()]);
    let spans = names_of(&events, true);
    for name in [
        "cpu-campaign",
        "batch",
        "cache-lookup",
        "simulate",
        "cache-write",
    ] {
        assert!(spans.contains(&name), "trace has a `{name}` span");
    }
    // A job whose lookup span is gone is a violation.
    let mut unlooked = events.clone();
    let lookup = unlooked
        .iter()
        .position(|e| e.name == "cache-lookup")
        .expect("a lookup span");
    unlooked.remove(lookup);
    let violations = validate_events(&unlooked);
    assert_eq!(violations.len(), 1, "{violations:?}");
    assert!(violations[0].contains("no matching `cache-lookup` span"));

    // Without one, the runner has no cache phases to record.
    let uncached_path = tmp("uncached.jsonl");
    let uncached = record_fig7(&uncached_path, &[]);
    let spans = names_of(&uncached, true);
    for name in ["cpu-campaign", "batch", "simulate"] {
        assert!(spans.contains(&name), "trace has a `{name}` span");
    }
    for name in ["cache-lookup", "cache-write"] {
        assert!(!spans.contains(&name), "no-cache trace has a `{name}` span");
    }

    // ---- export: Chrome trace-event JSON, Perfetto-loadable ----
    let out = repro(&["trace-export", &trace_arg, &chrome_arg]);
    assert!(
        out.status.success(),
        "trace-export fails: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let chrome_text = std::fs::read_to_string(&chrome_path).expect("chrome trace written");
    let doc: Value = serde_json::from_str(&chrome_text).expect("chrome trace is valid JSON");
    assert_eq!(
        doc.get("displayTimeUnit").and_then(Value::as_str),
        Some("ms")
    );
    let trace_events = doc
        .get("traceEvents")
        .and_then(Value::as_array)
        .expect("traceEvents array");
    let phase_of = |e: &Value| e.get("ph").and_then(Value::as_str).map(str::to_string);
    for ph in ["X", "i", "M"] {
        assert!(
            trace_events
                .iter()
                .any(|e| phase_of(e).as_deref() == Some(ph)),
            "chrome trace has a '{ph}' event"
        );
    }
    assert!(
        trace_events
            .iter()
            .any(|e| e.get("name").and_then(Value::as_str) == Some("simulate")),
        "chrome trace keeps the simulate spans"
    );

    // ---- validate: check --trace-in accepts the recorded trace ----
    let out = repro(&["check", "--trace-in", &trace_arg]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "check rejects a good trace: {stdout}");
    assert!(stdout.contains("0 violation(s)"), "{stdout}");

    // ---- ... and rejects a perturbed one (inverted span) ----
    let mut broken = events;
    let victim = broken
        .iter_mut()
        .find(|e| e.name == "simulate")
        .expect("a simulate span to perturb");
    if let EventKind::Span { start_us, end_us } = &mut victim.kind {
        *start_us = *end_us + 1_000; // now ends before it starts
    }
    let bad_path = tmp("broken.jsonl");
    let bad_jsonl: String = broken
        .iter()
        .map(|e| {
            let mut line =
                serde_json::to_string(&serde::Serialize::to_value(e)).expect("serializes");
            line.push('\n');
            line
        })
        .collect();
    std::fs::write(&bad_path, bad_jsonl).expect("write perturbed trace");
    let out = repro(&[
        "check",
        "--trace-in",
        &bad_path.to_string_lossy(),
        "--format",
        "json",
    ]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(!out.status.success(), "perturbed trace must fail: {stdout}");
    assert!(stdout.contains("ends before it starts"), "{stdout}");

    for path in [&trace_path, &chrome_path, &bad_path, &uncached_path] {
        let _ = std::fs::remove_file(path);
    }
    let _ = std::fs::remove_dir_all(&cache_dir);
}

#[test]
fn stdout_is_byte_identical_with_and_without_tracing() {
    let trace_path = tmp("identity.jsonl");
    let trace_arg = trace_path.to_string_lossy().into_owned();

    let plain = repro(&["--insts", INSTS, "--format", "json", "fig7"]);
    assert!(plain.status.success());

    // Tracing *and* progress lines on: the report bytes must not move
    // at all.
    let traced = repro(&[
        "--insts",
        INSTS,
        "--format",
        "json",
        "--trace-out",
        &trace_arg,
        "--progress",
        "fig7",
    ]);
    let stderr = String::from_utf8_lossy(&traced.stderr);
    assert!(traced.status.success(), "traced run fails: {stderr}");
    assert_eq!(
        plain.stdout, traced.stdout,
        "stdout must stay byte-identical under --trace-out + --progress"
    );
    assert!(
        stderr.contains("[runner] done:"),
        "progress lines go to stderr: {stderr}"
    );

    let _ = std::fs::remove_file(&trace_path);
}

/// The `key` arg of `event`, rendered.
fn arg(event: &TraceEvent, key: &str) -> String {
    let found = event.args.iter().find(|(k, _)| k == key);
    found.map_or_else(|| panic!("`{key}` arg"), |(_, v)| v.render())
}

#[test]
fn progress_lines_match_the_traced_instants_one_for_one() {
    let cache_dir = tmp("progress-cache");
    let _ = std::fs::remove_dir_all(&cache_dir);
    let cache_arg = cache_dir.to_string_lossy().into_owned();
    // Cold, every job runs; warm, every job is a disk hit.
    for (round, provenance) in [("cold", "ran"), ("warm", "disk")] {
        let trace_path = tmp(&format!("progress-{round}.jsonl"));
        let trace_arg = trace_path.to_string_lossy().into_owned();
        let out = repro(&[
            "--insts",
            INSTS,
            "--format",
            "json",
            "--jobs",
            "4",
            "--cache-dir",
            &cache_arg,
            "--trace-out",
            &trace_arg,
            "--progress",
            "fig7",
        ]);
        let stderr = String::from_utf8(out.stderr).expect("utf-8 stderr");
        assert!(out.status.success(), "{round} run fails: {stderr}");
        assert!(
            !stderr.contains('\x1b'),
            "{round}: an escape byte: {stderr}"
        );
        let text = std::fs::read_to_string(&trace_path).expect("trace written");
        let events = parse_jsonl(&text).expect("trace parses");
        let instants = |name: &str| -> Vec<&TraceEvent> {
            let named = events.iter().filter(|e| e.name == name);
            named
                .filter(|e| matches!(e.kind, EventKind::Instant { .. }))
                .collect()
        };

        // Every `[runner]` line is whole: it starts the line and
        // appears in it once.
        let lines: Vec<&str> = stderr.lines().filter(|l| l.contains("[runner]")).collect();
        for line in &lines {
            assert!(line.starts_with("[runner] "), "torn line: {line:?}");
            assert_eq!(line.matches("[runner]").count(), 1, "torn line: {line:?}");
        }
        let started: Vec<String> = instants("batch-started")
            .iter()
            .map(|e| format!("[runner] {} jobs on 4 worker(s)", arg(e, "total")))
            .collect();
        let done: Vec<String> = instants("batch-finished")
            .iter()
            .map(|e| {
                let (jobs, executed) = (arg(e, "jobs"), arg(e, "executed"));
                let cached = arg(e, "cache_hits");
                format!("[runner] done: {jobs} jobs, {executed} executed, {cached} cached (")
            })
            .collect();
        assert_eq!((started.len(), done.len()), (1, 1), "{round}: one batch");
        let mut expected: Vec<String> = instants("job-finished")
            .iter()
            .map(|e| {
                let (k, n) = (arg(e, "done"), arg(e, "total"));
                let (job, tag) = (arg(e, "job"), arg(e, "provenance"));
                assert_eq!(tag, provenance, "{round}: {job}");
                format!("[runner] {k}/{n} {job} ({tag})")
            })
            .collect();
        assert_eq!(expected.len(), 154, "{round}: one instant per fig7 job");

        let is_done = |l: &&&str| l.starts_with(done[0].as_str());
        assert_eq!(lines.iter().filter(is_done).count(), 1, "{round}: {stderr}");
        assert_eq!(lines.iter().filter(|l| **l == started[0]).count(), 1);
        let mut printed: Vec<String> = lines
            .iter()
            .filter(|l| !is_done(l) && **l != started[0])
            .map(|l| l.to_string())
            .collect();
        printed.sort();
        expected.sort();
        assert_eq!(
            printed, expected,
            "{round}: one line per job-finished instant"
        );
        let _ = std::fs::remove_file(&trace_path);
    }
    let _ = std::fs::remove_dir_all(&cache_dir);
}
