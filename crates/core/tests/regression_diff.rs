//! End-to-end tests of the regression-diff workflow through the real
//! `repro` binary: `diff`, `baseline` and `ci-gate`, plus the failure
//! modes (corrupted dumps must produce a clear error and a non-zero
//! exit, never a panic) and the atomic `--stats-out` write path.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("hetcore-regdiff-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create temp dir");
    dir
}

fn repro(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(args)
        .output()
        .expect("repro runs")
}

/// Runs fig14 (device-level table, no campaign — fast) with
/// `--stats-out` and returns the dump path.
fn write_dump(dir: &Path, name: &str) -> PathBuf {
    let path = dir.join(name);
    let out = repro(&[
        "fig14",
        "--insts",
        "800",
        "--stats-out",
        path.to_str().expect("utf-8 path"),
    ]);
    assert!(
        out.status.success(),
        "repro failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    path
}

#[test]
fn identical_runs_diff_clean_with_exit_zero() {
    let dir = temp_dir("clean");
    let a = write_dump(&dir, "a.json");
    let b = write_dump(&dir, "b.json");
    let out = repro(&["diff", a.to_str().unwrap(), b.to_str().unwrap()]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "clean diff must exit 0: {stdout}");
    assert!(stdout.contains("clean"), "summary says clean: {stdout}");
    std::fs::remove_dir_all(&dir).expect("cleanup");
}

#[test]
fn a_single_perturbed_counter_fails_naming_the_culprit() {
    let dir = temp_dir("perturb");
    let a = write_dump(&dir, "a.json");
    // Perturb exactly one report cell by text surgery: fig14 dumps
    // carry the rendered report values as their diffable payload.
    let text = std::fs::read_to_string(&a).expect("dump readable");
    let needle = "\"insts\": 800";
    assert!(text.contains(needle), "run section present");
    let perturbed = dir.join("perturbed.json");
    // Keep the run section identical; bump a report cell instead. The
    // first numeric cell lives in the reports section after "rows".
    let rows_at = text.find("\"rows\"").expect("reports have rows");
    let cell_at = text[rows_at..]
        .find("0.")
        .map(|i| rows_at + i)
        .expect("a fractional report cell");
    let mut mutated = text.clone();
    mutated.replace_range(cell_at..cell_at + 2, "9.");
    std::fs::write(&perturbed, &mutated).expect("write perturbed dump");

    let out = repro(&["diff", a.to_str().unwrap(), perturbed.to_str().unwrap()]);
    assert!(!out.status.success(), "perturbed diff must exit non-zero");
    let stdout = String::from_utf8_lossy(&out.stdout);
    // The report names the path, the values, the delta and the
    // violated tolerance.
    assert!(stdout.contains("regression"), "summary: {stdout}");
    assert!(
        stdout.contains("report."),
        "names the report path: {stdout}"
    );
    assert!(
        stdout.contains("baseline"),
        "shows baseline value: {stdout}"
    );
    assert!(
        stdout.contains("candidate"),
        "shows candidate value: {stdout}"
    );
    assert!(
        stdout.contains("tolerance"),
        "names the tolerance: {stdout}"
    );
    std::fs::remove_dir_all(&dir).expect("cleanup");
}

#[test]
fn truncated_dump_fails_with_a_clear_error_not_a_panic() {
    let dir = temp_dir("truncated");
    let good = write_dump(&dir, "good.json");
    let bad = dir.join("bad.json");
    let text = std::fs::read_to_string(&good).expect("dump readable");
    std::fs::write(&bad, &text[..text.len() / 2]).expect("write truncated dump");

    let out = repro(&["diff", bad.to_str().unwrap(), good.to_str().unwrap()]);
    assert!(!out.status.success(), "truncated dump must fail");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("bad.json") && stderr.contains("not valid JSON"),
        "error names the file and the problem: {stderr}"
    );
    assert!(!stderr.contains("panicked"), "no panic: {stderr}");
    std::fs::remove_dir_all(&dir).expect("cleanup");
}

/// A dump that gives a counter twice is an error naming the key, not a
/// silent read of the first value: a copy of the checked-in Fig 7
/// baseline whose BaseCMOS `core` block repeats `cycles` with another
/// value would otherwise diff clean.
#[test]
fn a_dump_repeating_a_key_fails_naming_it() {
    let dir = temp_dir("dupkey");
    let baseline = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../baselines/fig7.json");
    let text = std::fs::read_to_string(&baseline).expect("baseline readable");
    let block = text.find("\"BaseCMOS\": {").expect("BaseCMOS block");
    let cycles = block
        + text[block..]
            .find("\"cycles\": ")
            .expect("a cycles counter");
    let line_end = cycles + text[cycles..].find('\n').expect("line end");
    let mut repeated = text.clone();
    repeated.insert_str(line_end + 1, "          \"cycles\": 1,\n");
    let dup = dir.join("dup.json");
    std::fs::write(&dup, &repeated).expect("write dump");

    let out = repro(&["diff", baseline.to_str().unwrap(), dup.to_str().unwrap()]);
    assert!(!out.status.success(), "a repeated key must fail the diff");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("dup.json") && stderr.contains("`cycles` appears twice"),
        "error names the file and the key: {stderr}"
    );
    assert!(!stderr.contains("panicked"), "no panic: {stderr}");
    std::fs::remove_dir_all(&dir).expect("cleanup");
}

#[test]
fn valid_json_that_is_not_a_dump_fails_cleanly() {
    let dir = temp_dir("notdump");
    let good = write_dump(&dir, "good.json");
    let bad = dir.join("notdump.json");
    std::fs::write(&bad, "{\"hello\": 1}").expect("write non-dump JSON");

    let out = repro(&["diff", good.to_str().unwrap(), bad.to_str().unwrap()]);
    assert!(!out.status.success(), "non-dump JSON must fail");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("not a stats dump"),
        "error explains the shape problem: {stderr}"
    );
    assert!(!stderr.contains("panicked"), "no panic: {stderr}");
    std::fs::remove_dir_all(&dir).expect("cleanup");
}

#[test]
fn missing_file_fails_with_a_clear_error() {
    let dir = temp_dir("missing");
    let good = write_dump(&dir, "good.json");
    let gone = dir.join("does-not-exist.json");
    let out = repro(&["diff", gone.to_str().unwrap(), good.to_str().unwrap()]);
    assert!(!out.status.success(), "missing file must fail");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("does-not-exist.json"),
        "error names the missing file: {stderr}"
    );
    std::fs::remove_dir_all(&dir).expect("cleanup");
}

#[test]
fn stats_out_creates_missing_parent_directories() {
    let dir = temp_dir("statsdirs");
    // Two levels of not-yet-existing directories under the temp root.
    let nested = dir.join("deep/nested/stats.json");
    let out = repro(&[
        "fig14",
        "--insts",
        "800",
        "--stats-out",
        nested.to_str().unwrap(),
    ]);
    assert!(
        out.status.success(),
        "stats-out into a missing directory must succeed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = std::fs::read_to_string(&nested).expect("dump landed");
    assert!(text.contains("\"schema\""), "dump is a real stats dump");
    // No temp-file droppings from the atomic write.
    let siblings: Vec<_> = std::fs::read_dir(nested.parent().unwrap())
        .expect("parent readable")
        .filter_map(|e| e.ok().map(|e| e.file_name()))
        .collect();
    assert_eq!(siblings.len(), 1, "only the dump itself: {siblings:?}");
    std::fs::remove_dir_all(&dir).expect("cleanup");
}

#[test]
fn baseline_writer_and_ci_gate_round_trip() {
    let dir = temp_dir("gate");
    let basedir = dir.join("baselines");
    let out = repro(&[
        "baseline",
        basedir.to_str().unwrap(),
        "--insts",
        "800",
        "fig14",
        "ext",
    ]);
    assert!(
        out.status.success(),
        "baseline writer failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(basedir.join("fig14.json").exists());
    // Baselines carry the runner's counters and no `runner.timing`.
    let ext = std::fs::read_to_string(basedir.join("ext.json")).expect("ext baseline");
    let ext: serde_json::Value = serde_json::from_str(&ext).expect("ext baseline is JSON");
    let runner = ext.get("runner").expect("runner section");
    assert!(
        runner.get("cpu").is_some(),
        "runner counters kept: {runner:?}"
    );
    assert!(
        runner.get("timing").is_none(),
        "no runner.timing: {runner:?}"
    );

    // A bench ratchet sharing the directory is not replayable — the
    // gate must skip it (it is gated by `repro bench --ratchet`), not
    // fail on it.
    std::fs::write(
        basedir.join("bench-ratchet.json"),
        r#"{"schema":"hetsim-bench-v1","quick":true,"insts":1,"seed":1,"warmup":1,
            "repeats":1,"host":{"os":"linux","arch":"x86_64","cpus":1},
            "scenarios":[{"name":"s","insts":1,"wall_us":1,"insts_per_sec":1.0,
            "timing":{"repeats":1,"min_us":1,"median_us":1,"p95_us":1,"max_us":1,
            "mean_us":1.0,"rel_spread":0.0,"noisy":false}}]}"#,
    )
    .expect("ratchet written");

    // The gate replays each baseline's recorded configuration and
    // passes against an unchanged simulator.
    let out = repro(&["ci-gate", "--baseline", basedir.to_str().unwrap()]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "gate must pass: {stdout}\n{stderr}");
    assert!(stdout.contains("[fig14]") && stdout.contains("[ext]"));
    assert!(
        stderr.contains("bench dump, skipped"),
        "gate announces the skipped ratchet: {stderr}"
    );

    // Corrupt one baseline's recorded figure values (the run section
    // stays intact, so the gate replays the same configuration and
    // must catch the drift): the gate fails and keeps gating the
    // others (both names still appear in the output).
    let fig14 = basedir.join("fig14.json");
    let text = std::fs::read_to_string(&fig14).expect("baseline readable");
    let rows_at = text.find("\"rows\"").expect("reports have rows");
    let cell_at = text[rows_at..]
        .find("0.")
        .map(|i| rows_at + i)
        .expect("a fractional report cell");
    let mut mutated = text.clone();
    mutated.replace_range(cell_at..cell_at + 2, "9.");
    std::fs::write(&fig14, &mutated).expect("rewrite baseline");
    let out = repro(&["ci-gate", "--baseline", basedir.to_str().unwrap()]);
    assert!(
        !out.status.success(),
        "tampered baseline must fail the gate"
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains("[fig14]") && stdout.contains("regression"),
        "gate output localizes the failure: {stdout}"
    );
    assert!(stdout.contains("[ext]"), "gate still checks the rest");
    std::fs::remove_dir_all(&dir).expect("cleanup");
}

/// Runs `ci-gate` on a copy of the checked-in baseline `name` whose one
/// `from` is replaced by `to`, and returns its stderr once the gate has
/// failed cleanly: exit 1, not a panic.
fn gate_on_edited_baseline(tag: &str, name: &str, from: &str, to: &str) -> String {
    let dir = temp_dir(tag);
    let pinned = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../baselines");
    let text = std::fs::read_to_string(pinned.join(name)).expect("baseline readable");
    assert_eq!(text.matches(from).count(), 1, "{name} holds `{from}` once");
    std::fs::write(dir.join(name), text.replace(from, to)).expect("write edited baseline");
    let out = repro(&["ci-gate", "--baseline", dir.to_str().unwrap()]);
    let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");
    std::fs::remove_dir_all(&dir).expect("cleanup");
    stderr
}

#[test]
fn a_frontier_baseline_with_a_zero_budget_fails_naming_the_field() {
    let stderr = gate_on_edited_baseline(
        "zero-budget",
        "frontier-fig7.json",
        "\"budget\": 12",
        "\"budget\": 0",
    );
    assert!(
        stderr.contains("`explore.budget` is out of range: --budget expects an integer >= 1"),
        "{stderr}"
    );
}

#[test]
fn a_frontier_baseline_with_zero_insts_fails_naming_the_field() {
    let stderr = gate_on_edited_baseline(
        "zero-explore-insts",
        "frontier-fig7.json",
        "\"insts\": 2000",
        "\"insts\": 0",
    );
    assert!(
        stderr.contains("`explore.insts` is out of range: --insts expects an integer >= 8"),
        "{stderr}"
    );
}

#[test]
fn a_campaign_baseline_with_zero_insts_fails_naming_the_field() {
    let stderr = gate_on_edited_baseline(
        "zero-run-insts",
        "fig14.json",
        "\"insts\": 3000",
        "\"insts\": 0",
    );
    assert!(
        stderr.contains("`run.insts` is out of range: --insts expects an integer >= 8"),
        "{stderr}"
    );
}
