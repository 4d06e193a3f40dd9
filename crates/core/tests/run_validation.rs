//! Every run validates what it simulated: `HETSIM_CHECK_PERTURB` bumps
//! one counter in a copy of each outcome and in each dump column, and a
//! plain run (no other environment variable) must then fail, naming a
//! broken accounting identity. A clean exit would mean the study's
//! outcomes went unchecked.

use std::process::Command;

/// Runs `repro --insts 3000 TARGET` with `spec` injected; returns the
/// exit code and the violation lines on stderr.
fn perturbed(spec: &str, target: &str) -> (Option<i32>, Vec<String>) {
    let out = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(["--insts", "3000", target])
        .env("HETSIM_CHECK_PERTURB", spec)
        .output()
        .expect("repro runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!stderr.contains("panicked"), "{stderr}");
    let violations = stderr.lines().filter(|l| l.starts_with("violation["));
    (out.status.code(), violations.map(str::to_string).collect())
}

/// Whether some violation of `invariant` lies under `path`.
fn names(violations: &[String], invariant: &str, path: &str) -> bool {
    let prefix = format!("violation[{invariant}] at {path}");
    violations.iter().any(|v| v.starts_with(&prefix))
}

#[test]
fn a_perturbed_fig14_outcome_fails_the_run() {
    let (code, violations) = perturbed("core.issues", "fig14");
    assert_eq!(code, Some(1), "{violations:?}");
    // Figure 14 runs one cold core per (clock, design, app); its dump
    // has no design column, so only its outcomes can be caught.
    assert!(
        names(&violations, "cpu.issue_class_conservation", "outcomes/cpu["),
        "{violations:?}"
    );
    assert!(!names(&violations, "check.perturbation_applied", ""));
}

#[test]
fn a_perturbed_extension_outcome_fails_the_run() {
    let (code, violations) = perturbed("gpu.valu_insts", "ext-partrf");
    assert_eq!(code, Some(1), "{violations:?}");
    assert!(
        names(&violations, "gpu.op_conservation", "outcomes/gpu["),
        "{violations:?}"
    );
}

#[test]
fn a_perturbed_campaign_fails_on_its_outcomes_and_its_dump() {
    let (code, violations) = perturbed("mem.l2.hits", "fig7");
    assert_eq!(code, Some(1), "{violations:?}");
    for path in ["outcomes/cpu[", "dump/cpu/"] {
        assert!(
            names(&violations, "mem.hit_miss_conservation", path),
            "nothing under {path}: {violations:?}"
        );
    }
}

#[test]
fn a_spec_that_names_no_counter_fails_the_run() {
    let (code, violations) = perturbed("core.no_such_counter", "fig14");
    assert_eq!(code, Some(1), "{violations:?}");
    assert_eq!(violations.len(), 1, "{violations:?}");
    assert!(names(&violations, "check.perturbation_applied", ""));
}
