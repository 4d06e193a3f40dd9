//! Cross-run regression diffing over `--stats-out` dumps.
//!
//! A [`StatsDump`](crate::telemetry::StatsDump) written by one run can
//! be compared against the dump of another run of the same
//! configuration: the simulators are deterministic, so *any* drift in a
//! counter or a derived figure value is a behavior change that must be
//! either intentional (regenerate the baseline) or a regression (fail
//! the build). This module implements that comparison:
//!
//! * [`DumpDoc::load`] parses a dump into three *lanes* of dotted-path
//!   leaves — integer **counters** (`cpu.designs.AdvHet.core.committed`),
//!   float **metrics** (`report.Figure 7….lu.AdvHet` cells), and string
//!   **tags** (`schema.cpu`) — so alignment is total: every leaf of
//!   either document is classified, none can escape the gate. A path
//!   names one leaf: a document that files two leaves under one path
//!   (`{"l1.hits": 1, "l1": {"hits": 2}}`) is an error naming it;
//! * [`DiffPolicy`] declares the tolerance per lane: counters and tags
//!   must match **exactly** (event counts have no legitimate noise),
//!   metrics may drift within a configurable relative tolerance
//!   (absorbing float-formatting round-trips), added/removed leaves
//!   fail unless explicitly allowlisted (schema growth is deliberate),
//!   and schema-tag changes fail unless explicitly waived;
//! * [`diff_dumps`] runs the three lanes through one lane function: it
//!   pairs the lane's leaves by path with [`hetsim_stats::diff::align`],
//!   the one name join, applies the ignore prefixes and the allowlist,
//!   and keeps the compared/ignored/waived counts; each lane supplies
//!   only its comparison. It returns a [`DiffReport`] that renders as
//!   `table`/`json`/`csv` and drives the process exit code.
//!
//! Runner telemetry (`runner.*`) is excluded **by policy, not by
//! hand**: [`RunnerStats`] declares its counters nondeterministic
//! ([`RunnerStats::DETERMINISTIC`] is `false` — wall time and cache
//! temperature vary run to run), and [`DiffPolicy::default`] derives
//! its ignore list from that declaration.

use std::path::Path;

use hetsim_runner::RunnerStats;
use hetsim_stats::diff::{align, Side};
use serde::value::Value;
use serde::Serialize;

/// The run configuration a dump was recorded under (its `run` section).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunSpec {
    /// Dynamic instructions per CPU application.
    pub insts: u64,
    /// Base RNG seed.
    pub seed: u64,
    /// Experiment CLI words (`fig7`, `ext`, …) the run executed.
    pub experiments: Vec<String>,
}

/// A parsed `--stats-out` document, flattened into diffable lanes. No
/// two of its leaves share a path.
#[derive(Debug, Clone, Default)]
pub struct DumpDoc {
    /// Integer counters by dotted path (exact-match lane).
    pub counters: Vec<(String, u64)>,
    /// Derived float metrics by dotted path (relative-tolerance lane).
    pub metrics: Vec<(String, f64)>,
    /// String tags by dotted path (identity lane; `schema.*` lives here).
    pub tags: Vec<(String, String)>,
    /// The `run` section, when the dump recorded one.
    pub run: Option<RunSpec>,
}

impl DumpDoc {
    /// Parses a dump from JSON text.
    ///
    /// # Errors
    ///
    /// Returns a human-readable message for malformed JSON (truncated
    /// or corrupted files), for documents that are not stats dumps, and
    /// naming the path for a document that files two leaves under one
    /// path.
    pub fn parse(text: &str) -> Result<DumpDoc, String> {
        let value: Value =
            serde_json::from_str(text).map_err(|e| format!("not valid JSON: {e}"))?;
        let top = value
            .as_object()
            .ok_or_else(|| "not a stats dump: top level is not an object".to_string())?;
        if value.get("schema").and_then(Value::as_object).is_none() {
            return Err(
                "not a stats dump: missing `schema` section (was this file written by \
                 `repro --stats-out` or `repro baseline`?)"
                    .to_string(),
            );
        }
        let mut doc = DumpDoc::default();
        for (key, section) in top {
            if key == "reports" {
                flatten_reports(section, &mut doc)?;
            } else {
                flatten(section, key, &mut doc);
            }
        }
        doc.run = parse_run(&value)?;
        one_leaf_per_path(&doc)?;
        Ok(doc)
    }

    /// Reads and parses a dump file.
    ///
    /// # Errors
    ///
    /// Returns a message naming the path for unreadable files and for
    /// any [`DumpDoc::parse`] failure.
    pub fn load(path: &Path) -> Result<DumpDoc, String> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        DumpDoc::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
    }
}

/// Flattens a value subtree into the document's lanes. Objects and
/// arrays recurse (`a.b` / `a[0]`); `null` leaves (empty sections,
/// non-finite floats) are skipped.
fn flatten(v: &Value, path: &str, doc: &mut DumpDoc) {
    match v {
        Value::Object(entries) => {
            for (key, child) in entries {
                flatten(child, &format!("{path}.{key}"), doc);
            }
        }
        Value::Array(items) => {
            for (i, child) in items.iter().enumerate() {
                flatten(child, &format!("{path}[{i}]"), doc);
            }
        }
        Value::UInt(n) => doc.counters.push((path.to_string(), *n)),
        Value::Int(n) => doc.metrics.push((path.to_string(), *n as f64)),
        Value::Float(x) => doc.metrics.push((path.to_string(), *x)),
        Value::Str(s) => doc.tags.push((path.to_string(), s.clone())),
        Value::Bool(b) => doc.tags.push((path.to_string(), b.to_string())),
        Value::Null => {}
    }
}

/// Flattens the `reports` section with figure-shaped paths:
/// `report.<title>.<row label>.<column>` per cell, so a violation names
/// the exact figure, application and design that drifted. Strict: every
/// cell is a number or `null` (skipped, like a `null` leaf elsewhere)
/// under a string label and a string column, and a row has one cell
/// per column, so no cell is dropped or filed under a made-up name.
fn flatten_reports(v: &Value, doc: &mut DumpDoc) -> Result<(), String> {
    let reports = v
        .as_array()
        .ok_or_else(|| "`reports` section is not an array".to_string())?;
    for (i, report) in reports.iter().enumerate() {
        let fields = report
            .as_object()
            .ok_or_else(|| format!("reports[{i}] is not an object"))?;
        if let Some((key, _)) = fields
            .iter()
            .find(|(key, _)| !["title", "columns", "rows"].contains(&key.as_str()))
        {
            return Err(format!("reports[{i}] has an unknown field `{key}`"));
        }
        let title = report
            .get("title")
            .and_then(Value::as_str)
            .ok_or_else(|| format!("reports[{i}] has no title"))?;
        let columns = report
            .get("columns")
            .and_then(Value::as_array)
            .ok_or_else(|| format!("reports[{i}] has no columns"))?
            .iter()
            .map(|c| c.as_str())
            .collect::<Option<Vec<&str>>>()
            .ok_or_else(|| format!("report '{title}' has a column that is not a string"))?;
        let rows = report
            .get("rows")
            .and_then(Value::as_array)
            .ok_or_else(|| format!("reports[{i}] has no rows"))?;
        for row in rows {
            let cells = row
                .as_array()
                .filter(|r| r.len() == 2)
                .ok_or_else(|| format!("malformed row in report '{title}'"))?;
            let label = cells[0]
                .as_str()
                .ok_or_else(|| format!("report '{title}' has a row label that is not a string"))?;
            let values = cells[1]
                .as_array()
                .ok_or_else(|| format!("malformed row values in report '{title}'"))?;
            if values.len() != columns.len() {
                return Err(format!(
                    "report '{title}' row '{label}' has {} value(s) for {} column(s)",
                    values.len(),
                    columns.len()
                ));
            }
            for (column, value) in columns.iter().zip(values) {
                let path = format!("report.{title}.{label}.{column}");
                match value {
                    Value::Null => {}
                    _ => match value.as_f64() {
                        Some(x) => doc.metrics.push((path, x)),
                        None => return Err(format!("`{path}` is not a number or null")),
                    },
                }
            }
        }
    }
    Ok(())
}

/// Errors naming a path the flattening filed two leaves under, as
/// `{"l1.hits": 1, "l1": {"hits": 2}}` does: a path names one leaf, so
/// the diff's join sees each path once per dump.
fn one_leaf_per_path(doc: &DumpDoc) -> Result<(), String> {
    let mut paths: Vec<&str> = doc
        .counters
        .iter()
        .map(|(p, _)| p.as_str())
        .chain(doc.metrics.iter().map(|(p, _)| p.as_str()))
        .chain(doc.tags.iter().map(|(p, _)| p.as_str()))
        .collect();
    paths.sort_unstable();
    for pair in paths.windows(2) {
        if pair[0] == pair[1] {
            return Err(format!("two leaves share the path `{}`", pair[0]));
        }
    }
    Ok(())
}

fn parse_run(value: &Value) -> Result<Option<RunSpec>, String> {
    let Some(run) = value.get("run") else {
        return Ok(None);
    };
    let insts = run
        .get("insts")
        .and_then(Value::as_u64)
        .ok_or_else(|| "`run` section has no integer `insts`".to_string())?;
    let seed = run
        .get("seed")
        .and_then(Value::as_u64)
        .ok_or_else(|| "`run` section has no integer `seed`".to_string())?;
    let experiments = run
        .get("experiments")
        .and_then(Value::as_array)
        .ok_or_else(|| "`run` section has no `experiments` array".to_string())?
        .iter()
        .map(|e| {
            e.as_str()
                .map(str::to_string)
                .ok_or_else(|| "non-string entry in `run.experiments`".to_string())
        })
        .collect::<Result<Vec<String>, String>>()?;
    Ok(Some(RunSpec {
        insts,
        seed,
        experiments,
    }))
}

/// The tolerance policy a diff is classified against.
#[derive(Debug, Clone)]
pub struct DiffPolicy {
    /// Relative tolerance for the float-metric lane (report cells).
    /// Counters are always exact-match: simulated event counts have no
    /// legitimate noise.
    pub rel_tol: f64,
    /// Dotted-path prefixes excluded from gating entirely. The default
    /// is derived from type declarations (see [`DiffPolicy::default`]),
    /// not hand-kept lists.
    pub ignored_prefixes: Vec<String>,
    /// Dotted-path prefixes under which added/removed leaves are
    /// waived — the explicit allowlist that makes schema growth a
    /// deliberate act.
    pub allowed_counter_changes: Vec<String>,
    /// Waives `schema.*` tag mismatches (for intentional cache-schema
    /// bumps whose baselines are being regenerated).
    pub allow_schema_change: bool,
}

impl Default for DiffPolicy {
    fn default() -> Self {
        let mut ignored = Vec::new();
        // RunnerStats declares its counters nondeterministic (wall
        // clock, cache temperature), so every runner section is exempt
        // by the owning type's declaration rather than by a list
        // somebody has to remember to maintain here.
        if !RunnerStats::DETERMINISTIC {
            ignored.push("runner.".to_string());
        }
        DiffPolicy {
            // Deterministic simulators: the tolerance only absorbs
            // float shortest-round-trip formatting noise.
            rel_tol: 1e-9,
            ignored_prefixes: ignored,
            allowed_counter_changes: Vec::new(),
            allow_schema_change: false,
        }
    }
}

impl DiffPolicy {
    fn ignores(&self, path: &str) -> bool {
        self.ignored_prefixes
            .iter()
            .any(|p| path.starts_with(p.as_str()))
    }

    /// Whether a `kind` regression at `path` is waived: an added or
    /// removed leaf under an allowlisted prefix, or a schema-tag change
    /// under `allow_schema_change`.
    fn waives(&self, kind: RegressionKind, path: &str) -> bool {
        match kind {
            RegressionKind::CounterAdded | RegressionKind::CounterRemoved => self
                .allowed_counter_changes
                .iter()
                .any(|p| path.starts_with(p.as_str())),
            RegressionKind::SchemaMismatch => self.allow_schema_change,
            RegressionKind::CounterMismatch | RegressionKind::MetricOutOfTolerance => false,
        }
    }
}

/// What rule a regression violated.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RegressionKind {
    /// A `schema.*` tag differs (cache-schema bump without baseline
    /// regeneration).
    SchemaMismatch,
    /// An exact-lane value (integer counter or string tag) differs.
    CounterMismatch,
    /// A float metric drifted beyond the relative tolerance.
    MetricOutOfTolerance,
    /// The candidate has a leaf the baseline lacks.
    CounterAdded,
    /// The baseline has a leaf the candidate lacks.
    CounterRemoved,
}

impl RegressionKind {
    /// Short machine-stable label (used in JSON/CSV output).
    pub fn label(self) -> &'static str {
        match self {
            RegressionKind::SchemaMismatch => "schema-mismatch",
            RegressionKind::CounterMismatch => "counter-mismatch",
            RegressionKind::MetricOutOfTolerance => "metric-out-of-tolerance",
            RegressionKind::CounterAdded => "counter-added",
            RegressionKind::CounterRemoved => "counter-removed",
        }
    }
}

/// One gating failure: a named leaf, both sides, the delta, and the
/// tolerance rule it violated.
#[derive(Debug, Clone)]
pub struct Regression {
    /// Dotted path, e.g. `cpu.designs.AdvHet.core.committed`.
    pub path: String,
    /// The violated rule.
    pub kind: RegressionKind,
    /// Baseline rendering (`None` for added leaves).
    pub baseline: Option<String>,
    /// Candidate rendering (`None` for removed leaves).
    pub candidate: Option<String>,
    /// Signed delta rendering, when both sides are numeric.
    pub delta: Option<String>,
    /// Human description of the violated tolerance, e.g. `exact` or
    /// `rel 3.1e-4 > tol 1e-9`.
    pub tolerance: String,
}

/// The outcome of diffing two dumps against a policy.
#[derive(Debug, Clone, Default)]
pub struct DiffReport {
    /// Every violation, in lane order (counters, metrics, tags).
    pub regressions: Vec<Regression>,
    /// Leaves aligned on both sides and found within tolerance.
    pub compared: usize,
    /// Leaves excluded from gating by policy (e.g. `runner.*`).
    pub ignored: usize,
    /// Added/removed leaves waived by the allowlist (and schema
    /// mismatches waived by `--allow-schema-change`).
    pub waived: usize,
}

impl DiffReport {
    /// `true` when no regression was found (the gate passes).
    pub fn is_clean(&self) -> bool {
        self.regressions.is_empty()
    }

    /// Human-readable table rendering.
    pub fn to_table(&self) -> String {
        let mut out = if self.is_clean() {
            format!(
                "regression diff: clean — {} value(s) compared, {} ignored by policy, {} waived\n",
                self.compared, self.ignored, self.waived
            )
        } else {
            format!(
                "regression diff: {} regression(s) — {} value(s) compared, {} ignored by policy, \
                 {} waived\n",
                self.regressions.len(),
                self.compared,
                self.ignored,
                self.waived
            )
        };
        for r in &self.regressions {
            out.push_str(&format!("  [{}] {}:", r.kind.label(), r.path));
            if let Some(b) = &r.baseline {
                out.push_str(&format!(" baseline {b}"));
            }
            if let Some(c) = &r.candidate {
                out.push_str(&format!(
                    "{}candidate {c}",
                    if r.baseline.is_some() { ", " } else { " " }
                ));
            }
            if let Some(d) = &r.delta {
                out.push_str(&format!(", delta {d}"));
            }
            out.push_str(&format!(" (tolerance: {})\n", r.tolerance));
        }
        out
    }

    /// CSV rendering: one line per regression, full precision.
    pub fn to_csv(&self) -> String {
        fn escape(field: &str) -> String {
            if field.contains(',') || field.contains('"') || field.contains('\n') {
                format!("\"{}\"", field.replace('"', "\"\""))
            } else {
                field.to_string()
            }
        }
        let mut out = String::from("path,kind,baseline,candidate,delta,tolerance\n");
        for r in &self.regressions {
            out.push_str(&format!(
                "{},{},{},{},{},{}\n",
                escape(&r.path),
                r.kind.label(),
                escape(r.baseline.as_deref().unwrap_or("")),
                escape(r.candidate.as_deref().unwrap_or("")),
                escape(r.delta.as_deref().unwrap_or("")),
                escape(&r.tolerance),
            ));
        }
        out
    }
}

impl Serialize for DiffReport {
    fn to_value(&self) -> Value {
        fn opt(s: &Option<String>) -> Value {
            match s {
                Some(s) => Value::Str(s.clone()),
                None => Value::Null,
            }
        }
        Value::Object(vec![
            ("clean".into(), Value::Bool(self.is_clean())),
            ("compared".into(), self.compared.to_value()),
            ("ignored".into(), self.ignored.to_value()),
            ("waived".into(), self.waived.to_value()),
            (
                "regressions".into(),
                Value::Array(
                    self.regressions
                        .iter()
                        .map(|r| {
                            Value::Object(vec![
                                ("path".into(), Value::Str(r.path.clone())),
                                ("kind".into(), Value::Str(r.kind.label().into())),
                                ("baseline".into(), opt(&r.baseline)),
                                ("candidate".into(), opt(&r.candidate)),
                                ("delta".into(), opt(&r.delta)),
                                ("tolerance".into(), Value::Str(r.tolerance.clone())),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }
}

/// Diffs `candidate` against `baseline` under `policy`.
///
/// Alignment is total per lane: every non-ignored leaf of either dump
/// is either compared, reported as a regression, or waived by the
/// allowlist — and the counts in the returned [`DiffReport`] account
/// for all of them.
///
/// # Panics
///
/// Panics if a lane of either dump repeats a path, which no dump that
/// [`DumpDoc::parse`] returns does.
pub fn diff_dumps(baseline: &DumpDoc, candidate: &DumpDoc, policy: &DiffPolicy) -> DiffReport {
    let mut report = DiffReport::default();
    diff_lane(
        &mut report,
        policy,
        &baseline.counters,
        &candidate.counters,
        u64::to_string,
        |_, b, c| {
            (b != c).then(|| Mismatch {
                kind: RegressionKind::CounterMismatch,
                delta: Some(format!("{:+}", i128::from(*c) - i128::from(*b))),
                tolerance: "exact".to_string(),
            })
        },
    );
    diff_lane(
        &mut report,
        policy,
        &baseline.metrics,
        &candidate.metrics,
        f64::to_string,
        |_, b, c| {
            let scale = b.abs().max(c.abs());
            let drift = (c - b).abs();
            // Negated so a NaN drift (e.g. Inf vs Inf of the same sign
            // still drifts NaN) counts as a violation rather than
            // passing silently.
            let within = drift <= policy.rel_tol * scale;
            (!within).then(|| {
                let rel = if scale > 0.0 { drift / scale } else { f64::NAN };
                Mismatch {
                    kind: RegressionKind::MetricOutOfTolerance,
                    delta: Some(format!("{:+e}", c - b)),
                    tolerance: format!("rel {rel:.3e} > tol {:e}", policy.rel_tol),
                }
            })
        },
    );
    diff_lane(
        &mut report,
        policy,
        &baseline.tags,
        &candidate.tags,
        |s| format!("\"{s}\""),
        |path, b, c| {
            let schema = path.starts_with("schema.");
            (b != c).then(|| Mismatch {
                kind: if schema {
                    RegressionKind::SchemaMismatch
                } else {
                    RegressionKind::CounterMismatch
                },
                delta: None,
                tolerance: if schema {
                    "identical schema tags (pass --allow-schema-change for an intentional bump)"
                } else {
                    "exact"
                }
                .to_string(),
            })
        },
    );
    report
}

/// How a lane's comparison found two values of one leaf to differ.
struct Mismatch {
    kind: RegressionKind,
    delta: Option<String>,
    tolerance: String,
}

/// Diffs one lane: aligns its leaves by path, skips the ones the policy
/// ignores, judges each leaf both dumps hold with `compare`, and files
/// every mismatch and every added or removed leaf as a regression
/// unless the policy waives it. `render` prints a value for the report.
fn diff_lane<T>(
    report: &mut DiffReport,
    policy: &DiffPolicy,
    baseline: &[(String, T)],
    candidate: &[(String, T)],
    render: impl Fn(&T) -> String,
    compare: impl Fn(&str, &T, &T) -> Option<Mismatch>,
) {
    let aligned = align(
        baseline.iter().map(|(path, value)| (path.as_str(), value)),
        candidate.iter().map(|(path, value)| (path.as_str(), value)),
    );
    for (path, side) in aligned {
        if policy.ignores(path) {
            report.ignored += 1;
            continue;
        }
        let membership = |kind| Mismatch {
            kind,
            delta: None,
            tolerance: format!(
                "same counter set (pass --allow {path} if this schema change is deliberate)"
            ),
        };
        let (m, baseline, candidate) = match side {
            Side::Both(b, c) => {
                report.compared += 1;
                let Some(m) = compare(path, b, c) else {
                    continue;
                };
                (m, Some(b), Some(c))
            }
            Side::Baseline(b) => (membership(RegressionKind::CounterRemoved), Some(b), None),
            Side::Candidate(c) => (membership(RegressionKind::CounterAdded), None, Some(c)),
        };
        if policy.waives(m.kind, path) {
            report.waived += 1;
            continue;
        }
        report.regressions.push(Regression {
            path: path.to_string(),
            kind: m.kind,
            baseline: baseline.map(&render),
            candidate: candidate.map(&render),
            delta: m.delta,
            tolerance: m.tolerance,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const BASE: &str = r#"{
        "schema": { "cpu": "cpu-v2", "gpu": "gpu-v2" },
        "run": { "insts": 3000, "seed": 42, "experiments": ["fig7"] },
        "cpu": { "designs": { "AdvHet": { "core": { "committed": 12345, "cycles": 999 } } } },
        "gpu": null,
        "runner": { "cpu": { "jobs": 154, "wall_seconds": 1.25 } },
        "reports": [ {
            "title": "Figure 7: CPU execution time",
            "columns": ["BaseCMOS", "AdvHet"],
            "rows": [ ["lu", [1.0, 1.08]], ["mean", [1.0, 1.1]] ]
        } ]
    }"#;

    fn doc(text: &str) -> DumpDoc {
        DumpDoc::parse(text).expect("valid dump")
    }

    #[test]
    fn parse_flattens_all_three_lanes_and_the_run_section() {
        let d = doc(BASE);
        assert!(d
            .counters
            .iter()
            .any(|(p, v)| p == "cpu.designs.AdvHet.core.committed" && *v == 12345));
        assert!(d
            .metrics
            .iter()
            .any(|(p, v)| p == "report.Figure 7: CPU execution time.lu.AdvHet" && *v == 1.08));
        assert!(d
            .tags
            .iter()
            .any(|(p, s)| p == "schema.cpu" && s == "cpu-v2"));
        let run = d.run.expect("run section");
        assert_eq!(run.insts, 3000);
        assert_eq!(run.experiments, ["fig7"]);
    }

    #[test]
    fn identical_dumps_diff_clean() {
        let report = diff_dumps(&doc(BASE), &doc(BASE), &DiffPolicy::default());
        assert!(report.is_clean(), "{}", report.to_table());
        assert!(report.compared > 0);
        assert!(report.ignored > 0, "runner leaves are ignored by policy");
    }

    #[test]
    fn perturbed_counter_names_design_counter_delta_and_tolerance() {
        let perturbed = BASE.replace("12345", "12346");
        let report = diff_dumps(&doc(BASE), &doc(&perturbed), &DiffPolicy::default());
        assert_eq!(report.regressions.len(), 1);
        let r = &report.regressions[0];
        assert_eq!(r.path, "cpu.designs.AdvHet.core.committed");
        assert_eq!(r.kind, RegressionKind::CounterMismatch);
        assert_eq!(r.delta.as_deref(), Some("+1"));
        assert_eq!(r.tolerance, "exact");
        let table = report.to_table();
        assert!(table.contains("AdvHet"), "{table}");
        assert!(table.contains("committed"), "{table}");
        assert!(table.contains("+1"), "{table}");
        assert!(table.contains("exact"), "{table}");
    }

    #[test]
    fn runner_drift_is_exempt_by_the_runner_types_own_declaration() {
        let perturbed = BASE
            .replace("1.25", "9.75")
            .replace("\"jobs\": 154", "\"jobs\": 2");
        let report = diff_dumps(&doc(BASE), &doc(&perturbed), &DiffPolicy::default());
        assert!(report.is_clean(), "{}", report.to_table());
    }

    #[test]
    fn metric_drift_respects_relative_tolerance() {
        let drifted = BASE.replace("1.08", "1.0800001");
        let tight = diff_dumps(&doc(BASE), &doc(&drifted), &DiffPolicy::default());
        assert_eq!(tight.regressions.len(), 1);
        assert_eq!(
            tight.regressions[0].kind,
            RegressionKind::MetricOutOfTolerance
        );
        assert!(tight.regressions[0].tolerance.contains("tol"));
        let loose = diff_dumps(
            &doc(BASE),
            &doc(&drifted),
            &DiffPolicy {
                rel_tol: 1e-3,
                ..DiffPolicy::default()
            },
        );
        assert!(loose.is_clean());
    }

    #[test]
    fn added_and_removed_counters_fail_unless_allowlisted() {
        let grown = BASE.replace(
            "\"committed\": 12345, \"cycles\": 999",
            "\"committed\": 12345, \"cycles\": 999, \"spills\": 7",
        );
        let strict = diff_dumps(&doc(BASE), &doc(&grown), &DiffPolicy::default());
        assert_eq!(strict.regressions.len(), 1);
        assert_eq!(strict.regressions[0].kind, RegressionKind::CounterAdded);
        assert!(strict.regressions[0].candidate.is_some());
        let waived = diff_dumps(
            &doc(BASE),
            &doc(&grown),
            &DiffPolicy {
                allowed_counter_changes: vec!["cpu.designs.AdvHet.core.spills".to_string()],
                ..DiffPolicy::default()
            },
        );
        assert!(waived.is_clean());
        assert_eq!(waived.waived, 1);
        // The reverse direction is a removal.
        let shrunk = diff_dumps(&doc(&grown), &doc(BASE), &DiffPolicy::default());
        assert_eq!(shrunk.regressions[0].kind, RegressionKind::CounterRemoved);
    }

    #[test]
    fn schema_bump_fails_unless_explicitly_waived() {
        let bumped = BASE.replace("cpu-v2", "cpu-v3");
        let strict = diff_dumps(&doc(BASE), &doc(&bumped), &DiffPolicy::default());
        assert_eq!(strict.regressions.len(), 1);
        assert_eq!(strict.regressions[0].kind, RegressionKind::SchemaMismatch);
        let waived = diff_dumps(
            &doc(BASE),
            &doc(&bumped),
            &DiffPolicy {
                allow_schema_change: true,
                ..DiffPolicy::default()
            },
        );
        assert!(waived.is_clean());
    }

    /// Two counters under one path: read first-wins, a change of the
    /// second diffed clean. Now the dump is an error naming the path.
    #[test]
    fn a_counter_collision_is_an_error_not_a_clean_diff() {
        let base = BASE.replace(
            r#""gpu": null"#,
            r#""mem": {"l1.hits": 1, "l1": {"hits": 2}}"#,
        );
        let changed = base.replace(r#""hits": 2"#, r#""hits": 3"#);
        for text in [base, changed] {
            let err = DumpDoc::parse(&text).expect_err("two counters under one path");
            assert_eq!(err, "two leaves share the path `mem.l1.hits`");
        }
    }

    /// Two metrics under one path: read first-wins on one side only, the
    /// dump regressed against itself. Now it is an error naming the path.
    #[test]
    fn a_metric_collision_is_an_error_not_a_self_regression() {
        let text = BASE.replace(
            r#""gpu": null"#,
            r#""mem": {"l1.hits": 1.5, "l1": {"hits": 2.5}}"#,
        );
        let err = DumpDoc::parse(&text).expect_err("two metrics under one path");
        assert_eq!(err, "two leaves share the path `mem.l1.hits`");
    }

    #[test]
    fn every_lane_lists_changed_and_removed_leaves_in_baseline_order() {
        let cand = BASE.replace(r#""committed": 12345, "cycles": 999"#, r#""cycles": 998"#);
        let report = diff_dumps(&doc(BASE), &doc(&cand), &DiffPolicy::default());
        let kinds: Vec<(&str, RegressionKind)> = report
            .regressions
            .iter()
            .map(|r| (r.path.as_str(), r.kind))
            .collect();
        assert_eq!(
            kinds,
            [
                (
                    "cpu.designs.AdvHet.core.committed",
                    RegressionKind::CounterRemoved
                ),
                (
                    "cpu.designs.AdvHet.core.cycles",
                    RegressionKind::CounterMismatch
                ),
            ]
        );
    }

    #[test]
    fn a_counter_delta_spans_the_whole_u64_range() {
        let max = BASE.replace("12345", &u64::MAX.to_string());
        let zero = BASE.replace("12345", "0");
        let report = diff_dumps(&doc(&max), &doc(&zero), &DiffPolicy::default());
        assert_eq!(
            report.regressions[0].delta.as_deref(),
            Some("-18446744073709551615")
        );
    }

    #[test]
    fn truncated_and_non_dump_documents_parse_to_clear_errors() {
        let err = DumpDoc::parse("{\"schema\": {").expect_err("truncated");
        assert!(err.contains("JSON"), "{err}");
        let err = DumpDoc::parse("[1, 2, 3]").expect_err("not an object");
        assert!(err.contains("not a stats dump"), "{err}");
        let err = DumpDoc::parse("{\"x\": 1}").expect_err("no schema");
        assert!(err.contains("schema"), "{err}");
    }

    #[test]
    fn a_report_label_or_column_that_is_not_a_string_is_an_error() {
        let label = BASE.replace(r#"["lu", [1.0, 1.08]]"#, r#"[7, [1.0, 1.08]]"#);
        let err = DumpDoc::parse(&label).expect_err("numeric row label");
        assert!(err.contains("row label that is not a string"), "{err}");
        let column = BASE.replace(r#"["BaseCMOS", "AdvHet"]"#, r#"["BaseCMOS", null]"#);
        let err = DumpDoc::parse(&column).expect_err("null column");
        assert!(err.contains("column that is not a string"), "{err}");
    }

    #[test]
    fn a_row_whose_value_count_differs_from_its_columns_is_an_error() {
        for cells in ["[1.0]", "[1.0, 1.08, 1.2]"] {
            let text = BASE.replace("[1.0, 1.08]", cells);
            let err = DumpDoc::parse(&text).expect_err("cells must match columns");
            assert!(err.contains("row 'lu' has"), "{err}");
        }
    }

    #[test]
    fn a_cell_that_is_neither_a_number_nor_null_is_an_error() {
        let text = BASE.replace("[1.0, 1.08]", r#"[1.0, "1.08"]"#);
        let err = DumpDoc::parse(&text).expect_err("string cell");
        assert!(err.contains("lu.AdvHet` is not a number or null"), "{err}");
        // A null cell is a skipped leaf, as anywhere else in a dump.
        let text = BASE.replace("[1.0, 1.08]", "[1.0, null]");
        let doc = DumpDoc::parse(&text).expect("null cell");
        assert!(!doc.metrics.iter().any(|(p, _)| p.ends_with("lu.AdvHet")));
    }

    #[test]
    fn a_report_with_an_unknown_field_is_an_error() {
        let text = BASE.replace(r#""title":"#, r#""note": [2.5], "title":"#);
        let err = DumpDoc::parse(&text).expect_err("unknown report field");
        assert!(err.contains("unknown field `note`"), "{err}");
    }

    #[test]
    fn renders_in_all_three_formats() {
        let perturbed = BASE.replace("12345", "12346");
        let report = diff_dumps(&doc(BASE), &doc(&perturbed), &DiffPolicy::default());
        assert!(report.to_table().contains("regression diff: 1 regression"));
        let csv = report.to_csv();
        assert!(csv.starts_with("path,kind,baseline,candidate,delta,tolerance\n"));
        assert!(csv.contains("counter-mismatch"));
        let json = serde_json::to_string_pretty(&report).expect("serializes");
        let v: Value = serde_json::from_str(&json).expect("round trips");
        assert_eq!(v.get("clean").and_then(Value::as_bool), Some(false));
    }
}
