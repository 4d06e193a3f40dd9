//! Machine-readable run telemetry: the `repro --stats-out` dump.
//!
//! A [`StatsDump`] aggregates the full counter set of a run — every
//! `(name, value)` pair the counter structs enumerate through their
//! generated `iter()` — into one JSON document:
//!
//! ```json
//! {
//!   "schema": { "cpu": "cpu-v2", "gpu": "gpu-v2" },
//!   "run": { "insts": 3000, "seed": 42, "experiments": ["fig7"] },
//!   "cpu": { "designs": { "BaseCMOS": { "core": {...}, "mem": {...} }, ... } },
//!   "gpu": { "designs": { "BaseCMOS": { "gpu": {...} }, ... } },
//!   "runner": { "cpu": { "jobs": ..., "skipped_cycles": ... }, ... },
//!   "reports": [ { "title": ..., "columns": [...], "rows": [...] }, ... ]
//! }
//! ```
//!
//! The optional `run` section makes a dump self-describing (so
//! `repro ci-gate` can replay the exact configuration a baseline was
//! recorded under), and `reports` carries the run's rendered figures so
//! derived metrics diff alongside raw counters — see
//! [`crate::regression`].
//!
//! Counter maps are keyed *exactly* by the names `iter()` yields
//! (dotted for nested groups, e.g. `"il1.accesses"`), so consumers can
//! discover every counter without a schema, and the set is guaranteed
//! to match what the simulators actually count. Per-design entries
//! merge all applications/kernels of the campaign with the structs'
//! own `merge` policies (`cycles` maxes, events sum).
//!
//! The dump holds what was simulated, plus each runner's job counts and
//! the skip counts of every job it answered, hit or executed (so a warm
//! dump reports what the cold one did). Where a job's host time went is
//! the `--trace-out` span log's to say, not the dump's.

use hetsim_cpu::stats::CoreStats;
use hetsim_gpu::stats::GpuStats;
use hetsim_mem::stats::MemStats;
use hetsim_obs::Observations;
use hetsim_runner::RunnerStats;
use serde::value::Value;
use serde::Serialize;

use crate::campaign::{CPU_SCHEMA, GPU_SCHEMA};
use crate::report::Report;
use crate::suite::{cpu_campaign_columns, CpuCampaign, GpuCampaign};

/// Builder for the `--stats-out` document. Sections are optional: a
/// run that only produced device-level tables still emits a valid
/// (mostly empty) dump.
#[derive(Debug, Clone, Default)]
pub struct StatsDump {
    run: Option<(u64, u64, Vec<String>)>,
    cpu: Option<Value>,
    gpu: Option<Value>,
    runner: Vec<(String, Value)>,
    reports: Vec<Report>,
}

/// A flat counter map as a JSON object, keyed by `iter()` names.
fn counter_object(pairs: Vec<(String, u64)>) -> Value {
    Value::Object(
        pairs
            .into_iter()
            .map(|(name, value)| (name, Value::UInt(value)))
            .collect(),
    )
}

/// Per-design aggregates of a CPU campaign, in campaign column order.
pub fn cpu_design_counters(campaign: &CpuCampaign) -> Vec<(String, CoreStats, MemStats)> {
    cpu_campaign_columns()
        .into_iter()
        .enumerate()
        .map(|(design_idx, name)| {
            let mut stats = CoreStats::default();
            let mut mem = MemStats::default();
            for row in &campaign.outcomes {
                let outcome = &row[design_idx];
                stats.merge(&outcome.stats);
                mem.merge(&outcome.mem);
            }
            (name, stats, mem)
        })
        .collect()
}

/// Per-design aggregates of a GPU campaign, in campaign column order.
pub fn gpu_design_counters(campaign: &GpuCampaign) -> Vec<(String, GpuStats)> {
    crate::config::GpuDesign::ALL
        .iter()
        .enumerate()
        .map(|(design_idx, design)| {
            let mut stats = GpuStats::default();
            for row in &campaign.outcomes {
                stats.merge(&row[design_idx].stats);
            }
            (design.name().to_string(), stats)
        })
        .collect()
}

impl StatsDump {
    /// An empty dump (schema tags only).
    pub fn new() -> Self {
        StatsDump::default()
    }

    /// Adds the CPU campaign's per-design counter sets.
    pub fn with_cpu_campaign(mut self, campaign: &CpuCampaign) -> Self {
        let designs = cpu_design_counters(campaign)
            .into_iter()
            .map(|(name, stats, mem)| {
                (
                    name,
                    Value::Object(vec![
                        ("core".into(), counter_object(stats.iter().collect())),
                        ("mem".into(), counter_object(mem.iter().collect())),
                    ]),
                )
            })
            .collect();
        self.cpu = Some(Value::Object(vec![(
            "designs".into(),
            Value::Object(designs),
        )]));
        self
    }

    /// Adds the GPU campaign's per-design counter sets.
    pub fn with_gpu_campaign(mut self, campaign: &GpuCampaign) -> Self {
        let designs = gpu_design_counters(campaign)
            .into_iter()
            .map(|(name, stats)| {
                (
                    name,
                    Value::Object(vec![("gpu".into(), counter_object(stats.iter().collect()))]),
                )
            })
            .collect();
        self.gpu = Some(Value::Object(vec![(
            "designs".into(),
            Value::Object(designs),
        )]));
        self
    }

    /// Adds one runner's cumulative execution counters under `label`
    /// (e.g. `"cpu"` / `"gpu"`), with the skip counts of the
    /// observations it folded: `runner.<label>.skipped_cycles` and
    /// `wakeup_jumps`.
    pub fn with_runner(mut self, label: &str, stats: RunnerStats, observed: &Observations) -> Self {
        let Value::Object(mut counters) = stats.to_value() else {
            unreachable!("RunnerStats serializes to an object")
        };
        counters.push(("skipped_cycles".into(), observed.skipped_cycles.to_value()));
        counters.push(("wakeup_jumps".into(), observed.wakeup_jumps.to_value()));
        self.runner
            .push((label.to_string(), Value::Object(counters)));
        self
    }

    /// Records the run configuration (`insts`, `seed`, experiment CLI
    /// words), making the dump self-describing: `repro ci-gate` replays
    /// exactly this configuration when re-validating a baseline.
    pub fn with_run(mut self, insts: u64, seed: u64, experiments: &[String]) -> Self {
        self.run = Some((insts, seed, experiments.to_vec()));
        self
    }

    /// Adds the run's rendered reports, so derived metrics (normalized
    /// time/energy figures) are diffable alongside the raw counters.
    pub fn with_reports(mut self, reports: &[Report]) -> Self {
        self.reports.extend(reports.iter().cloned());
        self
    }

    /// Pretty-printed JSON.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(&self.to_value()).expect("value trees always serialize")
    }
}

impl Serialize for StatsDump {
    fn to_value(&self) -> Value {
        let mut fields = vec![(
            "schema".to_string(),
            Value::Object(vec![
                ("cpu".into(), Value::Str(CPU_SCHEMA.into())),
                ("gpu".into(), Value::Str(GPU_SCHEMA.into())),
            ]),
        )];
        if let Some((insts, seed, experiments)) = &self.run {
            fields.push((
                "run".into(),
                Value::Object(vec![
                    ("insts".into(), insts.to_value()),
                    ("seed".into(), seed.to_value()),
                    ("experiments".into(), experiments.to_value()),
                ]),
            ));
        }
        fields.push(("cpu".into(), self.cpu.clone().unwrap_or(Value::Null)));
        fields.push(("gpu".into(), self.gpu.clone().unwrap_or(Value::Null)));
        fields.push(("runner".into(), Value::Object(self.runner.clone())));
        if !self.reports.is_empty() {
            fields.push(("reports".into(), self.reports.to_value()));
        }
        Value::Object(fields)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::suite::Suite;

    fn tiny() -> Suite {
        Suite {
            insts_per_app: 4_000,
            seed: 7,
        }
    }

    #[test]
    fn empty_dump_still_carries_the_schema() {
        let v = StatsDump::new().to_value();
        assert_eq!(
            v.get("schema")
                .and_then(|s| s.get("cpu"))
                .and_then(Value::as_str),
            Some(CPU_SCHEMA)
        );
        assert_eq!(v.get("cpu"), Some(&Value::Null));
    }

    #[test]
    fn cpu_dump_contains_every_counter_name() {
        let campaign = tiny().cpu_campaign();
        let v = StatsDump::new().with_cpu_campaign(&campaign).to_value();
        let designs = v
            .get("cpu")
            .and_then(|c| c.get("designs"))
            .and_then(Value::as_object)
            .expect("designs object");
        assert_eq!(designs.len(), cpu_campaign_columns().len());
        let (_, first) = &designs[0];
        let core = first.get("core").and_then(Value::as_object).expect("core");
        for (name, _) in CoreStats::default().iter() {
            assert!(
                core.iter().any(|(k, _)| *k == name),
                "missing core counter {name}"
            );
        }
        let mem = first.get("mem").and_then(Value::as_object).expect("mem");
        for (name, _) in MemStats::default().iter() {
            assert!(
                mem.iter().any(|(k, _)| *k == name),
                "missing mem counter {name}"
            );
        }
        // The aggregates carry real activity, not zeroed defaults.
        assert!(
            first
                .get("core")
                .and_then(|c| c.get("committed"))
                .and_then(Value::as_u64)
                .expect("committed")
                > 0
        );
    }

    #[test]
    fn run_and_reports_sections_appear_only_when_set() {
        let bare = StatsDump::new().to_value();
        assert!(bare.get("run").is_none());
        assert!(bare.get("reports").is_none());

        let mut report = crate::report::Report::new("T", vec!["c".into()]);
        report.push_row("r", vec![1.5]);
        let v = StatsDump::new()
            .with_run(3000, 42, &["fig7".to_string()])
            .with_reports(&[report])
            .to_value();
        assert_eq!(
            v.get("run")
                .and_then(|r| r.get("insts"))
                .and_then(Value::as_u64),
            Some(3000)
        );
        assert_eq!(
            v.get("run")
                .and_then(|r| r.get("experiments"))
                .and_then(Value::as_array)
                .map(<[Value]>::len),
            Some(1)
        );
        let reports = v.get("reports").and_then(Value::as_array).expect("reports");
        assert_eq!(reports[0].get("title").and_then(Value::as_str), Some("T"));
    }

    #[test]
    fn dump_json_round_trips_through_the_parser() {
        let campaign = tiny().cpu_campaign();
        let observed = Observations {
            skipped_cycles: 45,
            wakeup_jumps: 10,
            ..Observations::default()
        };
        let json = StatsDump::new()
            .with_cpu_campaign(&campaign)
            .with_runner("cpu", RunnerStats::default(), &observed)
            .to_json();
        let v: Value = serde_json::from_str(&json).expect("valid JSON");
        let cpu = v
            .get("runner")
            .and_then(|r| r.get("cpu"))
            .expect("runner.cpu");
        assert_eq!(cpu.get("skipped_cycles").and_then(Value::as_u64), Some(45));
        assert_eq!(cpu.get("wakeup_jumps").and_then(Value::as_u64), Some(10));
    }
}
