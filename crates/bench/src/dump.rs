//! The `BENCH_*.json` dump schema.
//!
//! A dump is one machine's measured perf trajectory point: a schema
//! version, a host fingerprint, the run configuration (budget, seed,
//! warmup, repeats, quick/full profile), and one [`ScenarioResult`]
//! per pinned scenario with the headline simulated-instructions/sec
//! plus the full repeat statistics. Dumps are what `repro bench --out`
//! writes, what `--compare` diffs, and what the CI ratchet pins.

use serde::{Deserialize, Serialize};

use crate::measure::{Measurement, RepeatSummary};

/// Schema tag stamped into every dump; bump on layout changes so a
/// compare across incompatible dumps fails loudly instead of reading
/// garbage.
pub const BENCH_SCHEMA: &str = "hetsim-bench-v1";

/// A coarse host fingerprint, recorded so a trajectory of dumps can be
/// told apart by machine — cross-machine insts/sec comparisons need
/// wide tolerances, same-machine ones do not.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct HostInfo {
    /// Operating system (`std::env::consts::OS`).
    pub os: String,
    /// CPU architecture (`std::env::consts::ARCH`).
    pub arch: String,
    /// Available parallelism (0 when undeterminable).
    pub cpus: u64,
}

impl HostInfo {
    /// The current machine's fingerprint.
    pub fn detect() -> Self {
        HostInfo {
            os: std::env::consts::OS.to_string(),
            arch: std::env::consts::ARCH.to_string(),
            cpus: std::thread::available_parallelism()
                .map(|n| n.get() as u64)
                .unwrap_or(0),
        }
    }
}

/// One pinned scenario's measured result.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ScenarioResult {
    /// Scenario name (stable across dumps; compare joins on it).
    pub name: String,
    /// Instructions the scenario simulates per repeat.
    pub insts: u64,
    /// Median wall time per repeat, microseconds.
    pub wall_us: u64,
    /// The headline metric: `insts / median wall seconds`; 0 when the
    /// median wall time is 0 (too fast to resolve — the compare step
    /// treats such scenarios as unmeasurable rather than infinitely
    /// fast).
    pub insts_per_sec: f64,
    /// Full repeat statistics behind the headline.
    pub timing: RepeatSummary,
}

impl ScenarioResult {
    /// Summarizes a [`Measurement`] under `name`.
    pub fn new(name: impl Into<String>, measurement: &Measurement) -> Self {
        let timing = RepeatSummary::from_samples(&measurement.samples_us);
        let wall_us = timing.median_us;
        let insts_per_sec = if wall_us == 0 {
            0.0
        } else {
            measurement.insts as f64 * 1e6 / wall_us as f64
        };
        ScenarioResult {
            name: name.into(),
            insts: measurement.insts,
            wall_us,
            insts_per_sec,
            timing,
        }
    }
}

/// One `BENCH_*.json` document.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BenchDump {
    /// Always [`BENCH_SCHEMA`] for dumps written by this build.
    pub schema: String,
    /// Whether the `--quick` profile produced this dump (quick and
    /// full dumps are not comparable — different budgets).
    pub quick: bool,
    /// Requested per-scenario instruction budget.
    pub insts: u64,
    /// Trace-generator seed all scenarios ran on.
    pub seed: u64,
    /// Discarded warmup iterations per scenario.
    pub warmup: u32,
    /// Timed repeats per scenario.
    pub repeats: u32,
    /// The measuring machine.
    pub host: HostInfo,
    /// One entry per pinned scenario, menu order.
    pub scenarios: Vec<ScenarioResult>,
}

impl BenchDump {
    /// Structural validity: correct schema tag, at least one scenario,
    /// unique non-empty scenario names, and a finite, non-negative
    /// insts/sec for every scenario.
    ///
    /// # Errors
    ///
    /// Returns a message describing the first violation.
    pub fn validate(&self) -> Result<(), String> {
        if self.schema != BENCH_SCHEMA {
            return Err(format!(
                "schema mismatch: dump says `{}`, this build reads `{BENCH_SCHEMA}`",
                self.schema
            ));
        }
        if self.scenarios.is_empty() {
            return Err("dump has no scenarios".to_string());
        }
        let mut seen: Vec<&str> = Vec::new();
        for s in &self.scenarios {
            if s.name.is_empty() {
                return Err("a scenario has an empty name".to_string());
            }
            if seen.contains(&s.name.as_str()) {
                return Err(format!("duplicate scenario `{}`", s.name));
            }
            seen.push(&s.name);
            if !s.insts_per_sec.is_finite() || s.insts_per_sec < 0.0 {
                return Err(format!(
                    "scenario `{}` has a non-finite or negative insts/sec",
                    s.name
                ));
            }
        }
        Ok(())
    }

    /// The pretty-printed JSON document, newline-terminated.
    pub fn to_json(&self) -> String {
        let mut text = serde_json::to_string_pretty(self).expect("value trees always serialize");
        text.push('\n');
        text
    }

    /// Parses and validates a dump document. Only the form
    /// [`BenchDump::to_json`] writes is accepted: a field the reader
    /// would skip (unknown, or out of order) or a number it would coerce
    /// (`-0`, a float written as an integer) is an error, so an accepted
    /// dump says exactly what its text says.
    ///
    /// # Errors
    ///
    /// Returns a message for malformed JSON, a layout mismatch, or a
    /// dump failing [`BenchDump::validate`].
    pub fn from_json(text: &str) -> Result<Self, String> {
        let value: serde::value::Value =
            serde_json::from_str(text).map_err(|e| format!("not a bench dump: {e}"))?;
        let dump = BenchDump::from_value(&value).map_err(|e| format!("not a bench dump: {e}"))?;
        if dump.to_value() != value {
            return Err(
                "not a bench dump: fields or numbers not as `repro bench` writes them".into(),
            );
        }
        dump.validate()?;
        Ok(dump)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn result(name: &str, insts: u64, samples: &[u64]) -> ScenarioResult {
        ScenarioResult::new(
            name,
            &Measurement {
                insts,
                samples_us: samples.to_vec(),
            },
        )
    }

    pub(crate) fn dump(scenarios: Vec<ScenarioResult>) -> BenchDump {
        BenchDump {
            schema: BENCH_SCHEMA.to_string(),
            quick: true,
            insts: 60_000,
            seed: 42,
            warmup: 1,
            repeats: 3,
            host: HostInfo::detect(),
            scenarios,
        }
    }

    #[test]
    fn insts_per_sec_derives_from_the_median_repeat() {
        let r = result("fig7-cpu-campaign", 300_000, &[200_000, 100_000, 150_000]);
        assert_eq!(r.wall_us, 150_000);
        assert!((r.insts_per_sec - 2_000_000.0).abs() < 1e-6);
    }

    #[test]
    fn zero_median_yields_zero_insts_per_sec() {
        let r = result("micro", 1_000, &[0, 0, 0]);
        assert_eq!(r.wall_us, 0);
        assert_eq!(r.insts_per_sec, 0.0, "never infinity");
    }

    #[test]
    fn dumps_round_trip_through_json() {
        let d = dump(vec![
            result("a", 10, &[5, 6, 7]),
            result("b", 20, &[1, 1, 1]),
        ]);
        let back = BenchDump::from_json(&d.to_json()).expect("round trip");
        assert_eq!(back, d);
    }

    #[test]
    fn validate_rejects_structural_defects() {
        let wrong_schema = BenchDump {
            schema: "hetsim-bench-v0".into(),
            ..dump(vec![result("a", 1, &[1])])
        };
        assert!(wrong_schema.validate().unwrap_err().contains("schema"));

        assert!(dump(Vec::new())
            .validate()
            .unwrap_err()
            .contains("no scenarios"));

        let dup = dump(vec![result("a", 1, &[1]), result("a", 1, &[1])]);
        assert!(dup.validate().unwrap_err().contains("duplicate"));

        let mut bad = dump(vec![result("a", 1, &[1])]);
        bad.scenarios[0].insts_per_sec = f64::NAN;
        assert!(bad.validate().is_err());
    }

    #[test]
    fn a_dump_repeating_a_key_is_an_error_not_first_wins() {
        let text = dump(vec![result("a", 1, &[4])]).to_json();
        let repeated = text.replacen(
            "\"wall_us\": 4,",
            "\"wall_us\": 4,\n      \"wall_us\": 9,",
            1,
        );
        assert_ne!(repeated, text);
        let err = BenchDump::from_json(&repeated).unwrap_err();
        assert!(err.contains("`wall_us` appears twice"), "{err}");
    }

    #[test]
    fn a_dump_not_in_the_written_form_is_an_error() {
        let text = dump(vec![result("a", 1, &[4, 5])]).to_json();
        let extra = text.replacen('{', "{\n  \"note\": 1,", 1);
        let integral = text.replacen("\"mean_us\": 4.5", "\"mean_us\": 4", 1);
        for edited in [extra, integral] {
            assert_ne!(edited, text);
            let err = BenchDump::from_json(&edited).expect_err("not as written");
            assert!(err.contains("not as `repro bench` writes them"), "{err}");
        }
    }

    #[test]
    fn from_json_rejects_garbage_and_wrong_schemas() {
        assert!(BenchDump::from_json("not json").is_err());
        let mut d = dump(vec![result("a", 1, &[1])]);
        d.schema = "other".into();
        let err = BenchDump::from_json(&d.to_json()).unwrap_err();
        assert!(err.contains("hetsim-bench-v1"), "{err}");
    }
}
