//! Noise-aware comparison of two bench dumps (`repro bench --compare`).
//!
//! The unit of comparison is the headline insts/sec per scenario,
//! joined by name through [`hetsim_stats::diff::align`]. Thresholds are
//! *relative* and *noise-aware*: the policy's base tolerance is widened
//! by the larger of the two dumps' recorded repeat spreads, so a
//! scenario that measured noisily needs a proportionally larger
//! slowdown to be called a regression, while a tight scenario is held
//! to the tight band. A scenario missing from the candidate is a
//! regression (a pinned scenario silently dropping out must fail CI); a
//! new scenario in the candidate is informational.

use hetsim_stats::diff::{align, Side};

use crate::dump::BenchDump;

/// Comparison thresholds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ComparePolicy {
    /// Base relative tolerance on insts/sec before noise widening
    /// (0.25 = a 25% slowdown on a noise-free scenario regresses).
    pub rel_tol: f64,
}

impl Default for ComparePolicy {
    fn default() -> Self {
        ComparePolicy { rel_tol: 0.25 }
    }
}

impl ComparePolicy {
    /// The generous tolerance the CI ratchet uses: ratchet dumps are
    /// recorded on whatever machine cut the baseline, CI runs on
    /// shared runners, so only large slowdowns should gate.
    pub const CI_RATCHET: ComparePolicy = ComparePolicy { rel_tol: 0.60 };

    /// The effective tolerance for a scenario pair: base tolerance
    /// plus the larger recorded repeat spread, capped below 95% so a
    /// wildly noisy scenario can still regress.
    pub fn effective_tol(&self, base_spread: f64, cand_spread: f64) -> f64 {
        (self.rel_tol + base_spread.max(cand_spread)).min(0.95)
    }
}

/// The outcome of one scenario's comparison.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Candidate is faster than the widened band.
    Improved,
    /// Within the band, or unmeasurable (zero wall time) on either
    /// side — the zero-time guard never lets a sub-resolution scenario
    /// pass or fail on a meaningless ratio.
    Unchanged,
    /// Candidate is slower than the widened band allows.
    Regressed,
    /// Present in the baseline, absent from the candidate.
    Missing,
    /// Present in the candidate only (informational).
    Added,
}

impl Verdict {
    /// A short stable tag for table output.
    pub fn tag(self) -> &'static str {
        match self {
            Verdict::Improved => "improved",
            Verdict::Unchanged => "ok",
            Verdict::Regressed => "REGRESSED",
            Verdict::Missing => "MISSING",
            Verdict::Added => "added",
        }
    }

    /// Whether this verdict fails the gate.
    pub fn fails(self) -> bool {
        matches!(self, Verdict::Regressed | Verdict::Missing)
    }
}

/// One scenario's comparison row.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioDiff {
    /// Scenario name.
    pub name: String,
    /// The verdict.
    pub verdict: Verdict,
    /// Baseline insts/sec (0 for [`Verdict::Added`]).
    pub base_insts_per_sec: f64,
    /// Candidate insts/sec (0 for [`Verdict::Missing`]).
    pub cand_insts_per_sec: f64,
    /// `cand / base`; 0 when the baseline is unmeasurable.
    pub ratio: f64,
    /// The effective (noise-widened) tolerance applied.
    pub tolerance: f64,
}

/// The full comparison: one row per scenario in either dump.
#[derive(Debug, Clone, PartialEq)]
pub struct CompareReport {
    /// Rows, baseline menu order then candidate-only additions.
    pub diffs: Vec<ScenarioDiff>,
}

impl CompareReport {
    /// Gate-failing rows ([`Verdict::fails`]).
    pub fn failures(&self) -> Vec<&ScenarioDiff> {
        self.diffs.iter().filter(|d| d.verdict.fails()).collect()
    }

    /// Whether the candidate passes the gate.
    pub fn passed(&self) -> bool {
        self.failures().is_empty()
    }

    /// A fixed-width table of every row, one line each, plus a
    /// one-line summary.
    pub fn render(&self) -> String {
        let name_w = self
            .diffs
            .iter()
            .map(|d| d.name.len())
            .max()
            .unwrap_or(8)
            .max("scenario".len());
        let mut out = format!(
            "{:<name_w$}  {:>14}  {:>14}  {:>7}  {:>6}  verdict\n",
            "scenario", "base insts/s", "cand insts/s", "ratio", "tol"
        );
        for d in &self.diffs {
            out.push_str(&format!(
                "{:<name_w$}  {:>14.0}  {:>14.0}  {:>7.3}  {:>5.0}%  {}\n",
                d.name,
                d.base_insts_per_sec,
                d.cand_insts_per_sec,
                d.ratio,
                d.tolerance * 100.0,
                d.verdict.tag()
            ));
        }
        let failures = self.failures();
        if failures.is_empty() {
            out.push_str("bench compare: PASS\n");
        } else {
            out.push_str(&format!(
                "bench compare: FAIL ({} of {} scenario(s) regressed)\n",
                failures.len(),
                self.diffs.len()
            ));
        }
        out
    }
}

/// Compares `cand` against `base` under `policy`.
///
/// # Panics
///
/// Panics if either dump repeats a scenario name, which
/// [`BenchDump::validate`] rejects.
pub fn compare(base: &BenchDump, cand: &BenchDump, policy: &ComparePolicy) -> CompareReport {
    let aligned = align(
        base.scenarios.iter().map(|s| (s.name.as_str(), s)),
        cand.scenarios.iter().map(|s| (s.name.as_str(), s)),
    );
    let diffs = aligned
        .into_iter()
        .map(|(name, side)| match side {
            Side::Both(b, c) => {
                let tolerance = policy.effective_tol(b.timing.rel_spread, c.timing.rel_spread);
                // Zero-time guard: a scenario finishing below the clock's
                // resolution on either side has no meaningful ratio.
                let verdict = if b.wall_us == 0 || c.wall_us == 0 {
                    Verdict::Unchanged
                } else if c.insts_per_sec < b.insts_per_sec * (1.0 - tolerance) {
                    Verdict::Regressed
                } else if c.insts_per_sec > b.insts_per_sec * (1.0 + tolerance) {
                    Verdict::Improved
                } else {
                    Verdict::Unchanged
                };
                let ratio = if b.insts_per_sec > 0.0 {
                    c.insts_per_sec / b.insts_per_sec
                } else {
                    0.0
                };
                ScenarioDiff {
                    name: name.to_string(),
                    verdict,
                    base_insts_per_sec: b.insts_per_sec,
                    cand_insts_per_sec: c.insts_per_sec,
                    ratio,
                    tolerance,
                }
            }
            Side::Baseline(b) => ScenarioDiff {
                name: name.to_string(),
                verdict: Verdict::Missing,
                base_insts_per_sec: b.insts_per_sec,
                cand_insts_per_sec: 0.0,
                ratio: 0.0,
                tolerance: policy.rel_tol,
            },
            Side::Candidate(c) => ScenarioDiff {
                name: name.to_string(),
                verdict: Verdict::Added,
                base_insts_per_sec: 0.0,
                cand_insts_per_sec: c.insts_per_sec,
                ratio: 0.0,
                tolerance: policy.rel_tol,
            },
        })
        .collect();
    CompareReport { diffs }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dump::{BenchDump, HostInfo, ScenarioResult, BENCH_SCHEMA};
    use crate::measure::RepeatSummary;

    fn scenario(name: &str, insts: u64, wall_us: u64, rel_spread: f64) -> ScenarioResult {
        ScenarioResult {
            name: name.to_string(),
            insts,
            wall_us,
            insts_per_sec: if wall_us == 0 {
                0.0
            } else {
                insts as f64 * 1e6 / wall_us as f64
            },
            timing: RepeatSummary {
                repeats: 3,
                min_us: wall_us,
                median_us: wall_us,
                p95_us: wall_us,
                max_us: wall_us,
                mean_us: wall_us as f64,
                rel_spread,
                noisy: rel_spread > crate::measure::NOISY_REL_SPREAD,
            },
        }
    }

    fn dump(scenarios: Vec<ScenarioResult>) -> BenchDump {
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
    fn self_compare_passes_with_every_scenario_unchanged() {
        let d = dump(vec![
            scenario("a", 1000, 10, 0.0),
            scenario("b", 500, 5, 0.1),
        ]);
        let report = compare(&d, &d, &ComparePolicy::default());
        assert!(report.passed());
        assert!(report
            .diffs
            .iter()
            .all(|d| d.verdict == Verdict::Unchanged && (d.ratio - 1.0).abs() < 1e-12));
        assert!(report.render().contains("PASS"));
    }

    #[test]
    fn a_slowdown_beyond_the_band_regresses_and_within_it_does_not() {
        let base = dump(vec![scenario("a", 1000, 100, 0.0)]);
        // 20% slower: inside the default 25% band.
        let near = dump(vec![scenario("a", 1000, 125, 0.0)]);
        assert!(compare(&base, &near, &ComparePolicy::default()).passed());
        // 2x slower: out.
        let slow = dump(vec![scenario("a", 1000, 200, 0.0)]);
        let report = compare(&base, &slow, &ComparePolicy::default());
        assert_eq!(report.diffs[0].verdict, Verdict::Regressed);
        assert!(!report.passed());
        assert!(report.render().contains("FAIL"), "{}", report.render());
        // 2x faster: improved, still passing.
        let fast = dump(vec![scenario("a", 1000, 50, 0.0)]);
        let report = compare(&base, &fast, &ComparePolicy::default());
        assert_eq!(report.diffs[0].verdict, Verdict::Improved);
        assert!(report.passed());
    }

    #[test]
    fn threshold_boundary_is_inclusive_of_the_band_edge() {
        // Exactly 25% slower insts/sec with zero spread: cand =
        // base * (1 - tol) exactly, and the comparison is strict `<`,
        // so the edge itself does not regress.
        let base = dump(vec![scenario("a", 1000, 100, 0.0)]);
        let mut edge = dump(vec![scenario("a", 1000, 100, 0.0)]);
        edge.scenarios[0].insts_per_sec = base.scenarios[0].insts_per_sec * 0.75;
        assert!(compare(&base, &edge, &ComparePolicy::default()).passed());
        let mut past = dump(vec![scenario("a", 1000, 100, 0.0)]);
        past.scenarios[0].insts_per_sec = base.scenarios[0].insts_per_sec * 0.7499;
        assert!(!compare(&base, &past, &ComparePolicy::default()).passed());
    }

    #[test]
    fn noise_widens_the_band() {
        let base = dump(vec![scenario("a", 1000, 100, 0.3)]);
        // 40% slower: past the 25% base tolerance, but inside
        // 25% + 30% recorded spread.
        let slow = dump(vec![scenario("a", 1000, 167, 0.0)]);
        assert!(compare(&base, &slow, &ComparePolicy::default()).passed());
        let tight_base = dump(vec![scenario("a", 1000, 100, 0.0)]);
        assert!(!compare(&tight_base, &slow, &ComparePolicy::default()).passed());
    }

    #[test]
    fn missing_scenarios_fail_and_added_ones_do_not() {
        let base = dump(vec![
            scenario("a", 1000, 10, 0.0),
            scenario("b", 1000, 10, 0.0),
        ]);
        let cand = dump(vec![
            scenario("a", 1000, 10, 0.0),
            scenario("c", 1000, 10, 0.0),
        ]);
        let report = compare(&base, &cand, &ComparePolicy::default());
        let verdicts: Vec<(&str, Verdict)> = report
            .diffs
            .iter()
            .map(|d| (d.name.as_str(), d.verdict))
            .collect();
        assert_eq!(
            verdicts,
            [
                ("a", Verdict::Unchanged),
                ("b", Verdict::Missing),
                ("c", Verdict::Added)
            ],
            "baseline menu order, then the candidate-only additions"
        );
        assert!(!report.passed(), "a missing pinned scenario gates");
    }

    #[test]
    fn zero_time_scenarios_are_unchanged_not_infinite() {
        let base = dump(vec![scenario("a", 1000, 0, 0.0)]);
        let cand = dump(vec![scenario("a", 1000, 50, 0.0)]);
        let report = compare(&base, &cand, &ComparePolicy::default());
        assert_eq!(report.diffs[0].verdict, Verdict::Unchanged);
        assert_eq!(report.diffs[0].ratio, 0.0, "no divide-by-zero ratio");
        let report = compare(&cand, &base, &ComparePolicy::default());
        assert_eq!(report.diffs[0].verdict, Verdict::Unchanged);
        assert!(report.passed());
    }

    #[test]
    fn effective_tolerance_caps_below_one() {
        let p = ComparePolicy::default();
        assert!((p.effective_tol(0.1, 0.05) - 0.35).abs() < 1e-12);
        assert_eq!(p.effective_tol(5.0, 0.0), 0.95, "cap keeps the gate live");
    }
}
