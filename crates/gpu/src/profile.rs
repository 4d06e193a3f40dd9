//! Per-compute-unit cycle-attribution profile.
//!
//! [`CuProfile`] is the GPU half of the top-down profiler: every cycle
//! of [`crate::cu::run_cu`] is charged to exactly one
//! [`CycleClass`], so the class counts sum to `GpuStats::cycles` for
//! that CU — an identity `hetsim-check` enforces
//! (`gpu.profile_class_conservation`). A SIMT unit has no front end to
//! starve or ROB to fill, so only a subset of the shared class
//! vocabulary appears: `retire` (an instruction issued), `mem-latency`
//! (every resident wavefront dependence-blocked on an outstanding
//! memory instruction), `issue-bound` (blocked on SIMD issue occupancy
//! or a non-memory dependence chain), and `idle-skipped` (the
//! launch-tail drain of a wavefront batch).

use hetsim_stats::attribution::ClassCounts;
use hetsim_stats::serde::value::Value;
use hetsim_stats::serde::{Deserialize, Error, Serialize};
use hetsim_stats::Histogram;

pub use hetsim_stats::attribution::CycleClass;

/// Top-down attribution for one CU run: where every cycle went, plus
/// (when profiling is enabled) the distribution of unfinished resident
/// wavefronts per cycle.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CuProfile {
    /// Cycles charged per top-down class; sums to [`CuProfile::cycles`].
    pub classes: ClassCounts,
    /// Total cycles this CU ran (equals its `GpuStats::cycles`).
    pub cycles: u64,
    /// Unfinished resident wavefronts, sampled every cycle (bulk-sampled
    /// across idle jumps). Empty when profiling is off.
    pub residency: Histogram,
}

impl CuProfile {
    /// `true` when no cycle was attributed (empty launches, default
    /// contexts). The conservation check is skipped for empty profiles.
    pub fn is_empty(&self) -> bool {
        self.cycles == 0 && self.classes.is_empty()
    }

    /// Folds another CU's attribution in (per-design roll-ups): class
    /// counts and cycles add, residency samples merge.
    pub fn merge(&mut self, other: &CuProfile) {
        self.classes.merge(&other.classes);
        self.cycles = self.cycles.saturating_add(other.cycles);
        self.residency.merge(&other.residency);
    }
}

impl Serialize for CuProfile {
    fn to_value(&self) -> Value {
        Value::Object(vec![
            ("cycles".into(), Value::UInt(self.cycles)),
            ("classes".into(), self.classes.to_value()),
            ("residency".into(), self.residency.to_value()),
        ])
    }
}

impl Deserialize for CuProfile {
    fn from_value(v: &Value) -> Result<Self, Error> {
        let field = |name: &str| {
            v.get(name)
                .ok_or_else(|| Error::custom(format!("CuProfile has no `{name}`")))
        };
        Ok(CuProfile {
            cycles: field("cycles")?
                .as_u64()
                .ok_or_else(|| Error::custom("CuProfile.cycles is not unsigned"))?,
            classes: ClassCounts::from_value(field("classes")?)?,
            residency: Histogram::from_value(field("residency")?)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_adds_and_serde_round_trips() {
        let mut a = CuProfile::default();
        a.classes.charge(CycleClass::Retire, 100);
        a.classes.charge(CycleClass::MemLatency, 20);
        a.cycles = 120;
        a.residency.record_n(8, 120);
        let mut b = CuProfile::default();
        b.classes.charge(CycleClass::IdleSkipped, 5);
        b.cycles = 5;
        a.merge(&b);
        assert_eq!(a.cycles, 125);
        assert_eq!(a.classes.total(), 125);
        assert!(!a.is_empty());
        assert!(CuProfile::default().is_empty());
        let back = CuProfile::from_value(&a.to_value()).expect("round trip");
        assert_eq!(back, a);
    }
}
