//! Top-down cycle-attribution vocabulary shared by the CPU and GPU
//! simulators and the profiling exporters.
//!
//! Every simulated cycle of every core/CU is charged to exactly one
//! [`CycleClass`] — the top-down decomposition the profiler (`repro
//! profile`) rolls up per design. The class set is deliberately small
//! and device-agnostic: the same seven names cover an out-of-order CPU
//! core and a SIMT compute unit, so cross-device comparisons (where do
//! TFET latencies actually go?) need no name translation.
//!
//! Class counting is always on: it is a handful of branches per
//! simulated event-step and never changes simulation results.

use crate::serde::value::Value;
use crate::serde::{Deserialize, Error, Serialize};

/// The top-down cycle classes, in canonical (serialization) order.
///
/// A cycle is charged to the *highest-priority* class that applies:
/// useful retirement first, then front-end supply, then the specific
/// back-end bottleneck that blocked progress.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CycleClass {
    /// The unit retired/committed work this cycle.
    Retire,
    /// The front end delivered new work (dispatch/fetch made progress)
    /// but nothing retired.
    Frontend,
    /// The front end is squashed: waiting out a branch-mispredict
    /// redirect before it may deliver again.
    BranchRedirect,
    /// Dispatch blocked on back-end occupancy (ROB/IQ/LSQ/rename full).
    RobFull,
    /// Issue is the bottleneck: work is buffered but no instruction
    /// became ready (dependence chains, structural issue limits).
    IssueBound,
    /// The oldest in-flight instruction is an outstanding memory
    /// access; the window is draining behind it.
    MemLatency,
    /// No work anywhere in the unit (drained launch tail, idle core).
    IdleSkipped,
}

impl CycleClass {
    /// Every class, in canonical order (the order [`ClassCounts`]
    /// serializes and folded stacks enumerate).
    pub const ALL: [CycleClass; 7] = [
        CycleClass::Retire,
        CycleClass::Frontend,
        CycleClass::BranchRedirect,
        CycleClass::RobFull,
        CycleClass::IssueBound,
        CycleClass::MemLatency,
        CycleClass::IdleSkipped,
    ];

    /// The stable kebab-case name (used in folded stacks, counter
    /// tracks and the `hetsim-profile-v1` schema).
    pub fn name(self) -> &'static str {
        match self {
            CycleClass::Retire => "retire",
            CycleClass::Frontend => "frontend",
            CycleClass::BranchRedirect => "branch-redirect",
            CycleClass::RobFull => "rob-full",
            CycleClass::IssueBound => "issue-bound",
            CycleClass::MemLatency => "mem-latency",
            CycleClass::IdleSkipped => "idle-skipped",
        }
    }

    /// Parses a kebab-case class name back into its class.
    pub fn from_name(name: &str) -> Option<CycleClass> {
        CycleClass::ALL.into_iter().find(|c| c.name() == name)
    }
}

/// Per-class cycle totals for one unit (core or CU): a tiny fixed
/// array indexed by [`CycleClass`], summing to the unit's total
/// simulated cycles — the invariant `hetsim-check` enforces.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ClassCounts([u64; CycleClass::ALL.len()]);

impl ClassCounts {
    /// All-zero counts.
    pub fn new() -> Self {
        ClassCounts::default()
    }

    /// Charges `cycles` cycles to `class` (saturating).
    pub fn charge(&mut self, class: CycleClass, cycles: u64) {
        let slot = &mut self.0[class as usize];
        *slot = slot.saturating_add(cycles);
    }

    /// The cycles charged to `class`.
    pub fn get(&self, class: CycleClass) -> u64 {
        self.0[class as usize]
    }

    /// Folds another unit's counts in (element-wise saturating add).
    pub fn merge(&mut self, other: &ClassCounts) {
        for (mine, theirs) in self.0.iter_mut().zip(&other.0) {
            *mine = mine.saturating_add(*theirs);
        }
    }

    /// Total cycles across all classes (saturating).
    pub fn total(&self) -> u64 {
        self.0.iter().fold(0u64, |acc, &c| acc.saturating_add(c))
    }

    /// `(class, cycles)` pairs in canonical order.
    pub fn iter(&self) -> impl Iterator<Item = (CycleClass, u64)> + '_ {
        CycleClass::ALL.into_iter().map(|c| (c, self.get(c)))
    }

    /// `true` when no cycle has been charged to any class.
    pub fn is_empty(&self) -> bool {
        self.0.iter().all(|&c| c == 0)
    }
}

impl Serialize for ClassCounts {
    fn to_value(&self) -> Value {
        Value::Object(
            self.iter()
                .map(|(class, cycles)| (class.name().to_string(), Value::UInt(cycles)))
                .collect(),
        )
    }
}

impl Deserialize for ClassCounts {
    /// Strict: exactly the seven class names, each once, each unsigned.
    fn from_value(v: &Value) -> Result<Self, Error> {
        let entries = v
            .as_object()
            .ok_or_else(|| Error::custom("ClassCounts is not an object"))?;
        let mut counts = ClassCounts::new();
        let mut seen = [false; CycleClass::ALL.len()];
        for (name, value) in entries {
            let class = CycleClass::from_name(name)
                .ok_or_else(|| Error::custom(format!("unknown cycle class `{name}`")))?;
            if std::mem::replace(&mut seen[class as usize], true) {
                return Err(Error::custom(format!("cycle class `{name}` appears twice")));
            }
            let cycles = value
                .as_u64()
                .ok_or_else(|| Error::custom(format!("cycle class `{name}` is not unsigned")))?;
            counts.charge(class, cycles);
        }
        match CycleClass::ALL.into_iter().find(|&c| !seen[c as usize]) {
            Some(missing) => Err(Error::custom(format!(
                "cycle class `{}` is missing",
                missing.name()
            ))),
            None => Ok(counts),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_round_trip_and_stay_kebab_case() {
        for class in CycleClass::ALL {
            assert_eq!(CycleClass::from_name(class.name()), Some(class));
            assert!(
                class
                    .name()
                    .chars()
                    .all(|c| c.is_ascii_lowercase() || c == '-'),
                "{} is not kebab-case",
                class.name()
            );
        }
        assert_eq!(CycleClass::from_name("nope"), None);
    }

    #[test]
    fn charge_merge_total_are_consistent() {
        let mut a = ClassCounts::new();
        a.charge(CycleClass::Retire, 10);
        a.charge(CycleClass::MemLatency, 5);
        let mut b = ClassCounts::new();
        b.charge(CycleClass::Retire, 1);
        b.charge(CycleClass::IdleSkipped, 4);
        a.merge(&b);
        assert_eq!(a.get(CycleClass::Retire), 11);
        assert_eq!(a.get(CycleClass::IdleSkipped), 4);
        assert_eq!(a.total(), 20);
        assert!(!a.is_empty());
        assert!(ClassCounts::new().is_empty());
    }

    #[test]
    fn class_counts_serde_round_trips() {
        let mut c = ClassCounts::new();
        c.charge(CycleClass::Frontend, 3);
        c.charge(CycleClass::RobFull, 7);
        let v = c.to_value();
        assert_eq!(v.get("frontend").and_then(Value::as_u64), Some(3));
        let back = ClassCounts::from_value(&v).expect("round trip");
        assert_eq!(back, c);
        assert!(ClassCounts::from_value(&Value::Object(vec![(
            "bogus-class".into(),
            Value::UInt(1)
        )]))
        .is_err());
    }

    #[test]
    fn a_class_named_twice_or_missing_is_an_error() {
        // `{"retire": 1, "retire": 2}` once read as 3 retire cycles.
        let twice = Value::Object(vec![
            ("retire".into(), Value::UInt(1)),
            ("retire".into(), Value::UInt(2)),
        ]);
        let err = ClassCounts::from_value(&twice).expect_err("duplicate class");
        assert!(err.to_string().contains("`retire` appears twice"), "{err}");
        let Value::Object(mut fields) = ClassCounts::new().to_value() else {
            panic!("ClassCounts serializes to an object");
        };
        fields.pop();
        let err = ClassCounts::from_value(&Value::Object(fields)).expect_err("missing class");
        assert!(
            err.to_string().contains("`idle-skipped` is missing"),
            "{err}"
        );
    }
}
