//! Property tests for the name join, [`hetsim_stats::diff::align`],
//! over counter structs.
//!
//! The regression gate rests on three algebraic properties of it:
//!
//! 1. reflexivity — `align(a, a)` pairs every name with itself, in
//!    `iter()` order;
//! 2. merge-consistency — for `sum`-policy fields, aligning `a` with
//!    `merge(a, b)` shows exactly `b`'s non-zero values as changes;
//! 3. totality — every name either set enumerates comes out exactly
//!    once, so nothing escapes a gate built on the join.

use proptest::prelude::*;

use hetsim_stats::counters;
use hetsim_stats::diff::{align, Side};

counters! {
    /// Nested group: default (`sum / sub`) policies throughout.
    pub struct L1 {
        /// Accesses.
        pub accesses: u64,
        /// Hits.
        pub hits: u64,
    }
}

counters! {
    /// A struct exercising every policy plus nesting, mirroring the
    /// shapes the simulators declare.
    pub struct PipeStats {
        /// Max-merged, kept on minus.
        pub cycles: u64 = max / keep,
        /// Sum-merged, kept on minus.
        pub committed: u64 = sum / keep,
        /// Default policy: `sum / sub`.
        pub loads: u64,
        /// Default policy: `sum / sub`.
        pub stores: u64,
        /// Nested group (delegates field-wise).
        pub l1: L1,
    }
}

/// Names of the `sum`-merge fields of [`PipeStats`] (everything except
/// the max-merged `cycles`).
const SUM_FIELDS: [&str; 5] = ["committed", "loads", "stores", "l1.accesses", "l1.hits"];

/// One bounded value per [`PipeStats`] counter; bounded so sums stay
/// exact and overflow-free.
fn stats_values() -> impl Strategy<Value = Vec<u64>> {
    let fields = PipeStats::default().iter().count();
    proptest::collection::vec(0u64..(1 << 31), fields)
}

/// Builds a [`PipeStats`] through the name-addressed `set`, the same
/// path telemetry consumers use.
fn stats_from(values: &[u64]) -> PipeStats {
    let mut s = PipeStats::default();
    for ((name, _), v) in PipeStats::default().iter().zip(values) {
        assert!(s.set(&name, *v), "unknown counter {name}");
    }
    s
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// `align(a, a)` pairs every name with its own value, in `iter()`
    /// order, for any counter values.
    #[test]
    fn diff_of_a_set_with_itself_is_empty(values in stats_values()) {
        let a = stats_from(&values);
        let aligned = align(a.iter(), a.iter());
        let pairs: Vec<(String, Side<u64>)> =
            a.iter().map(|(n, v)| (n, Side::Both(v, v))).collect();
        prop_assert_eq!(aligned.len(), values.len());
        prop_assert_eq!(aligned, pairs, "alignment preserves iter() order");
    }

    /// Aligning a set with `merge(a, b)` recovers `b` exactly on the
    /// sum-policy fields: each such counter grows by exactly `b`'s value.
    #[test]
    fn diff_against_merge_recovers_the_merged_in_values(
        a_values in stats_values(),
        b_values in stats_values(),
    ) {
        let a = stats_from(&a_values);
        let b = stats_from(&b_values);
        let mut merged = a;
        merged.merge(&b);
        let aligned = align(a.iter(), merged.iter());
        prop_assert!(
            aligned.iter().all(|(_, side)| matches!(side, Side::Both(..))),
            "same struct, same names"
        );
        for (name, side) in aligned {
            let Side::Both(before, after) = side else { continue };
            if SUM_FIELDS.contains(&name.as_str()) {
                prop_assert_eq!(
                    after - before,
                    b.get(&name).expect("known field"),
                    "sum-policy field {} must grow by exactly b's value",
                    name
                );
            } else {
                // `cycles` merges by max: it changes iff b's value
                // exceeds a's.
                prop_assert_eq!(name.as_str(), "cycles");
                prop_assert_eq!(after != before, b.cycles > a.cycles);
            }
        }
    }

    /// Name alignment is total over `iter()`: every name of either set
    /// comes out exactly once, even for sets of different shapes.
    #[test]
    fn alignment_is_total_over_iter(
        values in stats_values(),
        group_values in proptest::collection::vec(0u64..(1 << 31), 2),
    ) {
        let whole = stats_from(&values);
        let group = L1 {
            accesses: group_values[0],
            hits: group_values[1],
        };
        // Two different shapes: the full struct vs just its L1 group
        // (whose names lack the `l1.` prefix, so they never collide).
        let aligned = align(whole.iter(), group.iter());
        let expected: Vec<(String, Side<u64>)> = whole
            .iter()
            .map(|(n, v)| (n, Side::Baseline(v)))
            .chain(group.iter().map(|(n, v)| (n, Side::Candidate(v))))
            .collect();
        prop_assert_eq!(
            aligned,
            expected,
            "disjoint name spaces align nothing, and every name comes out once"
        );
    }
}
