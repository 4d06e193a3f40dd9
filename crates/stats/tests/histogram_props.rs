//! Property tests for the bounded-bucket [`Histogram`].
//!
//! The runner folds every job's profile rows, occupancy histograms
//! included, into campaign totals, and `--profile-out` serializes them —
//! so three algebraic properties must hold for those histograms to be
//! trustworthy:
//!
//! 1. **merge associativity/commutativity** — fold order (job by job
//!    vs. all at once) cannot change the result;
//! 2. **bucket-count conservation** — the bucket counts always sum to
//!    `count()`, under any interleaving of `record` and `merge` (no
//!    sample is ever dropped or double-counted), and merge conserves
//!    the total;
//! 3. **serde round-trip** — a dump written and re-read is the same
//!    histogram.
//!
//! Saturation (samples near `u64::MAX`) must degrade gracefully:
//! clamp, never wrap or panic.

use proptest::prelude::*;

use hetsim_stats::histogram::BUCKETS;
use hetsim_stats::Histogram;
use serde::{Deserialize, Serialize};

/// Arbitrary sample lists, mixing small values with full-range ones so
/// every bucket (including the overflow bucket) gets exercised.
fn samples() -> impl Strategy<Value = Vec<u64>> {
    proptest::collection::vec(any::<u64>(), 0..40).prop_map(|values| {
        values
            .into_iter()
            .enumerate()
            .map(|(i, v)| if i % 2 == 0 { v % 1024 } else { v })
            .collect()
    })
}

fn hist_of(samples: &[u64]) -> Histogram {
    let mut h = Histogram::new();
    for &v in samples {
        h.record(v);
    }
    h
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// `(a ⊔ b) ⊔ c == a ⊔ (b ⊔ c)` and `a ⊔ b == b ⊔ a`: campaign
    /// aggregation is independent of batch order.
    #[test]
    fn merge_is_associative_and_commutative(
        a in samples(),
        b in samples(),
        c in samples(),
    ) {
        let (a, b, c) = (hist_of(&a), hist_of(&b), hist_of(&c));

        let mut left = a;
        left.merge(&b);
        left.merge(&c);

        let mut bc = b;
        bc.merge(&c);
        let mut right = a;
        right.merge(&bc);

        prop_assert_eq!(left, right, "associativity");

        let mut ab = a;
        ab.merge(&b);
        let mut ba = b;
        ba.merge(&a);
        prop_assert_eq!(ab, ba, "commutativity");
    }

    /// Bucket counts are conserved: they sum to `count()` after any
    /// recording sequence, and merging two histograms yields the sum of
    /// their counts (nothing dropped, nothing double-counted).
    #[test]
    fn bucket_counts_are_conserved(a in samples(), b in samples()) {
        let ha = hist_of(&a);
        let hb = hist_of(&b);
        prop_assert_eq!(ha.bucket_counts().iter().sum::<u64>(), ha.count());
        prop_assert_eq!(ha.count(), a.len() as u64);

        let mut merged = ha;
        merged.merge(&hb);
        prop_assert_eq!(merged.count(), ha.count() + hb.count());
        prop_assert_eq!(merged.bucket_counts().iter().sum::<u64>(), merged.count());
        // Element-wise: each bucket is exactly the sum of its parts.
        for i in 0..BUCKETS {
            prop_assert_eq!(
                merged.bucket_counts()[i],
                ha.bucket_counts()[i] + hb.bucket_counts()[i]
            );
        }
    }

    /// Serialization round-trips exactly, including overflow-bucket
    /// samples and saturated sums.
    #[test]
    fn serde_round_trips(a in samples()) {
        let h = hist_of(&a);
        let back = Histogram::from_value(&h.to_value()).expect("round trip");
        prop_assert_eq!(back, h);
    }

    /// Extreme samples saturate: `sum` clamps at `u64::MAX`, `max`
    /// tracks the true maximum, and every sample still lands in a
    /// bucket.
    #[test]
    fn saturation_degrades_gracefully(small in samples()) {
        let mut h = hist_of(&small);
        let before = h.count();
        h.record(u64::MAX);
        h.record(u64::MAX);
        prop_assert_eq!(h.count(), before + 2);
        prop_assert_eq!(h.sum(), u64::MAX, "sum clamps, never wraps");
        prop_assert_eq!(h.max(), u64::MAX);
        prop_assert_eq!(h.bucket_counts().iter().sum::<u64>(), h.count());
    }

    /// Quantiles are monotone in `q` (p50 ≤ p95 ≤ p99 ≤ max), defined
    /// exactly when the histogram is non-empty, and never undershoot
    /// below the 0-quantile.
    #[test]
    fn quantiles_are_monotone_and_bounded(a in samples()) {
        let h = hist_of(&a);
        if a.is_empty() {
            prop_assert!(h.quantile(0.0).is_none(), "empty has no quantiles");
            prop_assert!(h.quantile(1.0).is_none());
            prop_assert_eq!((h.p50(), h.p95(), h.p99()), (0, 0, 0));
        } else {
            let p50 = h.quantile(0.50).expect("non-empty");
            let p95 = h.quantile(0.95).expect("non-empty");
            let p99 = h.quantile(0.99).expect("non-empty");
            prop_assert!(p50 <= p95, "p50 {p50} <= p95 {p95}");
            prop_assert!(p95 <= p99, "p95 {p95} <= p99 {p99}");
            prop_assert!(p99 <= h.max(), "p99 {p99} clamps to max {}", h.max());
            prop_assert!(
                h.quantile(0.0).expect("non-empty") <= p50,
                "q is monotone from the bottom too"
            );
        }
    }

    /// A single-sample histogram reports that sample's bucket bound
    /// (clamped to the sample itself) at every quantile.
    #[test]
    fn single_sample_quantiles_collapse(v in any::<u64>()) {
        let mut h = Histogram::new();
        h.record(v);
        for q in [0.0, 0.25, 0.5, 0.99, 1.0] {
            let est = h.quantile(q).expect("one sample");
            prop_assert_eq!(est, h.max(), "one sample: every quantile is it");
            prop_assert!(est <= v.saturating_mul(2).max(1), "bucket bound overshoot ≤ 2x");
        }
    }

    /// `record_n(v, n)` is exactly `n` times `record(v)` — the bulk
    /// path the cycle-attribution profiler uses for dead-cycle skips.
    #[test]
    fn record_n_equals_repeated_record(v in any::<u64>(), n in 0u64..200) {
        let mut bulk = Histogram::new();
        bulk.record_n(v, n);
        let mut single = Histogram::new();
        for _ in 0..n {
            single.record(v);
        }
        prop_assert_eq!(bulk, single);
    }
}
