//! A bounded-bucket histogram of per-cycle samples.
//!
//! The cycle profile's occupancy rows (`rob`, `iq`, `lsq`, `residency`
//! in a `hetsim-profile-v1` document) need a distribution, not just a
//! sum: a queue that is sometimes full looks the same as one that is
//! always half full in a mean, but very different in a histogram.
//! [`Histogram`] keeps **power-of-two buckets** with a fixed bucket
//! count, so:
//!
//! * memory is constant (no per-sample storage, no unbounded growth);
//! * any `u64` sample has a bucket — the last bucket absorbs
//!   everything at or beyond `2^(BUCKETS-2)`, so recording can never
//!   fail or resize;
//! * `merge` is element-wise saturating addition, which is
//!   **associative and commutative** — folding a campaign's rows gives
//!   the same histogram in any order (the property the proptests in
//!   `tests/histogram_props.rs` pin).
//!
//! Totals (`count`, `sum`) saturate instead of wrapping for the same
//! reason the counter structs' `minus` saturates: silent wraparound in
//! release builds would corrupt telemetry invisibly.

use crate::serde::value::Value;
use crate::serde::{Deserialize, Error, Serialize};

/// Number of buckets: bucket 0 holds zero-valued samples, bucket `i`
/// (1 ≤ i < 31) holds samples in `[2^(i-1), 2^i)`, and the last bucket
/// holds everything at or beyond `2^30` — far beyond any occupancy a
/// simulated structure reaches.
pub const BUCKETS: usize = 32;

/// A fixed-size power-of-two-bucket histogram of `u64` samples.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Histogram {
    counts: [u64; BUCKETS],
    /// Samples recorded (saturating).
    count: u64,
    /// Sum of all samples (saturating).
    sum: u64,
    /// Largest sample seen (0 when empty).
    max: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            counts: [0; BUCKETS],
            count: 0,
            sum: 0,
            max: 0,
        }
    }
}

/// The bucket index for `value`.
fn bucket_of(value: u64) -> usize {
    if value == 0 {
        0
    } else {
        // 2^(i-1) <= value < 2^i  =>  bucket i, clamped into range.
        let i = 64 - value.leading_zeros() as usize;
        i.min(BUCKETS - 1)
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Histogram::default()
    }

    /// Records one sample.
    pub fn record(&mut self, value: u64) {
        self.record_n(value, 1);
    }

    /// Records `n` identical samples in one update — what a bulk
    /// accounting step needs (e.g. "the ROB held 40 entries for the
    /// next 900 skipped cycles") without `n` individual `record` calls.
    /// `n == 0` is a no-op.
    pub fn record_n(&mut self, value: u64, n: u64) {
        if n == 0 {
            return;
        }
        self.counts[bucket_of(value)] = self.counts[bucket_of(value)].saturating_add(n);
        self.count = self.count.saturating_add(n);
        self.sum = self.sum.saturating_add(value.saturating_mul(n));
        self.max = self.max.max(value);
    }

    /// The histogram of samples counted per level: `levels[v]` samples
    /// of value `v`. The same as recording every sample one at a time,
    /// since `record_n(v, a)` then `record_n(v, b)` is
    /// `record_n(v, a + b)` and samples of different values commute.
    pub fn from_levels(levels: &[u64]) -> Histogram {
        let mut h = Histogram::new();
        for (value, &n) in levels.iter().enumerate() {
            h.record_n(value as u64, n);
        }
        h
    }

    /// Folds another histogram in (element-wise saturating addition;
    /// associative and commutative).
    pub fn merge(&mut self, other: &Histogram) {
        for (mine, theirs) in self.counts.iter_mut().zip(&other.counts) {
            *mine = mine.saturating_add(*theirs);
        }
        self.count = self.count.saturating_add(other.count);
        self.sum = self.sum.saturating_add(other.sum);
        self.max = self.max.max(other.max);
    }

    /// Samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all samples (saturating).
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Largest sample seen; 0 when empty.
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Mean sample value; 0.0 when empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// The per-bucket counts (bucket 0 = zeros, bucket `i` =
    /// `[2^(i-1), 2^i)`, last bucket = overflow).
    pub fn bucket_counts(&self) -> &[u64; BUCKETS] {
        &self.counts
    }

    /// An upper-bound estimate of the `q`-quantile sample (`q` in
    /// `[0, 1]`), resolved to bucket granularity: the smallest bucket
    /// upper bound at which the cumulative count reaches `q * count`.
    ///
    /// Buckets are power-of-two wide, so the estimate can overshoot the
    /// true sample by at most 2x; it never undershoots, and it is
    /// clamped to [`Histogram::max`] (exact for the overflow bucket and
    /// for any quantile landing in the top occupied bucket). Returns
    /// `None` when the histogram is empty — there is no sample to
    /// estimate, and 0 would be indistinguishable from a real all-zero
    /// distribution.
    pub fn quantile(&self, q: f64) -> Option<u64> {
        if self.count == 0 {
            return None;
        }
        // The rank of the q-quantile sample, 1-based, clamped into
        // [1, count] so q=0 means "first sample" and q=1 "last".
        let rank = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            seen = seen.saturating_add(c);
            if seen >= rank {
                // Upper bound of bucket i: 0 for the zero bucket,
                // 2^i - 1 for [2^(i-1), 2^i), and `max` for overflow.
                let bound = match i {
                    0 => 0,
                    i if i == BUCKETS - 1 => self.max,
                    i => (1u64 << i) - 1,
                };
                return Some(bound.min(self.max));
            }
        }
        Some(self.max)
    }

    /// Median estimate (see [`Histogram::quantile`]); 0 when empty, so
    /// serialized summaries stay plain integers.
    pub fn p50(&self) -> u64 {
        self.quantile(0.50).unwrap_or(0)
    }

    /// 95th-percentile estimate (see [`Histogram::quantile`]); 0 when
    /// empty.
    pub fn p95(&self) -> u64 {
        self.quantile(0.95).unwrap_or(0)
    }

    /// 99th-percentile estimate (see [`Histogram::quantile`]); 0 when
    /// empty.
    pub fn p99(&self) -> u64 {
        self.quantile(0.99).unwrap_or(0)
    }

    /// `true` when no sample has been recorded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }
}

impl Serialize for Histogram {
    fn to_value(&self) -> Value {
        // p50/p95/p99 are derived fields for dump consumers; the
        // deserializer checks them against `buckets`.
        Value::Object(vec![
            ("count".into(), Value::UInt(self.count)),
            ("sum".into(), Value::UInt(self.sum)),
            ("max".into(), Value::UInt(self.max)),
            ("p50".into(), Value::UInt(self.p50())),
            ("p95".into(), Value::UInt(self.p95())),
            ("p99".into(), Value::UInt(self.p99())),
            (
                "buckets".into(),
                Value::Array(self.counts.iter().map(|&c| Value::UInt(c)).collect()),
            ),
        ])
    }
}

impl Deserialize for Histogram {
    fn from_value(v: &Value) -> Result<Self, Error> {
        let u64_field = |name: &str| {
            v.get(name)
                .and_then(Value::as_u64)
                .ok_or_else(|| Error::custom(format!("Histogram has no unsigned `{name}`")))
        };
        let buckets = v
            .get("buckets")
            .and_then(Value::as_array)
            .ok_or_else(|| Error::custom("Histogram has no `buckets` array"))?;
        if buckets.len() != BUCKETS {
            return Err(Error::custom(format!(
                "Histogram has {} buckets, expected {BUCKETS}",
                buckets.len()
            )));
        }
        let mut counts = [0u64; BUCKETS];
        for (slot, bucket) in counts.iter_mut().zip(buckets) {
            *slot = bucket
                .as_u64()
                .ok_or_else(|| Error::custom("Histogram bucket is not an unsigned integer"))?;
        }
        let h = Histogram {
            counts,
            count: u64_field("count")?,
            sum: u64_field("sum")?,
            max: u64_field("max")?,
        };
        // Strict: every summary field must agree with the buckets.
        let in_buckets = counts.iter().fold(0u64, |a, &c| a.saturating_add(c));
        if h.count != in_buckets {
            return Err(Error::custom(format!(
                "Histogram `count` {} differs from its bucket total {in_buckets}",
                h.count
            )));
        }
        let top = counts.iter().rposition(|&c| c > 0);
        if top.map_or(h.max != 0 || h.sum != 0, |i| bucket_of(h.max) != i) {
            return Err(Error::custom(format!(
                "Histogram `max` {} is not in its top occupied bucket",
                h.max
            )));
        }
        for (name, derived) in [("p50", h.p50()), ("p95", h.p95()), ("p99", h.p99())] {
            if u64_field(name)? != derived {
                return Err(Error::custom(format!(
                    "Histogram `{name}` disagrees with its buckets"
                )));
            }
        }
        Ok(h)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_cover_the_full_u64_range() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 1);
        assert_eq!(bucket_of(2), 2);
        assert_eq!(bucket_of(3), 2);
        assert_eq!(bucket_of(4), 3);
        assert_eq!(bucket_of(1 << 29), 30);
        assert_eq!(bucket_of(1 << 30), 31, "first overflow value");
        assert_eq!(bucket_of(u64::MAX), BUCKETS - 1, "clamped, no panic");
    }

    #[test]
    fn record_updates_all_summary_stats() {
        let mut h = Histogram::new();
        h.record(0);
        h.record(5);
        h.record(100);
        assert_eq!(h.count(), 3);
        assert_eq!(h.sum(), 105);
        assert_eq!(h.max(), 100);
        assert!((h.mean() - 35.0).abs() < 1e-12);
        assert_eq!(h.bucket_counts().iter().sum::<u64>(), 3);
    }

    #[test]
    fn empty_histogram_is_well_defined() {
        let h = Histogram::new();
        assert!(h.is_empty());
        assert_eq!(h.mean(), 0.0);
        assert_eq!(h.max(), 0);
    }

    #[test]
    fn merge_accumulates_and_saturates() {
        let mut a = Histogram::new();
        a.record(3);
        let mut b = Histogram::new();
        b.record(u64::MAX);
        b.record(u64::MAX);
        a.merge(&b);
        assert_eq!(a.count(), 3);
        assert_eq!(a.sum(), u64::MAX, "sum saturates instead of wrapping");
        assert_eq!(a.max(), u64::MAX);
    }

    #[test]
    fn quantiles_resolve_to_bucket_upper_bounds() {
        let mut h = Histogram::new();
        for _ in 0..99 {
            h.record(10); // bucket 4: [8, 16)
        }
        h.record(1000); // bucket 10: [512, 1024)
        assert_eq!(h.p50(), 15, "median lands in the [8,16) bucket");
        assert_eq!(h.p95(), 15);
        assert_eq!(h.p99(), 15, "rank 99 of 100 is still a 10");
        assert_eq!(h.quantile(1.0), Some(1000), "top quantile clamps to max");
    }

    #[test]
    fn quantiles_handle_edge_shapes() {
        assert_eq!(Histogram::new().p50(), 0, "empty summary stays 0");
        assert_eq!(
            Histogram::new().quantile(0.5),
            None,
            "empty has no quantile"
        );
        let mut zeros = Histogram::new();
        zeros.record(0);
        zeros.record(0);
        assert_eq!(zeros.p99(), 0, "all-zero samples");
        let mut one = Histogram::new();
        one.record(u64::MAX);
        assert_eq!(one.p50(), u64::MAX, "overflow bucket reports max");
        assert_eq!(one.quantile(0.0), Some(u64::MAX), "single sample at any q");
    }

    #[test]
    fn record_n_matches_repeated_record() {
        let mut bulk = Histogram::new();
        bulk.record_n(10, 5);
        bulk.record_n(0, 2);
        bulk.record_n(99, 0);
        let mut loop_h = Histogram::new();
        for _ in 0..5 {
            loop_h.record(10);
        }
        for _ in 0..2 {
            loop_h.record(0);
        }
        assert_eq!(bulk, loop_h);
        // Bulk sums saturate like single records.
        let mut sat = Histogram::new();
        sat.record_n(u64::MAX, 3);
        assert_eq!(sat.sum(), u64::MAX);
        assert_eq!(sat.count(), 3);
    }

    #[test]
    fn serialized_quantiles_ride_along_and_round_trip() {
        let mut h = Histogram::new();
        for v in [3, 3, 3, 900] {
            h.record(v);
        }
        let v = h.to_value();
        assert_eq!(v.get("p50").and_then(Value::as_u64), Some(h.p50()));
        assert_eq!(v.get("p95").and_then(Value::as_u64), Some(h.p95()));
        assert_eq!(v.get("p99").and_then(Value::as_u64), Some(h.p99()));
        let back = Histogram::from_value(&v).expect("round trip");
        assert_eq!(back, h, "derived fields must not break round-tripping");
    }

    #[test]
    fn serde_round_trips() {
        let mut h = Histogram::new();
        for v in [0, 1, 7, 4096, u64::MAX] {
            h.record(v);
        }
        let back = Histogram::from_value(&h.to_value()).expect("round trip");
        assert_eq!(back, h);
    }

    #[test]
    fn deserialize_rejects_wrong_bucket_count() {
        let mut v = Histogram::new().to_value();
        if let Value::Object(fields) = &mut v {
            for (k, val) in fields.iter_mut() {
                if k == "buckets" {
                    *val = Value::Array(vec![Value::UInt(0); 3]);
                }
            }
        }
        assert!(Histogram::from_value(&v).is_err());
    }

    #[test]
    fn from_levels_equals_recording_each_sample() {
        let levels = [3, 0, 2, 0, 0, 7];
        let mut one_by_one = Histogram::new();
        for (value, &n) in levels.iter().enumerate() {
            for _ in 0..n {
                one_by_one.record(value as u64);
            }
        }
        assert_eq!(Histogram::from_levels(&levels), one_by_one);
        assert!(Histogram::from_levels(&[0, 0]).is_empty());
    }

    /// Sets one field of a serialized histogram.
    fn with_field(h: &Histogram, name: &str, value: Value) -> Value {
        let Value::Object(mut fields) = h.to_value() else {
            panic!("Histogram serializes to an object");
        };
        for (k, v) in &mut fields {
            if k == name {
                *v = value.clone();
            }
        }
        Value::Object(fields)
    }

    #[test]
    fn summary_fields_must_agree_with_the_buckets() {
        let mut h = Histogram::new();
        h.record(3);
        // A count of 5 over one bucketed sample once read back as is.
        let err = Histogram::from_value(&with_field(&h, "count", Value::UInt(5)))
            .expect_err("count differs from the buckets");
        assert!(err.to_string().contains("`count` 5"), "{err}");
        let err = Histogram::from_value(&with_field(&h, "max", Value::UInt(900)))
            .expect_err("max outside the top bucket");
        assert!(err.to_string().contains("`max`"), "{err}");
        let err = Histogram::from_value(&with_field(&h, "p95", Value::UInt(1)))
            .expect_err("quantile disagrees");
        assert!(err.to_string().contains("`p95`"), "{err}");
        let empty = Histogram::new();
        assert!(Histogram::from_value(&with_field(&empty, "sum", Value::UInt(1))).is_err());
    }
}
