//! Wall-time histograms for the runner's per-job phases.
//!
//! Every job passes through up to four timed phases: the cache probe
//! (every job of a runner with a cache), then — for misses only — the
//! wait for a free worker, the simulation itself, and the cache
//! write-back (again only with a cache). [`RunnerTiming`]
//! keeps one bounded [`Histogram`] per phase, accumulated on every
//! batch whether or not tracing is enabled (recording four samples per
//! job is far below measurement noise).
//!
//! The histograms surface in the stats dump under `runner.timing.*`.
//! Like the rest of the runner section they are **not deterministic**
//! (wall time varies with machine load), so the regression gate's
//! [`RunnerStats::DETERMINISTIC`](crate::RunnerStats::DETERMINISTIC)
//! exemption covers them automatically.

use hetsim_stats::Histogram;
use serde::value::Value;
use serde::Serialize;

/// Per-phase wall-time histograms for one runner (microsecond samples).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RunnerTiming {
    /// Time a cache miss spent queued before a worker picked it up.
    pub queue_wait_us: Histogram,
    /// Time spent probing the cache (every job, hit or miss, of a
    /// runner with a cache).
    pub cache_lookup_us: Histogram,
    /// Time spent inside the simulation closure (misses only).
    pub simulate_us: Histogram,
    /// Time spent writing the outcome back to the cache (misses of a
    /// runner with a cache).
    pub cache_write_us: Histogram,
    /// Dead cycles elided by the event-driven simulator step, summed
    /// over the jobs this runner executed (from their observations;
    /// cache hits add nothing).
    pub skipped_cycles: u64,
    /// Next-event jumps taken by the event-driven simulator step, over
    /// the same jobs.
    pub wakeup_jumps: u64,
}

impl RunnerTiming {
    /// Folds another timing record in (element-wise histogram merge;
    /// associative and commutative, like [`Histogram::merge`]).
    pub fn merge(&mut self, other: &RunnerTiming) {
        self.queue_wait_us.merge(&other.queue_wait_us);
        self.cache_lookup_us.merge(&other.cache_lookup_us);
        self.simulate_us.merge(&other.simulate_us);
        self.cache_write_us.merge(&other.cache_write_us);
        self.skipped_cycles += other.skipped_cycles;
        self.wakeup_jumps += other.wakeup_jumps;
    }

    /// `true` when no phase has recorded a sample and no skip counter
    /// is set.
    pub fn is_empty(&self) -> bool {
        self.queue_wait_us.is_empty()
            && self.cache_lookup_us.is_empty()
            && self.simulate_us.is_empty()
            && self.cache_write_us.is_empty()
            && self.skipped_cycles == 0
            && self.wakeup_jumps == 0
    }
}

impl Serialize for RunnerTiming {
    fn to_value(&self) -> Value {
        Value::Object(vec![
            ("queue_wait_us".into(), self.queue_wait_us.to_value()),
            ("cache_lookup_us".into(), self.cache_lookup_us.to_value()),
            ("simulate_us".into(), self.simulate_us.to_value()),
            ("cache_write_us".into(), self.cache_write_us.to_value()),
            ("skipped_cycles".into(), Value::UInt(self.skipped_cycles)),
            ("wakeup_jumps".into(), Value::UInt(self.wakeup_jumps)),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_accumulates_each_phase() {
        let mut a = RunnerTiming::default();
        a.cache_lookup_us.record(10);
        let mut b = RunnerTiming::default();
        b.cache_lookup_us.record(20);
        b.simulate_us.record(1000);
        b.skipped_cycles = 40;
        b.wakeup_jumps = 4;
        a.merge(&b);
        assert_eq!(a.cache_lookup_us.count(), 2);
        assert_eq!(a.simulate_us.count(), 1);
        assert!(a.queue_wait_us.is_empty());
        assert_eq!(a.skipped_cycles, 40);
        assert_eq!(a.wakeup_jumps, 4);
        assert!(!a.is_empty());
    }

    #[test]
    fn skip_counters_alone_make_it_non_empty() {
        let mut t = RunnerTiming::default();
        assert!(t.is_empty());
        t.skipped_cycles = 1;
        assert!(!t.is_empty());
    }

    #[test]
    fn serializes_one_object_per_phase() {
        let mut t = RunnerTiming::default();
        t.queue_wait_us.record(5);
        let Value::Object(fields) = t.to_value() else {
            panic!("RunnerTiming must serialize to an object");
        };
        let names: Vec<&str> = fields.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(
            names,
            [
                "queue_wait_us",
                "cache_lookup_us",
                "simulate_us",
                "cache_write_us",
                "skipped_cycles",
                "wakeup_jumps"
            ]
        );
    }
}
