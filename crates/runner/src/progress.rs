//! What a batch reports: each job's [`Provenance`], the batch's
//! [`RunnerStats`] (cache hit rate and the
//! simulated-seconds-per-wall-second throughput metric), and
//! [`narrate`], the one way a line reaches stderr.

use std::io::Write;
use std::time::Duration;

use serde::value::Value;
use serde::Serialize;

use crate::cache::CacheStats;

/// How a job's outcome was obtained.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Provenance {
    /// Freshly simulated on a worker.
    Executed,
    /// Answered from the on-disk cache.
    DiskCache,
}

impl Provenance {
    /// A short, stable tag (`ran`/`disk`) used in progress lines and
    /// trace-event args.
    pub fn tag(self) -> &'static str {
        match self {
            Provenance::Executed => "ran",
            Provenance::DiskCache => "disk",
        }
    }
}

/// Summary counters for one batch (or a whole campaign).
#[derive(Debug, Clone, Copy, Default)]
pub struct RunnerStats {
    /// Jobs submitted.
    pub jobs: u64,
    /// Jobs actually simulated (cache misses).
    pub executed: u64,
    /// Jobs answered from the cache.
    pub cache_hits: u64,
    /// Cache-layer detail.
    pub cache: CacheStats,
    /// Simulated seconds covered by the batch's outcomes.
    pub sim_seconds: f64,
    /// Wall-clock time the batch took.
    pub wall: Duration,
}

impl RunnerStats {
    /// Whether these counters are a pure function of the simulated
    /// configuration. They are **not**: wall time varies with machine
    /// load, and the cache-hit split varies with disk state, so two
    /// byte-identical campaigns legitimately report different
    /// [`RunnerStats`]. Cross-run regression gates consult this
    /// declaration to exempt runner telemetry from comparison, instead
    /// of hand-listing section names at every call site.
    pub const DETERMINISTIC: bool = false;

    /// Cache hit rate over the batch in `[0, 1]`.
    pub fn hit_rate(&self) -> f64 {
        if self.jobs == 0 {
            0.0
        } else {
            self.cache_hits as f64 / self.jobs as f64
        }
    }

    /// Simulated seconds per wall-clock second (the runner's
    /// throughput metric); `0` for an instantaneous batch.
    pub fn sim_seconds_per_wall_second(&self) -> f64 {
        let wall = self.wall.as_secs_f64();
        if wall > 0.0 {
            self.sim_seconds / wall
        } else {
            0.0
        }
    }

    /// Folds another batch's counters into this one.
    pub fn merge(&mut self, other: &RunnerStats) {
        self.jobs += other.jobs;
        self.executed += other.executed;
        self.cache_hits += other.cache_hits;
        self.cache.merge(&other.cache);
        self.sim_seconds += other.sim_seconds;
        self.wall += other.wall;
    }
}

impl Serialize for RunnerStats {
    fn to_value(&self) -> Value {
        Value::Object(vec![
            ("jobs".into(), self.jobs.to_value()),
            ("executed".into(), self.executed.to_value()),
            ("cache_hits".into(), self.cache_hits.to_value()),
            ("cache".into(), self.cache.to_value()),
            ("sim_seconds".into(), self.sim_seconds.to_value()),
            ("wall_seconds".into(), self.wall.as_secs_f64().to_value()),
        ])
    }
}

/// Writes `line` and a newline to stderr in one `write_all`, ignoring
/// failure: narration is best-effort, so a closed stderr never fails a
/// job, and one write per line keeps lines whole where worker threads
/// share the stream (`eprintln!` writes each formatted piece
/// separately, so a narrated line could be split by another thread's).
pub fn narrate(line: &str) {
    let _ = std::io::stderr().write_all(format!("{line}\n").as_bytes());
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hit_rate_and_throughput_handle_zero_denominators() {
        let stats = RunnerStats::default();
        assert_eq!(stats.hit_rate(), 0.0);
        assert_eq!(stats.sim_seconds_per_wall_second(), 0.0);
    }

    #[test]
    fn merge_accumulates_all_counters() {
        let mut a = RunnerStats {
            jobs: 2,
            executed: 1,
            cache_hits: 1,
            cache: CacheStats {
                disk_hits: 0,
                misses: 1,
                corrupt_files: 0,
            },
            sim_seconds: 0.5,
            wall: Duration::from_secs(1),
        };
        let b = RunnerStats {
            jobs: 3,
            executed: 3,
            cache_hits: 0,
            cache: CacheStats {
                disk_hits: 0,
                misses: 3,
                corrupt_files: 1,
            },
            sim_seconds: 1.5,
            wall: Duration::from_secs(2),
        };
        a.merge(&b);
        assert_eq!(a.jobs, 5);
        assert_eq!(a.executed, 4);
        assert_eq!(a.cache.misses, 4);
        assert_eq!(a.cache.corrupt_files, 1);
        assert!((a.sim_seconds - 2.0).abs() < 1e-12);
        assert_eq!(a.wall, Duration::from_secs(3));
    }

    #[test]
    fn runner_stats_serialize_for_telemetry() {
        let stats = RunnerStats {
            jobs: 4,
            executed: 3,
            cache_hits: 1,
            cache: CacheStats {
                disk_hits: 0,
                misses: 3,
                corrupt_files: 0,
            },
            sim_seconds: 0.25,
            wall: Duration::from_millis(1500),
        };
        let Value::Object(fields) = stats.to_value() else {
            panic!("RunnerStats must serialize to an object");
        };
        let names: Vec<&str> = fields.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(
            names,
            [
                "jobs",
                "executed",
                "cache_hits",
                "cache",
                "sim_seconds",
                "wall_seconds"
            ]
        );
        let wall = fields.iter().find(|(n, _)| n == "wall_seconds").unwrap();
        assert_eq!(wall.1, 1.5f64.to_value());
    }
}
