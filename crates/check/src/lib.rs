//! The runtime invariant layer: a tiny `Invariant`/`Violation`
//! framework the simulation crates hang their accounting checks on.
//!
//! A cycle-level model that silently violates its own bookkeeping
//! (committed > issued instructions, cache hits + misses != accesses,
//! negative energy) produces plausible-looking wrong figures; the
//! regression gate of `hetcore::regression` only catches drift against
//! a pinned baseline, not internal inconsistency. This crate provides
//! the common vocabulary:
//!
//! * [`Violation`] — one broken invariant, carrying a stable invariant
//!   name, the path of the object it was observed on, the expected
//!   relation and the actual values;
//! * [`Checker`] — an accumulator the validators of `hetsim-cpu`,
//!   `hetsim-gpu`, `hetsim-mem` and `hetsim-power` write into, with
//!   relation helpers (`eq_u64`, `le_u64`, ...) and hierarchical path
//!   scoping;
//! * [`CheckConfig`] — the on/off switch guarding the in-loop checks
//!   inside the simulators, so the hot path stays branch-cheap (one
//!   predictable test) when checking is disabled: `ON` in `repro
//!   check`'s fuzz rounds, `OFF` in campaigns, whose finished outcomes
//!   `hetcore::check` validates after every run instead.
//!
//! The layer deliberately has **no dependencies**: every simulation
//! crate can use it without cycles, and `hetcore` renders violations
//! to tables/JSON itself.

use std::fmt;

/// One violated invariant: what broke, where, and by how much.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// Stable dotted invariant name, e.g. `"cpu.commit_conservation"`.
    pub invariant: &'static str,
    /// Where it was observed, e.g. `"fig7/AdvHet/lu/core"`.
    pub path: String,
    /// The relation that should have held, e.g. `"hits + misses == accesses"`.
    pub expected: String,
    /// The observed values, e.g. `"hits=10 misses=2 accesses=13"`.
    pub actual: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "violation[{}] at {}: expected {}, got {}",
            self.invariant, self.path, self.expected, self.actual
        )
    }
}

/// Whether runtime checking is enabled. Simulators carry one of these
/// and skip all invariant work when it is off, so the default
/// (unchecked) hot path pays a single well-predicted branch.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CheckConfig {
    /// Run the checks?
    pub enabled: bool,
}

impl CheckConfig {
    /// Checking disabled (the default).
    pub const OFF: CheckConfig = CheckConfig { enabled: false };
    /// Checking enabled.
    pub const ON: CheckConfig = CheckConfig { enabled: true };

    /// Whether checks should run.
    pub fn enabled(self) -> bool {
        self.enabled
    }
}

/// Accumulates invariant evaluations and their violations.
///
/// Validators receive a `&mut Checker`, narrow the current location
/// with [`Checker::scoped`], and assert relations through the helpers;
/// every helper counts toward [`Checker::checks_run`] so a report can
/// say "N invariants checked, M violated" rather than a bare pass.
#[derive(Debug, Default, Clone)]
pub struct Checker {
    path: Vec<String>,
    checks: u64,
    violations: Vec<Violation>,
}

impl Checker {
    /// A fresh checker rooted at the empty path.
    pub fn new() -> Checker {
        Checker::default()
    }

    /// Runs `f` with `segment` pushed onto the location path.
    pub fn scoped<R>(
        &mut self,
        segment: impl Into<String>,
        f: impl FnOnce(&mut Checker) -> R,
    ) -> R {
        self.path.push(segment.into());
        let out = f(self);
        self.path.pop();
        out
    }

    /// The current location path (`/`-joined scopes).
    pub fn path(&self) -> String {
        self.path.join("/")
    }

    /// The fundamental operation: records one invariant evaluation,
    /// and a [`Violation`] if `holds` is false.
    pub fn check(
        &mut self,
        invariant: &'static str,
        expected: impl fmt::Display,
        holds: bool,
        actual: impl fmt::Display,
    ) {
        self.checks += 1;
        if !holds {
            self.violations.push(Violation {
                invariant,
                path: self.path(),
                expected: expected.to_string(),
                actual: actual.to_string(),
            });
        }
    }

    /// Asserts `lhs == rhs` over named u64 counters.
    pub fn eq_u64(&mut self, invariant: &'static str, lhs: (&str, u64), rhs: (&str, u64)) {
        self.check(
            invariant,
            format!("{} == {}", lhs.0, rhs.0),
            lhs.1 == rhs.1,
            format!("{}={} {}={}", lhs.0, lhs.1, rhs.0, rhs.1),
        );
    }

    /// Asserts `lhs <= rhs` over named u64 counters.
    pub fn le_u64(&mut self, invariant: &'static str, lhs: (&str, u64), rhs: (&str, u64)) {
        self.check(
            invariant,
            format!("{} <= {}", lhs.0, rhs.0),
            lhs.1 <= rhs.1,
            format!("{}={} {}={}", lhs.0, lhs.1, rhs.0, rhs.1),
        );
    }

    /// Asserts `lhs >= rhs` over named u64 counters.
    pub fn ge_u64(&mut self, invariant: &'static str, lhs: (&str, u64), rhs: (&str, u64)) {
        self.check(
            invariant,
            format!("{} >= {}", lhs.0, rhs.0),
            lhs.1 >= rhs.1,
            format!("{}={} {}={}", lhs.0, lhs.1, rhs.0, rhs.1),
        );
    }

    /// Asserts a named f64 is finite and `>= bound`.
    pub fn ge_f64(&mut self, invariant: &'static str, value: (&str, f64), bound: f64) {
        self.check(
            invariant,
            format!("{} >= {bound} (finite)", value.0),
            value.1.is_finite() && value.1 >= bound,
            format!("{}={}", value.0, value.1),
        );
    }

    /// Asserts two named f64s agree within relative tolerance
    /// `rel_tol` (absolute for magnitudes below 1).
    pub fn close_f64(
        &mut self,
        invariant: &'static str,
        lhs: (&str, f64),
        rhs: (&str, f64),
        rel_tol: f64,
    ) {
        let scale = lhs.1.abs().max(rhs.1.abs()).max(1.0);
        let holds =
            lhs.1.is_finite() && rhs.1.is_finite() && (lhs.1 - rhs.1).abs() <= rel_tol * scale;
        self.check(
            invariant,
            format!("{} ~= {} (rel_tol={rel_tol})", lhs.0, rhs.0),
            holds,
            format!("{}={} {}={}", lhs.0, lhs.1, rhs.0, rhs.1),
        );
    }

    /// Number of invariant evaluations so far.
    pub fn checks_run(&self) -> u64 {
        self.checks
    }

    /// The violations recorded so far.
    pub fn violations(&self) -> &[Violation] {
        &self.violations
    }

    /// True when no violation has been recorded.
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty()
    }

    /// Absorbs externally collected violations (e.g. the in-loop
    /// occupancy checks a simulator gathered while running), rebasing
    /// their paths under the checker's current scope.
    pub fn absorb(&mut self, violations: Vec<Violation>) {
        let base = self.path();
        for mut v in violations {
            if !base.is_empty() {
                v.path = if v.path.is_empty() {
                    base.clone()
                } else {
                    format!("{base}/{}", v.path)
                };
            }
            self.violations.push(v);
        }
    }

    /// Consumes the checker, returning all violations.
    pub fn into_violations(self) -> Vec<Violation> {
        self.violations
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clean_checker_counts_checks() {
        let mut c = Checker::new();
        c.eq_u64("t.eq", ("a", 3), ("b", 3));
        c.le_u64("t.le", ("a", 3), ("b", 4));
        c.ge_u64("t.ge", ("a", 3), ("b", 3));
        c.ge_f64("t.gef", ("x", 0.0), 0.0);
        c.close_f64("t.close", ("x", 1.0), ("y", 1.0 + 1e-12), 1e-9);
        assert!(c.is_clean());
        assert_eq!(c.checks_run(), 5);
    }

    #[test]
    fn violation_carries_path_expected_actual() {
        let mut c = Checker::new();
        c.scoped("fig7", |c| {
            c.scoped("AdvHet", |c| {
                c.eq_u64("cpu.commit", ("committed", 5), ("issued", 4));
            })
        });
        let v = &c.violations()[0];
        assert_eq!(v.invariant, "cpu.commit");
        assert_eq!(v.path, "fig7/AdvHet");
        assert_eq!(v.expected, "committed == issued");
        assert_eq!(v.actual, "committed=5 issued=4");
        assert!(v
            .to_string()
            .contains("violation[cpu.commit] at fig7/AdvHet"));
    }

    #[test]
    fn scopes_pop_even_on_nested_use() {
        let mut c = Checker::new();
        c.scoped("a", |c| {
            assert_eq!(c.path(), "a");
            c.scoped("b", |c| assert_eq!(c.path(), "a/b"));
            assert_eq!(c.path(), "a");
        });
        assert_eq!(c.path(), "");
    }

    #[test]
    fn nan_and_infinite_values_violate_float_checks() {
        let mut c = Checker::new();
        c.ge_f64("t.nan", ("x", f64::NAN), 0.0);
        c.ge_f64("t.inf", ("x", f64::INFINITY), 0.0);
        c.close_f64("t.closenan", ("x", f64::NAN), ("y", 0.0), 1e-9);
        assert_eq!(c.violations().len(), 3);
    }

    #[test]
    fn absorb_rebases_paths() {
        let mut inner = Checker::new();
        inner.scoped("core0", |c| c.eq_u64("cpu.rob", ("occ", 9), ("cap", 8)));
        let mut outer = Checker::new();
        outer.scoped("fuzz", |c| c.absorb(inner.into_violations()));
        assert_eq!(outer.violations()[0].path, "fuzz/core0");
    }

    #[test]
    fn config_defaults_off_and_env_turns_on() {
        assert!(!CheckConfig::default().enabled());
        assert!(CheckConfig::ON.enabled());
        assert!(!CheckConfig::OFF.enabled());
    }
}
