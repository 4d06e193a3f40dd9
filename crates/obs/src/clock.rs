//! Injected monotonic time.
//!
//! Every timing consumer (the runner's batch wall time and spans, the
//! trace recorder) reads time through a [`Clock`] rather
//! than calling `Instant::now()` directly, so tests can drive time by
//! hand and timing logic stays deterministic under test.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// A monotonic microsecond clock.
///
/// Implementations must be monotonic (time never goes backwards) and
/// cheap: the runner reads the clock a handful of times per job.
pub trait Clock: Send + Sync {
    /// Microseconds elapsed since this clock's epoch (its creation for
    /// [`MonotonicClock`], zero for a fresh [`ManualClock`]).
    fn now_us(&self) -> u64;
}

/// The real clock: wraps one [`Instant`] taken at construction, so all
/// timestamps of a run share a single epoch.
#[derive(Debug)]
pub struct MonotonicClock {
    origin: Instant,
}

impl MonotonicClock {
    /// A clock whose epoch is "now".
    pub fn new() -> Self {
        MonotonicClock {
            origin: Instant::now(),
        }
    }
}

impl Default for MonotonicClock {
    fn default() -> Self {
        MonotonicClock::new()
    }
}

impl Clock for MonotonicClock {
    fn now_us(&self) -> u64 {
        // u64 micros cover ~584k years; the cast never truncates in
        // practice.
        self.origin.elapsed().as_micros() as u64
    }
}

/// A hand-driven clock for tests: starts at zero, only moves when
/// [`ManualClock::advance`] is called.
#[derive(Debug, Default)]
pub struct ManualClock {
    now: AtomicU64,
}

impl ManualClock {
    /// A clock frozen at zero.
    pub fn new() -> Self {
        ManualClock::default()
    }

    /// Moves time forward by `us` microseconds.
    pub fn advance(&self, us: u64) {
        self.now.fetch_add(us, Ordering::SeqCst);
    }
}

impl Clock for ManualClock {
    fn now_us(&self) -> u64 {
        self.now.load(Ordering::SeqCst)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn monotonic_clock_never_goes_backwards() {
        let clock = MonotonicClock::new();
        let a = clock.now_us();
        let b = clock.now_us();
        assert!(b >= a);
    }

    #[test]
    fn manual_clock_moves_only_when_advanced() {
        let clock = ManualClock::new();
        assert_eq!(clock.now_us(), 0);
        clock.advance(250);
        assert_eq!(clock.now_us(), 250);
        clock.advance(50);
        assert_eq!(clock.now_us(), 300);
    }
}
