//! Per-core cycle-attribution profile.
//!
//! [`CoreProfile`] is the CPU half of the top-down profiler: every
//! simulated cycle of [`crate::core::Core::run_warmed`]'s measured
//! window is charged to exactly one [`CycleClass`], so the class
//! counts sum to `CoreStats::cycles` — an identity `hetsim-check`
//! enforces (`cpu.profile_class_conservation`). Everything here is
//! always recorded: the occupancy histograms are counted per level
//! during the run and folded into histograms once at its end.

use hetsim_stats::attribution::ClassCounts;
use hetsim_stats::Histogram;

pub use hetsim_stats::attribution::CycleClass;

/// Top-down attribution for one core run: where every measured cycle
/// went, window-occupancy and demand-load latency distributions, and
/// how far the event-driven step jumped.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CoreProfile {
    /// Cycles charged per top-down class; sums to [`CoreProfile::cycles`].
    pub classes: ClassCounts,
    /// Total measured cycles (equals `CoreStats::cycles` for the same run).
    pub cycles: u64,
    /// ROB fill, one sample per measured cycle.
    pub rob: Histogram,
    /// Issue-queue fill, one sample per measured cycle.
    pub iq: Histogram,
    /// Load-store-queue fill, one sample per measured cycle.
    pub lsq: Histogram,
    /// Measured demand-load round-trip latencies that hit in the DL1
    /// (either partition).
    pub mem_hit_latency: Histogram,
    /// Measured demand-load round-trip latencies that missed the DL1.
    pub mem_miss_latency: Histogram,
    /// Dead cycles the event-driven step jumped over (whole run,
    /// warm-up included).
    pub skipped_cycles: u64,
    /// Wakeup jumps taken to skip them.
    pub wakeup_jumps: u64,
}

impl CoreProfile {
    /// `true` when no cycle was attributed (profile-free contexts:
    /// reconstructed dumps, merged outcomes). The conservation check is
    /// skipped for empty profiles.
    pub fn is_empty(&self) -> bool {
        self.cycles == 0 && self.classes.is_empty()
    }
}
