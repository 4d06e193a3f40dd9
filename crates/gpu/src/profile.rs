//! Per-compute-unit cycle-attribution profile.
//!
//! [`CuProfile`] is the GPU half of the top-down profiler: every cycle
//! of [`crate::cu::run_cu`] is charged to exactly one
//! [`CycleClass`], so the class counts sum to `GpuStats::cycles` for
//! that CU — an identity `hetsim-check` enforces
//! (`gpu.profile_class_conservation`). A SIMT unit has no front end to
//! starve or ROB to fill, so only a subset of the shared class
//! vocabulary appears: `retire` (an instruction issued), `mem-latency`
//! (every resident wavefront dependence-blocked on an outstanding
//! memory instruction), `issue-bound` (blocked on SIMD issue occupancy
//! or a non-memory dependence chain), and `idle-skipped` (the
//! launch-tail drain of a wavefront batch).

use hetsim_stats::attribution::ClassCounts;
use hetsim_stats::Histogram;

pub use hetsim_stats::attribution::CycleClass;

/// Top-down attribution for one CU run: where every cycle went, the
/// distribution of unfinished resident wavefronts per cycle, and how
/// far the event-driven step jumped.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CuProfile {
    /// Cycles charged per top-down class; sums to [`CuProfile::cycles`].
    pub classes: ClassCounts,
    /// Total cycles this CU ran (equals its `GpuStats::cycles`).
    pub cycles: u64,
    /// Unfinished resident wavefronts, one sample per cycle (recorded
    /// once per change of the count).
    pub residency: Histogram,
    /// Idle cycles the next-event jump skipped.
    pub skipped_cycles: u64,
    /// Next-event jumps taken.
    pub wakeup_jumps: u64,
}
