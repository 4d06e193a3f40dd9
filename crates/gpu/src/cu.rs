//! One compute unit: the launch's kernel, decoded once, and a
//! round-robin issue step over per-wavefront ready times.
//!
//! The CU hosts up to `waves_per_cu` resident wavefronts and issues one
//! wavefront instruction per cycle (Southern Islands: four SIMDs, each
//! accepting one wavefront instruction every four cycles). Wavefronts
//! execute their kernel in order, gated by a scoreboard: an instruction
//! marked `dep_on_prev` waits for the previous instruction's completion.
//! Latency hiding across wavefronts — the essence of GPU throughput — then
//! emerges: while one wavefront waits on memory or a deep TFET FMA
//! pipeline, others issue.
//!
//! Every wavefront of a launch runs the same instruction stream from pc 0
//! with its own fresh RF cache, so all an instruction costs except its
//! memory outcome is a function of its pc alone: the register-read
//! latency (RF-cache hit or miss, fast or slow partition), the
//! functional-unit latency, and the RF and op counters.
//! [`DecodedKernel`] works those out once per launch for every CU; the
//! issue step in [`run_cu`] then only times the wavefronts.

use crate::config::{GpuConfig, WAVEFRONT_THREADS};
use crate::kernel::{GpuInst, GpuOp, KernelProfile};
use crate::partitioned::FastRegSet;
use crate::profile::{CuProfile, CycleClass};
use crate::rfcache::RfCache;
use crate::stats::GpuStats;

/// SplitMix64 hash, used to sample per-(wavefront, pc) events
/// deterministically — the miss pattern must not depend on the issue
/// interleaving, or configuration comparisons would be noisy.
fn hash64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Deterministic Bernoulli draw from a hashed key.
fn hashed_bool(key: u64, p: f64) -> bool {
    (hash64(key) as f64 / u64::MAX as f64) < p
}

/// What the issue step needs to know about the instruction at one pc.
#[derive(Debug, Clone, Copy)]
struct DecodedInst {
    /// Issue-to-completion cycles: the slowest source read plus the FMA,
    /// LDS or on-chip memory-hit latency.
    latency: u64,
    /// Issue-to-completion cycles of a memory instruction that misses to
    /// DRAM.
    miss_latency: u64,
    /// Waits for the previous instruction's completion (scoreboard).
    dep_on_prev: bool,
    /// A global-memory instruction: whether it misses is drawn per
    /// wavefront at issue.
    mem: bool,
}

/// A kernel decoded for one configuration, once per launch, and shared
/// by every CU of that launch.
#[derive(Debug)]
pub struct DecodedKernel {
    insts: Vec<DecodedInst>,
    /// The counters one wavefront's full pass adds; `cycles` and
    /// `dram_accesses` stay zero (they come from the issue step).
    per_wave: GpuStats,
    waves_per_cu: u32,
    issue_cycles: u64,
    mem_miss_rate: f64,
}

impl DecodedKernel {
    /// Decodes `kernel` (generated from `profile`) for `cfg`: replays one
    /// wavefront's pass through a fresh RF cache or the kernel's static
    /// fast-register allocation, recording each pc's latency and flags
    /// and the pass's counters.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid.
    pub fn new(cfg: &GpuConfig, profile: &KernelProfile, kernel: &[GpuInst]) -> Self {
        cfg.validate().expect("valid GPU config");
        let threads = u64::from(WAVEFRONT_THREADS);
        // Static fast-register allocation for a partitioned RF (per kernel,
        // shared by every wavefront — it is a compiler decision).
        let fast_regs = cfg.rf_partition.map(|p| FastRegSet::allocate(kernel, p));
        let mut rfc = cfg.rf_cache.map(|c| RfCache::new(c.entries as usize));
        let mut s = GpuStats::default();
        let insts = kernel
            .iter()
            .map(|inst| {
                let read_latency =
                    read_sources(cfg, rfc.as_mut(), inst, &mut s, fast_regs.as_ref());
                if let (Some(dst), Some(rfc)) = (inst.dst, rfc.as_mut()) {
                    let evict_before = rfc.evictions();
                    rfc.write(dst);
                    s.rf_cache_accesses += threads;
                    s.vector_rf_accesses += (rfc.evictions() - evict_before) * threads;
                } else if let (Some(dst), Some(fast)) = (inst.dst, fast_regs.as_ref()) {
                    if fast.is_fast(dst) {
                        s.rf_fast_accesses += threads;
                    } else {
                        s.vector_rf_accesses += threads;
                    }
                } else if inst.dst.is_some() {
                    s.vector_rf_accesses += threads;
                }
                let fu_latency = match inst.op {
                    GpuOp::Valu => {
                        s.valu_insts += 1;
                        s.thread_fma_ops += threads;
                        cfg.fma_latency
                    }
                    GpuOp::Mem => {
                        s.mem_insts += 1;
                        cfg.mem_hit_latency
                    }
                    GpuOp::Lds => {
                        s.lds_insts += 1;
                        s.lds_accesses += threads;
                        cfg.lds_latency
                    }
                };
                s.wavefront_insts += 1;
                DecodedInst {
                    latency: read_latency + u64::from(fu_latency),
                    miss_latency: read_latency + u64::from(cfg.mem_miss_latency),
                    dep_on_prev: inst.dep_on_prev,
                    mem: inst.op == GpuOp::Mem,
                }
            })
            .collect();
        DecodedKernel {
            insts,
            per_wave: s,
            waves_per_cu: cfg.waves_per_cu,
            issue_cycles: u64::from(cfg.issue_cycles_per_wavefront()),
            mem_miss_rate: profile.mem_miss_rate,
        }
    }
}

/// Runs `wave_count` wavefronts of a decoded kernel on one compute unit.
/// Returns the CU's counters and its top-down cycle attribution: every
/// cycle charged to exactly one class (summing to `GpuStats::cycles`),
/// the wave-residency histogram and the skip counts.
///
/// The work counters are `wave_count` times the decoded per-wave pass;
/// only `cycles` and `dram_accesses` come from the issue step. The step
/// keeps one ready cycle and one blocked-on-memory bit per resident
/// wavefront, recomputed only when that wavefront issues.
pub fn run_cu(kernel: &DecodedKernel, wave_count: u32, seed: u64) -> (GpuStats, CuProfile) {
    let mut attrib = CuProfile::default();
    if wave_count == 0 || kernel.insts.is_empty() {
        return (GpuStats::default(), attrib);
    }
    let insts = &kernel.insts;
    let last_pc = insts.len() - 1;

    // Waves beyond the resident limit start as soon as a slot frees; model
    // by batching (each batch fully resident, conservative on tail
    // effects, which are small for the launch sizes used).
    let resident = kernel.waves_per_cu.min(wave_count);
    let batches = wave_count.div_ceil(resident);
    // Per resident wavefront: its global id (stable across
    // configurations), pc, the cycle it may issue next (u64::MAX once
    // finished), and whether that wait is a dependence on a memory
    // instruction.
    let mut id = Vec::with_capacity(resident as usize);
    let mut pc = Vec::with_capacity(resident as usize);
    let mut ready = Vec::with_capacity(resident as usize);
    let mut mem_blocked = Vec::with_capacity(resident as usize);
    let mut cycle: u64 = 0;
    let mut dram_accesses: u64 = 0;
    let mut skipped_cycles: u64 = 0;
    let mut wakeup_jumps: u64 = 0;

    for batch in 0..batches {
        let n = resident.min(wave_count - batch * resident) as usize;
        id.clear();
        id.extend((0..n as u32).map(|w| seed ^ hash64(u64::from(batch * resident + w))));
        pc.clear();
        pc.resize(n, 0);
        ready.clear();
        ready.resize(n, cycle);
        mem_blocked.clear();
        mem_blocked.resize(n, false);
        let mut rr = 0usize;
        let mut remaining = n;
        // The cycle `remaining` took its current value. Residency is
        // recorded once per change of the count, not once per cycle.
        let mut level_since = cycle;
        // Completion of the batch's slowest final instruction.
        let mut drain = cycle;
        while remaining > 0 {
            // The first wavefront in round-robin order that is ready now,
            // or else the earliest-ready one (first among ties): a rescan
            // at its ready cycle would pick exactly that wavefront.
            let mut w = rr;
            let mut wake = u64::MAX;
            for k in 0..n {
                let i = if rr + k < n { rr + k } else { rr + k - n };
                let when = ready[i].max(cycle);
                if when < wake {
                    wake = when;
                    w = i;
                    if when == cycle {
                        break;
                    }
                }
            }
            if wake > cycle {
                // Nobody can issue: jump to the wake-up instead of
                // ticking idle cycles one by one, charging the gap to
                // the waking wavefront's binding constraint. A
                // dependence on a memory instruction means the whole CU
                // is waiting on memory; anything else is issue
                // bandwidth or an ALU dependence chain.
                assert!(wake != u64::MAX, "remaining > 0 implies an unfinished wave");
                let gap = wake - cycle;
                skipped_cycles += gap - 1;
                wakeup_jumps += 1;
                let class = if mem_blocked[w] {
                    CycleClass::MemLatency
                } else {
                    CycleClass::IssueBound
                };
                attrib.classes.charge(class, gap);
                cycle = wake;
            }
            // ---- Issue wavefront `w`'s instruction ----
            let cur = pc[w];
            let inst = insts[cur];
            let latency = if inst.mem
                && hashed_bool(
                    id[w].wrapping_mul(0x1000_0001).wrapping_add(cur as u64),
                    kernel.mem_miss_rate,
                ) {
                dram_accesses += 1;
                inst.miss_latency
            } else {
                inst.latency
            };
            let done = cycle + latency;
            let next_issue = cycle + kernel.issue_cycles;
            if cur == last_pc {
                // A wave's final issue cycle counts at the lower level.
                let cycles = cycle - level_since;
                attrib.residency.record_n(remaining as u64, cycles);
                level_since = cycle;
                ready[w] = u64::MAX;
                remaining -= 1;
                drain = drain.max(done);
            } else {
                pc[w] = cur + 1;
                let blocked = insts[cur + 1].dep_on_prev && done > next_issue;
                ready[w] = if blocked { done } else { next_issue };
                mem_blocked[w] = blocked && inst.mem;
            }
            rr = if w + 1 == n { 0 } else { w + 1 };
            cycle += 1;
        }
        // Drain the batch: the batch ends when its slowest wavefront's
        // last instruction completes.
        if drain > cycle {
            attrib
                .classes
                .charge(CycleClass::IdleSkipped, drain - cycle);
            cycle = drain;
        }
        attrib.residency.record_n(0, cycle - level_since);
    }
    attrib.skipped_cycles = skipped_cycles;
    attrib.wakeup_jumps = wakeup_jumps;
    // Every issue cycle retires one wavefront instruction.
    let waves = u64::from(wave_count);
    let p = &kernel.per_wave;
    attrib
        .classes
        .charge(CycleClass::Retire, waves * p.wavefront_insts);
    attrib.cycles = cycle;
    debug_assert_eq!(
        attrib.classes.total(),
        attrib.cycles,
        "every CU cycle is charged to exactly one class"
    );
    let stats = GpuStats {
        cycles: cycle,
        wavefront_insts: waves * p.wavefront_insts,
        valu_insts: waves * p.valu_insts,
        mem_insts: waves * p.mem_insts,
        lds_insts: waves * p.lds_insts,
        thread_fma_ops: waves * p.thread_fma_ops,
        vector_rf_accesses: waves * p.vector_rf_accesses,
        rf_cache_accesses: waves * p.rf_cache_accesses,
        rf_fast_accesses: waves * p.rf_fast_accesses,
        rf_cache_hits: waves * p.rf_cache_hits,
        rf_cache_misses: waves * p.rf_cache_misses,
        lds_accesses: waves * p.lds_accesses,
        dram_accesses,
    };
    (stats, attrib)
}

/// Reads an instruction's sources through the RF cache (if present),
/// returning the register-read latency and counting energy events.
fn read_sources(
    cfg: &GpuConfig,
    mut rfc: Option<&mut RfCache>,
    inst: &GpuInst,
    stats: &mut GpuStats,
    fast_regs: Option<&FastRegSet>,
) -> u64 {
    let threads = u64::from(WAVEFRONT_THREADS);
    let mut latency = 0u64;
    for src in inst.srcs.into_iter().flatten() {
        let lat = match (rfc.as_deref_mut(), cfg.rf_cache) {
            (Some(rfc), Some(rfc_cfg)) => {
                if rfc.read(src) {
                    stats.rf_cache_hits += threads;
                    stats.rf_cache_accesses += threads;
                    u64::from(rfc_cfg.latency)
                } else {
                    stats.rf_cache_misses += threads;
                    stats.vector_rf_accesses += threads;
                    u64::from(cfg.rf_latency)
                }
            }
            _ => match (fast_regs, cfg.rf_partition) {
                (Some(fast), Some(part)) if fast.is_fast(src) => {
                    stats.rf_fast_accesses += threads;
                    u64::from(part.fast_latency)
                }
                _ => {
                    stats.vector_rf_accesses += threads;
                    u64::from(cfg.rf_latency)
                }
            },
        };
        latency = latency.max(lat);
    }
    latency
}

#[cfg(test)]
#[allow(clippy::field_reassign_with_default)]
mod tests {
    use super::*;
    use crate::kernels;

    fn small_kernel() -> (KernelProfile, Vec<GpuInst>) {
        let mut p = kernels::profile("matmul").expect("known kernel");
        p.insts_per_wavefront = 500;
        p.wavefronts = 8;
        let insts = p.generate(3);
        (p, insts)
    }

    /// Decodes `insts` for `cfg` and runs `waves` wavefronts on one CU.
    fn run(cfg: &GpuConfig, insts: &[GpuInst], p: &KernelProfile, waves: u32) -> GpuStats {
        run_cu(&DecodedKernel::new(cfg, p, insts), waves, 1).0
    }

    #[test]
    fn all_wavefronts_complete() {
        let (p, insts) = small_kernel();
        let stats = run(&GpuConfig::default(), &insts, &p, 8);
        assert_eq!(stats.wavefront_insts, 8 * 500);
        assert!(stats.cycles >= 8 * 500, "1 issue/cycle bound");
    }

    #[test]
    fn more_wavefronts_hide_latency() {
        let (p, insts) = small_kernel();
        let one = run(&GpuConfig::default(), &insts, &p, 1);
        let eight = run(&GpuConfig::default(), &insts, &p, 8);
        // 8 waves do 8x the work in far less than 8x the time.
        let scaling = eight.cycles as f64 / one.cycles as f64;
        assert!(
            scaling < 4.0,
            "8x work should take <4x time, took {scaling:.2}x"
        );
    }

    #[test]
    fn tfet_latencies_hurt_less_with_occupancy() {
        let (p, insts) = small_kernel();
        let mut tfet = GpuConfig::default();
        tfet.fma_latency = 6;
        tfet.rf_latency = 2;
        tfet.rf_cache = None;
        let mut cmos = GpuConfig::default();
        cmos.rf_cache = None;

        let slow_1 =
            run(&tfet, &insts, &p, 1).cycles as f64 / run(&cmos, &insts, &p, 1).cycles as f64;
        let slow_8 =
            run(&tfet, &insts, &p, 8).cycles as f64 / run(&cmos, &insts, &p, 8).cycles as f64;
        assert!(
            slow_8 < slow_1,
            "occupancy should hide TFET latency: 1-wave slowdown {slow_1:.2}, 8-wave {slow_8:.2}"
        );
    }

    #[test]
    fn rf_cache_recovers_performance() {
        let (p, insts) = small_kernel();
        let mut base = GpuConfig::default();
        base.rf_latency = 2; // TFET RF
        base.rf_cache = None;
        let mut cached = base.clone();
        cached.rf_cache = Some(crate::config::RfCacheConfig::default());
        let without = run(&base, &insts, &p, 8).cycles;
        let with = run(&cached, &insts, &p, 8).cycles;
        assert!(
            with <= without,
            "RF cache must not slow things down: {with} vs {without}"
        );
    }

    #[test]
    fn rf_cache_hit_rate_is_meaningful() {
        let (p, insts) = small_kernel();
        let stats = run(&GpuConfig::default(), &insts, &p, 8);
        let hr = stats.rf_cache_hit_rate();
        assert!(hr > 0.2, "written-value reuse should hit: {hr}");
        assert!(hr < 0.9, "long-lived values should miss: {hr}");
    }

    #[test]
    fn zero_waves_is_empty_run() {
        let (p, insts) = small_kernel();
        let stats = run(&GpuConfig::default(), &insts, &p, 0);
        assert_eq!(stats.wavefront_insts, 0);
        assert_eq!(stats.cycles, 0);
    }

    #[test]
    fn residency_holds_one_sample_per_cycle() {
        let (p, insts) = small_kernel();
        let cfg = GpuConfig::default();
        let kernel = DecodedKernel::new(&cfg, &p, &insts);
        // More waves than fit, so batches drain: every level is seen.
        let (stats, attrib) = run_cu(&kernel, 3 * kernel.waves_per_cu + 1, 5);
        assert_eq!(attrib.cycles, stats.cycles);
        assert_eq!(attrib.residency.count(), stats.cycles);
        assert!(attrib.residency.max() <= u64::from(kernel.waves_per_cu));
        assert!(attrib.residency.bucket_counts()[0] > 0, "drain tails");
    }

    #[test]
    fn a_cu_run_returns_the_same_skip_counts_every_time() {
        let (p, insts) = small_kernel();
        let kernel = DecodedKernel::new(&GpuConfig::default(), &p, &insts);
        let skips = || {
            let (_, attrib) = run_cu(&kernel, 8, 2);
            (attrib.skipped_cycles, attrib.wakeup_jumps)
        };
        let first = skips();
        assert!(first.0 > 0 && first.1 > 0, "matmul waits on memory");
        assert_eq!(skips(), first);
    }

    #[test]
    fn a_wave_counts_as_resident_until_its_final_issue_cycle() {
        // One instruction per wave: wave w issues, and finishes, at
        // cycle w, so the resident count steps n-1, n-2, ..., 0.
        let mut p = kernels::profile("matmul").expect("known kernel");
        p.insts_per_wavefront = 1;
        let insts = p.generate(3);
        let kernel = DecodedKernel::new(&GpuConfig::default(), &p, &insts);
        let n = u64::from(kernel.waves_per_cu);
        let (stats, attrib) = run_cu(&kernel, kernel.waves_per_cu, 1);
        let residency = attrib.residency;
        assert_eq!(residency.count(), stats.cycles);
        assert_eq!(residency.max(), n - 1);
        assert_eq!(residency.sum(), n * (n - 1) / 2);
    }
}
