//! One compute unit: the launch's kernel, decoded once into a step
//! table, and a round-robin issue step over per-wavefront ready times.
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
//! functional-unit latency, and the RF and op counters. A memory
//! outcome is one of two, hit or DRAM miss. [`DecodedKernel`] works out
//! once per launch, for every pc and both outcomes, what issuing it does
//! to the wavefront: when it may issue next, when the instruction
//! completes, and whether that wait is on memory. The issue step in
//! [`run_cu`] then reads one table entry per issue and branches on
//! nothing but a wavefront's last instruction.

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

/// The least hash that draws a hit at miss rate `p`: a draw misses when
/// its hash `h` has `h as f64 / u64::MAX as f64 < p`. That test is
/// monotone in `h`, so it holds exactly for `h < miss_below(p)`. `p`
/// must lie in `[0, 1]`, where `u64::MAX` always draws a hit.
fn miss_below(p: f64) -> u64 {
    let misses = |h: u64| (h as f64 / u64::MAX as f64) < p;
    // Every hash below `lo` misses; `hi` hits.
    let (mut lo, mut hi) = (0u64, u64::MAX);
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        if misses(mid) {
            lo = mid + 1;
        } else {
            hi = mid;
        }
    }
    lo
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
    /// wavefront.
    mem: bool,
}

/// What issuing one pc, with one memory outcome, does to its wavefront.
#[derive(Debug, Clone, Copy)]
struct Step {
    /// Cycles from this issue until the wavefront may issue pc+1: the
    /// SIMD issue occupancy, or the completion latency when pc+1 waits
    /// on this instruction and that is longer.
    advance: u64,
    /// Issue-to-completion cycles (what a batch drains on).
    latency: u64,
    /// The wait for pc+1 is a dependence on a memory instruction.
    mem_blocked: bool,
}

/// A kernel decoded for one configuration, once per launch, and shared
/// by every CU of that launch.
#[derive(Debug)]
pub struct DecodedKernel {
    /// Two entries per pc: `steps[2 * pc]` on a hit (or a non-memory
    /// instruction), `steps[2 * pc + 1]` on a DRAM miss.
    steps: Vec<Step>,
    /// Per pc, the least hash that draws a hit (see [`miss_below`]):
    /// zero for a non-memory instruction, which never misses.
    miss_below: Vec<u64>,
    /// The counters one wavefront's full pass adds; `cycles` and
    /// `dram_accesses` stay zero (they come from the issue step).
    per_wave: GpuStats,
    waves_per_cu: u32,
}

impl DecodedKernel {
    /// Decodes `kernel` (generated from `profile`) for `cfg`: replays one
    /// wavefront's pass through a fresh RF cache or the kernel's static
    /// fast-register allocation, and tabulates each pc's hit and miss
    /// step and miss threshold, and the pass's counters.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid or the profile's miss rate
    /// lies outside `[0, 1]`.
    pub fn new(cfg: &GpuConfig, profile: &KernelProfile, kernel: &[GpuInst]) -> Self {
        cfg.validate().expect("valid GPU config");
        let p = profile.mem_miss_rate;
        assert!((0.0..=1.0).contains(&p), "miss rate {p} outside [0, 1]");
        let (insts, per_wave) = decode(cfg, kernel);
        let issue_cycles = u64::from(cfg.issue_cycles_per_wavefront());
        let below = miss_below(p);
        let mut steps = Vec::with_capacity(2 * insts.len());
        for (pc, inst) in insts.iter().enumerate() {
            let next_waits = insts.get(pc + 1).is_some_and(|next| next.dep_on_prev);
            for latency in [inst.latency, inst.miss_latency] {
                let blocked = next_waits && latency > issue_cycles;
                steps.push(Step {
                    advance: if blocked { latency } else { issue_cycles },
                    latency,
                    mem_blocked: blocked && inst.mem,
                });
            }
        }
        DecodedKernel {
            steps,
            miss_below: insts
                .iter()
                .map(|inst| if inst.mem { below } else { 0 })
                .collect(),
            per_wave,
            waves_per_cu: cfg.waves_per_cu,
        }
    }

    /// The step-table index of wavefront `id`'s issue of `pc`: its hit
    /// entry, or its miss entry when the wavefront's draw there misses.
    fn entry(&self, id: u64, pc: usize) -> usize {
        let h = hash64(id.wrapping_mul(0x1000_0001).wrapping_add(pc as u64));
        2 * pc + usize::from(self.misses(pc, h))
    }

    /// Whether the draw hashing to `h` at `pc` misses to DRAM.
    fn misses(&self, pc: usize, h: u64) -> bool {
        h < self.miss_below[pc]
    }
}

/// Replays one wavefront's pass over `kernel` for `cfg`: each pc's
/// latencies and flags, and the pass's counters.
fn decode(cfg: &GpuConfig, kernel: &[GpuInst]) -> (Vec<DecodedInst>, GpuStats) {
    let threads = u64::from(WAVEFRONT_THREADS);
    // Static fast-register allocation for a partitioned RF (per kernel,
    // shared by every wavefront — it is a compiler decision).
    let fast_regs = cfg.rf_partition.map(|p| FastRegSet::allocate(kernel, p));
    let mut rfc = cfg.rf_cache.map(|c| RfCache::new(c.entries as usize));
    let mut s = GpuStats::default();
    let insts = kernel
        .iter()
        .map(|inst| {
            let read_latency = read_sources(cfg, rfc.as_mut(), inst, &mut s, fast_regs.as_ref());
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
    (insts, s)
}

/// Runs `wave_count` wavefronts of a decoded kernel on one compute unit.
/// Returns the CU's counters and its top-down cycle attribution: every
/// cycle charged to exactly one class (summing to `GpuStats::cycles`),
/// the wave-residency histogram and the skip counts.
///
/// The work counters are `wave_count` times the decoded per-wave pass;
/// only `cycles` and `dram_accesses` come from the issue step. The step
/// keeps, per resident wavefront, its next step-table entry (its miss
/// draw resolved when it reached that pc), the cycle it may issue next
/// and whether that wait is on memory, all rewritten only when that
/// wavefront issues. Its loop accumulates only what it cannot derive:
/// DRAM accesses, wake-up jumps and the cycles jumped while waiting on
/// memory. Every cycle is an issue, a jumped cycle or a drained one,
/// so the cycles jumped in all are the final cycle less the launch's
/// issues and the drained cycles, and the skipped ones are those less
/// one per jump.
pub fn run_cu(kernel: &DecodedKernel, wave_count: u32, seed: u64) -> (GpuStats, CuProfile) {
    let mut attrib = CuProfile::default();
    if wave_count == 0 || kernel.steps.is_empty() {
        return (GpuStats::default(), attrib);
    }
    let steps = &kernel.steps;
    let last_pc = kernel.miss_below.len() - 1;

    // Waves beyond the resident limit start as soon as a slot frees; model
    // by batching (each batch fully resident, conservative on tail
    // effects, which are small for the launch sizes used).
    let resident = kernel.waves_per_cu.min(wave_count);
    let batches = wave_count.div_ceil(resident);
    // Per resident wavefront: its global id (stable across
    // configurations), the step-table entry of its next issue, the cycle
    // it may issue next (u64::MAX once finished), and whether that wait
    // is a dependence on a memory instruction.
    let mut id = Vec::with_capacity(resident as usize);
    let mut entry = Vec::with_capacity(resident as usize);
    let mut ready = Vec::with_capacity(resident as usize);
    let mut mem_blocked = Vec::with_capacity(resident as usize);
    let mut cycle: u64 = 0;
    let mut dram_accesses: u64 = 0;
    let mut wakeup_jumps: u64 = 0;
    // Cycles jumped while the waking wavefront waited on a memory
    // instruction.
    let mut mem_stalled: u64 = 0;

    for batch in 0..batches {
        let n = resident.min(wave_count - batch * resident) as usize;
        id.clear();
        id.extend((0..n as u32).map(|w| seed ^ hash64(u64::from(batch * resident + w))));
        entry.clear();
        entry.extend(id.iter().map(|&id| kernel.entry(id, 0)));
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
            // The wavefront with the least (issue cycle, round-robin
            // rank): the first ready one from `rr` on, or else the
            // earliest-ready one, first among ties. The scan runs in
            // rank order with no early exit, so it compiles to selects.
            let mut w = rr;
            let mut wake = ready[rr].max(cycle);
            for k in 1..n {
                let i = if rr + k < n { rr + k } else { rr + k - n };
                let when = ready[i].max(cycle);
                let earlier = when < wake;
                wake = if earlier { when } else { wake };
                w = if earlier { i } else { w };
            }
            // When nobody can issue before `wake`, the step jumps there
            // instead of ticking idle cycles one by one. The gap goes to
            // the waking wavefront's binding constraint: a dependence on
            // a memory instruction means the whole CU is waiting on
            // memory; anything else is issue bandwidth or an ALU
            // dependence chain.
            debug_assert!(wake != u64::MAX, "remaining > 0 implies an unfinished wave");
            let gap = wake - cycle;
            wakeup_jumps += u64::from(gap > 0);
            mem_stalled += gap * u64::from(mem_blocked[w]);
            cycle = wake;
            // ---- Issue wavefront `w`'s instruction ----
            let at = entry[w];
            let step = steps[at];
            // Odd entries are DRAM misses.
            dram_accesses += (at & 1) as u64;
            let pc = at / 2;
            if pc == last_pc {
                // A wave's final issue cycle counts at the lower level.
                let cycles = cycle - level_since;
                attrib.residency.record_n(remaining as u64, cycles);
                level_since = cycle;
                ready[w] = u64::MAX;
                remaining -= 1;
                drain = drain.max(cycle + step.latency);
            } else {
                ready[w] = cycle + step.advance;
                mem_blocked[w] = step.mem_blocked;
                entry[w] = kernel.entry(id[w], pc + 1);
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
    let stats = cu_stats(&kernel.per_wave, wave_count, cycle, dram_accesses);
    let issues = stats.wavefront_insts;
    let stalled = cycle - issues - attrib.classes.get(CycleClass::IdleSkipped);
    attrib.classes.charge(CycleClass::MemLatency, mem_stalled);
    attrib
        .classes
        .charge(CycleClass::IssueBound, stalled - mem_stalled);
    attrib.skipped_cycles = stalled - wakeup_jumps;
    attrib.wakeup_jumps = wakeup_jumps;
    // Every issue cycle retires one wavefront instruction.
    attrib.classes.charge(CycleClass::Retire, issues);
    attrib.cycles = cycle;
    debug_assert_eq!(
        attrib.classes.total(),
        attrib.cycles,
        "every CU cycle is charged to exactly one class"
    );
    (stats, attrib)
}

/// A CU's counters: `waves` times the per-wave pass `p`, plus the
/// issue step's cycles and DRAM accesses.
fn cu_stats(p: &GpuStats, waves: u32, cycles: u64, dram_accesses: u64) -> GpuStats {
    let waves = u64::from(waves);
    GpuStats {
        cycles,
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
    }
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
    use crate::config::{PartitionedRfConfig, RfCacheConfig};
    use crate::kernels;
    use proptest::collection::vec;
    use proptest::prelude::*;

    /// The issue step as it was before the step table, kept as the
    /// oracle [`run_cu`] must match exactly: a round-robin scan that
    /// stops at the first ready wavefront, the miss drawn at issue by
    /// the float test, and the scoreboard tested on every issue.
    fn reference_run_cu(
        cfg: &GpuConfig,
        profile: &KernelProfile,
        kernel: &[GpuInst],
        wave_count: u32,
        seed: u64,
    ) -> (GpuStats, CuProfile) {
        let mut attrib = CuProfile::default();
        let (insts, per_wave) = decode(cfg, kernel);
        if wave_count == 0 || insts.is_empty() {
            return (GpuStats::default(), attrib);
        }
        let issue_cycles = u64::from(cfg.issue_cycles_per_wavefront());
        let misses = |key: u64| (hash64(key) as f64 / u64::MAX as f64) < profile.mem_miss_rate;
        let last_pc = insts.len() - 1;
        let resident = cfg.waves_per_cu.min(wave_count);
        let batches = wave_count.div_ceil(resident);
        let mut cycle: u64 = 0;
        let mut dram_accesses: u64 = 0;
        for batch in 0..batches {
            let n = resident.min(wave_count - batch * resident) as usize;
            let id: Vec<u64> = (0..n as u32)
                .map(|w| seed ^ hash64(u64::from(batch * resident + w)))
                .collect();
            let mut pc = vec![0usize; n];
            let mut ready = vec![cycle; n];
            let mut mem_blocked = vec![false; n];
            let mut rr = 0usize;
            let mut remaining = n;
            let mut level_since = cycle;
            let mut drain = cycle;
            while remaining > 0 {
                let mut w = rr;
                let mut wake = u64::MAX;
                for k in 0..n {
                    let i = (rr + k) % n;
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
                    let gap = wake - cycle;
                    attrib.skipped_cycles += gap - 1;
                    attrib.wakeup_jumps += 1;
                    let class = if mem_blocked[w] {
                        CycleClass::MemLatency
                    } else {
                        CycleClass::IssueBound
                    };
                    attrib.classes.charge(class, gap);
                    cycle = wake;
                }
                let cur = pc[w];
                let inst = insts[cur];
                let key = id[w].wrapping_mul(0x1000_0001).wrapping_add(cur as u64);
                let latency = if inst.mem && misses(key) {
                    dram_accesses += 1;
                    inst.miss_latency
                } else {
                    inst.latency
                };
                let done = cycle + latency;
                let next_issue = cycle + issue_cycles;
                if cur == last_pc {
                    attrib
                        .residency
                        .record_n(remaining as u64, cycle - level_since);
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
                rr = (w + 1) % n;
                cycle += 1;
            }
            if drain > cycle {
                attrib
                    .classes
                    .charge(CycleClass::IdleSkipped, drain - cycle);
                cycle = drain;
            }
            attrib.residency.record_n(0, cycle - level_since);
        }
        let stats = cu_stats(&per_wave, wave_count, cycle, dram_accesses);
        attrib
            .classes
            .charge(CycleClass::Retire, stats.wavefront_insts);
        attrib.cycles = cycle;
        (stats, attrib)
    }

    /// A random instruction stream: any op mix, dependence pattern and
    /// register use (48 live registers; a draw past them is no operand).
    fn streams() -> impl Strategy<Value = Vec<GpuInst>> {
        let reg = |r: u8| (r < 48).then_some(r);
        let inst = (0u8..3, any::<bool>(), (0u8..60, 0u8..60, 0u8..60), 0u8..60).prop_map(
            move |(op, dep_on_prev, (a, b, c), dst)| GpuInst {
                op: [GpuOp::Valu, GpuOp::Mem, GpuOp::Lds][op as usize],
                dep_on_prev,
                srcs: [reg(a), reg(b), reg(c)],
                dst: reg(dst),
            },
        );
        vec(inst, 0..120)
    }

    /// A random valid configuration: an RF cache, a partitioned RF or
    /// neither; 1–10 resident wavefronts; any lane count dividing 64.
    fn configs() -> impl Strategy<Value = GpuConfig> {
        (
            (0u32..3, 1u32..9, 1u32..4, 0u32..49),
            (0u32..7, 1u32..11),
            (1u32..8, 1u32..4, 1u32..10, 1u32..40, 1u32..300),
        )
            .prop_map(
                |(
                    (rf_kind, entries, rf_side_latency, fast_regs),
                    (lanes_log2, waves_per_cu),
                    (fma_latency, rf_latency, lds_latency, mem_hit_latency, mem_miss_latency),
                )| GpuConfig {
                    lanes_per_cu: 1 << lanes_log2,
                    waves_per_cu,
                    fma_latency,
                    rf_latency,
                    rf_cache: (rf_kind == 1).then_some(RfCacheConfig {
                        entries,
                        latency: rf_side_latency,
                    }),
                    rf_partition: (rf_kind == 2).then_some(PartitionedRfConfig {
                        fast_regs,
                        fast_latency: rf_side_latency,
                    }),
                    lds_latency,
                    mem_hit_latency,
                    mem_miss_latency,
                    ..GpuConfig::default()
                },
            )
    }

    /// A miss rate: exactly 0 or 1 half the time, else anywhere between.
    fn miss_rates() -> impl Strategy<Value = f64> {
        (0u32..4, 0.0f64..1.0).prop_map(|(pick, p)| match pick {
            0 => 0.0,
            1 => 1.0,
            _ => p,
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The table-driven step returns exactly what the reference step
        /// does: every counter, every class, the residency histogram and
        /// the skip counts, whatever the kernel, configuration, miss
        /// rate, wave count (empty, partial and several batches) or seed.
        #[test]
        fn the_step_table_matches_the_reference_step(
            stream in streams(),
            cfg in configs(),
            mem_miss_rate in miss_rates(),
            wave_pick in 0u32..1000,
            seed in any::<u64>(),
        ) {
            let profile = KernelProfile {
                mem_miss_rate,
                ..kernels::profile("matmul").expect("known kernel")
            };
            let waves = wave_pick % (3 * cfg.waves_per_cu + 2);
            let decoded = DecodedKernel::new(&cfg, &profile, &stream);
            prop_assert_eq!(
                run_cu(&decoded, waves, seed),
                reference_run_cu(&cfg, &profile, &stream, waves, seed)
            );
        }

        /// The integer miss threshold agrees with the float test around
        /// itself and anywhere else, at any rate.
        #[test]
        fn the_miss_threshold_matches_the_float_test_at_fuzzed_rates(
            p in 0.0f64..1.0,
            offsets in vec(0u64..4096, 16),
            hashes in vec(any::<u64>(), 16),
        ) {
            assert_threshold_exact(p, &offsets, &hashes);
        }
    }

    /// Checks the step's miss draw at rate `p` against the float test
    /// at the threshold `T`'s edges {0, T−1, T, T+1, `u64::MAX`}, at `T`
    /// ± each offset, and at each given hash; a non-memory pc never
    /// misses.
    fn assert_threshold_exact(p: f64, offsets: &[u64], hashes: &[u64]) {
        let mut profile = kernels::profile("matmul").expect("known kernel");
        profile.mem_miss_rate = p;
        let inst = |op| GpuInst {
            op,
            dep_on_prev: false,
            srcs: [None; 3],
            dst: None,
        };
        let kernel = [inst(GpuOp::Mem), inst(GpuOp::Valu)];
        let decoded = DecodedKernel::new(&GpuConfig::default(), &profile, &kernel);
        let below = decoded.miss_below[0];
        let float_test = |h: u64| (h as f64 / u64::MAX as f64) < p;
        let edges = [
            0,
            below.saturating_sub(1),
            below,
            below.saturating_add(1),
            u64::MAX,
        ];
        let near = offsets
            .iter()
            .flat_map(|&d| [below.saturating_sub(d), below.saturating_add(d)]);
        for h in edges.into_iter().chain(near).chain(hashes.iter().copied()) {
            let misses = decoded.misses(0, h);
            assert_eq!(misses, float_test(h), "p = {p:e}, h = {h}, T = {below}");
            assert!(!decoded.misses(1, h), "a VALU op drew a miss");
        }
    }

    #[test]
    fn the_miss_threshold_is_exact_at_every_named_rate() {
        let offsets: Vec<u64> = (0..64).map(|k| 1 << k).collect();
        let hashes: Vec<u64> = (0..256).map(hash64).collect();
        let named = kernels::all().into_iter().map(|k| k.mem_miss_rate);
        let edges = [
            0.0,
            1.0,
            0.5,
            f64::MIN_POSITIVE,
            f64::from_bits(1),
            1.0 - f64::EPSILON / 2.0,
        ];
        for p in named.chain(edges) {
            assert_threshold_exact(p, &offsets, &hashes);
        }
        assert_eq!(miss_below(0.0), 0, "a zero rate never misses");
        assert!(
            miss_below(1.0) > u64::MAX - 4096,
            "a unit rate nearly always misses"
        );
    }

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
