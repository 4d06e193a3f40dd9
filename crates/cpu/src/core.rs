//! The cycle-level out-of-order core.
//!
//! A trace-driven model of a 4-wide OoO pipeline: instructions are pulled
//! from the synthetic trace (always the correct path, as in standard
//! trace-driven simulation), dispatched into a ROB/IQ/LSQ subject to every
//! Table III capacity, issued oldest-first when their producers complete
//! and a functional unit is free, and committed in order. Branch
//! mispredictions block dispatch from the mispredicted branch until it
//! resolves, then charge the front-end refill delay — wrong-path *work* is
//! not simulated, but its *timing* cost is.
//!
//! The TFET-specific behaviours all emerge from configuration:
//! deeper-pipelined TFET units lengthen producer-consumer chains and branch
//! resolution; the TFET DL1/L2/L3 latencies stretch the memory path; the
//! dual-speed ALU cluster steers consumer-soon instructions to the CMOS ALU
//! (Section IV-C2); and the asymmetric DL1 shortens the common case back to
//! one cycle (Section IV-C1).
//!
//! # Execution-layer implementation
//!
//! The model is cycle-accurate but the implementation is event-driven in
//! the MGSim/MosaicSim style, and counter-exact against the plain
//! cycle-by-cycle loop it replaced (pinned by `tests/step_equivalence.rs`
//! and the byte-identity goldens):
//!
//! * **Struct-of-arrays ROB ring** (`RobRing`): in-flight state lives in
//!   fixed parallel arrays indexed by `seq & mask` — no `VecDeque`
//!   pointer-chasing, no per-instruction allocation.
//! * **Wakeup-driven issue**: instead of re-testing every IQ entry's
//!   operands each cycle (the O(IQ x cycles) cost that dominated the old
//!   loop), each producer keeps an intrusive consumer chain; when it
//!   issues, its consumers learn their exact operands-ready cycle and
//!   enter an O(1) *timing wheel* of ready events. Each cycle drains
//!   the current wheel bucket into a *ready bitmask* and the
//!   oldest-first issue scan walks only genuinely ready instructions —
//!   word-wise bit tricks give seq order for free.
//! * **Dead-cycle skip**: when a cycle makes no progress (no commit, no
//!   issue, no dispatch), nothing in the pipeline can change until the
//!   next *event* — the ROB head completing, a ready instruction's
//!   functional-unit class freeing up, the next operand-ready event, or
//!   a mispredict redirect reopening the front end. The loop computes
//!   that next-wakeup time and jumps to it in one step. Skipping is
//!   sound because on a zero-progress cycle every piece of simulator
//!   state except the cycle counter and at most one dispatch-stall
//!   counter is frozen, and the stall hazard re-evaluates identically on
//!   every skipped cycle — so the elided ticks are accounted in bulk and
//!   all `counters!` stats stay exactly identical (see DESIGN.md for the
//!   invariant list).
//! * **Branch-light bookkeeping**: the op classes of a trace arrive in no
//!   predictable order, so the per-instruction path does not branch on
//!   them. Occupancy, hazard and RF-write updates read a per-class table
//!   (`ClassInfo`), issue counters accumulate per class and fold into
//!   [`CoreStats`] at the warm-up snapshot and at the end of the run, and
//!   functional-unit arbitration walks a precomputed candidate list
//!   ([`FuPool`]).

use hetsim_check::{CheckConfig, Checker, Violation};
use hetsim_mem::hierarchy::Hierarchy;
use hetsim_mem::stats::MemStats;
use hetsim_trace::cache::CachedTrace;
use hetsim_trace::isa::OpClass;

use hetsim_stats::Histogram;

use crate::config::{CoreConfig, SteeringPolicy};
use crate::fu::FuPool;
use crate::profile::{CoreProfile, CycleClass};
use crate::stats::CoreStats;

/// Synthetic code region for instruction-fetch energy accounting.
const CODE_BASE: u64 = 0x4000_0000;
/// Modeled code footprint (fits IL1 after warm-up; IL1 stays CMOS in every
/// design, so its timing is identical across configurations).
const CODE_FOOTPRINT: u64 = 16 * 1024;

/// "No producer" sentinel in the source-seq arrays (operand ready at
/// rename: an immediate, or a producer older than the trace window).
const NO_SRC: u64 = u64::MAX;

/// Empty-chain sentinel in the intrusive wakeup/wheel linked lists.
const NIL: u32 = u32::MAX;

/// Timing-wheel span in cycles (power of two). One bucket per future
/// cycle covers every functional-unit latency and all but the slowest
/// memory round trips; an event farther out than the wheel aliases onto
/// an earlier bucket, where the drain pass filters it by its exact
/// `ready_at` (keeping it queued) and the dead-cycle skip treats the
/// bucket as a harmless *early* wakeup candidate — early wakeups
/// execute one dead cycle and re-arm the skip.
const WHEEL: usize = 2048;

/// Per-slot flag bits.
const F_ISSUED: u8 = 1 << 0;
const F_MISPREDICTED: u8 = 1 << 1;
const F_PREFER_FAST: u8 = 1 << 2;
/// The flags above this shift hold how many register operands the entry
/// reads (its producers that were in the trace window, 0..=2).
const READS_SHIFT: u8 = 3;

/// Front-end redirect state. A mispredicted branch closes dispatch when
/// it enters the ROB ([`Redirect::Waiting`]); once it issues its
/// resolution cycle is known and dispatch reopens after the refill delay
/// ([`Redirect::ResumeAt`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Redirect {
    /// Dispatch is open.
    Open,
    /// An in-flight mispredicted branch has not issued yet, so its
    /// resolution cycle is unknown.
    Waiting,
    /// The branch issued; dispatch resumes at this cycle.
    ResumeAt(u64),
}

/// Which structural hazard (if any) broke this cycle's dispatch loop.
/// Used to account the same stall counter in bulk across skipped dead
/// cycles — the hazard is a pure function of state that is frozen while
/// no commit/issue/dispatch happens.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Stall {
    None,
    Rob,
    Iq,
    Lsq,
    Reg,
}

/// What one op class does to the step's bookkeeping, built once per core
/// from the [`OpClass`] predicates and [`FuPool::pool_of`]; the step adds
/// these counts and tests these bits instead of branching on the class.
#[derive(Debug, Clone, Copy)]
struct ClassInfo {
    /// LSQ entries held from dispatch to commit (1 for loads and stores).
    lsq: u32,
    /// Integer rename registers held (1 for integer-result classes).
    int_reg: u32,
    /// FP rename registers held (1 for FP-result classes).
    fp_reg: u32,
    /// Bit of the class's functional-unit arbitration pool.
    pool_bit: u32,
    /// 1 for simple ALU ops, which count by cluster as they issue.
    alu: u64,
}

impl ClassInfo {
    fn table() -> [ClassInfo; OpClass::ALL.len()] {
        OpClass::ALL.map(|op| {
            let writes = op.produces_value();
            ClassInfo {
                lsq: u32::from(op.is_mem()),
                int_reg: u32::from(writes && !op.is_fp()),
                fp_reg: u32::from(writes && op.is_fp()),
                pool_bit: 1 << FuPool::pool_of(op),
                alu: u64::from(op == OpClass::IntAlu),
            }
        })
    }
}

/// Issue-time counters kept per op class during a run and folded into
/// [`CoreStats`] by [`Core::fold_issues`], so issuing an instruction adds
/// to two array cells instead of matching on its class.
#[derive(Debug, Default)]
struct IssueCounts {
    /// Instructions issued.
    ops: [u64; OpClass::ALL.len()],
    /// Register operands read.
    rf_reads: [u64; OpClass::ALL.len()],
}

/// Struct-of-arrays ROB ring with wakeup-driven scheduling. Slot index
/// is `seq & mask`; the live window is `[head_seq, tail_seq)`.
///
/// Scheduling state per slot:
///
/// * `unresolved` — how many of this entry's producers are still
///   unissued. While nonzero the operands-ready cycle is unknown and
///   the entry sits in its producers' `consumers` lists.
/// * `ready_at` — the running max of (dispatch cycle + 1, issued
///   producers' completion cycles). Once `unresolved` hits zero this is
///   exact and final (an issued producer's `done` never changes), and
///   the entry enters the timing wheel.
/// * wheel → `ready` — each cycle, events in the current wheel bucket
///   move into the `ready` bitmask; the issue scan walks only those
///   bits. Entries that fail structural (FU) arbitration simply stay
///   in the mask.
///
/// All scheduling links are *intrusive*: consumer wakeup lists and
/// wheel buckets are singly linked chains threaded through fixed
/// per-slot arrays, so the steady state allocates nothing and pays no
/// heap sift costs.
///
/// IQ occupancy is `pending_count` (dispatched minus issued).
#[derive(Debug)]
struct RobRing {
    mask: u64,
    op: Vec<OpClass>,
    /// Byte address for loads/stores (0 otherwise, never read).
    addr: Vec<u64>,
    /// Completion cycle (valid once [`F_ISSUED`] is set).
    done: Vec<u64>,
    flags: Vec<u8>,
    /// Operands-ready cycle (exact once `unresolved` is 0).
    ready_at: Vec<u64>,
    /// Producers not yet issued (0..=2).
    unresolved: Vec<u8>,
    /// Head of this producer's consumer chain ([`NIL`] = none). Chain
    /// entries are `consumer_slot << 1 | src_index`, so an instruction
    /// reading the same producer through both operands appears twice —
    /// exactly matching its `unresolved` count of 2.
    cons_head: Vec<u32>,
    /// Chain links, indexed by `consumer_slot << 1 | src_index`.
    cons_next: Vec<u32>,
    /// Timing wheel: head of the slot chain whose operand-ready events
    /// land on this bucket (`bucket = ready_at % WHEEL`).
    wheel: Vec<u32>,
    /// Wheel chain links, indexed by slot. A slot carries at most one
    /// pending ready event, so one link suffices.
    wheel_next: Vec<u32>,
    /// One bit per wheel bucket: bucket chain non-empty.
    wheel_occ: Vec<u64>,
    /// One bit per slot: operands ready, waiting on FU arbitration.
    ready: Vec<u64>,
    head_seq: u64,
    tail_seq: u64,
    pending_count: u32,
}

impl RobRing {
    /// Builds a ring for `rob_entries` in-flight instructions. Capacity
    /// is padded by 64 slots (then rounded to a power of two) so the
    /// occupied window never wraps into the low bits of the head slot's
    /// mask word — which lets the issue scan visit each word exactly
    /// once and still enumerate slots in ascending seq order.
    fn new(rob_entries: u32) -> Self {
        let cap = (rob_entries as usize + 64).next_power_of_two();
        RobRing {
            mask: cap as u64 - 1,
            op: vec![OpClass::IntAlu; cap],
            addr: vec![0; cap],
            done: vec![0; cap],
            flags: vec![0; cap],
            ready_at: vec![0; cap],
            unresolved: vec![0; cap],
            cons_head: vec![NIL; cap],
            cons_next: vec![NIL; cap * 2],
            wheel: vec![NIL; WHEEL],
            wheel_next: vec![NIL; cap],
            wheel_occ: vec![0; WHEEL / 64],
            ready: vec![0; cap / 64],
            head_seq: 0,
            tail_seq: 0,
            pending_count: 0,
        }
    }

    #[inline]
    fn slot(&self, seq: u64) -> usize {
        (seq & self.mask) as usize
    }

    #[inline]
    fn len(&self) -> u64 {
        self.tail_seq - self.head_seq
    }

    #[inline]
    fn is_empty(&self) -> bool {
        self.head_seq == self.tail_seq
    }

    /// Appends one instruction at the tail: resolves whatever producers
    /// have already issued (or committed), registers on the wakeup lists
    /// of those that have not. Entries with no outstanding producers
    /// become issue-eligible next cycle (`dispatch_cycle + 1`: the issue
    /// stage runs before dispatch within a cycle, so a just-dispatched
    /// instruction is first visible to it one cycle later — exactly as
    /// in the cycle-by-cycle loop). `src1`/`src2` are the producers'
    /// absolute sequence numbers ([`NO_SRC`] = none).
    #[inline]
    fn push(&mut self, op: OpClass, src1: u64, src2: u64, addr: u64, flags: u8, cycle: u64) {
        let s = self.slot(self.tail_seq);
        self.op[s] = op;
        self.addr[s] = addr;
        let reads = u8::from(src1 != NO_SRC) + u8::from(src2 != NO_SRC);
        self.flags[s] = flags | reads << READS_SHIFT;
        let mut ready_at = cycle + 1;
        let mut unresolved = 0u8;
        for (idx, src) in [src1, src2].into_iter().enumerate() {
            if src == NO_SRC || src < self.head_seq {
                continue; // immediate, or producer already committed
            }
            let ps = self.slot(src);
            if self.flags[ps] & F_ISSUED != 0 {
                ready_at = ready_at.max(self.done[ps]);
            } else {
                unresolved += 1;
                let e = ((s << 1) | idx) as u32;
                self.cons_next[e as usize] = self.cons_head[ps];
                self.cons_head[ps] = e;
            }
        }
        self.ready_at[s] = ready_at;
        self.unresolved[s] = unresolved;
        if unresolved == 0 {
            self.push_event(s, ready_at);
        }
        self.pending_count += 1;
        self.tail_seq += 1;
    }

    /// Queues `slot`'s operand-ready event at cycle `at` on the wheel.
    #[inline]
    fn push_event(&mut self, s: usize, at: u64) {
        let b = (at as usize) & (WHEEL - 1);
        self.wheel_next[s] = self.wheel[b];
        self.wheel[b] = s as u32;
        self.wheel_occ[b >> 6] |= 1u64 << (b & 63);
    }

    /// Moves every operand-ready event due at `cycle` into the ready
    /// bitmask. Aliased entries (a later lap of the wheel) stay queued.
    #[inline]
    fn drain_ready(&mut self, cycle: u64) {
        let b = (cycle as usize) & (WHEEL - 1);
        if self.wheel_occ[b >> 6] & (1u64 << (b & 63)) == 0 {
            return;
        }
        let mut s = self.wheel[b];
        let mut keep = NIL;
        while s != NIL {
            let next = self.wheel_next[s as usize];
            if self.ready_at[s as usize] <= cycle {
                self.ready[(s >> 6) as usize] |= 1u64 << (s & 63);
            } else {
                self.wheel_next[s as usize] = keep;
                keep = s;
            }
            s = next;
        }
        self.wheel[b] = keep;
        if keep == NIL {
            self.wheel_occ[b >> 6] &= !(1u64 << (b & 63));
        }
    }

    /// The earliest cycle strictly after `cycle` holding a queued
    /// operand-ready event, or `u64::MAX` if the wheel is empty.
    /// Aliased buckets make this a *lower bound* — exactly what the
    /// dead-cycle skip needs.
    fn next_event_after(&self, cycle: u64) -> u64 {
        let start = ((cycle + 1) as usize) & (WHEEL - 1);
        let nwords = self.wheel_occ.len();
        let start_word = start >> 6;
        let mut word = self.wheel_occ[start_word] & (!0u64 << (start & 63));
        let mut k = 0;
        loop {
            if word != 0 {
                let b = ((start_word + k) % nwords) * 64 + word.trailing_zeros() as usize;
                let d = (b + WHEEL - start) & (WHEEL - 1);
                return cycle + 1 + d as u64;
            }
            k += 1;
            if k > nwords {
                return u64::MAX;
            }
            word = self.wheel_occ[(start_word + k) % nwords];
        }
    }

    /// Marks the entry in `slot` issued with completion cycle `done`,
    /// and wakes its consumers: each learns this producer's completion
    /// cycle, and the last producer to issue queues the consumer's
    /// now-exact ready event on the wheel.
    fn mark_issued(&mut self, slot: usize, done: u64) {
        self.flags[slot] |= F_ISSUED;
        self.done[slot] = done;
        self.ready[slot >> 6] &= !(1u64 << (slot & 63));
        self.pending_count -= 1;
        let mut e = self.cons_head[slot];
        self.cons_head[slot] = NIL;
        while e != NIL {
            let c = (e >> 1) as usize;
            let next = self.cons_next[e as usize];
            self.ready_at[c] = self.ready_at[c].max(done);
            self.unresolved[c] -= 1;
            if self.unresolved[c] == 0 {
                self.push_event(c, self.ready_at[c]);
            }
            e = next;
        }
    }
}

/// Result of running a trace on a core.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// Pipeline event counters.
    pub stats: CoreStats,
    /// Memory-system event counters.
    pub mem: MemStats,
    /// The clock the core ran at (Hz).
    pub clock_hz: f64,
    /// Top-down cycle attribution for the measured window. Class counts
    /// always sum to `stats.cycles`; empty (all zero) in contexts that
    /// reconstruct results from frozen dumps.
    pub profile: CoreProfile,
}

impl RunResult {
    /// Instructions per cycle.
    pub fn ipc(&self) -> f64 {
        self.stats.ipc()
    }

    /// Wall-clock seconds of the simulated execution.
    pub fn seconds(&self) -> f64 {
        self.stats.cycles as f64 / self.clock_hz
    }
}

/// One out-of-order core.
#[derive(Debug)]
pub struct Core {
    cfg: CoreConfig,
    classes: [ClassInfo; OpClass::ALL.len()],
    pool: FuPool,
    hierarchy: Hierarchy,
    stats: CoreStats,
    fetch_pc: u64,
    core_id: u32,
    check: CheckConfig,
    violations: Vec<Violation>,
}

impl Core {
    /// Builds a core from `cfg`. `core_id` selects the L3 slice/identity in
    /// multicore runs (it does not change single-core behaviour).
    ///
    /// # Panics
    ///
    /// Panics if `cfg` fails validation.
    pub fn new(cfg: CoreConfig, core_id: u32) -> Self {
        cfg.validate().expect("valid core config");
        let hierarchy = Hierarchy::new(cfg.memory.to_hierarchy(cfg.clock_hz));
        Core {
            classes: ClassInfo::table(),
            pool: FuPool::new(cfg.fus.clone()),
            hierarchy,
            stats: CoreStats::default(),
            fetch_pc: CODE_BASE + u64::from(core_id) * CODE_FOOTPRINT,
            core_id,
            check: CheckConfig::OFF,
            violations: Vec::new(),
            cfg,
        }
    }

    /// Enables in-loop invariant checking (occupancy bounds, cycle
    /// monotonicity, pipeline ordering). Off by default so the hot path
    /// pays a single predictable branch per cycle.
    pub fn with_checks(mut self, check: CheckConfig) -> Self {
        self.check = check;
        self
    }

    /// Drains the violations collected by the in-loop checks (empty
    /// unless checking was enabled and an invariant broke).
    pub fn take_violations(&mut self) -> Vec<Violation> {
        std::mem::take(&mut self.violations)
    }

    /// The configuration this core was built with.
    pub fn config(&self) -> &CoreConfig {
        &self.cfg
    }

    /// Pre-warms the caches with the leading portion of a working set at
    /// `base` (see `hetsim_mem::Hierarchy::prewarm`).
    pub fn prewarm(&mut self, base: u64, working_set_bytes: u64) {
        self.hierarchy.prewarm(base, working_set_bytes);
    }

    /// Runs `n` instructions from `trace` to completion (dispatch `n`, then
    /// drain), returning the collected statistics. A [`CachedTrace`]
    /// replays the trace store; a `TraceGenerator` or a `Vec<Inst>` is a
    /// stream that is not stored. The branch predictor starts cold at the
    /// stream's first record.
    ///
    /// # Panics
    ///
    /// Panics if the trace ends before `n` instructions are available, or
    /// if the pipeline fails to make forward progress (an internal
    /// invariant violation).
    pub fn run(&mut self, trace: impl Into<CachedTrace>, n: u64) -> RunResult {
        self.step(trace.into(), 0, n)
    }

    /// Like [`Core::run`], but first executes `warmup` instructions to warm
    /// the caches and predictors, then measures the next `n` instructions
    /// (standard sampled-simulation methodology; cold-start misses would
    /// otherwise dominate short runs).
    ///
    /// # Panics
    ///
    /// As for [`Core::run`].
    pub fn run_warmed(&mut self, trace: impl Into<CachedTrace>, warmup: u64, n: u64) -> RunResult {
        self.step(trace.into(), warmup, n)
    }

    /// The cycle loop behind [`Core::run_warmed`]. Dispatch reads the
    /// record at position `dispatched` in place, with its mispredict bit
    /// from the stream's predictor walk; a hazard-stalled record is read
    /// again on the next attempt.
    fn step(&mut self, mut trace: CachedTrace, warmup: u64, n: u64) -> RunResult {
        let window = match self.cfg.steering {
            SteeringPolicy::None => 0,
            SteeringPolicy::DualSpeed { window } => window,
        };
        let mut issue_counts = IssueCounts::default();

        let mut rob = RobRing::new(self.cfg.rob_entries);

        let mut cycle: u64 = u64::from(self.cfg.frontend_delay); // pipeline fill
        let mut dispatched: u64 = 0;
        let mut committed: u64 = 0;
        let mut lsq_occ: u32 = 0;
        let mut int_inflight: u32 = 0;
        let mut fp_inflight: u32 = 0;
        let mut redirect = Redirect::Open;
        let mut last_progress_cycle = cycle;
        let mut last_verified_cycle: Option<u64> = None;
        let mut skipped_cycles: u64 = 0;
        let mut wakeup_jumps: u64 = 0;
        let total = warmup + n;
        // Snapshot taken when the warmup region retires: the cycle, the
        // skip counts and the counters, all subtracted at the end.
        let mut snapshot: Option<(u64, [u64; 2], CoreStats, MemStats)> = if warmup == 0 {
            Some((cycle, [0, 0], self.stats, self.hierarchy.stats()))
        } else {
            None
        };
        // Top-down attribution. Occupancy is counted per level (cycles
        // spent at each fill) and folded into histograms once, at the end.
        let mut profile = CoreProfile::default();
        let mut rob_levels = vec![0u64; self.cfg.rob_entries as usize + 1];
        let mut iq_levels = vec![0u64; self.cfg.iq_entries as usize + 1];
        let mut lsq_levels = vec![0u64; self.cfg.lsq_entries as usize + 1];

        while committed < total || !rob.is_empty() {
            // ---- Commit (in order, up to issue_width) ----
            let mut committed_now = 0;
            while committed_now < self.cfg.issue_width {
                if rob.is_empty() {
                    break;
                }
                let slot = rob.slot(rob.head_seq);
                if rob.flags[slot] & F_ISSUED == 0 || rob.done[slot] > cycle {
                    break;
                }
                let op = rob.op[slot];
                if op == OpClass::Store {
                    let _ = self.hierarchy.store(rob.addr[slot]);
                }
                let class = self.classes[op as usize];
                lsq_occ -= class.lsq;
                int_inflight -= class.int_reg;
                fp_inflight -= class.fp_reg;
                self.stats.int_rf_writes += u64::from(class.int_reg);
                self.stats.fp_rf_writes += u64::from(class.fp_reg);
                rob.head_seq += 1;
                committed += 1;
                committed_now += 1;
            }
            if committed_now > 0 {
                last_progress_cycle = cycle;
                if snapshot.is_none() && committed >= warmup {
                    self.fold_issues(&mut issue_counts);
                    let skips = [skipped_cycles, wakeup_jumps];
                    snapshot = Some((cycle, skips, self.stats, self.hierarchy.stats()));
                }
            }

            // ---- Issue (oldest-first over the ready bitmask, up to
            // issue_width) ----
            rob.drain_ready(cycle);
            let mut issued_now = 0u32;
            if rob.pending_count > 0 {
                let head_slot = rob.slot(rob.head_seq);
                let nwords = rob.ready.len();
                let start_word = head_slot >> 6;
                // Pools that already refused an issue this cycle. Pool
                // state only changes on a *successful* issue, so one
                // refusal condemns every later candidate of the same pool
                // at this cycle — skip them instead of re-arbitrating
                // (and stop scanning once all four pools are dry).
                let mut blocked_pools: u32 = 0;
                'scan: for k in 0..nwords {
                    let mut w = start_word + k;
                    if w >= nwords {
                        w -= nwords;
                    }
                    let mut bits = rob.ready[w];
                    if k == 0 {
                        // Bits below the head slot are at least 63 slots
                        // dead by construction (see RobRing::new), so this
                        // mask is belt-and-braces for seq ordering.
                        bits &= !0u64 << (head_slot & 63);
                    }
                    // Every set bit is operands-ready by construction;
                    // only FU arbitration can still refuse.
                    while bits != 0 {
                        let slot = (w << 6) | bits.trailing_zeros() as usize;
                        bits &= bits - 1;
                        let op = rob.op[slot];
                        let pool_bit = self.classes[op as usize].pool_bit;
                        if blocked_pools & pool_bit != 0 {
                            continue;
                        }
                        let prefer_fast = rob.flags[slot] & F_PREFER_FAST != 0;
                        let Some(issued) = self.pool.try_issue(op, cycle, prefer_fast) else {
                            blocked_pools |= pool_bit;
                            if blocked_pools == 0b1111 {
                                break 'scan;
                            }
                            continue;
                        };
                        // Compute completion time and record energy events.
                        let mut done = cycle + u64::from(issued.latency);
                        if op == OpClass::Load {
                            let mem = self.hierarchy.load(rob.addr[slot]);
                            if snapshot.is_some() {
                                let h = if mem.level.is_dl1_miss() {
                                    &mut profile.mem_miss_latency
                                } else {
                                    &mut profile.mem_hit_latency
                                };
                                h.record(u64::from(mem.latency));
                            }
                            done += u64::from(mem.latency);
                        }
                        rob.mark_issued(slot, done);
                        let mispredicted = rob.flags[slot] & F_MISPREDICTED != 0;
                        // Per-class issue counters; only the ALU cluster
                        // split stays live, for dispatch steering.
                        let k = op as usize;
                        issue_counts.ops[k] += 1;
                        issue_counts.rf_reads[k] += u64::from(rob.flags[slot] >> READS_SHIFT);
                        let alu = self.classes[k].alu;
                        let fast = u64::from(issued.on_fast_alu);
                        self.stats.alu_fast_ops += alu & fast;
                        self.stats.alu_slow_ops += alu & (fast ^ 1);
                        if mispredicted {
                            self.stats.mispredicts += u64::from(op == OpClass::Branch);
                            // The branch resolves at `done`; dispatch
                            // resumes after the front-end refill. Until
                            // resolution the front end fetched down the
                            // wrong path — charge those fetch groups as
                            // energy events (the work is discarded, the
                            // switching is not).
                            redirect =
                                Redirect::ResumeAt(done + u64::from(self.cfg.frontend_delay));
                            self.stats.wrong_path_fetch_groups +=
                                done.saturating_sub(cycle).min(32);
                        }
                        issued_now += 1;
                        if issued_now == self.cfg.issue_width {
                            break 'scan;
                        }
                    }
                }
                if issued_now > 0 {
                    last_progress_cycle = cycle;
                }
            }

            // ---- Dispatch (front end, up to issue_width) ----
            let dispatch_open = match redirect {
                Redirect::Open => true,
                Redirect::Waiting => false,
                Redirect::ResumeAt(at) => {
                    if cycle >= at {
                        redirect = Redirect::Open;
                        true
                    } else {
                        false
                    }
                }
            };
            let mut dispatched_now = 0;
            let mut stall = Stall::None;
            if dispatch_open && dispatched < total {
                while dispatched_now < self.cfg.fetch_width && dispatched < total {
                    // Structural hazards.
                    if rob.len() as u32 == self.cfg.rob_entries {
                        self.stats.rob_full_stalls += 1;
                        stall = Stall::Rob;
                        break;
                    }
                    if rob.pending_count == self.cfg.iq_entries {
                        self.stats.iq_full_stalls += 1;
                        stall = Stall::Iq;
                        break;
                    }
                    // The next record in place, and whether it is a
                    // branch the predictor mispredicts (trained at
                    // dispatch in program order, so walked once per
                    // stream and predictor config).
                    let Some((record, mispredicted)) =
                        trace.dispatch(dispatched, &self.cfg.predictor)
                    else {
                        panic!("trace ended after {dispatched} of {total} instructions")
                    };
                    let op = record.op();
                    // Occupancies never exceed their capacities, so a
                    // class that needs one more entry stalls exactly when
                    // the structure is full.
                    let class = self.classes[op as usize];
                    if lsq_occ + class.lsq > self.cfg.lsq_entries {
                        self.stats.lsq_full_stalls += 1;
                        stall = Stall::Lsq;
                        break;
                    }
                    if (int_inflight + class.int_reg > self.cfg.int_regs)
                        | (fp_inflight + class.fp_reg > self.cfg.fp_regs)
                    {
                        self.stats.reg_full_stalls += 1;
                        stall = Stall::Reg;
                        break;
                    }

                    // Steering decision (Section IV-C2): consumer within
                    // the next `window` instructions -> fast ALU, subject
                    // to the utilization-balancing objective (the single
                    // CMOS ALU must not saturate; the majority of ops keep
                    // flowing to the TFET ALUs).
                    let balance_ok = self.stats.alu_fast_ops * 9 <= (self.stats.alu_ops() + 16) * 4;
                    let prefer_fast = window > 0
                        && op == OpClass::IntAlu
                        && balance_ok
                        && trace.consumer_within(dispatched, window);

                    let seq = rob.tail_seq;
                    lsq_occ += class.lsq;
                    int_inflight += class.int_reg;
                    fp_inflight += class.fp_reg;
                    let to_src = |d: Option<u32>| {
                        d.and_then(|dist| seq.checked_sub(u64::from(dist)))
                            .unwrap_or(NO_SRC)
                    };
                    rob.push(
                        op,
                        to_src(record.src1()),
                        to_src(record.src2()),
                        record.addr(),
                        (u8::from(mispredicted) * F_MISPREDICTED)
                            | (u8::from(prefer_fast) * F_PREFER_FAST),
                        cycle,
                    );
                    dispatched += 1;
                    self.stats.dispatched += 1;
                    dispatched_now += 1;

                    if mispredicted {
                        // Block dispatch until this branch resolves.
                        redirect = Redirect::Waiting;
                        break;
                    }
                }
                if dispatched_now > 0 {
                    // One fetch group reached dispatch: IL1 energy event.
                    self.stats.fetch_groups += 1;
                    let pc = CODE_BASE + (self.fetch_pc % CODE_FOOTPRINT);
                    self.fetch_pc = self.fetch_pc.wrapping_add(64);
                    let _ = self.hierarchy.fetch(pc);
                    last_progress_cycle = cycle;
                }
            }

            if self.check.enabled() {
                self.verify_cycle(
                    cycle,
                    last_verified_cycle,
                    rob.len() as usize,
                    rob.pending_count as usize,
                    lsq_occ,
                    int_inflight,
                    fp_inflight,
                    committed,
                    dispatched,
                );
                last_verified_cycle = Some(cycle);
            }

            let mut iter_cycles: u64 = 1;
            cycle += 1;
            assert!(
                cycle - last_progress_cycle < 1_000_000,
                "pipeline deadlock at cycle {cycle} (committed {committed}/{total})"
            );

            // ---- Event-driven step: skip dead cycles in one jump ----
            // On a zero-progress cycle the pipeline is frozen: the only
            // state that advanced is the cycle counter and (at most) one
            // dispatch-stall counter, and both evolve identically on
            // every following cycle until the next event. Jump there.
            if committed_now == 0
                && issued_now == 0
                && dispatched_now == 0
                && (committed < total || !rob.is_empty())
            {
                let target = Self::next_wakeup(&rob, &self.pool, redirect, cycle - 1);
                if target > cycle {
                    // The plain loop would tick every dead cycle and trip
                    // its deadlock assert 1M cycles after the last
                    // progress; replicate that exactly.
                    let deadline = last_progress_cycle + 1_000_000;
                    assert!(
                        target < deadline,
                        "pipeline deadlock at cycle {deadline} (committed {committed}/{total})"
                    );
                    let skipped = target - cycle;
                    match stall {
                        Stall::Rob => self.stats.rob_full_stalls += skipped,
                        Stall::Iq => self.stats.iq_full_stalls += skipped,
                        Stall::Lsq => self.stats.lsq_full_stalls += skipped,
                        Stall::Reg => self.stats.reg_full_stalls += skipped,
                        Stall::None => {}
                    }
                    skipped_cycles += skipped;
                    wakeup_jumps += 1;
                    iter_cycles += skipped;
                    cycle = target;
                }
            }

            // ---- Top-down cycle attribution ----
            // Charge this iteration's cycle — plus any skipped dead
            // cycles, whose classification is frozen along with the rest
            // of the pipeline state — to exactly one class. Iterations
            // before the warmup snapshot are outside the measured window
            // and stay uncharged, so the classes sum to `stats.cycles`.
            if snapshot.is_some() {
                let class = if committed_now > 0 {
                    CycleClass::Retire
                } else if dispatched_now > 0 {
                    CycleClass::Frontend
                } else if !dispatch_open {
                    CycleClass::BranchRedirect
                } else if !rob.is_empty() && {
                    let hs = rob.slot(rob.head_seq);
                    rob.flags[hs] & F_ISSUED != 0 && rob.op[hs].is_mem()
                } {
                    // The oldest in-flight instruction is an outstanding
                    // load/store: everything behind it (including any
                    // dispatch stall) is waiting on memory.
                    CycleClass::MemLatency
                } else if stall != Stall::None {
                    CycleClass::RobFull
                } else if !rob.is_empty() {
                    CycleClass::IssueBound
                } else {
                    CycleClass::IdleSkipped
                };
                profile.classes.charge(class, iter_cycles);
                rob_levels[rob.len() as usize] += iter_cycles;
                iq_levels[rob.pending_count as usize] += iter_cycles;
                lsq_levels[lsq_occ as usize] += iter_cycles;
            }
        }

        profile.rob = Histogram::from_levels(&rob_levels);
        profile.iq = Histogram::from_levels(&iq_levels);
        profile.lsq = Histogram::from_levels(&lsq_levels);
        self.fold_issues(&mut issue_counts);
        let (snap_cycle, [snap_skipped, snap_jumps], snap_stats, snap_mem) =
            snapshot.expect("warmup <= total instructions, so the snapshot was taken");
        profile.skipped_cycles = skipped_cycles - snap_skipped;
        profile.wakeup_jumps = wakeup_jumps - snap_jumps;
        self.stats.cycles = cycle;
        self.stats.committed = committed;
        let mut stats = self.stats.minus(&snap_stats);
        stats.cycles = cycle - snap_cycle;
        stats.committed = committed - warmup.min(committed);
        profile.cycles = cycle - snap_cycle;
        debug_assert_eq!(
            profile.classes.total(),
            profile.cycles,
            "every measured cycle is charged to exactly one class"
        );
        RunResult {
            stats,
            mem: self.hierarchy.stats().minus(&snap_mem),
            clock_hz: self.cfg.clock_hz,
            profile,
        }
    }

    /// The earliest cycle after `cycle` at which any pipeline stage could
    /// make progress, given that the cycle just executed made none:
    ///
    /// * the ROB head's completion (commit),
    /// * the next occupied timing-wheel bucket (a lower bound on the
    ///   next operand-ready event — aliased entries wake early, and if
    ///   the entry's unit class is still busy when it arrives, the
    ///   resulting dead cycle re-enters this function and the
    ///   ready-mask branch below takes over),
    /// * per ready-but-FU-blocked instruction: its unit class's
    ///   next-free time (exact — FU free times are frozen during a dead
    ///   gap, and the entry just failed arbitration so the class is busy
    ///   strictly past `cycle`),
    /// * the front-end redirect resume time (dispatch).
    ///
    /// Dispatch stalls need no candidate of their own: a structural
    /// hazard only clears through a commit or an issue. Waking *early*
    /// is harmless (the wakeup cycle executes as a dead cycle and the
    /// skip re-arms); waking late is impossible because every candidate
    /// above is a lower bound on the corresponding event. Returns
    /// `u64::MAX` when nothing can ever progress (a genuine deadlock,
    /// reported by the caller exactly like the cycle-by-cycle loop did).
    fn next_wakeup(rob: &RobRing, pool: &FuPool, redirect: Redirect, cycle: u64) -> u64 {
        let mut wake = match redirect {
            Redirect::ResumeAt(at) => at,
            _ => u64::MAX,
        };
        if !rob.is_empty() {
            let hs = rob.slot(rob.head_seq);
            if rob.flags[hs] & F_ISSUED != 0 {
                wake = wake.min(rob.done[hs]);
            }
        }
        wake = wake.min(rob.next_event_after(cycle));
        for (w, &word) in rob.ready.iter().enumerate() {
            let mut bits = word;
            while bits != 0 {
                let slot = (w << 6) | bits.trailing_zeros() as usize;
                bits &= bits - 1;
                wake = wake.min(pool.next_free(rob.op[slot]));
            }
        }
        debug_assert!(wake > cycle, "wakeup must move forward");
        wake
    }

    /// The per-cycle invariant sweep (only called with checking
    /// enabled): structure occupancies within their configured
    /// capacities, the pipeline-order relation, and cycle
    /// monotonicity. Each invariant is reported at most once per core
    /// so a broken bound does not flood the report.
    #[allow(clippy::too_many_arguments)]
    fn verify_cycle(
        &mut self,
        cycle: u64,
        last_verified: Option<u64>,
        rob_len: usize,
        iq_len: usize,
        lsq_occ: u32,
        int_inflight: u32,
        fp_inflight: u32,
        committed: u64,
        dispatched: u64,
    ) {
        let caps = [
            (
                "cpu.rob_occupancy",
                "rob",
                rob_len as u32,
                self.cfg.rob_entries,
            ),
            ("cpu.iq_occupancy", "iq", iq_len as u32, self.cfg.iq_entries),
            ("cpu.lsq_occupancy", "lsq", lsq_occ, self.cfg.lsq_entries),
            (
                "cpu.int_rf_occupancy",
                "int_rf",
                int_inflight,
                self.cfg.int_regs,
            ),
            (
                "cpu.fp_rf_occupancy",
                "fp_rf",
                fp_inflight,
                self.cfg.fp_regs,
            ),
        ];
        for (invariant, what, occ, cap) in caps {
            if occ > cap {
                self.record_once(
                    invariant,
                    format!("{what} occupancy <= {cap}"),
                    format!("{what}={occ} cycle={cycle}"),
                );
            }
        }
        if committed > dispatched {
            self.record_once(
                "cpu.pipeline_order",
                "committed <= dispatched".to_string(),
                format!("committed={committed} dispatched={dispatched} cycle={cycle}"),
            );
        }
        if let Some(prev) = last_verified {
            if cycle <= prev {
                self.record_once(
                    "cpu.cycle_monotone",
                    "cycle strictly increases".to_string(),
                    format!("cycle={cycle} previous={prev}"),
                );
            }
        }
    }

    /// Records a violation at this core's path, once per invariant.
    fn record_once(&mut self, invariant: &'static str, expected: String, actual: String) {
        if self.violations.iter().any(|v| v.invariant == invariant) {
            return;
        }
        self.violations.push(Violation {
            invariant,
            path: format!("core{}", self.core_id),
            expected,
            actual,
        });
    }

    /// Adds the per-class issue counters gathered since the last fold to
    /// `self.stats` and clears them. Called at the warm-up snapshot and
    /// at the end of a run, so both see exact counters.
    fn fold_issues(&mut self, counts: &mut IssueCounts) {
        let s = &mut self.stats;
        for op in OpClass::ALL {
            let (ops, reads) = (counts.ops[op as usize], counts.rf_reads[op as usize]);
            s.issues += ops;
            if op.is_fp() {
                s.fp_rf_reads += reads;
            } else {
                s.int_rf_reads += reads;
            }
            match op {
                // Counted live by cluster, for steering.
                OpClass::IntAlu => {}
                OpClass::IntMul => s.int_mul_ops += ops,
                OpClass::IntDiv => s.int_div_ops += ops,
                OpClass::FpAdd => s.fp_add_ops += ops,
                OpClass::FpMul => s.fp_mul_ops += ops,
                OpClass::FpDiv => s.fp_div_ops += ops,
                OpClass::Load => s.loads += ops,
                OpClass::Store => s.stores += ops,
                OpClass::Branch => s.branches += ops,
            }
        }
        *counts = IssueCounts::default();
    }
}

/// Validates the accounting identities of one [`RunResult`] against
/// `cfg`, recording violations into `checker` (scoped under `core`).
///
/// The relations are chosen to hold for *any* measured window: warmed
/// runs ([`Core::run_warmed`]) subtract a snapshot taken at a commit
/// boundary, so issue-time counters (per-class ops) and commit-time
/// counters (`committed`, RF writes, store DL1 accesses) can diverge
/// by the in-flight window — the bounds carry exactly that slack
/// (`rob_entries`, `lsq_entries`), and collapse to equalities for
/// unwarmed runs. All relations are linear, so they also hold for
/// `merge`d stats (multicore chips, campaign aggregates) with the
/// slack scaled by the run count (see the `slack_runs` parameter).
pub fn validate_run(cfg: &CoreConfig, result: &RunResult, slack_runs: u64, checker: &mut Checker) {
    let s = &result.stats;
    let m = &result.mem;
    checker.scoped("core", |c| {
        let by_class = s.alu_ops()
            + s.int_mul_ops
            + s.int_div_ops
            + s.fpu_ops()
            + s.loads
            + s.stores
            + s.branches;
        c.eq_u64(
            "cpu.issue_class_conservation",
            ("by_class_ops", by_class),
            ("issues", s.issues),
        );
        c.le_u64(
            "cpu.issue_le_commit",
            ("issues", s.issues),
            ("committed", s.committed),
        );
        c.le_u64(
            "cpu.commit_issue_slack",
            ("committed", s.committed),
            (
                "issues + inflight_bound",
                s.issues + slack_runs * u64::from(cfg.rob_entries + cfg.issue_width),
            ),
        );
        c.le_u64(
            "cpu.mispredict_le_branches",
            ("mispredicts", s.mispredicts),
            ("branches", s.branches),
        );
        c.le_u64(
            "cpu.wrong_path_bound",
            ("wrong_path_fetch_groups", s.wrong_path_fetch_groups),
            ("32 * mispredicts", 32 * s.mispredicts),
        );
        c.le_u64(
            "cpu.rf_read_bound",
            ("rf_reads", s.int_rf_reads + s.fp_rf_reads),
            ("2 * issues", 2 * s.issues),
        );
        c.le_u64(
            "cpu.rf_write_le_commit",
            ("rf_writes", s.int_rf_writes + s.fp_rf_writes),
            ("committed", s.committed),
        );
        c.check(
            "cpu.cycles_positive",
            "cycles > 0 when work committed",
            s.committed == 0 || s.cycles > 0,
            format!("cycles={} committed={}", s.cycles, s.committed),
        );
        c.eq_u64(
            "cpu.il1_fetch_conservation",
            ("fetch_groups", s.fetch_groups),
            ("il1_accesses", m.il1.accesses),
        );
        let ls = s.loads + s.stores;
        let dl1 = m.dl1_accesses();
        c.le_u64(
            "cpu.dl1_demand_lower",
            ("loads + stores", ls),
            ("dl1_accesses", dl1),
        );
        c.le_u64(
            "cpu.dl1_demand_upper",
            ("dl1_accesses", dl1),
            (
                "loads + stores + lsq_bound",
                ls + slack_runs * u64::from(cfg.lsq_entries),
            ),
        );
        // Top-down attribution conservation: every measured cycle is
        // charged to exactly one class. Skipped for contexts that carry
        // no profile (results reconstructed from frozen dumps, merged
        // outcomes).
        if !result.profile.is_empty() {
            c.eq_u64(
                "cpu.profile_class_conservation",
                ("class_cycles", result.profile.classes.total()),
                ("profile_cycles", result.profile.cycles),
            );
            c.eq_u64(
                "cpu.profile_cycles_match",
                ("profile_cycles", result.profile.cycles),
                ("cycles", s.cycles),
            );
        }
    });
    hetsim_mem::stats::validate_mem_stats(m, checker);
}

#[cfg(test)]
#[allow(clippy::field_reassign_with_default)]
mod tests {
    use super::*;
    use crate::config::{Dl1Config, MemoryConfig};
    use crate::fu::FuPoolConfig;
    use hetsim_trace::apps;
    use hetsim_trace::isa::{BranchInfo, Inst};
    use hetsim_trace::stream::TraceGenerator;

    const N: u64 = 20_000;

    fn run_app(app: &str, cfg: CoreConfig, seed: u64) -> RunResult {
        let profile = apps::profile(app).expect("known app");
        let mut core = Core::new(cfg, 0);
        core.run(TraceGenerator::new(&profile, seed), N)
    }

    #[test]
    fn commits_exactly_n() {
        let r = run_app("lu", CoreConfig::default(), 1);
        assert_eq!(r.stats.committed, N);
        assert_eq!(r.stats.dispatched, N);
    }

    #[test]
    fn ipc_is_plausible_for_a_4_wide_core() {
        let r = run_app("lu", CoreConfig::default(), 1);
        let ipc = r.ipc();
        assert!(ipc > 0.8, "LU on BaseCMOS should exceed IPC 0.8, got {ipc}");
        assert!(ipc <= 4.0, "cannot exceed machine width, got {ipc}");
    }

    #[test]
    fn tfet_fus_and_caches_slow_the_core_down() {
        let base = run_app("lu", CoreConfig::default(), 1);
        let mut het = CoreConfig::default();
        het.fus = FuPoolConfig::tfet();
        het.memory = MemoryConfig::tfet();
        let slow = run_app("lu", het, 1);
        assert!(
            slow.stats.cycles > base.stats.cycles,
            "BaseHet-style core must be slower: {} vs {}",
            slow.stats.cycles,
            base.stats.cycles
        );
    }

    #[test]
    fn asymmetric_dl1_recovers_performance() {
        let mut het = CoreConfig::default();
        het.fus = FuPoolConfig::tfet();
        het.memory = MemoryConfig::tfet();
        let basehet = run_app("lu", het.clone(), 1);

        let mut adv = het;
        adv.memory.dl1 = Dl1Config::Asymmetric { slow_extra: 4 };
        let advhet = run_app("lu", adv, 1);
        assert!(
            advhet.stats.cycles < basehet.stats.cycles,
            "asymmetric DL1 should win on a DL1-resident app: {} vs {}",
            advhet.stats.cycles,
            basehet.stats.cycles
        );
    }

    #[test]
    fn dual_speed_steering_uses_both_clusters() {
        let mut cfg = CoreConfig::default();
        cfg.fus = FuPoolConfig::dual_speed();
        cfg.steering = SteeringPolicy::DualSpeed { window: 4 };
        let r = run_app("radix", cfg, 2);
        assert!(r.stats.alu_fast_ops > 0, "some ops steered fast");
        assert!(r.stats.alu_slow_ops > 0, "some ops steered slow");
        assert!(
            r.stats.alu_slow_ops > r.stats.alu_fast_ops,
            "majority should go to the TFET cluster: fast={} slow={}",
            r.stats.alu_fast_ops,
            r.stats.alu_slow_ops
        );
    }

    /// Runs the first `len` instructions of a radix stream for `N`
    /// commits on the dual-speed pool, with or without steering.
    fn run_prefix(len: u64, steering: SteeringPolicy) -> RunResult {
        let profile = apps::profile("radix").expect("known app");
        let trace: Vec<Inst> = TraceGenerator::new(&profile, 2)
            .take(len as usize)
            .collect();
        let mut cfg = CoreConfig::default();
        cfg.fus = FuPoolConfig::dual_speed();
        cfg.steering = steering;
        Core::new(cfg, 0).run(trace, N)
    }

    /// Dispatch needs exactly `n` instructions: with a steering window
    /// the peek stops at the end of the trace.
    #[test]
    fn a_trace_of_exactly_n_instructions_suffices() {
        for steering in [
            SteeringPolicy::None,
            SteeringPolicy::DualSpeed { window: 4 },
        ] {
            assert_eq!(run_prefix(N, steering).stats.committed, N, "{steering:?}");
        }
    }

    #[test]
    #[should_panic(expected = "trace ended after 19999 of 20000 instructions")]
    fn a_short_trace_panics_without_steering() {
        run_prefix(N - 1, SteeringPolicy::None);
    }

    #[test]
    #[should_panic(expected = "trace ended after 19999 of 20000 instructions")]
    fn a_short_trace_panics_with_steering() {
        run_prefix(N - 1, SteeringPolicy::DualSpeed { window: 4 });
    }

    #[test]
    fn mispredictions_occur_at_plausible_rates() {
        let r = run_app("raytrace", CoreConfig::default(), 3);
        let rate = r.stats.mispredict_rate();
        assert!(rate > 0.005, "raytrace must mispredict sometimes: {rate}");
        assert!(rate < 0.25, "and not pathologically: {rate}");
    }

    #[test]
    fn predictable_apps_mispredict_less_than_branchy_ones() {
        let bs = run_app("blackscholes", CoreConfig::default(), 4);
        let rt = run_app("raytrace", CoreConfig::default(), 4);
        assert!(
            bs.stats.mispredict_rate() < rt.stats.mispredict_rate(),
            "blackscholes {} vs raytrace {}",
            bs.stats.mispredict_rate(),
            rt.stats.mispredict_rate()
        );
    }

    #[test]
    fn event_counts_are_consistent() {
        let r = run_app("fft", CoreConfig::default(), 5);
        let s = &r.stats;
        let by_class = s.alu_ops()
            + s.int_mul_ops
            + s.int_div_ops
            + s.fpu_ops()
            + s.loads
            + s.stores
            + s.branches;
        assert_eq!(by_class, s.committed);
        assert_eq!(s.issues, s.committed);
        assert_eq!(s.loads + s.stores, r.mem.dl1_accesses());
    }

    #[test]
    fn small_working_set_hits_dl1() {
        let r = run_app("blackscholes", CoreConfig::default(), 6);
        assert!(
            r.mem.dl1_hit_rate() > 0.8,
            "hit rate {}",
            r.mem.dl1_hit_rate()
        );
        let c = run_app("canneal", CoreConfig::default(), 6);
        assert!(
            r.mem.dl1_hit_rate() > c.mem.dl1_hit_rate() + 0.3,
            "blackscholes must be far more cache-friendly than canneal"
        );
    }

    #[test]
    fn canneal_misses_everywhere() {
        let r = run_app("canneal", CoreConfig::default(), 7);
        assert!(r.mem.dram_accesses > 100, "canneal should reach DRAM");
        let lu = run_app("lu", CoreConfig::default(), 7);
        assert!(r.ipc() < lu.ipc(), "memory-bound canneal slower than LU");
    }

    #[test]
    fn larger_rob_never_hurts() {
        let mut big = CoreConfig::default();
        big.rob_entries = 192;
        big.fp_regs = 128;
        let base = run_app("fft", CoreConfig::default(), 8);
        let enh = run_app("fft", big, 8);
        assert!(enh.stats.cycles <= base.stats.cycles + base.stats.cycles / 50);
    }

    #[test]
    fn wrong_path_fetch_tracks_mispredictions() {
        let r = run_app("raytrace", CoreConfig::default(), 3);
        assert!(r.stats.mispredicts > 0);
        assert!(
            r.stats.wrong_path_fetch_groups > 0,
            "mispredicts must burn wrong-path fetches"
        );
        // Bounded: at most the clamp (32) per misprediction.
        assert!(r.stats.wrong_path_fetch_groups <= 32 * r.stats.mispredicts);

        let bs = run_app("blackscholes", CoreConfig::default(), 3);
        let per_miss = |s: &crate::stats::CoreStats| {
            s.wrong_path_fetch_groups as f64 / s.mispredicts.max(1) as f64
        };
        assert!(per_miss(&bs.stats) < 33.0);
    }

    #[test]
    fn mispredict_penalty_scales_with_frontend_depth() {
        // A deeper front end pays a larger redirect penalty on a branchy
        // app; cycle counts must increase monotonically.
        let cycles = |depth: u32| {
            let mut cfg = CoreConfig::default();
            cfg.frontend_delay = depth;
            run_app("raytrace", cfg, 5).stats.cycles
        };
        let shallow = cycles(4);
        let nominal = cycles(10);
        let deep = cycles(20);
        assert!(shallow < nominal, "{shallow} < {nominal}");
        assert!(nominal < deep, "{nominal} < {deep}");
    }

    /// Regression for the redirect machinery: a return with an empty RAS
    /// mispredicts deterministically, dispatch stays closed until the
    /// branch resolves plus the refill delay, and the end-to-end cycle
    /// count therefore shifts by *exactly* the front-end depth delta.
    #[test]
    fn redirect_resumes_exactly_after_frontend_refill() {
        let alu = Inst::simple(OpClass::IntAlu);
        let ret = Inst {
            op: OpClass::Branch,
            src1_dist: None,
            src2_dist: None,
            addr: None,
            branch: Some(BranchInfo {
                pc: 0x4000_0100,
                taken: true,
                is_call: false,
                is_return: true,
            }),
        };
        let run = |depth: u32| {
            let mut cfg = CoreConfig::default();
            cfg.frontend_delay = depth;
            let trace: Vec<Inst> = std::iter::repeat_n(alu, 40)
                .chain(std::iter::once(ret))
                .chain(std::iter::repeat_n(alu, 40))
                .collect();
            let mut core = Core::new(cfg, 0);
            core.run(trace, 81)
        };
        let shallow = run(10);
        let deep = run(25);
        assert_eq!(shallow.stats.mispredicts, 1, "empty-RAS return mispredicts");
        assert_eq!(deep.stats.mispredicts, 1);
        assert_eq!(
            deep.stats.cycles - shallow.stats.cycles,
            25 - 10,
            "the only difference between the runs is the refill delay"
        );
        // The redirect shadow is timed from branch resolution, not from
        // the refill: wrong-path fetch accounting is depth-independent.
        assert_eq!(
            shallow.stats.wrong_path_fetch_groups,
            deep.stats.wrong_path_fetch_groups
        );
    }

    #[test]
    fn half_clock_doubles_runtime_in_seconds() {
        let base = run_app("lu", CoreConfig::default(), 9);
        let mut slow = CoreConfig::default();
        slow.clock_hz = 1.0e9;
        let tfet = run_app("lu", slow, 9);
        // Core-bound work doubles in seconds; memory-bound portions cost
        // fewer *cycles* at the lower clock (DRAM nanoseconds are fixed),
        // so the overall ratio lands between 1.3x and 2x.
        let ratio = tfet.seconds() / base.seconds();
        assert!((1.3..2.2).contains(&ratio), "seconds ratio {ratio}");
    }

    #[test]
    fn occupancy_histograms_hold_one_sample_per_measured_cycle() {
        let cfg = CoreConfig::default();
        let profile = apps::profile("canneal").expect("known app");
        let mut core = Core::new(cfg.clone(), 0);
        let trace = TraceGenerator::new(&profile, 4);
        let r = core.run_warmed(trace, 2_000, 6_000);
        let p = &r.profile;
        assert_eq!(p.cycles, r.stats.cycles);
        for (name, h, capacity) in [
            ("rob", &p.rob, cfg.rob_entries),
            ("iq", &p.iq, cfg.iq_entries),
            ("lsq", &p.lsq, cfg.lsq_entries),
        ] {
            assert_eq!(h.count(), p.cycles, "{name} samples every cycle");
            assert!(h.max() <= u64::from(capacity), "{name} within capacity");
        }
        let loads = p.mem_hit_latency.count() + p.mem_miss_latency.count();
        assert!(
            loads > 0 && p.mem_miss_latency.count() > 0,
            "canneal misses"
        );
    }

    #[test]
    fn skip_counts_cover_only_the_measured_window() {
        // A long memory-bound warm-up skips far more dead cycles than a
        // short measured window holds; none of them may be reported.
        let profile = apps::profile("canneal").expect("known app");
        let mut core = Core::new(CoreConfig::default(), 0);
        let r = core.run_warmed(TraceGenerator::new(&profile, 4), 20_000, 200);
        let p = &r.profile;
        assert!(p.skipped_cycles > 0, "the measured window skips");
        assert!(
            p.skipped_cycles <= p.cycles && p.wakeup_jumps <= p.cycles,
            "skipped {} and jumps {} within {} measured cycles",
            p.skipped_cycles,
            p.wakeup_jumps,
            p.cycles
        );
    }

    #[test]
    fn a_run_returns_the_same_skip_counts_every_time() {
        let skips = || {
            let p = run_app("canneal", CoreConfig::default(), 6).profile;
            (p.skipped_cycles, p.wakeup_jumps)
        };
        let first = skips();
        assert!(first.0 > 0 && first.1 > 0, "a memory-bound run skips");
        assert_eq!(skips(), first);
    }
}
