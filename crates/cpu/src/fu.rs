//! Functional-unit pool with device-dependent timing.
//!
//! Table III gives per-class latencies for the CMOS and TFET
//! implementations:
//!
//! | unit          | CMOS          | TFET           |
//! |---------------|---------------|----------------|
//! | 4x ALU        | 1 cycle       | 2 cycles       |
//! | 2x Int Mul/Div| 2 / 4 cycles  | 4 / 8 cycles   |
//! | 2x LSU        | 1 cycle       | 1 cycle        |
//! | 2x FPU A/M/D  | 2 / 4 / 8     | 4 / 8 / 16     |
//!
//! Adds and multiplies are fully pipelined (issue every cycle); divides
//! issue every `latency` cycles (int) or every 8/16 cycles (FP). The
//! dual-speed ALU cluster of AdvHet is expressed by giving individual ALUs
//! individual timings (one 1-cycle CMOS ALU plus three 2-cycle TFET ALUs).

use hetsim_trace::OpClass;

/// Timing of one operation class on one unit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FuTiming {
    /// Result latency in cycles.
    pub latency: u32,
    /// Minimum cycles between issues to the same unit (1 = pipelined).
    pub issue_interval: u32,
}

impl FuTiming {
    /// Fully pipelined unit with the given latency.
    pub const fn pipelined(latency: u32) -> Self {
        FuTiming {
            latency,
            issue_interval: 1,
        }
    }

    /// Unpipelined unit: next issue waits out the full latency.
    pub const fn unpipelined(latency: u32) -> Self {
        FuTiming {
            latency,
            issue_interval: latency,
        }
    }
}

/// Most units one pool may have: far above any Table IV pool, and a bound
/// on the arbitration tables and their `u32` unit indices.
const MAX_UNITS_PER_POOL: usize = 64;

/// Configuration of the whole pool.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FuPoolConfig {
    /// Per-ALU timing (one entry per ALU instance; heterogeneity expresses
    /// the dual-speed cluster).
    pub alus: Vec<FuTiming>,
    /// Integer multiply timing (2 shared mul/div units).
    pub int_mul: FuTiming,
    /// Integer divide timing.
    pub int_div: FuTiming,
    /// Number of integer mul/div units.
    pub int_muldiv_units: u32,
    /// FP add timing (2 shared FPU units).
    pub fp_add: FuTiming,
    /// FP multiply timing.
    pub fp_mul: FuTiming,
    /// FP divide timing.
    pub fp_div: FuTiming,
    /// Number of FPU units.
    pub fpu_units: u32,
    /// Number of load/store units (1-cycle address generation).
    pub lsu_units: u32,
}

impl FuPoolConfig {
    /// The all-CMOS pool of BaseCMOS (Table III, CMOS column).
    pub fn cmos() -> Self {
        FuPoolConfig {
            alus: vec![FuTiming::pipelined(1); 4],
            int_mul: FuTiming::pipelined(2),
            int_div: FuTiming::unpipelined(4),
            int_muldiv_units: 2,
            fp_add: FuTiming::pipelined(2),
            fp_mul: FuTiming::pipelined(4),
            fp_div: FuTiming {
                latency: 8,
                issue_interval: 8,
            },
            fpu_units: 2,
            lsu_units: 2,
        }
    }

    /// The all-TFET pool of BaseHet (Table III, TFET column).
    pub fn tfet() -> Self {
        FuPoolConfig {
            alus: vec![FuTiming::pipelined(2); 4],
            int_mul: FuTiming::pipelined(4),
            int_div: FuTiming::unpipelined(8),
            int_muldiv_units: 2,
            fp_add: FuTiming::pipelined(4),
            fp_mul: FuTiming::pipelined(8),
            fp_div: FuTiming {
                latency: 16,
                issue_interval: 16,
            },
            fpu_units: 2,
            lsu_units: 2,
        }
    }

    /// The dual-speed ALU cluster of AdvHet: 1 CMOS ALU + 3 TFET ALUs, with
    /// TFET everything-else (Table IV, AdvHet row).
    pub fn dual_speed() -> Self {
        let mut cfg = FuPoolConfig::tfet();
        cfg.alus = vec![
            FuTiming::pipelined(1), // the CMOS ALU
            FuTiming::pipelined(2),
            FuTiming::pipelined(2),
            FuTiming::pipelined(2),
        ];
        cfg
    }

    /// BaseHet-FastALU: TFET FPUs but all-CMOS ALUs (Table IV).
    pub fn tfet_fast_alu() -> Self {
        let mut cfg = FuPoolConfig::tfet();
        cfg.alus = vec![FuTiming::pipelined(1); 4];
        cfg
    }

    /// BaseHighVt: FPUs and ALUs built from high-V_t CMOS only; Table IV
    /// gives Int Add/Mul/Div = 2/3/6 and FP Add/Mul/Div = 3/6/12.
    pub fn high_vt() -> Self {
        FuPoolConfig {
            alus: vec![FuTiming::pipelined(2); 4],
            int_mul: FuTiming::pipelined(3),
            int_div: FuTiming::unpipelined(6),
            int_muldiv_units: 2,
            fp_add: FuTiming::pipelined(3),
            fp_mul: FuTiming::pipelined(6),
            fp_div: FuTiming {
                latency: 12,
                issue_interval: 12,
            },
            fpu_units: 2,
            lsu_units: 2,
        }
    }

    /// Checks what [`FuPool::new`] and the core step rely on: every pool
    /// has between 1 and 64 units, and every timing has a latency and an
    /// issue interval of at least one cycle. (With a zero latency an op's
    /// consumers would wake in the cycle it issues, whose wakeups were
    /// already drained, and wait a full timing-wheel lap; with a zero
    /// interval one unit would issue any number of ops per cycle.)
    ///
    /// # Errors
    ///
    /// Returns a description naming the first invalid field.
    pub fn validate(&self) -> Result<(), String> {
        let pools = [
            ("fus.alus", self.alus.len()),
            ("fus.int_muldiv_units", self.int_muldiv_units as usize),
            ("fus.fpu_units", self.fpu_units as usize),
            ("fus.lsu_units", self.lsu_units as usize),
        ];
        for (field, units) in pools {
            if !(1..=MAX_UNITS_PER_POOL).contains(&units) {
                return Err(format!(
                    "{field} must give 1 to {MAX_UNITS_PER_POOL} units, got {units}"
                ));
            }
        }
        // The first zero field of a timing, if any.
        let zero = |t: FuTiming| {
            (t.latency == 0)
                .then_some("latency")
                .or((t.issue_interval == 0).then_some("issue_interval"))
        };
        for (i, &t) in self.alus.iter().enumerate() {
            if let Some(field) = zero(t) {
                return Err(format!("fus.alus[{i}].{field} must be at least 1 cycle"));
            }
        }
        let shared = [
            ("fus.int_mul", self.int_mul),
            ("fus.int_div", self.int_div),
            ("fus.fp_add", self.fp_add),
            ("fus.fp_mul", self.fp_mul),
            ("fus.fp_div", self.fp_div),
        ];
        for (unit, t) in shared {
            if let Some(field) = zero(t) {
                return Err(format!("{unit}.{field} must be at least 1 cycle"));
            }
        }
        Ok(())
    }

    /// Whether any ALU is strictly faster than another (dual-speed).
    pub fn has_dual_speed_alus(&self) -> bool {
        let min = self.alus.iter().map(|t| t.latency).min();
        let max = self.alus.iter().map(|t| t.latency).max();
        min != max
    }

    /// Latency of the fastest ALU.
    pub fn fast_alu_latency(&self) -> u32 {
        self.alus
            .iter()
            .map(|t| t.latency)
            .min()
            .expect("at least one ALU")
    }
}

/// A successfully issued operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Issued {
    /// Result latency of the chosen unit.
    pub latency: u32,
    /// Whether the op landed on a fastest-latency ALU (for steering stats;
    /// `false` for non-ALU classes).
    pub on_fast_alu: bool,
}

/// One unit an op may issue to, with the op's timing on that unit.
#[derive(Debug, Clone, Copy)]
struct Candidate {
    /// Index into `FuPool::free`.
    unit: u32,
    latency: u32,
    issue_interval: u32,
    on_fast_alu: bool,
}

/// Runtime state of the pool: one next-free cycle per unit, all pools in
/// one array (ALUs in configuration order, then the int mul/div, FPU and
/// LSU units), plus the arbitration tables built once from the
/// configuration.
///
/// Each (op class, steering preference) owns a list of candidate units in
/// arbitration order, each entry carrying the op's latency, issue
/// interval and fast-ALU flag on that unit, so [`FuPool::try_issue`] is
/// one walk over one list whatever the class. For ALU-pool ops the lists
/// hold the fast (lowest-latency) cluster first when steering prefers it
/// and last otherwise, each cluster in configuration order; every other
/// class has the same list for both preferences.
#[derive(Debug, Clone)]
pub struct FuPool {
    cfg: FuPoolConfig,
    free: Vec<u64>,
    /// Every candidate list, concatenated.
    candidates: Vec<Candidate>,
    /// `[op][prefer_fast]`: the op's candidate list, as a
    /// `start..end` range into `candidates`.
    lists: [[(u32, u32); 2]; OpClass::ALL.len()],
    /// `[op]`: the units of the op's pool, as a range into `free`.
    pool_units: [(u32, u32); OpClass::ALL.len()],
}

/// The ALU pool's id in [`FuPool::pool_of`]: the one pool with steering.
const ALU_POOL: u32 = 0;

impl FuPool {
    /// Creates an idle pool.
    ///
    /// # Panics
    ///
    /// Panics if `cfg` fails [`FuPoolConfig::validate`].
    pub fn new(cfg: FuPoolConfig) -> Self {
        if let Err(e) = cfg.validate() {
            panic!("invalid functional-unit pool: {e}");
        }
        let fast_latency = cfg.fast_alu_latency();
        let units = [
            cfg.alus.len(),
            cfg.int_muldiv_units as usize,
            cfg.fpu_units as usize,
            cfg.lsu_units as usize,
        ];
        let mut pool_start = [0usize; 4];
        for p in 1..units.len() {
            pool_start[p] = pool_start[p - 1] + units[p - 1];
        }
        // The timing of `op` on unit `i` of its pool.
        let timing = |op: OpClass, i: usize| match op {
            OpClass::IntAlu | OpClass::Branch => cfg.alus[i],
            OpClass::IntMul => cfg.int_mul,
            OpClass::IntDiv => cfg.int_div,
            OpClass::FpAdd => cfg.fp_add,
            OpClass::FpMul => cfg.fp_mul,
            OpClass::FpDiv => cfg.fp_div,
            OpClass::Load | OpClass::Store => FuTiming::pipelined(1),
        };
        let mut candidates = Vec::new();
        let mut lists = [[(0, 0); 2]; OpClass::ALL.len()];
        let mut pool_units = [(0, 0); OpClass::ALL.len()];
        for op in OpClass::ALL {
            let pool = Self::pool_of(op);
            let (start, n) = (pool_start[pool as usize], units[pool as usize]);
            pool_units[op as usize] = (start as u32, (start + n) as u32);
            let candidate = |i: usize| {
                let t = timing(op, i);
                Candidate {
                    unit: (start + i) as u32,
                    latency: t.latency,
                    issue_interval: t.issue_interval,
                    on_fast_alu: pool == ALU_POOL && t.latency == fast_latency,
                }
            };
            for prefer_fast in [false, true] {
                // The preferred cluster, then the other, each in
                // configuration order.
                let begin = candidates.len() as u32;
                for preferred in [true, false] {
                    candidates.extend(
                        (0..n)
                            .map(candidate)
                            .filter(|c| (c.on_fast_alu == prefer_fast) == preferred),
                    );
                }
                lists[op as usize][usize::from(prefer_fast)] = (begin, candidates.len() as u32);
            }
        }
        FuPool {
            free: vec![0; units.iter().sum()],
            candidates,
            lists,
            pool_units,
            cfg,
        }
    }

    /// The pool configuration.
    pub fn config(&self) -> &FuPoolConfig {
        &self.cfg
    }

    /// Attempts to issue `op` at `cycle`. For ALU ops, `prefer_fast`
    /// selects the steering cluster: the fast (lowest-latency) ALUs are
    /// tried first when `true`, the slow ones first when `false`; either
    /// way a free unit from the other cluster is used as fallback (the
    /// mis-steer penalty is only the latency difference, Section IV-C2).
    #[inline]
    pub fn try_issue(&mut self, op: OpClass, cycle: u64, prefer_fast: bool) -> Option<Issued> {
        let (start, end) = self.lists[op as usize][usize::from(prefer_fast)];
        for c in &self.candidates[start as usize..end as usize] {
            let free = &mut self.free[c.unit as usize];
            if *free <= cycle {
                *free = cycle + u64::from(c.issue_interval);
                return Some(Issued {
                    latency: c.latency,
                    on_fast_alu: c.on_fast_alu,
                });
            }
        }
        None
    }

    /// The arbitration pool `op` competes in (0 = ALU, 1 = int mul/div,
    /// 2 = FPU, 3 = LSU). Two ops with the same pool id contend for the
    /// same units: if one fails to issue at a cycle, the other cannot
    /// succeed at that cycle either (pool state advances only on issue).
    #[inline]
    pub fn pool_of(op: OpClass) -> u32 {
        match op {
            OpClass::IntAlu | OpClass::Branch => ALU_POOL,
            OpClass::IntMul | OpClass::IntDiv => 1,
            OpClass::FpAdd | OpClass::FpMul | OpClass::FpDiv => 2,
            OpClass::Load | OpClass::Store => 3,
        }
    }

    /// The earliest cycle at which *some* unit capable of executing `op`
    /// is free. A [`FuPool::try_issue`] for `op` at that cycle is
    /// guaranteed a unit; any earlier attempt returns `None`. Used by
    /// the event-driven core step to compute wakeup times.
    #[inline]
    pub fn next_free(&self, op: OpClass) -> u64 {
        let (start, end) = self.pool_units[op as usize];
        self.free[start as usize..end as usize]
            .iter()
            .copied()
            .min()
            .expect("pools are never empty")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cmos_alu_is_single_cycle() {
        let mut p = FuPool::new(FuPoolConfig::cmos());
        let i = p.try_issue(OpClass::IntAlu, 0, false).expect("free ALU");
        assert_eq!(i.latency, 1);
    }

    #[test]
    fn four_alus_per_cycle_then_structural_stall() {
        let mut p = FuPool::new(FuPoolConfig::cmos());
        for _ in 0..4 {
            assert!(p.try_issue(OpClass::IntAlu, 5, false).is_some());
        }
        assert!(
            p.try_issue(OpClass::IntAlu, 5, false).is_none(),
            "only 4 ALUs"
        );
        assert!(
            p.try_issue(OpClass::IntAlu, 6, false).is_some(),
            "pipelined: free next cycle"
        );
    }

    #[test]
    fn int_div_is_unpipelined() {
        let mut p = FuPool::new(FuPoolConfig::cmos());
        assert!(p.try_issue(OpClass::IntDiv, 0, false).is_some());
        assert!(
            p.try_issue(OpClass::IntDiv, 0, false).is_some(),
            "two units"
        );
        assert!(
            p.try_issue(OpClass::IntDiv, 1, false).is_none(),
            "both busy for 4 cycles"
        );
        assert!(p.try_issue(OpClass::IntDiv, 4, false).is_some());
    }

    #[test]
    fn fp_div_issue_interval_matches_table_iii() {
        let mut cmos = FuPool::new(FuPoolConfig::cmos());
        cmos.try_issue(OpClass::FpDiv, 0, false).expect("free");
        cmos.try_issue(OpClass::FpDiv, 0, false)
            .expect("second unit");
        assert!(cmos.try_issue(OpClass::FpDiv, 7, false).is_none());
        assert!(cmos.try_issue(OpClass::FpDiv, 8, false).is_some());

        let mut tfet = FuPool::new(FuPoolConfig::tfet());
        tfet.try_issue(OpClass::FpDiv, 0, false).expect("free");
        tfet.try_issue(OpClass::FpDiv, 0, false)
            .expect("second unit");
        assert!(tfet.try_issue(OpClass::FpDiv, 15, false).is_none());
        assert!(tfet.try_issue(OpClass::FpDiv, 16, false).is_some());
    }

    #[test]
    fn tfet_latencies_double_cmos() {
        let c = FuPoolConfig::cmos();
        let t = FuPoolConfig::tfet();
        assert_eq!(t.alus[0].latency, 2 * c.alus[0].latency);
        assert_eq!(t.int_mul.latency, 2 * c.int_mul.latency);
        assert_eq!(t.int_div.latency, 2 * c.int_div.latency);
        assert_eq!(t.fp_add.latency, 2 * c.fp_add.latency);
        assert_eq!(t.fp_mul.latency, 2 * c.fp_mul.latency);
        assert_eq!(t.fp_div.latency, 2 * c.fp_div.latency);
    }

    #[test]
    fn dual_speed_steering_prefers_requested_cluster() {
        let mut p = FuPool::new(FuPoolConfig::dual_speed());
        let fast = p.try_issue(OpClass::IntAlu, 0, true).expect("free");
        assert!(fast.on_fast_alu);
        assert_eq!(fast.latency, 1);
        let slow = p.try_issue(OpClass::IntAlu, 0, false).expect("free");
        assert!(!slow.on_fast_alu);
        assert_eq!(slow.latency, 2);
    }

    #[test]
    fn steering_falls_back_when_cluster_busy() {
        let mut p = FuPool::new(FuPoolConfig::dual_speed());
        // Occupy the single fast ALU.
        assert!(
            p.try_issue(OpClass::IntAlu, 0, true)
                .expect("free")
                .on_fast_alu
        );
        // A second fast-preferring op lands on a slow ALU (mis-steer).
        let second = p.try_issue(OpClass::IntAlu, 0, true).expect("fallback");
        assert!(!second.on_fast_alu);
        assert_eq!(second.latency, 2);
    }

    #[test]
    fn high_vt_latencies_match_table_iv() {
        let h = FuPoolConfig::high_vt();
        assert_eq!(h.alus[0].latency, 2);
        assert_eq!(h.int_mul.latency, 3);
        assert_eq!(h.int_div.latency, 6);
        assert_eq!(h.fp_add.latency, 3);
        assert_eq!(h.fp_mul.latency, 6);
        assert_eq!(h.fp_div.latency, 12);
    }

    #[test]
    fn dual_speed_detection() {
        assert!(FuPoolConfig::dual_speed().has_dual_speed_alus());
        assert!(!FuPoolConfig::cmos().has_dual_speed_alus());
        assert!(!FuPoolConfig::tfet().has_dual_speed_alus());
    }

    #[test]
    fn next_free_predicts_issue_success() {
        let mut p = FuPool::new(FuPoolConfig::cmos());
        // Saturate both int div units (unpipelined, 4-cycle interval).
        assert!(p.try_issue(OpClass::IntDiv, 0, false).is_some());
        assert!(p.try_issue(OpClass::IntDiv, 0, false).is_some());
        let at = p.next_free(OpClass::IntDiv);
        assert_eq!(at, 4);
        assert!(p.try_issue(OpClass::IntDiv, at - 1, false).is_none());
        assert!(p.try_issue(OpClass::IntDiv, at, false).is_some());
        // An idle class is free immediately.
        assert_eq!(p.next_free(OpClass::FpAdd), 0);
    }

    #[test]
    fn lsu_capacity() {
        let mut p = FuPool::new(FuPoolConfig::cmos());
        assert!(p.try_issue(OpClass::Load, 0, false).is_some());
        assert!(p.try_issue(OpClass::Store, 0, false).is_some());
        assert!(p.try_issue(OpClass::Load, 0, false).is_none(), "2 LSUs");
    }
}
