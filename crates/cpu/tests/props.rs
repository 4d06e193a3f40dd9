//! Property tests for the CPU pipeline components and the whole core.

#![allow(clippy::field_reassign_with_default)]

use proptest::prelude::*;

use hetsim_cpu::config::CoreConfig;
use hetsim_cpu::core::Core;
use hetsim_cpu::fu::{FuPool, FuPoolConfig, FuTiming, Issued};
use hetsim_cpu::stats::CoreStats;
use hetsim_trace::predictor::{PredictorConfig, TournamentPredictor};
use hetsim_trace::stream::TraceGenerator;
use hetsim_trace::{apps, OpClass};

/// One value per [`CoreStats`] counter, bounded well below overflow so
/// merged sums stay exact.
fn counter_values() -> impl Strategy<Value = Vec<u64>> {
    let fields = CoreStats::default().iter().count();
    proptest::collection::vec(0u64..(1 << 32), fields)
}

/// Builds a [`CoreStats`] by assigning each generated value through the
/// name-addressed `set`, exercising the same path consumers use.
fn stats_from(values: &[u64]) -> CoreStats {
    let mut s = CoreStats::default();
    for ((name, _), v) in CoreStats::default().iter().zip(values) {
        assert!(s.set(&name, *v), "unknown counter {name}");
    }
    s
}

/// The functional-unit pool as it was before arbitration became
/// table-driven: one `match` over the op class and one free-time vector
/// per pool, with the ALUs permuted fast cluster first. Kept here as the
/// reference model [`FuPool`] must agree with call for call.
struct ReferencePool {
    cfg: FuPoolConfig,
    alu_free: Vec<u64>,
    muldiv_free: Vec<u64>,
    fpu_free: Vec<u64>,
    lsu_free: Vec<u64>,
    /// Per-ALU timings in the permuted (fast-cluster-first) order.
    alu_timing: Vec<FuTiming>,
    /// Number of fastest-latency ALUs (they sit first in `alu_free`).
    n_fast_alus: usize,
    fast_latency: u32,
}

impl ReferencePool {
    fn new(cfg: FuPoolConfig) -> Self {
        let fast_latency = cfg.fast_alu_latency();
        let mut alu_timing: Vec<FuTiming> = cfg
            .alus
            .iter()
            .copied()
            .filter(|t| t.latency == fast_latency)
            .collect();
        let n_fast_alus = alu_timing.len();
        alu_timing.extend(
            cfg.alus
                .iter()
                .copied()
                .filter(|t| t.latency != fast_latency),
        );
        ReferencePool {
            alu_free: vec![0; cfg.alus.len()],
            muldiv_free: vec![0; cfg.int_muldiv_units as usize],
            fpu_free: vec![0; cfg.fpu_units as usize],
            lsu_free: vec![0; cfg.lsu_units as usize],
            alu_timing,
            n_fast_alus,
            fast_latency,
            cfg,
        }
    }

    fn try_issue(&mut self, op: OpClass, cycle: u64, prefer_fast: bool) -> Option<Issued> {
        let not_alu = |latency| Issued {
            latency,
            on_fast_alu: false,
        };
        match op {
            OpClass::IntAlu | OpClass::Branch => self.issue_alu(cycle, prefer_fast),
            OpClass::IntMul => {
                Self::issue_on(&mut self.muldiv_free, self.cfg.int_mul, cycle).map(not_alu)
            }
            OpClass::IntDiv => {
                Self::issue_on(&mut self.muldiv_free, self.cfg.int_div, cycle).map(not_alu)
            }
            OpClass::FpAdd => {
                Self::issue_on(&mut self.fpu_free, self.cfg.fp_add, cycle).map(not_alu)
            }
            OpClass::FpMul => {
                Self::issue_on(&mut self.fpu_free, self.cfg.fp_mul, cycle).map(not_alu)
            }
            OpClass::FpDiv => {
                Self::issue_on(&mut self.fpu_free, self.cfg.fp_div, cycle).map(not_alu)
            }
            OpClass::Load | OpClass::Store => {
                Self::issue_on(&mut self.lsu_free, FuTiming::pipelined(1), cycle).map(not_alu)
            }
        }
    }

    fn issue_alu(&mut self, cycle: u64, prefer_fast: bool) -> Option<Issued> {
        let n = self.alu_free.len();
        let (first, second) = if prefer_fast {
            (0..n, n..n)
        } else {
            (self.n_fast_alus..n, 0..self.n_fast_alus)
        };
        for i in first.chain(second) {
            if self.alu_free[i] <= cycle {
                let timing = self.alu_timing[i];
                self.alu_free[i] = cycle + u64::from(timing.issue_interval);
                return Some(Issued {
                    latency: timing.latency,
                    on_fast_alu: timing.latency == self.fast_latency,
                });
            }
        }
        None
    }

    fn issue_on(free: &mut [u64], timing: FuTiming, cycle: u64) -> Option<u32> {
        let slot = free.iter_mut().find(|f| **f <= cycle)?;
        *slot = cycle + u64::from(timing.issue_interval);
        Some(timing.latency)
    }

    fn next_free(&self, op: OpClass) -> u64 {
        let free = match op {
            OpClass::IntAlu | OpClass::Branch => &self.alu_free,
            OpClass::IntMul | OpClass::IntDiv => &self.muldiv_free,
            OpClass::FpAdd | OpClass::FpMul | OpClass::FpDiv => &self.fpu_free,
            OpClass::Load | OpClass::Store => &self.lsu_free,
        };
        free.iter().copied().min().expect("pools are never empty")
    }
}

/// A unit timing with latency and issue interval both at least 1.
fn timings() -> impl Strategy<Value = FuTiming> {
    (1u32..17, 1u32..17).prop_map(|(latency, issue_interval)| FuTiming {
        latency,
        issue_interval,
    })
}

/// A random valid pool: 1–8 ALUs whose latencies (1–3 cycles) mix fast
/// and slow clusters, and 1–4 units in each other pool.
fn pool_configs() -> impl Strategy<Value = FuPoolConfig> {
    (
        proptest::collection::vec((1u32..4, 1u32..4), 1..9),
        (timings(), timings()),
        (timings(), timings(), timings()),
        (1u32..5, 1u32..5, 1u32..5),
    )
        .prop_map(
            |(alus, (int_mul, int_div), (fp_add, fp_mul, fp_div), (muldiv, fpu, lsu))| {
                FuPoolConfig {
                    alus: alus
                        .into_iter()
                        .map(|(latency, issue_interval)| FuTiming {
                            latency,
                            issue_interval,
                        })
                        .collect(),
                    int_mul,
                    int_div,
                    int_muldiv_units: muldiv,
                    fp_add,
                    fp_mul,
                    fp_div,
                    fpu_units: fpu,
                    lsu_units: lsu,
                }
            },
        )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The table-driven pool makes the same arbitration decisions as the
    /// match-based reference model: for random pools and random request
    /// sequences (any op, non-decreasing cycles, either steering
    /// preference), every `try_issue` returns the same unit latency and
    /// cluster, and afterwards every class sees the same `next_free`.
    #[test]
    fn fu_pool_matches_the_reference_model(
        cfg in pool_configs(),
        requests in proptest::collection::vec((0usize..9, 0u64..3, any::<bool>()), 1..300),
    ) {
        let mut pool = FuPool::new(cfg.clone());
        let mut reference = ReferencePool::new(cfg);
        let mut cycle = 0u64;
        for (i, (op, step, prefer_fast)) in requests.into_iter().enumerate() {
            cycle += step;
            let op = OpClass::ALL[op];
            prop_assert_eq!(
                pool.try_issue(op, cycle, prefer_fast),
                reference.try_issue(op, cycle, prefer_fast),
                "request {} ({:?} at cycle {}, prefer_fast {})", i, op, cycle, prefer_fast
            );
            for class in OpClass::ALL {
                prop_assert_eq!(
                    pool.next_free(class),
                    reference.next_free(class),
                    "next_free({:?}) after request {}", class, i
                );
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The predictor never issues more structural resources than exist:
    /// arbitrary outcome streams keep its tables consistent (no panics)
    /// and accuracy stays a probability.
    #[test]
    fn predictor_is_total(outcomes in proptest::collection::vec(any::<bool>(), 1..2000),
                          pcs in proptest::collection::vec(0u64..64, 2000)) {
        let mut p = TournamentPredictor::new(PredictorConfig::default());
        let mut correct = 0u64;
        let n = outcomes.len();
        for (taken, pc_idx) in outcomes.into_iter().zip(pcs) {
            let pc = 0x4000_0000 + pc_idx * 16;
            if p.predict(pc).taken == taken {
                correct += 1;
            }
            p.update(pc, taken);
        }
        let acc = correct as f64 / n as f64;
        prop_assert!((0.0..=1.0).contains(&acc));
    }

    /// The FU pool never exceeds per-cycle structural capacity for any
    /// request sequence.
    #[test]
    fn fu_pool_respects_capacity(ops in proptest::collection::vec(0u8..7, 1..200)) {
        let mut pool = FuPool::new(FuPoolConfig::cmos());
        let classes = [
            OpClass::IntAlu, OpClass::IntMul, OpClass::IntDiv,
            OpClass::FpAdd, OpClass::FpMul, OpClass::FpDiv, OpClass::Load,
        ];
        for cycle in 0..50u64 {
            let mut alu = 0;
            let mut lsu = 0;
            for &o in &ops {
                let class = classes[o as usize];
                if pool.try_issue(class, cycle, false).is_some() {
                    match class {
                        OpClass::IntAlu => alu += 1,
                        OpClass::Load => lsu += 1,
                        _ => {}
                    }
                }
            }
            prop_assert!(alu <= 4, "at most 4 ALU issues per cycle, got {alu}");
            prop_assert!(lsu <= 2, "at most 2 LSU issues per cycle, got {lsu}");
        }
    }

    /// The core commits exactly what is asked, never exceeds the machine
    /// width, and produces consistent counters — for any app and seed.
    #[test]
    fn core_runs_are_well_formed(seed in any::<u64>(), idx in 0usize..14) {
        let app = &apps::all()[idx];
        let n = 8_000u64;
        let mut core = Core::new(CoreConfig::default(), 0);
        let r = core.run(TraceGenerator::new(app, seed), n);
        prop_assert_eq!(r.stats.committed, n);
        prop_assert!(r.stats.cycles >= n / 4, "cannot beat the 4-wide limit");
        prop_assert!(r.ipc() <= 4.0);
        prop_assert!(r.stats.mispredicts <= r.stats.branches);
        prop_assert_eq!(r.stats.loads + r.stats.stores, r.mem.dl1_accesses());
    }

    /// `merge` then `minus` round-trips every sum/sub counter: folding
    /// `b` into `a` and subtracting `a` back out recovers `b` exactly.
    /// `cycles` (max/keep) and `committed` (sum/keep) are the two
    /// policy-annotated exceptions.
    #[test]
    fn stats_merge_then_minus_round_trips(a in counter_values(), b in counter_values()) {
        let sa = stats_from(&a);
        let sb = stats_from(&b);
        let mut merged = sa;
        merged.merge(&sb);
        let diff = merged.minus(&sa);
        for (name, value) in diff.iter() {
            if name == "cycles" || name == "committed" {
                continue;
            }
            prop_assert_eq!(Some(value), sb.get(&name), "counter {}", name);
        }
    }

    /// `iter()` names are unique, value-independent, and every pair is
    /// addressable back through `get`.
    #[test]
    fn stats_iter_names_are_stable_and_unique(a in counter_values()) {
        let s = stats_from(&a);
        let names: Vec<String> = s.iter().map(|(n, _)| n).collect();
        let default_names: Vec<String> =
            CoreStats::default().iter().map(|(n, _)| n).collect();
        prop_assert_eq!(&names, &default_names, "names do not depend on values");
        let mut dedup = names.clone();
        dedup.sort();
        dedup.dedup();
        prop_assert_eq!(dedup.len(), names.len(), "names are unique");
        for (name, value) in s.iter() {
            prop_assert_eq!(s.get(&name), Some(value), "get({}) addresses iter()", name);
        }
    }

    /// Halving the clock never makes the wall-clock time shorter.
    #[test]
    fn lower_clock_is_never_faster(seed in any::<u64>()) {
        let app = apps::profile("fft").expect("known app");
        let fast = {
            let mut core = Core::new(CoreConfig::default(), 0);
            core.run(TraceGenerator::new(&app, seed), 8_000).seconds()
        };
        let slow = {
            let mut cfg = CoreConfig::default();
            cfg.clock_hz = 1.0e9;
            let mut core = Core::new(cfg, 0);
            core.run(TraceGenerator::new(&app, seed), 8_000).seconds()
        };
        prop_assert!(slow > fast);
    }
}
