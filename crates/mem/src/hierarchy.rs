//! The private three-level cache hierarchy of one core.
//!
//! Composition per Table III: 32 KB IL1, 32 KB DL1 (plain or asymmetric),
//! 256 KB L2, a 2 MB L3 slice, then DRAM. Latency semantics follow the
//! table's *round-trip* numbers: a hit at level X costs X's round-trip
//! cycles from the core's perspective (the table's per-config values
//! already fold in the traversal of the levels above), and a DRAM access
//! additionally pays the L3 round trip.
//!
//! Writebacks propagate off the critical path: a dirty DL1 victim is
//! installed in L2, a dirty L2 victim in L3, and a dirty L3 victim is
//! counted as a DRAM write. All such events are visible to the power model
//! through [`MemStats`].
//!
//! For multicore runs, each core owns a 2 MB address-partitioned slice of
//! the shared L3 (NUCA-style), and the ring cost is already part of the L3
//! round-trip latency. The synthetic workloads partition their data per
//! thread (as SPLASH-2 does) and each core's phase runs on its own
//! hierarchy, so no line is ever shared and no coherence traffic is
//! modelled.

use crate::asymmetric::{AsymHit, AsymmetricCache};
use crate::cache::{Cache, CacheConfig};
use crate::dram::Dram;
use crate::stats::MemStats;

/// Which level satisfied a data access.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum HitLevel {
    /// CMOS fast way of an asymmetric DL1.
    Dl1Fast,
    /// DL1 (or the slow partition of an asymmetric DL1).
    Dl1,
    /// Private L2.
    L2,
    /// L3 slice.
    L3,
    /// Main memory.
    Dram,
}

impl HitLevel {
    /// `true` when the access missed the DL1 (either partition) and had
    /// to go at least to the private L2. The cycle-attribution profiler
    /// splits demand-load latency histograms on this boundary: DL1 hits
    /// are pipeline-absorbing, everything deeper shows up as
    /// `mem-latency` cycles.
    pub fn is_dl1_miss(self) -> bool {
        !matches!(self, HitLevel::Dl1Fast | HitLevel::Dl1)
    }
}

/// Outcome of one data access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DataAccess {
    /// Total round-trip latency in core cycles.
    pub latency: u32,
    /// The level that satisfied the request.
    pub level: HitLevel,
}

/// The data-cache organization.
#[derive(Debug, Clone)]
pub enum DataCacheKind {
    /// Conventional single-latency DL1.
    Plain(Cache),
    /// The AdvHet asymmetric DL1 (or its all-CMOS Enh variant).
    Asymmetric(AsymmetricCache),
}

/// Geometry and timing for a core's private hierarchy.
#[derive(Debug, Clone)]
pub struct HierarchyConfig {
    /// Instruction L1 (round-trip latency in `latency`).
    pub il1: CacheConfig,
    /// Data L1 specification.
    pub dl1: DataCacheSpec,
    /// Private L2 (round trip).
    pub l2: CacheConfig,
    /// L3 slice (round trip).
    pub l3: CacheConfig,
    /// Core clock, for the DRAM cycle conversion.
    pub clock_hz: f64,
}

/// DL1 specification within [`HierarchyConfig`].
#[derive(Debug, Clone)]
pub enum DataCacheSpec {
    /// Conventional DL1 with the given geometry/latency.
    Plain(CacheConfig),
    /// Asymmetric DL1: fast partition + slow partition (slow `latency` is
    /// the additional cycles past the fast probe).
    Asymmetric {
        /// CMOS fast way.
        fast: CacheConfig,
        /// TFET (or slower CMOS) remaining ways.
        slow: CacheConfig,
    },
}

/// One core's private memory hierarchy.
#[derive(Debug, Clone)]
pub struct Hierarchy {
    il1: Cache,
    dl1: DataCacheKind,
    l2: Cache,
    l3: Cache,
    dram: Dram,
    dram_writes: u64,
}

impl Hierarchy {
    /// Builds the hierarchy.
    pub fn new(cfg: HierarchyConfig) -> Self {
        let dl1 = match cfg.dl1 {
            DataCacheSpec::Plain(c) => DataCacheKind::Plain(Cache::new(c)),
            DataCacheSpec::Asymmetric { fast, slow } => {
                DataCacheKind::Asymmetric(AsymmetricCache::new(fast, slow))
            }
        };
        Hierarchy {
            il1: Cache::new(cfg.il1),
            dl1,
            l2: Cache::new(cfg.l2),
            l3: Cache::new(cfg.l3),
            dram: Dram::at_clock(cfg.clock_hz),
            dram_writes: 0,
        }
    }

    /// Instruction fetch at `pc`; returns the fetch latency in cycles.
    pub fn fetch(&mut self, pc: u64) -> u32 {
        let out = self.il1.access(pc, false);
        if out.hit {
            self.il1.config().latency
        } else {
            // Instruction misses walk the same lower levels.
            self.lower_levels(pc, false).latency
        }
    }

    /// Data load at `addr`.
    pub fn load(&mut self, addr: u64) -> DataAccess {
        self.data_access(addr, false)
    }

    /// Data store at `addr` (write-allocate; latency reported for LSQ
    /// modeling even though stores retire from a store buffer).
    pub fn store(&mut self, addr: u64) -> DataAccess {
        self.data_access(addr, true)
    }

    fn data_access(&mut self, addr: u64, is_write: bool) -> DataAccess {
        match &mut self.dl1 {
            DataCacheKind::Plain(dl1) => {
                let lat = dl1.config().latency;
                let out = dl1.access(addr, is_write);
                if let Some(victim) = out.writeback {
                    self.writeback_to_l2(victim);
                }
                if out.hit {
                    DataAccess {
                        latency: lat,
                        level: HitLevel::Dl1,
                    }
                } else {
                    self.lower_levels(addr, is_write)
                }
            }
            DataCacheKind::Asymmetric(asym) => {
                let out = asym.access(addr, is_write);
                if let Some(victim) = out.writeback {
                    self.writeback_to_l2(victim);
                }
                match out.hit {
                    AsymHit::Fast => DataAccess {
                        latency: out.latency,
                        level: HitLevel::Dl1Fast,
                    },
                    AsymHit::Slow => DataAccess {
                        latency: out.latency,
                        level: HitLevel::Dl1,
                    },
                    AsymHit::Miss => self.lower_levels(addr, is_write),
                }
            }
        }
    }

    /// Walks L2 -> L3 -> DRAM for a demand miss; returns the round trip.
    fn lower_levels(&mut self, addr: u64, _is_write: bool) -> DataAccess {
        let l2_out = self.l2.access(addr, false);
        if let Some(victim) = l2_out.writeback {
            self.writeback_to_l3(victim);
        }
        if l2_out.hit {
            return DataAccess {
                latency: self.l2.config().latency,
                level: HitLevel::L2,
            };
        }
        let l3_out = self.l3.access(addr, false);
        if l3_out.writeback.is_some() {
            self.dram_writes += 1;
        }
        if l3_out.hit {
            return DataAccess {
                latency: self.l3.config().latency,
                level: HitLevel::L3,
            };
        }
        let dram_lat = self.dram.access();
        DataAccess {
            latency: self.l3.config().latency + dram_lat,
            level: HitLevel::Dram,
        }
    }

    fn writeback_to_l2(&mut self, victim: u64) {
        if let Some(l2_victim) = self.l2.fill(victim, true) {
            self.writeback_to_l3(l2_victim);
        }
    }

    fn writeback_to_l3(&mut self, victim: u64) {
        if self.l3.fill(victim, true).is_some() {
            self.dram_writes += 1;
        }
    }

    /// Pre-warms the hierarchy with a working set starting at `base`:
    /// fills each level (inclusively) with as much of the leading portion
    /// of the set as it can hold. Models the steady state a long-running
    /// application reaches, without paying millions of warm-up
    /// instructions; compulsory misses on data that exceeds a level's
    /// capacity still occur naturally.
    pub fn prewarm(&mut self, base: u64, working_set_bytes: u64) {
        let line = self.l3.config().line_bytes;
        let fill_lines = |cache: &mut Cache, bytes: u64| {
            let n = bytes.min(working_set_bytes) / line;
            cache.prewarm_sequential(base, n);
        };
        let l3_capacity = self.l3.config().size_bytes;
        let l2_capacity = self.l2.config().size_bytes;
        fill_lines(&mut self.l3, l3_capacity);
        fill_lines(&mut self.l2, l2_capacity);
        match &mut self.dl1 {
            DataCacheKind::Plain(dl1) => {
                let cap = dl1.config().size_bytes;
                fill_lines(dl1, cap);
            }
            DataCacheKind::Asymmetric(asym) => {
                asym.prewarm(base, working_set_bytes);
            }
        }
    }

    /// Event counters for the power model.
    pub fn stats(&self) -> MemStats {
        let mut s = MemStats {
            il1: *self.il1.stats(),
            l2: *self.l2.stats(),
            l3: *self.l3.stats(),
            dram_accesses: self.dram.accesses() + self.dram_writes,
            ..MemStats::default()
        };
        match &self.dl1 {
            DataCacheKind::Plain(dl1) => {
                s.dl1_slow = *dl1.stats();
            }
            DataCacheKind::Asymmetric(asym) => {
                s.dl1_fast = *asym.fast_stats();
                s.dl1_slow = *asym.slow_stats();
                s.promotions = asym.promotions();
            }
        }
        s
    }

    /// The DL1 organization (for inspection in tests/reports).
    pub fn dl1(&self) -> &DataCacheKind {
        &self.dl1
    }

    /// Validates the whole private hierarchy: the cross-level demand-flow
    /// identities over [`Hierarchy::stats`] plus the structural invariants
    /// of every level (set occupancy, tag uniqueness, DL1 exclusivity).
    pub fn validate(&self, checker: &mut hetsim_check::Checker) {
        crate::stats::validate_mem_stats(&self.stats(), checker);
        checker.scoped("levels", |c| {
            self.il1.validate("il1", c);
            match &self.dl1 {
                DataCacheKind::Plain(dl1) => dl1.validate("dl1", c),
                DataCacheKind::Asymmetric(asym) => c.scoped("dl1", |c| asym.validate(c)),
            }
            self.l2.validate("l2", c);
            self.l3.validate("l3", c);
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(plain_dl1: bool) -> HierarchyConfig {
        HierarchyConfig {
            il1: CacheConfig::new(32 * 1024, 2, 64, 2),
            dl1: if plain_dl1 {
                DataCacheSpec::Plain(CacheConfig::new(32 * 1024, 8, 64, 2))
            } else {
                DataCacheSpec::Asymmetric {
                    fast: CacheConfig::new(4 * 1024, 1, 64, 1),
                    slow: CacheConfig::new(28 * 1024, 7, 64, 4),
                }
            },
            l2: CacheConfig::new(256 * 1024, 8, 64, 8),
            l3: CacheConfig::new(2 * 1024 * 1024, 16, 64, 32),
            clock_hz: 2.0e9,
        }
    }

    #[test]
    fn validate_is_clean_after_mixed_traffic() {
        for plain in [true, false] {
            let mut h = Hierarchy::new(cfg(plain));
            h.prewarm(0, 16 * 1024);
            for i in 0..4_000u64 {
                h.fetch(0x100_0000 + (i % 512) * 16);
                h.load((i * 89) % (256 * 1024));
                if i % 3 == 0 {
                    h.store((i * 53) % (64 * 1024));
                }
            }
            let mut checker = hetsim_check::Checker::new();
            h.validate(&mut checker);
            assert!(
                checker.is_clean(),
                "plain={plain}: {:?}",
                checker.violations()
            );
            assert!(checker.checks_run() > 20);
        }
    }

    #[test]
    fn validate_flags_broken_conservation() {
        let mut h = Hierarchy::new(cfg(true));
        h.load(0x40);
        let mut stats = h.stats();
        stats.l2.hits += 1; // break hits + misses == accesses
        let mut checker = hetsim_check::Checker::new();
        crate::stats::validate_mem_stats(&stats, &mut checker);
        let v = checker
            .violations()
            .iter()
            .find(|v| v.invariant == "mem.hit_miss_conservation")
            .expect("perturbed counter must be caught");
        assert_eq!(v.path, "mem/l2");
    }

    #[test]
    fn cold_load_goes_to_dram_then_warms_up() {
        let mut h = Hierarchy::new(cfg(true));
        let first = h.load(0x1_0000);
        assert_eq!(first.level, HitLevel::Dram);
        assert_eq!(first.latency, 32 + 100);
        let second = h.load(0x1_0000);
        assert_eq!(second.level, HitLevel::Dl1);
        assert_eq!(second.latency, 2);
    }

    #[test]
    fn l2_hit_after_dl1_eviction() {
        let mut h = Hierarchy::new(cfg(true));
        h.load(0x0);
        // Evict from the 8-way DL1 set 0 by loading 8 more conflicting
        // lines. A 4 KB stride aliases in the 64-set DL1 but spreads over
        // the 512-set L2, so the victim stays L2-resident.
        for i in 1..=8u64 {
            h.load(i * 4 * 1024);
        }
        let again = h.load(0x0);
        assert_eq!(again.level, HitLevel::L2);
        assert_eq!(again.latency, 8);
    }

    #[test]
    fn asymmetric_fast_hit_is_one_cycle() {
        let mut h = Hierarchy::new(cfg(false));
        h.load(0x40);
        let hit = h.load(0x40);
        assert_eq!(hit.level, HitLevel::Dl1Fast);
        assert_eq!(hit.latency, 1);
    }

    #[test]
    fn asymmetric_slow_hit_is_five_cycles() {
        let mut h = Hierarchy::new(cfg(false));
        h.load(0x0000); // fills fast slot
        h.load(0x1000); // same fast set (4 KB apart): demotes 0x0000
        let slow = h.load(0x0000);
        assert_eq!(slow.level, HitLevel::Dl1);
        assert_eq!(slow.latency, 5);
    }

    #[test]
    fn stores_allocate_and_dirty_lines_write_back() {
        let mut h = Hierarchy::new(cfg(true));
        h.store(0x0);
        // Push the dirty line out of DL1 (4 KB stride: DL1-conflicting,
        // L2-friendly).
        for i in 1..=8u64 {
            h.load(i * 4 * 1024);
        }
        // The dirty line should be in L2 now; loading it back hits L2.
        assert_eq!(h.load(0x0).level, HitLevel::L2);
        let s = h.stats();
        assert!(s.dl1_slow.writebacks >= 1, "dirty DL1 victim written back");
    }

    #[test]
    fn fetch_hits_after_warmup() {
        let mut h = Hierarchy::new(cfg(true));
        let cold = h.fetch(0x4000_0000);
        assert!(cold > 2);
        let warm = h.fetch(0x4000_0000);
        assert_eq!(warm, 2);
    }

    #[test]
    fn stats_collect_all_levels() {
        let mut h = Hierarchy::new(cfg(false));
        for i in 0..1000u64 {
            h.load(i * 64);
        }
        let s = h.stats();
        assert_eq!(s.dl1_accesses(), 1000);
        assert!(s.l2.accesses > 0);
        assert!(s.l3.accesses > 0);
        assert!(s.dram_accesses > 0);
    }

    #[test]
    fn working_set_in_l3_does_not_touch_dram_after_warmup() {
        let mut h = Hierarchy::new(cfg(true));
        let lines = 1024u64; // 64 KB working set
        for pass in 0..3 {
            for i in 0..lines {
                h.load(i * 64);
            }
            if pass == 0 {
                let cold_drams = h.stats().dram_accesses;
                assert!(cold_drams > 0);
            }
        }
        let s = h.stats();
        // After the first pass everything fits in L2; DRAM count stays flat.
        assert_eq!(s.dram_accesses, 1024);
    }
}
