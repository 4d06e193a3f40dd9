//! The Asymmetric DL1 Cache of AdvHet (paper Section IV-C1, Figure 5).
//!
//! The asymmetric cache partitions the ways of the set-associative DL1: one
//! way is implemented in CMOS (the 4 KB direct-mapped *FastCache*) and the
//! remaining ways in TFET (the 28 KB 7-way *SlowCache*). A request checks
//! the FastCache first; a hit is satisfied in `fast_latency` (1 cycle). A
//! miss forwards to the SlowCache, where a hit takes `slow_latency` (4)
//! additional cycles — 5 total. The MRU line of each set is kept in the
//! FastCache: a SlowCache hit *promotes* the line into the FastCache,
//! demoting the previous FastCache occupant back into the SlowCache. The
//! two partitions hold disjoint line sets (exclusive).
//!
//! The same structure also models BaseCMOS-Enh's all-CMOS asymmetric DL1
//! (1-cycle fast way, 3-cycle remaining ways) — only the latencies differ.

use crate::cache::{Cache, CacheConfig};
use crate::stats::CacheStats;

/// Result of an asymmetric-cache access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AsymOutcome {
    /// Where the request was satisfied.
    pub hit: AsymHit,
    /// Total DL1 latency in cycles for this request (miss latency covers
    /// only the DL1 portion; the hierarchy adds L2/L3/DRAM time).
    pub latency: u32,
    /// Dirty victim pushed out of the *whole* DL1 (to be written back to
    /// L2), if any.
    pub writeback: Option<u64>,
}

/// Hit classification for an asymmetric access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AsymHit {
    /// Hit in the CMOS FastCache.
    Fast,
    /// Hit in the TFET SlowCache (line promoted to FastCache).
    Slow,
    /// Missed both; line will be filled into the FastCache.
    Miss,
}

/// The asymmetric DL1: a small fast direct-mapped partition in front of a
/// larger slow partition, exclusive of each other.
#[derive(Debug, Clone)]
pub struct AsymmetricCache {
    fast: Cache,
    slow: Cache,
    fast_latency: u32,
    slow_latency: u32,
    promotions: u64,
}

impl AsymmetricCache {
    /// Builds the paper's AdvHet DL1: 4 KB 1-way FastCache (1 cycle) plus
    /// 28 KB 7-way SlowCache (4 more cycles, 5 total on a slow hit).
    pub fn advhet_dl1() -> Self {
        AsymmetricCache::new(
            CacheConfig::new(4 * 1024, 1, 64, 1),
            CacheConfig::new(28 * 1024, 7, 64, 4),
        )
    }

    /// Creates an asymmetric cache from explicit partitions. The slow
    /// partition's `latency` is the *additional* cycles past the fast
    /// probe.
    ///
    /// # Panics
    ///
    /// Panics if the partitions use different line sizes.
    pub fn new(fast_cfg: CacheConfig, slow_cfg: CacheConfig) -> Self {
        assert_eq!(
            fast_cfg.line_bytes, slow_cfg.line_bytes,
            "fast and slow partitions must share a line size"
        );
        AsymmetricCache {
            fast_latency: fast_cfg.latency,
            slow_latency: slow_cfg.latency,
            fast: Cache::new(fast_cfg),
            slow: Cache::new(slow_cfg),
            promotions: 0,
        }
    }

    /// Accesses `addr`, probing fast then slow, promoting on a slow hit and
    /// filling the FastCache on a miss.
    pub fn access(&mut self, addr: u64, is_write: bool) -> AsymOutcome {
        let line_addr = self.fast.align(addr);
        let fast_hit = self.fast.probe(addr);
        self.fast.stats_record_demand(is_write, fast_hit);
        if fast_hit {
            self.fast.mark_used(addr, is_write);
            return AsymOutcome {
                hit: AsymHit::Fast,
                latency: self.fast_latency,
                writeback: None,
            };
        }

        let slow_hit = self.slow.probe(addr);
        self.slow.stats_record_demand(is_write, slow_hit);
        let writeback;
        let hit = if slow_hit {
            // Promote to FastCache, demote its victim into the SlowCache.
            let line = self.slow.remove(line_addr).expect("probed resident");
            writeback = self.promote(line.addr, line.dirty || is_write);
            self.promotions += 1;
            AsymHit::Slow
        } else {
            // Miss: the hierarchy will fetch the line; install it MRU in
            // the FastCache (the demoted victim goes to the SlowCache).
            writeback = self.promote(line_addr, is_write);
            AsymHit::Miss
        };
        AsymOutcome {
            hit,
            latency: self.fast_latency + self.slow_latency,
            writeback,
        }
    }

    /// Installs `addr` into the FastCache, demoting any evicted fast line
    /// into the SlowCache. Returns a dirty line evicted from the whole DL1.
    fn promote(&mut self, line_addr: u64, dirty: bool) -> Option<u64> {
        // Evict the direct-mapped fast slot manually so we can demote the
        // victim rather than lose it.
        let victim_slot = self.fast_victim(line_addr);
        let mut writeback = None;
        if let Some(victim) = victim_slot {
            let removed = self.fast.remove(victim).expect("victim resident");
            writeback = self.slow.fill(removed.addr, removed.dirty);
        }
        let direct_wb = self.fast.fill(line_addr, dirty);
        debug_assert!(direct_wb.is_none(), "victim already demoted");
        writeback
    }

    /// The address of the line currently occupying `line_addr`'s fast slot.
    fn fast_victim(&self, line_addr: u64) -> Option<u64> {
        self.fast.occupant_of_set(line_addr)
    }

    /// Pre-warms both partitions with the leading portion of a working
    /// set: the slow partition takes what it can hold, the fast partition
    /// the hottest head.
    pub fn prewarm(&mut self, base: u64, working_set_bytes: u64) {
        let line = self.slow.config().line_bytes;
        let slow_lines = self.slow.config().size_bytes.min(working_set_bytes) / line;
        self.slow.prewarm_sequential(base, slow_lines);
        let fast_lines = self.fast.config().size_bytes.min(working_set_bytes) / line;
        for i in 0..fast_lines {
            // Keep exclusivity: move the head lines fast.
            let addr = base + i * line;
            let _ = self.slow.remove(addr);
            self.fast.fill(addr, false);
        }
    }

    /// Probes both partitions without side effects.
    pub fn probe(&self, addr: u64) -> bool {
        self.fast.probe(addr) || self.slow.probe(addr)
    }

    /// FastCache statistics.
    pub fn fast_stats(&self) -> &CacheStats {
        self.fast.stats()
    }

    /// SlowCache statistics.
    pub fn slow_stats(&self) -> &CacheStats {
        self.slow.stats()
    }

    /// Number of slow-to-fast promotions.
    pub fn promotions(&self) -> u64 {
        self.promotions
    }

    /// Validates both partitions structurally plus the exclusivity
    /// invariant: a line resident fast must not also be resident slow.
    pub fn validate(&self, checker: &mut hetsim_check::Checker) {
        self.fast.validate("fast", checker);
        self.slow.validate("slow", checker);
        checker.scoped("asym", |c| {
            let line = self.fast.config().line_bytes;
            let fast_lines = self.fast.config().size_bytes / line;
            let mut shared = 0u64;
            for i in 0..fast_lines {
                // Walk every fast slot by probing its set's occupant.
                if let Some(addr) = self.fast.occupant_of_set(i * line) {
                    if self.slow.probe(addr) {
                        shared += 1;
                    }
                }
            }
            c.eq_u64(
                "mem.asym_exclusive",
                ("lines resident in both partitions", shared),
                ("0", 0),
            );
        });
    }

    /// Hit rate over the whole structure.
    pub fn hit_rate(&self) -> f64 {
        let demand = self.fast.stats().accesses;
        if demand == 0 {
            return 0.0;
        }
        (self.fast.stats().hits + self.slow.stats().hits) as f64 / demand as f64
    }

    /// Fraction of demand accesses satisfied by the FastCache.
    pub fn fast_hit_rate(&self) -> f64 {
        let demand = self.fast.stats().accesses;
        if demand == 0 {
            return 0.0;
        }
        self.fast.stats().hits as f64 / demand as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> AsymmetricCache {
        // Fast: 2 sets x 1 way; slow: 2 sets x 2 ways; 64 B lines.
        AsymmetricCache::new(
            CacheConfig::new(128, 1, 64, 1),
            CacheConfig::new(256, 2, 64, 4),
        )
    }

    #[test]
    fn miss_fill_then_fast_hit() {
        let mut c = tiny();
        let out = c.access(0x0, false);
        assert_eq!(out.hit, AsymHit::Miss);
        assert_eq!(out.latency, 5);
        let out = c.access(0x0, false);
        assert_eq!(out.hit, AsymHit::Fast);
        assert_eq!(out.latency, 1);
    }

    #[test]
    fn conflicting_line_demotes_then_slow_hit_promotes() {
        let mut c = tiny();
        c.access(0x000, false); // fills fast slot for set 0
        c.access(0x080, false); // same fast slot: demotes 0x000 to slow
                                // 0x000 should now hit slow and be promoted back.
        let out = c.access(0x000, false);
        assert_eq!(out.hit, AsymHit::Slow);
        assert_eq!(out.latency, 5);
        let out = c.access(0x000, false);
        assert_eq!(out.hit, AsymHit::Fast);
        // And 0x080 was demoted to slow.
        let out = c.access(0x080, false);
        assert_eq!(out.hit, AsymHit::Slow);
    }

    #[test]
    fn partitions_stay_exclusive() {
        let mut c = tiny();
        for addr in [0x000u64, 0x080, 0x100, 0x000, 0x180, 0x080] {
            c.access(addr, false);
            for probe in [0x000u64, 0x080, 0x100, 0x180] {
                let in_fast = c.fast.probe(probe);
                let in_slow = c.slow.probe(probe);
                assert!(!(in_fast && in_slow), "line {probe:#x} duplicated");
            }
        }
    }

    #[test]
    fn dirty_data_survives_demotion_and_returns_on_eviction() {
        let mut c = tiny();
        c.access(0x000, true); // dirty in fast
        c.access(0x080, false); // demote dirty 0x000 to slow
        c.access(0x100, false); // set 0 again: demote 0x080; slow set 0 holds 0x000+0x080
                                // Next set-0 line: 0x180 — slow set 0 overflows, evicting LRU (0x000 dirty).
        let out = c.access(0x180, false);
        assert_eq!(
            out.writeback,
            Some(0x000),
            "dirty line must be written back"
        );
    }

    #[test]
    fn mru_line_lives_in_fast_cache() {
        let mut c = tiny();
        c.access(0x000, false);
        c.access(0x080, false);
        // 0x080 is MRU for set 0 and must be the fast occupant.
        assert!(c.fast.probe(0x080));
        assert!(!c.fast.probe(0x000));
    }

    #[test]
    fn advhet_geometry_and_latencies() {
        let mut c = AsymmetricCache::advhet_dl1();
        let miss = c.access(0x4000, false);
        assert_eq!(miss.latency, 5, "1 fast + 4 slow cycles");
        let hit = c.access(0x4000, false);
        assert_eq!(hit.latency, 1);
    }

    #[test]
    fn hit_rates_account_both_partitions() {
        let mut c = tiny();
        c.access(0x000, false); // miss
        c.access(0x000, false); // fast hit
        c.access(0x080, false); // miss (demotes)
        c.access(0x000, false); // slow hit
        assert!((c.hit_rate() - 0.5).abs() < 1e-12);
        assert!((c.fast_hit_rate() - 0.25).abs() < 1e-12);
        assert_eq!(c.promotions(), 1);
    }
}
