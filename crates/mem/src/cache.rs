//! A set-associative, write-back, write-allocate cache with true-LRU
//! replacement.
//!
//! The cache is a *timing and content* model: it tracks which line tags are
//! resident (so hit/miss behaviour is exact for the address stream) but not
//! data values. Dirty bits are tracked so write-back traffic is accounted.

use crate::stats::CacheStats;

/// Geometry and timing of one cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheConfig {
    /// Total capacity in bytes.
    pub size_bytes: u64,
    /// Associativity (ways); 1 = direct mapped.
    pub ways: u32,
    /// Line size in bytes (power of two).
    pub line_bytes: u64,
    /// Access latency in cycles (the time to *this* level, not round trip
    /// through lower levels).
    pub latency: u32,
}

impl CacheConfig {
    /// Creates a config.
    ///
    /// # Panics
    ///
    /// Panics unless `line_bytes` is a power of two and the geometry yields
    /// at least one set.
    pub fn new(size_bytes: u64, ways: u32, line_bytes: u64, latency: u32) -> Self {
        assert!(
            line_bytes.is_power_of_two(),
            "line size must be a power of two"
        );
        assert!(ways >= 1, "need at least one way");
        assert!(
            size_bytes >= u64::from(ways) * line_bytes,
            "cache of {size_bytes} B can't hold {ways} ways of {line_bytes} B lines"
        );
        let sets = size_bytes / (u64::from(ways) * line_bytes);
        assert!(
            sets.is_power_of_two(),
            "set count must be a power of two, got {sets}"
        );
        CacheConfig {
            size_bytes,
            ways,
            line_bytes,
            latency,
        }
    }

    /// Number of sets.
    pub fn sets(&self) -> u64 {
        self.size_bytes / (u64::from(self.ways) * self.line_bytes)
    }
}

/// Result of a cache access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AccessOutcome {
    /// Whether the line was resident.
    pub hit: bool,
    /// Line address of a dirty victim evicted by the fill (misses only).
    pub writeback: Option<u64>,
}

/// Result of removing a line (for promotion/invalidation).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RemovedLine {
    /// Line-aligned address.
    pub addr: u64,
    /// Whether it was dirty.
    pub dirty: bool,
}

/// A set-associative write-back cache.
///
/// Storage is a flat `sets x ways` matrix of packed line words: the
/// live lines of set `s` are `words[s*ways..s*ways+lens[s]]`, ordered
/// MRU-first, each word holding `(tag << 1) | dirty`. A tag probe scans
/// a short contiguous `u64` slice and an LRU touch is one `copy_within`
/// memmove — no per-set heap indirection, no element shuffling through
/// `Vec::remove`/`insert`, and no second parallel array for the dirty
/// bit. Set/tag extraction is shift-and-mask (geometry is asserted
/// power-of-two at construction), not division: this sits on the
/// simulator's per-load critical path.
#[derive(Debug, Clone)]
pub struct Cache {
    cfg: CacheConfig,
    /// `log2(line_bytes)`.
    line_shift: u32,
    /// `sets - 1`.
    set_mask: u64,
    /// `log2(sets)`.
    tag_shift: u32,
    ways: usize,
    /// Packed `(tag << 1) | dirty` words, MRU-first within each set's
    /// `ways`-wide row.
    words: Vec<u64>,
    /// Live lines per set (<= ways).
    lens: Vec<u8>,
    stats: CacheStats,
}

impl Cache {
    /// Creates an empty cache.
    pub fn new(cfg: CacheConfig) -> Self {
        let sets = cfg.sets();
        assert!(
            sets.is_power_of_two() && cfg.line_bytes.is_power_of_two(),
            "cache geometry must be power-of-two"
        );
        assert!(cfg.ways <= u32::from(u8::MAX), "associativity fits in u8");
        let slots = sets as usize * cfg.ways as usize;
        Cache {
            line_shift: cfg.line_bytes.trailing_zeros(),
            set_mask: sets - 1,
            tag_shift: sets.trailing_zeros(),
            ways: cfg.ways as usize,
            words: vec![0; slots],
            lens: vec![0; sets as usize],
            stats: CacheStats::default(),
            cfg,
        }
    }

    /// The cache geometry.
    pub fn config(&self) -> &CacheConfig {
        &self.cfg
    }

    /// Access statistics so far.
    pub fn stats(&self) -> &CacheStats {
        &self.stats
    }

    #[inline]
    fn set_and_tag(&self, addr: u64) -> (usize, u64) {
        let line = addr >> self.line_shift;
        let set = (line & self.set_mask) as usize;
        let tag = line >> self.tag_shift;
        debug_assert!(tag < 1 << 63, "tag must leave bit 63 free for packing");
        (set, tag)
    }

    #[inline]
    fn line_addr(&self, set: usize, tag: u64) -> u64 {
        ((tag << self.tag_shift) | set as u64) << self.line_shift
    }

    /// Position of `tag` among set `set`'s live lines (MRU-first).
    #[inline]
    fn find(&self, set: usize, tag: u64) -> Option<usize> {
        let base = set * self.ways;
        self.words[base..base + self.lens[set] as usize]
            .iter()
            .position(|&w| w >> 1 == tag)
    }

    /// Moves the line at `pos` to the MRU front of its set, merging
    /// `is_write` into its dirty bit.
    #[inline]
    fn touch(&mut self, set: usize, pos: usize, is_write: bool) {
        let base = set * self.ways;
        let w = self.words[base + pos] | u64::from(is_write);
        self.words.copy_within(base..base + pos, base + 1);
        self.words[base] = w;
    }

    /// Accesses `addr`; on a miss the line is allocated (write-allocate),
    /// possibly evicting the LRU line. `is_write` marks the line dirty.
    pub fn access(&mut self, addr: u64, is_write: bool) -> AccessOutcome {
        self.stats.accesses += 1;
        if is_write {
            self.stats.writes += 1;
        }
        let (set, tag) = self.set_and_tag(addr);
        if let Some(pos) = self.find(set, tag) {
            self.stats.hits += 1;
            self.touch(set, pos, is_write);
            return AccessOutcome {
                hit: true,
                writeback: None,
            };
        }
        self.stats.misses += 1;
        let writeback = self.install(set, tag, is_write);
        AccessOutcome {
            hit: false,
            writeback,
        }
    }

    /// Checks residency without updating LRU or stats.
    pub fn probe(&self, addr: u64) -> bool {
        let (set, tag) = self.set_and_tag(addr);
        self.find(set, tag).is_some()
    }

    /// Records a demand access in the statistics without touching cache
    /// contents — for composite structures (e.g. the asymmetric DL1) that
    /// manage residency themselves via [`Cache::fill`]/[`Cache::remove`].
    pub fn stats_record_demand(&mut self, is_write: bool, hit: bool) {
        self.stats.accesses += 1;
        if is_write {
            self.stats.writes += 1;
        }
        if hit {
            self.stats.hits += 1;
        } else {
            self.stats.misses += 1;
        }
    }

    /// Marks the line containing `addr` dirty and moves it to MRU, if
    /// resident. Returns whether the line was present.
    pub fn mark_used(&mut self, addr: u64, is_write: bool) -> bool {
        let (set, tag) = self.set_and_tag(addr);
        let Some(pos) = self.find(set, tag) else {
            return false;
        };
        self.touch(set, pos, is_write);
        true
    }

    /// The address of the line that would be evicted if `addr`'s set had to
    /// accept a new line right now (`None` if the set has a free way).
    pub fn occupant_of_set(&self, addr: u64) -> Option<u64> {
        let (set, _) = self.set_and_tag(addr);
        let len = self.lens[set] as usize;
        if len < self.ways {
            None
        } else {
            Some(self.line_addr(set, self.words[set * self.ways + len - 1] >> 1))
        }
    }

    /// Bulk-installs `n_lines` consecutive clean lines starting at `base`:
    /// exactly equivalent (final state and statistics) to calling
    /// `fill(base + i * line_bytes, false)` for `i` in `0..n_lines`, but
    /// linear-time with no per-line LRU rotation — walking the lines
    /// newest-first writes each set's row directly in MRU order, and any
    /// line beyond a set's associativity is precisely the (clean, so
    /// silently dropped) victim the literal loop would have evicted.
    /// Falls back to that literal loop if the cache is not empty, where
    /// the bulk construction's cold-set assumption breaks.
    pub fn prewarm_sequential(&mut self, base: u64, n_lines: u64) {
        if self.lens.iter().any(|&l| l != 0) {
            for i in 0..n_lines {
                self.fill(base + (i << self.line_shift), false);
            }
            return;
        }
        let line0 = base >> self.line_shift;
        for i in (0..n_lines).rev() {
            let line = line0 + i;
            let set = (line & self.set_mask) as usize;
            let len = self.lens[set] as usize;
            if len < self.ways {
                self.words[set * self.ways + len] = (line >> self.tag_shift) << 1;
                self.lens[set] = len as u8 + 1;
            }
        }
        self.stats.fills += n_lines;
    }

    /// Inserts a line (MRU position) without counting an access — used for
    /// fills from another structure, e.g. demotions from a FastCache.
    /// Returns the dirty victim's address, if any.
    pub fn fill(&mut self, addr: u64, dirty: bool) -> Option<u64> {
        let (set, tag) = self.set_and_tag(addr);
        if let Some(pos) = self.find(set, tag) {
            // Already resident: merge dirtiness, refresh LRU.
            self.touch(set, pos, dirty);
            return None;
        }
        self.install(set, tag, dirty)
    }

    fn install(&mut self, set: usize, tag: u64, dirty: bool) -> Option<u64> {
        self.stats.fills += 1;
        let base = set * self.ways;
        let mut writeback = None;
        let mut len = self.lens[set] as usize;
        if len == self.ways {
            // Full set: the LRU line at the back is the victim; the
            // shift below recycles its slot for the new MRU line.
            let victim = self.words[base + len - 1];
            if victim & 1 != 0 {
                self.stats.writebacks += 1;
                writeback = Some(self.line_addr(set, victim >> 1));
            }
        } else {
            len += 1;
            self.lens[set] = len as u8;
        }
        self.words.copy_within(base..base + len - 1, base + 1);
        self.words[base] = (tag << 1) | u64::from(dirty);
        writeback
    }

    /// Removes the line containing `addr`, returning it if present — used
    /// for promotions into a FastCache.
    pub fn remove(&mut self, addr: u64) -> Option<RemovedLine> {
        let (set, tag) = self.set_and_tag(addr);
        let pos = self.find(set, tag)?;
        let base = set * self.ways;
        let len = self.lens[set] as usize;
        let removed = RemovedLine {
            addr: self.line_addr(set, tag),
            dirty: self.words[base + pos] & 1 != 0,
        };
        self.words
            .copy_within(base + pos + 1..base + len, base + pos);
        self.lens[set] = (len - 1) as u8;
        Some(removed)
    }

    /// Number of resident lines.
    pub fn resident_lines(&self) -> usize {
        self.lens.iter().map(|&l| l as usize).sum()
    }

    /// The line-aligned address of `addr`.
    pub fn align(&self, addr: u64) -> u64 {
        addr & !(self.cfg.line_bytes - 1)
    }

    /// Validates the structural invariants of this cache under `level`:
    /// no set holds more lines than the associativity allows, no set
    /// holds two lines with the same tag, and the demand counters obey
    /// hit/miss conservation.
    pub fn validate(&self, level: &str, checker: &mut hetsim_check::Checker) {
        crate::stats::validate_cache_stats(level, &self.stats, checker);
        checker.scoped(level, |c| {
            for (set, &len) in self.lens.iter().enumerate() {
                let len = len as usize;
                c.le_u64(
                    "mem.set_occupancy",
                    (&format!("set[{set}].len"), len as u64),
                    ("ways", u64::from(self.cfg.ways)),
                );
                let base = set * self.ways;
                let mut tags: Vec<u64> = self.words[base..base + len]
                    .iter()
                    .map(|&w| w >> 1)
                    .collect();
                tags.sort_unstable();
                tags.dedup();
                c.eq_u64(
                    "mem.unique_tags",
                    (&format!("set[{set}] distinct tags"), tags.len() as u64),
                    ("resident lines", len as u64),
                );
            }
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> Cache {
        // 4 sets x 2 ways x 64 B = 512 B.
        Cache::new(CacheConfig::new(512, 2, 64, 1))
    }

    /// The bulk prewarm must be observably identical to the literal
    /// fill loop it replaces: same residency, same MRU/victim order,
    /// same statistics — including when the span only partially fills
    /// the sets and when it exceeds capacity (clean evictions).
    #[test]
    fn prewarm_sequential_matches_fill_loop() {
        for n_lines in [0u64, 3, 7, 8, 11, 16] {
            let mut bulk = small();
            let mut looped = small();
            bulk.prewarm_sequential(0, n_lines);
            for i in 0..n_lines {
                looped.fill(i * 64, false);
            }
            assert_eq!(bulk.stats(), looped.stats(), "n={n_lines}");
            for i in 0..n_lines {
                assert_eq!(
                    bulk.probe(i * 64),
                    looped.probe(i * 64),
                    "n={n_lines} line {i}"
                );
            }
            // Same LRU state: a conflicting install must evict the same
            // victim from both.
            for probe_set in 0..4u64 {
                bulk.fill(0x1000 + probe_set * 64, false);
                looped.fill(0x1000 + probe_set * 64, false);
            }
            for i in 0..n_lines {
                assert_eq!(
                    bulk.probe(i * 64),
                    looped.probe(i * 64),
                    "post-evict n={n_lines}"
                );
            }
            let mut checker = hetsim_check::Checker::new();
            bulk.validate("bulk", &mut checker);
            assert!(
                checker.into_violations().is_empty(),
                "bulk state is well formed (n={n_lines})"
            );
        }
    }

    /// On a non-empty cache the bulk path falls back to literal fills.
    #[test]
    fn prewarm_sequential_fallback_on_warm_cache() {
        let mut warm = small();
        warm.access(0x40, true);
        let mut looped = small();
        looped.access(0x40, true);
        warm.prewarm_sequential(0, 8);
        for i in 0..8 {
            looped.fill(i * 64, false);
        }
        assert_eq!(warm.stats(), looped.stats());
        for i in 0..8u64 {
            assert_eq!(warm.probe(i * 64), looped.probe(i * 64));
        }
    }

    #[test]
    fn cold_miss_then_hit() {
        let mut c = small();
        assert!(!c.access(0x40, false).hit);
        assert!(c.access(0x40, false).hit);
        assert!(c.access(0x7f, false).hit, "same line, different offset");
    }

    #[test]
    fn lru_evicts_least_recent() {
        let mut c = small();
        // Set 0 holds lines with addresses k * sets * line = k * 256.
        c.access(0x000, false);
        c.access(0x100, false);
        c.access(0x000, false); // touch 0x000: 0x100 becomes LRU
        c.access(0x200, false); // evicts 0x100
        assert!(c.probe(0x000));
        assert!(!c.probe(0x100));
        assert!(c.probe(0x200));
    }

    #[test]
    fn dirty_eviction_reports_writeback() {
        let mut c = small();
        c.access(0x000, true); // dirty
        c.access(0x100, false);
        let out = c.access(0x200, false); // evicts dirty 0x000
        assert_eq!(out.writeback, Some(0x000));
    }

    #[test]
    fn clean_eviction_has_no_writeback() {
        let mut c = small();
        c.access(0x000, false);
        c.access(0x100, false);
        let out = c.access(0x200, false);
        assert_eq!(out.writeback, None);
    }

    #[test]
    fn write_hit_marks_dirty() {
        let mut c = small();
        c.access(0x000, false);
        c.access(0x000, true); // now dirty
        c.access(0x100, false);
        let out = c.access(0x200, false);
        assert_eq!(out.writeback, Some(0x000));
    }

    #[test]
    fn remove_returns_line_state() {
        let mut c = small();
        c.access(0x140, true);
        let removed = c.remove(0x160).expect("same line");
        assert_eq!(removed.addr, 0x140);
        assert!(removed.dirty);
        assert!(!c.probe(0x140));
        assert!(c.remove(0x140).is_none());
    }

    #[test]
    fn fill_does_not_count_as_access() {
        let mut c = small();
        c.fill(0x000, false);
        assert_eq!(c.stats().accesses, 0);
        assert_eq!(c.stats().fills, 1);
        assert!(c.probe(0x000));
    }

    #[test]
    fn fill_merges_dirtiness() {
        let mut c = small();
        c.fill(0x000, false);
        c.fill(0x000, true); // re-fill dirty
        c.access(0x100, false);
        let out = c.access(0x200, false);
        assert_eq!(out.writeback, Some(0x000));
    }

    #[test]
    fn stats_add_up() {
        let mut c = small();
        for addr in [0x0, 0x40, 0x80, 0x0, 0x40, 0x80] {
            c.access(addr, false);
        }
        let s = c.stats();
        assert_eq!(s.accesses, 6);
        assert_eq!(s.hits + s.misses, s.accesses);
        assert_eq!(s.hits, 3);
    }

    #[test]
    fn capacity_is_respected() {
        let mut c = small();
        for i in 0..100 {
            c.access(i * 64, false);
        }
        assert!(c.resident_lines() <= 8);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn bad_line_size_panics() {
        let _ = CacheConfig::new(512, 2, 48, 1);
    }

    #[test]
    fn direct_mapped_works() {
        let mut c = Cache::new(CacheConfig::new(256, 1, 64, 1));
        c.access(0x000, false);
        c.access(0x100, false); // same set, evicts
        assert!(!c.probe(0x000));
        assert!(c.probe(0x100));
    }

    #[test]
    fn table_iii_geometries_construct() {
        // 32KB 2-way IL1, 32KB 8-way DL1, 4KB 1-way fast, 256KB 8-way L2,
        // 8MB 16-way L3.
        let _ = CacheConfig::new(32 * 1024, 2, 64, 2);
        let _ = CacheConfig::new(32 * 1024, 8, 64, 2);
        let _ = CacheConfig::new(4 * 1024, 1, 64, 1);
        let _ = CacheConfig::new(256 * 1024, 8, 64, 8);
        let _ = CacheConfig::new(8 * 1024 * 1024, 16, 64, 32);
    }
}
