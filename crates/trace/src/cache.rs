//! The trace store behind design-space sweeps.
//!
//! A [`crate::stream::TraceGenerator`] stream is a pure function of
//! `(profile, seed, thread)` — it does not depend on the core design being
//! simulated. Campaign sweeps (e.g. the paper's Figure 7: 14 apps x 11
//! designs) therefore regenerate the *identical* instruction stream once
//! per design, and generation is a large fraction of simulator wall time
//! (the stream's RNG-driven control flow defeats the host branch
//! predictor). [`replay`] generates each stream once while something will
//! read it, keeps it packed at 8 bytes an instruction, and hands out
//! [`CachedTrace`]s that read the packed records in place, so a sweep pays
//! for generation once. A record keeps the low half of its load/store
//! address, and its chunk keeps the high half, which in a generated stream
//! is the thread's index (see [`crate::stream::THREAD_ADDRESS_STRIDE`]).
//!
//! # Equivalence
//!
//! A replay holds exactly a prefix of the generator's stream. Callers
//! state an upper bound on how many records the run can read (committed
//! instructions plus the steering peek past the last of them); the store
//! materializes at least that many, so the simulated core observes the
//! same instruction at every position as it would from a fresh generator.
//! Requests beyond `MAX_CACHED_INSTS` (8M) fall back to streaming
//! generation rather than holding giant traces resident.
//!
//! # Branch outcomes
//!
//! The core trains its branch predictor at dispatch, in program order, on
//! every branch it dispatches. Whether a branch mispredicts is therefore a
//! pure function of the stream prefix up to it and the
//! [`PredictorConfig`], the same for every design that shares the config.
//! A stream keeps one predictor walk per config that dispatched from it:
//! the first dispatch to reach a chunk walks the predictor over it and
//! records one mispredict bit per record, and every later replay reads the
//! bits. All the designs of a campaign row share one walk, and the bits
//! are freed with their stream.
//!
//! # A stream lives while something will read it
//!
//! The store's index holds weak handles. The streams of a `(profile,
//! seed)`, one per thread, stay stored while a [`Pin`] on the pair or a
//! [`CachedTrace`] of one of them lives. A campaign job pins the streams
//! its run reads when it is built and drops the pins once it has run or hit
//! the result cache, so a campaign submitted row by row holds the streams
//! of the rows its workers are in and leaves none behind. A pin builds no
//! generator: the first replay to reach a stream generates it. Each stream
//! has its own lock, so a thread that asks for a stream another is
//! generating waits for it, and the index lock is never held while
//! generating. A stream grows by whole chunks of `CHUNK` (4096) records
//! that never change once published, so extending it neither copies nor
//! disturbs a prefix others replay.
//!
//! The store carries no observations: it holds only pure functions of its
//! keys (the outcome bits, of the key and the predictor config), and
//! replaying a stored stream is indistinguishable from generating it
//! afresh. Two campaigns sharing the process can therefore never see each
//! other's numbers through it.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering::Relaxed};
use std::sync::{Arc, Mutex, Weak};

use crate::isa::{BranchInfo, Inst, OpClass};
use crate::predictor::{PredictorConfig, TournamentPredictor};
use crate::profile::WorkloadProfile;
use crate::stream::TraceGenerator;

/// Longest per-thread trace worth materializing (beyond this, streaming
/// regeneration beats holding the trace resident).
const MAX_CACHED_INSTS: u64 = 8_000_000;

/// Records per chunk, the unit a stream grows by: small enough that
/// rounding each stream up to whole chunks generates little extra, large
/// enough that dispatch rarely crosses into the next chunk.
const CHUNK: usize = 4096;

/// The store every thread of the process shares.
static STORE: Store = Store::new();

/// One [`Inst`] in 8 bytes, as a chunk keeps it. `meta` holds both
/// producer distances (bits 0–11 and 12–23; 0 for none), the op class
/// (bits 24–27), the target kind (bits 28–30: none, address, branch,
/// call or return) and the taken bit (bit 31). `low` holds the branch
/// pc or the low half of the load/store address; the chunk keeps the
/// high half once for all its addresses.
#[derive(Debug, Clone, Copy, Default)]
struct Packed {
    meta: u32,
    low: u32,
}

const _: () = assert!(std::mem::size_of::<Packed>() == 8);

/// Width of one producer distance; the generator clamps distances to
/// 1–4095.
const DIST_BITS: u32 = 12;
const MAX_DIST: u32 = (1 << DIST_BITS) - 1;
const OP_SHIFT: u32 = 24;
const KIND_SHIFT: u32 = 28;
const TAKEN: u32 = 1 << 31;

/// Target kinds.
const NO_TARGET: u32 = 0;
const ADDRESS: u32 = 1;
const BRANCH: u32 = 2;
const CALL: u32 = 3;
const RETURN: u32 = 4;

/// One [`Inst`] as dispatch, the steering peek, the predictor walks and
/// the iterator read it: a packed record and the high half of its
/// chunk's addresses.
#[derive(Debug, Clone, Copy)]
pub struct Record {
    packed: Packed,
    high: u32,
}

impl Record {
    /// Packs `inst`, with the high half of its address (0 for an
    /// instruction without one).
    ///
    /// # Panics
    ///
    /// Panics, naming the field, on an instruction the packed form cannot
    /// hold: a producer distance outside 1–4095, a branch pc at or above
    /// 2^32, a branch that is both a call and a return, or an address and
    /// a branch together (the generator emits none of these).
    fn pack(inst: Inst) -> Record {
        let dist = |field: &str, d: Option<u32>| match d {
            None => 0,
            Some(d @ 1..=MAX_DIST) => d,
            Some(d) => panic!("{field} {d} is outside the packed range 1..={MAX_DIST}"),
        };
        let mut meta = dist("src1_dist", inst.src1_dist)
            | dist("src2_dist", inst.src2_dist) << DIST_BITS
            | (inst.op as u32) << OP_SHIFT;
        let (kind, target) = match (inst.addr, inst.branch) {
            (None, None) => (NO_TARGET, 0),
            (Some(addr), None) => (ADDRESS, addr),
            (None, Some(b)) => {
                assert!(b.pc >> 32 == 0, "branch pc {:#x} is at or above 2^32", b.pc);
                if b.taken {
                    meta |= TAKEN;
                }
                let kind = match (b.is_call, b.is_return) {
                    (false, false) => BRANCH,
                    (true, false) => CALL,
                    (false, true) => RETURN,
                    (true, true) => panic!("a branch sets is_call or is_return, not both"),
                };
                (kind, b.pc)
            }
            (Some(_), Some(_)) => panic!("an instruction has an addr or a branch, not both"),
        };
        Record {
            packed: Packed {
                meta: meta | kind << KIND_SHIFT,
                low: target as u32,
            },
            high: (target >> 32) as u32,
        }
    }

    fn kind(self) -> u32 {
        self.packed.meta >> KIND_SHIFT & 0b111
    }

    /// The operation class.
    #[inline]
    pub fn op(self) -> OpClass {
        OpClass::ALL[(self.packed.meta >> OP_SHIFT & 0xF) as usize]
    }

    /// Distance to the first source operand's producer, if it has one.
    #[inline]
    pub fn src1(self) -> Option<u32> {
        let d = self.packed.meta & MAX_DIST;
        (d != 0).then_some(d)
    }

    /// Distance to the second source operand's producer, if it has one.
    #[inline]
    pub fn src2(self) -> Option<u32> {
        let d = self.packed.meta >> DIST_BITS & MAX_DIST;
        (d != 0).then_some(d)
    }

    /// The load/store address, or 0 for an instruction without one.
    #[inline]
    pub fn addr(self) -> u64 {
        if self.kind() == ADDRESS {
            u64::from(self.high) << 32 | u64::from(self.packed.low)
        } else {
            0
        }
    }

    /// Whether one of the source operands was produced `distance`
    /// instructions earlier.
    #[inline]
    pub fn reads_at(self, distance: u32) -> bool {
        let meta = self.packed.meta;
        (distance != 0)
            & ((meta & MAX_DIST == distance) | (meta >> DIST_BITS & MAX_DIST == distance))
    }

    fn branch(self) -> Option<BranchInfo> {
        let kind = self.kind();
        matches!(kind, BRANCH | CALL | RETURN).then_some(BranchInfo {
            pc: u64::from(self.packed.low),
            taken: self.packed.meta & TAKEN != 0,
            is_call: kind == CALL,
            is_return: kind == RETURN,
        })
    }

    /// The instruction this record packs.
    pub fn unpack(self) -> Inst {
        Inst {
            op: self.op(),
            src1_dist: self.src1(),
            src2_dist: self.src2(),
            addr: (self.kind() == ADDRESS).then(|| self.addr()),
            branch: self.branch(),
        }
    }
}

/// A whole chunk of packed records, and the high half that every
/// address among them shares; immutable once published.
#[derive(Debug)]
struct Chunk {
    records: [Packed; CHUNK],
    high: u32,
}

impl Chunk {
    /// Packs the first [`CHUNK`] of `insts`, padding a shorter list.
    ///
    /// # Panics
    ///
    /// As [`Record::pack`], or if two addresses among them differ in
    /// their high half.
    fn pack(insts: impl IntoIterator<Item = Inst>) -> Arc<Chunk> {
        let mut records = [Packed::default(); CHUNK];
        let mut high = None;
        for (slot, inst) in records.iter_mut().zip(insts) {
            let record = Record::pack(inst);
            if inst.addr.is_some() {
                let shared = *high.get_or_insert(record.high);
                assert!(
                    record.high == shared,
                    "addr {:#x} differs in its high half from its chunk's earlier addresses ({shared:#x})",
                    record.addr()
                );
            }
            *slot = record.packed;
        }
        let high = high.unwrap_or(0);
        Arc::new(Chunk { records, high })
    }

    /// Record `i`.
    #[inline]
    fn record(&self, i: usize) -> Record {
        Record {
            packed: self.records[i],
            high: self.high,
        }
    }

    /// Every record, padding included, in order.
    fn records(&self) -> impl Iterator<Item = Record> + '_ {
        (0..CHUNK).map(|i| self.record(i))
    }
}

/// One chunk's mispredict bits, bit `i % 64` of word `i / 64` for record
/// `i`; 0 for every record that is not a branch.
type Outcomes = [u64; CHUNK / 64];

/// One predictor config's walk over a stream in program order: the
/// outcome bits of every chunk walked so far, and the predictor trained
/// on every branch of those chunks.
#[derive(Debug, Clone)]
struct Walk {
    config: PredictorConfig,
    /// `None` once a stored stream is walked to its end (see
    /// [`Stream::outcomes`]); retrained from the first record if the
    /// stream grows.
    predictor: Option<TournamentPredictor>,
    outcomes: Vec<Arc<Outcomes>>,
}

impl Walk {
    /// The walk of `config` among `walks`, started if there is none.
    fn of<'a>(walks: &'a mut Vec<Walk>, config: &PredictorConfig) -> &'a mut Walk {
        let i = match walks.iter().position(|w| w.config == *config) {
            Some(i) => i,
            None => {
                walks.push(Walk {
                    config: *config,
                    predictor: None,
                    outcomes: Vec::new(),
                });
                walks.len() - 1
            }
        };
        &mut walks[i]
    }

    /// The outcome bits of chunk `c`, walking every chunk up to it that
    /// no earlier call walked; `chunks[i - first]` is chunk `i`.
    fn through(&mut self, c: usize, chunks: &[Arc<Chunk>], first: usize) -> Arc<Outcomes> {
        let chunk_at = |i: usize| {
            i.checked_sub(first)
                .and_then(|i| chunks.get(i))
                .expect("a stream is dispatched in order")
        };
        let walked = self.outcomes.len();
        if walked > c {
            return Arc::clone(&self.outcomes[c]);
        }
        let predictor = self.predictor.get_or_insert_with(|| {
            let mut predictor = TournamentPredictor::new(self.config);
            for i in 0..walked {
                for b in chunk_at(i).records().filter_map(Record::branch) {
                    predictor.mispredicts(&b);
                }
            }
            predictor
        });
        for i in walked..=c {
            let mut bits = [0u64; CHUNK / 64];
            for (j, record) in chunk_at(i).records().enumerate() {
                if let Some(b) = record.branch() {
                    bits[j / 64] |= u64::from(predictor.mispredicts(&b)) << (j % 64);
                }
            }
            self.outcomes.push(Arc::new(bits));
        }
        Arc::clone(&self.outcomes[c])
    }
}

/// A thread's instruction stream, read by position: a stored prefix or,
/// for a request above the store bound, a [`TraceGenerator`] or a list of
/// instructions, a stream that is not stored and is packed a chunk at a
/// time as it is read.
///
/// Dispatch reads each record in place ([`CachedTrace::dispatch`]),
/// together with its mispredict bit from the stream's predictor walk,
/// and the steering peek reads the records after it
/// ([`CachedTrace::consumer_within`]). The [`Iterator`] unpacks one
/// record at a time from the start of the stream.
#[derive(Debug, Clone)]
pub struct CachedTrace {
    /// The stream's chunks from chunk `first` on.
    chunks: Vec<Arc<Chunk>>,
    first: usize,
    /// Records in the stream; `u64::MAX` for a generated stream, which
    /// never ends.
    len: u64,
    source: Source,
    /// Index of dispatch's chunk (`usize::MAX` before the first
    /// dispatch), and its records and outcome bits.
    cur: usize,
    current: Option<(Arc<Chunk>, Arc<Outcomes>)>,
    /// Position of the next record the iterator unpacks.
    next: u64,
}

#[derive(Debug, Clone)]
enum Source {
    /// A stored prefix; the stream keeps the walks every replay shares,
    /// and its family stays stored while the trace lives.
    Stored {
        _family: Arc<Family>,
        stream: Arc<Mutex<Stream>>,
    },
    /// A stream that is not stored: the generator of its next chunk
    /// (`None` for a list of instructions, packed whole) and its own
    /// walks.
    Unstored {
        generator: Option<Box<TraceGenerator>>,
        walks: Vec<Walk>,
    },
}

impl CachedTrace {
    fn new(chunks: Vec<Arc<Chunk>>, len: u64, source: Source) -> CachedTrace {
        CachedTrace {
            chunks,
            first: 0,
            len,
            source,
            cur: usize::MAX,
            current: None,
            next: 0,
        }
    }

    /// The record at `pos` and whether it is a branch that a predictor of
    /// `predictor` mispredicts, having trained on every branch before it;
    /// `None` past the end of the stream. Dispatch reads positions in
    /// order (a hazard-stalled record is read again).
    #[inline]
    pub fn dispatch(&mut self, pos: u64, predictor: &PredictorConfig) -> Option<(Record, bool)> {
        if pos >= self.len {
            return None;
        }
        let c = (pos / CHUNK as u64) as usize;
        if c != self.cur {
            self.enter(c, predictor);
        }
        let (chunk, outcomes) = self.current.as_ref()?;
        let i = pos as usize % CHUNK;
        Some((chunk.record(i), outcomes[i / 64] >> (i % 64) & 1 != 0))
    }

    /// Whether one of the `window` records after `pos` reads the value of
    /// the record at `pos`: the record `k` places on has a producer
    /// distance of `k`. The peek stops at the end of the stream.
    #[inline]
    pub fn consumer_within(&mut self, pos: u64, window: u32) -> bool {
        for k in 1..=window {
            let at = pos + u64::from(k);
            if at >= self.len {
                return false;
            }
            if self.record(at).reads_at(k) {
                return true;
            }
        }
        false
    }

    /// The record at `pos`, which must lie before the end of the stream.
    #[inline]
    fn record(&mut self, pos: u64) -> Record {
        let (c, i) = ((pos / CHUNK as u64) as usize, pos as usize % CHUNK);
        match &self.current {
            Some((chunk, _)) if c == self.cur => chunk.record(i),
            _ => self.chunk(c).record(i),
        }
    }

    /// Moves dispatch to chunk `c`: its records, and its outcome bits
    /// under `predictor`, walked first if no earlier dispatch reached it.
    #[inline(never)]
    fn enter(&mut self, c: usize, predictor: &PredictorConfig) {
        // Validate before taking the stream's lock, so that a bad config
        // panics here and cannot poison the stream.
        if let Err(e) = predictor.validate() {
            panic!("invalid predictor: {e}");
        }
        let chunk = Arc::clone(self.chunk(c));
        let outcomes = match &mut self.source {
            Source::Stored { stream, .. } => stream
                .lock()
                .expect("no thread panicked while walking")
                .outcomes(predictor, c),
            Source::Unstored { walks, .. } => {
                Walk::of(walks, predictor).through(c, &self.chunks, self.first)
            }
        };
        self.cur = c;
        self.current = Some((chunk, outcomes));
    }

    /// Chunk `c`, generated first if the stream is generated as it is
    /// read. Such a stream keeps only the chunks dispatch and the
    /// steering peek can still reach: dispatch's chunk and those after
    /// it, or, before dispatch starts, the chunk before the newest.
    fn chunk(&mut self, c: usize) -> &Arc<Chunk> {
        if let Source::Unstored {
            generator: Some(generator),
            ..
        } = &mut self.source
        {
            while self.first + self.chunks.len() <= c {
                let newest = self.first + self.chunks.len();
                let keep = self.cur.min(newest.saturating_sub(1)).max(self.first);
                self.chunks.drain(..keep - self.first);
                self.first = keep;
                self.chunks.push(Chunk::pack(generator.take(CHUNK)));
            }
        }
        c.checked_sub(self.first)
            .and_then(|i| self.chunks.get(i))
            .expect("a stream is read in order, within its length")
    }
}

impl Iterator for CachedTrace {
    type Item = Inst;

    fn next(&mut self) -> Option<Inst> {
        if self.next >= self.len {
            return None;
        }
        let inst = self.record(self.next).unpack();
        self.next += 1;
        Some(inst)
    }
}

impl From<TraceGenerator> for CachedTrace {
    /// The generator's stream, packed a chunk at a time as it is read
    /// and never stored.
    fn from(generator: TraceGenerator) -> CachedTrace {
        let source = Source::Unstored {
            generator: Some(Box::new(generator)),
            walks: Vec::new(),
        };
        CachedTrace::new(Vec::new(), u64::MAX, source)
    }
}

impl From<Vec<Inst>> for CachedTrace {
    /// A stream of exactly these instructions, not stored.
    ///
    /// # Panics
    ///
    /// As [`Record`] packing, or if two addresses in one chunk of 4096
    /// instructions differ in their high half.
    fn from(insts: Vec<Inst>) -> CachedTrace {
        let chunks = insts
            .chunks(CHUNK)
            .map(|part| Chunk::pack(part.iter().copied()))
            .collect();
        let source = Source::Unstored {
            generator: None,
            walks: Vec::new(),
        };
        CachedTrace::new(chunks, insts.len() as u64, source)
    }
}

/// The instruction stream of `thread` for `(profile, seed)`, guaranteed to
/// hold at least `min_len` records (the stored prefix is extended on
/// demand, shared by every thread of the process, and kept while the
/// trace or a [`Pin`] on `(profile, seed)` lives).
///
/// `min_len` must upper-bound the positions the caller will read; the
/// stream may end just past it (an unstored stream, served above the store
/// bound, never ends).
///
/// # Panics
///
/// Panics if the profile fails validation.
pub fn replay(profile: &WorkloadProfile, seed: u64, thread: u32, min_len: u64) -> CachedTrace {
    STORE.replay(profile, seed, thread, min_len)
}

/// Pins the streams of `(profile, seed)`, every thread's: while the pin
/// lives, each one a replay generates stays stored for the replays after
/// it. Taking a pin builds no generator.
pub fn pin(profile: &WorkloadProfile, seed: u64) -> Pin {
    STORE.pin(profile, seed)
}

/// A hold on the streams of one `(profile, seed)` (see [`pin`]).
#[derive(Debug)]
pub struct Pin(Arc<Family>);

impl Drop for Pin {
    fn drop(&mut self) {
        self.0.pins.fetch_sub(1, Relaxed);
    }
}

/// What the process's store holds and has done. Tests read it to check
/// that campaign jobs pin every stream they replay and leave none stored.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StoreStats {
    /// `(profile, seed)` pairs whose streams a pin or a trace holds.
    pub families: usize,
    /// Records generated since the process started.
    pub generated: u64,
    /// Replays that found no pin on their `(profile, seed)`.
    pub unpinned_replays: u64,
}

/// The process's [`StoreStats`].
pub fn stats() -> StoreStats {
    STORE.stats()
}

/// Streams by `(profile, seed)`, and what the store has done.
struct Store {
    /// A weak handle on each family; lookups drop the dead ones.
    index: Mutex<Vec<Weak<Family>>>,
    generated: AtomicU64,
    unpinned: AtomicU64,
}

/// The streams of one `(profile, seed)`, by thread, and its pin count.
#[derive(Debug)]
struct Family {
    profile: WorkloadProfile,
    seed: u64,
    pins: AtomicUsize,
    streams: Mutex<Vec<(u32, Arc<Mutex<Stream>>)>>,
}

#[derive(Debug)]
struct Stream {
    /// Generator positioned exactly `chunks.len() * CHUNK` draws into the
    /// stream.
    generator: TraceGenerator,
    chunks: Vec<Arc<Chunk>>,
    /// One walk per predictor config that has dispatched from the stream.
    walks: Vec<Walk>,
}

impl Stream {
    /// The outcome bits of chunk `c` under `config`, walked by the first
    /// replay to reach it. A walk that reaches the last stored chunk
    /// frees its predictor: most streams never grow again, and one
    /// predictor per stream and config would outweigh the bits.
    fn outcomes(&mut self, config: &PredictorConfig, c: usize) -> Arc<Outcomes> {
        let walk = Walk::of(&mut self.walks, config);
        let bits = walk.through(c, &self.chunks, 0);
        if walk.outcomes.len() == self.chunks.len() {
            walk.predictor = None;
        }
        bits
    }
}

impl Store {
    const fn new() -> Store {
        Store {
            index: Mutex::new(Vec::new()),
            generated: AtomicU64::new(0),
            unpinned: AtomicU64::new(0),
        }
    }

    fn pin(&self, profile: &WorkloadProfile, seed: u64) -> Pin {
        let family = self.family(profile, seed);
        family.pins.fetch_add(1, Relaxed);
        Pin(family)
    }

    fn replay(
        &self,
        profile: &WorkloadProfile,
        seed: u64,
        thread: u32,
        min_len: u64,
    ) -> CachedTrace {
        if min_len > MAX_CACHED_INSTS {
            return TraceGenerator::for_thread(profile, seed, thread).into();
        }
        // Validate before taking any lock, so that a bad profile panics
        // here and cannot poison the store.
        profile.validate().expect("valid workload profile");
        let family = self.family(profile, seed);
        if family.pins.load(Relaxed) == 0 {
            self.unpinned.fetch_add(1, Relaxed);
        }
        let mut streams = family.streams.lock().expect("family lock");
        let stream = match streams.iter().find(|(t, _)| *t == thread) {
            Some((_, stream)) => Arc::clone(stream),
            None => {
                let stream = Arc::new(Mutex::new(Stream {
                    generator: TraceGenerator::for_thread(profile, seed, thread),
                    chunks: Vec::new(),
                    walks: Vec::new(),
                }));
                streams.push((thread, Arc::clone(&stream)));
                stream
            }
        };
        drop(streams);
        let chunks = min_len.div_ceil(CHUNK as u64) as usize;
        let mut guard = stream.lock().expect("no thread panicked while generating");
        let Stream {
            generator,
            chunks: stored,
            ..
        } = &mut *guard;
        while stored.len() < chunks {
            stored.push(Chunk::pack(generator.take(CHUNK)));
            self.generated.fetch_add(CHUNK as u64, Relaxed);
        }
        let prefix = stored[..chunks].to_vec();
        drop(guard);
        let len = (chunks * CHUNK) as u64;
        let source = Source::Stored {
            _family: family,
            stream,
        };
        CachedTrace::new(prefix, len, source)
    }

    /// The family of `(profile, seed)`, started empty if no pin or trace
    /// holds one. The newest families are searched first: the jobs of a
    /// campaign row pin the families its first job started.
    fn family(&self, profile: &WorkloadProfile, seed: u64) -> Arc<Family> {
        let mut index = self.index.lock().expect("index lock");
        index.retain(|family| family.strong_count() > 0);
        let mut live = index.iter().rev().filter_map(Weak::upgrade);
        let found = live.find(|f| f.seed == seed && f.profile == *profile);
        found.unwrap_or_else(|| {
            let family = Arc::new(Family {
                profile: profile.clone(),
                seed,
                pins: AtomicUsize::new(0),
                streams: Mutex::default(),
            });
            index.push(Arc::downgrade(&family));
            family
        })
    }

    fn stats(&self) -> StoreStats {
        let index = self.index.lock().expect("index lock");
        StoreStats {
            families: index.iter().filter(|f| f.strong_count() > 0).count(),
            generated: self.generated.load(Relaxed),
            unpinned_replays: self.unpinned.load(Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use std::sync::Barrier;

    use super::*;
    use crate::{apps, fuzz};

    #[test]
    fn replay_matches_fresh_generator() {
        let profile = apps::profile("fft").expect("fft exists");
        let fresh: Vec<Inst> = TraceGenerator::for_thread(&profile, 77, 2)
            .take(4000)
            .collect();
        let cached: Vec<Inst> = replay(&profile, 77, 2, 4000).take(4000).collect();
        assert_eq!(fresh, cached);
    }

    #[test]
    fn prefix_extends_in_place_and_stays_consistent() {
        let profile = apps::profile("lu").expect("lu exists");
        let store = Store::new();
        let short_trace = store.replay(&profile, 5, 0, 100);
        let long_trace = store.replay(&profile, 5, 0, 3 * CHUNK as u64 + 5);
        // Extension appends chunks; the prefix is the same allocation.
        assert!(Arc::ptr_eq(&short_trace.chunks[0], &long_trace.chunks[0]));
        assert_eq!(long_trace.chunks.len(), 4);
        let short: Vec<Inst> = short_trace.take(100).collect();
        let long: Vec<Inst> = long_trace.collect();
        assert_eq!(short, long[..100]);
        let fresh: Vec<Inst> = TraceGenerator::for_thread(&profile, 5, 0)
            .take(long.len())
            .collect();
        assert_eq!(long, fresh);
    }

    #[test]
    fn distinct_seeds_and_threads_do_not_collide() {
        let profile = apps::profile("fft").expect("fft exists");
        let a: Vec<Inst> = replay(&profile, 1, 0, 500).take(500).collect();
        let b: Vec<Inst> = replay(&profile, 2, 0, 500).take(500).collect();
        let c: Vec<Inst> = replay(&profile, 1, 1, 500).take(500).collect();
        assert_ne!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn a_stream_lives_while_a_pin_or_a_trace_holds_it() {
        let profile = apps::profile("fft").expect("fft exists");
        let store = Store::new();
        let expect: Vec<Inst> = TraceGenerator::for_thread(&profile, 100, 0)
            .take(200)
            .collect();
        let replayed = || -> Vec<Inst> { store.replay(&profile, 100, 0, 200).take(200).collect() };
        let stats = |families, chunks, unpinned_replays| StoreStats {
            families,
            generated: chunks * CHUNK as u64,
            unpinned_replays,
        };
        let pin = store.pin(&profile, 100);
        assert_eq!(store.stats(), stats(1, 0, 0), "a pin generates nothing");
        // However many threads replay a pinned stream, it is generated
        // once, and it outlives their traces.
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| assert_eq!(replayed(), expect));
            }
        });
        assert_eq!(store.stats(), stats(1, 1, 0));
        // Without the pin, a live trace still holds the stream.
        let trace = store.replay(&profile, 100, 0, 200);
        drop(pin);
        assert_eq!(replayed(), expect);
        assert_eq!(store.stats(), stats(1, 1, 1));
        // Once the last trace drops, the store holds no records, and the
        // next replay generates the same ones again.
        drop(trace);
        assert_eq!(store.stats(), stats(0, 1, 1));
        assert_eq!(replayed(), expect);
        assert_eq!(store.stats(), stats(0, 2, 2));
    }

    #[test]
    fn oversized_requests_stream_instead_of_materializing() {
        let profile = apps::profile("fft").expect("fft exists");
        let store = Store::new();
        let n = 2 * CHUNK + 5;
        let streamed: Vec<Inst> = store
            .replay(&profile, 3, 0, MAX_CACHED_INSTS + 1)
            .take(n)
            .collect();
        let fresh: Vec<Inst> = TraceGenerator::for_thread(&profile, 3, 0).take(n).collect();
        assert_eq!(fresh, streamed);
        assert_eq!(store.stats().generated, 0);
        assert!(store.index.lock().expect("index").is_empty());
    }

    #[test]
    fn concurrent_requests_generate_each_stream_once() {
        let profile = apps::profile("radix").expect("radix exists");
        let (seed, thread) = (9, 3);
        let store = Store::new();
        let _pin = store.pin(&profile, seed);
        let c = CHUNK as u64;
        // Mixed lengths, including extensions that cross chunk boundaries.
        let requests = [1, c - 1, c, c + 1, 2 * c + 17, 3 * c, 5 * c - 3, 4 * c + 1];
        let longest = *requests.iter().max().expect("requests");
        let fresh: Vec<Inst> = TraceGenerator::for_thread(&profile, seed, thread)
            .take(longest.div_ceil(c) as usize * CHUNK)
            .collect();
        let check = |trace: CachedTrace, min_len: u64| {
            let got: Vec<Inst> = trace.collect();
            assert!(got.len() as u64 >= min_len, "{} < {min_len}", got.len());
            assert!(
                got == fresh[..got.len()],
                "replay differs from the fresh prefix"
            );
        };
        // Replays taken before the extensions start, iterated while they run.
        let early: Vec<CachedTrace> = (0..4)
            .map(|_| store.replay(&profile, seed, thread, c / 2))
            .collect();
        let start = Barrier::new(requests.len() + early.len());
        std::thread::scope(|s| {
            for &n in &requests {
                let (store, profile, start) = (&store, &profile, &start);
                s.spawn(move || {
                    start.wait();
                    for len in [n, n / 2 + 1, n] {
                        check(store.replay(profile, seed, thread, len), len);
                    }
                });
            }
            for trace in early {
                let start = &start;
                s.spawn(move || {
                    start.wait();
                    check(trace, c / 2);
                });
            }
        });
        assert_eq!(
            store.stats().generated,
            longest.div_ceil(c) * c,
            "every record generated exactly once"
        );
    }

    #[test]
    fn replays_of_a_stream_share_one_walk_per_config() {
        let profile = apps::profile("raytrace").expect("raytrace exists");
        let store = Store::new();
        let n = 2 * CHUNK as u64 + 7;
        let default = PredictorConfig::default();
        let small = PredictorConfig {
            ras_entries: 2,
            ..default
        };
        let dispatch_all = |cfg: &PredictorConfig| {
            let mut trace = store.replay(&profile, 4, 0, n);
            for pos in 0..n {
                trace.dispatch(pos, cfg).expect("within the prefix");
            }
            trace
        };
        let outcomes =
            |trace: &CachedTrace| Arc::clone(&trace.current.as_ref().expect("dispatched").1);
        let (a, b, c) = (
            dispatch_all(&default),
            dispatch_all(&default),
            dispatch_all(&small),
        );
        assert!(
            Arc::ptr_eq(&outcomes(&a), &outcomes(&b)),
            "one walk per config"
        );
        assert!(!Arc::ptr_eq(&outcomes(&a), &outcomes(&c)));
        let Source::Stored { stream, .. } = &a.source else {
            panic!("a stored prefix")
        };
        let stream = stream.lock().expect("stream");
        assert_eq!(stream.walks.len(), 2);
        for walk in &stream.walks {
            assert_eq!(walk.outcomes.len(), 3, "every stored chunk walked");
            assert!(walk.predictor.is_none(), "freed at the stored end");
        }
    }

    #[test]
    fn an_unstored_stream_keeps_only_the_chunks_dispatch_can_reach() {
        let profile = apps::profile("fft").expect("fft exists");
        let cfg = PredictorConfig::default();
        let mut trace: CachedTrace = TraceGenerator::new(&profile, 1).into();
        let expect: Vec<Inst> = TraceGenerator::new(&profile, 1).take(5 * CHUNK).collect();
        for (pos, inst) in expect.iter().enumerate() {
            let (record, _) = trace.dispatch(pos as u64, &cfg).expect("endless");
            assert_eq!(record.unpack(), *inst);
            trace.consumer_within(pos as u64, 4);
            assert!(
                trace.chunks.len() <= 2,
                "{} chunks at {pos}",
                trace.chunks.len()
            );
        }
        assert_eq!(trace.first, 4);
    }

    #[test]
    fn packing_round_trips_every_field() {
        // Fuzzed profiles across threads 0-7 and 1000 reach every op
        // class, both producer distances, addresses above 2^32 (the kept
        // high half up to 1000) and calls/returns.
        let (mut ops, mut src2, mut high_addr, mut calls, mut returns) =
            ([false; 9], false, false, false, false);
        for seed in 0..4 {
            let profile = fuzz::workload(seed);
            for thread in (0..8).chain([1000]) {
                let insts: Vec<Inst> = TraceGenerator::for_thread(&profile, seed, thread)
                    .take(5000)
                    .collect();
                let trace = CachedTrace::from(insts.clone());
                assert!(trace.eq(insts.iter().copied()), "thread {thread}");
                for inst in insts {
                    assert_eq!(Record::pack(inst).unpack(), inst);
                    ops[inst.op as usize] = true;
                    src2 |= inst.src2_dist.is_some();
                    high_addr |= inst.addr.is_some_and(|a| a >> 32 == 1000);
                    calls |= inst.branch.is_some_and(|b| b.is_call);
                    returns |= inst.branch.is_some_and(|b| b.is_return);
                }
            }
        }
        assert_eq!(ops, [true; 9], "every op class seen");
        assert!(src2 && high_addr && calls && returns);
    }

    /// An integer ALU op whose first operand's producer is `src1_dist`
    /// instructions earlier.
    fn alu(src1_dist: u32) -> Inst {
        Inst {
            src1_dist: Some(src1_dist),
            ..Inst::simple(OpClass::IntAlu)
        }
    }

    /// A branch at `pc`.
    fn branch(pc: u64, is_call: bool, is_return: bool) -> Inst {
        let info = BranchInfo {
            pc,
            taken: true,
            is_call,
            is_return,
        };
        Inst {
            branch: Some(info),
            ..Inst::simple(OpClass::Branch)
        }
    }

    #[test]
    fn the_packed_distance_range_is_1_to_4095() {
        for d in [1, 4095] {
            assert_eq!(Record::pack(alu(d)).unpack(), alu(d));
            assert!(Record::pack(alu(d)).reads_at(d));
        }
        assert!(!Record::pack(Inst::simple(OpClass::IntAlu)).reads_at(0));
    }

    #[test]
    #[should_panic(expected = "src1_dist 0 is outside")]
    fn a_producer_distance_of_0_does_not_pack() {
        Record::pack(alu(0));
    }

    #[test]
    #[should_panic(expected = "src2_dist 4096 is outside")]
    fn a_producer_distance_of_4096_does_not_pack() {
        Record::pack(Inst {
            src2_dist: Some(4096),
            ..alu(1)
        });
    }

    #[test]
    #[should_panic(expected = "is_call or is_return, not both")]
    fn a_call_that_is_also_a_return_does_not_pack() {
        Record::pack(branch(0x4000_0000, true, true));
    }

    #[test]
    #[should_panic(expected = "branch pc 0x100000000 is at or above 2^32")]
    fn a_branch_pc_at_or_above_2_pow_32_does_not_pack() {
        let below = branch(u64::from(u32::MAX), false, true);
        assert_eq!(Record::pack(below).unpack(), below);
        Record::pack(branch(1 << 32, false, false));
    }

    #[test]
    #[should_panic(expected = "addr 0x200000010 differs in its high half")]
    fn addresses_of_one_chunk_share_their_high_half() {
        let load = |addr: u64| Inst {
            addr: Some(addr),
            ..Inst::simple(OpClass::Load)
        };
        // The next chunk may take another high half.
        let mut insts = vec![load(1 << 32); CHUNK];
        insts.push(load(2 << 32));
        let trace = CachedTrace::from(insts.clone());
        assert!(trace.eq(insts.iter().copied()));
        insts[CHUNK - 1] = load((2 << 32) + 16);
        let _ = CachedTrace::from(insts);
    }
}
