//! The process-wide trace store behind design-space sweeps.
//!
//! A [`crate::stream::TraceGenerator`] stream is a pure function of
//! `(profile, seed, thread)` — it does not depend on the core design being
//! simulated. Campaign sweeps (e.g. the paper's Figure 7: 14 apps x 11
//! designs) therefore regenerate the *identical* instruction stream once
//! per design, and generation is a large fraction of simulator wall time
//! (the stream's RNG-driven control flow defeats the host branch
//! predictor). [`replay`] generates each stream once per process, keeps
//! it packed at 16 bytes an instruction, and hands out [`CachedTrace`]s
//! that read the packed records in place, so a sweep pays for generation
//! once.
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
//! are evicted with their stream.
//!
//! # One store per process
//!
//! Every worker thread, batch and runner in the process shares one store,
//! so a stream that several workers replay is generated once, not once
//! per worker. Each stream has its own lock: a thread that asks for a
//! stream another thread is generating waits for it instead of generating
//! it again, and the index lock, which spans streams, is never held while
//! generating. A stream grows by whole chunks of `CHUNK` (4096) records
//! that never change once published, so extending a stream neither copies
//! nor disturbs the prefix other threads are replaying. Beyond
//! `MAX_TOTAL_INSTS` (64M) resident records, least-recently-used streams
//! are evicted whole.
//!
//! The store is process-wide state, but it carries no observations: it
//! holds only pure functions of its keys (the outcome bits, of the key and
//! the predictor config), and replaying a stored stream is
//! indistinguishable from generating it afresh. Two campaigns sharing the
//! process can therefore never see each other's numbers through it.

use std::sync::{Arc, Mutex};

use crate::isa::{BranchInfo, Inst, OpClass};
use crate::predictor::{PredictorConfig, TournamentPredictor};
use crate::profile::WorkloadProfile;
use crate::stream::TraceGenerator;

/// Total records kept resident across all streams. A full campaign (14
/// apps x serial + parallel seeds at figure scale) sums to a few tens of
/// millions, so a whole sweep — including its repeat runs — replays from
/// memory; beyond the budget, least-recently-used streams are evicted
/// whole.
const MAX_TOTAL_INSTS: u64 = 64_000_000;

/// Longest per-thread trace worth materializing (beyond this, streaming
/// regeneration beats holding the trace resident).
const MAX_CACHED_INSTS: u64 = 8_000_000;

/// Records per chunk, the unit a stream grows by: small enough that
/// rounding each stream up to whole chunks generates little extra, large
/// enough that dispatch rarely crosses into the next chunk.
const CHUNK: usize = 4096;

/// The store every thread of the process shares.
static STORE: Store = Store::new(MAX_TOTAL_INSTS);

/// One [`Inst`] in 16 bytes, as the store keeps it and dispatch reads it.
/// `target` holds the load/store address or the branch pc. `meta` holds
/// both producer distances (bits 0–15 and 16–31), the op class (bits
/// 32–35) and the presence and branch flags (bits 36–42); an absent
/// distance reads 0.
#[derive(Debug, Clone, Copy, Default)]
pub struct Record {
    target: u64,
    meta: u64,
}

const _: () = assert!(std::mem::size_of::<Record>() == 16);

const OP_SHIFT: u32 = 32;
const HAS_SRC1: u64 = 1 << 36;
const HAS_SRC2: u64 = 1 << 37;
const HAS_ADDR: u64 = 1 << 38;
const HAS_BRANCH: u64 = 1 << 39;
const TAKEN: u64 = 1 << 40;
const IS_CALL: u64 = 1 << 41;
const IS_RETURN: u64 = 1 << 42;

impl Record {
    /// Packs `inst`.
    ///
    /// # Panics
    ///
    /// Panics if a producer distance exceeds `u16::MAX` (the generator
    /// clamps them to 4095) or if `inst` carries both an address and a
    /// branch (the generator never emits one).
    fn pack(inst: Inst) -> Record {
        let dist =
            |d: u32| u64::from(u16::try_from(d).expect("generator clamps distances to 4095"));
        let mut meta = (inst.op as u64) << OP_SHIFT;
        if let Some(d) = inst.src1_dist {
            meta |= HAS_SRC1 | dist(d);
        }
        if let Some(d) = inst.src2_dist {
            meta |= HAS_SRC2 | dist(d) << 16;
        }
        let target = match (inst.addr, inst.branch) {
            (None, None) => 0,
            (Some(addr), None) => {
                meta |= HAS_ADDR;
                addr
            }
            (None, Some(b)) => {
                let bit = |set: bool, flag: u64| if set { flag } else { 0 };
                meta |= HAS_BRANCH
                    | bit(b.taken, TAKEN)
                    | bit(b.is_call, IS_CALL)
                    | bit(b.is_return, IS_RETURN);
                b.pc
            }
            (Some(_), Some(_)) => panic!("an instruction has an address or a branch, not both"),
        };
        Record { target, meta }
    }

    /// The operation class.
    #[inline]
    pub fn op(self) -> OpClass {
        OpClass::ALL[((self.meta >> OP_SHIFT) & 0xF) as usize]
    }

    /// Distance to the first source operand's producer, if it has one.
    #[inline]
    pub fn src1(self) -> Option<u32> {
        (self.meta & HAS_SRC1 != 0).then_some(u32::from(self.meta as u16))
    }

    /// Distance to the second source operand's producer, if it has one.
    #[inline]
    pub fn src2(self) -> Option<u32> {
        (self.meta & HAS_SRC2 != 0).then_some(u32::from((self.meta >> 16) as u16))
    }

    /// The load/store address, or 0 for an instruction without one.
    #[inline]
    pub fn addr(self) -> u64 {
        if self.meta & HAS_ADDR != 0 {
            self.target
        } else {
            0
        }
    }

    /// Whether one of the source operands was produced `distance`
    /// instructions earlier.
    #[inline]
    pub fn reads_at(self, distance: u32) -> bool {
        (self.src1() == Some(distance)) | (self.src2() == Some(distance))
    }

    fn branch(self) -> Option<BranchInfo> {
        let flag = |bit: u64| self.meta & bit != 0;
        flag(HAS_BRANCH).then_some(BranchInfo {
            pc: self.target,
            taken: flag(TAKEN),
            is_call: flag(IS_CALL),
            is_return: flag(IS_RETURN),
        })
    }

    /// The instruction this record packs.
    pub fn unpack(self) -> Inst {
        Inst {
            op: self.op(),
            src1_dist: self.src1(),
            src2_dist: self.src2(),
            addr: (self.meta & HAS_ADDR != 0).then_some(self.target),
            branch: self.branch(),
        }
    }
}

/// A whole chunk of packed records; immutable once published.
type Chunk = [Record; CHUNK];

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
                for b in chunk_at(i).iter().filter_map(|r| r.branch()) {
                    predictor.mispredicts(&b);
                }
            }
            predictor
        });
        for i in walked..=c {
            let mut bits = [0u64; CHUNK / 64];
            for (j, record) in chunk_at(i).iter().enumerate() {
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
    /// A stored prefix; the stream keeps the walks every replay shares.
    Stored(Arc<Mutex<Stream>>),
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
        Some((chunk[i], outcomes[i / 64] >> (i % 64) & 1 != 0))
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
            Some((chunk, _)) if c == self.cur => chunk[i],
            _ => self.chunk(c)[i],
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
            Source::Stored(stream) => stream
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
                self.chunks.push(generate_chunk(generator));
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
    /// As [`Record`] packing: a producer distance above `u16::MAX`, or an
    /// instruction with both an address and a branch.
    fn from(insts: Vec<Inst>) -> CachedTrace {
        let chunks = insts
            .chunks(CHUNK)
            .map(|part| {
                let padded = part.iter().map(|&inst| Record::pack(inst));
                let chunk: Arc<[Record]> = padded
                    .chain(std::iter::repeat(Record::default()))
                    .take(CHUNK)
                    .collect();
                chunk.try_into().expect("padded to a whole chunk")
            })
            .collect();
        let source = Source::Unstored {
            generator: None,
            walks: Vec::new(),
        };
        CachedTrace::new(chunks, insts.len() as u64, source)
    }
}

/// The next [`CHUNK`] records of `generator`'s stream.
fn generate_chunk(generator: &mut TraceGenerator) -> Arc<Chunk> {
    let chunk: Arc<[Record]> = generator.take(CHUNK).map(Record::pack).collect();
    chunk.try_into().expect("the generator is infinite")
}

/// The instruction stream of `thread` for `(profile, seed)`, guaranteed to
/// hold at least `min_len` records (the stored prefix is extended on
/// demand and shared by every thread of the process).
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

/// A budgeted set of streams keyed by `(profile, seed, thread)`.
struct Store {
    /// Most records the entries may hold together.
    budget: u64,
    index: Mutex<Index>,
    /// Records generated over the store's life.
    #[cfg(test)]
    generated: std::sync::atomic::AtomicU64,
}

struct Index {
    /// LRU clock (monotonic use counter).
    clock: u64,
    /// Sum of the entries' `len`.
    resident: u64,
    entries: Vec<Entry>,
}

struct Entry {
    profile: WorkloadProfile,
    seed: u64,
    thread: u32,
    /// Records the stream has been asked to hold (whole chunks).
    len: u64,
    /// LRU stamp.
    stamp: u64,
    stream: Arc<Mutex<Stream>>,
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
    const fn new(budget: u64) -> Store {
        Store {
            budget,
            index: Mutex::new(Index {
                clock: 0,
                resident: 0,
                entries: Vec::new(),
            }),
            #[cfg(test)]
            generated: std::sync::atomic::AtomicU64::new(0),
        }
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
        let chunks = min_len.div_ceil(CHUNK as u64) as usize;
        let stream = self.reserve(profile, seed, thread, (chunks * CHUNK) as u64);
        let mut guard = stream.lock().expect("no thread panicked while generating");
        let Stream {
            generator,
            chunks: stored,
            ..
        } = &mut *guard;
        while stored.len() < chunks {
            stored.push(generate_chunk(generator));
            #[cfg(test)]
            self.generated
                .fetch_add(CHUNK as u64, std::sync::atomic::Ordering::Relaxed);
        }
        let prefix = stored[..chunks].to_vec();
        drop(guard);
        let len = (chunks * CHUNK) as u64;
        CachedTrace::new(prefix, len, Source::Stored(stream))
    }

    /// The stream of `(profile, seed, thread)`, with its entry grown to
    /// `len` records. Evicts least-recently-used streams (never this
    /// one) until the growth fits the budget. Streams an eviction drops
    /// stay alive for the threads still replaying them.
    fn reserve(
        &self,
        profile: &WorkloadProfile,
        seed: u64,
        thread: u32,
        len: u64,
    ) -> Arc<Mutex<Stream>> {
        let mut index = self
            .index
            .lock()
            .expect("the store index is never held across a panic");
        let Index {
            clock,
            resident,
            entries,
        } = &mut *index;
        *clock += 1;
        let mut idx = match entries
            .iter()
            .position(|e| e.seed == seed && e.thread == thread && e.profile == *profile)
        {
            Some(i) => i,
            None => {
                entries.push(Entry {
                    profile: profile.clone(),
                    seed,
                    thread,
                    len: 0,
                    stamp: 0,
                    stream: Arc::new(Mutex::new(Stream {
                        generator: TraceGenerator::for_thread(profile, seed, thread),
                        chunks: Vec::new(),
                        walks: Vec::new(),
                    })),
                });
                entries.len() - 1
            }
        };
        let grow = len.saturating_sub(entries[idx].len);
        while *resident + grow > self.budget && entries.len() > 1 {
            let lru = entries
                .iter()
                .enumerate()
                .filter(|&(i, _)| i != idx)
                .min_by_key(|(_, e)| e.stamp)
                .map(|(i, _)| i)
                .expect("more than one entry");
            *resident -= entries[lru].len;
            // `swap_remove` relocates only the old last element (to `lru`).
            entries.swap_remove(lru);
            if idx == entries.len() {
                idx = lru;
            }
        }
        let entry = &mut entries[idx];
        entry.stamp = *clock;
        entry.len += grow;
        *resident += grow;
        Arc::clone(&entry.stream)
    }
}

#[cfg(test)]
mod tests {
    use std::sync::atomic::Ordering;
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
        let store = Store::new(MAX_TOTAL_INSTS);
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
    fn eviction_keeps_the_cache_bounded_and_correct() {
        let profile = apps::profile("fft").expect("fft exists");
        let budget = 3 * CHUNK as u64;
        let store = Store::new(budget);
        let expect: Vec<Inst> = TraceGenerator::for_thread(&profile, 100, 0)
            .take(200)
            .collect();
        let first: Vec<Inst> = store.replay(&profile, 100, 0, 200).take(200).collect();
        // Cycle enough streams through a small budget to force whole-stream
        // evictions, then re-request the original: it must regenerate the
        // same stream from scratch.
        for seed in 200..220 {
            let _ = store.replay(&profile, seed, 0, CHUNK as u64 + 1);
            let index = store.index.lock().expect("index");
            assert!(index.resident <= budget, "{} > {budget}", index.resident);
            assert_eq!(
                index.resident,
                index.entries.iter().map(|e| e.len).sum::<u64>()
            );
        }
        let before = store.generated.load(Ordering::Relaxed);
        let again: Vec<Inst> = store.replay(&profile, 100, 0, 200).take(200).collect();
        assert_eq!(
            store.generated.load(Ordering::Relaxed),
            before + CHUNK as u64
        );
        assert_eq!(first, expect);
        assert_eq!(again, expect);
    }

    #[test]
    fn oversized_requests_stream_instead_of_materializing() {
        let profile = apps::profile("fft").expect("fft exists");
        let store = Store::new(MAX_TOTAL_INSTS);
        let n = 2 * CHUNK + 5;
        let streamed: Vec<Inst> = store
            .replay(&profile, 3, 0, MAX_CACHED_INSTS + 1)
            .take(n)
            .collect();
        let fresh: Vec<Inst> = TraceGenerator::for_thread(&profile, 3, 0).take(n).collect();
        assert_eq!(fresh, streamed);
        assert_eq!(store.generated.load(Ordering::Relaxed), 0);
        assert!(store.index.lock().expect("index").entries.is_empty());
    }

    #[test]
    fn concurrent_requests_generate_each_stream_once() {
        let profile = apps::profile("radix").expect("radix exists");
        let (seed, thread) = (9, 3);
        let store = Store::new(MAX_TOTAL_INSTS);
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
            store.generated.load(Ordering::Relaxed),
            longest.div_ceil(c) * c,
            "every record generated exactly once"
        );
    }

    #[test]
    fn replays_of_a_stream_share_one_walk_per_config() {
        let profile = apps::profile("raytrace").expect("raytrace exists");
        let store = Store::new(MAX_TOTAL_INSTS);
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
        let Source::Stored(stream) = &a.source else {
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
        // Fuzzed profiles across threads 0-7 reach every op class, both
        // producer distances, addresses above 2^32 and calls/returns.
        let (mut ops, mut src2, mut high_addr, mut calls, mut returns) =
            ([false; 9], false, false, false, false);
        for seed in 0..4 {
            let profile = fuzz::workload(seed);
            for thread in 0..8 {
                for inst in TraceGenerator::for_thread(&profile, seed, thread).take(5000) {
                    assert_eq!(Record::pack(inst).unpack(), inst);
                    ops[inst.op as usize] = true;
                    src2 |= inst.src2_dist.is_some();
                    high_addr |= inst.addr.is_some_and(|a| a >= 1 << 32);
                    calls |= inst.branch.is_some_and(|b| b.is_call);
                    returns |= inst.branch.is_some_and(|b| b.is_return);
                }
            }
        }
        assert_eq!(ops, [true; 9], "every op class seen");
        assert!(src2 && high_addr && calls && returns);
    }
}
