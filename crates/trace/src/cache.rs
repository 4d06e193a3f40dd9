//! The process-wide trace store behind design-space sweeps.
//!
//! A [`crate::stream::TraceGenerator`] stream is a pure function of
//! `(profile, seed, thread)` — it does not depend on the core design being
//! simulated. Campaign sweeps (e.g. the paper's Figure 7: 14 apps x 11
//! designs) therefore regenerate the *identical* instruction stream once
//! per design, and generation is a large fraction of simulator wall time
//! (the stream's RNG-driven control flow defeats the host branch
//! predictor). [`replay`] generates each stream once per process, keeps
//! it packed at 16 bytes an instruction, and hands out cheap replay
//! iterators over it, so a sweep pays for generation once.
//!
//! # Equivalence
//!
//! A replay yields exactly a prefix of the generator's stream. Callers
//! state an upper bound on how many instructions the run can pull
//! (committed instructions plus any lookahead the dispatch stage keeps);
//! the store materializes at least that many, so the simulated core
//! observes the same instruction at every pull as it would from a fresh
//! generator. Requests beyond `MAX_CACHED_INSTS` (8M) fall back to
//! streaming generation rather than holding giant traces resident.
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
//! holds only pure functions of its keys, and replaying a stored stream is
//! indistinguishable from generating it afresh. Two campaigns sharing the
//! process can therefore never see each other's numbers through it.

use std::sync::{Arc, Mutex};

use crate::isa::{BranchInfo, Inst, OpClass};
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
/// enough that a replay rarely crosses into the next chunk.
const CHUNK: usize = 4096;

/// The store every thread of the process shares.
static STORE: Store = Store::new(MAX_TOTAL_INSTS);

/// One [`Inst`] in 16 bytes. `target` holds the load/store address or
/// the branch pc. `meta` holds both producer distances (bits 0–15 and
/// 16–31), the op class (bits 32–35) and the presence and branch flags
/// (bits 36–42).
#[derive(Debug, Clone, Copy)]
struct Packed {
    target: u64,
    meta: u64,
}

const _: () = assert!(std::mem::size_of::<Packed>() == 16);

const OP_SHIFT: u32 = 32;
const HAS_SRC1: u64 = 1 << 36;
const HAS_SRC2: u64 = 1 << 37;
const HAS_ADDR: u64 = 1 << 38;
const HAS_BRANCH: u64 = 1 << 39;
const TAKEN: u64 = 1 << 40;
const IS_CALL: u64 = 1 << 41;
const IS_RETURN: u64 = 1 << 42;

impl Packed {
    /// Packs `inst`.
    ///
    /// # Panics
    ///
    /// Panics if a producer distance exceeds `u16::MAX` (the generator
    /// clamps them to 4095) or if `inst` carries both an address and a
    /// branch (the generator never emits one).
    fn pack(inst: Inst) -> Packed {
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
        Packed { target, meta }
    }

    #[inline]
    fn unpack(self) -> Inst {
        let m = self.meta;
        let flag = |bit: u64| m & bit != 0;
        Inst {
            op: OpClass::ALL[((m >> OP_SHIFT) & 0xF) as usize],
            src1_dist: flag(HAS_SRC1).then_some(u32::from(m as u16)),
            src2_dist: flag(HAS_SRC2).then_some(u32::from((m >> 16) as u16)),
            addr: flag(HAS_ADDR).then_some(self.target),
            branch: flag(HAS_BRANCH).then_some(BranchInfo {
                pc: self.target,
                taken: flag(TAKEN),
                is_call: flag(IS_CALL),
                is_return: flag(IS_RETURN),
            }),
        }
    }
}

/// A whole chunk of packed records; immutable once published.
type Chunk = [Packed; CHUNK];

/// Records a replay unpacks at a time; whole batches tile a chunk.
const BATCH: usize = 64;

const _: () = assert!(CHUNK.is_multiple_of(BATCH));

/// An iterator over a thread's instruction stream: a replay of the stored
/// prefix or, for a request above the store bound, a stream generated one
/// chunk at a time and never stored.
#[derive(Debug, Clone)]
pub struct CachedTrace {
    chunks: Vec<Arc<Chunk>>,
    /// Next record to unpack.
    pos: usize,
    /// Generates the next chunk of an unstored stream once the replay
    /// reaches it; `None` for a stored prefix.
    fresh: Option<Box<TraceGenerator>>,
    /// Unpacked records; `unpacked[head..]` are still to be returned.
    unpacked: Vec<Inst>,
    head: usize,
}

impl CachedTrace {
    fn new(chunks: Vec<Arc<Chunk>>, fresh: Option<Box<TraceGenerator>>) -> CachedTrace {
        CachedTrace {
            chunks,
            pos: 0,
            fresh,
            unpacked: Vec::with_capacity(BATCH),
            head: 0,
        }
    }

    /// Unpacks the next [`BATCH`] records (generating a chunk first if an
    /// unstored stream needs one); `None` at the end of a stored prefix.
    #[inline(never)]
    fn unpack_batch(&mut self) -> Option<()> {
        if self.pos / CHUNK == self.chunks.len() {
            let generator = self.fresh.as_mut()?;
            self.chunks = vec![generate_chunk(generator)];
            self.pos = 0;
        }
        let start = self.pos % CHUNK;
        let batch = &self.chunks[self.pos / CHUNK][start..start + BATCH];
        self.unpacked.clear();
        self.unpacked.extend(batch.iter().map(|p| p.unpack()));
        self.pos += BATCH;
        self.head = 0;
        Some(())
    }
}

impl Iterator for CachedTrace {
    type Item = Inst;

    // `next` only copies out an unpacked record; unpacking stays out of
    // line. The CPU core's pull loop is generic over its trace, so each
    // caller compiles its own copy, and with the unpack inlined into it
    // some copies ran 2-13% slower.
    #[inline]
    fn next(&mut self) -> Option<Inst> {
        if self.head == self.unpacked.len() {
            self.unpack_batch()?;
        }
        let inst = self.unpacked.get(self.head).copied();
        self.head += 1;
        inst
    }
}

/// The next [`CHUNK`] records of `generator`'s stream.
fn generate_chunk(generator: &mut TraceGenerator) -> Arc<Chunk> {
    let chunk: Arc<[Packed]> = generator.take(CHUNK).map(Packed::pack).collect();
    chunk.try_into().expect("the generator is infinite")
}

/// The instruction stream of `thread` for `(profile, seed)`, guaranteed to
/// yield at least `min_len` instructions before ending (the stored prefix
/// is extended on demand and shared by every thread of the process).
///
/// `min_len` must upper-bound the number of instructions the caller will
/// pull; pulls past it may see the stream end early (an unstored stream,
/// served above the store bound, never ends).
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

struct Stream {
    /// Generator positioned exactly `chunks.len() * CHUNK` draws into the
    /// stream.
    generator: TraceGenerator,
    chunks: Vec<Arc<Chunk>>,
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
            let generator = TraceGenerator::for_thread(profile, seed, thread);
            return CachedTrace::new(Vec::new(), Some(Box::new(generator)));
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
        } = &mut *guard;
        while stored.len() < chunks {
            stored.push(generate_chunk(generator));
            #[cfg(test)]
            self.generated
                .fetch_add(CHUNK as u64, std::sync::atomic::Ordering::Relaxed);
        }
        CachedTrace::new(stored[..chunks].to_vec(), None)
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
    fn packing_round_trips_every_field() {
        // Fuzzed profiles across threads 0-7 reach every op class, both
        // producer distances, addresses above 2^32 and calls/returns.
        let (mut ops, mut src2, mut high_addr, mut calls, mut returns) =
            ([false; 9], false, false, false, false);
        for seed in 0..4 {
            let profile = fuzz::workload(seed);
            for thread in 0..8 {
                for inst in TraceGenerator::for_thread(&profile, seed, thread).take(5000) {
                    assert_eq!(Packed::pack(inst).unpack(), inst);
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
