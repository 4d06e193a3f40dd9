//! Property tests for the synthetic trace generator and the trace
//! store's front end: in-place records, the steering peek and the
//! per-stream branch outcome table.

use std::collections::VecDeque;

use proptest::prelude::*;
use proptest::TestCaseError;

use hetsim_trace::cache::CachedTrace;
use hetsim_trace::predictor::{PredictorConfig, TournamentPredictor};
use hetsim_trace::profile::{BranchBehavior, InstMix, MemoryBehavior, WorkloadProfile};
use hetsim_trace::stream::TraceGenerator;
use hetsim_trace::{apps, cache, fuzz, Inst, OpClass};

fn arbitrary_profile() -> impl Strategy<Value = WorkloadProfile> {
    (
        1.0f64..16.0,     // mean_dep_distance
        0.0f64..1.0,      // spatial
        0.0f64..1.0,      // temporal
        0.5f64..1.0,      // bias
        0.0f64..1.0,      // loop fraction
        2u32..64,         // loop period
        16u64..(4 << 20), // working set
    )
        .prop_map(
            |(k, spatial, temporal, bias, loop_fraction, loop_period, ws)| WorkloadProfile {
                name: "prop",
                suite: "prop",
                mix: InstMix {
                    int_alu: 0.30,
                    int_mul: 0.02,
                    int_div: 0.01,
                    fp_add: 0.12,
                    fp_mul: 0.12,
                    fp_div: 0.02,
                    load: 0.21,
                    store: 0.09,
                    branch: 0.11,
                },
                mean_dep_distance: k,
                memory: MemoryBehavior {
                    working_set_bytes: ws.max(16 * 1024),
                    spatial,
                    temporal,
                    hot_region_bytes: 8 * 1024,
                },
                branches: BranchBehavior {
                    sites: 64,
                    bias,
                    loop_fraction,
                    loop_period,
                },
                parallel_fraction: 0.9,
                default_length: 10_000,
            },
        )
}

/// Knobs of [`predictor_config`].
type ConfigKnobs = (u32, u32, u32, u32, u32, u32, usize);

fn config_knobs() -> impl Strategy<Value = ConfigKnobs> {
    (
        0u32..3,
        0u32..4,
        0u32..6,
        0u32..6,
        0u32..4,
        0u32..3,
        0usize..3,
    )
}

/// The Table III predictor (`shape` 0), or a small valid one: 1-8 local
/// histories, 1-16 BTB entries and a RAS of at most 2 frames, so the
/// streams' call chains overflow the RAS and their branch sites thrash
/// the BTB.
fn predictor_config(knobs: ConfigKnobs) -> PredictorConfig {
    let (shape, local, history, global, btb, ways, ras) = knobs;
    if shape == 0 {
        return PredictorConfig::default();
    }
    let btb_entries = 1usize << btb;
    PredictorConfig {
        local_entries: 1 << local,
        local_history_bits: history,
        global_history_bits: global,
        btb_entries,
        btb_ways: (1usize << ways).min(btb_entries),
        ras_entries: ras,
    }
}

/// Whether each instruction is a branch that a live predictor of `cfg`
/// mispredicts when it is trained at dispatch in program order, as the
/// core's dispatch did before the outcomes were tabulated.
fn live_walk(insts: &[Inst], cfg: PredictorConfig) -> Vec<bool> {
    let mut p = TournamentPredictor::new(cfg);
    insts
        .iter()
        .map(|inst| {
            let Some(b) = inst.branch else {
                return false;
            };
            if b.is_call {
                p.push_call();
                p.update(b.pc, true);
                return false;
            }
            if b.is_return {
                return !p.pop_return();
            }
            let pred = p.predict(b.pc);
            p.update(b.pc, b.taken);
            pred.taken != b.taken || (b.taken && pred.taken && !pred.target_known)
        })
        .collect()
}

/// Dispatches positions `0..insts.len()` of `trace` under `cfg` and checks
/// every record and mispredict bit against `insts` and `expect`.
fn dispatch_matches(
    trace: &mut CachedTrace,
    cfg: &PredictorConfig,
    insts: &[Inst],
    expect: &[bool],
) -> Result<(), TestCaseError> {
    for (pos, (inst, want)) in insts.iter().zip(expect).enumerate() {
        let (record, mispredicted) = trace.dispatch(pos as u64, cfg).expect("within the stream");
        prop_assert_eq!(record.unpack(), *inst, "record {}", pos);
        prop_assert_eq!(mispredicted, *want, "mispredict bit of record {}", pos);
    }
    Ok(())
}

/// The steering lookahead as the core kept it before dispatch read the
/// trace in place: a queue refilled to `window + 1` instructions (fewer
/// at the end of the trace), popped at each dispatch, then searched for
/// a consumer of the popped instruction.
fn queued_peeks(insts: &[Inst], window: u32) -> Vec<bool> {
    let mut trace = insts.iter().copied();
    let mut lookahead: VecDeque<Inst> = VecDeque::new();
    let mut ended = false;
    let mut peeks = Vec::new();
    loop {
        while !ended && lookahead.len() <= window as usize {
            match trace.next() {
                Some(inst) => lookahead.push_back(inst),
                None => ended = true,
            }
        }
        if lookahead.pop_front().is_none() {
            return peeks;
        }
        let consumer = (1..=window).any(|k| {
            lookahead
                .get((k - 1) as usize)
                .is_some_and(|next| next.src1_dist == Some(k) || next.src2_dist == Some(k))
        });
        peeks.push(consumer);
    }
}

/// Checks `trace`'s in-place peek against `expect` at every position,
/// dispatching each position first as the core does.
fn peeks_match(trace: &mut CachedTrace, window: u32, expect: &[bool]) -> Result<(), TestCaseError> {
    let cfg = PredictorConfig::default();
    for (pos, want) in expect.iter().enumerate() {
        let pos = pos as u64;
        trace.dispatch(pos, &cfg).expect("within the stream");
        prop_assert_eq!(trace.consumer_within(pos, window), *want, "peek at {}", pos);
    }
    Ok(())
}

#[test]
fn small_configs_overflow_the_ras_and_thrash_the_btb() {
    // The fuzzed streams these properties use reach call chains deeper
    // than a 2-frame RAS and more taken branch sites than a 16-entry BTB.
    let (mut deep, mut sites) = (0, 0);
    for seed in 0..4 {
        let profile = fuzz::workload(seed);
        let mut depth = 0i64;
        let mut taken = std::collections::BTreeSet::new();
        for inst in TraceGenerator::new(&profile, seed).take(12_000) {
            let Some(b) = inst.branch else { continue };
            depth += i64::from(b.is_call) - i64::from(b.is_return);
            deep = deep.max(depth);
            if b.taken {
                taken.insert(b.pc);
            }
        }
        sites = sites.max(taken.len());
    }
    assert!(deep > 2, "deepest call chain {deep}");
    assert!(sites > 16, "{sites} taken branch sites");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The outcome table equals a live predictor walk for every source
    /// of a stream: a stored prefix requested whole, an unstored
    /// generator and a list of instructions.
    #[test]
    fn outcome_bits_equal_a_live_walk(
        profile_seed in any::<u64>(),
        seed in any::<u64>(),
        thread in 0u32..8,
        n in 1usize..14_000,
        knobs in config_knobs(),
    ) {
        let profile = fuzz::workload(profile_seed);
        let cfg = predictor_config(knobs);
        let insts: Vec<Inst> = TraceGenerator::for_thread(&profile, seed, thread).take(n).collect();
        let expect = live_walk(&insts, cfg);
        let sources = [
            cache::replay(&profile, seed, thread, n as u64),
            TraceGenerator::for_thread(&profile, seed, thread).into(),
            insts.clone().into(),
        ];
        for mut trace in sources {
            dispatch_matches(&mut trace, &cfg, &insts, &expect)?;
        }
    }

    /// A stored stream grown in pieces across chunk boundaries, each
    /// replay dispatching its whole prefix, reads the same outcome bits
    /// as a live walk: chunks walked by earlier replays are shared, and
    /// the walk resumes where the stream grew.
    #[test]
    fn outcome_bits_of_a_stream_grown_in_pieces_equal_a_live_walk(
        profile_seed in any::<u64>(),
        seed in any::<u64>(),
        pieces in proptest::collection::vec(1usize..6_000, 1..5),
        knobs in config_knobs(),
    ) {
        let profile = fuzz::workload(profile_seed);
        let cfg = predictor_config(knobs);
        let total: usize = pieces.iter().sum();
        let insts: Vec<Inst> = TraceGenerator::new(&profile, seed).take(total).collect();
        let expect = live_walk(&insts, cfg);
        let mut len = 0;
        for piece in pieces {
            len += piece;
            let mut trace = cache::replay(&profile, seed, 0, len as u64);
            dispatch_matches(&mut trace, &cfg, &insts[..len], &expect[..len])?;
        }
    }

    /// The in-place steering peek equals the old queued lookahead at
    /// every position, including the last `window` records of a stream,
    /// for a list of instructions, a stored prefix (which ends at a chunk
    /// boundary) and an unstored generator.
    #[test]
    fn the_in_place_peek_equals_the_queued_lookahead(
        profile_seed in any::<u64>(),
        seed in any::<u64>(),
        n in 1usize..10_000,
        window in 1u32..9,
    ) {
        let profile = fuzz::workload(profile_seed);
        let insts: Vec<Inst> = TraceGenerator::new(&profile, seed).take(n).collect();
        peeks_match(&mut insts.clone().into(), window, &queued_peeks(&insts, window))?;

        let stored: Vec<Inst> = cache::replay(&profile, seed, 0, n as u64).collect();
        prop_assert!(stored.len() >= n);
        let expect = queued_peeks(&stored, window);
        peeks_match(&mut cache::replay(&profile, seed, 0, n as u64), window, &expect)?;

        // A generator never ends: the queue's peeks hold wherever the
        // queue did not reach the end of `stored`.
        let endless = &expect[..stored.len() - window as usize];
        peeks_match(&mut TraceGenerator::new(&profile, seed).into(), window, endless)?;
    }

    /// Any valid profile yields a deterministic, well-formed stream.
    #[test]
    fn generator_is_total_and_deterministic(profile in arbitrary_profile(), seed in any::<u64>()) {
        let a: Vec<_> = TraceGenerator::new(&profile, seed).take(2000).collect();
        let b: Vec<_> = TraceGenerator::new(&profile, seed).take(2000).collect();
        prop_assert_eq!(&a, &b);
        for (i, inst) in a.iter().enumerate() {
            // Producer distances never reach before the start of the trace
            // in spirit: they are clamped and at least 1.
            for d in inst.source_distances() {
                prop_assert!(d >= 1);
                prop_assert!(d <= 4095);
            }
            match inst.op {
                OpClass::Load | OpClass::Store => prop_assert!(inst.addr.is_some(), "inst {i}"),
                OpClass::Branch => prop_assert!(inst.branch.is_some(), "inst {i}"),
                _ => {
                    prop_assert!(inst.addr.is_none());
                    prop_assert!(inst.branch.is_none());
                }
            }
        }
    }

    /// Memory addresses stay inside the thread's working-set window.
    #[test]
    fn addresses_stay_in_bounds(profile in arbitrary_profile(), thread in 0u32..8) {
        let base = u64::from(thread) * hetsim_trace::stream::THREAD_ADDRESS_STRIDE;
        for inst in TraceGenerator::for_thread(&profile, 3, thread).take(3000) {
            if let Some(addr) = inst.addr {
                prop_assert!(addr >= base);
                prop_assert!(addr < base + profile.memory.working_set_bytes);
            }
        }
    }

    /// Calls and returns stay balanced in every prefix.
    #[test]
    fn calls_and_returns_balance(seed in any::<u64>()) {
        let profile = apps::profile("barnes").expect("known app");
        let mut depth: i64 = 0;
        for inst in TraceGenerator::new(&profile, seed).take(20_000) {
            if let Some(b) = inst.branch {
                if b.is_call { depth += 1; }
                if b.is_return { depth -= 1; }
                prop_assert!(depth >= 0, "return without call");
            }
        }
    }

    /// A stored replay yields exactly the fresh generator's prefix, for
    /// fuzzed profiles, any seed and threads 0-7: every op class, both
    /// producer distances, addresses above 2^32 and calls/returns survive
    /// the packed trace store.
    #[test]
    fn stored_replay_equals_the_fresh_stream(
        profile_seed in any::<u64>(),
        seed in any::<u64>(),
        thread in 0u32..8,
        n in 1usize..12_000,
    ) {
        let profile = fuzz::workload(profile_seed);
        let stored: Vec<_> = cache::replay(&profile, seed, thread, n as u64).take(n).collect();
        let fresh: Vec<_> = TraceGenerator::for_thread(&profile, seed, thread).take(n).collect();
        prop_assert_eq!(stored, fresh);
    }

    /// The realized instruction mix tracks the profile's weights for every
    /// named application.
    #[test]
    fn named_profiles_track_their_mix(seed in any::<u64>(), idx in 0usize..14) {
        let profile = &apps::all()[idx];
        let n = 30_000;
        let trace: Vec<_> = TraceGenerator::new(profile, seed).take(n).collect();
        let loads = trace.iter().filter(|i| i.op == OpClass::Load).count() as f64 / n as f64;
        prop_assert!((loads - profile.mix.load).abs() < 0.03,
            "{}: load fraction {} vs {}", profile.name, loads, profile.mix.load);
    }
}
