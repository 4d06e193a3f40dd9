//! Property tests for the synthetic trace generator.

use proptest::prelude::*;

use hetsim_trace::profile::{BranchBehavior, InstMix, MemoryBehavior, WorkloadProfile};
use hetsim_trace::stream::TraceGenerator;
use hetsim_trace::{apps, cache, fuzz, OpClass};

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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

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
