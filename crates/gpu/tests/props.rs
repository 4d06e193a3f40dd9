//! Property tests for the GPU model: the generated `merge`/`minus`/
//! `iter()` of the counter struct obey their declared per-field policies
//! for arbitrary counter values, and a launch's work counters scale
//! exactly with its wavefront count (the condition the per-launch
//! kernel decode in `hetsim_gpu::cu` relies on).

use proptest::prelude::*;

use hetsim_gpu::config::{PartitionedRfConfig, RfCacheConfig};
use hetsim_gpu::stats::GpuStats;
use hetsim_gpu::{Gpu, GpuConfig, KernelProfile};

/// One value per [`GpuStats`] counter, bounded well below overflow so
/// merged sums stay exact.
fn counter_values() -> impl Strategy<Value = Vec<u64>> {
    let fields = GpuStats::default().iter().count();
    proptest::collection::vec(0u64..(1 << 32), fields)
}

/// Builds a [`GpuStats`] by assigning each generated value through the
/// name-addressed `set`.
fn stats_from(values: &[u64]) -> GpuStats {
    let mut s = GpuStats::default();
    for ((name, _), v) in GpuStats::default().iter().zip(values) {
        assert!(s.set(&name, *v), "unknown counter {name}");
    }
    s
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// `merge` then `minus` round-trips every sum/sub counter; `cycles`
    /// (max/keep, compute units run in parallel) is the one exception.
    #[test]
    fn gpu_stats_merge_then_minus_round_trips(a in counter_values(), b in counter_values()) {
        let sa = stats_from(&a);
        let sb = stats_from(&b);
        let mut merged = sa;
        merged.merge(&sb);
        let diff = merged.minus(&sa);
        for (name, value) in diff.iter() {
            if name == "cycles" {
                continue;
            }
            prop_assert_eq!(Some(value), sb.get(&name), "counter {}", name);
        }
        prop_assert_eq!(merged.cycles, sa.cycles.max(sb.cycles), "cycles merge by max");
    }

    /// `iter()` names are unique, value-independent, and every pair is
    /// addressable back through `get`.
    #[test]
    fn gpu_stats_iter_names_are_stable_and_unique(a in counter_values()) {
        let s = stats_from(&a);
        let names: Vec<String> = s.iter().map(|(n, _)| n).collect();
        let default_names: Vec<String> =
            GpuStats::default().iter().map(|(n, _)| n).collect();
        prop_assert_eq!(&names, &default_names, "names do not depend on values");
        let mut dedup = names.clone();
        dedup.sort();
        dedup.dedup();
        prop_assert_eq!(dedup.len(), names.len(), "names are unique");
        for (name, value) in s.iter() {
            prop_assert_eq!(s.get(&name), Some(value), "get({}) addresses iter()", name);
        }
    }
}

/// A random kernel: any length, any op mix, dependence density, register
/// reuse and miss rate. Its wavefront count is set per launch.
fn kernel_profiles() -> impl Strategy<Value = KernelProfile> {
    (
        1u32..300,
        (0.0f64..1.0, 0.0f64..1.0, 0.0f64..1.0),
        0.0f64..1.0,
        0.0f64..1.0,
        0.0f64..1.0,
    )
        .prop_map(
            |(insts, (valu, mem, lds), dep_prob, reg_reuse, mem_miss_rate)| {
                let mem_frac = (1.0 - valu) * mem;
                KernelProfile {
                    name: "prop",
                    insts_per_wavefront: insts,
                    wavefronts: 1,
                    valu_frac: valu,
                    mem_frac,
                    lds_frac: (1.0 - valu - mem_frac) * lds,
                    dep_prob,
                    reg_reuse,
                    mem_miss_rate,
                }
            },
        )
}

/// A random valid configuration: an RF cache, a partitioned RF or
/// neither; 1–10 resident wavefronts; a lane count dividing 64.
fn gpu_configs() -> impl Strategy<Value = GpuConfig> {
    (
        (0u32..3, 1u32..9, 1u32..4, 0u32..49),
        (1u32..17, 0usize..7, 1u32..11),
        (1u32..8, 1u32..4, 1u32..10, 1u32..40, 1u32..300),
    )
        .prop_map(
            |(
                (rf_kind, entries, rf_side_latency, fast_regs),
                (compute_units, lanes_log2, waves_per_cu),
                (fma_latency, rf_latency, lds_latency, mem_hit_latency, mem_miss_latency),
            )| GpuConfig {
                compute_units,
                lanes_per_cu: 1 << lanes_log2,
                waves_per_cu,
                fma_latency,
                rf_latency,
                rf_cache: (rf_kind == 1).then_some(RfCacheConfig {
                    entries,
                    latency: rf_side_latency,
                }),
                rf_partition: (rf_kind == 2).then_some(PartitionedRfConfig {
                    fast_regs,
                    fast_latency: rf_side_latency,
                }),
                lds_latency,
                mem_hit_latency,
                mem_miss_latency,
                ..GpuConfig::default()
            },
        )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Every wavefront of a launch runs the same stream from pc 0 with a
    /// fresh RF cache, so every counter except `cycles` (timing) and
    /// `dram_accesses` (misses are hashed per wavefront) of a W-wave
    /// launch is W times that of a one-wave launch of the same kernel.
    #[test]
    fn launch_work_counters_scale_with_wavefronts(
        kernel in kernel_profiles(),
        cfg in gpu_configs(),
        waves in 2u32..40,
        seed in any::<u64>(),
    ) {
        let gpu = Gpu::new(cfg);
        let one = gpu.run(&kernel, seed).stats;
        let many = gpu.run(&KernelProfile { wavefronts: waves, ..kernel }, seed).stats;
        for (name, value) in many.iter() {
            if name == "cycles" || name == "dram_accesses" {
                continue;
            }
            let per_wave = one.get(&name).expect("same counter set");
            prop_assert_eq!(value, u64::from(waves) * per_wave, "counter {}", name);
        }
    }
}
