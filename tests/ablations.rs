//! The four design ablations of DESIGN.md §5, asserted as orderings —
//! the values move with any model change; the directions are the
//! claims. Every run is 40,000 instructions after a 20,000-instruction
//! warmup, at seed 42.

use hetcore_repro::hetcore::config::CpuDesign;
use hetcore_repro::hetsim_cpu::config::{CoreConfig, MemoryConfig, SteeringPolicy};
use hetcore_repro::hetsim_cpu::core::{Core, RunResult};
use hetcore_repro::hetsim_cpu::fu::FuPoolConfig;
use hetcore_repro::hetsim_device::scaling::PowerAssumption;
use hetcore_repro::hetsim_gpu::config::{GpuConfig, RfCacheConfig};
use hetcore_repro::hetsim_gpu::gpu::Gpu;
use hetcore_repro::hetsim_gpu::kernels;
use hetcore_repro::hetsim_mem::asymmetric::{AsymHit, AsymmetricCache};
use hetcore_repro::hetsim_mem::cache::CacheConfig;
use hetcore_repro::hetsim_power::account::CpuEnergyModel;
use hetcore_repro::hetsim_trace::stream::TraceGenerator;
use hetcore_repro::hetsim_trace::{apps, OpClass};

const SEED: u64 = 42;
const INSTS: u64 = 40_000;
const WARMUP: u64 = 20_000;

/// One warmed run of `lu` on a core configured as `cfg`.
fn run_lu(cfg: CoreConfig) -> RunResult {
    let app = apps::profile("lu").expect("known app");
    let mut core = Core::new(cfg, 0);
    core.prewarm(0, app.memory.working_set_bytes);
    core.run_warmed(TraceGenerator::new(&app, SEED), WARMUP, INSTS)
}

fn falling(xs: &[f64]) -> bool {
    xs.windows(2).all(|w| w[0] > w[1])
}

fn rising(xs: &[f64]) -> bool {
    xs.windows(2).all(|w| w[0] < w[1])
}

#[test]
fn asymmetric_dl1_fast_hits_grow_with_the_fast_way() {
    let app = apps::profile("lu").expect("known app");
    // Fast-way size -> (slow capacity, slow ways), keeping 32 KB total
    // and a power-of-two set count.
    let rates: Vec<f64> = [(2u64, 30u64, 15u32), (4, 28, 7), (8, 24, 6)]
        .into_iter()
        .map(|(fast_kb, slow_kb, slow_ways)| {
            let mut dl1 = AsymmetricCache::new(
                CacheConfig::new(fast_kb * 1024, 1, 64, 1),
                CacheConfig::new(slow_kb * 1024, slow_ways, 64, 4),
            );
            let hits: Vec<bool> = TraceGenerator::new(&app, SEED)
                .take(120_000)
                .filter_map(|inst| Some(dl1.access(inst.addr?, inst.op == OpClass::Store).hit))
                .map(|hit| hit == AsymHit::Fast)
                .collect();
            hits.iter().filter(|&&fast| fast).count() as f64 / hits.len() as f64
        })
        .collect();
    assert!(rising(&rates), "fast-hit rates {rates:?}");

    let plain_tfet_dl1 = run_lu(CoreConfig {
        fus: FuPoolConfig::tfet(),
        memory: MemoryConfig::tfet(),
        ..CoreConfig::default()
    });
    let advhet = run_lu(CpuDesign::AdvHet.core_config());
    assert!(
        advhet.stats.cycles < plain_tfet_dl1.stats.cycles,
        "AdvHet {} cycles vs plain TFET DL1 {}",
        advhet.stats.cycles,
        plain_tfet_dl1.stats.cycles
    );
}

#[test]
fn wider_steering_windows_cut_cycles() {
    let cycles: Vec<f64> = [0u32, 2, 4, 8]
        .into_iter()
        .map(|window| {
            let steering = match window {
                0 => SteeringPolicy::None,
                window => SteeringPolicy::DualSpeed { window },
            };
            let cfg = CoreConfig {
                fus: FuPoolConfig::dual_speed(),
                memory: MemoryConfig::tfet(),
                steering,
                ..CoreConfig::default()
            };
            run_lu(cfg).stats.cycles as f64
        })
        .collect();
    assert!(falling(&cycles), "cycles {cycles:?}");
}

#[test]
fn larger_rf_caches_hit_more_and_cut_cycles() {
    let kernel = kernels::profile("matmul").expect("known kernel");
    let (cycles, hit_rates): (Vec<f64>, Vec<f64>) = [0u32, 2, 6, 12]
        .into_iter()
        .map(|entries| {
            let cfg = GpuConfig {
                fma_latency: 6,
                rf_latency: 2,
                rf_cache: (entries > 0).then_some(RfCacheConfig {
                    entries,
                    latency: 1,
                }),
                ..GpuConfig::default()
            };
            let stats = Gpu::new(cfg).run(&kernel, SEED).stats;
            (stats.cycles as f64, stats.rf_cache_hit_rate())
        })
        .unzip();
    assert!(falling(&cycles), "cycles {cycles:?}");
    assert!(rising(&hit_rates), "hit rates {hit_rates:?}");
}

#[test]
fn cheaper_tfet_power_assumptions_cut_advhet_energy() {
    let base = run_lu(CpuDesign::BaseCmos.core_config());
    let base_j = CpuDesign::BaseCmos
        .energy_model()
        .energy(&base.stats, &base.mem, base.seconds())
        .total_j();
    let advhet = run_lu(CpuDesign::AdvHet.core_config());
    let relative: Vec<f64> = [
        PowerAssumption::Conservative,
        PowerAssumption::Measured,
        PowerAssumption::Ideal,
    ]
    .into_iter()
    .map(|assumption| {
        // The same timing run, repriced under each TFET assumption.
        let mut assignment = CpuDesign::AdvHet.energy_model().assignment().clone();
        assignment.assumption = assumption;
        let model = CpuEnergyModel::new(assignment)
            .with_dual_speed_alu()
            .with_structure(192, 128);
        model
            .energy(&advhet.stats, &advhet.mem, advhet.seconds())
            .total_j()
            / base_j
    })
    .collect();
    assert!(falling(&relative), "AdvHet/BaseCMOS {relative:?}");
    assert!(relative.iter().all(|&r| r < 1.0), "{relative:?}");
}
