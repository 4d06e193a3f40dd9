//! Integration tests for the campaign-execution engine: parallel runs
//! are bit-identical to serial ones, a warm cache eliminates every
//! simulation, a torn cache record heals by re-simulation, and
//! campaigns sharing a process observe only their own jobs.

use std::path::PathBuf;

use hetcore_repro::hetcore::campaign::{cpu_job, Fingerprinted};
use hetcore_repro::hetcore::config::{CpuDesign, OperatingPoint};
use hetcore_repro::hetcore::experiment::CpuRun;
use hetcore_repro::hetcore::suite::Suite;
use hetcore_repro::hetcore::CpuOutcome;
use hetcore_repro::hetsim_runner::{ResultCache, Runner};
use hetcore_repro::hetsim_trace::apps;

fn quick() -> Suite {
    Suite {
        insts_per_app: 20_000,
        seed: 11,
    }
}

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "hetcore-campaign-test-{}-{tag}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn parallel_cpu_campaign_is_bit_identical_to_serial() {
    let s = quick();
    let serial = s.cpu_campaign_with(&Runner::serial());
    let parallel = s.cpu_campaign_with(&Runner::new(4));
    assert_eq!(serial.app_names, parallel.app_names);
    assert_eq!(serial.outcomes, parallel.outcomes);
    // The derived reports are therefore identical too — compare one
    // end-to-end through its rendered form (Report has no PartialEq).
    assert_eq!(s.fig7(&serial).to_string(), s.fig7(&parallel).to_string());
}

#[test]
fn parallel_gpu_campaign_is_bit_identical_to_serial() {
    let s = quick();
    let serial = s.gpu_campaign_with(&Runner::serial());
    let parallel = s.gpu_campaign_with(&Runner::new(4));
    assert_eq!(serial.kernel_names, parallel.kernel_names);
    assert_eq!(serial.outcomes, parallel.outcomes);
    assert_eq!(s.fig11(&serial).to_string(), s.fig11(&parallel).to_string());
}

#[test]
fn warm_disk_cache_executes_zero_simulations() {
    let s = quick();
    let dir = tmp_dir("warm");

    let cold = Runner::new(4).with_cache_dir(&dir).expect("cache dir");
    let first = s.gpu_campaign_with(&cold);
    let stats = cold.last_stats();
    assert_eq!(
        stats.executed, stats.jobs,
        "cold cache must simulate everything"
    );

    // A fresh runner (a fresh cache handle) over the same directory:
    // every job must be answered from disk, none executed.
    let warm = Runner::new(4).with_cache_dir(&dir).expect("cache dir");
    let second = s.gpu_campaign_with(&warm);
    let stats = warm.last_stats();
    assert_eq!(
        stats.executed, 0,
        "warm cache must execute zero simulations"
    );
    assert_eq!(stats.cache.disk_hits, stats.jobs);
    assert!((stats.hit_rate() - 1.0).abs() < 1e-12);
    assert_eq!(
        first.outcomes, second.outcomes,
        "cached results must match fresh ones"
    );

    std::fs::remove_dir_all(&dir).expect("cleanup");
}

#[test]
fn corrupted_cache_file_is_resimulated() {
    let s = quick();
    let dir = tmp_dir("corrupt");
    let app = Fingerprinted::new(apps::profile("lu").expect("known"));
    let point = Fingerprinted::new(CpuDesign::AdvHet.resolve(OperatingPoint::nominal(), None));
    let run = CpuRun::Chip { cores: 4 };
    let job = || cpu_job(&point, run, &app, s.seed, s.insts_per_app);
    let key = job().key;

    let runner = Runner::serial().with_cache_dir(&dir).expect("cache dir");
    let fresh = runner.run(vec![job()]).pop().expect("one outcome");

    // Tear the cached record mid-payload, as a crashed writer would.
    let segment = ResultCache::<CpuOutcome>::on_disk(&dir)
        .expect("cache dir")
        .path_of(key)
        .expect("the record's segment");
    let bytes = std::fs::read(&segment).expect("segment exists");
    std::fs::write(&segment, &bytes[..bytes.len() / 2]).expect("truncate");

    let recover = Runner::serial().with_cache_dir(&dir).expect("cache dir");
    let again = recover.run(vec![job()]).pop().expect("one outcome");
    let stats = recover.last_stats();
    assert_eq!(stats.executed, 1, "corrupt entry must re-simulate");
    assert_eq!(stats.cache.corrupt_files, 1, "and be counted as corrupt");
    assert_eq!(again, fresh, "re-simulation must reproduce the outcome");

    // The re-simulation appended a fresh record: a third run is a hit.
    let healed = Runner::serial().with_cache_dir(&dir).expect("cache dir");
    healed.run(vec![job()]);
    assert_eq!(
        healed.last_stats().executed,
        0,
        "cache must heal after re-simulation"
    );

    std::fs::remove_dir_all(&dir).expect("cleanup");
}

#[test]
fn outcome_serialization_round_trips_exactly() {
    // The disk cache depends on lossless f64 round-tripping through the
    // JSON layer: a cached outcome must be bit-equal to the fresh one.
    let s = quick();
    let app = apps::profile("fft").expect("known");
    let outcome = hetcore_repro::hetcore::run_cpu_multicore(
        CpuDesign::BaseHet,
        4,
        &app,
        s.seed,
        s.insts_per_app,
    );
    let json = serde_json::to_string(&outcome).expect("serialize");
    let back: hetcore_repro::hetcore::CpuOutcome =
        serde_json::from_str(&json).expect("deserialize");
    assert_eq!(back, outcome);
}

/// Runs seed `seed`'s CPU and GPU campaigns on two fresh runners and
/// returns what each observed: its folded observations (in `Debug`
/// form) and the skip totals of the jobs it executed.
fn campaign_observations(seed: u64) -> [(String, u64, u64); 2] {
    let s = Suite {
        insts_per_app: 4_000,
        seed,
    };
    let (cpu, gpu) = (Runner::new(2), Runner::new(2));
    s.cpu_campaign_with(&cpu);
    s.gpu_campaign_with(&gpu);
    let (c, g) = (cpu.total_timing(), gpu.total_timing());
    [
        (
            format!("{:?}", cpu.total_observations()),
            c.skipped_cycles,
            c.wakeup_jumps,
        ),
        (
            format!("{:?}", gpu.total_observations()),
            g.skipped_cycles,
            g.wakeup_jumps,
        ),
    ]
}

#[test]
fn concurrent_campaigns_observe_exactly_their_own_jobs() {
    let alone = [5, 6].map(campaign_observations);
    let together = std::thread::scope(|scope| {
        [5, 6]
            .map(|seed| scope.spawn(move || campaign_observations(seed)))
            .map(|handle| handle.join().expect("campaign thread"))
    });
    assert_eq!(together, alone, "a concurrent campaign leaked into another");
    assert_ne!(alone[0], alone[1], "the seeds observe different runs");
    for [cpu, gpu] in &alone {
        assert!(cpu.1 > 0 && gpu.1 > 0, "both simulators skip cycles");
    }
}
