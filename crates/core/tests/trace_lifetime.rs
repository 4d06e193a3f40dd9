//! A batch's trace streams live only while its jobs are pending: every
//! stream a job replays is one it pinned when it was built, each stream
//! is generated once, and once the batch (or a search's last wave)
//! returns, the process's trace store holds nothing that could carry into
//! a second campaign.
//!
//! The store and its counts are process-wide, so this file holds one
//! test, which runs in a process of its own.

use hetcore::explore::{explore, DesignSpace, ExploreConfig};
use hetcore::suite::{Experiment, Extension, Suite};
use hetsim_cpu::multicore;
use hetsim_runner::Runner;
use hetsim_trace::{apps, cache};

/// Records `batch` generates. With `hold`, every stream of the suite's
/// seed stays pinned from before the batch starts until it returns, so
/// none can be freed and generated again. Checks that the batch replays
/// only streams its jobs pinned and leaves none stored.
fn generated(suite: &Suite, batch: &dyn Fn(), hold: bool) -> u64 {
    let before = cache::stats();
    let pins: Vec<_> = apps::all()
        .iter()
        .filter(|_| hold)
        .flat_map(|app| multicore::pins(app, suite.seed))
        .collect();
    batch();
    drop(pins);
    let after = cache::stats();
    assert_eq!(after.families, 0, "streams left stored");
    assert_eq!(
        after.unpinned_replays, before.unpinned_replays,
        "replays that no job pinned"
    );
    after.generated - before.generated
}

#[test]
fn a_batch_generates_each_stream_once_and_leaves_nothing_stored() {
    let suite = Suite {
        insts_per_app: 3_000,
        seed: 5,
    };
    let runner = Runner::new(2);
    let campaign = || {
        runner.run(suite.cpu_campaign_jobs());
    };
    let all_ext = || {
        runner.run(suite.plan(&Experiment::ALL, &Extension::ALL).cpu);
    };
    // A search runs several waves, each a batch; it pins its apps'
    // streams for the whole search, so no wave generates them again.
    let search = || {
        let cfg = ExploreConfig {
            budget: 6,
            seed: suite.seed,
            insts: 2_000,
            jobs: 2,
            cache_dir: None,
        };
        explore(&DesignSpace::fig7(), &cfg).expect("the fig7 space is valid");
    };
    for (name, batch) in [
        ("cpu campaign", &campaign as &dyn Fn()),
        ("all ext", &all_ext),
        ("explore", &search),
    ] {
        let cold = generated(&suite, batch, false);
        assert!(cold > 0, "{name}: generated nothing");
        let once = generated(&suite, batch, true);
        assert_eq!(cold, once, "{name}: a stream was generated twice");
    }
}
