//! Quickstart: compare the paper's headline designs on one application.
//!
//! Runs BaseCMOS, BaseHet and AdvHet on the `lu` workload and prints time,
//! energy and ED^2 — the tradeoff HetCore is about.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use hetcore::config::CpuDesign;
use hetcore::experiment::run_cpu;
use hetsim_trace::{apps, cache};

fn main() {
    let app = apps::profile("lu").expect("lu is part of the suite");
    let insts = 120_000;
    // Every design replays one stream: pinned, it is generated once.
    let _pin = cache::pin(&app, 42);

    println!(
        "HetCore quickstart: {} ({} instructions)\n",
        app.name, insts
    );
    println!(
        "{:<12} {:>12} {:>12} {:>12} {:>10}",
        "design", "time (us)", "energy (uJ)", "power (W)", "ED^2 norm"
    );

    let base = run_cpu(CpuDesign::BaseCmos, &app, 42, insts);
    let base_ed2 = base.ed2();
    for design in [
        CpuDesign::BaseCmos,
        CpuDesign::BaseTfet,
        CpuDesign::BaseHet,
        CpuDesign::AdvHet,
    ] {
        let o = run_cpu(design, &app, 42, insts);
        println!(
            "{:<12} {:>12.2} {:>12.3} {:>12.3} {:>10.3}",
            design.name(),
            o.seconds * 1e6,
            o.energy.total_j() * 1e6,
            o.power_w(),
            o.ed2() / base_ed2,
        );
    }

    println!();
    let adv = run_cpu(CpuDesign::AdvHet, &app, 42, insts);
    println!(
        "AdvHet: {:.0}% slower than BaseCMOS, {:.0}% less energy.",
        (adv.seconds / base.seconds - 1.0) * 100.0,
        (1.0 - adv.energy.total_j() / base.energy.total_j()) * 100.0
    );
}
