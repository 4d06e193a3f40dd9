//! CPU design-space walk: every Table IV configuration on a few
//! applications, as 4-core chips, plus the fixed-power-budget AdvHet-2X
//! chip (8 cores) — a miniature of the paper's Figures 7-9 and 13.
//!
//! ```text
//! cargo run --release --example cpu_design_space
//! ```

use hetcore::config::CpuDesign;
use hetcore::experiment::run_cpu_multicore;
use hetsim_cpu::multicore;
use hetsim_trace::apps;

fn main() {
    let insts = 100_000;
    let apps = ["lu", "fft", "canneal"];

    for app_name in apps {
        let app = apps::profile(app_name).expect("known app");
        // Every design replays this app's streams: pinned, they are
        // generated once for the whole sweep.
        let _pins = multicore::pins(&app, 7);
        println!(
            "== {} (4-core chips, {} total instructions) ==",
            app.name, insts
        );
        println!(
            "{:<16} {:>10} {:>10} {:>10} {:>10}",
            "design", "time", "energy", "ED", "ED^2"
        );
        let base = run_cpu_multicore(CpuDesign::BaseCmos, 4, &app, 7, insts);
        for design in CpuDesign::ALL {
            let o = run_cpu_multicore(design, 4, &app, 7, insts);
            println!(
                "{:<16} {:>10.3} {:>10.3} {:>10.3} {:>10.3}",
                design.name(),
                o.seconds / base.seconds,
                o.energy.total_j() / base.energy.total_j(),
                o.ed() / base.ed(),
                o.ed2() / base.ed2(),
            );
        }
        // The 2X chip: twice the AdvHet cores at the BaseCMOS power budget.
        let twox = run_cpu_multicore(CpuDesign::AdvHet, 8, &app, 7, insts);
        println!(
            "{:<16} {:>10.3} {:>10.3} {:>10.3} {:>10.3}  (8 cores)",
            "AdvHet-2X",
            twox.seconds / base.seconds,
            twox.energy.total_j() / base.energy.total_j(),
            twox.ed() / base.ed(),
            twox.ed2() / base.ed2(),
        );
        println!(
            "power: BaseCMOS {:.2} W vs AdvHet-2X {:.2} W (the budget premise)\n",
            base.power_w(),
            twox.power_w()
        );
    }
}
