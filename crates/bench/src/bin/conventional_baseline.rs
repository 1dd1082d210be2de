//! E6 — the conventional (cycle-by-cycle) baselines: 38.9 kcycles/s at
//! sim=1000k and 28.8 kcycles/s at sim=100k.
//!
//! Run: `cargo run -p predpkt-bench --release --bin conventional_baseline [cycles]`

use predpkt_bench::{cycles_arg, fmt_kcps, run_synthetic};
use predpkt_channel::Side;
use predpkt_core::{CoEmuConfig, ModePolicy};
use predpkt_perfmodel::ModelParams;
use predpkt_sim::Frequency;

fn main() {
    let cycles = cycles_arg(5_000);
    println!("== Conventional co-emulation baselines ==\n");
    println!(
        "{:<12} {:>12} {:>12} {:>12} {:>14}",
        "sim speed", "measured", "analytic", "paper", "accesses/cyc"
    );
    for (sim_k, paper) in [(100u64, "28.8k"), (1_000, "38.9k")] {
        let config = CoEmuConfig::paper_defaults()
            .policy(ModePolicy::Conservative)
            .sim_speed(Frequency::from_kcycles_per_sec(sim_k));
        let report = run_synthetic(1.0, config, cycles);
        let params = ModelParams::from_config(&config, Side::Accelerator);
        println!(
            "{:<12} {:>12} {:>12} {:>12} {:>14.2}",
            format!("{sim_k}k"),
            fmt_kcps(report.performance_cps()),
            fmt_kcps(params.conventional_perf()),
            paper,
            report.accesses_per_cycle()
        );
    }
    println!(
        "\nevery conventional cycle costs two channel accesses; at 12.2 us startup\n\
         each, the channel alone caps co-emulation at ~41 kcycles/s regardless of\n\
         simulator or accelerator speed."
    );
}
