//! A2 — ablation: rollback-variable count (snapshot/restore cost).
//!
//! The paper fixes 1,000 rollback variables; this sweep shows when state
//! store/restore starts to matter for each domain's snapshot technology
//! (hardware shadow registers at 0.03 ns/var vs simulator memcpy at 10 ns/var).
//!
//! Run: `cargo run -p predpkt-bench --release --bin rollback_sweep [cycles]`

use predpkt_bench::{cycles_arg, fmt_kcps, run_synthetic};
use predpkt_core::{CoEmuConfig, ModePolicy};
use predpkt_sim::CostCategory;

fn main() {
    let cycles = cycles_arg(30_000);

    println!("== Rollback-variable sweep (p = 0.9) ==\n");
    for (name, policy) in [
        (
            "ALS (accelerator leads, 0.03 ns/var shadow copy)",
            ModePolicy::ForcedAls,
        ),
        (
            "SLA (simulator leads, 10 ns/var memcpy)",
            ModePolicy::ForcedSla,
        ),
    ] {
        println!("{name}:");
        println!(
            "{:>10} {:>12} {:>12} {:>12}",
            "vars", "Tstore", "Trest.", "Perform."
        );
        for vars in [10usize, 100, 1_000, 10_000, 100_000] {
            let config = CoEmuConfig::paper_defaults()
                .policy(policy)
                .rollback_vars(Some(vars));
            let report = run_synthetic(0.9, config, cycles);
            println!(
                "{vars:>10} {:>12.2e} {:>12.2e} {:>12}",
                report.per_cycle(CostCategory::StateStore),
                report.per_cycle(CostCategory::StateRestore),
                fmt_kcps(report.performance_cps())
            );
        }
        println!();
    }
    println!(
        "takeaway: hardware shadow-copy snapshots are free up to ~100k variables;\n\
         simulator-side memcpy snapshots erode the SLA gain past ~10k variables."
    );
}
