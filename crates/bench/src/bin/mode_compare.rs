//! A4 — ablation: operating modes on *real* SoC workloads with *real*
//! predictors (no synthetic accuracy knob): conservative vs forced SLA/ALS vs
//! dynamic (Auto) leader election, reporting emergent prediction accuracy and
//! channel-access reduction.
//!
//! Run: `cargo run -p predpkt-bench --release --bin mode_compare [cycles]`

use predpkt_bench::{cycles_arg, fmt_kcps};
use predpkt_core::{CoEmuConfig, CoEmulator, ModePolicy, SocBlueprint};
use predpkt_workloads::{dma_offload_soc, figure2_soc, irq_driven_soc, stream_soc};

fn run(blueprint: &SocBlueprint, policy: ModePolicy, cycles: u64) -> predpkt_core::PerfReport {
    let config = CoEmuConfig::paper_defaults()
        .policy(policy)
        .rollback_vars(None) // bill actual snapshot sizes
        .carry(true)
        .adaptive(true);
    let mut coemu = CoEmulator::from_blueprint(blueprint, config).expect("valid blueprint");
    coemu.run_until_committed(cycles).expect("run completes");
    coemu.report()
}

fn main() {
    let cycles = cycles_arg(3_000);

    println!("== Operating-mode comparison on real workloads (real predictors) ==");
    println!("(adaptive depth + head-carry on; rollback cost = actual snapshot size)\n");
    let workloads: Vec<(&str, SocBlueprint)> = vec![
        ("figure2 (mixed)", figure2_soc(42)),
        ("dma_offload", dma_offload_soc(192)),
        ("irq_driven", irq_driven_soc(16)),
        ("fifo_stream", stream_soc(3)),
    ];
    for (name, blueprint) in workloads {
        println!("{name}:");
        println!(
            "  {:<14} {:>10} {:>8} {:>12} {:>12} {:>10}",
            "mode", "perf", "gain", "acc/cycle", "observed p", "rollbacks"
        );
        let base = run(&blueprint, ModePolicy::Conservative, cycles);
        for (mode_name, policy) in [
            ("conservative", ModePolicy::Conservative),
            ("forced SLA", ModePolicy::ForcedSla),
            ("forced ALS", ModePolicy::ForcedAls),
            ("auto", ModePolicy::Auto),
        ] {
            let report = run(&blueprint, policy, cycles);
            println!(
                "  {:<14} {:>10} {:>7.2}x {:>12.3} {:>12} {:>10}",
                mode_name,
                fmt_kcps(report.performance_cps()),
                report.performance_cps() / base.performance_cps(),
                report.accesses_per_cycle(),
                report
                    .observed_accuracy()
                    .map_or("-".into(), |a| format!("{a:.3}")),
                report.sim_stats().rollbacks + report.acc_stats().rollbacks,
            );
        }
        println!();
    }
    println!(
        "auto mode follows the data-flow source per transition (the paper's dynamic\n\
         SLA/ALS/conservative decision, problem #4 in §3)."
    );
}
