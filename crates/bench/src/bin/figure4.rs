//! E3 — regenerates the paper's **Figure 4**: ALS performance vs prediction
//! accuracy for four configurations (simulator 100k / 1000k cycles/s × LOB
//! depth 8 / 64), with the conventional-method reference lines.
//!
//! Run: `cargo run -p predpkt-bench --release --bin figure4 [cycles]`

use predpkt_bench::{ascii_chart, cycles_arg, fmt_kcps, run_synthetic};
use predpkt_channel::Side;
use predpkt_core::{CoEmuConfig, ModePolicy};
use predpkt_perfmodel::{ModelParams, PAPER_ACCURACY_GRID};
use predpkt_sim::Frequency;

fn main() {
    let cycles = cycles_arg(40_000);

    println!("== Figure 4: simulation performance vs prediction accuracy (ALS) ==\n");

    let configs = [
        ("Sim=100k,  LOB=64", 100u64, 64usize),
        ("Sim=100k,  LOB=8", 100, 8),
        ("Sim=1000k, LOB=64", 1_000, 64),
        ("Sim=1000k, LOB=8", 1_000, 8),
    ];

    let mut series: Vec<(&str, Vec<f64>)> = Vec::new();
    println!(
        "{:<20} {}",
        "series \\ accuracy",
        PAPER_ACCURACY_GRID
            .iter()
            .map(|p| format!("{p:>8.3}"))
            .collect::<String>()
    );
    for (name, sim_k, lob) in configs {
        let config = CoEmuConfig::paper_defaults()
            .policy(ModePolicy::ForcedAls)
            .sim_speed(Frequency::from_kcycles_per_sec(sim_k))
            .try_lob_depth(lob)
            .expect("depth is non-zero");
        let ys: Vec<f64> = PAPER_ACCURACY_GRID
            .iter()
            .map(|&p| run_synthetic(p, config, cycles).performance_cps())
            .collect();
        println!(
            "{name:<20} {}",
            ys.iter()
                .map(|y| format!("{:>8}", fmt_kcps(*y)))
                .collect::<String>()
        );
        series.push((name, ys));
    }
    // Conventional reference lines (paper: 28.8k and 38.9k).
    for (label, sim_k) in [
        ("conventional @100k", 100u64),
        ("conventional @1000k", 1_000),
    ] {
        let config = CoEmuConfig::paper_defaults()
            .policy(ModePolicy::Conservative)
            .sim_speed(Frequency::from_kcycles_per_sec(sim_k));
        let perf = run_synthetic(1.0, config, 3_000).performance_cps();
        println!(
            "{label:<20} {:>8} (paper: {})",
            fmt_kcps(perf),
            if sim_k == 100 { "28.8k" } else { "38.9k" }
        );
    }

    ascii_chart(
        "Figure 4 (measured, log scale)",
        &PAPER_ACCURACY_GRID,
        &series,
        16,
    );

    // Analytic overlay for the two headline series.
    println!("\n-- analytic model (fixed depth) --");
    for (name, sim_k, lob) in configs {
        let config = CoEmuConfig::paper_defaults()
            .sim_speed(Frequency::from_kcycles_per_sec(sim_k))
            .try_lob_depth(lob)
            .expect("depth is non-zero");
        let params = ModelParams::from_config(&config, Side::Accelerator);
        let ys = predpkt_perfmodel::figure4_series(&params);
        println!(
            "{name:<20} {}",
            ys.iter()
                .map(|pt| format!("{:>8}", fmt_kcps(pt.performance)))
                .collect::<String>()
        );
    }
}
