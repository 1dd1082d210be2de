//! E4 — the paper's in-text SLA results: maximum gains (3.25 at sim=100k,
//! 15.34 at sim=1000k) and break-even accuracies (98% and 70%).
//!
//! Run: `cargo run -p predpkt-bench --release --bin sla_summary [cycles]`

use predpkt_bench::{cycles_arg, fmt_kcps, run_synthetic};
use predpkt_channel::Side;
use predpkt_core::{CoEmuConfig, ModePolicy};
use predpkt_perfmodel::{break_even_accuracy, AnalyticRow, ModelParams};
use predpkt_sim::Frequency;

fn main() {
    let cycles = cycles_arg(40_000);

    println!("== SLA summary (Simulator Leading Accelerator) ==\n");
    for (sim_k, paper_gain, paper_be, paper_conv) in
        [(100u64, 3.25, 0.98, "28.8k"), (1_000, 15.34, 0.70, "38.9k")]
    {
        let config = CoEmuConfig::paper_defaults()
            .policy(ModePolicy::ForcedSla)
            .sim_speed(Frequency::from_kcycles_per_sec(sim_k));
        let params = ModelParams::from_config(&config, Side::Simulator);
        let conv = params.conventional_perf();

        // Maximum gain at p = 1.0.
        let des = run_synthetic(1.0, config, cycles);
        let des_gain = des.performance_cps() / conv;
        let model_gain = AnalyticRow::at(&params, 1.0).ratio;

        // Break-even accuracy (analytic bisection + DES spot check).
        let be = break_even_accuracy(&params, 0.3, 0.9999);
        let be_str = be.map_or("none".into(), |b| format!("{b:.3}"));
        let spot = be.map(|b| run_synthetic(b, config, cycles).performance_cps() / conv);

        println!(
            "simulator = {sim_k} kcycles/s (conventional {} , paper {paper_conv})",
            fmt_kcps(conv)
        );
        println!(
            "  max gain:   measured {des_gain:.2}x, model {model_gain:.2}x, paper {paper_gain}x"
        );
        println!(
            "  break-even: model p = {be_str} (paper {paper_be}); DES ratio at that p = {}",
            spot.map_or("-".into(), |r| format!("{r:.2}x"))
        );
        println!();
    }

    println!(
        "SLA vs ALS sensitivity (the paper: \"SLA suffers more from low prediction accuracies\"):"
    );
    for &p in &[1.0, 0.9, 0.7, 0.5] {
        let sla = run_synthetic(
            p,
            CoEmuConfig::paper_defaults().policy(ModePolicy::ForcedSla),
            cycles,
        );
        let als = run_synthetic(
            p,
            CoEmuConfig::paper_defaults().policy(ModePolicy::ForcedAls),
            cycles,
        );
        println!(
            "  p={p:<5} SLA {:>8}   ALS {:>8}   SLA/ALS {:.2}",
            fmt_kcps(sla.performance_cps()),
            fmt_kcps(als.performance_cps()),
            sla.performance_cps() / als.performance_cps()
        );
    }
}
