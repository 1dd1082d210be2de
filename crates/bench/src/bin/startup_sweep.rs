//! A3 — ablation: channel startup overhead.
//!
//! The whole scheme exists because startup overhead dominates short transfers;
//! this sweep shows the optimistic gain as a function of that overhead — with
//! a zero-overhead channel there is nothing to amortize and prediction only
//! adds risk.
//!
//! Run: `cargo run -p predpkt-bench --release --bin startup_sweep [cycles]`

use predpkt_bench::{cycles_arg, fmt_kcps, run_synthetic};
use predpkt_channel::ChannelCostModel;
use predpkt_core::{CoEmuConfig, ModePolicy};
use predpkt_sim::VirtualTime;

fn main() {
    let cycles = cycles_arg(30_000);

    println!("== Channel startup-overhead sweep (p = 0.99) ==\n");
    println!(
        "{:>12} {:>14} {:>14} {:>8}",
        "startup", "conventional", "optimistic", "gain"
    );
    for startup_ns in [0u64, 100, 1_000, 5_000, 12_200, 50_000, 100_000] {
        let channel =
            ChannelCostModel::iprove_pci().with_startup(VirtualTime::from_nanos(startup_ns));
        let conv = run_synthetic(
            0.99,
            CoEmuConfig::paper_defaults()
                .policy(ModePolicy::Conservative)
                .channel(channel),
            4_000,
        );
        let opt = run_synthetic(
            0.99,
            CoEmuConfig::paper_defaults()
                .policy(ModePolicy::ForcedAls)
                .channel(channel),
            cycles,
        );
        println!(
            "{:>10}ns {:>14} {:>14} {:>7.2}x",
            startup_ns,
            fmt_kcps(conv.performance_cps()),
            fmt_kcps(opt.performance_cps()),
            opt.performance_cps() / conv.performance_cps()
        );
    }
    println!(
        "\nthe gain is a direct function of the startup overhead being amortized;\n\
         at zero overhead the conventional method is already channel-limited only\n\
         by payload and the optimistic scheme's advantage collapses."
    );
}
