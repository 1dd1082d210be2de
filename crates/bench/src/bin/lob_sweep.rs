//! A1 — ablation: LOB depth beyond the paper's {8, 64}.
//!
//! Deep LOBs amortize channel startup but waste more speculation per failure;
//! the optimum shifts with prediction accuracy (the paper's Figure 4 hints at
//! this with its two depths; here is the full surface).
//!
//! Run: `cargo run -p predpkt-bench --release --bin lob_sweep [cycles]`

use predpkt_bench::{cycles_arg, fmt_kcps, run_synthetic};
use predpkt_core::{CoEmuConfig, ModePolicy};

fn main() {
    let cycles = cycles_arg(30_000);
    let depths = [2usize, 4, 8, 16, 32, 64, 128, 256];
    let accuracies = [1.0, 0.99, 0.95, 0.9, 0.7, 0.5];

    println!("== LOB depth sweep (ALS, sim=1000k) — performance by depth x accuracy ==\n");
    print!("{:<8}", "depth");
    for p in accuracies {
        print!("{p:>10.2}");
    }
    println!();
    let mut best: Vec<(f64, usize, f64)> = accuracies.iter().map(|&p| (p, 0, 0.0)).collect();
    for d in depths {
        print!("{d:<8}");
        for (i, &p) in accuracies.iter().enumerate() {
            let config = CoEmuConfig::paper_defaults()
                .policy(ModePolicy::ForcedAls)
                .try_lob_depth(d)
                .expect("depth is non-zero");
            let perf = run_synthetic(p, config, cycles).performance_cps();
            if perf > best[i].2 {
                best[i] = (p, d, perf);
            }
            print!("{:>10}", fmt_kcps(perf));
        }
        println!();
    }
    println!("\nbest depth per accuracy:");
    for (p, d, perf) in best {
        println!("  p={p:<5} -> depth {d:<4} ({})", fmt_kcps(perf));
    }
    println!("\nadaptive depth picks this trade-off automatically:");
    for &p in &accuracies {
        let config = CoEmuConfig::paper_defaults()
            .policy(ModePolicy::ForcedAls)
            .try_lob_depth(256)
            .expect("depth is non-zero")
            .adaptive(true);
        let perf = run_synthetic(p, config, cycles).performance_cps();
        println!("  p={p:<5} -> {}", fmt_kcps(perf));
    }
}
