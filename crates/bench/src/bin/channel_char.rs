//! E1 — the paper's §1.2 channel characterization: 12.2 µs startup overhead vs
//! 49.95/75.73 ns per word payload, and why short per-cycle transfers waste
//! the channel ("the amount of data does not exceed five words at a time").
//!
//! Run: `cargo run -p predpkt-bench --release --bin channel_char`

use predpkt_channel::{ChannelCostModel, Direction, LayeredStartup};

fn main() {
    let pci = ChannelCostModel::iprove_pci();
    let layers = LayeredStartup::iprove_pci();

    println!("== Channel characterization (iPROVE PCI model) ==\n");
    println!("startup overhead: {} per access", pci.startup());
    println!(
        "  = API {} + driver {} + physical {}",
        layers.api, layers.driver, layers.physical
    );
    println!(
        "payload: {} /word sim->acc, {} /word acc->sim\n",
        pci.per_word(Direction::SimToAcc),
        pci.per_word(Direction::AccToSim)
    );

    println!(
        "{:>8} {:>14} {:>14} {:>12} {:>12}",
        "words", "cost fwd", "cost rev", "eff fwd", "MB/s fwd"
    );
    for words in [1u64, 2, 5, 8, 16, 32, 64, 128, 256, 1024, 4096] {
        let fwd = pci.access_cost(Direction::SimToAcc, words);
        let rev = pci.access_cost(Direction::AccToSim, words);
        let eff = pci.efficiency(Direction::SimToAcc, words);
        let mbs = pci.throughput_words_per_sec(Direction::SimToAcc, words) * 4.0 / 1e6;
        println!(
            "{words:>8} {fwd:>14} {rev:>14} {:>11.1}% {mbs:>12.1}",
            eff * 100.0
        );
    }

    println!(
        "\nthe paper's point: a conventional co-emulation cycle moves ~5 words per\n\
         access, so >97% of every access is startup overhead; a 64-cycle LOB burst\n\
         amortizes the same overhead across an entire transition."
    );

    // The conventional-cycle arithmetic that yields the paper's baselines.
    let per_cycle =
        pci.access_cost(Direction::SimToAcc, 3) + pci.access_cost(Direction::AccToSim, 2);
    println!(
        "\nconventional cycle channel time (3+2 wire words): {per_cycle} -> with \
         Tsim=1us, Tacc=0.1us: {:.1} kcycles/s (paper: 38.9k)",
        1e-3 / (per_cycle.as_secs_f64() + 1.1e-6)
    );
}
