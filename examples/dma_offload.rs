//! The paper's motivating workload: bulk DMA traffic confined to the
//! accelerator domain, with a simulator-side CPU occasionally polling. Shows
//! end-to-end data integrity across the split plus the channel-traffic win,
//! and prints a transaction-level (TLM) view recovered from the cycle trace.
//!
//! Run: `cargo run --release --example dma_offload`

use predpkt::ahb::fabric::{Arbiter, Decoder, Fabric};
use predpkt::ahb::slaves::MemorySlave;
use predpkt::ahb::txn::TxnExtractor;
use predpkt::prelude::*;
use predpkt::workloads::dma_offload_soc;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    const WORDS: u32 = 192;
    let blueprint = dma_offload_soc(WORDS);

    let config = CoEmuConfig::paper_defaults()
        .policy(ModePolicy::Auto)
        .rollback_vars(None)
        .carry(true)
        .adaptive(true);
    let mut session = EmuSession::from_blueprint(&blueprint)
        .config(config)
        .build()?;
    session.run_until_committed(4_000)?;

    // Verify the copy landed: source pattern 0x5000_0000+i must appear at the
    // destination (both memories live on the accelerator side).
    let dst: &MemorySlave = session
        .acc_model()
        .slave_as(SlaveId(2))
        .expect("destination memory is accelerator-local");
    for i in 0..WORDS {
        assert_eq!(dst.peek_word(4 * i), 0x5000_0000 + i, "word {i}");
    }
    println!("DMA moved {WORDS} words across the split correctly\n");

    let report = session.report();
    println!("{report}");

    // Recover the transaction-level view from the committed trace.
    let placement = blueprint.placement();
    let merged = session.merged_trace(|s, a| placement.merge_records(s, a));
    let fabric = Fabric::new(
        Arbiter::new(blueprint.num_masters(), MasterId(0)),
        Decoder::new(session.acc_model().fabric().decoder().regions().to_vec())?,
    );
    let mut extractor = TxnExtractor::new(fabric, blueprint.num_masters(), blueprint.num_slaves());
    extractor
        .feed_trace(&merged)
        .map_err(|cycle| format!("committed cycle {cycle} does not unpack as a bus record"))?;
    let txns = extractor.finish();
    println!("\nfirst transactions (TLM view of the committed cycle trace):");
    for t in txns.iter().take(10) {
        println!("  {t}");
    }
    println!("  ... {} transactions total", txns.len());
    Ok(())
}
