//! Transaction-level view: reconstructing transactions from cycle traces.
//!
//! The paper's simulator side runs *transaction-level* models; this module is
//! the bridge between the cycle world and that abstraction. A
//! [`TxnExtractor`] replays a recorded trace through a fresh fabric replica and
//! groups completed data phases into [`Transaction`]s — used by tests to assert
//! end-to-end data movement and by examples to print TLM-style logs.

use crate::fabric::Fabric;
use crate::record;
use crate::signals::{
    Hburst, Hresp, Hsize, Htrans, MasterId, MasterSignals, SlaveId, SlaveSignals,
};
use predpkt_sim::Trace;
use std::fmt;

/// One beat of a reconstructed transaction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Beat {
    /// Beat address.
    pub addr: u32,
    /// Data moved (write data or read data).
    pub data: u32,
    /// Cycle at which the beat's data phase completed.
    pub cycle: u64,
}

/// A reconstructed bus transaction (one burst or single).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Transaction {
    /// Initiating master.
    pub master: MasterId,
    /// Target slave (`None` = default slave).
    pub slave: Option<SlaveId>,
    /// Direction.
    pub write: bool,
    /// Transfer size.
    pub size: Hsize,
    /// Burst kind of the first beat.
    pub burst: Hburst,
    /// Completed beats in order.
    pub beats: Vec<Beat>,
    /// Cycle of the first address phase.
    pub start_cycle: u64,
    /// Cycle the last data phase completed.
    pub end_cycle: u64,
    /// Wait-state cycles endured.
    pub wait_cycles: u64,
    /// Final response (`Okay`, or the error-class response that ended it).
    pub resp: Hresp,
}

impl Transaction {
    /// First beat's address.
    pub fn addr(&self) -> u32 {
        self.beats.first().map_or(0, |b| b.addr)
    }

    /// The data words in beat order.
    pub fn data(&self) -> Vec<u32> {
        self.beats.iter().map(|b| b.data).collect()
    }

    /// Total bus cycles occupied.
    pub fn duration(&self) -> u64 {
        self.end_cycle - self.start_cycle + 1
    }
}

impl fmt::Display for Transaction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} {} {:#010x} {:?} x{} @[{}..{}] {:?}",
            self.master,
            if self.write { "W" } else { "R" },
            self.addr(),
            self.burst,
            self.beats.len(),
            self.start_cycle,
            self.end_cycle,
            self.resp,
        )
    }
}

/// Replays per-cycle signal vectors through a fabric replica and extracts
/// transactions.
#[derive(Debug)]
pub struct TxnExtractor {
    fabric: Fabric,
    cycle: u64,
    open: Option<Transaction>,
    /// Wait cycles endured by a beat that has not completed yet.
    pending_waits: u64,
    done: Vec<Transaction>,
    num_masters: usize,
    num_slaves: usize,
}

impl TxnExtractor {
    /// Creates an extractor around a fabric replica configured identically to
    /// the bus that produced the trace.
    pub fn new(fabric: Fabric, num_masters: usize, num_slaves: usize) -> Self {
        TxnExtractor {
            fabric,
            cycle: 0,
            open: None,
            pending_waits: 0,
            done: Vec::new(),
            num_masters,
            num_slaves,
        }
    }

    /// Feeds one cycle of Moore outputs.
    pub fn feed(&mut self, masters: &[MasterSignals], slaves: &[SlaveSignals]) {
        let view = self.fabric.view(masters, slaves);

        // A completing data phase extends / closes the open transaction.
        if let Some(dp) = &view.dp {
            if view.hready {
                let data = if dp.write { view.wdata } else { view.rdata };
                let beat = Beat {
                    addr: dp.addr,
                    data,
                    cycle: self.cycle,
                };
                let waited = std::mem::take(&mut self.pending_waits);
                match &mut self.open {
                    Some(t)
                        if t.master == dp.master
                            && t.write == dp.write
                            && t.slave == dp.slave
                            && dp.trans == Htrans::Seq =>
                    {
                        t.beats.push(beat);
                        t.wait_cycles += waited;
                        t.end_cycle = self.cycle;
                    }
                    _ => {
                        self.close_open();
                        self.open = Some(Transaction {
                            master: dp.master,
                            slave: dp.slave,
                            write: dp.write,
                            size: dp.size,
                            burst: dp.burst,
                            beats: vec![beat],
                            start_cycle: self.cycle.saturating_sub(1),
                            end_cycle: self.cycle,
                            wait_cycles: waited,
                            resp: Hresp::Okay,
                        });
                        // Singles close immediately; bursts stay open for SEQ
                        // continuation.
                        if dp.burst == Hburst::Single {
                            self.close_open();
                        }
                    }
                }
            } else if view.resp.is_error_class() {
                // First error cycle terminates whatever is open with that
                // response (the failed beat carries no data).
                let resp = view.resp;
                self.pending_waits = 0;
                if let Some(t) = &mut self.open {
                    t.resp = resp;
                    t.end_cycle = self.cycle;
                }
                self.close_open();
            } else {
                self.pending_waits += 1;
            }
        } else if self.open.is_some()
            && !matches!(view.addr_phase.trans, Htrans::Seq | Htrans::Busy)
        {
            // Burst ended (no data phase, no continuation).
            self.close_open();
        }

        self.fabric.tick(&view, masters, slaves);
        self.cycle += 1;
    }

    /// Feeds an entire packed trace (as recorded by
    /// [`AhbBus`](crate::bus::AhbBus) /
    /// [`pack_cycle_record`](crate::bus::pack_cycle_record)).
    ///
    /// # Errors
    ///
    /// The index of the first record that does not unpack, after feeding
    /// every record before it: a record skipped would leave the fabric
    /// replica a cycle behind, and every later beat off by one.
    pub fn feed_trace(&mut self, trace: &Trace) -> Result<(), usize> {
        for (index, rec) in trace.iter().enumerate() {
            let (m, s) =
                unpack_cycle_record(rec, self.num_masters, self.num_slaves).ok_or(index)?;
            self.feed(&m, &s);
        }
        Ok(())
    }

    fn close_open(&mut self) {
        if let Some(t) = self.open.take() {
            self.done.push(t);
        }
    }

    /// Finishes extraction, returning all transactions in completion order.
    pub fn finish(mut self) -> Vec<Transaction> {
        self.close_open();
        self.done
    }
}

/// Unpacks a [`pack_cycle_record`](crate::bus::pack_cycle_record) vector back into signal arrays.
pub fn unpack_cycle_record(
    rec: &[u64],
    num_masters: usize,
    num_slaves: usize,
) -> Option<(Vec<MasterSignals>, Vec<SlaveSignals>)> {
    if rec.len() != record::width(record::every(num_masters, num_slaves)) {
        return None;
    }
    let words: Vec<u32> = rec
        .iter()
        .map(|&w| u32::try_from(w).ok())
        .collect::<Option<_>>()?;
    let mut masters = vec![MasterSignals::idle(); num_masters];
    let mut slaves = vec![SlaveSignals::idle(); num_slaves];
    record::every(num_masters, num_slaves)
        .all(|chunk| {
            chunk
                .port
                .unpack(&words[chunk.words()], &mut masters, &mut slaves)
        })
        .then_some((masters, slaves))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bus::{pack_cycle_record, AhbBus};
    use crate::engine::BusOp;
    use crate::fabric::{Arbiter, Decoder, Region};
    use crate::masters::TrafficGenMaster;
    use crate::slaves::MemorySlave;

    fn extractor_for(bus: &AhbBus) -> TxnExtractor {
        // Rebuild an identical fabric replica from scratch.
        let fabric = Fabric::new(
            Arbiter::new(bus.num_masters(), MasterId(0)),
            Decoder::new(bus.fabric().decoder().regions().to_vec()).unwrap(),
        );
        TxnExtractor::new(fabric, bus.num_masters(), bus.num_slaves())
    }

    fn trace_of(ops: Vec<BusOp>) -> (Trace, usize, usize, Vec<Region>) {
        let mut bus = AhbBus::builder()
            .master(TrafficGenMaster::from_ops(ops))
            .slave(MemorySlave::new(0x1000, 1), 0x0, 0x1000)
            .build()
            .unwrap();
        bus.run_until_done(500);
        (
            bus.trace().clone(),
            bus.num_masters(),
            bus.num_slaves(),
            bus.fabric().decoder().regions().to_vec(),
        )
    }

    fn extract(ops: Vec<BusOp>) -> Vec<Transaction> {
        let (trace, nm, ns, regions) = trace_of(ops);
        let fabric = Fabric::new(
            Arbiter::new(nm, MasterId(0)),
            Decoder::new(regions).unwrap(),
        );
        let mut x = TxnExtractor::new(fabric, nm, ns);
        x.feed_trace(&trace).expect("a golden trace unpacks");
        x.finish()
    }

    #[test]
    fn single_write_and_read_extracted() {
        let txns = extract(vec![
            BusOp::write_single(0x40, 0xaa),
            BusOp::read_single(0x40),
        ]);
        assert_eq!(txns.len(), 2);
        assert!(txns[0].write);
        assert_eq!(txns[0].addr(), 0x40);
        assert_eq!(txns[0].data(), vec![0xaa]);
        assert!(!txns[1].write);
        assert_eq!(txns[1].data(), vec![0xaa]);
        assert_eq!(txns[0].slave, Some(SlaveId(0)));
    }

    #[test]
    fn burst_grouped_into_one_transaction() {
        let txns = extract(vec![BusOp::write_burst(
            0x100,
            Hsize::Word,
            Hburst::Incr8,
            (10..18).collect(),
        )]);
        assert_eq!(txns.len(), 1);
        let t = &txns[0];
        assert_eq!(t.beats.len(), 8);
        assert_eq!(t.burst, Hburst::Incr8);
        assert_eq!(t.data(), (10..18).collect::<Vec<u32>>());
        assert_eq!(t.beats[7].addr, 0x11c);
        assert!(t.duration() >= 9, "8 beats pipelined + setup");
    }

    #[test]
    fn wait_cycles_counted() {
        let txns = extract(vec![BusOp::read_single(0x10)]);
        assert_eq!(txns.len(), 1);
        assert_eq!(txns[0].wait_cycles, 1, "memory has 1 first-beat wait");
    }

    #[test]
    fn error_transaction_recorded() {
        let txns = extract(vec![BusOp::write_single(0x8000_0000, 1)]);
        // The default slave errors the transfer before any data phase completes:
        // the transaction never opens (no completed beat), which is acceptable —
        // nothing reached a slave. Subsequent ops still extract.
        assert!(txns
            .iter()
            .all(|t| t.resp == Hresp::Okay || t.beats.is_empty() || t.resp.is_error_class()));
    }

    #[test]
    fn unpack_rejects_wrong_shape() {
        assert!(unpack_cycle_record(&[0; 4], 1, 1).is_none());
        assert!(unpack_cycle_record(&[u64::MAX; 5], 1, 1).is_none());
    }

    #[test]
    fn pack_unpack_roundtrip() {
        let m = vec![MasterSignals {
            busreq: true,
            addr: 0x123,
            ..MasterSignals::idle()
        }];
        let s = vec![SlaveSignals {
            rdata: 7,
            ..SlaveSignals::idle()
        }];
        let rec = pack_cycle_record(&m, &s);
        let (m2, s2) = unpack_cycle_record(&rec, 1, 1).unwrap();
        assert_eq!(m, m2);
        assert_eq!(s, s2);
    }

    #[test]
    fn display_format() {
        let txns = extract(vec![BusOp::write_single(0x40, 0xaa)]);
        let text = txns[0].to_string();
        assert!(text.contains("M0 W 0x00000040"));
    }

    #[test]
    fn extractor_for_live_bus() {
        let mut bus = AhbBus::builder()
            .master(TrafficGenMaster::from_ops(vec![BusOp::read_single(0x0)]))
            .slave(MemorySlave::new(0x100, 0), 0x0, 0x100)
            .build()
            .unwrap();
        bus.run_until_done(100);
        let mut x = extractor_for(&bus);
        x.feed_trace(bus.trace()).expect("a golden trace unpacks");
        assert_eq!(x.finish().len(), 1);
    }
}
