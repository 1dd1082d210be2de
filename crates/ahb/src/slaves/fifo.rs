//! Producer–consumer FIFO slave.
//!
//! The paper argues slave responses are predictable because they "can be
//! modeled with a simple producer-consumer model" (§3). This slave *is* that
//! model: an internal producer fills a TX FIFO at a fixed rate (reads pop it),
//! an internal consumer drains an RX FIFO at a fixed rate (writes push it).
//! When a read finds the TX FIFO empty — or a write finds the RX FIFO full —
//! the slave stalls the bus until the producer/consumer catches up, producing
//! exactly the periodic wait-state pattern the response predictor learns.

use crate::engine::{PlannedResponse, SlaveEngine};
use crate::signals::{SlaveSignals, SlaveView};
use crate::AhbSlave;
use predpkt_sim::{Snapshot, SnapshotError, StateReader, StateWriter};
use std::collections::VecDeque;

/// A streaming FIFO slave (UART/DSP-port archetype).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FifoSlave {
    capacity: usize,
    /// Producer fills `tx` once every `produce_period` cycles.
    produce_period: u32,
    produce_phase: u32,
    next_produced: u32,
    tx: VecDeque<u32>,
    /// Consumer drains `rx` once every `consume_period` cycles.
    consume_period: u32,
    consume_phase: u32,
    rx: VecDeque<u32>,
    consumed: Vec<u32>,
    engine: SlaveEngine,
    underflow_reads: u64,
}

impl FifoSlave {
    /// Creates a FIFO slave.
    ///
    /// * `capacity` — depth of each FIFO.
    /// * `produce_period` — cycles between TX words (0 disables the producer).
    /// * `consume_period` — cycles between RX drains (0 disables the consumer).
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize, produce_period: u32, consume_period: u32) -> Self {
        assert!(capacity > 0, "capacity must be non-zero");
        FifoSlave {
            capacity,
            produce_period,
            produce_phase: 0,
            next_produced: 0,
            tx: VecDeque::new(),
            consume_period,
            consume_phase: 0,
            rx: VecDeque::new(),
            consumed: Vec::new(),
            engine: SlaveEngine::new(),
            underflow_reads: 0,
        }
    }

    /// Words the internal consumer has drained from the RX FIFO so far.
    pub fn consumed(&self) -> &[u32] {
        &self.consumed
    }

    /// Current TX fill level.
    pub fn tx_level(&self) -> usize {
        self.tx.len()
    }

    /// Current RX fill level.
    pub fn rx_level(&self) -> usize {
        self.rx.len()
    }

    /// Reads that completed against an empty TX FIFO after an engine stall with
    /// no producer running (returned zero). Zero in sane configurations.
    pub fn underflow_reads(&self) -> u64 {
        self.underflow_reads
    }

    fn run_producer_consumer(&mut self) {
        if self.produce_period > 0 {
            self.produce_phase += 1;
            if self.produce_phase >= self.produce_period {
                self.produce_phase = 0;
                if self.tx.len() < self.capacity {
                    self.tx.push_back(self.next_produced);
                    self.next_produced = self.next_produced.wrapping_add(1);
                }
            }
        }
        if self.consume_period > 0 {
            self.consume_phase += 1;
            if self.consume_phase >= self.consume_period {
                self.consume_phase = 0;
                if let Some(w) = self.rx.pop_front() {
                    self.consumed.push(w);
                }
            }
        }
    }
}

impl AhbSlave for FifoSlave {
    fn as_any(&self) -> &dyn std::any::Any {
        self
    }

    fn outputs(&self) -> SlaveSignals {
        self.engine.outputs()
    }

    fn tick(&mut self, view: &SlaveView) {
        self.run_producer_consumer();

        // Resolve a pending stall as soon as the blocking condition clears.
        if self.engine.stalled() {
            let serving = *self.engine.serving().expect("stalled implies serving");
            if serving.write {
                if self.rx.len() < self.capacity {
                    self.engine.complete_stall(0);
                }
            } else if let Some(w) = self.tx.pop_front() {
                self.engine.complete_stall(w);
            } else if self.produce_period == 0 {
                // No producer will ever fill the FIFO: fail open with zero
                // rather than deadlocking the bus.
                self.underflow_reads += 1;
                self.engine.complete_stall(0);
            }
        }

        let events = self.engine.tick(view);
        if let Some(done) = events.completed {
            if let Some(wdata) = done.wdata {
                debug_assert!(self.rx.len() < self.capacity, "stall guaranteed space");
                self.rx.push_back(wdata);
            }
        }
        if let Some(phase) = events.accepted {
            if phase.write {
                if self.rx.len() < self.capacity {
                    self.engine.plan(PlannedResponse::okay(0, 0));
                } else {
                    self.engine.plan(PlannedResponse::stall());
                }
            } else if let Some(w) = self.tx.pop_front() {
                self.engine.plan(PlannedResponse::okay(0, w));
            } else {
                self.engine.plan(PlannedResponse::stall());
            }
        }
    }
}

/// Writes a FIFO as the length-prefixed slice its contents form.
fn save_deque(w: &mut StateWriter<'_>, fifo: &VecDeque<u32>) {
    w.usize(fifo.len());
    for &word in fifo {
        w.u32(word);
    }
}

/// Refills a FIFO from a length-prefixed slice, in the buffer it owns: a
/// cleared deque and a vector trade their allocation without copying.
fn restore_deque(r: &mut StateReader<'_>, fifo: &mut VecDeque<u32>) -> Result<(), SnapshotError> {
    fifo.clear();
    let mut words = Vec::from(std::mem::take(fifo));
    let read = r.slice_u32_into(&mut words);
    *fifo = words.into();
    read
}

impl Snapshot for FifoSlave {
    fn save(&self, w: &mut StateWriter<'_>) {
        w.u32(self.produce_phase)
            .u32(self.next_produced)
            .u32(self.consume_phase);
        save_deque(w, &self.tx);
        save_deque(w, &self.rx);
        w.slice_u32(&self.consumed);
        self.engine.save(w);
        w.word(self.underflow_reads);
    }

    fn restore(&mut self, r: &mut StateReader<'_>) -> Result<(), SnapshotError> {
        self.produce_phase = r.u32()?;
        self.next_produced = r.u32()?;
        self.consume_phase = r.u32()?;
        restore_deque(r, &mut self.tx)?;
        restore_deque(r, &mut self.rx)?;
        r.slice_u32_into(&mut self.consumed)?;
        self.engine.restore(r)?;
        self.underflow_reads = r.word()?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::signals::{AddrPhase, Hburst, Hsize, Htrans, MasterId, SlaveId};
    use predpkt_sim::{restore_from_vec, save_to_vec};

    fn phase(write: bool) -> AddrPhase {
        AddrPhase {
            master: MasterId(0),
            slave: Some(SlaveId(0)),
            trans: Htrans::Nonseq,
            addr: 0,
            write,
            size: Hsize::Word,
            burst: Hburst::Single,
        }
    }

    /// Completes one transfer, returning (rdata, cycles taken).
    fn complete(f: &mut FifoSlave, write: bool, wdata: u32) -> (u32, u32) {
        let p = phase(write);
        f.tick(&SlaveView {
            addr_phase: Some(p),
            ..SlaveView::quiet()
        });
        let mut cycles = 0;
        loop {
            cycles += 1;
            assert!(cycles < 1000, "slave deadlocked");
            let out = f.outputs();
            let rdata = out.rdata;
            f.tick(&SlaveView {
                dp_active: true,
                dp: Some(p),
                hready: out.ready,
                wdata,
                ..SlaveView::quiet()
            });
            if out.ready {
                return (rdata, cycles);
            }
        }
    }

    #[test]
    fn read_pops_produced_sequence() {
        let mut f = FifoSlave::new(8, 1, 0); // produce every cycle
                                             // Let the producer run a few cycles.
        for _ in 0..4 {
            f.tick(&SlaveView::quiet());
        }
        let (a, _) = complete(&mut f, false, 0);
        let (b, _) = complete(&mut f, false, 0);
        assert_eq!((a, b), (0, 1), "produced sequence pops in order");
    }

    #[test]
    fn empty_read_stalls_until_production() {
        let mut f = FifoSlave::new(4, 5, 0); // a word every 5 cycles
        let (value, cycles) = complete(&mut f, false, 0);
        assert_eq!(value, 0);
        assert!(cycles > 1, "read stalled for production, took {cycles}");
        assert!(cycles <= 6);
        assert_eq!(f.underflow_reads(), 0);
    }

    #[test]
    fn reader_without_producer_fails_open() {
        let mut f = FifoSlave::new(4, 0, 0);
        let (value, _) = complete(&mut f, false, 0);
        assert_eq!(value, 0);
        assert_eq!(f.underflow_reads(), 1);
    }

    #[test]
    fn writes_push_and_consumer_drains() {
        let mut f = FifoSlave::new(4, 0, 2);
        complete(&mut f, true, 0xa);
        complete(&mut f, true, 0xb);
        assert!(f.rx_level() <= 2);
        for _ in 0..10 {
            f.tick(&SlaveView::quiet());
        }
        assert_eq!(f.consumed(), &[0xa, 0xb]);
        assert_eq!(f.rx_level(), 0);
    }

    #[test]
    fn full_rx_stalls_writer() {
        let mut f = FifoSlave::new(2, 0, 8); // slow consumer
        let (_, c1) = complete(&mut f, true, 1);
        let (_, c2) = complete(&mut f, true, 2);
        assert_eq!((c1, c2), (1, 1), "fits in capacity");
        let (_, c3) = complete(&mut f, true, 3);
        assert!(c3 > 1, "third write stalls until the consumer drains");
    }

    #[test]
    fn producer_respects_capacity() {
        let mut f = FifoSlave::new(3, 1, 0);
        for _ in 0..10 {
            f.tick(&SlaveView::quiet());
        }
        assert_eq!(f.tx_level(), 3, "producer stops at capacity");
    }

    #[test]
    fn wait_pattern_is_periodic() {
        // The property the response predictor exploits: with a fixed production
        // period, successive empty-FIFO reads exhibit the same stall length.
        let mut f = FifoSlave::new(4, 3, 0);
        let (_, c1) = complete(&mut f, false, 0);
        let (_, c2) = complete(&mut f, false, 0);
        let (_, c3) = complete(&mut f, false, 0);
        assert_eq!(c2, c3, "steady-state stalls are periodic ({c1},{c2},{c3})");
    }

    #[test]
    fn snapshot_roundtrip_mid_stream() {
        let mut f = FifoSlave::new(4, 2, 3);
        complete(&mut f, true, 9);
        for _ in 0..3 {
            f.tick(&SlaveView::quiet());
        }
        let state = save_to_vec(&f);
        let mut copy = FifoSlave::new(4, 2, 3);
        restore_from_vec(&mut copy, &state).unwrap();
        assert_eq!(copy, f);
    }

    #[test]
    #[should_panic(expected = "capacity")]
    fn zero_capacity_rejected() {
        let _ = FifoSlave::new(0, 1, 1);
    }
}
