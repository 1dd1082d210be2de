//! Word-addressed RAM slave with byte-lane support and configurable wait states.

use crate::engine::{PlannedResponse, SlaveEngine};
use crate::signals::{Hsize, Htrans, SlaveSignals, SlaveView};
use crate::AhbSlave;
use predpkt_sim::{Journaled, Snapshot, SnapshotError, StateReader, StateWriter};

/// A RAM slave.
///
/// Addresses are interpreted modulo the memory size (mirror mapping), so the
/// slave does not need to know its decoder base. The first beat of a burst
/// costs [`first_wait`](MemorySlave::new) wait states; sequential beats cost
/// `seq_wait` — the classic SRAM/SDRAM-lite pattern whose responses the paper
/// classifies as predictable.
///
/// # Example
///
/// ```
/// use predpkt_ahb::slaves::MemorySlave;
/// let mut mem = MemorySlave::new(0x1000, 1);
/// mem.poke_word(0x10, 0xdead_beef);
/// assert_eq!(mem.peek_word(0x10), 0xdead_beef);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MemorySlave {
    /// The backing store: rolls back by undo log (see [`Journaled`]).
    words: Journaled,
    first_wait: u32,
    seq_wait: u32,
    engine: SlaveEngine,
    reads: u64,
    writes: u64,
}

impl MemorySlave {
    /// Creates a RAM of `size_bytes` (rounded up to a word multiple) whose
    /// first-beat accesses cost `first_wait` wait states and whose sequential
    /// beats complete with zero waits.
    ///
    /// # Panics
    ///
    /// Panics if `size_bytes` is zero.
    pub fn new(size_bytes: u32, first_wait: u32) -> Self {
        Self::with_waits(size_bytes, first_wait, 0)
    }

    /// Creates a RAM with distinct first-beat and sequential-beat wait states.
    ///
    /// # Panics
    ///
    /// Panics if `size_bytes` is zero.
    pub fn with_waits(size_bytes: u32, first_wait: u32, seq_wait: u32) -> Self {
        assert!(size_bytes > 0, "memory must not be empty");
        MemorySlave {
            words: Journaled::new(size_bytes.div_ceil(4) as usize),
            first_wait,
            seq_wait,
            engine: SlaveEngine::new(),
            reads: 0,
            writes: 0,
        }
    }

    fn index(&self, addr: u32) -> usize {
        (addr as usize / 4) % self.words.len()
    }

    /// Reads a word directly (test access, no bus semantics).
    pub fn peek_word(&self, addr: u32) -> u32 {
        self.words[self.index(addr)]
    }

    /// Writes a word directly (test access, no bus semantics).
    pub fn poke_word(&mut self, addr: u32, value: u32) {
        let i = self.index(addr);
        self.words.set(i, value);
    }

    /// Number of completed read beats.
    pub fn read_beats(&self) -> u64 {
        self.reads
    }

    /// Number of completed write beats.
    pub fn write_beats(&self) -> u64 {
        self.writes
    }

    /// Merges `wdata` into the stored word according to size and byte lanes
    /// (AHB little-endian lane placement).
    fn merge_lanes(word: u32, wdata: u32, addr: u32, size: Hsize) -> u32 {
        match size {
            Hsize::Word => wdata,
            Hsize::Half => {
                let shift = (addr & 0b10) * 8;
                let mask = 0xffffu32 << shift;
                (word & !mask) | (wdata & mask)
            }
            Hsize::Byte => {
                let shift = (addr & 0b11) * 8;
                let mask = 0xffu32 << shift;
                (word & !mask) | (wdata & mask)
            }
        }
    }
}

impl AhbSlave for MemorySlave {
    fn as_any(&self) -> &dyn std::any::Any {
        self
    }

    fn outputs(&self) -> SlaveSignals {
        self.engine.outputs()
    }

    fn tick(&mut self, view: &SlaveView) {
        let events = self.engine.tick(view);
        // Commit the completing transfer before planning a pipelined successor
        // so back-to-back write→read to the same address reads fresh data.
        if let Some(done) = events.completed {
            if let Some(wdata) = done.wdata {
                let i = self.index(done.phase.addr);
                self.words.set(
                    i,
                    Self::merge_lanes(self.words[i], wdata, done.phase.addr, done.phase.size),
                );
                self.writes += 1;
            } else {
                self.reads += 1;
            }
        }
        if let Some(phase) = events.accepted {
            let wait = if phase.trans == Htrans::Nonseq {
                self.first_wait
            } else {
                self.seq_wait
            };
            let rdata = if phase.write {
                0
            } else {
                self.words[self.index(phase.addr)]
            };
            self.engine.plan(PlannedResponse::okay(wait, rdata));
        }
    }
}

impl MemorySlave {
    /// The words after the backing store, which `save` and `mark` share.
    fn save_registers(&self, w: &mut StateWriter<'_>) {
        self.engine.save(w);
        w.word(self.reads).word(self.writes);
    }

    fn restore_registers(&mut self, r: &mut StateReader<'_>) -> Result<(), SnapshotError> {
        self.engine.restore(r)?;
        self.reads = r.word()?;
        self.writes = r.word()?;
        Ok(())
    }
}

/// The backing store is refused at its length prefix unless it has the size
/// the slave was built with; a mark journals the store and copies the rest.
impl Snapshot for MemorySlave {
    fn save(&self, w: &mut StateWriter<'_>) {
        self.words.save(w);
        self.save_registers(w);
    }

    fn restore(&mut self, r: &mut StateReader<'_>) -> Result<(), SnapshotError> {
        self.words.restore(r)?;
        self.restore_registers(r)
    }

    fn mark(&mut self, w: &mut StateWriter<'_>) {
        self.words.mark(w);
        self.save_registers(w);
    }

    fn rewind(&mut self, r: &mut StateReader<'_>) -> Result<(), SnapshotError> {
        self.words.rewind(r)?;
        self.restore_registers(r)
    }

    fn release(&mut self) {
        self.words.release();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::signals::{AddrPhase, Hburst, MasterId, SlaveId};
    use predpkt_sim::{restore_from_vec, save_to_vec};

    fn phase(write: bool, addr: u32, size: Hsize, trans: Htrans) -> AddrPhase {
        AddrPhase {
            master: MasterId(0),
            slave: Some(SlaveId(0)),
            trans,
            addr,
            write,
            size,
            burst: Hburst::Single,
        }
    }

    /// Runs an accepted transfer through to completion, returning the delivered
    /// read data (for reads) and the cycle count it took.
    fn complete(mem: &mut MemorySlave, p: AddrPhase, wdata: u32) -> (u32, u32) {
        mem.tick(&SlaveView {
            addr_phase: Some(p),
            ..SlaveView::quiet()
        });
        let mut cycles = 0;
        loop {
            cycles += 1;
            let out = mem.outputs();
            let view = SlaveView {
                dp_active: true,
                dp: Some(p),
                hready: out.ready,
                wdata,
                ..SlaveView::quiet()
            };
            let rdata = out.rdata;
            mem.tick(&view);
            if out.ready {
                return (rdata, cycles);
            }
        }
    }

    #[test]
    fn word_write_then_read() {
        let mut mem = MemorySlave::new(0x100, 0);
        complete(
            &mut mem,
            phase(true, 0x20, Hsize::Word, Htrans::Nonseq),
            0x1234_5678,
        );
        let (rdata, _) = complete(&mut mem, phase(false, 0x20, Hsize::Word, Htrans::Nonseq), 0);
        assert_eq!(rdata, 0x1234_5678);
        assert_eq!(mem.write_beats(), 1);
        assert_eq!(mem.read_beats(), 1);
    }

    #[test]
    fn wait_states_respected() {
        let mut mem = MemorySlave::with_waits(0x100, 3, 1);
        let (_, cycles) = complete(&mut mem, phase(false, 0x0, Hsize::Word, Htrans::Nonseq), 0);
        assert_eq!(cycles, 4, "3 wait states + 1 data cycle");
        let (_, cycles) = complete(&mut mem, phase(false, 0x4, Hsize::Word, Htrans::Seq), 0);
        assert_eq!(cycles, 2, "1 sequential wait + 1 data cycle");
    }

    #[test]
    fn byte_lanes_merge() {
        let mut mem = MemorySlave::new(0x100, 0);
        mem.poke_word(0x10, 0xaabb_ccdd);
        // Byte write to lane 2 (addr & 3 == 2): data arrives on bits 23..16.
        complete(
            &mut mem,
            phase(true, 0x12, Hsize::Byte, Htrans::Nonseq),
            0x00ee_0000,
        );
        assert_eq!(mem.peek_word(0x10), 0xaaee_ccdd);
        // Half write to the upper lane.
        complete(
            &mut mem,
            phase(true, 0x12, Hsize::Half, Htrans::Nonseq),
            0x1122_0000,
        );
        assert_eq!(mem.peek_word(0x10), 0x1122_ccdd);
    }

    #[test]
    fn mirror_addressing() {
        let mut mem = MemorySlave::new(0x10, 0); // 4 words
        mem.poke_word(0x0, 7);
        assert_eq!(mem.peek_word(0x10), 7, "address wraps modulo size");
    }

    #[test]
    fn back_to_back_write_read_same_address() {
        // Pipelined: the read of 0x8 is accepted in the same cycle the write to
        // 0x8 completes; it must observe the written value.
        let mut mem = MemorySlave::new(0x100, 0);
        let wp = phase(true, 0x8, Hsize::Word, Htrans::Nonseq);
        let rp = phase(false, 0x8, Hsize::Word, Htrans::Nonseq);
        // Accept write.
        mem.tick(&SlaveView {
            addr_phase: Some(wp),
            ..SlaveView::quiet()
        });
        // Write data phase completes; read accepted in the same cycle.
        assert!(mem.outputs().ready);
        mem.tick(&SlaveView {
            addr_phase: Some(rp),
            dp_active: true,
            dp: Some(wp),
            wdata: 0x55aa,
            ..SlaveView::quiet()
        });
        // Read data phase delivers the fresh value.
        let out = mem.outputs();
        assert!(out.ready);
        assert_eq!(out.rdata, 0x55aa);
    }

    #[test]
    fn snapshot_roundtrip() {
        let mut mem = MemorySlave::with_waits(0x40, 2, 1);
        mem.poke_word(0x0, 1);
        mem.poke_word(0x3c, 2);
        complete(&mut mem, phase(true, 0x4, Hsize::Word, Htrans::Nonseq), 99);
        let state = save_to_vec(&mem);
        let mut copy = MemorySlave::with_waits(0x40, 2, 1);
        restore_from_vec(&mut copy, &state).unwrap();
        assert_eq!(copy, mem);
    }

    /// A store of another size would change the mirror mapping, or (empty)
    /// divide by zero on the next access.
    #[test]
    fn a_store_of_another_size_is_refused_at_its_prefix() {
        let mut mem = MemorySlave::new(0x40, 0);
        mem.poke_word(0x8, 5);
        for bad in [0, 15, 17] {
            crate::test_util::assert_refused_at(&mem, 0, bad);
        }
    }

    #[test]
    #[should_panic(expected = "must not be empty")]
    fn zero_size_rejected() {
        let _ = MemorySlave::new(0, 0);
    }
}
