//! Descriptor-driven DMA master.
//!
//! The paper's motivating workload: "SoC designs where large amount of data
//! flow in bursts between building blocks" (§3). The DMA engine copies blocks
//! word by word: it reads a chunk from the source with the largest legal INCR
//! burst ([`plan_incr_burst`](crate::burst::plan_incr_burst) tiles around the
//! 1 kB boundary), buffers it, writes it to the destination, and repeats. While
//! a copy is active the bus sees long, regular bursts — the best case for the
//! address/control predictor and the arbitration-result predictor.

use crate::burst::plan_incr_burst;
use crate::engine::{BusOp, MasterEngine};
use crate::signals::{Hsize, MasterSignals, MasterView};
use crate::AhbMaster;
use predpkt_sim::declare_state;

/// One DMA job: copy `words` 32-bit words from `src` to `dst`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DmaDescriptor {
    /// Source byte address (word aligned).
    pub src: u32,
    /// Destination byte address (word aligned).
    pub dst: u32,
    /// Number of words to move.
    pub words: u32,
}

impl DmaDescriptor {
    /// Creates a descriptor.
    ///
    /// # Panics
    ///
    /// Panics if the addresses are not word aligned or `words` is zero.
    pub fn new(src: u32, dst: u32, words: u32) -> Self {
        assert_eq!(src % 4, 0, "source must be word aligned");
        assert_eq!(dst % 4, 0, "destination must be word aligned");
        assert!(words > 0, "empty descriptor");
        DmaDescriptor { src, dst, words }
    }
}

/// Maximum words buffered between the read and write halves of a chunk.
const CHUNK_WORDS: u32 = 16;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum DmaPhase {
    /// Fetch the next chunk from the source.
    Reading,
    /// Store the buffered chunk to the destination.
    Writing,
}

impl DmaPhase {
    fn encode(self) -> u32 {
        self as u32
    }

    fn decode(code: u32) -> Option<DmaPhase> {
        match code {
            0 => Some(DmaPhase::Reading),
            1 => Some(DmaPhase::Writing),
            _ => None,
        }
    }
}

/// The DMA master.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DmaMaster {
    jobs: Vec<DmaDescriptor>,
    job_idx: usize,
    moved: u32,
    phase: DmaPhase,
    chunk: Vec<u32>,
    /// Beats of the operation currently in flight (read or write).
    inflight_words: u32,
    engine: MasterEngine,
    words_moved_total: u64,
    bus_errors: u64,
}

impl DmaMaster {
    /// Creates a DMA master that executes `jobs` in order, then idles.
    pub fn new(jobs: Vec<DmaDescriptor>) -> Self {
        DmaMaster {
            jobs,
            job_idx: 0,
            moved: 0,
            phase: DmaPhase::Reading,
            chunk: Vec::new(),
            inflight_words: 0,
            engine: MasterEngine::new(),
            words_moved_total: 0,
            bus_errors: 0,
        }
    }

    /// Total words successfully written to destinations.
    pub fn words_moved(&self) -> u64 {
        self.words_moved_total
    }

    /// Bus errors encountered (erroring chunks are skipped).
    pub fn bus_errors(&self) -> u64 {
        self.bus_errors
    }

    fn current_job(&self) -> Option<&DmaDescriptor> {
        self.jobs.get(self.job_idx)
    }

    fn launch_next(&mut self) {
        let Some(job) = self.current_job().copied() else {
            return;
        };
        let remaining = job.words - self.moved;
        match self.phase {
            DmaPhase::Reading => {
                let addr = job.src + self.moved * 4;
                let (_, beats) = plan_incr_burst(addr, Hsize::Word, remaining.min(CHUNK_WORDS));
                self.inflight_words = beats;
                self.engine
                    .submit(BusOp::read_incr(addr, Hsize::Word, beats));
            }
            DmaPhase::Writing => {
                let addr = job.dst + self.moved * 4;
                let data = std::mem::take(&mut self.chunk);
                self.inflight_words = data.len() as u32;
                self.engine
                    .submit(BusOp::write_incr(addr, Hsize::Word, data));
            }
        }
    }
}

impl AhbMaster for DmaMaster {
    fn as_any(&self) -> &dyn std::any::Any {
        self
    }

    fn outputs(&self) -> MasterSignals {
        self.engine.outputs()
    }

    fn tick(&mut self, view: &MasterView) {
        self.engine.tick(view);
        if let Some(res) = self.engine.take_result() {
            if res.error {
                // Skip the failing chunk and press on: errors counted, copy
                // integrity is the caller's concern.
                self.bus_errors += 1;
                self.moved = (self.moved + self.inflight_words.max(1))
                    .min(self.current_job().map_or(0, |j| j.words));
                self.chunk.clear();
                self.phase = DmaPhase::Reading;
            } else if res.write {
                self.moved += self.inflight_words;
                self.words_moved_total += self.inflight_words as u64;
                self.phase = DmaPhase::Reading;
            } else {
                self.chunk = res.rdata;
                self.phase = DmaPhase::Writing;
            }
            // Advance to the next descriptor when this one is finished.
            if let Some(job) = self.current_job() {
                if self.moved >= job.words {
                    self.job_idx += 1;
                    self.moved = 0;
                    self.phase = DmaPhase::Reading;
                }
            }
        }
        if !self.engine.busy() && !self.done() {
            self.launch_next();
        }
    }

    fn done(&self) -> bool {
        self.job_idx >= self.jobs.len() && !self.engine.busy()
    }
}

declare_state! { impl DmaPhase: word(encode, decode) }

// The descriptors are static configuration. At a clock edge `moved` is below
// the current job's word count (`tick` moves on to the next job when it
// gets there), so a count at or past it is refused at its word: the next
// launch would subtract past zero.
declare_state! {
    impl DmaMaster {
        job_idx,
        moved => |d, _| d.current_job().map_or(true, |job| d.moved < job.words),
        phase,
        chunk,
        inflight_words,
        engine,
        words_moved_total,
        bus_errors,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use predpkt_sim::{restore_from_vec, save_to_vec};

    /// Minimal single-master bus emulation: always granted, memory modelled as
    /// an address-indexed function, zero wait states. Returns writes performed.
    fn run_dma(dma: &mut DmaMaster, max_cycles: u32) -> Vec<(u32, u32)> {
        let mut writes = Vec::new();
        let mut dp: Option<(bool, u32)> = None; // (write, addr)
        let mut wdata_addr = 0;
        for _ in 0..max_cycles {
            if dma.done() {
                break;
            }
            let out = dma.outputs();
            let (dp_mine, rdata) = match dp {
                Some((false, addr)) => (true, addr ^ 0x5a5a_0000), // read "memory"
                Some((true, _)) => (true, 0),
                None => (false, 0),
            };
            if let Some((true, addr)) = dp {
                wdata_addr = addr;
            }
            let view = MasterView {
                granted: true,
                hready: true,
                dp_mine,
                rdata,
                ..MasterView::quiet()
            };
            // Capture write data during its data phase.
            if let Some((true, _)) = dp {
                writes.push((wdata_addr, out.wdata));
            }
            dp = out.trans.is_active().then_some((out.write, out.addr));
            dma.tick(&view);
        }
        writes
    }

    #[test]
    fn copies_all_words_in_order() {
        let mut dma = DmaMaster::new(vec![DmaDescriptor::new(0x100, 0x800, 20)]);
        let writes = run_dma(&mut dma, 400);
        assert!(dma.done());
        assert_eq!(dma.words_moved(), 20);
        assert_eq!(writes.len(), 20);
        // Every destination word must carry the value read from the matching
        // source address (our fake memory returns addr ^ 0x5a5a0000).
        for (i, (addr, data)) in writes.iter().enumerate() {
            assert_eq!(*addr, 0x800 + 4 * i as u32);
            assert_eq!(*data, (0x100 + 4 * i as u32) ^ 0x5a5a_0000);
        }
    }

    #[test]
    fn multiple_descriptors_processed_sequentially() {
        let mut dma = DmaMaster::new(vec![
            DmaDescriptor::new(0x0, 0x400, 4),
            DmaDescriptor::new(0x40, 0x440, 8),
        ]);
        let writes = run_dma(&mut dma, 600);
        assert!(dma.done());
        assert_eq!(dma.words_moved(), 12);
        assert_eq!(writes[0].0, 0x400);
        assert_eq!(writes[4].0, 0x440);
    }

    #[test]
    fn chunking_respects_sixteen_word_limit() {
        let mut dma = DmaMaster::new(vec![DmaDescriptor::new(0x0, 0x1000, 33)]);
        run_dma(&mut dma, 1000);
        assert!(dma.done());
        assert_eq!(dma.words_moved(), 33, "16+16+1 chunks");
    }

    #[test]
    #[should_panic(expected = "word aligned")]
    fn misaligned_descriptor_rejected() {
        let _ = DmaDescriptor::new(0x2, 0x0, 1);
    }

    #[test]
    fn snapshot_roundtrip_mid_copy() {
        let mut dma = DmaMaster::new(vec![DmaDescriptor::new(0x0, 0x200, 12)]);
        // Run a handful of cycles, then snapshot.
        let mut dp: Option<(bool, u32)> = None;
        for _ in 0..7 {
            let out = dma.outputs();
            let dp_mine = dp.is_some();
            let rdata = dp.map_or(0, |(_, a)| a);
            dp = out.trans.is_active().then_some((out.write, out.addr));
            dma.tick(&MasterView {
                granted: true,
                dp_mine,
                rdata,
                ..MasterView::quiet()
            });
        }
        let state = save_to_vec(&dma);
        let mut copy = DmaMaster::new(vec![DmaDescriptor::new(0x0, 0x200, 12)]);
        restore_from_vec(&mut copy, &state).unwrap();
        assert_eq!(copy, dma);
    }

    /// `moved` (the word after the job index) stays below the current job's
    /// word count: the next launch subtracts it from that count.
    #[test]
    fn a_moved_count_past_the_job_is_refused_at_its_word() {
        let mut dma = DmaMaster::new(vec![DmaDescriptor::new(0x0, 0x200, 8)]);
        run_dma(&mut dma, 5);
        assert!(!dma.done());
        for bad in [8, 100] {
            crate::test_util::assert_refused_at(&dma, 1, bad);
        }
    }
}
