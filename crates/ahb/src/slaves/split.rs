//! SPLIT-capable slave: models a slow device that releases the bus while it
//! works.
//!
//! On a first access the slave answers SPLIT (two-cycle response), remembers
//! the requesting master, and starts an internal job of `latency` cycles. When
//! the job finishes it pulses the corresponding HSPLITx bit, the arbiter
//! unmasks the master, and the retried transfer is served from the backing
//! store with zero waits. Multiple masters can be split concurrently; jobs
//! complete in arrival order.

use crate::engine::{PlannedResponse, SlaveEngine};
use crate::signals::{MasterId, SlaveSignals, SlaveView};
use crate::AhbSlave;
use predpkt_sim::{declare_state, Journaled, List};

/// One split job in flight.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
struct Job {
    master: MasterId,
    cycles_left: u32,
    /// Processing starts only once the SPLIT response has completed.
    armed: bool,
}

/// A slave that SPLITs first accesses and serves retried ones.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SplitSlave {
    /// The backing store: rolls back by undo log (see [`Journaled`]).
    words: Journaled,
    latency: u32,
    jobs: Vec<Job>,
    /// Masters whose job finished and whose retry will be served.
    ready_masters: u16,
    /// HSPLITx bits to pulse this cycle.
    unmask_pulse: u16,
    engine: SlaveEngine,
    splits_issued: u64,
}

impl SplitSlave {
    /// Creates a split slave with `size_bytes` of backing store and an internal
    /// processing latency of `latency` cycles.
    ///
    /// # Panics
    ///
    /// Panics if `size_bytes` is zero.
    pub fn new(size_bytes: u32, latency: u32) -> Self {
        assert!(size_bytes > 0, "backing store must not be empty");
        SplitSlave {
            words: Journaled::new(size_bytes.div_ceil(4) as usize),
            latency,
            jobs: Vec::new(),
            ready_masters: 0,
            unmask_pulse: 0,
            engine: SlaveEngine::new(),
            splits_issued: 0,
        }
    }

    fn index(&self, addr: u32) -> usize {
        (addr as usize / 4) % self.words.len()
    }

    /// Direct word read (test access).
    pub fn peek_word(&self, addr: u32) -> u32 {
        self.words[self.index(addr)]
    }

    /// Direct word write (test access).
    pub fn poke_word(&mut self, addr: u32, value: u32) {
        let i = self.index(addr);
        self.words.set(i, value);
    }

    /// Total SPLIT responses issued.
    pub fn splits_issued(&self) -> u64 {
        self.splits_issued
    }
}

impl AhbSlave for SplitSlave {
    fn as_any(&self) -> &dyn std::any::Any {
        self
    }

    fn outputs(&self) -> SlaveSignals {
        let mut sig = self.engine.outputs();
        sig.split_unmask = self.unmask_pulse;
        sig
    }

    fn tick(&mut self, view: &SlaveView) {
        // The unmask pulse lasts exactly one cycle.
        self.unmask_pulse = 0;

        // Progress internal jobs; the oldest armed job counts down, and on
        // completion unmasks its master.
        if let Some(job) = self.jobs.first_mut() {
            if job.armed {
                if job.cycles_left > 0 {
                    job.cycles_left -= 1;
                }
                if job.cycles_left == 0 {
                    let done = self.jobs.remove(0);
                    self.ready_masters |= 1 << done.master.0;
                    self.unmask_pulse |= 1 << done.master.0;
                }
            }
        }

        let events = self.engine.tick(view);
        if let Some(done) = events.completed {
            if done.resp == crate::signals::Hresp::Split {
                // The split handshake finished: start processing the job.
                if let Some(job) = self
                    .jobs
                    .iter_mut()
                    .find(|j| j.master == done.phase.master && !j.armed)
                {
                    job.armed = true;
                }
            } else if let Some(wdata) = done.wdata {
                let i = self.index(done.phase.addr);
                self.words.set(i, wdata);
            }
        }
        if let Some(phase) = events.accepted {
            let bit = 1u16 << phase.master.0;
            if self.ready_masters & bit != 0 {
                // The retried transfer: serve immediately.
                self.ready_masters &= !bit;
                let rdata = if phase.write {
                    0
                } else {
                    self.words[self.index(phase.addr)]
                };
                self.engine.plan(PlannedResponse::okay(0, rdata));
            } else {
                // Fresh transfer: split the master and queue a job.
                self.splits_issued += 1;
                self.jobs.push(Job {
                    master: phase.master,
                    cycles_left: self.latency.max(1),
                    armed: false,
                });
                self.engine.plan(PlannedResponse::error_class(
                    0,
                    crate::signals::Hresp::Split,
                ));
            }
        }
    }
}

// A job's master must have an HSPLIT bit (completion shifts by it), and the
// masks are HSPLIT-wide: both are refused at their words. The backing store
// is refused at its length prefix unless it has the size the slave was built
// with; a mark journals the store and copies the rest.
declare_state! {
    impl Job {
        master => |job, _| job.master.0 < u16::BITS as usize,
        cycles_left,
        armed,
    }
}

declare_state! {
    impl SplitSlave {
        words,
        jobs: List,
        ready_masters,
        unmask_pulse,
        engine,
        splits_issued,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::signals::{AddrPhase, Hburst, Hresp, Hsize, Htrans, SlaveId};
    use predpkt_sim::{restore_from_vec, save_to_vec};

    fn phase(master: usize, write: bool, addr: u32) -> AddrPhase {
        AddrPhase {
            master: MasterId(master),
            slave: Some(SlaveId(0)),
            trans: Htrans::Nonseq,
            addr,
            write,
            size: Hsize::Word,
            burst: Hburst::Single,
        }
    }

    #[test]
    fn first_access_splits_then_serves_retry() {
        let mut s = SplitSlave::new(0x100, 3);
        s.poke_word(0x8, 0x7777);
        // First access: accepted, planned as SPLIT.
        s.tick(&SlaveView {
            addr_phase: Some(phase(1, false, 0x8)),
            ..SlaveView::quiet()
        });
        // Two-cycle SPLIT response.
        let out = s.outputs();
        assert!(!out.ready);
        assert_eq!(out.resp, Hresp::Split);
        s.tick(&SlaveView {
            dp_active: true,
            hready: false,
            ..SlaveView::quiet()
        });
        let out = s.outputs();
        assert!(out.ready);
        assert_eq!(out.resp, Hresp::Split);
        s.tick(&SlaveView {
            dp_active: true,
            ..SlaveView::quiet()
        });
        assert_eq!(s.splits_issued(), 1);

        // Idle until the unmask pulse appears.
        let mut pulsed_at = None;
        for i in 0..10 {
            if s.outputs().split_unmask & 0b10 != 0 {
                pulsed_at = Some(i);
                break;
            }
            s.tick(&SlaveView::quiet());
        }
        assert!(pulsed_at.is_some(), "HSPLIT pulse for master 1");

        // Retried access is served with data.
        s.tick(&SlaveView {
            addr_phase: Some(phase(1, false, 0x8)),
            ..SlaveView::quiet()
        });
        let out = s.outputs();
        assert!(out.ready);
        assert_eq!(out.resp, Hresp::Okay);
        assert_eq!(out.rdata, 0x7777);
    }

    #[test]
    fn unmask_pulse_is_one_cycle() {
        let mut s = SplitSlave::new(0x10, 1);
        s.tick(&SlaveView {
            addr_phase: Some(phase(0, false, 0x0)),
            ..SlaveView::quiet()
        });
        s.tick(&SlaveView {
            dp_active: true,
            hready: false,
            ..SlaveView::quiet()
        });
        s.tick(&SlaveView {
            dp_active: true,
            ..SlaveView::quiet()
        });
        // Find the pulse, then confirm it clears.
        let mut seen = false;
        for _ in 0..5 {
            let pulse = s.outputs().split_unmask;
            s.tick(&SlaveView::quiet());
            if pulse != 0 {
                seen = true;
                assert_eq!(s.outputs().split_unmask, 0, "pulse lasts one cycle");
                break;
            }
        }
        assert!(seen);
    }

    #[test]
    fn split_write_commits_on_retry() {
        let mut s = SplitSlave::new(0x100, 1);
        // Fresh write: split.
        s.tick(&SlaveView {
            addr_phase: Some(phase(0, true, 0x4)),
            ..SlaveView::quiet()
        });
        s.tick(&SlaveView {
            dp_active: true,
            hready: false,
            ..SlaveView::quiet()
        });
        s.tick(&SlaveView {
            dp_active: true,
            ..SlaveView::quiet()
        });
        // Wait for unmask.
        for _ in 0..4 {
            s.tick(&SlaveView::quiet());
        }
        // Retry: write completes and commits.
        let wp = phase(0, true, 0x4);
        s.tick(&SlaveView {
            addr_phase: Some(wp),
            ..SlaveView::quiet()
        });
        assert!(s.outputs().ready);
        s.tick(&SlaveView {
            dp_active: true,
            dp: Some(wp),
            wdata: 0xbeef,
            ..SlaveView::quiet()
        });
        assert_eq!(s.peek_word(0x4), 0xbeef);
    }

    #[test]
    fn concurrent_splits_complete_in_order() {
        let mut s = SplitSlave::new(0x100, 10);
        // Master 0 splits.
        s.tick(&SlaveView {
            addr_phase: Some(phase(0, false, 0x0)),
            ..SlaveView::quiet()
        });
        s.tick(&SlaveView {
            dp_active: true,
            hready: false,
            ..SlaveView::quiet()
        });
        s.tick(&SlaveView {
            dp_active: true,
            ..SlaveView::quiet()
        });
        // Master 2 splits.
        s.tick(&SlaveView {
            addr_phase: Some(phase(2, false, 0x0)),
            ..SlaveView::quiet()
        });
        s.tick(&SlaveView {
            dp_active: true,
            hready: false,
            ..SlaveView::quiet()
        });
        s.tick(&SlaveView {
            dp_active: true,
            ..SlaveView::quiet()
        });
        assert_eq!(s.splits_issued(), 2);
        // Collect unmask pulses in order.
        let mut pulses = Vec::new();
        for _ in 0..40 {
            let p = s.outputs().split_unmask;
            if p != 0 {
                pulses.push(p);
            }
            s.tick(&SlaveView::quiet());
        }
        assert_eq!(pulses, vec![0b001, 0b100], "jobs finish in arrival order");
    }

    #[test]
    fn snapshot_roundtrip_mid_job() {
        let mut s = SplitSlave::new(0x40, 5);
        s.tick(&SlaveView {
            addr_phase: Some(phase(3, false, 0xc)),
            ..SlaveView::quiet()
        });
        s.tick(&SlaveView {
            dp_active: true,
            hready: false,
            ..SlaveView::quiet()
        });
        let state = save_to_vec(&s);
        let mut copy = SplitSlave::new(0x40, 5);
        restore_from_vec(&mut copy, &state).unwrap();
        assert_eq!(copy, s);
    }

    /// A store of another size, a job for a master HSPLIT has no bit for
    /// (which would shift past the mask on completion) and a mask wider than
    /// HSPLIT (which re-saving would truncate) are refused at their words.
    #[test]
    fn state_the_slave_cannot_have_made_is_refused_at_its_word() {
        let mut s = SplitSlave::new(0x40, 5);
        s.tick(&SlaveView {
            addr_phase: Some(phase(3, false, 0xc)),
            ..SlaveView::quiet()
        });
        // Store prefix and 16 words, job count, then the job's master.
        let job_master = 1 + 16 + 1;
        let ready_masters = job_master + 3;
        for (at, bad) in [
            (0, 0),
            (0, 17),
            (job_master, 16),
            (job_master, 40),
            (ready_masters, 0x1_0000),
            (ready_masters + 1, 0x1_0000),
        ] {
            crate::test_util::assert_refused_at(&s, at, bad);
        }
    }
}
