//! Bus fabric: arbiter + decoder + pipeline registers.
//!
//! The fabric is the part of the bus the paper *replicates into both half-bus
//! models* (§4): because arbitration priority and address maps are static, the
//! arbiter and decoder outputs "can be deduced from arbitration request signals
//! and address signals" and need not cross the channel. [`Fabric`] therefore
//! computes everything derived — grant, address-phase routing, the data-phase
//! register, response/data muxes, the built-in default slave — as a pure
//! function of the per-cycle Moore outputs of masters and slaves plus its own
//! replicated state.
//!
//! Two fabric replicas fed identical master/slave signal arrays stay
//! bit-identical forever; an integration test asserts exactly that.

use crate::burst::BurstTracker;
use crate::signals::{
    AddrPhase, Hresp, MasterId, MasterSignals, MasterView, SlaveId, SlaveSignals, SlaveView,
};
use predpkt_sim::declare_state;

/// One region of the static address map.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Region {
    /// First address of the region.
    pub base: u32,
    /// Region size in bytes.
    pub size: u32,
    /// Slave served by this region.
    pub slave: SlaveId,
}

impl Region {
    /// `true` if `addr` falls inside the region.
    pub fn contains(&self, addr: u32) -> bool {
        addr >= self.base && (addr - self.base) < self.size
    }

    /// `true` if two regions overlap.
    pub fn overlaps(&self, other: &Region) -> bool {
        let a_end = self.base as u64 + self.size as u64;
        let b_end = other.base as u64 + other.size as u64;
        (self.base as u64) < b_end && (other.base as u64) < a_end
    }
}

/// The static address decoder (HSEL generation).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Decoder {
    regions: Vec<Region>,
}

impl Decoder {
    /// Builds a decoder from regions.
    ///
    /// # Errors
    ///
    /// Returns the offending pair if two regions overlap, or the region if its
    /// size is zero or it wraps past the top of the address space.
    pub fn new(regions: Vec<Region>) -> Result<Decoder, DecodeMapError> {
        for (i, r) in regions.iter().enumerate() {
            if r.size == 0 {
                return Err(DecodeMapError::EmptyRegion { region: *r });
            }
            if r.base.checked_add(r.size - 1).is_none() {
                return Err(DecodeMapError::WrapsAddressSpace { region: *r });
            }
            for other in &regions[i + 1..] {
                if r.overlaps(other) {
                    return Err(DecodeMapError::Overlap {
                        first: *r,
                        second: *other,
                    });
                }
            }
        }
        Ok(Decoder { regions })
    }

    /// Decodes an address to its slave; `None` selects the default slave.
    pub fn decode(&self, addr: u32) -> Option<SlaveId> {
        self.regions
            .iter()
            .find(|r| r.contains(addr))
            .map(|r| r.slave)
    }

    /// The configured regions.
    pub fn regions(&self) -> &[Region] {
        &self.regions
    }
}

/// Address-map construction failure.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DecodeMapError {
    /// Two regions overlap.
    Overlap {
        /// First overlapping region.
        first: Region,
        /// Second overlapping region.
        second: Region,
    },
    /// A region has zero size.
    EmptyRegion {
        /// The offending region.
        region: Region,
    },
    /// A region extends past the 32-bit address space.
    WrapsAddressSpace {
        /// The offending region.
        region: Region,
    },
}

impl std::fmt::Display for DecodeMapError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DecodeMapError::Overlap { first, second } => {
                write!(f, "address map regions overlap: {first:?} and {second:?}")
            }
            DecodeMapError::EmptyRegion { region } => {
                write!(f, "address map region is empty: {region:?}")
            }
            DecodeMapError::WrapsAddressSpace { region } => {
                write!(f, "address map region wraps the address space: {region:?}")
            }
        }
    }
}

impl std::error::Error for DecodeMapError {}

/// Static-priority AHB arbiter with SPLIT masking, lock support, and
/// defined-length-burst grant holding.
///
/// Lower master index = higher priority (the paper assumes statically defined
/// arbitration priority). Grants change only on ready cycles, never inside a
/// defined-length burst, and never while the granted master holds HLOCK with an
/// active request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Arbiter {
    num_masters: usize,
    default_master: MasterId,
    granted: MasterId,
    split_mask: u16,
    burst: Option<BurstTracker>,
}

impl Arbiter {
    /// Creates an arbiter for `num_masters` masters; the default master owns
    /// the bus when nobody requests it.
    ///
    /// # Panics
    ///
    /// Panics if `num_masters` is 0 or exceeds 16 (HSPLIT is a 16-bit vector),
    /// or if `default_master` is out of range.
    pub fn new(num_masters: usize, default_master: MasterId) -> Self {
        assert!(
            num_masters > 0 && num_masters <= 16,
            "1..=16 masters supported"
        );
        assert!(
            default_master.0 < num_masters,
            "default master out of range"
        );
        Arbiter {
            num_masters,
            default_master,
            granted: default_master,
            split_mask: 0,
            burst: None,
        }
    }

    /// The master owning the address phase this cycle (HGRANT, Moore output).
    pub fn granted(&self) -> MasterId {
        self.granted
    }

    /// The current SPLIT mask (bit per master).
    pub fn split_mask(&self) -> u16 {
        self.split_mask
    }

    /// `true` while the granted master is inside a defined-length burst.
    pub fn holding_burst(&self) -> bool {
        self.burst.is_some()
    }

    /// Advances the arbiter one clock edge.
    ///
    /// `masters` are this cycle's master outputs; `hready`/`resp` the muxed
    /// data-phase response; `dp` the data phase served this cycle;
    /// `split_unmask` the OR of all slaves' HSPLITx vectors.
    pub fn tick(
        &mut self,
        masters: &[MasterSignals],
        hready: bool,
        resp: Hresp,
        dp: Option<&AddrPhase>,
        split_unmask: u16,
    ) {
        // 1. SPLIT bookkeeping: mask on the first cycle of a SPLIT response,
        //    unmask whatever the slaves re-enable.
        if let Some(d) = dp {
            if resp == Hresp::Split && !hready {
                self.split_mask |= 1 << d.master.0;
            }
        }
        self.split_mask &= !split_unmask;

        // 2. Burst tracking over the granted master's accepted address phases.
        let g = &masters[self.granted.0];
        if hready {
            match g.trans {
                crate::signals::Htrans::Nonseq => {
                    self.burst = match g.burst.beats() {
                        Some(beats) if beats > 1 => {
                            Some(BurstTracker::start(g.addr, g.size, g.burst))
                        }
                        _ => None, // SINGLE and INCR: re-arbitrate freely
                    };
                }
                crate::signals::Htrans::Seq => {
                    if let Some(t) = &mut self.burst {
                        t.advance();
                        if t.complete() {
                            self.burst = None;
                        }
                    }
                }
                crate::signals::Htrans::Idle => self.burst = None,
                crate::signals::Htrans::Busy => {} // burst paused, keep holding
            }
        } else if resp.is_error_class() {
            // First cycle of ERROR/RETRY/SPLIT aborts any in-flight burst.
            self.burst = None;
        }

        // 3. Grant decision (effective next cycle). Grants move only on ready
        //    cycles, never mid-defined-burst, never away from a locked master.
        if !hready {
            return;
        }
        if self.burst.is_some() {
            return;
        }
        if g.lock && g.busreq {
            return;
        }
        let winner = (0..self.num_masters)
            .find(|&i| masters[i].busreq && self.split_mask & (1 << i) == 0)
            .map(MasterId);
        self.granted = winner.unwrap_or(self.default_master);
    }
}

declare_state! {
    impl Arbiter {
        granted => |a, _| a.granted.0 < a.num_masters,
        split_mask,
        burst,
    }
}

/// Everything derived about one bus cycle: the output of the fabric's
/// combinational view over the Moore outputs of all components.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CycleView {
    /// Master owning the address phase.
    pub grant: MasterId,
    /// The address phase driven this cycle (by the granted master).
    pub addr_phase: AddrPhase,
    /// System HREADY.
    pub hready: bool,
    /// System HRESP.
    pub resp: Hresp,
    /// Muxed read data (data-phase slave).
    pub rdata: u32,
    /// Muxed write data (data-phase master).
    pub wdata: u32,
    /// The data phase being served this cycle.
    pub dp: Option<AddrPhase>,
    /// Interrupt lines, one bit per slave.
    pub irq: u16,
}

/// Arbiter + decoder + data-phase register + default slave: the replicated
/// heart of the bus.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Fabric {
    arbiter: Arbiter,
    decoder: Decoder,
    dp: Option<AddrPhase>,
    /// Default-slave FSM: `true` while driving the second cycle of its
    /// two-cycle ERROR response.
    default_err2: bool,
}

impl Fabric {
    /// Creates a fabric.
    pub fn new(arbiter: Arbiter, decoder: Decoder) -> Self {
        Fabric {
            arbiter,
            decoder,
            dp: None,
            default_err2: false,
        }
    }

    /// The decoder (static, never part of snapshots).
    pub fn decoder(&self) -> &Decoder {
        &self.decoder
    }

    /// The arbiter.
    pub fn arbiter(&self) -> &Arbiter {
        &self.arbiter
    }

    /// The in-flight data phase.
    pub fn data_phase(&self) -> Option<&AddrPhase> {
        self.dp.as_ref()
    }

    /// Computes the combinational per-cycle view from all Moore outputs.
    ///
    /// # Panics
    ///
    /// Panics if a slave index stored in the data phase exceeds `slaves`
    /// (impossible for phases produced by this fabric's decoder).
    pub fn view(&self, masters: &[MasterSignals], slaves: &[SlaveSignals]) -> CycleView {
        let grant = self.arbiter.granted();
        let m = &masters[grant.0];
        let addr_phase = AddrPhase {
            master: grant,
            slave: if m.trans.is_active() {
                self.decoder.decode(m.addr)
            } else {
                None
            },
            trans: m.trans,
            addr: m.addr,
            write: m.write,
            size: m.size,
            burst: m.burst,
        };

        let (hready, resp, rdata) = match &self.dp {
            None => (true, Hresp::Okay, 0),
            Some(d) => match d.slave {
                Some(s) => {
                    let so = &slaves[s.0];
                    (so.ready, so.resp, so.rdata)
                }
                // Built-in default slave: two-cycle ERROR.
                None => (self.default_err2, Hresp::Error, 0),
            },
        };

        let wdata = match &self.dp {
            Some(d) if d.write => masters[d.master.0].wdata,
            _ => 0,
        };

        let mut irq = 0u16;
        for (i, s) in slaves.iter().enumerate() {
            if s.irq {
                irq |= 1 << i;
            }
        }

        CycleView {
            grant,
            addr_phase,
            hready,
            resp,
            rdata,
            wdata,
            dp: self.dp,
            irq,
        }
    }

    /// Advances the fabric one clock edge.
    pub fn tick(&mut self, view: &CycleView, masters: &[MasterSignals], slaves: &[SlaveSignals]) {
        // Default-slave FSM: first unready ERROR cycle arms the second cycle.
        self.default_err2 = matches!(&self.dp, Some(d) if d.slave.is_none()) && !self.default_err2;

        // Data-phase register: on ready cycles the current phase retires and an
        // active address phase becomes the next data phase.
        if view.hready {
            self.dp = view.addr_phase.trans.is_active().then_some(view.addr_phase);
        }

        let split_unmask = slaves.iter().fold(0u16, |acc, s| acc | s.split_unmask);
        self.arbiter.tick(
            masters,
            view.hready,
            view.resp,
            view.dp.as_ref(),
            split_unmask,
        );
    }

    /// What [`tick`](Self::tick) on `view` would leave, in a fabric without
    /// the decoder, which no tick changes: two such fabrics compare the
    /// edges two views of one cycle lead to, and building one allocates
    /// nothing.
    pub fn ticked(
        &self,
        view: &CycleView,
        masters: &[MasterSignals],
        slaves: &[SlaveSignals],
    ) -> Fabric {
        let mut next = Fabric {
            arbiter: self.arbiter.clone(),
            decoder: Decoder::default(),
            dp: self.dp,
            default_err2: self.default_err2,
        };
        next.tick(view, masters, slaves);
        next
    }

    /// Builds the per-master view of a cycle.
    pub fn master_view(&self, view: &CycleView, master: MasterId) -> MasterView {
        MasterView {
            granted: view.grant == master,
            hready: view.hready,
            resp: view.resp,
            rdata: view.rdata,
            dp_mine: matches!(&view.dp, Some(d) if d.master == master),
            irq: view.irq,
        }
    }

    /// Builds the per-slave view of a cycle.
    pub fn slave_view(&self, view: &CycleView, slave: SlaveId) -> SlaveView {
        let selects_me = matches!(view.addr_phase.slave, Some(s) if s == slave)
            && view.addr_phase.trans.is_active();
        let dp_active = matches!(&view.dp, Some(d) if d.slave == Some(slave));
        SlaveView {
            addr_phase: selects_me.then_some(view.addr_phase),
            hready: view.hready,
            dp_active,
            dp: if dp_active { view.dp } else { None },
            wdata: if dp_active { view.wdata } else { 0 },
        }
    }
}

declare_state! {
    impl Fabric {
        arbiter,
        default_err2,
        dp => Fabric::phase_on_bus,
    }
}

impl Fabric {
    /// `view`, the arbiter and the domain model index the signal vectors
    /// with the data phase's owner and target, so both must name components
    /// of this bus: a master the arbiter knows, refused at the phase's
    /// master word (after its presence flag), and a slave the decoder maps,
    /// refused at its slave word (after the master and the slave's flag).
    fn phase_on_bus(&self, at: usize) -> Result<(), usize> {
        let Some(dp) = &self.dp else { return Ok(()) };
        if dp.master.0 >= self.arbiter.num_masters {
            return Err(at + 1);
        }
        match dp.slave {
            Some(s) if !self.decoder.regions().iter().any(|g| g.slave == s) => Err(at + 3),
            _ => Ok(()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::signals::{Hburst, Hsize, Htrans};
    use crate::test_util::assert_refused_at;
    use predpkt_sim::{restore_from_vec, save_to_vec};

    fn decoder_two_slaves() -> Decoder {
        Decoder::new(vec![
            Region {
                base: 0x0000,
                size: 0x1000,
                slave: SlaveId(0),
            },
            Region {
                base: 0x1000,
                size: 0x1000,
                slave: SlaveId(1),
            },
        ])
        .unwrap()
    }

    fn idle_masters(n: usize) -> Vec<MasterSignals> {
        vec![MasterSignals::idle(); n]
    }

    fn idle_slaves(n: usize) -> Vec<SlaveSignals> {
        vec![SlaveSignals::idle(); n]
    }

    #[test]
    fn decoder_rejects_overlap() {
        let err = Decoder::new(vec![
            Region {
                base: 0x0,
                size: 0x100,
                slave: SlaveId(0),
            },
            Region {
                base: 0x80,
                size: 0x100,
                slave: SlaveId(1),
            },
        ])
        .unwrap_err();
        assert!(matches!(err, DecodeMapError::Overlap { .. }));
    }

    #[test]
    fn decoder_rejects_empty_and_wrapping() {
        assert!(matches!(
            Decoder::new(vec![Region {
                base: 0,
                size: 0,
                slave: SlaveId(0)
            }]),
            Err(DecodeMapError::EmptyRegion { .. })
        ));
        assert!(matches!(
            Decoder::new(vec![Region {
                base: u32::MAX,
                size: 2,
                slave: SlaveId(0)
            }]),
            Err(DecodeMapError::WrapsAddressSpace { .. })
        ));
    }

    #[test]
    fn decoder_decodes_and_defaults() {
        let d = decoder_two_slaves();
        assert_eq!(d.decode(0x0), Some(SlaveId(0)));
        assert_eq!(d.decode(0xfff), Some(SlaveId(0)));
        assert_eq!(d.decode(0x1000), Some(SlaveId(1)));
        assert_eq!(d.decode(0x2000), None);
    }

    #[test]
    fn arbiter_defaults_to_default_master() {
        let mut a = Arbiter::new(3, MasterId(0));
        assert_eq!(a.granted(), MasterId(0));
        let masters = idle_masters(3);
        a.tick(&masters, true, Hresp::Okay, None, 0);
        assert_eq!(a.granted(), MasterId(0));
    }

    #[test]
    fn arbiter_priority_is_static_by_index() {
        let mut a = Arbiter::new(3, MasterId(0));
        let mut masters = idle_masters(3);
        masters[1].busreq = true;
        masters[2].busreq = true;
        a.tick(&masters, true, Hresp::Okay, None, 0);
        assert_eq!(a.granted(), MasterId(1), "lower index wins");
    }

    #[test]
    fn arbiter_holds_grant_when_not_ready() {
        let mut a = Arbiter::new(2, MasterId(0));
        let mut masters = idle_masters(2);
        masters[1].busreq = true;
        a.tick(&masters, false, Hresp::Okay, None, 0);
        assert_eq!(a.granted(), MasterId(0), "no handover on wait states");
        a.tick(&masters, true, Hresp::Okay, None, 0);
        assert_eq!(a.granted(), MasterId(1));
    }

    #[test]
    fn arbiter_holds_grant_through_defined_burst() {
        let mut a = Arbiter::new(2, MasterId(0));
        let mut masters = idle_masters(2);
        // Master 0 launches an INCR4 burst; master 1 requests mid-burst.
        masters[0].busreq = true;
        masters[0].trans = Htrans::Nonseq;
        masters[0].burst = Hburst::Incr4;
        masters[0].addr = 0x100;
        a.tick(&masters, true, Hresp::Okay, None, 0);
        assert!(a.holding_burst());
        masters[1].busreq = true;
        masters[0].trans = Htrans::Seq;
        for beat in 1..4u32 {
            masters[0].addr = 0x100 + 4 * beat;
            a.tick(&masters, true, Hresp::Okay, None, 0);
            if beat < 3 {
                assert_eq!(a.granted(), MasterId(0), "grant held at beat {beat}");
            }
        }
        // Burst complete: grant moves to the higher-priority requester... which
        // is master 0 itself (still requesting); drop its request to hand over.
        masters[0].busreq = false;
        masters[0].trans = Htrans::Idle;
        a.tick(&masters, true, Hresp::Okay, None, 0);
        assert_eq!(a.granted(), MasterId(1));
    }

    #[test]
    fn arbiter_incr_burst_rearbitrates() {
        let mut a = Arbiter::new(2, MasterId(0));
        let mut masters = idle_masters(2);
        masters[0].busreq = true;
        masters[0].trans = Htrans::Nonseq;
        masters[0].burst = Hburst::Incr;
        a.tick(&masters, true, Hresp::Okay, None, 0);
        assert!(!a.holding_burst(), "INCR never holds");
        masters[1].busreq = true;
        a.tick(&masters, true, Hresp::Okay, None, 0);
        assert_eq!(a.granted(), MasterId(0), "static priority still favours 0");
        masters[0].busreq = false;
        a.tick(&masters, true, Hresp::Okay, None, 0);
        assert_eq!(a.granted(), MasterId(1));
    }

    #[test]
    fn arbiter_lock_holds_grant() {
        let mut a = Arbiter::new(2, MasterId(1));
        let mut masters = idle_masters(2);
        masters[1].busreq = true;
        masters[1].lock = true;
        a.tick(&masters, true, Hresp::Okay, None, 0);
        assert_eq!(a.granted(), MasterId(1));
        masters[0].busreq = true; // higher priority, but lock wins
        a.tick(&masters, true, Hresp::Okay, None, 0);
        assert_eq!(a.granted(), MasterId(1));
        masters[1].lock = false;
        a.tick(&masters, true, Hresp::Okay, None, 0);
        assert_eq!(a.granted(), MasterId(0));
    }

    #[test]
    fn arbiter_split_masks_and_unmasks() {
        let mut a = Arbiter::new(2, MasterId(0));
        let mut masters = idle_masters(2);
        masters[1].busreq = true;
        let dp = AddrPhase {
            master: MasterId(1),
            slave: Some(SlaveId(0)),
            trans: Htrans::Nonseq,
            addr: 0,
            write: false,
            size: Hsize::Word,
            burst: Hburst::Single,
        };
        // First cycle of SPLIT: mask master 1.
        a.tick(&masters, false, Hresp::Split, Some(&dp), 0);
        assert_eq!(a.split_mask(), 0b10);
        // Master 1 keeps requesting but cannot win.
        a.tick(&masters, true, Hresp::Okay, None, 0);
        assert_eq!(a.granted(), MasterId(0));
        // Slave un-splits master 1.
        a.tick(&masters, true, Hresp::Okay, None, 0b10);
        assert_eq!(a.split_mask(), 0);
        a.tick(&masters, true, Hresp::Okay, None, 0);
        assert_eq!(a.granted(), MasterId(1));
    }

    #[test]
    fn arbiter_snapshot_roundtrip() {
        let mut a = Arbiter::new(4, MasterId(2));
        let mut masters = idle_masters(4);
        masters[3].busreq = true;
        masters[3].trans = Htrans::Nonseq;
        masters[3].burst = Hburst::Incr8;
        masters[3].addr = 0x40;
        a.tick(&masters, true, Hresp::Okay, None, 0);
        a.tick(&masters, true, Hresp::Okay, None, 0);
        let state = save_to_vec(&a);
        let mut copy = Arbiter::new(4, MasterId(2));
        restore_from_vec(&mut copy, &state).unwrap();
        assert_eq!(copy, a);
    }

    #[test]
    #[should_panic(expected = "1..=16 masters")]
    fn arbiter_rejects_too_many_masters() {
        let _ = Arbiter::new(17, MasterId(0));
    }

    #[test]
    fn fabric_idle_view() {
        let f = Fabric::new(Arbiter::new(1, MasterId(0)), decoder_two_slaves());
        let masters = idle_masters(1);
        let slaves = idle_slaves(2);
        let v = f.view(&masters, &slaves);
        assert!(v.hready);
        assert_eq!(v.resp, Hresp::Okay);
        assert_eq!(v.dp, None);
        assert_eq!(v.addr_phase.trans, Htrans::Idle);
    }

    #[test]
    fn fabric_pipelines_address_to_data_phase() {
        let mut f = Fabric::new(Arbiter::new(1, MasterId(0)), decoder_two_slaves());
        let mut masters = idle_masters(1);
        let slaves = idle_slaves(2);
        masters[0].trans = Htrans::Nonseq;
        masters[0].addr = 0x1004;
        masters[0].write = true;
        masters[0].wdata = 0xaa55;
        let v = f.view(&masters, &slaves);
        f.tick(&v, &masters, &slaves);
        // Next cycle: the write occupies the data phase, targeting slave 1.
        let v2 = f.view(&masters, &slaves);
        let dp = v2.dp.expect("data phase formed");
        assert_eq!(dp.slave, Some(SlaveId(1)));
        assert!(dp.write);
        assert_eq!(v2.wdata, 0xaa55, "write data muxed from data-phase master");
    }

    #[test]
    fn fabric_holds_data_phase_through_wait_states() {
        let mut f = Fabric::new(Arbiter::new(1, MasterId(0)), decoder_two_slaves());
        let mut masters = idle_masters(1);
        let mut slaves = idle_slaves(2);
        masters[0].trans = Htrans::Nonseq;
        masters[0].addr = 0x10;
        let v = f.view(&masters, &slaves);
        f.tick(&v, &masters, &slaves);
        masters[0].trans = Htrans::Idle;
        slaves[0].ready = false; // slave inserts wait states
        for _ in 0..3 {
            let v = f.view(&masters, &slaves);
            assert!(!v.hready);
            assert!(v.dp.is_some());
            f.tick(&v, &masters, &slaves);
            assert!(f.data_phase().is_some(), "data phase held while not ready");
        }
        slaves[0].ready = true;
        let v = f.view(&masters, &slaves);
        assert!(v.hready);
        f.tick(&v, &masters, &slaves);
        assert!(f.data_phase().is_none(), "data phase retired on ready");
    }

    #[test]
    fn fabric_default_slave_two_cycle_error() {
        let mut f = Fabric::new(Arbiter::new(1, MasterId(0)), decoder_two_slaves());
        let mut masters = idle_masters(1);
        let slaves = idle_slaves(2);
        masters[0].trans = Htrans::Nonseq;
        masters[0].addr = 0x9999_0000; // unmapped
        let v = f.view(&masters, &slaves);
        f.tick(&v, &masters, &slaves);
        masters[0].trans = Htrans::Idle;
        // First error cycle: not ready, ERROR.
        let v1 = f.view(&masters, &slaves);
        assert!(!v1.hready);
        assert_eq!(v1.resp, Hresp::Error);
        f.tick(&v1, &masters, &slaves);
        // Second error cycle: ready, ERROR; phase retires.
        let v2 = f.view(&masters, &slaves);
        assert!(v2.hready);
        assert_eq!(v2.resp, Hresp::Error);
        f.tick(&v2, &masters, &slaves);
        let v3 = f.view(&masters, &slaves);
        assert!(v3.hready);
        assert_eq!(v3.resp, Hresp::Okay);
    }

    #[test]
    fn fabric_views_route_irq_and_ownership() {
        let f = Fabric::new(Arbiter::new(2, MasterId(0)), decoder_two_slaves());
        let masters = idle_masters(2);
        let mut slaves = idle_slaves(2);
        slaves[1].irq = true;
        let v = f.view(&masters, &slaves);
        assert_eq!(v.irq, 0b10);
        let mv = f.master_view(&v, MasterId(0));
        assert!(mv.granted);
        assert_eq!(mv.irq, 0b10);
        let mv1 = f.master_view(&v, MasterId(1));
        assert!(!mv1.granted);
        let sv = f.slave_view(&v, SlaveId(0));
        assert!(sv.addr_phase.is_none() && !sv.dp_active);
    }

    #[test]
    fn fabric_snapshot_roundtrip_mid_transfer() {
        let mut f = Fabric::new(Arbiter::new(2, MasterId(0)), decoder_two_slaves());
        let mut masters = idle_masters(2);
        let slaves = idle_slaves(2);
        masters[0].trans = Htrans::Nonseq;
        masters[0].burst = Hburst::Incr4;
        masters[0].busreq = true;
        masters[0].addr = 0x20;
        let v = f.view(&masters, &slaves);
        f.tick(&v, &masters, &slaves);
        let state = save_to_vec(&f);
        let mut copy = Fabric::new(Arbiter::new(2, MasterId(0)), decoder_two_slaves());
        restore_from_vec(&mut copy, &state).unwrap();
        assert_eq!(copy, f);
    }

    /// `view` indexes both signal vectors with the data phase, so a phase
    /// naming a master or slave this bus does not have is refused at the word
    /// that names it.
    #[test]
    fn restore_refuses_a_data_phase_outside_the_bus() {
        let mut f = Fabric::new(Arbiter::new(2, MasterId(0)), decoder_two_slaves());
        let mut masters = idle_masters(2);
        let slaves = idle_slaves(2);
        masters[0].trans = Htrans::Nonseq;
        masters[0].busreq = true;
        masters[0].addr = 0x1020;
        let v = f.view(&masters, &slaves);
        f.tick(&v, &masters, &slaves);
        let state = save_to_vec(&f);
        // Arbiter: grant, split mask, no burst; default-slave flag; phase
        // present, its master, slave present, its slave.
        let (master_at, slave_at) = (5, 7);
        assert_eq!(state.words()[4..8], [1, 0, 1, 1]);
        for (at, bad) in [(master_at, 2), (slave_at, 2), (slave_at, u64::MAX >> 1)] {
            assert_refused_at(&f, at, bad);
        }
    }

    #[test]
    fn replicated_fabrics_stay_bit_identical() {
        // The property the paper's half-bus models rely on: two replicas fed the
        // same signal arrays never diverge.
        let mk = || Fabric::new(Arbiter::new(2, MasterId(0)), decoder_two_slaves());
        let mut a = mk();
        let mut b = mk();
        let mut masters = idle_masters(2);
        let mut slaves = idle_slaves(2);
        for step in 0..200u32 {
            // Pseudo-random but deterministic stimulus.
            let r = step.wrapping_mul(2654435761);
            masters[0].busreq = r & 1 != 0;
            masters[1].busreq = r & 2 != 0;
            masters[0].trans = if r & 4 != 0 {
                Htrans::Nonseq
            } else {
                Htrans::Idle
            };
            masters[0].addr = (r % 0x3000) & !3;
            slaves[0].ready = r & 8 != 0;
            let va = a.view(&masters, &slaves);
            let vb = b.view(&masters, &slaves);
            assert_eq!(va, vb, "views diverged at step {step}");
            a.tick(&va, &masters, &slaves);
            b.tick(&vb, &masters, &slaves);
            assert_eq!(a, b, "state diverged at step {step}");
        }
    }
}
