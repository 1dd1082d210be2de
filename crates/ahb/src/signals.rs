//! AHB signal types and per-cycle signal bundles.
//!
//! Names follow the AMBA AHB specification (HTRANS, HBURST, …); bundles follow
//! the paper's *minimal set of active bus signals* (MSABS, §3): per-master
//! address/control/write-data plus bus request, per-slave ready/response/
//! read-data plus SPLIT unmask, and interrupt lines (treated like MSABS
//! elements, as the paper prescribes).

use predpkt_sim::{declare_signals, declare_state};
use std::fmt;

/// Index of a bus master (0 = highest arbitration priority by convention).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct MasterId(pub usize);

/// Index of a bus slave.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct SlaveId(pub usize);

declare_state! { impl MasterId { 0 } }
declare_state! { impl SlaveId { 0 } }

impl fmt::Display for MasterId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "M{}", self.0)
    }
}

impl fmt::Display for SlaveId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "S{}", self.0)
    }
}

declare_signals! {
    /// HTRANS — transfer type of the address phase, as the 2-bit field of
    /// the specification.
    #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
    pub enum Htrans {
        /// No transfer this cycle.
        #[default]
        Idle = 0b00,
        /// Burst continues but the master needs a beat of pause.
        Busy = 0b01,
        /// First transfer of a burst (or a single).
        Nonseq = 0b10,
        /// Subsequent transfer of a burst.
        Seq = 0b11,
    }
}

impl Htrans {
    /// `true` for NONSEQ/SEQ — phases that request an actual data transfer.
    pub fn is_active(self) -> bool {
        matches!(self, Htrans::Nonseq | Htrans::Seq)
    }
}

declare_signals! {
    /// HBURST — burst kind of the address phase, as the 3-bit field of the
    /// specification.
    #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
    pub enum Hburst {
        /// Single transfer.
        #[default]
        Single = 0b000,
        /// Incrementing burst of unspecified length.
        Incr = 0b001,
        /// 4-beat wrapping burst.
        Wrap4 = 0b010,
        /// 4-beat incrementing burst.
        Incr4 = 0b011,
        /// 8-beat wrapping burst.
        Wrap8 = 0b100,
        /// 8-beat incrementing burst.
        Incr8 = 0b101,
        /// 16-beat wrapping burst.
        Wrap16 = 0b110,
        /// 16-beat incrementing burst.
        Incr16 = 0b111,
    }
}

impl Hburst {
    /// Number of beats for defined-length bursts; `None` for [`Hburst::Incr`].
    pub fn beats(self) -> Option<u32> {
        match self {
            Hburst::Single => Some(1),
            Hburst::Incr => None,
            Hburst::Wrap4 | Hburst::Incr4 => Some(4),
            Hburst::Wrap8 | Hburst::Incr8 => Some(8),
            Hburst::Wrap16 | Hburst::Incr16 => Some(16),
        }
    }

    /// `true` for the wrapping variants.
    pub fn is_wrapping(self) -> bool {
        matches!(self, Hburst::Wrap4 | Hburst::Wrap8 | Hburst::Wrap16)
    }
}

declare_signals! {
    /// HSIZE — transfer width, as the 3-bit field of the specification (the
    /// workspace models a 32-bit bus).
    #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
    pub enum Hsize {
        /// 8-bit transfer.
        Byte = 0b000,
        /// 16-bit transfer.
        Half = 0b001,
        /// 32-bit transfer.
        #[default]
        Word = 0b010,
    }
}

impl Hsize {
    /// Transfer width in bytes.
    pub fn bytes(self) -> u32 {
        1 << self.encode()
    }
}

declare_signals! {
    /// HRESP — slave response of the data phase, as the 2-bit field of the
    /// specification.
    #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
    pub enum Hresp {
        /// Transfer progressing / completed normally.
        #[default]
        Okay = 0b00,
        /// Transfer failed (two-cycle response).
        Error = 0b01,
        /// Master must retry the transfer (two-cycle response).
        Retry = 0b10,
        /// Slave split the transfer; master is masked until un-split
        /// (two-cycle response).
        Split = 0b11,
    }
}

impl Hresp {
    /// `true` for ERROR/RETRY/SPLIT — the two-cycle responses.
    pub fn is_error_class(self) -> bool {
        !matches!(self, Hresp::Okay)
    }
}

/// Signals driven by one master during one cycle (its MSABS contribution).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct MasterSignals {
    /// HBUSREQx — arbitration request.
    pub busreq: bool,
    /// HLOCK — locked-transfer request alongside `busreq`.
    pub lock: bool,
    /// HTRANS — transfer type of the driven address phase.
    pub trans: Htrans,
    /// HADDR — address of the driven address phase.
    pub addr: u32,
    /// HWRITE — direction of the driven address phase.
    pub write: bool,
    /// HSIZE — width of the driven address phase.
    pub size: Hsize,
    /// HBURST — burst kind of the driven address phase.
    pub burst: Hburst,
    /// HPROT — protection control (opaque; the wire carries the bits its
    /// declaration below gives it).
    pub prot: u8,
    /// HWDATA — write data for the master's current data phase.
    pub wdata: u32,
}

impl MasterSignals {
    /// An idle master: no request, IDLE address phase.
    pub fn idle() -> Self {
        Self::default()
    }
}

// The MSABS words of one master: its flags and control, then HADDR, then
// HWDATA.
declare_signals! {
    impl MasterSignals {
        [busreq: 1, lock: 1, write: 1, trans: 2, size: 3, burst: 3, prot: 4],
        [addr: 32],
        [wdata: 32],
    }
}

/// Signals driven by one slave during one cycle (its MSABS contribution).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SlaveSignals {
    /// HREADYout — the slave can complete the current data phase this cycle.
    pub ready: bool,
    /// HRESP — response for the current data phase.
    pub resp: Hresp,
    /// HRDATA — read data for the current data phase.
    pub rdata: u32,
    /// HSPLITx — bit per master: re-enable a split master in the arbiter.
    pub split_unmask: u16,
    /// Interrupt line (treated like an MSABS element per the paper, §3).
    pub irq: bool,
}

impl SlaveSignals {
    /// An inactive slave: ready, OKAY, no data, no IRQ.
    pub fn idle() -> Self {
        SlaveSignals {
            ready: true,
            resp: Hresp::Okay,
            rdata: 0,
            split_unmask: 0,
            irq: false,
        }
    }
}

// The MSABS words of one slave: its flags, response and HSPLIT, then HRDATA.
declare_signals! {
    impl SlaveSignals {
        [ready: 1, irq: 1, resp: 2, split_unmask: 16],
        [rdata: 32],
    }
}

impl Default for SlaveSignals {
    fn default() -> Self {
        Self::idle()
    }
}

/// An address phase as captured by the fabric: who requests what from whom.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct AddrPhase {
    /// The master driving the phase.
    pub master: MasterId,
    /// Decoded target slave (`None` → default slave).
    pub slave: Option<SlaveId>,
    /// HTRANS of the phase.
    pub trans: Htrans,
    /// HADDR of the phase.
    pub addr: u32,
    /// HWRITE of the phase.
    pub write: bool,
    /// HSIZE of the phase.
    pub size: Hsize,
    /// HBURST of the phase.
    pub burst: Hburst,
}

/// Everything a master port sees during one cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MasterView {
    /// HGRANTx — this master owns the address phase this cycle.
    pub granted: bool,
    /// System HREADY (the data-phase slave's ready, muxed).
    pub hready: bool,
    /// System HRESP (the data-phase slave's response, muxed).
    pub resp: Hresp,
    /// HRDATA (valid when this master's read data phase completes).
    pub rdata: u32,
    /// `true` if this master owns the current data phase.
    pub dp_mine: bool,
    /// Interrupt lines, one bit per slave.
    pub irq: u16,
}

impl MasterView {
    /// A quiescent view: not granted, bus ready, OKAY.
    pub fn quiet() -> Self {
        MasterView {
            granted: false,
            hready: true,
            resp: Hresp::Okay,
            rdata: 0,
            dp_mine: false,
            irq: 0,
        }
    }
}

/// Everything a slave port sees during one cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SlaveView {
    /// The address phase selecting this slave this cycle, if any.
    pub addr_phase: Option<AddrPhase>,
    /// System HREADY — the address phase above is *accepted* only when high.
    pub hready: bool,
    /// `true` if this slave owns the current data phase.
    pub dp_active: bool,
    /// The data phase being served (valid when `dp_active`).
    pub dp: Option<AddrPhase>,
    /// HWDATA (valid when `dp_active` and the phase is a write).
    pub wdata: u32,
}

impl SlaveView {
    /// A quiescent view: nothing selected, bus ready.
    pub fn quiet() -> Self {
        SlaveView {
            addr_phase: None,
            hready: true,
            dp_active: false,
            dp: None,
            wdata: 0,
        }
    }
}

declare_state! {
    impl AddrPhase {
        master,
        slave,
        trans,
        addr,
        write,
        size,
        burst,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use predpkt_sim::{restore_from_vec, save_to_vec};

    #[test]
    fn htrans_roundtrip() {
        for t in [Htrans::Idle, Htrans::Busy, Htrans::Nonseq, Htrans::Seq] {
            assert_eq!(Htrans::decode(t.encode()), Some(t));
        }
        assert_eq!(Htrans::decode(4), None);
        assert!(Htrans::Nonseq.is_active());
        assert!(Htrans::Seq.is_active());
        assert!(!Htrans::Idle.is_active());
        assert!(!Htrans::Busy.is_active());
    }

    #[test]
    fn hburst_roundtrip_and_beats() {
        for b in Hburst::ALL {
            assert_eq!(Hburst::decode(b.encode()), Some(b));
        }
        assert_eq!(Hburst::decode(8), None);
        assert_eq!(Hburst::Single.beats(), Some(1));
        assert_eq!(Hburst::Incr.beats(), None);
        assert_eq!(Hburst::Wrap4.beats(), Some(4));
        assert_eq!(Hburst::Incr16.beats(), Some(16));
        assert!(Hburst::Wrap8.is_wrapping());
        assert!(!Hburst::Incr8.is_wrapping());
    }

    #[test]
    fn hsize_bytes() {
        assert_eq!(Hsize::Byte.bytes(), 1);
        assert_eq!(Hsize::Half.bytes(), 2);
        assert_eq!(Hsize::Word.bytes(), 4);
        for s in Hsize::ALL {
            assert_eq!(Hsize::decode(s.encode()), Some(s));
        }
        assert_eq!(Hsize::decode(0b011), None); // 64-bit not modeled
    }

    #[test]
    fn hresp_roundtrip() {
        for r in [Hresp::Okay, Hresp::Error, Hresp::Retry, Hresp::Split] {
            assert_eq!(Hresp::decode(r.encode()), Some(r));
        }
        assert!(!Hresp::Okay.is_error_class());
        assert!(Hresp::Split.is_error_class());
    }

    #[test]
    fn master_signals_pack_roundtrip() {
        let sig = MasterSignals {
            busreq: true,
            lock: false,
            trans: Htrans::Seq,
            addr: 0x8000_1234,
            write: true,
            size: Hsize::Half,
            burst: Hburst::Wrap8,
            prot: 0xb,
            wdata: 0xcafe_f00d,
        };
        assert_eq!(MasterSignals::unpack(&sig.pack()), Some(sig));
    }

    #[test]
    fn slave_signals_pack_roundtrip() {
        let sig = SlaveSignals {
            ready: false,
            resp: Hresp::Split,
            rdata: 0x1122_3344,
            split_unmask: 0b1010,
            irq: true,
        };
        assert_eq!(SlaveSignals::unpack(&sig.pack()), Some(sig));
    }

    #[test]
    fn idle_defaults() {
        let m = MasterSignals::idle();
        assert!(!m.busreq);
        assert_eq!(m.trans, Htrans::Idle);
        let s = SlaveSignals::idle();
        assert!(s.ready);
        assert_eq!(s.resp, Hresp::Okay);
        assert_eq!(SlaveSignals::default(), s);
    }

    #[test]
    fn snapshot_roundtrip_for_signal_bundles() {
        let m = MasterSignals {
            busreq: true,
            trans: Htrans::Nonseq,
            addr: 0x44,
            burst: Hburst::Incr4,
            ..MasterSignals::idle()
        };
        let state = save_to_vec(&m);
        let mut copy = MasterSignals::idle();
        restore_from_vec(&mut copy, &state).unwrap();
        assert_eq!(copy, m);

        let s = SlaveSignals {
            ready: false,
            resp: Hresp::Retry,
            rdata: 9,
            split_unmask: 1,
            irq: false,
        };
        let state = save_to_vec(&s);
        let mut copy = SlaveSignals::idle();
        restore_from_vec(&mut copy, &state).unwrap();
        assert_eq!(copy, s);
    }

    #[test]
    fn ids_display() {
        assert_eq!(MasterId(2).to_string(), "M2");
        assert_eq!(SlaveId(0).to_string(), "S0");
    }

    #[test]
    fn views_quiet() {
        let mv = MasterView::quiet();
        assert!(mv.hready && !mv.granted && !mv.dp_mine);
        let sv = SlaveView::quiet();
        assert!(sv.hready && sv.addr_phase.is_none() && !sv.dp_active);
    }
}
