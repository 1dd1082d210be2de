//! Reusable protocol engines for masters and slaves.
//!
//! The AHB handshake (grant acquisition, pipelined address/data phases, wait
//! states, two-cycle ERROR/RETRY/SPLIT responses, burst pauses and restarts) is
//! identical for every component; these engines implement it once so the
//! concrete masters and slaves in [`crate::masters`] / [`crate::slaves`] only
//! contain their behavioural logic.
//!
//! # Master side
//!
//! A [`MasterEngine`] executes one [`BusOp`] at a time: it requests the bus,
//! drives NONSEQ/SEQ/BUSY address phases beat by beat, supplies write data
//! during the pipelined data phase, collects read data, and recovers from
//! error-class responses (RETRY/SPLIT restart the failed beat as single
//! transfers; ERROR aborts the operation). Results surface as [`OpResult`].
//!
//! # Slave side
//!
//! A [`SlaveEngine`] tracks the data phase the fabric assigns to its slave,
//! inserts planned wait states, produces single-cycle OKAY or two-cycle
//! error-class responses, and reports [`SlaveEvents`] (a transfer accepted this
//! cycle, a transfer completed this cycle) for the slave to act on.

use crate::burst::{beat_addr, fits_in_boundary};
use crate::signals::{
    AddrPhase, Hburst, Hresp, Hsize, Htrans, MasterSignals, MasterView, SlaveSignals, SlaveView,
};
use predpkt_sim::declare_state;

// ---------------------------------------------------------------------------
// Master engine
// ---------------------------------------------------------------------------

/// One bus operation: a read or write of one or more beats.
///
/// The default is a read of no beats: a placeholder a restore fills, not an
/// operation to submit.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct BusOp {
    write: bool,
    size: Hsize,
    burst: Hburst,
    addrs: Vec<u32>,
    wdata: Vec<u32>,
    lock: bool,
    prot: u8,
}

impl BusOp {
    /// A single-beat word read.
    pub fn read_single(addr: u32) -> Self {
        Self::read_burst(addr, Hsize::Word, Hburst::Single)
    }

    /// A single-beat word write.
    pub fn write_single(addr: u32, data: u32) -> Self {
        Self::write_burst(addr, Hsize::Word, Hburst::Single, vec![data])
    }

    /// A defined-length or wrapping read burst starting at `addr`.
    ///
    /// # Panics
    ///
    /// Panics if `burst` is [`Hburst::Incr`] (use [`BusOp::read_incr`]), if the
    /// address is not aligned to `size`, or if an incrementing defined-length
    /// burst would cross the 1 kB boundary.
    pub fn read_burst(addr: u32, size: Hsize, burst: Hburst) -> Self {
        let beats = burst.beats().expect("use read_incr for INCR bursts");
        Self::build(false, addr, size, burst, beats, vec![])
    }

    /// An undefined-length (INCR) read of `beats` beats.
    ///
    /// # Panics
    ///
    /// Panics on misalignment.
    pub fn read_incr(addr: u32, size: Hsize, beats: u32) -> Self {
        assert!(beats >= 1, "at least one beat");
        let burst = if beats == 1 {
            Hburst::Single
        } else {
            Hburst::Incr
        };
        Self::build(false, addr, size, burst, beats, vec![])
    }

    /// A defined-length or wrapping write burst; `data.len()` must equal the
    /// burst length.
    ///
    /// # Panics
    ///
    /// Panics under the same conditions as [`BusOp::read_burst`], or if
    /// `data.len()` does not match the burst length.
    pub fn write_burst(addr: u32, size: Hsize, burst: Hburst, data: Vec<u32>) -> Self {
        let beats = burst.beats().expect("use write_incr for INCR bursts");
        assert_eq!(
            data.len() as u32,
            beats,
            "data length must match burst length"
        );
        Self::build(true, addr, size, burst, beats, data)
    }

    /// An undefined-length (INCR) write of `data.len()` beats.
    ///
    /// # Panics
    ///
    /// Panics on misalignment or empty data.
    pub fn write_incr(addr: u32, size: Hsize, data: Vec<u32>) -> Self {
        assert!(!data.is_empty(), "at least one beat");
        let burst = if data.len() == 1 {
            Hburst::Single
        } else {
            Hburst::Incr
        };
        let beats = data.len() as u32;
        Self::build(true, addr, size, burst, beats, data)
    }

    fn build(
        write: bool,
        addr: u32,
        size: Hsize,
        burst: Hburst,
        beats: u32,
        wdata: Vec<u32>,
    ) -> Self {
        assert_eq!(
            addr % size.bytes(),
            0,
            "address must be aligned to transfer size"
        );
        assert!(
            burst == Hburst::Incr || fits_in_boundary(addr, size, burst),
            "defined-length burst crosses the 1kB boundary"
        );
        let addrs = (0..beats)
            .map(|b| beat_addr(addr, size, burst, b))
            .collect();
        BusOp {
            write,
            size,
            burst,
            addrs,
            wdata,
            lock: false,
            prot: 0b0011,
        }
    }

    /// Requests a locked transfer (HLOCK asserted for the whole operation).
    pub fn locked(mut self) -> Self {
        self.lock = true;
        self
    }

    /// Overrides the HPROT value, kept to the bits the wire carries.
    pub fn with_prot(mut self, prot: u8) -> Self {
        let mut wire = MasterSignals::idle();
        wire.prot = prot;
        self.prot = wire.normalized().prot;
        self
    }

    /// `true` for writes.
    pub fn is_write(&self) -> bool {
        self.write
    }

    /// Number of beats.
    pub fn beats(&self) -> u32 {
        self.addrs.len() as u32
    }
}

/// Outcome of one completed [`BusOp`].
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct OpResult {
    /// `true` if the operation was a write.
    pub write: bool,
    /// The first beat's address.
    pub addr: u32,
    /// Read data, one word per beat (empty for writes).
    pub rdata: Vec<u32>,
    /// `true` if the slave answered ERROR (operation aborted).
    pub error: bool,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum MState {
    /// No operation in flight.
    Idle,
    /// Requesting the bus.
    Req,
    /// Driving address phases; `first` selects NONSEQ for the next beat.
    Drive { first: bool },
    /// All address phases issued; waiting for the last data phase.
    Drain,
    /// Second cycle of an error-class response: drive IDLE, then recover.
    ErrAbort,
}

impl MState {
    fn encode(self) -> u32 {
        match self {
            MState::Idle => 0,
            MState::Req => 1,
            MState::Drive { first: false } => 2,
            MState::Drive { first: true } => 3,
            MState::Drain => 4,
            MState::ErrAbort => 5,
        }
    }

    fn decode(v: u32) -> Option<MState> {
        Some(match v {
            0 => MState::Idle,
            1 => MState::Req,
            2 => MState::Drive { first: false },
            3 => MState::Drive { first: true },
            4 => MState::Drain,
            5 => MState::ErrAbort,
            _ => return None,
        })
    }
}

/// The master-side protocol engine. See the module docs.
///
/// # Example
///
/// ```
/// use predpkt_ahb::engine::{BusOp, MasterEngine};
/// let mut engine = MasterEngine::new();
/// engine.submit(BusOp::write_single(0x100, 42));
/// assert!(engine.busy());
/// let sig = engine.outputs(); // requests the bus
/// assert!(sig.busreq);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MasterEngine {
    op: Option<BusOp>,
    state: MState,
    /// Next address-phase beat index.
    addr_beat: u32,
    /// Beat currently in (or entering) the data phase.
    dp_beat: Option<u32>,
    /// Beats whose data phase completed.
    done_beats: u32,
    /// Collected read data.
    rdata: Vec<u32>,
    /// After an error-class response, re-issue remaining beats as singles.
    restart_singles: bool,
    /// Error recorded for the in-flight op.
    error: bool,
    /// Result of the last completed op, until taken.
    result: Option<OpResult>,
    /// BUSY cycles to insert before each SEQ beat (test stimulus).
    busy_beats: u32,
    /// BUSY cycles still owed before the next beat.
    busy_left: u32,
}

impl Default for MasterEngine {
    fn default() -> Self {
        Self::new()
    }
}

impl MasterEngine {
    /// Creates an idle engine.
    pub fn new() -> Self {
        MasterEngine {
            op: None,
            state: MState::Idle,
            addr_beat: 0,
            dp_beat: None,
            done_beats: 0,
            rdata: Vec::new(),
            restart_singles: false,
            error: false,
            result: None,
            busy_beats: 0,
            busy_left: 0,
        }
    }

    /// Inserts `n` BUSY cycles before every SEQ beat (protocol stimulus for
    /// tests; real masters use 0).
    pub fn with_busy_beats(mut self, n: u32) -> Self {
        self.busy_beats = n;
        self
    }

    /// Starts executing `op`.
    ///
    /// # Panics
    ///
    /// Panics if an operation is already in flight.
    pub fn submit(&mut self, op: BusOp) {
        assert!(self.op.is_none(), "operation already in flight");
        self.op = Some(op);
        self.state = MState::Req;
        self.addr_beat = 0;
        self.dp_beat = None;
        self.done_beats = 0;
        self.rdata.clear();
        self.restart_singles = false;
        self.error = false;
        self.busy_left = 0;
    }

    /// `true` while an operation is in flight.
    pub fn busy(&self) -> bool {
        self.op.is_some()
    }

    /// Takes the result of the last completed operation, if any.
    pub fn take_result(&mut self) -> Option<OpResult> {
        self.result.take()
    }

    /// The signal values the engine drives this cycle (Moore).
    pub fn outputs(&self) -> MasterSignals {
        let mut sig = MasterSignals::idle();
        let Some(op) = &self.op else { return sig };
        sig.busreq = true;
        sig.lock = op.lock;
        sig.prot = op.prot;
        sig.size = op.size;
        sig.write = op.write;

        // Write data for the beat in the data phase, held across wait states.
        if let Some(beat) = self.dp_beat {
            if op.write {
                sig.wdata = op.wdata[beat as usize];
            }
        }

        if let MState::Drive { first } = self.state {
            let beat = self.addr_beat;
            sig.addr = op.addrs[beat as usize];
            if self.busy_left > 0 {
                sig.trans = Htrans::Busy;
                sig.burst = self.wire_burst(op, false);
            } else if self.restart_singles {
                sig.trans = Htrans::Nonseq;
                sig.burst = Hburst::Single;
            } else {
                sig.trans = if first { Htrans::Nonseq } else { Htrans::Seq };
                sig.burst = self.wire_burst(op, first);
            }
        }
        sig
    }

    fn wire_burst(&self, op: &BusOp, _first: bool) -> Hburst {
        if self.restart_singles {
            Hburst::Single
        } else {
            op.burst
        }
    }

    /// Advances one clock edge.
    pub fn tick(&mut self, view: &MasterView) {
        if self.op.is_none() {
            return;
        }
        let out = self.outputs();

        // --- Data-phase progress -------------------------------------------
        //
        // Robustness note: under optimistic co-emulation a master can be driven
        // with *mispredicted* slave responses, which may present
        // protocol-impossible view sequences (e.g. an OKAY completion for a
        // transfer the engine already abandoned after a SPLIT). Such timelines
        // are doomed — the lagger's prediction check fails at this very cycle
        // and the domain rolls back — so the engine only needs to stay
        // memory-safe and consistent; spurious events are ignored.
        if view.dp_mine {
            if !view.hready && view.resp.is_error_class() {
                // First cycle of a two-cycle response: the dp beat failed.
                if let Some(failed) = self.dp_beat {
                    match view.resp {
                        Hresp::Error => {
                            self.error = true;
                        }
                        Hresp::Retry | Hresp::Split => {
                            // Re-issue from the failed beat as single transfers.
                            self.addr_beat = failed;
                            self.restart_singles = true;
                        }
                        Hresp::Okay => unreachable!("okay is not error-class"),
                    }
                    self.dp_beat = None;
                    self.busy_left = 0;
                    self.state = MState::ErrAbort;
                }
            } else if view.hready {
                // A non-OKAY response here is the second cycle of an
                // error-class response: the data phase retires and recovery
                // continues below via ErrAbort.
                if view.resp == Hresp::Okay {
                    if let Some(_beat) = self.dp_beat.take() {
                        let op = self.op.as_ref().expect("op in flight");
                        if !op.write {
                            self.rdata.push(view.rdata);
                        }
                        self.done_beats += 1;
                        if self.done_beats == self.op.as_ref().unwrap().beats()
                            && !matches!(self.state, MState::ErrAbort)
                        {
                            self.finish_op();
                            return;
                        }
                    }
                }
            }
        }

        match self.state {
            MState::Idle => {}
            MState::Req => {
                if view.granted && view.hready {
                    self.state = MState::Drive { first: true };
                }
            }
            MState::Drive { .. } => {
                if !view.granted {
                    // Grant revoked between bursts / during INCR: pause and
                    // re-acquire; remaining beats restart as NONSEQ.
                    self.pause_for_regrant();
                } else if out.trans == Htrans::Busy {
                    self.busy_left -= 1;
                } else if out.trans.is_active() && view.hready {
                    // Beat accepted: it enters the data phase next cycle.
                    self.dp_beat = Some(self.addr_beat);
                    self.addr_beat += 1;
                    let beats = self.op.as_ref().unwrap().beats();
                    if self.addr_beat >= beats {
                        self.state = MState::Drain;
                    } else {
                        // Singles after a restart are each their own NONSEQ
                        // burst; BUSY is only legal inside a multi-beat burst.
                        self.state = MState::Drive {
                            first: self.restart_singles,
                        };
                        self.busy_left = if self.restart_singles {
                            0
                        } else {
                            self.busy_beats
                        };
                    }
                }
            }
            MState::Drain => {
                // Waiting for the final data phase; completion handled above.
            }
            MState::ErrAbort => {
                if view.hready {
                    // Second error cycle done.
                    if self.error {
                        self.finish_op();
                    } else {
                        self.state = MState::Req;
                    }
                }
            }
        }
    }

    fn pause_for_regrant(&mut self) {
        let op = self.op.as_ref().expect("op in flight");
        // Wrapping address sequences are not expressible after a pause; re-issue
        // remaining beats as singles. Incrementing sequences restart as NONSEQ
        // of the same kind via `first`.
        if op.burst.is_wrapping() {
            self.restart_singles = true;
        }
        self.busy_left = 0;
        self.state = MState::Req;
    }

    fn finish_op(&mut self) {
        let op = self.op.take().expect("op in flight");
        self.result = Some(OpResult {
            write: op.write,
            addr: op.addrs[0],
            rdata: std::mem::take(&mut self.rdata),
            error: self.error,
        });
        self.state = MState::Idle;
        self.dp_beat = None;
        self.busy_left = 0;
    }
}

// An operation's payload is indexed by the engine's beat counters, so an
// operation of no beats, or a write without a data word per beat, is
// refused at the count that says so.
declare_state! {
    impl BusOp {
        write,
        size,
        burst,
        addrs => |op, _| !op.addrs.is_empty(),
        wdata => |op, _| !op.write || op.wdata.len() == op.addrs.len(),
        lock,
        prot,
    }
}

declare_state! {
    impl OpResult {
        write,
        addr,
        rdata,
        error,
    }
}

declare_state! { impl MState: word(encode, decode) }

// `outputs` indexes the payload with the beat counters, so a counter that
// points outside it is refused at its word.
declare_state! {
    impl MasterEngine {
        op,
        state,
        addr_beat => |e, _| !matches!(e.state, MState::Drive { .. }) || !e.outside(e.addr_beat),
        dp_beat => |e, at| match e.dp_beat {
            Some(beat) if e.outside(beat) => Err(at + 1),
            _ => Ok(()),
        },
        done_beats,
        rdata,
        restart_singles,
        error,
        result,
        busy_beats,
        busy_left,
    }
}

impl MasterEngine {
    /// `true` if `beat` lies past the payload of the operation in flight.
    fn outside(&self, beat: u32) -> bool {
        self.op.as_ref().is_some_and(|op| beat >= op.beats())
    }
}

// ---------------------------------------------------------------------------
// Slave engine
// ---------------------------------------------------------------------------

/// How a slave answers one accepted transfer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PlannedResponse {
    /// Wait states to insert before responding.
    pub wait_states: u32,
    /// Final response (OKAY completes in one ready cycle; ERROR/RETRY/SPLIT use
    /// the two-cycle protocol).
    pub resp: Hresp,
    /// Read data delivered on the completing cycle (ignored for writes).
    pub rdata: u32,
}

impl PlannedResponse {
    /// An OKAY response after `wait_states` wait states delivering `rdata`.
    pub fn okay(wait_states: u32, rdata: u32) -> Self {
        PlannedResponse {
            wait_states,
            resp: Hresp::Okay,
            rdata,
        }
    }

    /// An error-class response after `wait_states` wait states.
    ///
    /// # Panics
    ///
    /// Panics if `resp` is [`Hresp::Okay`].
    pub fn error_class(wait_states: u32, resp: Hresp) -> Self {
        assert!(resp.is_error_class(), "use PlannedResponse::okay for OKAY");
        PlannedResponse {
            wait_states,
            resp,
            rdata: 0,
        }
    }

    /// An open-ended stall: the engine inserts wait states until the slave calls
    /// [`SlaveEngine::complete_stall`]. Used by producer–consumer slaves whose
    /// readiness depends on dynamic fill state.
    pub fn stall() -> Self {
        PlannedResponse {
            wait_states: STALL_SENTINEL,
            resp: Hresp::Okay,
            rdata: 0,
        }
    }
}

/// Wait-state count marking an open-ended stall.
const STALL_SENTINEL: u32 = u32::MAX;

/// What happened at a slave port during one cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SlaveEvents {
    /// A transfer completed its data phase this cycle (writes carry the data).
    pub completed: Option<CompletedTransfer>,
    /// A new transfer was accepted this cycle and enters the data phase next
    /// cycle; the slave **must** call [`SlaveEngine::plan`] before the next
    /// [`SlaveEngine::outputs`].
    pub accepted: Option<AddrPhase>,
}

/// A data phase that finished this cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CompletedTransfer {
    /// The transfer.
    pub phase: AddrPhase,
    /// Write data (writes only).
    pub wdata: Option<u32>,
    /// The response it completed with.
    pub resp: Hresp,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum SState {
    Idle,
    /// Accepted but not yet planned (must be resolved before `outputs`).
    Pending,
    /// Inserting wait states.
    Wait {
        left: u32,
    },
    /// Open-ended stall awaiting [`SlaveEngine::complete_stall`].
    Stalled,
    /// Ready cycle of an OKAY response.
    RespondOkay,
    /// First cycle of a two-cycle error-class response.
    ErrFirst,
    /// Second cycle of a two-cycle error-class response.
    ErrSecond,
}

impl SState {
    fn encode(self) -> u32 {
        match self {
            SState::Idle => 0,
            SState::Pending => 1,
            SState::Wait { left } => 2 | (left << 3),
            SState::RespondOkay => 3,
            SState::ErrFirst => 4,
            SState::ErrSecond => 5,
            SState::Stalled => 6,
        }
    }

    /// `Pending` (1) is resolved by `plan` within the tick that enters it:
    /// it is never live at a clock edge, and `outputs` panics on it.
    fn decode(code: u32) -> Option<SState> {
        Some(match code & 0b111 {
            0 => SState::Idle,
            2 => SState::Wait { left: code >> 3 },
            3 => SState::RespondOkay,
            4 => SState::ErrFirst,
            5 => SState::ErrSecond,
            6 => SState::Stalled,
            _ => return None,
        })
    }
}

/// The slave-side protocol engine. See the module docs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SlaveEngine {
    state: SState,
    phase: Option<AddrPhase>,
    resp: Hresp,
    rdata: u32,
}

impl Default for SlaveEngine {
    fn default() -> Self {
        Self::new()
    }
}

impl SlaveEngine {
    /// Creates an idle engine.
    pub fn new() -> Self {
        SlaveEngine {
            state: SState::Idle,
            phase: None,
            resp: Hresp::Okay,
            rdata: 0,
        }
    }

    /// The signal values the engine drives this cycle (Moore).
    ///
    /// # Panics
    ///
    /// Panics if an accepted transfer was never [`plan`](SlaveEngine::plan)ned.
    pub fn outputs(&self) -> SlaveSignals {
        let mut sig = SlaveSignals::idle();
        match self.state {
            SState::Idle => {}
            SState::Pending => panic!("slave accepted a transfer but did not plan a response"),
            SState::Wait { .. } | SState::Stalled => {
                sig.ready = false;
            }
            SState::RespondOkay => {
                sig.rdata = self.rdata;
            }
            SState::ErrFirst => {
                sig.ready = false;
                sig.resp = self.resp;
            }
            SState::ErrSecond => {
                sig.resp = self.resp;
            }
        }
        sig
    }

    /// Advances one clock edge, reporting what happened.
    pub fn tick(&mut self, view: &SlaveView) -> SlaveEvents {
        let mut events = SlaveEvents::default();

        // Progress the data phase we own.
        match self.state {
            SState::Wait { left } => {
                debug_assert!(view.dp_active, "waiting without owning the data phase");
                self.state = if left > 1 {
                    SState::Wait { left: left - 1 }
                } else if self.resp == Hresp::Okay {
                    SState::RespondOkay
                } else {
                    SState::ErrFirst
                };
            }
            SState::Stalled => {
                debug_assert!(view.dp_active, "stalled without owning the data phase");
            }
            SState::RespondOkay => {
                let phase = self.phase.take().expect("responding without a phase");
                events.completed = Some(CompletedTransfer {
                    phase,
                    wdata: phase.write.then_some(view.wdata),
                    resp: Hresp::Okay,
                });
                self.state = SState::Idle;
            }
            SState::ErrFirst => {
                self.state = SState::ErrSecond;
            }
            SState::ErrSecond => {
                let phase = self.phase.take().expect("responding without a phase");
                events.completed = Some(CompletedTransfer {
                    phase,
                    wdata: None,
                    resp: self.resp,
                });
                self.state = SState::Idle;
            }
            SState::Idle | SState::Pending => {}
        }

        // Accept a new transfer (pipelined with the completing one).
        if let Some(phase) = view.addr_phase {
            if view.hready && phase.trans.is_active() {
                debug_assert!(
                    matches!(self.state, SState::Idle),
                    "acceptance while still serving (fabric bug)"
                );
                self.phase = Some(phase);
                self.state = SState::Pending;
                events.accepted = Some(phase);
            }
        }

        events
    }

    /// Plans the response for the transfer accepted this cycle.
    ///
    /// # Panics
    ///
    /// Panics if no transfer is pending.
    pub fn plan(&mut self, plan: PlannedResponse) {
        assert!(
            matches!(self.state, SState::Pending),
            "plan() without a pending transfer"
        );
        self.resp = plan.resp;
        self.rdata = plan.rdata;
        self.state = if plan.wait_states == STALL_SENTINEL {
            SState::Stalled
        } else if plan.wait_states > 0 {
            SState::Wait {
                left: plan.wait_states,
            }
        } else if plan.resp == Hresp::Okay {
            SState::RespondOkay
        } else {
            SState::ErrFirst
        };
    }

    /// Resolves an open-ended stall: the transfer completes with OKAY and
    /// `rdata` on the next cycle.
    ///
    /// # Panics
    ///
    /// Panics if the engine is not stalled.
    pub fn complete_stall(&mut self, rdata: u32) {
        assert!(
            matches!(self.state, SState::Stalled),
            "complete_stall() without a stalled transfer"
        );
        self.rdata = rdata;
        self.state = SState::RespondOkay;
    }

    /// `true` while an open-ended stall is pending.
    pub fn stalled(&self) -> bool {
        matches!(self.state, SState::Stalled)
    }

    /// The transfer currently being served, if any.
    pub fn serving(&self) -> Option<&AddrPhase> {
        self.phase.as_ref()
    }
}

declare_state! { impl SState: word(encode, decode) }

declare_state! {
    impl SlaveEngine {
        state,
        phase,
        resp,
        rdata,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::signals::{MasterId, SlaveId};
    use crate::test_util::assert_refused_at;
    use predpkt_sim::{restore_from_vec, save_to_vec};

    fn phase(write: bool, addr: u32) -> AddrPhase {
        AddrPhase {
            master: MasterId(0),
            slave: Some(SlaveId(0)),
            trans: Htrans::Nonseq,
            addr,
            write,
            size: Hsize::Word,
            burst: Hburst::Single,
        }
    }

    // ---- BusOp -------------------------------------------------------------

    #[test]
    fn busop_constructors() {
        let r = BusOp::read_single(0x10);
        assert!(!r.is_write());
        assert_eq!(r.beats(), 1);
        let w = BusOp::write_incr(0x20, Hsize::Word, vec![1, 2, 3]);
        assert!(w.is_write());
        assert_eq!(w.beats(), 3);
        assert_eq!(w.burst, Hburst::Incr);
        let wrap = BusOp::read_burst(0x38, Hsize::Word, Hburst::Wrap4);
        assert_eq!(wrap.addrs, vec![0x38, 0x3c, 0x30, 0x34]);
        let single = BusOp::read_incr(0x40, Hsize::Word, 1);
        assert_eq!(single.burst, Hburst::Single);
    }

    #[test]
    #[should_panic(expected = "aligned")]
    fn busop_rejects_misaligned() {
        let _ = BusOp::read_burst(0x2, Hsize::Word, Hburst::Incr4);
    }

    #[test]
    #[should_panic(expected = "1kB boundary")]
    fn busop_rejects_boundary_crossers() {
        let _ = BusOp::read_burst(0x3f8, Hsize::Word, Hburst::Incr16);
    }

    #[test]
    #[should_panic(expected = "data length")]
    fn busop_rejects_wrong_data_len() {
        let _ = BusOp::write_burst(0x0, Hsize::Word, Hburst::Incr4, vec![1]);
    }

    #[test]
    fn busop_locked_and_prot() {
        let op = BusOp::read_single(0).locked().with_prot(0xff);
        assert!(op.lock);
        assert_eq!(op.prot, 0xf);
    }

    // ---- MasterEngine happy path -------------------------------------------

    /// Drives the engine through a scripted sequence of views, returning the
    /// outputs observed each cycle.
    fn run(engine: &mut MasterEngine, views: &[MasterView]) -> Vec<MasterSignals> {
        views
            .iter()
            .map(|v| {
                let out = engine.outputs();
                engine.tick(v);
                out
            })
            .collect()
    }

    fn granted_ready() -> MasterView {
        MasterView {
            granted: true,
            ..MasterView::quiet()
        }
    }

    #[test]
    fn single_write_sequence() {
        let mut e = MasterEngine::new();
        e.submit(BusOp::write_single(0x100, 0xabcd));
        // Cycle 0: requesting (IDLE), granted.
        // Cycle 1: NONSEQ address phase.
        // Cycle 2: data phase completes (dp_mine).
        let views = [
            granted_ready(),
            granted_ready(),
            MasterView {
                granted: true,
                dp_mine: true,
                ..MasterView::quiet()
            },
        ];
        let outs = run(&mut e, &views);
        assert_eq!(outs[0].trans, Htrans::Idle);
        assert!(outs[0].busreq);
        assert_eq!(outs[1].trans, Htrans::Nonseq);
        assert_eq!(outs[1].addr, 0x100);
        assert!(outs[1].write);
        assert_eq!(outs[2].trans, Htrans::Idle);
        assert_eq!(outs[2].wdata, 0xabcd, "write data driven in the data phase");
        let res = e.take_result().expect("op completed");
        assert!(res.write && !res.error);
        assert!(!e.busy());
    }

    #[test]
    fn read_burst_collects_data() {
        let mut e = MasterEngine::new();
        e.submit(BusOp::read_burst(0x0, Hsize::Word, Hburst::Incr4));
        let mut views = vec![granted_ready(), granted_ready()];
        // Beats 1..3 address phases overlap data phases of beats 0..2.
        for _ in 0..3 {
            views.push(MasterView {
                granted: true,
                dp_mine: true,
                rdata: 7,
                ..MasterView::quiet()
            });
        }
        // Final data phase.
        views.push(MasterView {
            granted: true,
            dp_mine: true,
            rdata: 9,
            ..MasterView::quiet()
        });
        let outs = run(&mut e, &views);
        assert_eq!(outs[1].trans, Htrans::Nonseq);
        assert_eq!(outs[2].trans, Htrans::Seq);
        assert_eq!(outs[2].addr, 0x4);
        assert_eq!(outs[4].addr, 0xc);
        let res = e.take_result().unwrap();
        assert_eq!(res.rdata, vec![7, 7, 7, 9]);
    }

    #[test]
    fn wait_states_hold_address_and_wdata() {
        let mut e = MasterEngine::new();
        e.submit(BusOp::write_incr(0x0, Hsize::Word, vec![0x11, 0x22]));
        let stall = MasterView {
            granted: true,
            hready: false,
            dp_mine: true,
            ..MasterView::quiet()
        };
        let views = [
            granted_ready(), // req
            granted_ready(), // NONSEQ beat0 accepted
            stall,           // beat0 dp stalled; SEQ beat1 held
            stall,           // still stalled
            MasterView {
                granted: true,
                dp_mine: true,
                ..MasterView::quiet()
            }, // beat0 completes, beat1 accepted
            MasterView {
                granted: true,
                dp_mine: true,
                ..MasterView::quiet()
            }, // beat1 completes
        ];
        let outs = run(&mut e, &views);
        // During the stall the SEQ address phase is held stable.
        assert_eq!(outs[2].trans, Htrans::Seq);
        assert_eq!(outs[3].trans, Htrans::Seq);
        assert_eq!(outs[2].addr, outs[3].addr);
        // And beat0's write data is held.
        assert_eq!(outs[2].wdata, 0x11);
        assert_eq!(outs[3].wdata, 0x11);
        assert_eq!(outs[4].wdata, 0x11);
        assert_eq!(outs[5].wdata, 0x22);
        assert!(e.take_result().unwrap().write);
    }

    #[test]
    fn error_response_aborts_op() {
        let mut e = MasterEngine::new();
        e.submit(BusOp::read_burst(0x0, Hsize::Word, Hburst::Incr4));
        let views = [
            granted_ready(),
            granted_ready(), // NONSEQ accepted
            // First ERROR cycle (not ready).
            MasterView {
                granted: true,
                hready: false,
                resp: Hresp::Error,
                dp_mine: true,
                ..MasterView::quiet()
            },
            // Second ERROR cycle (ready): master drives IDLE.
            MasterView {
                granted: true,
                resp: Hresp::Error,
                ..MasterView::quiet()
            },
        ];
        let outs = run(&mut e, &views);
        assert_eq!(outs[3].trans, Htrans::Idle, "IDLE during error recovery");
        let res = e.take_result().unwrap();
        assert!(res.error);
        assert!(!e.busy());
    }

    #[test]
    fn retry_restarts_failed_beat_as_single() {
        let mut e = MasterEngine::new();
        e.submit(BusOp::read_burst(0x0, Hsize::Word, Hburst::Incr4));
        let views = [
            granted_ready(),
            granted_ready(), // NONSEQ beat0 accepted
            // beat0 data phase gets RETRY (first cycle).
            MasterView {
                granted: true,
                hready: false,
                resp: Hresp::Retry,
                dp_mine: true,
                ..MasterView::quiet()
            },
            // second RETRY cycle.
            MasterView {
                granted: true,
                resp: Hresp::Retry,
                ..MasterView::quiet()
            },
            granted_ready(), // re-request granted
        ];
        let outs = run(&mut e, &views);
        assert_eq!(outs[3].trans, Htrans::Idle);
        // Next drive restarts beat0 as a SINGLE NONSEQ.
        let out5 = e.outputs();
        assert_eq!(out5.trans, Htrans::Nonseq);
        assert_eq!(out5.burst, Hburst::Single);
        assert_eq!(out5.addr, 0x0);
        assert!(e.busy());
    }

    #[test]
    fn grant_revocation_pauses_incr() {
        let mut e = MasterEngine::new();
        e.submit(BusOp::read_incr(0x0, Hsize::Word, 4));
        let views = [
            granted_ready(),
            granted_ready(), // NONSEQ beat0 accepted
            // Grant revoked while beat1's SEQ phase was driven: beat1 not accepted.
            MasterView {
                granted: false,
                dp_mine: true,
                rdata: 1,
                ..MasterView::quiet()
            },
            // Re-granted.
            granted_ready(),
        ];
        run(&mut e, &views);
        let out = e.outputs();
        assert_eq!(out.trans, Htrans::Nonseq, "restart after pause");
        assert_eq!(out.addr, 0x4, "resumes at the unaccepted beat");
        assert_eq!(out.burst, Hburst::Incr);
    }

    #[test]
    fn busy_beats_inserted_between_seq_beats() {
        let mut e = MasterEngine::new().with_busy_beats(1);
        e.submit(BusOp::read_burst(0x0, Hsize::Word, Hburst::Incr4));
        let views = [
            granted_ready(),
            granted_ready(), // NONSEQ beat0
            MasterView {
                granted: true,
                dp_mine: true,
                ..MasterView::quiet()
            }, // BUSY cycle (beat0 dp completes)
            granted_ready(), // SEQ beat1
        ];
        let outs = run(&mut e, &views);
        assert_eq!(outs[1].trans, Htrans::Nonseq);
        assert_eq!(outs[2].trans, Htrans::Busy);
        assert_eq!(outs[2].addr, 0x4, "BUSY advertises the next beat's address");
        assert_eq!(outs[3].trans, Htrans::Seq);
        assert_eq!(outs[3].addr, 0x4);
    }

    #[test]
    #[should_panic(expected = "already in flight")]
    fn double_submit_rejected() {
        let mut e = MasterEngine::new();
        e.submit(BusOp::read_single(0));
        e.submit(BusOp::read_single(4));
    }

    #[test]
    fn master_engine_snapshot_roundtrip_mid_op() {
        let mut e = MasterEngine::new();
        e.submit(BusOp::write_incr(0x0, Hsize::Word, vec![1, 2, 3]));
        let views = [granted_ready(), granted_ready()];
        run(&mut e, &views);
        let state = save_to_vec(&e);
        let mut copy = MasterEngine::new();
        restore_from_vec(&mut copy, &state).unwrap();
        assert_eq!(copy, e);
    }

    #[test]
    fn master_engine_restore_refuses_state_its_outputs_would_index_out_of() {
        // A one-beat write driving its address phase. Words: op present,
        // write, size, burst, [4] address count, address, [6] data count,
        // data, lock, prot, state, [11] address beat, data beat present.
        let mut single = MasterEngine::new();
        single.submit(BusOp::write_single(0x100, 0xabcd));
        run(&mut single, &[granted_ready()]);
        assert_eq!(single.outputs().trans, Htrans::Nonseq);
        assert_refused_at(&single, 11, 7); // address beat past the payload
        assert_refused_at(&single, 11, 1);
        assert_refused_at(&single, 4, 0); // an operation of no beats
        assert_refused_at(&single, 6, 0); // a write with no data for its beat

        // Three beats, the first in its data phase. Words: ..., [4] = 3 and
        // three addresses, [8] = 3 and three data words, lock, prot, state,
        // address beat, data beat present, [17] data beat.
        let mut burst = MasterEngine::new();
        burst.submit(BusOp::write_incr(0x0, Hsize::Word, vec![1, 2, 3]));
        run(&mut burst, &[granted_ready(), granted_ready()]);
        assert_eq!(burst.dp_beat, Some(0));
        assert_refused_at(&burst, 17, 3);
        assert_refused_at(&burst, 8, 2); // fewer data words than beats

        // Past its address phases the address beat equals the beat count.
        run(&mut burst, &[granted_ready(), granted_ready()]);
        assert_eq!((burst.state, burst.addr_beat), (MState::Drain, 3));
        let mut copy = MasterEngine::new();
        restore_from_vec(&mut copy, &save_to_vec(&burst)).unwrap();
        assert_eq!(copy, burst);
    }

    // ---- SlaveEngine ---------------------------------------------------------

    #[test]
    fn slave_engine_restore_refuses_an_unplanned_transfer() {
        // `Pending` lives only inside one slave tick (accept, then plan); a
        // vector that holds it would panic in the next `outputs`.
        let mut e = SlaveEngine::new();
        e.tick(&SlaveView {
            addr_phase: Some(phase(false, 0x8)),
            ..SlaveView::quiet()
        });
        e.plan(PlannedResponse::okay(2, 0x55));
        assert_refused_at(&e, 0, 1);
    }

    #[test]
    fn slave_okay_zero_wait() {
        let mut e = SlaveEngine::new();
        // Cycle 0: address phase selects us.
        let ev = e.tick(&SlaveView {
            addr_phase: Some(phase(false, 0x8)),
            ..SlaveView::quiet()
        });
        let p = ev.accepted.expect("accepted");
        assert_eq!(p.addr, 0x8);
        e.plan(PlannedResponse::okay(0, 0x55));
        // Cycle 1: we own the data phase, ready with data.
        let out = e.outputs();
        assert!(out.ready);
        assert_eq!(out.rdata, 0x55);
        let ev = e.tick(&SlaveView {
            dp_active: true,
            dp: Some(phase(false, 0x8)),
            ..SlaveView::quiet()
        });
        let done = ev.completed.expect("completed");
        assert_eq!(done.resp, Hresp::Okay);
        assert_eq!(done.wdata, None);
    }

    #[test]
    fn slave_wait_states_then_write_commit() {
        let mut e = SlaveEngine::new();
        let ev = e.tick(&SlaveView {
            addr_phase: Some(phase(true, 0x4)),
            ..SlaveView::quiet()
        });
        assert!(ev.accepted.is_some());
        e.plan(PlannedResponse::okay(2, 0));
        // Two wait cycles.
        for _ in 0..2 {
            let out = e.outputs();
            assert!(!out.ready);
            let ev = e.tick(&SlaveView {
                dp_active: true,
                dp: Some(phase(true, 0x4)),
                hready: false,
                wdata: 0xfeed,
                ..SlaveView::quiet()
            });
            assert!(ev.completed.is_none());
        }
        // Completing cycle carries the write data.
        assert!(e.outputs().ready);
        let ev = e.tick(&SlaveView {
            dp_active: true,
            dp: Some(phase(true, 0x4)),
            wdata: 0xfeed,
            ..SlaveView::quiet()
        });
        assert_eq!(ev.completed.unwrap().wdata, Some(0xfeed));
    }

    #[test]
    fn slave_two_cycle_error_response() {
        let mut e = SlaveEngine::new();
        e.tick(&SlaveView {
            addr_phase: Some(phase(false, 0x0)),
            ..SlaveView::quiet()
        });
        e.plan(PlannedResponse::error_class(0, Hresp::Retry));
        // First cycle: not ready + RETRY.
        let out = e.outputs();
        assert!(!out.ready);
        assert_eq!(out.resp, Hresp::Retry);
        e.tick(&SlaveView {
            dp_active: true,
            hready: false,
            ..SlaveView::quiet()
        });
        // Second cycle: ready + RETRY.
        let out = e.outputs();
        assert!(out.ready);
        assert_eq!(out.resp, Hresp::Retry);
        let ev = e.tick(&SlaveView {
            dp_active: true,
            ..SlaveView::quiet()
        });
        assert_eq!(ev.completed.unwrap().resp, Hresp::Retry);
    }

    #[test]
    fn slave_pipelined_accept_while_completing() {
        let mut e = SlaveEngine::new();
        e.tick(&SlaveView {
            addr_phase: Some(phase(false, 0x0)),
            ..SlaveView::quiet()
        });
        e.plan(PlannedResponse::okay(0, 1));
        // Completing cycle also carries the next address phase.
        let ev = e.tick(&SlaveView {
            addr_phase: Some(phase(false, 0x4)),
            dp_active: true,
            dp: Some(phase(false, 0x0)),
            ..SlaveView::quiet()
        });
        assert!(ev.completed.is_some());
        assert_eq!(ev.accepted.unwrap().addr, 0x4);
        e.plan(PlannedResponse::okay(0, 2));
        assert_eq!(e.outputs().rdata, 2);
    }

    #[test]
    #[should_panic(expected = "did not plan")]
    fn slave_unplanned_response_panics() {
        let mut e = SlaveEngine::new();
        e.tick(&SlaveView {
            addr_phase: Some(phase(false, 0x0)),
            ..SlaveView::quiet()
        });
        let _ = e.outputs();
    }

    #[test]
    #[should_panic(expected = "without a pending")]
    fn slave_plan_without_accept_panics() {
        let mut e = SlaveEngine::new();
        e.plan(PlannedResponse::okay(0, 0));
    }

    #[test]
    #[should_panic(expected = "use PlannedResponse::okay")]
    fn error_class_plan_rejects_okay() {
        let _ = PlannedResponse::error_class(0, Hresp::Okay);
    }

    #[test]
    fn slave_not_selected_when_hready_low() {
        let mut e = SlaveEngine::new();
        // Address phase present but bus stalled: no acceptance.
        let ev = e.tick(&SlaveView {
            addr_phase: Some(phase(false, 0x0)),
            hready: false,
            ..SlaveView::quiet()
        });
        assert!(ev.accepted.is_none());
    }

    #[test]
    fn slave_engine_snapshot_roundtrip() {
        let mut e = SlaveEngine::new();
        e.tick(&SlaveView {
            addr_phase: Some(phase(true, 0xc)),
            ..SlaveView::quiet()
        });
        e.plan(PlannedResponse::okay(3, 0x77));
        let state = save_to_vec(&e);
        let mut copy = SlaveEngine::new();
        restore_from_vec(&mut copy, &state).unwrap();
        assert_eq!(copy, e);
    }
}
