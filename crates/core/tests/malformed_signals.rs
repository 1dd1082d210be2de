//! A peer's malformed signal word is a typed protocol error, not a panic.
//!
//! `Message::decode` checks lengths only, and `AhbDomainModel::tick` unpacks
//! its remote vector assuming it is well formed; the wrapper stands between
//! them and passes every peer-supplied output vector through
//! `DomainModel::check_remote`. Each of the five places such a vector
//! travels in is damaged here in a live Fig. 2 session — over the in-process
//! queue and over a real loopback socket pair — and the session must end
//! with `SimError::Config("protocol: …")`.
//!
//! A failure report's index is the peer's word too: one outside the entries
//! of its burst that carried a prediction is refused the same way, before
//! the leader rewinds anything.
//!
//! So is a burst's block structure. An empty burst would have the lagger
//! report success for a transition it never ran, and a block whose tail
//! selects one changed word too few or too many is refused whole: the
//! lagger ends the run standing exactly where the burst found it.

mod common;

use predpkt_channel::tcp::{TcpEndpoint, TcpTransport};
use predpkt_channel::{Packet, PacketTag, QueueTransport, Side, Transport, WaitTransport};
use predpkt_core::{CoEmuConfig, CoEmulator, DomainModel, ModePolicy};
use predpkt_sim::SimError;
use predpkt_workloads::SyntheticSoc;
use std::cell::{Cell, RefCell};
use std::time::Duration;

/// Where in a message the damaged output vector sits.
#[derive(Debug, Clone, Copy)]
enum Position {
    /// A conservative exchange's outputs.
    CycleOutputs,
    /// The leader's outputs in a burst's first entry.
    BurstEntryLocal,
    /// The leader's next-cycle outputs at the end of a burst.
    BurstLeaderNext,
    /// The lagger's actual outputs in a failure report.
    ReportActual,
    /// The lagger's next-cycle outputs in a success report.
    ReportNext,
    /// The lagger's next-cycle outputs in a failure report.
    FailureReportNext,
}

impl Position {
    const ALL: [Position; 6] = [
        Position::CycleOutputs,
        Position::BurstEntryLocal,
        Position::BurstLeaderNext,
        Position::ReportActual,
        Position::ReportNext,
        Position::FailureReportNext,
    ];

    fn tag(self) -> PacketTag {
        match self {
            Position::CycleOutputs => PacketTag::CycleOutputs,
            Position::BurstEntryLocal | Position::BurstLeaderNext => PacketTag::Burst,
            Position::ReportActual | Position::FailureReportNext => PacketTag::ReportFailure,
            Position::ReportNext => PacketTag::ReportSuccess,
        }
    }

    /// Index in a `len`-word payload of the first word of the vector — a
    /// flags word, whichever component leads the sender's outputs — given
    /// the sender's output width.
    fn flags_word(self, len: usize, sender_width: usize) -> usize {
        match self {
            Position::CycleOutputs | Position::ReportNext => 0,
            // `[count, width, has_prediction, local…]`: the first entry
            // travels raw.
            Position::BurstEntryLocal => 3,
            Position::BurstLeaderNext => len - sender_width,
            Position::ReportActual => 1,
            Position::FailureReportNext => 1 + sender_width,
        }
    }

    /// What the error must say was malformed.
    fn named(self) -> &'static str {
        match self {
            Position::CycleOutputs => "cycle outputs",
            Position::BurstEntryLocal => "burst entry",
            Position::BurstLeaderNext => "leader-next",
            Position::ReportActual => "actual outputs",
            Position::ReportNext | Position::FailureReportNext => "next-cycle outputs",
        }
    }
}

/// Sets a bit no flags word may carry in the first matching packet sent.
struct Tamper<T> {
    inner: T,
    position: Position,
    widths: [usize; 2],
    hit: bool,
}

impl<T: Transport> Transport for Tamper<T> {
    fn send(&mut self, from: Side, packet: Packet) {
        let packet = if !self.hit && packet.tag() == self.position.tag() {
            self.hit = true;
            let tag = packet.tag();
            let mut words = packet.into_payload();
            let width = self.widths[(from == Side::Accelerator) as usize];
            let at = self.position.flags_word(words.len(), width);
            words[at] |= 1 << 31;
            Packet::new(tag, words)
        } else {
            packet
        };
        self.inner.send(from, packet);
    }

    fn recv(&mut self, to: Side) -> Option<Packet> {
        self.inner.recv(to)
    }

    fn pending(&self, to: Side) -> usize {
        self.inner.pending(to)
    }
}

/// Both ends of one loopback TCP connection as a shared medium, so the
/// shared-medium layout steps both domains over a real socket.
struct SocketPair(RefCell<[TcpEndpoint; 2]>);

impl SocketPair {
    fn new() -> Self {
        let (sim, acc) = TcpTransport::loopback_pair().expect("loopback sockets");
        SocketPair(RefCell::new([sim, acc]))
    }
}

impl Transport for SocketPair {
    fn send(&mut self, from: Side, packet: Packet) {
        self.0.get_mut()[(from == Side::Accelerator) as usize].send(from, packet);
    }

    fn recv(&mut self, to: Side) -> Option<Packet> {
        self.0.get_mut()[(to == Side::Accelerator) as usize].recv(to)
    }

    /// Asked only when both domains are blocked: bytes still in the kernel
    /// are given a moment to arrive before the answer is "nothing".
    fn pending(&self, to: Side) -> usize {
        let end = &mut self.0.borrow_mut()[(to == Side::Accelerator) as usize];
        end.wait_for_packet(Duration::from_millis(200));
        end.pending(to)
    }
}

fn run_tampered<T: Transport>(position: Position, medium: T) -> Result<(), SimError> {
    let blueprint = common::figure2_soc();
    let placement = blueprint.placement();
    let (sim, acc) = blueprint.build_pair().expect("Fig. 2 builds");
    // Only the conservative mode is sure to exchange cycle outputs.
    let policy = match position {
        Position::CycleOutputs => ModePolicy::Conservative,
        _ => ModePolicy::Auto,
    };
    let config = CoEmuConfig::paper_defaults().policy(policy).carry(true);
    let tamper = Tamper {
        inner: medium,
        position,
        widths: [
            placement.local_width(Side::Simulator),
            placement.local_width(Side::Accelerator),
        ],
        hit: false,
    };
    let mut emu = CoEmulator::with_transport(sim, acc, config, tamper);
    let outcome = emu.run_until_synchronized(4_000);
    assert!(emu.transport().hit, "{position:?}: no such packet was sent");
    outcome
}

/// What a damaged failure report names instead of the entry that failed.
#[derive(Debug, Clone, Copy)]
enum BadIndex {
    /// An index no burst reaches.
    Max,
    /// One past the last entry of the burst the report answers.
    Len,
    /// The burst's head entry, which ran on carried actuals and was never
    /// checked.
    Head,
}

/// Rewrites the index of the first failure report that answers a burst
/// `bad` applies to.
struct IndexTamper<T> {
    inner: T,
    bad: BadIndex,
    /// Per sender: the last burst's entry count, and whether its first
    /// entry is a head entry.
    bursts: [(u32, bool); 2],
    hit: bool,
}

impl<T: Transport> Transport for IndexTamper<T> {
    fn send(&mut self, from: Side, packet: Packet) {
        let sender = (from == Side::Accelerator) as usize;
        let packet = match packet.tag() {
            PacketTag::Burst => {
                // `[count, width, has_prediction, …]`: the first entry
                // travels raw.
                let words = packet.payload();
                self.bursts[sender] = (words[0], words[0] > 0 && words[2] == 0);
                packet
            }
            PacketTag::ReportFailure if !self.hit => {
                let (len, head) = self.bursts[1 - sender];
                let index = match self.bad {
                    BadIndex::Max => Some(u32::MAX),
                    BadIndex::Len => Some(len),
                    BadIndex::Head => head.then_some(0),
                };
                match index {
                    Some(index) => {
                        self.hit = true;
                        let mut words = packet.into_payload();
                        words[0] = index;
                        Packet::new(PacketTag::ReportFailure, words)
                    }
                    None => packet,
                }
            }
            _ => packet,
        };
        self.inner.send(from, packet);
    }

    fn recv(&mut self, to: Side) -> Option<Packet> {
        self.inner.recv(to)
    }

    fn pending(&self, to: Side) -> usize {
        self.inner.pending(to)
    }
}

fn run_misindexed<T: Transport>(bad: BadIndex, medium: T) -> Result<(), SimError> {
    let (sim, acc) = common::figure2_soc().build_pair().expect("Fig. 2 builds");
    let config = CoEmuConfig::paper_defaults()
        .policy(ModePolicy::Auto)
        .carry(true);
    let tamper = IndexTamper {
        inner: medium,
        bad,
        bursts: [(0, false); 2],
        hit: false,
    };
    let mut emu = CoEmulator::with_transport(sim, acc, config, tamper);
    let outcome = emu.run_until_synchronized(4_000);
    assert!(
        emu.transport().hit,
        "{bad:?}: no such failure report was sent"
    );
    outcome
}

#[test]
fn a_failure_index_outside_the_checked_entries_is_a_protocol_error() {
    for bad in [BadIndex::Max, BadIndex::Len, BadIndex::Head] {
        for (backend, outcome) in [
            ("queue", run_misindexed(bad, QueueTransport::new())),
            ("tcp", run_misindexed(bad, SocketPair::new())),
        ] {
            match outcome {
                Err(SimError::Config(msg)) => assert!(
                    msg.starts_with("protocol: failure report names entry"),
                    "{bad:?} over {backend}: {msg}"
                ),
                other => panic!("{bad:?} over {backend}: expected a protocol error, got {other:?}"),
            }
        }
    }
}

fn assert_typed_error(position: Position, backend: &str, outcome: Result<(), SimError>) {
    match outcome {
        Err(SimError::Config(msg)) => {
            assert!(
                msg.starts_with("protocol: malformed signal word")
                    && msg.contains(position.named()),
                "{position:?} over {backend}: {msg}"
            );
        }
        other => panic!("{position:?} over {backend}: expected a protocol error, got {other:?}"),
    }
}

#[test]
fn a_malformed_signal_word_is_a_protocol_error_at_every_position() {
    for position in Position::ALL {
        assert_typed_error(
            position,
            "queue",
            run_tampered(position, QueueTransport::new()),
        );
        assert_typed_error(position, "tcp", run_tampered(position, SocketPair::new()));
    }
}

#[test]
fn untampered_runs_agree_over_both_media() {
    // The harness itself: with nothing damaged the socket pair commits what
    // the queue commits, so an error above is the tampering's doing.
    let run = |medium: &mut dyn FnMut() -> Box<dyn Transport>| {
        let blueprint = common::figure2_soc();
        let placement = blueprint.placement();
        let (sim, acc) = blueprint.build_pair().expect("Fig. 2 builds");
        let config = CoEmuConfig::paper_defaults()
            .policy(ModePolicy::Auto)
            .carry(true);
        let mut emu = CoEmulator::with_transport(sim, acc, config, medium());
        emu.run_until_synchronized(1_500).expect("clean run");
        let trace = emu.merged_trace(|s, a| placement.merge_records(s, a));
        (emu.committed_cycles(), trace.hash())
    };
    let queue = run(&mut || Box::new(QueueTransport::new()));
    let tcp = run(&mut || Box::new(SocketPair::new()));
    assert_eq!(queue, tcp);
}

/// Asserts `outcome` is the protocol's refusal of a malformed delta block.
fn assert_bad_block(case: &str, outcome: Result<(), SimError>) {
    match outcome {
        Err(SimError::Config(msg)) => assert_eq!(msg, "protocol: malformed delta block", "{case}"),
        other => panic!("{case}: expected a refused block, got {other:?}"),
    }
}

/// Replaces the first burst's block with an empty one of the right width,
/// keeping the leader-next words after it.
struct EmptyBurst<T> {
    inner: T,
    /// Per sender: its local output width, the leader-next words' count.
    widths: [usize; 2],
    hit: bool,
}

impl<T: Transport> Transport for EmptyBurst<T> {
    fn send(&mut self, from: Side, packet: Packet) {
        let packet = if !self.hit && packet.tag() == PacketTag::Burst {
            self.hit = true;
            let words = packet.payload();
            let width = self.widths[(from == Side::Accelerator) as usize];
            let leader_next = &words[words.len() - width..];
            Packet::new(PacketTag::Burst, [&[0, words[1]], leader_next].concat())
        } else {
            packet
        };
        self.inner.send(from, packet);
    }

    fn recv(&mut self, to: Side) -> Option<Packet> {
        self.inner.recv(to)
    }

    fn pending(&self, to: Side) -> usize {
        self.inner.pending(to)
    }
}

fn run_empty_burst<T: Transport>(medium: T) -> Result<(), SimError> {
    let blueprint = common::figure2_soc();
    let placement = blueprint.placement();
    let (sim, acc) = blueprint.build_pair().expect("Fig. 2 builds");
    let config = CoEmuConfig::paper_defaults()
        .policy(ModePolicy::Auto)
        .carry(true);
    let tamper = EmptyBurst {
        inner: medium,
        widths: [
            placement.local_width(Side::Simulator),
            placement.local_width(Side::Accelerator),
        ],
        hit: false,
    };
    let mut emu = CoEmulator::with_transport(sim, acc, config, tamper);
    let outcome = emu.run_until_synchronized(4_000);
    assert!(emu.transport().hit, "no burst was sent");
    outcome
}

#[test]
fn an_empty_burst_is_a_protocol_error() {
    assert_bad_block("queue", run_empty_burst(QueueTransport::new()));
    assert_bad_block("tcp", run_empty_burst(SocketPair::new()));
}

/// How the last entry of a damaged burst misdescribes its changed words.
#[derive(Debug, Clone, Copy)]
enum BadTail {
    /// Its mask drops a word it selected: one word too many follows.
    Loses,
    /// Its mask selects a word that did not change: one word too few.
    Gains,
}

/// While armed, damages the last entry's mask in the next burst sent —
/// when that burst has such an entry and such a bit — and disarms.
struct TailTamper<T> {
    inner: T,
    bad: BadTail,
    armed: Cell<bool>,
    /// The side the damaged burst was sent to.
    hit: Option<Side>,
}

impl<T: Transport> Transport for TailTamper<T> {
    fn send(&mut self, from: Side, packet: Packet) {
        let packet = if self.armed.get() && packet.tag() == PacketTag::Burst {
            self.armed.set(false);
            let mut words = packet.into_payload();
            // `[count, width, first entry, (count - 1) masks, changed words]`,
            // then the leader-next words.
            let (count, width) = (words[0] as usize, words[1] as usize);
            let selected = matches!(self.bad, BadTail::Loses);
            let flip = (count >= 2)
                .then(|| {
                    let last = 2 + width + (count - 2) * width.div_ceil(32);
                    (0..width)
                        .map(|i| (last + i / 32, 1u32 << (i % 32)))
                        .find(|&(at, bit)| (words[at] & bit != 0) == selected)
                })
                .flatten();
            if let Some((at, bit)) = flip {
                words[at] ^= bit;
                self.hit = Some(from.peer());
            }
            Packet::new(PacketTag::Burst, words)
        } else {
            packet
        };
        self.inner.send(from, packet);
    }

    fn recv(&mut self, to: Side) -> Option<Packet> {
        self.inner.recv(to)
    }

    fn pending(&self, to: Side) -> usize {
        self.inner.pending(to)
    }
}

/// Runs the pair one transition at a time, arming `bad` at each boundary,
/// until a burst is damaged. Returns the run's outcome and the lagger's
/// `(cycle, trace length)` at the boundary before the burst and at the end.
fn run_bad_tail<M: DomainModel + Send + 'static>(
    bad: BadTail,
    (sim, acc): (M, M),
) -> (Result<(), SimError>, (u64, usize), (u64, usize)) {
    let config = CoEmuConfig::paper_defaults().policy(ModePolicy::ForcedAls);
    let tamper = TailTamper {
        inner: QueueTransport::new(),
        bad,
        armed: Cell::new(false),
        hit: None,
    };
    let mut emu = CoEmulator::with_transport(sim, acc, config, tamper);
    emu.run_until_synchronized(500).expect("an undamaged run");
    let standing = |emu: &CoEmulator<M, TailTamper<QueueTransport>>, side: Side| {
        let model = match side {
            Side::Simulator => emu.sim_model(),
            Side::Accelerator => emu.acc_model(),
        };
        (model.cycle(), model.trace().len())
    };
    loop {
        // At a boundary nothing is in flight: whoever lags the next
        // transition meets its burst standing here.
        let before = [Side::Simulator, Side::Accelerator].map(|side| standing(&emu, side));
        emu.transport().armed.set(true);
        let outcome = emu.run_until_synchronized(emu.committed_cycles() + 1);
        if let Some(lagger) = emu.transport().hit {
            let at = before[(lagger == Side::Accelerator) as usize];
            return (outcome, at, standing(&emu, lagger));
        }
        outcome.expect("an undamaged transition runs");
        assert!(
            emu.committed_cycles() < 4_000,
            "{bad:?}: no burst had a tail to damage"
        );
    }
}

#[test]
fn a_burst_with_a_bad_tail_is_refused_before_its_first_entry() {
    let synthetic = |accuracy| SyntheticSoc::als(accuracy, 7).build();
    let figure2 = || common::figure2_soc().build_pair().expect("Fig. 2 builds");
    // The synthetic leader repeats its outputs and its prediction through a
    // run-ahead, so a synthetic burst's later entries select no word to lose.
    let cases = [
        (
            "Fig. 2",
            BadTail::Loses,
            run_bad_tail(BadTail::Loses, figure2()),
        ),
        (
            "Fig. 2",
            BadTail::Gains,
            run_bad_tail(BadTail::Gains, figure2()),
        ),
        (
            "synthetic pair at p = 0.6",
            BadTail::Gains,
            run_bad_tail(BadTail::Gains, synthetic(0.6)),
        ),
        (
            "synthetic pair at p = 1.0",
            BadTail::Gains,
            run_bad_tail(BadTail::Gains, synthetic(1.0)),
        ),
    ];
    for (pair, bad, (outcome, before, after)) in cases {
        let case = format!("{bad:?}, {pair}");
        assert_bad_block(&case, outcome);
        assert!(before.0 >= 500, "{case}: damaged at cycle {}", before.0);
        assert_eq!(after, before, "{case}: the lagger moved");
    }
}
