//! A peer's malformed signal word is a typed protocol error, not a panic.
//!
//! `Message::decode` checks lengths only, and `AhbDomainModel::tick` unpacks
//! its remote vector assuming it is well formed; the wrapper stands between
//! them and passes every peer-supplied output vector through
//! `DomainModel::check_remote`. Each of the five places such a vector
//! travels in is damaged here in a live Fig. 2 session — over the in-process
//! queue and over a real loopback socket pair — and the session must end
//! with `SimError::Config("protocol: …")`.

mod common;

use predpkt_channel::tcp::{TcpEndpoint, TcpTransport};
use predpkt_channel::{Packet, PacketTag, QueueTransport, Side, Transport, WaitTransport};
use predpkt_core::{CoEmuConfig, CoEmulator, ModePolicy};
use predpkt_sim::SimError;
use std::cell::RefCell;
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
