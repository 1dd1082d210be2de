//! Ack-and-retransmit reliability layer over any [`Transport`].
//!
//! The paper assumes a reliable PCI channel; [`LossyTransport`] showed that on
//! a faulty channel the co-emulation protocol merely *detects* corruption
//! (deadlock or protocol error). [`ReliableTransport`] closes that gap: it
//! wraps any inner transport with per-direction sequence numbers, a CRC-32
//! over every frame, a sliding send window, cumulative acknowledgements, and
//! go-back-N retransmission — turning a lossy mailbox into a lossless one.
//!
//! Design points:
//!
//! * **Framing with piggybacked acks.** Every protocol packet is wrapped into
//!   a [`PacketTag::RelData`] frame `[seq, ack, orig_tag, crc, payload...]`
//!   whose `ack` word carries the sender's cumulative acknowledgement for the
//!   *reverse* direction — when data is flowing, acknowledgements ride on it
//!   for free instead of paying a channel access each. A standalone
//!   [`PacketTag::RelAck`] frame `[ack_seq, crc]` is emitted only when the
//!   receiving side goes idle (a fruitless receive poll) while still owing
//!   one. Cumulative acks are idempotent, so a stale piggybacked value is
//!   harmless. A frame whose CRC or layout check fails is discarded and
//!   healed by retransmission, so truncation faults never reach the protocol
//!   decoder.
//! * **Zero-copy hot path.** Frame payloads are drawn from a free-list
//!   [`BufferPool`](crate::BufferPool) fed by consumed inbound frames,
//!   acknowledged outbound frames, and the protocol packets the layer
//!   swallows; transmissions (first sends, window refills, go-back-N bursts)
//!   go to the inner transport **by reference** ([`Transport::send_ref`] /
//!   [`Transport::send_batch_ref`]), so the steady-state path neither clones
//!   frames nor allocates, and a retransmission burst coalesces into one
//!   physical write on batching backends.
//! * **Virtual-time retransmission clock.** The layer keeps its own
//!   [`VirtualTime`] clock, advanced by [`ReliableConfig::poll_tick`] on
//!   every fruitless receive poll (the caller models blocking by polling, so
//!   polls *are* the passage of time; a delivering poll is not idle time). A
//!   frame unacknowledged for [`ReliableConfig::rto`] of such idle time is
//!   retransmitted, go-back-N, up to [`ReliableConfig::retry_budget`] times
//!   before the layer gives up and records a [`RetryExhausted`] failure
//!   instead of hanging. A session polls both ends of a link from one
//!   thread, so over an in-process medium the clock is a function of the
//!   protocol alone; over a socket or a region file the kernel paces
//!   delivery, so late data can fire spurious retransmissions (harmless —
//!   duplicates are suppressed) or even burn the budget, and the session
//!   layer therefore treats a recorded failure on a run that still completed
//!   as the false alarm it provably is.
//! * **Cost accounting.** The paper's whole subject is channel traffic, so
//!   recovery overhead is billed honestly: frame headers, acks, and every
//!   retransmitted word are charged through the [`ChannelCostModel`] into
//!   [`RecoveryStats::overhead_words`] / [`RecoveryStats::overhead_time`],
//!   *separately* from the protocol-level [`ChannelStats`] — a reliable
//!   session over a faulty link commits bit-identical traces and ledgers to a
//!   clean run while the recovery bill shows the true cost of the bad link.
//!
//! One instance can serve both directions (wrapping a shared
//! [`QueueTransport`]-style mailbox) or a single side (wrapping a per-side
//! [`ThreadedEndpoint`](crate::ThreadedEndpoint)); unused direction state
//! simply stays empty.
//!
//! # Example
//!
//! ```
//! use predpkt_channel::{
//!     ChannelCostModel, FaultSpec, LossyTransport, Packet, PacketTag, QueueTransport,
//!     ReliableConfig, ReliableTransport, Side, Transport,
//! };
//!
//! // A link that drops half of everything...
//! let lossy = LossyTransport::new(QueueTransport::new(), FaultSpec::drops(7, 0.5));
//! // ...wrapped into a lossless one.
//! let mut t = ReliableTransport::new(lossy, ReliableConfig::default(), ChannelCostModel::iprove_pci());
//! for i in 0..20u32 {
//!     t.send(Side::Simulator, Packet::new(PacketTag::CycleOutputs, vec![i]));
//! }
//! let mut got = Vec::new();
//! for _ in 0..100_000 {
//!     if let Some(p) = t.recv(Side::Accelerator) {
//!         got.push(p.payload()[0]);
//!     }
//!     let _ = t.recv(Side::Simulator); // sender must drain acks
//!     if got.len() == 20 {
//!         break;
//!     }
//! }
//! assert_eq!(got, (0..20).collect::<Vec<_>>(), "in order, nothing lost");
//! assert!(t.recovery_stats().retransmits > 0, "losses were healed");
//! ```

use crate::cost::{ChannelCostModel, Direction, Side};
use crate::knob::KnobError;
use crate::message::{Packet, PacketTag};
use crate::pool::{BufferPool, PoolStats};
use crate::transport::{BatchStats, Transport, WaitTransport};
use predpkt_sim::{Each, List, Snapshot, VirtualTime};
use std::collections::VecDeque;
use std::fmt;
use std::time::Duration;

/// Words a [`PacketTag::RelData`] frame adds on top of the wrapped packet's
/// own wire words: the sequence number, the piggybacked cumulative ack for
/// the reverse direction, the original tag, and the CRC (the `RelData` tag
/// word replaces the original tag word, which rides in the payload instead).
pub const DATA_HEADER_WORDS: u64 = 4;

/// Tuning knobs of a [`ReliableTransport`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReliableConfig {
    /// Maximum unacknowledged frames per direction; further sends queue in an
    /// unbounded backlog until the window opens.
    pub window: usize,
    /// Go-back-N rounds a frame may fail as the *oldest unacknowledged*
    /// frame before the layer gives up and records a [`RetryExhausted`]
    /// failure (frames deeper in the window retransmit alongside without
    /// being charged — they did not cause the stall).
    pub retry_budget: u32,
    /// Virtual time a frame may stay unacknowledged before go-back-N
    /// retransmission fires.
    pub rto: VirtualTime,
    /// Virtual time one fruitless receive poll represents (the caller models
    /// blocking by polling, so this is the layer's clock resolution).
    pub poll_tick: VirtualTime,
}

impl Default for ReliableConfig {
    /// Window 8, budget 16, RTO 100 µs, poll tick 12.2 µs (one iPROVE channel
    /// startup — a natural "the channel could have turned around by now"
    /// quantum).
    fn default() -> Self {
        ReliableConfig {
            window: 8,
            retry_budget: 16,
            rto: VirtualTime::from_micros(100),
            poll_tick: VirtualTime::from_nanos(12_200),
        }
    }
}

impl ReliableConfig {
    /// Overrides the send window.
    pub fn window(mut self, window: usize) -> Self {
        self.window = window;
        self
    }

    /// Overrides the retransmission budget.
    pub fn retry_budget(mut self, retry_budget: u32) -> Self {
        self.retry_budget = retry_budget;
        self
    }

    /// Overrides the retransmission timeout.
    pub fn rto(mut self, rto: VirtualTime) -> Self {
        self.rto = rto;
        self
    }

    /// Overrides the per-poll clock tick.
    pub fn poll_tick(mut self, poll_tick: VirtualTime) -> Self {
        self.poll_tick = poll_tick;
        self
    }

    /// Checks every knob for sanity.
    ///
    /// # Errors
    ///
    /// Returns a [`KnobError`] naming the first rejected knob.
    pub fn validate(&self) -> Result<(), KnobError> {
        if self.window == 0 {
            return Err(KnobError::new("window", "must be at least 1"));
        }
        if self.retry_budget == 0 {
            return Err(KnobError::new("retry_budget", "must be at least 1"));
        }
        if self.rto == VirtualTime::ZERO {
            return Err(KnobError::new("rto", "must be positive"));
        }
        if self.poll_tick == VirtualTime::ZERO {
            return Err(KnobError::new("poll_tick", "must be positive"));
        }
        Ok(())
    }
}

/// Counters of the recovery work a [`ReliableTransport`] has performed.
///
/// `overhead_words`/`overhead_time` are the traffic the reliability layer
/// *adds* on top of the protocol's own [`ChannelStats`](crate::ChannelStats):
/// frame headers, acknowledgement frames, and full retransmissions, each
/// billed through the [`ChannelCostModel`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RecoveryStats {
    /// Data frames retransmitted after an RTO expiry.
    pub retransmits: u64,
    /// Acknowledgement obligations satisfied: standalone [`PacketTag::RelAck`]
    /// frames plus acks piggybacked on outgoing data frames.
    pub acks_sent: u64,
    /// The subset of [`acks_sent`](Self::acks_sent) that rode an outgoing
    /// data frame instead of paying for a standalone ack access.
    pub acks_piggybacked: u64,
    /// Already-delivered frames received again and discarded.
    pub duplicates_suppressed: u64,
    /// Frames discarded for CRC or layout violations.
    pub crc_rejects: u64,
    /// In-flight frames discarded because an earlier frame was still missing
    /// (go-back-N accepts only in-order delivery).
    pub out_of_order_drops: u64,
    /// Extra wire words the recovery layer moved (headers + acks +
    /// retransmissions).
    pub overhead_words: u64,
    /// Virtual-time cost of the extra traffic under the channel cost model.
    pub overhead_time: VirtualTime,
}

predpkt_sim::declare_state! {
    impl RecoveryStats {
        retransmits,
        acks_sent,
        acks_piggybacked,
        duplicates_suppressed,
        crc_rejects,
        out_of_order_drops,
        overhead_words,
        overhead_time,
    }
}

impl RecoveryStats {
    /// Recovery *events* (excluding routine acks): retransmits, suppressed
    /// duplicates, CRC rejects, and out-of-order drops. Nonzero exactly when
    /// the layer actually had to repair something.
    pub fn recovery_events(&self) -> u64 {
        self.retransmits + self.duplicates_suppressed + self.crc_rejects + self.out_of_order_drops
    }

    /// Fraction of acknowledgements that rode data frames for free (`None`
    /// before the first ack). High when traffic is bidirectional — the
    /// batching/piggyback efficiency figure benches report.
    pub fn ack_piggyback_ratio(&self) -> Option<f64> {
        (self.acks_sent > 0).then(|| self.acks_piggybacked as f64 / self.acks_sent as f64)
    }

    /// Merges another block into this one (per-side threaded instances).
    pub fn merge(&mut self, other: &RecoveryStats) {
        self.retransmits += other.retransmits;
        self.acks_sent += other.acks_sent;
        self.acks_piggybacked += other.acks_piggybacked;
        self.duplicates_suppressed += other.duplicates_suppressed;
        self.crc_rejects += other.crc_rejects;
        self.out_of_order_drops += other.out_of_order_drops;
        self.overhead_words += other.overhead_words;
        self.overhead_time += other.overhead_time;
    }
}

/// Why a [`ReliableTransport`] gave up on a frame — the postmortem cause
/// attached to every [`RetryExhausted`] record.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TransportDead {
    /// The medium itself reported death (the inner transport's readiness
    /// went [`Dead`](crate::poll::Readiness::Dead) — a severed link or
    /// reset socket) while frames were still outstanding. The layer fails
    /// fast instead of burning the budget against a link it knows is gone.
    PeerGone,
    /// The retransmission budget was exhausted with no death signal from
    /// the medium: the link may be lossy beyond repair, silently wedged, or
    /// the peer stalled. Blocking runners land here even when the peer is
    /// in fact gone — they have no readiness probe, so exhaustion is the
    /// only evidence they ever see.
    #[default]
    BudgetExhausted,
}

impl TransportDead {
    /// The cause's checkpoint word.
    fn encode(self) -> u32 {
        match self {
            TransportDead::PeerGone => 0,
            TransportDead::BudgetExhausted => 1,
        }
    }

    /// The cause a checkpoint word names, if any.
    fn decode(word: u32) -> Option<TransportDead> {
        match word {
            0 => Some(TransportDead::PeerGone),
            1 => Some(TransportDead::BudgetExhausted),
            _ => None,
        }
    }
}

predpkt_sim::declare_state! { impl TransportDead: word(encode, decode) }

impl fmt::Display for TransportDead {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            TransportDead::PeerGone => "peer gone",
            TransportDead::BudgetExhausted => "retry budget exhausted",
        })
    }
}

/// Record of a frame the reliable layer gave up on.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RetryExhausted {
    /// Direction of the abandoned frame.
    pub direction: Direction,
    /// Its sequence number.
    pub seq: u32,
    /// Retransmissions attempted before giving up.
    pub retries: u32,
    /// Cumulative idle (RTO-clock) time the frame spent unacknowledged —
    /// from its first transmission to abandonment — so a postmortem can say
    /// how long the link was dead, not just how often it was retried.
    pub idle: VirtualTime,
    /// Why the layer gave up: the medium reported death, or the budget ran
    /// out without one.
    pub cause: TransportDead,
}

predpkt_sim::declare_state! { impl RetryExhausted { direction, seq, retries, idle, cause } }

/// Feeds the little-endian bytes of `words` into a running CRC-32 state
/// (IEEE 802.3, reflected); streaming so frame checksums never need a
/// contiguous copy of header + payload.
pub fn crc32_feed(mut crc: u32, words: &[u32]) -> u32 {
    for word in words {
        for byte in word.to_le_bytes() {
            crc ^= byte as u32;
            for _ in 0..8 {
                let mask = (crc & 1).wrapping_neg();
                crc = (crc >> 1) ^ (0xedb8_8320 & mask);
            }
        }
    }
    crc
}

/// CRC-32 of `head` followed by `tail`, as if they were one word slice.
pub fn crc32_parts(head: &[u32], tail: &[u32]) -> u32 {
    !crc32_feed(crc32_feed(!0, head), tail)
}

/// CRC-32 (IEEE 802.3, reflected) over the little-endian bytes of `words` —
/// the same polynomial that protects `RelData` frames, reused by the session
/// checkpoint codec to seal each section of a checkpoint blob.
pub fn crc32(words: &[u32]) -> u32 {
    crc32_parts(words, &[])
}

/// An in-flight (or backlogged) data frame.
#[derive(Debug, Default)]
struct InFlight {
    seq: u32,
    frame: Packet,
    /// Clock value at the most recent transmission (meaningless while
    /// backlogged).
    sent_at: VirtualTime,
    /// Clock value at the *first* transmission — unlike `sent_at` it
    /// survives retransmissions, so `now - first_sent` at abandonment is
    /// the frame's cumulative idle RTO time.
    first_sent: VirtualTime,
    retries: u32,
}

// A window frame is a `RelData` frame with its whole header: the ack refresh
// rewrites header words in place, so anything else is refused, at its tag
// word or at its length word.
predpkt_sim::declare_state! {
    impl InFlight {
        seq,
        frame => |this, at| match this.frame.tag() {
            PacketTag::RelData if this.frame.payload().len() < DATA_HEADER_WORDS as usize => {
                Err(at + 1)
            }
            PacketTag::RelData => Ok(()),
            _ => Err(at),
        },
        sent_at,
        first_sent,
        retries,
    }
}

/// Per-direction sender state.
#[derive(Debug, Default)]
struct SendState {
    next_seq: u32,
    /// Transmitted, awaiting acknowledgement (len ≤ window).
    unacked: VecDeque<InFlight>,
    /// Framed but not yet transmitted (window was full).
    backlog: VecDeque<InFlight>,
}

/// Per-direction receiver state.
#[derive(Debug, Default)]
struct RecvState {
    next_expected: u32,
    /// Decoded original packets ready for [`Transport::recv`].
    deliverable: VecDeque<Packet>,
    /// The receiving side owes the data sender an acknowledgement. Cleared
    /// when a cumulative ack goes out — piggybacked on a data frame when
    /// traffic is flowing, or as a standalone frame on the receiver's next
    /// idle poll.
    ack_pending: bool,
}

predpkt_sim::declare_state! { impl SendState { next_seq, unacked: List, backlog: List } }
predpkt_sim::declare_state! { impl RecvState { next_expected, deliverable: List, ack_pending } }

/// Sequence-numbered ack-and-retransmit wrapper turning any inner transport —
/// including a fault-injecting [`LossyTransport`](crate::LossyTransport) —
/// into a lossless one. See the module-level documentation for the design.
#[derive(Debug)]
pub struct ReliableTransport<T> {
    inner: T,
    config: ReliableConfig,
    cost_model: ChannelCostModel,
    /// The layer's own virtual-time clock (see module docs).
    now: VirtualTime,
    /// `None` when one instance serves both domains over a shared mailbox
    /// (queue/lossy backends): any receive poll drains *both* sides' inner
    /// queues so acknowledgements are processed promptly no matter which
    /// domain polls. `Some(side)` for a per-side instance over an endpoint
    /// that only ever carries that side's traffic.
    scope: Option<Side>,
    send: [SendState; 2],
    recv: [RecvState; 2],
    stats: RecoveryStats,
    failure: Option<RetryExhausted>,
    /// Free list feeding the frame-encode and decode paths: consumed inbound
    /// frames, acknowledged outbound frames, and swallowed protocol packets
    /// all return their buffers here. Steady state runs allocation-free.
    pool: BufferPool,
}

fn sender_of(direction: Direction) -> Side {
    match direction {
        Direction::SimToAcc => Side::Simulator,
        Direction::AccToSim => Side::Accelerator,
    }
}

impl<T: Transport> ReliableTransport<T> {
    /// Wraps `inner`, validating the configuration first.
    ///
    /// # Errors
    ///
    /// Returns a [`KnobError`] naming the first knob
    /// [`ReliableConfig::validate`] rejects.
    pub fn try_new(
        inner: T,
        config: ReliableConfig,
        cost_model: ChannelCostModel,
    ) -> Result<Self, KnobError> {
        config.validate()?;
        Ok(Self::new_prevalidated(inner, config, cost_model))
    }

    /// Wraps `inner`, validating the configuration.
    ///
    /// Convenience for configurations known valid by construction (defaults,
    /// literals); fallible callers — anything forwarding user input — should
    /// use [`try_new`](Self::try_new) instead.
    ///
    /// # Panics
    ///
    /// Panics if `config` fails [`ReliableConfig::validate`].
    pub fn new(inner: T, config: ReliableConfig, cost_model: ChannelCostModel) -> Self {
        Self::try_new(inner, config, cost_model).expect("invalid reliable config")
    }

    /// The infallible interior constructor: `config` has already passed
    /// [`ReliableConfig::validate`] (the session builder validates every knob
    /// before any transport is built).
    pub(crate) fn new_prevalidated(
        inner: T,
        config: ReliableConfig,
        cost_model: ChannelCostModel,
    ) -> Self {
        ReliableTransport {
            inner,
            config,
            cost_model,
            now: VirtualTime::ZERO,
            scope: None,
            send: Default::default(),
            recv: Default::default(),
            stats: RecoveryStats::default(),
            failure: None,
            pool: BufferPool::new(),
        }
    }

    /// Restricts the instance to one side — for per-side inner transports
    /// like a [`ThreadedEndpoint`](crate::ThreadedEndpoint), where receiving
    /// for the peer would read the wrong queue.
    pub fn for_side(mut self, side: Side) -> Self {
        self.scope = Some(side);
        self
    }

    /// Recovery counters accumulated so far.
    pub fn recovery_stats(&self) -> RecoveryStats {
        self.stats
    }

    /// The first frame the layer gave up on, if any — once set, the affected
    /// direction stops retransmitting so the run can terminate (detected as a
    /// deadlock and mapped to a typed error by the session layer).
    pub fn failure(&self) -> Option<RetryExhausted> {
        self.failure
    }

    /// The configuration in force.
    pub fn config(&self) -> &ReliableConfig {
        &self.config
    }

    /// The layer's virtual-time clock (diagnostics).
    pub fn clock(&self) -> VirtualTime {
        self.now
    }

    /// Shared access to the inner transport (e.g. to read
    /// [`LossyTransport`](crate::LossyTransport) fault counters).
    pub fn inner(&self) -> &T {
        &self.inner
    }

    /// The pool's hit/miss counters — the steady-state zero-allocation
    /// property, observable (and asserted by tests/benches).
    pub fn pool_stats(&self) -> PoolStats {
        self.pool.stats()
    }

    /// Frames the packet into a `[seq, ack, orig_tag, crc, payload...]`
    /// `RelData` frame, drawing the frame buffer from the pool.
    fn encode_data(&mut self, seq: u32, ack: u32, packet: &Packet) -> Packet {
        let tag_word = packet.tag().encode();
        let mut payload = self.pool.acquire();
        payload.reserve(DATA_HEADER_WORDS as usize + packet.payload().len());
        payload.push(seq);
        payload.push(ack);
        payload.push(tag_word);
        payload.push(crc32_parts(&[seq, ack, tag_word], packet.payload()));
        payload.extend_from_slice(packet.payload());
        Packet::new(PacketTag::RelData, payload)
    }

    /// Validates a `RelData` frame and borrows its parts — `(seq,
    /// piggybacked ack, wrapped tag, wrapped payload)`. No copy happens
    /// here: the caller materializes the wrapped packet only for frames it
    /// actually delivers (duplicates and gap frames are discarded from the
    /// borrow).
    fn parse_data(frame: &Packet) -> Option<(u32, u32, PacketTag, &[u32])> {
        let p = frame.payload();
        if p.len() < DATA_HEADER_WORDS as usize {
            return None;
        }
        let (seq, ack, tag_word, crc) = (p[0], p[1], p[2], p[3]);
        let tag = PacketTag::decode(tag_word)?;
        if crc32_parts(&[seq, ack, tag_word], &p[4..]) != crc {
            return None;
        }
        Some((seq, ack, tag, &p[4..]))
    }

    /// [`parse_data`](Self::parse_data) plus materialization through the
    /// pool — the full decode, kept for the codec round-trip tests.
    #[cfg(test)]
    fn decode_data(&mut self, frame: &Packet) -> Option<(u32, u32, Packet)> {
        let (seq, ack, tag, payload) = Self::parse_data(frame)?;
        let mut buf = self.pool.acquire();
        buf.extend_from_slice(payload);
        Some((seq, ack, Packet::new(tag, buf)))
    }

    /// Rewrites the piggybacked ack word of an already-encoded data frame
    /// (and its CRC) in place — transmissions always carry the *current*
    /// cumulative ack, however long the frame sat in the backlog or window.
    fn refresh_frame_ack(frame: &mut Packet, ack: u32) {
        let p = frame.payload_mut();
        debug_assert!(p.len() >= DATA_HEADER_WORDS as usize);
        if p[1] == ack {
            return;
        }
        p[1] = ack;
        let crc = crc32_parts(&[p[0], ack, p[2]], &p[DATA_HEADER_WORDS as usize..]);
        p[3] = crc;
    }

    fn encode_ack(&mut self, ack_seq: u32) -> Packet {
        let mut payload = self.pool.acquire();
        payload.push(ack_seq);
        payload.push(crc32(&[ack_seq]));
        Packet::new(PacketTag::RelAck, payload)
    }

    fn decode_ack(frame: &Packet) -> Option<u32> {
        let p = frame.payload();
        if p.len() != 2 || crc32(&[p[0]]) != p[1] {
            return None;
        }
        Some(p[0])
    }

    /// Sends a standalone cumulative ack from `from` (the receiving domain)
    /// back toward the data sender, billing it as pure recovery overhead.
    fn send_ack(&mut self, from: Side, ack_seq: u32) {
        let frame = self.encode_ack(ack_seq);
        let words = frame.wire_words();
        let cost = self.cost_model.access_cost(from.outbound(), words);
        self.inner.send_ref(from, &frame);
        self.pool.release(frame.into_payload());
        self.stats.acks_sent += 1;
        self.stats.overhead_words += words;
        self.stats.overhead_time += cost;
    }

    /// Emits the standalone ack `from` still owes, if any — called on
    /// fruitless polls (idle time), so an ack that found no data frame to
    /// ride is never delayed past one poll tick.
    fn flush_pending_ack(&mut self, from: Side) {
        let in_dir = from.peer().outbound();
        if !self.recv[in_dir.index()].ack_pending {
            return;
        }
        self.recv[in_dir.index()].ack_pending = false;
        let ack_seq = self.recv[in_dir.index()].next_expected;
        self.send_ack(from, ack_seq);
    }

    /// Moves backlogged frames of `direction` onto the wire while the window
    /// has room, stamping each with the current cumulative ack (clearing any
    /// pending ack obligation for free) and handing the whole refill to the
    /// inner transport as one by-reference batch.
    fn fill_window(&mut self, direction: Direction) {
        let from = sender_of(direction);
        let in_dir = from.peer().outbound();
        let ack_now = self.recv[in_dir.index()].next_expected;
        let idx = direction.index();
        let start = {
            let state = &mut self.send[idx];
            let start = state.unacked.len();
            while state.unacked.len() < self.config.window {
                let Some(mut inflight) = state.backlog.pop_front() else {
                    break;
                };
                inflight.sent_at = self.now;
                inflight.first_sent = self.now;
                Self::refresh_frame_ack(&mut inflight.frame, ack_now);
                state.unacked.push_back(inflight);
            }
            start
        };
        if self.send[idx].unacked.len() == start {
            return;
        }
        if self.recv[in_dir.index()].ack_pending {
            // These frames carry the current cumulative ack: the obligation
            // is satisfied without a standalone ack frame.
            self.recv[in_dir.index()].ack_pending = false;
            self.stats.acks_sent += 1;
            self.stats.acks_piggybacked += 1;
        }
        self.inner.send_batch_ref(
            from,
            &mut self.send[idx].unacked.range(start..).map(|f| &f.frame),
        );
    }

    fn handle_data(&mut self, to: Side, frame: &Packet) {
        let in_dir = to.peer().outbound();
        let Some((seq, ack, tag, payload)) = Self::parse_data(frame) else {
            self.stats.crc_rejects += 1;
            return;
        };
        let in_order = seq == self.recv[in_dir.index()].next_expected;
        // Materialize the wrapped packet only when it will be delivered;
        // duplicates and gap frames are discarded straight from the borrow
        // (the go-back-N recovery path would otherwise pay a full payload
        // copy per retransmitted frame).
        let original = in_order.then(|| {
            let mut buf = self.pool.acquire();
            buf.extend_from_slice(payload);
            Packet::new(tag, buf)
        });
        // The piggybacked cumulative ack covers the direction `to` sends in.
        self.apply_ack(to, ack);
        let state = &mut self.recv[in_dir.index()];
        if let Some(original) = original {
            state.next_expected = state.next_expected.wrapping_add(1);
            state.deliverable.push_back(original);
            // Owe the sender an ack; on the hot path it rides the next
            // outgoing data frame (or a standalone frame on the next idle
            // poll) — deferring is safe because in-order delivery means the
            // sender is not starving.
            state.ack_pending = true;
        } else {
            // An abnormal frame is evidence the sender has timed out and is
            // retransmitting: answer with the cumulative ack *immediately*
            // (covering any deferred obligation too), so a lossy link gets
            // one ack opportunity per arriving frame — not one per idle
            // cycle — and the retry budget is never burned by our own ack
            // frugality.
            if seq.wrapping_sub(state.next_expected) > u32::MAX / 2 {
                // seq < next_expected (mod 2^32): already delivered.
                self.stats.duplicates_suppressed += 1;
            } else {
                // A gap: an earlier frame is still missing; go-back-N
                // discards.
                self.stats.out_of_order_drops += 1;
            }
            let ack_seq = self.recv[in_dir.index()].next_expected;
            self.recv[in_dir.index()].ack_pending = false;
            self.send_ack(to, ack_seq);
        }
    }

    /// Releases acknowledged frames of the direction `to` sends in and
    /// refills the window.
    fn apply_ack(&mut self, to: Side, ack: u32) {
        let out_dir = to.outbound();
        let state = &mut self.send[out_dir.index()];
        let mut advanced = false;
        while let Some(front) = state.unacked.front() {
            if front.seq.wrapping_sub(ack) > u32::MAX / 2 {
                // front.seq < ack (mod 2^32): acknowledged.
                let inflight = state.unacked.pop_front().expect("front exists");
                self.pool.release(inflight.frame.into_payload());
                advanced = true;
            } else {
                break;
            }
        }
        if advanced {
            self.fill_window(out_dir);
        }
    }

    fn handle_ack(&mut self, to: Side, frame: &Packet) {
        let Some(ack) = Self::decode_ack(frame) else {
            self.stats.crc_rejects += 1;
            return;
        };
        self.apply_ack(to, ack);
    }

    /// Drains every packet the inner transport holds for `side`, sorting
    /// frames into deliverable data, consumed acks, and rejected garbage.
    fn drain_for(&mut self, side: Side) {
        while let Some(frame) = self.inner.recv(side) {
            match frame.tag() {
                PacketTag::RelData => {
                    self.handle_data(side, &frame);
                    self.pool.release(frame.into_payload());
                }
                PacketTag::RelAck => {
                    self.handle_ack(side, &frame);
                    self.pool.release(frame.into_payload());
                }
                // Unframed traffic (an inner transport shared with raw users)
                // passes through untouched.
                _ => {
                    let in_dir = side.peer().outbound();
                    self.recv[in_dir.index()].deliverable.push_back(frame);
                }
            }
        }
    }

    /// Drains the inner queues this instance is allowed to read: just `to`'s
    /// for a per-side instance, both for a shared one (so a poll by either
    /// domain processes pending acknowledgements immediately).
    fn drain_inner(&mut self, to: Side) {
        self.drain_for(to);
        if self.scope.is_none() {
            self.drain_for(to.peer());
        }
    }

    /// Retransmits timed-out frames (go-back-N) in every direction this
    /// instance sends, abandoning directions whose budget is exhausted. The
    /// whole go-back-N burst is refreshed (current cumulative ack) and handed
    /// to the inner transport as **one** by-reference batch — no clones, and
    /// one physical write on batching backends.
    fn pump_timeouts(&mut self) {
        for direction in Direction::BOTH {
            let state = &self.send[direction.index()];
            let Some(front) = state.unacked.front() else {
                continue;
            };
            if self.now - front.sent_at < self.config.rto {
                continue;
            }
            let (front_seq, front_retries) = (front.seq, front.retries);
            if self.recv[direction.index()].ack_pending {
                // Shared-scope guard: this very instance is also the
                // receiver for `direction` and still owes its cumulative ack
                // (delayed to ride reverse data that never came). Flush it
                // now; and when it covers the expired frame — the frame was
                // in fact delivered, the "timeout" is our own ack delay —
                // skip the retransmission outright. (Per-side instances
                // never receive in the direction they send, so none of this
                // fires for them.)
                let next_expected = self.recv[direction.index()].next_expected;
                let delivered = front_seq.wrapping_sub(next_expected) > u32::MAX / 2;
                self.flush_pending_ack(sender_of(direction).peer());
                if delivered {
                    continue;
                }
            }
            if front_retries >= self.config.retry_budget {
                self.abandon_direction(direction, TransportDead::BudgetExhausted);
                continue;
            }
            let from = sender_of(direction);
            let in_dir = from.peer().outbound();
            let ack_now = self.recv[in_dir.index()].next_expected;
            let idx = direction.index();
            let now = self.now;
            let count = self.send[idx].unacked.len() as u64;
            let mut words_total = 0u64;
            let mut time_total = VirtualTime::ZERO;
            for (i, inflight) in self.send[idx].unacked.iter_mut().enumerate() {
                Self::refresh_frame_ack(&mut inflight.frame, ack_now);
                inflight.sent_at = now;
                if i == 0 {
                    // The budget is charged against the *front* frame only
                    // (TCP-style): exhaustion means the oldest unacknowledged
                    // frame failed `retry_budget` consecutive rounds, not
                    // that the window was merely congested that often —
                    // frames deep in a go-back-N window must not inherit
                    // retries from stalls they did not cause.
                    inflight.retries += 1;
                }
                let words = inflight.frame.wire_words();
                words_total += words;
                time_total += self.cost_model.access_cost(direction, words);
            }
            self.stats.retransmits += count;
            self.stats.overhead_words += words_total;
            self.stats.overhead_time += time_total;
            if self.recv[in_dir.index()].ack_pending {
                self.recv[in_dir.index()].ack_pending = false;
                self.stats.acks_sent += 1;
                self.stats.acks_piggybacked += 1;
            }
            self.inner
                .send_batch_ref(from, &mut self.send[idx].unacked.iter().map(|f| &f.frame));
        }
    }

    /// Frames `packet` (swallowing its buffer into the pool) and appends it
    /// to the direction's backlog, billing the header overhead. The caller
    /// refills the window afterwards — once per packet for a lone send, once
    /// per batch for [`Transport::send_batch`].
    fn enqueue_frame(&mut self, from: Side, packet: Packet) {
        let out_dir = from.outbound();
        let in_dir = from.peer().outbound();
        let seq = {
            let state = &mut self.send[out_dir.index()];
            let seq = state.next_seq;
            state.next_seq = state.next_seq.wrapping_add(1);
            seq
        };
        let ack = self.recv[in_dir.index()].next_expected;
        let frame = self.encode_data(seq, ack, &packet);
        self.pool.release(packet.into_payload());
        // The protocol already billed the original packet through its costed
        // channel; the framing header is the recovery layer's own traffic.
        self.stats.overhead_words += DATA_HEADER_WORDS;
        self.stats.overhead_time += self.cost_model.per_word(out_dir) * DATA_HEADER_WORDS;
        self.send[out_dir.index()].backlog.push_back(InFlight {
            seq,
            frame,
            sent_at: VirtualTime::ZERO,
            first_sent: VirtualTime::ZERO,
            retries: 0,
        });
    }

    /// Records a terminal failure for `direction` (first failure wins) and
    /// drops its outstanding frames so [`Transport::pending`] reaches zero
    /// and starvation becomes a detectable deadlock upstream.
    fn abandon_direction(&mut self, direction: Direction, cause: TransportDead) {
        if self.failure.is_none() {
            let state = &self.send[direction.index()];
            let (seq, retries, first_sent) = match state.unacked.front() {
                Some(front) => (front.seq, front.retries, front.first_sent),
                // Only backlogged (never-transmitted) frames: the stall
                // starts now, so the idle span is zero.
                None => match state.backlog.front() {
                    Some(front) => (front.seq, front.retries, self.now),
                    None => (state.next_seq, 0, self.now),
                },
            };
            self.failure = Some(RetryExhausted {
                direction,
                seq,
                retries,
                idle: self.now.saturating_sub(first_sent),
                cause,
            });
        }
        let state = &mut self.send[direction.index()];
        state.unacked.clear();
        state.backlog.clear();
    }
}

// The complete recovery state — the RTO clock, both directions' send
// windows (sequence cursors, unacknowledged and backlogged frames with their
// per-frame retry counts and transmission stamps), both directions' receive
// state (expected sequence, decoded-but-unconsumed deliveries, owed acks), the
// recovery counters, and any recorded abandonment. Configuration (`config`,
// `cost_model`, `scope`) and the buffer pool stay with the live instance.
//
// Restoring **re-arms** the window: frames restored into `unacked` carry their
// original `sent_at` stamps against the restored clock, so the next idle polls
// age them exactly as the uninterrupted run would — a restored session resumes
// mid-window, retransmitting whatever the cut left unhealed. A stamp later
// than the clock is refused at its word.
predpkt_sim::declare_state! {
    impl<T: Snapshot> ReliableTransport<T> {
        now,
        send: Each => |this, at| this.stamp_past_clock(at),
        recv: Each,
        stats,
        failure,
        inner,
    }
}

impl<T> ReliableTransport<T> {
    /// The word of the first window stamp later than the clock, if any:
    /// `now - sent_at` underflows in the next timeout sweep. `at` is the
    /// first word of the send states; the walk follows their layout.
    fn stamp_past_clock(&self, mut at: usize) -> Result<(), usize> {
        for state in &self.send {
            at += 1; // next_seq
            for queue in [&state.unacked, &state.backlog] {
                at += 1; // the length word
                for inflight in queue {
                    at += 1 + inflight.frame.saved_len(); // seq, frame
                    for stamp in [inflight.sent_at, inflight.first_sent] {
                        if stamp > self.now {
                            return Err(at);
                        }
                        at += 1;
                    }
                    at += 1; // retries
                }
            }
        }
        Ok(())
    }
}

impl<T: Transport> Transport for ReliableTransport<T> {
    fn send(&mut self, from: Side, packet: Packet) {
        self.enqueue_frame(from, packet);
        self.fill_window(from.outbound());
    }

    fn send_batch(&mut self, from: Side, packets: &mut Vec<Packet>) {
        if packets.is_empty() {
            return;
        }
        for packet in packets.drain(..) {
            self.enqueue_frame(from, packet);
        }
        // One window refill for the whole batch: every frame the window
        // admits leaves in a single inner batch (one physical write on
        // batching backends), with the cumulative ack piggybacked once.
        self.fill_window(from.outbound());
    }

    fn recv(&mut self, to: Side) -> Option<Packet> {
        self.drain_inner(to);
        let in_dir = to.peer().outbound();
        if let Some(packet) = self.recv[in_dir.index()].deliverable.pop_front() {
            return Some(packet);
        }
        // Nothing deliverable: the caller is polling, i.e. time is passing.
        // The timeout pump runs first (its shared-scope guard turns an
        // expiry caused by our own delayed ack into that ack, not a
        // retransmission); any ack still owed then goes out standalone.
        self.now += self.config.poll_tick;
        self.pump_timeouts();
        self.flush_pending_ack(to);
        None
    }

    fn batch_stats(&self) -> Option<BatchStats> {
        self.inner.batch_stats()
    }

    fn fault_stats(&self) -> Option<crate::lossy::FaultStats> {
        self.inner.fault_stats()
    }

    fn recovery_stats(&self) -> Option<RecoveryStats> {
        Some(self.stats)
    }

    fn failure(&self) -> Option<RetryExhausted> {
        self.failure
    }

    /// Logical packets still owed to `to`: decoded-but-unconsumed deliveries
    /// plus every frame the sender will (re)transmit until acknowledged.
    /// In-flight wire frames are *not* double-counted — a frame is either
    /// deliverable, unacknowledged, or backlogged. Reaches zero exactly when
    /// no recovery action can ever deliver anything more (including after a
    /// [`RetryExhausted`] abandonment), which is what turns starvation into a
    /// detectable deadlock upstream.
    fn pending(&self, to: Side) -> usize {
        let in_dir = to.peer().outbound();
        self.recv[in_dir.index()].deliverable.len()
            + self.send[in_dir.index()].unacked.len()
            + self.send[in_dir.index()].backlog.len()
    }
}

impl<T: Transport + crate::poll::PollReady> crate::poll::PollReady for ReliableTransport<T> {
    /// A reliable source is `Ready` not only when data is deliverable (or
    /// the inner transport has frames to decode) but also while *recovery
    /// work is outstanding* — unacknowledged or backlogged frames whose
    /// retransmission clock only advances when the owner polls. A scheduler
    /// must therefore never park a session that still owes the wire a
    /// repair; parking happens only when the layer is fully drained.
    ///
    /// The exception is a medium that reports itself `Dead` while repairs
    /// are still owed: no retransmission can ever land, so the layer fails
    /// fast — it records a [`TransportDead::PeerGone`] failure, drops the
    /// outstanding frames (pending reaches zero, starvation becomes a
    /// detectable deadlock), and reports `Dead` instead of burning the
    /// whole retry budget against a link it knows is gone. Deliverable
    /// frames are still surfaced first: data decoded before the link died
    /// belongs to the consumer.
    fn readiness(&mut self) -> crate::poll::Readiness {
        if self.recv.iter().any(|r| !r.deliverable.is_empty()) {
            return crate::poll::Readiness::Ready;
        }
        let outstanding = self
            .send
            .iter()
            .any(|s| !s.unacked.is_empty() || !s.backlog.is_empty());
        if outstanding {
            if self.inner.readiness() == crate::poll::Readiness::Dead {
                for direction in Direction::BOTH {
                    let state = &self.send[direction.index()];
                    if !state.unacked.is_empty() || !state.backlog.is_empty() {
                        self.abandon_direction(direction, TransportDead::PeerGone);
                    }
                }
                return crate::poll::Readiness::Dead;
            }
            return crate::poll::Readiness::Ready;
        }
        self.inner.readiness()
    }
}

impl<T: WaitTransport> WaitTransport for ReliableTransport<T> {
    fn wait_for_packet(&mut self, timeout: Duration) -> bool {
        if self.recv.iter().any(|r| !r.deliverable.is_empty()) {
            return true;
        }
        let got = self.inner.wait_for_packet(timeout);
        // Like a delivering recv poll, a wait that produced a packet is not
        // idle time; only a timed-out wait advances the RTO clock (and, being
        // idle, flushes any ack still owed by this instance's side).
        if !got {
            if let Some(side) = self.scope {
                self.flush_pending_ack(side);
            }
            self.now += self.config.poll_tick;
            self.pump_timeouts();
        }
        got
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transport::QueueTransport;

    #[test]
    fn crc32_matches_the_standard_check_value() {
        // CRC-32("123456789") = 0xCBF43926; feed the nine ASCII bytes as
        // little-endian words (two whole words + the tail folded manually is
        // awkward, so check word-aligned vectors instead and pin them).
        assert_eq!(crc32(&[]), 0);
        // Pinned value: CRC-32 of four zero bytes is 0x2144DF1C; stability
        // here is what frame compatibility rests on.
        assert_eq!(crc32(&[0]), 0x2144_df1c);
        assert_ne!(crc32(&[1]), crc32(&[2]));
    }

    #[test]
    fn streamed_crc_equals_whole_slice_crc() {
        let words = [7u32, 0xdead_beef, 42, 0, u32::MAX];
        for split in 0..=words.len() {
            assert_eq!(
                crc32_parts(&words[..split], &words[split..]),
                crc32(&words),
                "split at {split}"
            );
        }
    }

    fn fresh() -> ReliableTransport<QueueTransport> {
        ReliableTransport::new(
            QueueTransport::new(),
            ReliableConfig::default(),
            ChannelCostModel::iprove_pci(),
        )
    }

    #[test]
    fn data_frame_roundtrip_carries_seq_and_piggybacked_ack() {
        let mut t = fresh();
        let original = Packet::new(PacketTag::Burst, vec![9, 8, 7]);
        let frame = t.encode_data(5, 3, &original);
        assert_eq!(frame.tag(), PacketTag::RelData);
        assert_eq!(
            frame.wire_words(),
            original.wire_words() + DATA_HEADER_WORDS
        );
        let (seq, ack, decoded) = t.decode_data(&frame).unwrap();
        assert_eq!(seq, 5);
        assert_eq!(ack, 3);
        assert_eq!(decoded, original);
    }

    #[test]
    fn refreshing_the_piggybacked_ack_keeps_the_frame_valid() {
        let mut t = fresh();
        let original = Packet::new(PacketTag::CycleOutputs, vec![4, 5, 6]);
        let mut frame = t.encode_data(9, 0, &original);
        ReliableTransport::<QueueTransport>::refresh_frame_ack(&mut frame, 42);
        let (seq, ack, decoded) = t.decode_data(&frame).expect("refreshed CRC must hold");
        assert_eq!(seq, 9);
        assert_eq!(ack, 42);
        assert_eq!(decoded, original);
    }

    #[test]
    fn corrupted_data_frame_rejected() {
        let mut t = fresh();
        let original = Packet::new(PacketTag::CycleOutputs, vec![1, 2]);
        let frame = t.encode_data(0, 0, &original);
        // Flip a payload bit.
        let mut words = frame.payload().to_vec();
        *words.last_mut().unwrap() ^= 1;
        let bad = Packet::new(PacketTag::RelData, words);
        assert!(t.decode_data(&bad).is_none());
        // Truncate the last word (what LossyTransport does).
        let mut words = frame.payload().to_vec();
        words.pop();
        let truncated = Packet::new(PacketTag::RelData, words);
        assert!(t.decode_data(&truncated).is_none());
        // Corrupting the piggybacked ack word is caught too.
        let mut words = frame.payload().to_vec();
        words[1] ^= 1;
        let bad_ack = Packet::new(PacketTag::RelData, words);
        assert!(t.decode_data(&bad_ack).is_none());
    }

    #[test]
    fn ack_frame_roundtrip_and_rejection() {
        let mut t = fresh();
        let ack = t.encode_ack(77);
        assert_eq!(
            ReliableTransport::<QueueTransport>::decode_ack(&ack),
            Some(77)
        );
        let mut words = ack.payload().to_vec();
        words.pop();
        let truncated = Packet::new(PacketTag::RelAck, words);
        assert_eq!(
            ReliableTransport::<QueueTransport>::decode_ack(&truncated),
            None
        );
    }

    #[test]
    fn config_validation_rejects_degenerate_knobs() {
        assert!(ReliableConfig::default().validate().is_ok());
        for (field, config) in [
            ("window", ReliableConfig::default().window(0)),
            ("retry_budget", ReliableConfig::default().retry_budget(0)),
            ("rto", ReliableConfig::default().rto(VirtualTime::ZERO)),
            (
                "poll_tick",
                ReliableConfig::default().poll_tick(VirtualTime::ZERO),
            ),
        ] {
            let err = config.validate().expect_err("must be rejected");
            assert_eq!(err.field, field, "error '{err}' should name {field}");
        }
    }

    #[test]
    #[should_panic(expected = "invalid reliable config")]
    fn constructor_panics_on_invalid_config() {
        let _ = ReliableTransport::new(
            QueueTransport::new(),
            ReliableConfig::default().window(0),
            ChannelCostModel::iprove_pci(),
        );
    }

    #[test]
    fn try_new_rejects_bad_configs_without_panicking() {
        for (field, config) in [
            ("window", ReliableConfig::default().window(0)),
            ("retry_budget", ReliableConfig::default().retry_budget(0)),
            ("rto", ReliableConfig::default().rto(VirtualTime::ZERO)),
            (
                "poll_tick",
                ReliableConfig::default().poll_tick(VirtualTime::ZERO),
            ),
        ] {
            let err = ReliableTransport::try_new(
                QueueTransport::new(),
                config,
                ChannelCostModel::iprove_pci(),
            )
            .expect_err("config must be rejected");
            assert_eq!(err.field, field, "{err}");
        }
        assert!(ReliableTransport::try_new(
            QueueTransport::new(),
            ReliableConfig::default(),
            ChannelCostModel::iprove_pci(),
        )
        .is_ok());
    }

    #[test]
    fn snapshot_restores_a_mid_window_cut_exactly() {
        use predpkt_sim::{restore_from_vec, save_to_vec};
        // Fill the window past capacity so unacked AND backlog are non-empty,
        // with an un-drained reverse direction so acks are still owed.
        let mut t = fresh();
        for i in 0..12u32 {
            t.send(
                Side::Simulator,
                Packet::new(PacketTag::CycleOutputs, vec![i]),
            );
        }
        let _ = t.recv(Side::Accelerator); // deliver one, leave the ack owed
        let state = save_to_vec(&t);

        let mut resumed = fresh();
        restore_from_vec(&mut resumed, &state).unwrap();
        assert_eq!(resumed.clock(), t.clock());
        assert_eq!(resumed.recovery_stats(), t.recovery_stats());
        assert_eq!(
            resumed.pending(Side::Accelerator),
            t.pending(Side::Accelerator)
        );

        // Both must drain identically from here: same deliveries, same stats.
        let drain = |t: &mut ReliableTransport<QueueTransport>| {
            let mut got = Vec::new();
            for _ in 0..10_000 {
                if let Some(p) = t.recv(Side::Accelerator) {
                    got.push(p.payload()[0]);
                }
                let _ = t.recv(Side::Simulator);
                if got.len() == 11 {
                    break;
                }
            }
            got
        };
        assert_eq!(drain(&mut t), drain(&mut resumed));
        assert_eq!(t.recovery_stats(), resumed.recovery_stats());
        // And re-saving is bit-equal to the state both started from… after
        // identical further traffic, both snapshots still agree.
        assert_eq!(save_to_vec(&t), save_to_vec(&resumed));
    }

    #[test]
    fn peer_death_fails_fast_with_a_typed_cause() {
        use crate::lossy::{FaultSpec, LossyTransport};
        use crate::poll::{PollReady, Readiness};
        use crate::threaded::ThreadedTransport;
        // The link is severed from frame zero: the very first data frame
        // vanishes and the medium reports itself dead. (A threaded endpoint
        // rather than a queue: readiness needs a `PollReady` medium.)
        let (sim_end, _acc_end) = ThreadedTransport::pair();
        let mut t = ReliableTransport::new(
            LossyTransport::new(sim_end, FaultSpec::disconnect_after(1, 0)),
            ReliableConfig::default(),
            ChannelCostModel::iprove_pci(),
        )
        .for_side(Side::Simulator);
        t.send(Side::Simulator, Packet::new(PacketTag::Handshake, vec![9]));
        assert!(t.pending(Side::Accelerator) > 0, "frame is outstanding");
        // One readiness probe is enough: no retry budget is burned.
        assert_eq!(t.readiness(), Readiness::Dead);
        let failure = t.failure().expect("death must be recorded");
        assert_eq!(failure.cause, TransportDead::PeerGone);
        assert_eq!(failure.seq, 0);
        assert_eq!(failure.retries, 0, "fail-fast, not budget burn");
        // Outstanding work is dropped so starvation is detectable.
        assert_eq!(t.pending(Side::Accelerator), 0);
        assert_eq!(t.readiness(), Readiness::Dead, "death is sticky");
    }

    #[test]
    fn enriched_failure_survives_a_snapshot_round_trip() {
        use crate::lossy::{FaultSpec, LossyTransport};
        use predpkt_sim::{restore_from_vec, save_to_vec};
        let lossy = || {
            ReliableTransport::new(
                LossyTransport::new(QueueTransport::new(), FaultSpec::drops(3, 1.0)),
                ReliableConfig::default().retry_budget(2),
                ChannelCostModel::iprove_pci(),
            )
        };
        let mut t = lossy();
        t.send(Side::Simulator, Packet::new(PacketTag::Handshake, vec![7]));
        let mut polls = 0;
        while t.failure().is_none() {
            assert!(polls < 100_000, "layer never gave up");
            assert!(t.recv(Side::Accelerator).is_none());
            polls += 1;
        }
        let failure = t.failure().unwrap();
        assert_eq!(failure.cause, TransportDead::BudgetExhausted);
        assert!(failure.idle > VirtualTime::ZERO, "idle time was accrued");

        let state = save_to_vec(&t);
        let mut resumed = lossy();
        restore_from_vec(&mut resumed, &state).unwrap();
        assert_eq!(resumed.failure(), Some(failure), "cause and idle survive");
        assert_eq!(save_to_vec(&resumed), state);
    }

    /// The channel side of a cut, pinned word for word by `(length,
    /// FNV-1a)`: a reliable layer over a lossy queue cut mid-window (a
    /// backlog, unacknowledged frames, deliveries not yet taken, an ack still
    /// owed and a recorded give-up), a batching channel with a parked
    /// outbox, a ledger and a random stream. Any drift is a format change.
    #[test]
    fn channel_side_words_are_pinned() {
        use crate::lossy::{FaultSpec, LossyTransport};
        use crate::transport::CostedChannel;
        use predpkt_sim::{fnv1a64, save_to_vec, CostCategory, SplitMix64, TimeLedger};
        let pin = |words: &[u64]| (words.len(), fnv1a64(words));

        let mut t = ReliableTransport::new(
            LossyTransport::new(QueueTransport::new(), FaultSpec::drops(7, 0.5)),
            ReliableConfig::default().window(4).retry_budget(1),
            ChannelCostModel::iprove_pci(),
        );
        let packet = |i: u32| Packet::new(PacketTag::CycleOutputs, vec![i, !i]);
        for i in 0..3 {
            t.send(Side::Simulator, packet(i));
        }
        while t.failure().is_none() {
            let _ = t.recv(Side::Simulator);
        }
        for i in 0..6 {
            t.send(Side::Simulator, packet(i));
        }
        for i in 0..6 {
            t.send(Side::Accelerator, packet(100 + i));
        }
        let _ = t.recv(Side::Simulator);
        let windows: Vec<_> = t
            .send
            .iter()
            .map(|s| (s.unacked.len(), s.backlog.len()))
            .collect();
        assert_eq!(windows, [(4, 2), (4, 2)], "unacked and backlogged frames");
        assert_eq!(t.recv[1].deliverable.len(), 3, "deliveries not yet taken");
        assert!(t.recv[1].ack_pending, "an ack still owed");
        assert_eq!(
            t.failure().map(|f| f.cause),
            Some(TransportDead::BudgetExhausted)
        );
        assert_eq!(pin(save_to_vec(&t).words()), (191, 0x26e7_62ee_bd2d_270d));

        let mut ch = CostedChannel::new(ChannelCostModel::iprove_pci());
        ch.set_batching(true);
        ch.send(Side::Accelerator, packet(7));
        ch.send(Side::Accelerator, packet(8));
        assert_eq!(
            ch.transport().pending(Side::Simulator),
            0,
            "the outbox is parked"
        );
        assert_eq!(pin(save_to_vec(&ch).words()), (18, 0x5326_718c_4f7e_af10));

        let mut ledger = TimeLedger::new();
        for (i, c) in CostCategory::ALL.into_iter().enumerate() {
            ledger.charge(c, VirtualTime::from_picos(1_000 + i as u64));
        }
        assert_eq!(
            save_to_vec(&ledger).words(),
            [1_000, 1_001, 1_002, 1_003, 1_004]
        );
        let mut rng = SplitMix64::new(42);
        rng.next_u64();
        assert_eq!(
            save_to_vec(&rng).words(),
            [42u64.wrapping_add(0x9e37_79b9_7f4a_7c15)]
        );
    }

    #[test]
    fn snapshot_restore_rejects_a_corrupt_direction_word() {
        use predpkt_sim::{restore_from_vec, save_to_vec};
        let mut t = fresh();
        t.send(Side::Simulator, Packet::new(PacketTag::Handshake, vec![]));
        let state = save_to_vec(&t);
        // Truncate: drop the trailing words and the restore must fail with a
        // typed, section-labeled error rather than panic.
        let truncated: predpkt_sim::StateVec =
            state.words()[..state.words().len() - 3].to_vec().into();
        let mut target = fresh();
        let err = restore_from_vec(&mut target, &truncated).unwrap_err();
        assert!(matches!(
            err,
            predpkt_sim::SnapshotError::Exhausted { .. }
                | predpkt_sim::SnapshotError::Corrupt { .. }
                | predpkt_sim::SnapshotError::TrailingWords { .. }
                | predpkt_sim::SnapshotError::InSection { .. }
        ));
    }
}
