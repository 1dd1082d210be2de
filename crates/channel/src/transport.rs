//! Transports and the costed channel facade.

use crate::cost::{ChannelCostModel, Side};
use crate::lossy::FaultStats;
use crate::message::Packet;
use crate::poll::{PollReady, Readiness};
use crate::reliable::{RecoveryStats, RetryExhausted};
use crate::stats::ChannelStats;
use predpkt_sim::{Codec, List, Snapshot, SnapshotError, StateReader, StateWriter, VirtualTime};
use std::collections::VecDeque;
use std::time::Duration;

/// Physical-operation counters of a batching transport.
///
/// Backends that coalesce frames — one socket write or one ring publication
/// carrying several frames — report how many logical frames rode how many
/// physical operations, so benches and the observer stream can show the
/// batching win directly, and how many physical reads the receive side
/// paid for them. Backends with no physical medium (the in-process queues)
/// report nothing.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BatchStats {
    /// Logical frames handed to the physical medium.
    pub frames: u64,
    /// Physical operations issued (socket writes, ring head publications).
    pub physical_writes: u64,
    /// Physical reads issued: socket `read`s; on a ring, looks at the head
    /// (each copying out at most one chunk). A wait counts as one read, on
    /// a ring however long it spins.
    pub physical_reads: u64,
    /// The physical reads that delivered nothing: a socket `read` that
    /// returned `EAGAIN`, timed out or hit end of stream; a ring found empty
    /// or its peer gone. A ping-pong over either medium needs one read per
    /// write and none of these.
    pub empty_reads: u64,
}

impl BatchStats {
    /// Mean frames carried per physical operation (`None` before the first
    /// write). 1.0 means no coalescing happened; higher is better.
    pub fn frames_per_write(&self) -> Option<f64> {
        (self.physical_writes > 0).then(|| self.frames as f64 / self.physical_writes as f64)
    }

    /// Merges another block into this one (per-side endpoints).
    pub fn merge(&mut self, other: &BatchStats) {
        self.frames += other.frames;
        self.physical_writes += other.physical_writes;
        self.physical_reads += other.physical_reads;
        self.empty_reads += other.empty_reads;
    }
}

/// Message-passing between the two co-emulation domains.
///
/// A transport is *only* a mailbox: ordering is FIFO per direction, sends never
/// block, and receives return `None` when no message is pending (the caller — the
/// channel-wrapper state machine — models blocking by yielding to the peer
/// domain). Costing and statistics live in [`CostedChannel`].
///
/// The batch hooks ([`send_batch`](Self::send_batch),
/// [`send_batch_ref`](Self::send_batch_ref)) default to sequential sends, so
/// every implementation is batch-correct by
/// construction; backends with a physical write concept override them to
/// coalesce — the delivered packet sequence **must** stay bit-identical to
/// the sequential path (the cross-transport conformance harness asserts it).
pub trait Transport {
    /// Enqueues `packet` from `from` toward its peer.
    fn send(&mut self, from: Side, packet: Packet);

    /// Dequeues the next packet addressed to `to`, if any.
    fn recv(&mut self, to: Side) -> Option<Packet>;

    /// Number of packets currently queued toward `to`.
    fn pending(&self, to: Side) -> usize;

    /// Sends `packet` by reference. Serializing backends (socket, ring)
    /// override this to encode straight off the borrow; the default clones
    /// for backends that must own the packet (in-process queues).
    fn send_ref(&mut self, from: Side, packet: &Packet) {
        self.send(from, packet.clone());
    }

    /// Sends every packet in `packets` (drained, preserving order) from
    /// `from`. Override to coalesce the batch into one physical operation.
    fn send_batch(&mut self, from: Side, packets: &mut Vec<Packet>) {
        for packet in packets.drain(..) {
            self.send(from, packet);
        }
    }

    /// Sends a sequence of borrowed packets from `from`, preserving order.
    /// The by-reference sibling of [`send_batch`](Self::send_batch), for
    /// callers that must keep the packets (retransmission windows).
    fn send_batch_ref(&mut self, from: Side, packets: &mut dyn Iterator<Item = &Packet>) {
        for packet in packets {
            self.send_ref(from, packet);
        }
    }

    /// Physical-write efficiency counters, for backends that coalesce frames
    /// (`None` when the backend has no physical write concept). Wrappers
    /// forward their inner transport's counters.
    fn batch_stats(&self) -> Option<BatchStats> {
        None
    }

    /// Faults injected so far, when a fault-injecting layer sits anywhere in
    /// this stack (`None` otherwise). Wrappers forward their inner
    /// transport's counters, like [`batch_stats`](Self::batch_stats).
    fn fault_stats(&self) -> Option<FaultStats> {
        None
    }

    /// Recovery counters, when a reliability layer sits anywhere in this
    /// stack (`None` otherwise). Wrappers forward.
    fn recovery_stats(&self) -> Option<RecoveryStats> {
        None
    }

    /// The first frame a reliability layer in this stack gave up on, if any
    /// (`None` without such a layer). Wrappers forward.
    fn failure(&self) -> Option<RetryExhausted> {
        None
    }
}

/// A boxed transport is the transport it holds — every hook forwarded, so a
/// type-erased `Box<dyn Transport>` keeps the inner backend's coalescing
/// overrides and counters.
impl<T: Transport + ?Sized> Transport for Box<T> {
    fn send(&mut self, from: Side, packet: Packet) {
        (**self).send(from, packet);
    }

    fn recv(&mut self, to: Side) -> Option<Packet> {
        (**self).recv(to)
    }

    fn pending(&self, to: Side) -> usize {
        (**self).pending(to)
    }

    fn send_ref(&mut self, from: Side, packet: &Packet) {
        (**self).send_ref(from, packet);
    }

    fn send_batch(&mut self, from: Side, packets: &mut Vec<Packet>) {
        (**self).send_batch(from, packets);
    }

    fn send_batch_ref(&mut self, from: Side, packets: &mut dyn Iterator<Item = &Packet>) {
        (**self).send_batch_ref(from, packets);
    }

    fn batch_stats(&self) -> Option<BatchStats> {
        (**self).batch_stats()
    }

    fn fault_stats(&self) -> Option<FaultStats> {
        (**self).fault_stats()
    }

    fn recovery_stats(&self) -> Option<RecoveryStats> {
        (**self).recovery_stats()
    }

    fn failure(&self) -> Option<RetryExhausted> {
        (**self).failure()
    }
}

/// A [`Transport`] whose receiving end can block awaiting the next packet —
/// the capability a domain running in its own thread or process needs so it
/// can sleep while blocked instead of spinning. Implemented by
/// [`ThreadedEndpoint`](crate::ThreadedEndpoint) and forwarded by wrappers
/// such as [`ReliableTransport`](crate::ReliableTransport), which also use the
/// wakeup to pump their retransmission timers.
pub trait WaitTransport: Transport {
    /// Blocks until a packet addressed to this endpoint's side is available
    /// or `timeout` elapses. Returns `true` if a subsequent
    /// [`recv`](Transport::recv) may yield a packet.
    fn wait_for_packet(&mut self, timeout: Duration) -> bool;
}

impl<T: WaitTransport + ?Sized> WaitTransport for Box<T> {
    fn wait_for_packet(&mut self, timeout: Duration) -> bool {
        (**self).wait_for_packet(timeout)
    }
}

/// Deterministic in-process transport: two FIFO queues.
///
/// This is the transport used by the single-threaded co-emulation orchestrator;
/// it makes every run exactly reproducible.
///
/// # Example
///
/// ```
/// use predpkt_channel::{Packet, PacketTag, QueueTransport, Side, Transport};
/// let mut t = QueueTransport::new();
/// t.send(Side::Simulator, Packet::new(PacketTag::Handshake, vec![]));
/// assert_eq!(t.pending(Side::Accelerator), 1);
/// let p = t.recv(Side::Accelerator).unwrap();
/// assert_eq!(p.tag(), PacketTag::Handshake);
/// ```
#[derive(Debug, Default)]
pub struct QueueTransport {
    to_acc: VecDeque<Packet>,
    to_sim: VecDeque<Packet>,
}

impl QueueTransport {
    /// Creates an empty transport.
    pub fn new() -> Self {
        Self::default()
    }

    fn queue_toward(&mut self, side: Side) -> &mut VecDeque<Packet> {
        match side {
            Side::Simulator => &mut self.to_sim,
            Side::Accelerator => &mut self.to_acc,
        }
    }
}

impl Transport for QueueTransport {
    fn send(&mut self, from: Side, packet: Packet) {
        self.queue_toward(from.peer()).push_back(packet);
    }

    fn recv(&mut self, to: Side) -> Option<Packet> {
        self.queue_toward(to).pop_front()
    }

    fn pending(&self, to: Side) -> usize {
        match to {
            Side::Simulator => self.to_sim.len(),
            Side::Accelerator => self.to_acc.len(),
        }
    }
}

impl PollReady for QueueTransport {
    fn readiness(&mut self) -> Readiness {
        if self.to_acc.is_empty() && self.to_sim.is_empty() {
            Readiness::Idle
        } else {
            Readiness::Ready
        }
    }
}

// Both FIFO queues, in-flight packets included — an in-process medium is
// part of the session state, so a checkpoint captures it exactly.
predpkt_sim::declare_state! { impl QueueTransport { to_acc: List, to_sim: List } }

/// A transport wrapped with the [`ChannelCostModel`] and [`ChannelStats`].
///
/// Every [`send`](CostedChannel::send) charges `startup + wire_words × per_word`
/// and returns the cost so the caller can bill its time ledger; every access is
/// recorded in the statistics. This is the channel object the co-emulator holds.
///
/// # Example
///
/// ```
/// use predpkt_channel::{ChannelCostModel, CostedChannel, Packet, PacketTag, Side};
/// let mut ch = CostedChannel::new(ChannelCostModel::iprove_pci());
/// let cost = ch.send(Side::Accelerator, Packet::new(PacketTag::Burst, vec![0; 63]));
/// // 12.2 us startup + 64 wire words (tag + 63) * 75.73 ns
/// assert_eq!(cost.as_picos(), 12_200_000 + 64 * 75_730);
/// assert!(ch.recv(Side::Simulator).is_some());
/// ```
#[derive(Debug)]
pub struct CostedChannel<T = QueueTransport> {
    transport: T,
    cost_model: ChannelCostModel,
    stats: ChannelStats,
    /// When set, sends are billed immediately but parked in the outbox until
    /// [`flush`](Self::flush) (or the next receive) pushes them to the
    /// transport as one batch — the per-scheduling-slice coalescing the
    /// per-side session engine uses. Billing order and amounts are identical
    /// to the unbatched path, so statistics and ledgers cannot diverge.
    batching: bool,
    outbox: Vec<Packet>,
    outbox_from: Option<Side>,
}

impl CostedChannel<QueueTransport> {
    /// Creates a costed channel over a fresh [`QueueTransport`].
    pub fn new(cost_model: ChannelCostModel) -> Self {
        Self::with_transport(QueueTransport::new(), cost_model)
    }
}

impl<T: Transport> CostedChannel<T> {
    /// Wraps an existing transport with a cost model.
    pub fn with_transport(transport: T, cost_model: ChannelCostModel) -> Self {
        CostedChannel {
            transport,
            cost_model,
            stats: ChannelStats::new(),
            batching: false,
            outbox: Vec::new(),
            outbox_from: None,
        }
    }

    /// Enables or disables outbox batching (disabled by default). While
    /// enabled, sends are parked until [`flush`](Self::flush) — which every
    /// [`recv`](Self::recv) performs first, so a caller that sends then polls
    /// can never starve its peer. Disabling flushes whatever is parked.
    pub fn set_batching(&mut self, batching: bool) {
        self.batching = batching;
        if !batching {
            self.flush();
        }
    }

    /// Pushes every parked packet to the transport as one
    /// [`Transport::send_batch`]. A no-op when the outbox is empty.
    pub fn flush(&mut self) {
        if self.outbox.is_empty() {
            return;
        }
        let from = self
            .outbox_from
            .expect("a non-empty outbox records its sender");
        self.transport.send_batch(from, &mut self.outbox);
    }

    /// Sends `packet` from `from`, returning the virtual-time cost of the access.
    pub fn send(&mut self, from: Side, packet: Packet) -> VirtualTime {
        let direction = from.outbound();
        let words = packet.wire_words();
        let cost = self.cost_model.access_cost(direction, words);
        self.stats.record(direction, words, cost);
        if self.batching {
            if self.outbox_from != Some(from) {
                // A new sender (shared-mailbox usage): flush the old side's
                // packets first so per-direction FIFO order is preserved.
                self.flush();
                self.outbox_from = Some(from);
            }
            self.outbox.push(packet);
        } else {
            self.transport.send(from, packet);
        }
        cost
    }

    /// Bills `words` of control payload piggybacked on an access already
    /// sent from `from` (e.g. adaptive-suite strategy epochs riding a burst
    /// flush). No packet moves and no access is counted: the words are
    /// charged at the per-word rate only, and the returned cost is what the
    /// caller should add to its virtual-time ledger.
    pub fn bill_control(&mut self, from: Side, words: u64) -> VirtualTime {
        let direction = from.outbound();
        let cost = self.cost_model.per_word(direction) * words;
        self.stats.record_piggyback(direction, words, cost);
        cost
    }

    /// Receives the next packet addressed to `to`, if any. Parked sends are
    /// flushed first, so a send-then-poll caller cannot deadlock its peer.
    ///
    /// Receiving is free: the access was billed on the send side (the paper's
    /// model bills each channel access exactly once).
    pub fn recv(&mut self, to: Side) -> Option<Packet> {
        self.flush();
        self.transport.recv(to)
    }

    /// The transport's physical-write efficiency counters, when it batches.
    pub fn batch_stats(&self) -> Option<BatchStats> {
        self.transport.batch_stats()
    }

    /// Number of packets pending toward `to`.
    pub fn pending(&self, to: Side) -> usize {
        self.transport.pending(to)
    }

    /// The accumulated statistics.
    pub fn stats(&self) -> &ChannelStats {
        &self.stats
    }

    /// The cost model in force.
    pub fn cost_model(&self) -> &ChannelCostModel {
        &self.cost_model
    }

    /// Shared access to the inner transport.
    pub fn transport(&self) -> &T {
        &self.transport
    }

    /// Exclusive access to the inner transport (e.g. to wait on a
    /// [`ThreadedEndpoint`](crate::ThreadedEndpoint) or inspect
    /// [`LossyTransport`](crate::LossyTransport) fault counters).
    pub fn transport_mut(&mut self) -> &mut T {
        &mut self.transport
    }
}

/// The parked outbox's sender as one word: 0 for none, 1 for the
/// simulator, 2 for the accelerator.
struct SenderWord;

impl Codec<Option<Side>> for SenderWord {
    fn save(from: &Option<Side>, w: &mut StateWriter<'_>) {
        w.u32(match from {
            None => 0,
            Some(Side::Simulator) => 1,
            Some(Side::Accelerator) => 2,
        });
    }

    fn restore(from: &mut Option<Side>, r: &mut StateReader<'_>) -> Result<(), SnapshotError> {
        let at = r.position();
        *from = match r.word()? {
            0 => None,
            1 => Some(Side::Simulator),
            2 => Some(Side::Accelerator),
            _ => return Err(r.corrupt_at(at)),
        };
        Ok(())
    }

    fn saved_len(_: &Option<Side>) -> usize {
        1
    }
}

// Statistics, the parked outbox, and the inner transport — everything that
// distinguishes two mid-run channels sharing a cost model. The cost model
// itself is configuration and stays with the live instance. A parked packet
// with no sender is refused at the sender word: `flush` could never say whose
// packets these are.
predpkt_sim::declare_state! {
    impl<T: Snapshot> CostedChannel<T> {
        stats,
        outbox_from: SenderWord,
        outbox: List => |this, at| match this.outbox_from {
            None if !this.outbox.is_empty() => Err(at - 1),
            _ => Ok(()),
        },
        transport,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::Direction;
    use crate::message::PacketTag;

    fn pkt(n: usize) -> Packet {
        Packet::new(PacketTag::CycleOutputs, vec![0; n])
    }

    #[test]
    fn queue_fifo_order_per_direction() {
        let mut t = QueueTransport::new();
        t.send(
            Side::Simulator,
            Packet::new(PacketTag::CycleOutputs, vec![1]),
        );
        t.send(
            Side::Simulator,
            Packet::new(PacketTag::CycleOutputs, vec![2]),
        );
        t.send(
            Side::Accelerator,
            Packet::new(PacketTag::CycleOutputs, vec![3]),
        );
        assert_eq!(t.pending(Side::Accelerator), 2);
        assert_eq!(t.pending(Side::Simulator), 1);
        assert_eq!(t.recv(Side::Accelerator).unwrap().payload(), &[1]);
        assert_eq!(t.recv(Side::Accelerator).unwrap().payload(), &[2]);
        assert_eq!(t.recv(Side::Accelerator), None);
        assert_eq!(t.recv(Side::Simulator).unwrap().payload(), &[3]);
    }

    #[test]
    fn costed_send_charges_wire_words() {
        let mut ch = CostedChannel::new(ChannelCostModel::iprove_pci());
        let cost = ch.send(Side::Simulator, pkt(4)); // 5 wire words
        assert_eq!(
            cost,
            ChannelCostModel::iprove_pci().access_cost(Direction::SimToAcc, 5)
        );
        assert_eq!(ch.stats().accesses(Direction::SimToAcc), 1);
        assert_eq!(ch.stats().words(Direction::SimToAcc), 5);
        assert_eq!(ch.stats().time(Direction::SimToAcc), cost);
    }

    #[test]
    fn bill_control_adds_words_and_time_but_no_access() {
        let mut ch = CostedChannel::new(ChannelCostModel::iprove_pci());
        ch.send(Side::Simulator, pkt(4)); // 5 wire words, 1 access
        let before_words = ch.stats().words(Direction::SimToAcc);
        let cost = ch.bill_control(Side::Simulator, 3);
        assert_eq!(
            cost,
            ChannelCostModel::iprove_pci().per_word(Direction::SimToAcc) * 3
        );
        assert_eq!(ch.stats().accesses(Direction::SimToAcc), 1, "no new access");
        assert_eq!(ch.stats().words(Direction::SimToAcc), before_words + 3);
        assert_eq!(ch.recv(Side::Accelerator).unwrap().payload().len(), 4);
        assert_eq!(ch.recv(Side::Accelerator), None, "no packet was created");
    }

    #[test]
    fn recv_is_free_and_delivers() {
        let mut ch = CostedChannel::new(ChannelCostModel::iprove_pci());
        ch.send(Side::Accelerator, pkt(2));
        let before = ch.stats().clone();
        let got = ch.recv(Side::Simulator).unwrap();
        assert_eq!(got.payload().len(), 2);
        assert_eq!(ch.stats(), &before, "recv must not change statistics");
        assert_eq!(ch.recv(Side::Simulator), None);
    }

    #[test]
    fn directions_are_independent() {
        let mut ch = CostedChannel::new(ChannelCostModel::iprove_pci());
        ch.send(Side::Simulator, pkt(0));
        ch.send(Side::Accelerator, pkt(0));
        assert_eq!(ch.stats().accesses(Direction::SimToAcc), 1);
        assert_eq!(ch.stats().accesses(Direction::AccToSim), 1);
        assert!(ch.recv(Side::Simulator).is_some());
        assert!(ch.recv(Side::Accelerator).is_some());
    }

    #[test]
    fn conventional_cycle_cost_matches_paper_baseline() {
        // Two accesses per cycle (2 payload words forward, 1 back) plus tag words
        // is the configuration that reproduces the paper's 38.9 kcycles/s
        // conventional figure within a few percent.
        let mut ch = CostedChannel::new(ChannelCostModel::iprove_pci());
        let c1 = ch.send(Side::Simulator, pkt(2));
        let c2 = ch.send(Side::Accelerator, pkt(1));
        let per_cycle = (c1 + c2).as_secs_f64() + 1.0e-6 + 0.1e-6; // + Tsim + Tacc
        let perf = 1.0 / per_cycle;
        assert!((perf - 38_900.0).abs() < 500.0, "perf = {perf}");
    }

    #[test]
    fn batched_sends_bill_identically_and_deliver_on_flush() {
        let mut plain = CostedChannel::new(ChannelCostModel::iprove_pci());
        let mut batched = CostedChannel::new(ChannelCostModel::iprove_pci());
        batched.set_batching(true);
        for i in 0..5usize {
            let c1 = plain.send(Side::Simulator, pkt(i));
            let c2 = batched.send(Side::Simulator, pkt(i));
            assert_eq!(c1, c2, "billing must not depend on batching");
        }
        assert_eq!(plain.stats(), batched.stats());
        assert_eq!(
            batched.transport().pending(Side::Accelerator),
            0,
            "parked until flush"
        );
        batched.flush();
        assert_eq!(batched.transport().pending(Side::Accelerator), 5);
        for i in 0..5usize {
            assert_eq!(
                batched.recv(Side::Accelerator).unwrap().payload().len(),
                i,
                "order preserved"
            );
        }
    }

    #[test]
    fn batched_recv_flushes_first() {
        let mut ch = CostedChannel::new(ChannelCostModel::iprove_pci());
        ch.set_batching(true);
        ch.send(Side::Simulator, pkt(1));
        // The packet is parked, but a receive pushes it out before polling —
        // so a peer polling through the same channel sees it.
        assert!(ch.recv(Side::Accelerator).is_some());
    }

    #[test]
    fn disabling_batching_flushes() {
        let mut ch = CostedChannel::new(ChannelCostModel::iprove_pci());
        ch.set_batching(true);
        ch.send(Side::Simulator, pkt(2));
        ch.set_batching(false);
        assert_eq!(ch.transport().pending(Side::Accelerator), 1);
    }

    #[test]
    fn default_batch_hooks_match_sequential_sends() {
        let mut sequential = QueueTransport::new();
        let mut batched = QueueTransport::new();
        let packets: Vec<Packet> = (0..7)
            .map(|i| Packet::new(PacketTag::CycleOutputs, vec![i; i as usize % 4]))
            .collect();
        for p in &packets {
            sequential.send(Side::Simulator, p.clone());
        }
        let mut owned = packets.clone();
        batched.send_batch(Side::Simulator, &mut owned);
        assert!(owned.is_empty(), "send_batch drains its input");
        let delivered = |t: &mut QueueTransport| -> Vec<Packet> {
            std::iter::from_fn(|| t.recv(Side::Accelerator)).collect()
        };
        assert_eq!(delivered(&mut sequential), packets);
        assert_eq!(delivered(&mut batched), packets);
    }

    #[test]
    fn restore_refuses_a_parked_outbox_with_no_sender() {
        let mut ch = CostedChannel::new(ChannelCostModel::iprove_pci());
        ch.set_batching(true);
        ch.send(Side::Simulator, pkt(3));
        let good = predpkt_sim::save_to_vec(&ch);
        // Six statistics words, then the sender word (1 = simulator), then
        // the parked count (1).
        const SENDER: usize = 6;
        assert_eq!(good.words()[SENDER..SENDER + 2], [1, 1]);
        let mut words = good.words().to_vec();
        words[SENDER] = 0;
        let bad = predpkt_sim::StateVec::from(words);

        let mut fresh = CostedChannel::new(ChannelCostModel::iprove_pci());
        fresh.set_batching(true);
        assert_eq!(
            predpkt_sim::restore_from_vec(&mut fresh, &bad),
            Err(predpkt_sim::SnapshotError::Corrupt { at: SENDER })
        );
        // A good blob still restores into the same channel, and the parked
        // packet goes out on the next receive.
        predpkt_sim::restore_from_vec(&mut fresh, &good).expect("good blob restores");
        assert_eq!(fresh.stats(), ch.stats());
        assert_eq!(fresh.recv(Side::Accelerator).unwrap().payload().len(), 3);
    }

    #[test]
    fn batch_stats_default_is_none() {
        assert_eq!(QueueTransport::new().batch_stats(), None);
        let merged = {
            let mut s = BatchStats {
                frames: 3,
                physical_writes: 1,
                physical_reads: 2,
                empty_reads: 1,
            };
            s.merge(&BatchStats {
                frames: 5,
                physical_writes: 1,
                physical_reads: 1,
                empty_reads: 0,
            });
            s
        };
        assert_eq!(merged.frames, 8);
        assert_eq!(merged.physical_writes, 2);
        assert_eq!(merged.physical_reads, 3);
        assert_eq!(merged.empty_reads, 1);
        assert_eq!(merged.frames_per_write(), Some(4.0));
        assert_eq!(BatchStats::default().frames_per_write(), None);
    }
}
