//! The framed endpoint both real media share.
//!
//! A [`TcpEndpoint`](crate::TcpEndpoint) and a
//! [`ShmEndpoint`](crate::ShmEndpoint) are one [`FramedEndpoint`] over two
//! media. The endpoint encodes packets into the length-prefixed frames of
//! [`crate::tcp`], decodes what it reads through a [`FrameDecoder`], and keeps
//! the ready queue, the sticky first error, the peer-closed flag and the
//! [`BatchStats`]; it implements [`Transport`], [`WaitTransport`] and
//! [`PollReady`] once. A [`Medium`] only moves bytes — a non-blocking socket,
//! or a word ring in shared memory — and says how a reader waits on it.
//!
//! One rule for reading, on both media: a drain reads until a read comes back
//! short of what the medium held; [`Transport::recv`] right after this end's
//! own write skips its read, since a reply to that write cannot be there yet
//! (the next call reads); [`WaitTransport::wait_for_packet`] and
//! [`PollReady::readiness`] always read.

use crate::cost::Side;
use crate::message::Packet;
use crate::poll::{PollReady, Readiness};
use crate::tcp::{encode_frame_into, FrameDecoder, FrameError};
use crate::transport::{BatchStats, Transport, WaitTransport};
use std::collections::VecDeque;
use std::fmt;
use std::thread;
use std::time::{Duration, Instant};

/// What one read of a medium delivered.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Got {
    /// Nothing yet.
    Nothing,
    /// The peer is gone: nothing more will ever arrive.
    Closed,
    /// `len` bytes, and whether the medium may hold more right now.
    Bytes {
        /// Bytes written into the room the read was offered.
        len: usize,
        /// The read stopped short of what the medium held.
        more: bool,
    },
}

/// How bytes reach one medium and how a reader waits on it. The trait is
/// public inside a private module: the endpoint types can name it, nothing
/// outside the crate can implement it.
pub trait Medium: fmt::Debug {
    /// The medium's typed failure; the frame codec's errors convert into it.
    type Error: From<FrameError> + fmt::Debug;

    /// Refuses a frame of `wire_words` that the medium can never carry.
    fn admit(&self, _wire_words: u64) -> Result<(), Self::Error> {
        Ok(())
    }

    /// Writes `bytes`, whole frames, counting the physical writes it issues
    /// into `writes`.
    fn write_frames(&mut self, bytes: &[u8], writes: &mut u64) -> Result<(), Self::Error>;

    /// One read into `room` that does not block.
    fn try_read(&mut self, room: &mut [u8]) -> Result<Got, Self::Error>;

    /// One read into `room` that may wait up to `timeout` for bytes.
    fn read_within(&mut self, room: &mut [u8], timeout: Duration) -> Result<Got, Self::Error>;

    /// The error for a peer gone while `missing` bytes of a frame were owed.
    fn torn(missing: usize) -> Self::Error;

    /// Tells the peer this end is gone, so a waiter there wakes promptly.
    fn close(&mut self);
}

/// One side's endpoint over a medium — [`TcpEndpoint`](crate::TcpEndpoint)
/// over a socket, [`ShmEndpoint`](crate::ShmEndpoint) over a shared-memory
/// ring. `Send` whenever the medium is, so it moves to its domain's thread
/// (or lives in its domain's process), and it implements [`Transport`] and
/// [`WaitTransport`] for its own side, exactly like
/// [`ThreadedEndpoint`](crate::ThreadedEndpoint).
pub struct FramedEndpoint<M: Medium> {
    side: Side,
    pub(crate) medium: M,
    decoder: FrameDecoder,
    /// Decoded packets awaiting [`Transport::recv`].
    ready: VecDeque<Packet>,
    /// Sticky first failure: once the medium is corrupt, wedged or gone
    /// mid-frame, the endpoint delivers nothing further (starvation, which
    /// the session layer detects) and reports the cause here.
    error: Option<M::Error>,
    /// The peer is gone: end of stream, or a cleared liveness flag.
    peer_closed: bool,
    /// Reused frame-encoding scratch: a batch of sends serializes into this
    /// buffer and goes to the medium in one write, so the steady-state send
    /// path performs no heap allocation.
    wbuf: Vec<u8>,
    /// This end has written since it last read. A reply to that write
    /// cannot have arrived yet, so the next [`Transport::recv`] that finds
    /// nothing decoded skips its read (and clears this).
    wrote_since_poll: bool,
    /// Frames vs physical writes issued (the batching win, measured), and
    /// the reads paid on the receive side.
    stats: BatchStats,
}

impl<M: Medium> fmt::Debug for FramedEndpoint<M> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("FramedEndpoint")
            .field("side", &self.side)
            .field("medium", &self.medium)
            .field("ready", &self.ready.len())
            .field("error", &self.error)
            .finish_non_exhaustive()
    }
}

impl<M: Medium> FramedEndpoint<M> {
    pub(crate) fn new(side: Side, medium: M) -> Self {
        FramedEndpoint {
            side,
            medium,
            decoder: FrameDecoder::new(),
            ready: VecDeque::new(),
            error: None,
            peer_closed: false,
            wbuf: Vec::new(),
            wrote_since_poll: false,
            stats: BatchStats::default(),
        }
    }

    /// Which side this endpoint belongs to.
    pub fn side(&self) -> Side {
        self.side
    }

    /// The first failure, if the link has broken down. A sticky error means
    /// the endpoint will never deliver again; the session layer sees the
    /// resulting starvation as a deadlock.
    pub fn last_error(&self) -> Option<&M::Error> {
        self.error.as_ref()
    }

    /// True once the peer is gone (end of stream on a socket, a cleared
    /// liveness flag on a ring).
    pub fn peer_closed(&self) -> bool {
        self.peer_closed
    }

    fn record(&mut self, e: M::Error) {
        self.error.get_or_insert(e);
    }

    /// True once nothing further will ever be decoded.
    pub(crate) fn is_dead(&self) -> bool {
        self.error.is_some() || self.peer_closed
    }

    /// Hands `bytes` to the medium as they are, recording a failure as the
    /// sticky error.
    pub(crate) fn write_bytes(&mut self, bytes: &[u8]) {
        self.wrote_since_poll = true;
        if let Err(e) = self
            .medium
            .write_frames(bytes, &mut self.stats.physical_writes)
        {
            self.record(e);
        }
    }

    /// Reads whatever the medium holds right now without blocking.
    fn drain(&mut self) {
        self.wrote_since_poll = false;
        if self.is_dead() {
            return;
        }
        while self.read_once(None) {}
    }

    /// One read into the decoder's spare room — waiting up to `timeout`
    /// when one is given — decoding every frame it completes. Returns
    /// whether the medium may hold more right now.
    fn read_once(&mut self, timeout: Option<Duration>) -> bool {
        self.stats.physical_reads += 1;
        let room = self.decoder.room();
        let got = match timeout {
            None => self.medium.try_read(room),
            Some(timeout) => self.medium.read_within(room, timeout),
        };
        match got {
            Ok(Got::Bytes { len, more }) => {
                self.decoder.filled(len);
                self.decode_ready();
                return more && self.error.is_none();
            }
            Ok(Got::Nothing) => {}
            Ok(Got::Closed) => {
                self.peer_closed = true;
                if self.decoder.is_mid_frame() {
                    self.record(M::torn(self.decoder.missing_bytes()));
                }
            }
            Err(e) => self.record(e),
        }
        self.stats.empty_reads += 1;
        false
    }

    /// Moves every complete frame out of the decoder into the ready queue,
    /// recording the first codec failure.
    fn decode_ready(&mut self) {
        loop {
            match self.decoder.next_frame() {
                Ok(Some(packet)) => self.ready.push_back(packet),
                Ok(None) => return,
                Err(e) => return self.record(e.into()),
            }
        }
    }
}

// An endpoint carries **no serializable session state**: its medium lives
// outside this process's cut, so a checkpoint saves nothing and restore is a
// no-op. Frames in flight at the cut are healed by the reliable layer's
// re-armed retransmission window (duplicates are suppressed, cumulative acks
// are idempotent) — which is why sessions that need restore-exactness over
// endpoint backends run them under
// [`ReliableTransport`](crate::ReliableTransport).
predpkt_sim::declare_state! { impl<M: Medium> FramedEndpoint<M> {} }

impl<M: Medium> Transport for FramedEndpoint<M> {
    fn send(&mut self, from: Side, packet: Packet) {
        self.send_ref(from, &packet);
        self.decoder.recycle(packet.into_payload());
    }

    /// A lone send is the one-element batch.
    fn send_ref(&mut self, from: Side, packet: &Packet) {
        self.send_batch_ref(from, &mut std::iter::once(packet));
    }

    /// The sent payloads refill the decoder's pool: the next frames this
    /// end receives decode into them.
    fn send_batch(&mut self, from: Side, packets: &mut Vec<Packet>) {
        self.send_batch_ref(from, &mut packets.iter());
        for packet in packets.drain(..) {
            self.decoder.recycle(packet.into_payload());
        }
    }

    /// Encodes the whole batch into the scratch buffer and hands it to the
    /// medium in one write: one socket `write`, or one publication pass over
    /// the ring whose frames share head-counter releases.
    fn send_batch_ref(&mut self, from: Side, packets: &mut dyn Iterator<Item = &Packet>) {
        debug_assert_eq!(from, self.side, "endpoints send from their own side");
        if self.error.is_some() {
            return;
        }
        let mut wbuf = std::mem::take(&mut self.wbuf);
        wbuf.clear();
        let mut frames = 0u64;
        for packet in packets {
            if let Err(e) = self.medium.admit(packet.wire_words()) {
                // The offender is dropped with the sticky error recorded
                // (every later send is dropped too); frames already encoded
                // still go out, as they would have one by one.
                self.record(e);
                break;
            }
            encode_frame_into(&mut wbuf, packet);
            frames += 1;
        }
        if frames > 0 {
            self.stats.frames += frames;
            self.write_bytes(&wbuf);
        }
        self.wbuf = wbuf;
    }

    fn recv(&mut self, to: Side) -> Option<Packet> {
        debug_assert_eq!(to, self.side, "endpoints receive for their own side");
        if self.ready.is_empty() {
            if std::mem::take(&mut self.wrote_since_poll) {
                return None;
            }
            self.drain();
        }
        self.ready.pop_front()
    }

    /// Packets decoded locally and awaiting `recv`. Unlike
    /// [`ThreadedEndpoint`](crate::ThreadedEndpoint) there is no shared
    /// in-flight counter — the peer may be another process or host — so
    /// frames still in the medium are not counted.
    fn pending(&self, to: Side) -> usize {
        debug_assert_eq!(to, self.side, "endpoints count for their own side");
        self.ready.len()
    }

    fn batch_stats(&self) -> Option<BatchStats> {
        Some(self.stats)
    }
}

impl<M: Medium> WaitTransport for FramedEndpoint<M> {
    fn wait_for_packet(&mut self, timeout: Duration) -> bool {
        if self.ready.is_empty() {
            self.drain();
        }
        if !self.ready.is_empty() {
            return true;
        }
        if self.is_dead() {
            // Nothing will ever arrive, but returning instantly would turn
            // the caller's poll loop into a hot spin (and, under a reliable
            // wrapper, advance the RTO clock once per iteration, burning the
            // retry budget in wall-clock microseconds). Pace the caller
            // exactly like a live-but-silent link would.
            thread::sleep(timeout);
            return false;
        }
        let deadline = Instant::now() + timeout;
        while self.ready.is_empty() && !self.is_dead() {
            let left = deadline.saturating_duration_since(Instant::now());
            if left.is_zero() {
                break;
            }
            self.read_once(Some(left));
        }
        !self.ready.is_empty()
    }
}

impl<M: Medium> PollReady for FramedEndpoint<M> {
    /// One non-blocking drain (whatever the medium holds is decoded as a
    /// side effect), never a wait — the poll-set's per-source probe.
    fn readiness(&mut self) -> Readiness {
        if self.ready.is_empty() {
            self.drain();
        }
        if !self.ready.is_empty() {
            Readiness::Ready
        } else if self.is_dead() {
            Readiness::Dead
        } else {
            Readiness::Idle
        }
    }
}

impl<M: Medium> Drop for FramedEndpoint<M> {
    fn drop(&mut self) {
        self.medium.close();
    }
}

/// Test bodies both media run: `tcp::tests` and `shm::tests` call each with
/// a pair of their own.
#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::cost::{ChannelCostModel, Direction};
    use crate::message::PacketTag;
    use crate::transport::CostedChannel;

    type Pair<M> = (FramedEndpoint<M>, FramedEndpoint<M>);

    pub(crate) fn ping_pong<M: Medium + Send>((mut sim, mut acc): Pair<M>)
    where
        M::Error: Send,
    {
        thread::scope(|s| {
            s.spawn(|| {
                for _ in 0..50 {
                    while !acc.wait_for_packet(Duration::from_secs(5)) {}
                    let p = acc.recv(Side::Accelerator).unwrap();
                    let bumped: Vec<u32> = p.payload().iter().map(|w| w + 1).collect();
                    acc.send(
                        Side::Accelerator,
                        Packet::new(PacketTag::CycleOutputs, bumped),
                    );
                }
            });
            for i in 0..50u32 {
                sim.send(
                    Side::Simulator,
                    Packet::new(PacketTag::CycleOutputs, vec![i]),
                );
                while !sim.wait_for_packet(Duration::from_secs(5)) {}
                let reply = sim.recv(Side::Simulator).unwrap();
                assert_eq!(reply.payload(), &[i + 1]);
            }
        });
    }

    pub(crate) fn recv_is_nonblocking_when_empty<M: Medium>((mut sim, _acc): Pair<M>) {
        assert!(sim.recv(Side::Simulator).is_none());
        assert_eq!(sim.pending(Side::Simulator), 0);
    }

    pub(crate) fn wait_times_out_then_delivers<M: Medium>((mut sim, mut acc): Pair<M>) {
        assert!(!sim.wait_for_packet(Duration::from_millis(5)));
        acc.send(Side::Accelerator, Packet::new(PacketTag::Handshake, vec![]));
        assert!(sim.wait_for_packet(Duration::from_secs(5)));
        assert_eq!(
            sim.recv(Side::Simulator).unwrap().tag(),
            PacketTag::Handshake
        );
    }

    pub(crate) fn fifo_order_preserved<M: Medium>((mut sim, mut acc): Pair<M>) {
        for i in 0..100u32 {
            sim.send(
                Side::Simulator,
                Packet::new(PacketTag::Burst, vec![i; (i % 7) as usize]),
            );
        }
        for i in 0..100u32 {
            while !acc.wait_for_packet(Duration::from_secs(5)) {}
            let p = acc.recv(Side::Accelerator).unwrap();
            assert_eq!(p.payload(), vec![i; (i % 7) as usize].as_slice());
        }
    }

    pub(crate) fn costed_endpoint_bills_like_any_transport<M: Medium>(
        (sim_end, mut acc_end): Pair<M>,
    ) {
        let mut sim = CostedChannel::with_transport(sim_end, ChannelCostModel::iprove_pci());
        let cost = sim.send(Side::Simulator, Packet::new(PacketTag::Burst, vec![0; 9]));
        assert_eq!(
            cost,
            ChannelCostModel::iprove_pci().access_cost(Direction::SimToAcc, 10)
        );
        while !acc_end.wait_for_packet(Duration::from_secs(5)) {}
        assert_eq!(acc_end.recv(Side::Accelerator).unwrap().payload().len(), 9);
    }

    pub(crate) fn a_recv_right_after_a_send_skips_the_read<M: Medium>((mut sim, mut acc): Pair<M>) {
        acc.send(Side::Accelerator, Packet::new(PacketTag::Handshake, vec![]));
        sim.send(
            Side::Simulator,
            Packet::new(PacketTag::CycleOutputs, vec![1]),
        );
        let before = sim.batch_stats().unwrap();
        assert!(sim.recv(Side::Simulator).is_none(), "no read, no packet");
        assert_eq!(sim.batch_stats().unwrap(), before, "not one read issued");
        let deadline = Instant::now() + Duration::from_secs(5);
        let got = loop {
            if let Some(p) = sim.recv(Side::Simulator) {
                break p;
            }
            assert!(Instant::now() < deadline, "never delivered");
            thread::sleep(Duration::from_millis(1));
        };
        assert_eq!(got.tag(), PacketTag::Handshake);
        assert!(sim.batch_stats().unwrap().physical_reads > before.physical_reads);
        // A wait still reads after a write: another thread may be replying.
        sim.send(
            Side::Simulator,
            Packet::new(PacketTag::CycleOutputs, vec![2]),
        );
        acc.send(
            Side::Accelerator,
            Packet::new(PacketTag::ReportSuccess, vec![]),
        );
        assert!(sim.wait_for_packet(Duration::from_secs(5)));
        assert_eq!(
            sim.recv(Side::Simulator).unwrap().tag(),
            PacketTag::ReportSuccess
        );
    }
}
