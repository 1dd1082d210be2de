//! Real-thread transport built on `std::sync::mpsc`.
//!
//! The deterministic [`QueueTransport`](crate::QueueTransport) is what the
//! single-threaded evaluation uses; this module provides an equivalent
//! transport whose two ends live on different OS threads, so the conservative
//! protocol can be exercised with genuine concurrency (stress-testing the
//! protocol's freedom from cross-domain ordering assumptions).
//!
//! Each [`ThreadedEndpoint`] implements [`Transport`] for *its own side*, so it
//! slots straight into a per-side [`CostedChannel`](crate::CostedChannel):
//!
//! ```
//! use predpkt_channel::{ChannelCostModel, CostedChannel, Packet, PacketTag, Side, Transport};
//! let (sim_end, acc_end) = predpkt_channel::ThreadedTransport::pair();
//! let mut sim = CostedChannel::with_transport(sim_end, ChannelCostModel::iprove_pci());
//! let mut acc = CostedChannel::with_transport(acc_end, ChannelCostModel::iprove_pci());
//! sim.send(Side::Simulator, Packet::new(PacketTag::Handshake, vec![]));
//! assert_eq!(acc.recv(Side::Accelerator).unwrap().tag(), PacketTag::Handshake);
//! ```

use crate::cost::Side;
use crate::message::Packet;
use crate::transport::{Transport, WaitTransport};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc::{channel, Receiver, RecvTimeoutError, Sender, TryRecvError};
use std::sync::Arc;
use std::time::Duration;

/// Constructor for a pair of thread-safe channel endpoints.
#[derive(Debug)]
pub struct ThreadedTransport;

impl ThreadedTransport {
    /// Creates the two endpoints of a threaded channel. Each endpoint is
    /// `Send` and moves to its domain's thread; costing and statistics are
    /// added per side by wrapping each endpoint in a
    /// [`CostedChannel`](crate::CostedChannel).
    pub fn pair() -> (ThreadedEndpoint, ThreadedEndpoint) {
        let (sim_tx, sim_rx) = channel::<Packet>(); // toward accelerator
        let (acc_tx, acc_rx) = channel::<Packet>(); // toward simulator
        let to_sim = Arc::new(AtomicUsize::new(0));
        let to_acc = Arc::new(AtomicUsize::new(0));
        let sim_end = ThreadedEndpoint {
            side: Side::Simulator,
            tx: sim_tx,
            rx: acc_rx,
            buf: VecDeque::new(),
            to_sim: Arc::clone(&to_sim),
            to_acc: Arc::clone(&to_acc),
        };
        let acc_end = ThreadedEndpoint {
            side: Side::Accelerator,
            tx: acc_tx,
            rx: sim_rx,
            buf: VecDeque::new(),
            to_sim,
            to_acc,
        };
        (sim_end, acc_end)
    }
}

/// One end of a [`ThreadedTransport`]; `Send` so it can move to a worker
/// thread. Implements [`Transport`] for the side it belongs to.
#[derive(Debug)]
pub struct ThreadedEndpoint {
    side: Side,
    tx: Sender<Packet>,
    rx: Receiver<Packet>,
    /// Packets pulled off `rx` by [`wait_for_packet`](Self::wait_for_packet)
    /// but not yet consumed through [`Transport::recv`].
    buf: VecDeque<Packet>,
    /// Packets in flight toward the simulator (shared with the peer).
    to_sim: Arc<AtomicUsize>,
    /// Packets in flight toward the accelerator (shared with the peer).
    to_acc: Arc<AtomicUsize>,
}

impl ThreadedEndpoint {
    /// Which side this endpoint belongs to.
    pub fn side(&self) -> Side {
        self.side
    }

    fn counter(&self, toward: Side) -> &AtomicUsize {
        match toward {
            Side::Simulator => &self.to_sim,
            Side::Accelerator => &self.to_acc,
        }
    }

    /// Blocks until a packet addressed to this endpoint is available or
    /// `timeout` elapses. Returns `true` if a packet is ready for
    /// [`Transport::recv`]; `false` on timeout or when the peer has been
    /// dropped with the queue drained.
    pub fn wait_for_packet(&mut self, timeout: Duration) -> bool {
        if !self.buf.is_empty() {
            return true;
        }
        match self.rx.recv_timeout(timeout) {
            Ok(p) => {
                self.buf.push_back(p);
                true
            }
            Err(RecvTimeoutError::Timeout) | Err(RecvTimeoutError::Disconnected) => false,
        }
    }

    /// Blocking receive; `None` once the peer has been dropped and the queue
    /// is drained.
    pub fn recv_blocking(&mut self) -> Option<Packet> {
        if let Some(p) = self.buf.pop_front() {
            self.counter(self.side).fetch_sub(1, Ordering::AcqRel);
            return Some(p);
        }
        let p = self.rx.recv().ok()?;
        self.counter(self.side).fetch_sub(1, Ordering::AcqRel);
        Some(p)
    }
}

// A socket-like endpoint carries **no serializable session state**: its
// medium (the peer's channel) lives outside this process's cut, so a
// checkpoint saves nothing and restore is a no-op. Frames in flight at the
// cut are healed by the reliable layer's re-armed retransmission window
// (duplicates are suppressed, cumulative acks are idempotent) — which is why
// sessions that need restore-exactness over endpoint backends run them under
// [`ReliableTransport`](crate::ReliableTransport).
predpkt_sim::declare_state! { impl ThreadedEndpoint {} }

impl Transport for ThreadedEndpoint {
    fn send(&mut self, from: Side, packet: Packet) {
        debug_assert_eq!(from, self.side, "endpoints send from their own side");
        self.counter(from.peer()).fetch_add(1, Ordering::AcqRel);
        if self.tx.send(packet).is_err() {
            // Peer dropped: the packet is lost on the floor, exactly like a
            // physical channel with no receiver. Undo the in-flight count.
            self.counter(from.peer()).fetch_sub(1, Ordering::AcqRel);
        }
    }

    fn recv(&mut self, to: Side) -> Option<Packet> {
        debug_assert_eq!(to, self.side, "endpoints receive for their own side");
        if let Some(p) = self.buf.pop_front() {
            self.counter(to).fetch_sub(1, Ordering::AcqRel);
            return Some(p);
        }
        match self.rx.try_recv() {
            Ok(p) => {
                self.counter(to).fetch_sub(1, Ordering::AcqRel);
                Some(p)
            }
            Err(TryRecvError::Empty) | Err(TryRecvError::Disconnected) => None,
        }
    }

    fn pending(&self, to: Side) -> usize {
        self.counter(to).load(Ordering::Acquire)
    }
}

impl WaitTransport for ThreadedEndpoint {
    fn wait_for_packet(&mut self, timeout: Duration) -> bool {
        ThreadedEndpoint::wait_for_packet(self, timeout)
    }
}

impl crate::poll::PollReady for ThreadedEndpoint {
    /// One `try_recv` (parked into the wait buffer on success) — the
    /// poll-set's per-source probe. A disconnected sender with the queue
    /// drained is a dead source: nothing will ever arrive.
    fn readiness(&mut self) -> crate::poll::Readiness {
        if !self.buf.is_empty() {
            return crate::poll::Readiness::Ready;
        }
        match self.rx.try_recv() {
            Ok(p) => {
                self.buf.push_back(p);
                crate::poll::Readiness::Ready
            }
            Err(TryRecvError::Empty) => crate::poll::Readiness::Idle,
            Err(TryRecvError::Disconnected) => crate::poll::Readiness::Dead,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::{ChannelCostModel, Direction};
    use crate::message::PacketTag;
    use crate::transport::CostedChannel;
    use std::thread;

    #[test]
    fn ping_pong_across_threads() {
        let (mut sim, mut acc) = ThreadedTransport::pair();
        let worker = thread::spawn(move || {
            // Accelerator thread: echo payloads back incremented.
            for _ in 0..100 {
                let p = acc.recv_blocking().unwrap();
                let bumped: Vec<u32> = p.payload().iter().map(|w| w + 1).collect();
                acc.send(
                    Side::Accelerator,
                    Packet::new(PacketTag::CycleOutputs, bumped),
                );
            }
        });
        for i in 0..100u32 {
            sim.send(
                Side::Simulator,
                Packet::new(PacketTag::CycleOutputs, vec![i]),
            );
            let reply = sim.recv_blocking().unwrap();
            assert_eq!(reply.payload(), &[i + 1]);
        }
        worker.join().unwrap();
        assert_eq!(sim.pending(Side::Simulator), 0);
        assert_eq!(sim.pending(Side::Accelerator), 0);
    }

    #[test]
    fn costed_endpoints_record_per_side_stats() {
        let (sim_end, mut acc_end) = ThreadedTransport::pair();
        let mut sim = CostedChannel::with_transport(sim_end, ChannelCostModel::iprove_pci());
        let cost = sim.send(Side::Simulator, Packet::new(PacketTag::Burst, vec![0; 9]));
        assert_eq!(
            cost,
            ChannelCostModel::iprove_pci().access_cost(Direction::SimToAcc, 10)
        );
        assert_eq!(sim.stats().accesses(Direction::SimToAcc), 1);
        assert_eq!(acc_end.recv_blocking().unwrap().payload().len(), 9);
    }

    #[test]
    fn try_recv_empty_returns_none() {
        let (mut sim, _acc) = ThreadedTransport::pair();
        assert!(sim.recv(Side::Simulator).is_none());
    }

    #[test]
    fn wait_for_packet_times_out_and_delivers() {
        let (mut sim, mut acc) = ThreadedTransport::pair();
        assert!(!sim.wait_for_packet(Duration::from_millis(1)));
        acc.send(Side::Accelerator, Packet::new(PacketTag::Handshake, vec![]));
        assert!(sim.wait_for_packet(Duration::from_millis(100)));
        assert_eq!(
            sim.recv(Side::Simulator).unwrap().tag(),
            PacketTag::Handshake
        );
    }

    #[test]
    fn pending_tracks_in_flight_packets() {
        let (mut sim, mut acc) = ThreadedTransport::pair();
        sim.send(Side::Simulator, Packet::new(PacketTag::Handshake, vec![]));
        sim.send(Side::Simulator, Packet::new(PacketTag::Handshake, vec![]));
        assert_eq!(acc.pending(Side::Accelerator), 2);
        assert!(acc.recv(Side::Accelerator).is_some());
        assert_eq!(acc.pending(Side::Accelerator), 1);
        assert_eq!(sim.pending(Side::Accelerator), 1, "counters are shared");
    }

    #[test]
    fn dropped_peer_drains_cleanly() {
        let (mut sim, acc) = ThreadedTransport::pair();
        drop(acc);
        sim.send(Side::Simulator, Packet::new(PacketTag::Handshake, vec![]));
        assert!(sim.recv_blocking().is_none());
        assert_eq!(
            sim.pending(Side::Accelerator),
            0,
            "lost send is not pending"
        );
    }
}
