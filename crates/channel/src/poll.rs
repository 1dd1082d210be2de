//! Readiness poll-set: one poller parking on N transports.
//!
//! [`WaitTransport`](crate::WaitTransport) answers "block *this thread* until
//! *this transport* has a packet" — exactly right for a dedicated domain
//! thread, and exactly wrong for a session server multiplexing thousands of
//! idle sessions over a fixed worker pool, where a blocked thread is a wasted
//! worker. This module generalizes the spin-then-park machinery the
//! shared-memory ring's waiter pioneered into a *non-blocking* readiness
//! probe plus a poll-set that parks one thread on any number of probes:
//!
//! * [`PollReady`] is the probe: a cheap, non-blocking "would a receive make
//!   progress right now?" — read-readiness for the TCP endpoint (a
//!   non-blocking socket drain), the head/liveness atomics for the
//!   shared-memory ring, the in-flight counters for the mpsc endpoint, and
//!   outstanding-recovery state for the reliable layer.
//! * [`PollSet`] is the parking engine: probe every source, spin briefly
//!   (the peer's turnaround is microseconds; the first sleep costs two
//!   orders of magnitude more), then park in short slices re-probing between
//!   naps — the same ladder as the ring waiter, lifted over N sources.
//!
//! Readiness is a *hint*, not a guarantee: a `Ready` source promises that
//! polling it is worthwhile now, not that a specific packet is deliverable
//! (a reliable source, for instance, reports `Ready` while it still owes
//! retransmissions, so a scheduler keeps pumping its timeout clock).
//! Spurious `Ready` must be tolerated by callers; `Idle` however is
//! authoritative at the instant of the probe.

use std::time::{Duration, Instant};

/// Bounded spin iterations before a waiter starts parking, for probes that
/// cost a couple of atomic loads. Sized to cover a peer's model-stepping
/// turnaround (a few microseconds), because the first sleep costs two orders
/// of magnitude more than the spin itself.
pub(crate) const SPIN_POLLS: u32 = 1024;

/// Spin budget for probes that cost syscalls (file-backed ring reads,
/// socket drains): long spins would turn every blocked wait into a syscall
/// storm, so the waiter parks early instead.
pub(crate) const SPIN_POLLS_SYSCALL: u32 = 16;

/// Park slice while blocked: short enough that fresh data (or a dying peer)
/// wakes the waiter with little added latency, long enough not to busy-wake.
/// Kept near the OS sleep granularity.
pub(crate) const PARK_SLICE: Duration = Duration::from_micros(50);

/// Park slice for syscall-cost probes: coarser, trading wake latency for
/// syscall pressure.
pub(crate) const PARK_SLICE_SYSCALL: Duration = Duration::from_micros(250);

/// What a non-blocking readiness probe learned about one source.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Readiness {
    /// Polling this source now would make progress: a packet is decoded (or
    /// decodable), or the source owes work that only polling advances (a
    /// reliable layer with unacknowledged frames outstanding).
    Ready,
    /// Nothing to do right now; the source is healthy but quiet.
    Idle,
    /// The peer is gone (socket error/EOF, cleared ring liveness flag,
    /// disconnected mpsc sender) and everything receivable has been drained:
    /// no amount of waiting will produce more data.
    Dead,
}

impl Readiness {
    /// Whether a scheduler should run the owner now: `Ready` to consume
    /// data, `Dead` to let it discover the loss and fail fast. Only `Idle`
    /// parks.
    pub fn is_actionable(self) -> bool {
        !matches!(self, Readiness::Idle)
    }

    /// Folds two probes into the readiness of the pair: data anywhere wins,
    /// then death, then idleness.
    pub fn combine(self, other: Readiness) -> Readiness {
        use Readiness::*;
        match (self, other) {
            (Ready, _) | (_, Ready) => Ready,
            (Dead, _) | (_, Dead) => Dead,
            (Idle, Idle) => Idle,
        }
    }
}

/// A non-blocking readiness probe over one packet source.
///
/// Implementations must be cheap enough to call in a sweep over thousands of
/// parked sessions — a few atomic loads for the in-memory transports, one
/// non-blocking socket drain for TCP — and must never block or spin
/// internally.
pub trait PollReady {
    /// Probes the source without blocking. May perform hidden progress (e.g.
    /// draining a socket into the decode buffer) as long as it returns
    /// promptly; such progress is observed by the owner's next `recv`.
    fn readiness(&mut self) -> Readiness;
}

// A probe through any mutable reference, so heterogeneous sets can be built
// from `&mut dyn PollReady` without an extra adapter.
impl<P: PollReady + ?Sized> PollReady for &mut P {
    fn readiness(&mut self) -> Readiness {
        (**self).readiness()
    }
}

impl<P: PollReady + ?Sized> PollReady for Box<P> {
    fn readiness(&mut self) -> Readiness {
        (**self).readiness()
    }
}

/// Spin-then-park engine over N [`PollReady`] sources: one thread waits on
/// all of them, paying the shared-memory waiter's latency ladder exactly
/// once regardless of how many sources it covers.
#[derive(Debug, Clone, Copy)]
pub struct PollSet {
    spin_sweeps: u32,
    park_slice: Duration,
}

impl Default for PollSet {
    fn default() -> Self {
        Self::new()
    }
}

impl PollSet {
    /// A poll-set with the cheap-probe tuning (atomic-load sources: rings,
    /// mpsc counters). TCP sources embed a syscall per probe; sets holding
    /// many of them should prefer [`PollSet::syscall_probes`].
    pub fn new() -> Self {
        PollSet {
            spin_sweeps: SPIN_POLLS,
            park_slice: PARK_SLICE,
        }
    }

    /// A poll-set tuned for syscall-cost probes (socket drains, file-backed
    /// rings): a short spin budget and a coarser park slice, so a large idle
    /// set does not turn into a syscall storm.
    pub fn syscall_probes() -> Self {
        PollSet {
            spin_sweeps: SPIN_POLLS_SYSCALL,
            park_slice: PARK_SLICE_SYSCALL,
        }
    }

    /// One non-blocking sweep: probes every source once and returns the
    /// first actionable one (`Ready` or `Dead`) with its index, or `None`
    /// when the whole set is idle.
    pub fn sweep<P: PollReady>(&self, sources: &mut [P]) -> Option<(usize, Readiness)> {
        for (i, source) in sources.iter_mut().enumerate() {
            let r = source.readiness();
            if r.is_actionable() {
                return Some((i, r));
            }
        }
        None
    }

    /// Blocks until any source is actionable or `timeout` elapses: spins
    /// `spin_sweeps` sweeps first (covering a live peer's turnaround without
    /// sleeping), then parks in `park_slice` naps, re-sweeping after each.
    /// Returns the actionable source, or `None` on timeout. An empty set
    /// just sleeps out the timeout.
    pub fn wait_any<P: PollReady>(
        &self,
        sources: &mut [P],
        timeout: Duration,
    ) -> Option<(usize, Readiness)> {
        let deadline = Instant::now() + timeout;
        for _ in 0..self.spin_sweeps.max(1) {
            if let Some(hit) = self.sweep(sources) {
                return Some(hit);
            }
            if sources.is_empty() || Instant::now() >= deadline {
                break;
            }
            std::hint::spin_loop();
        }
        loop {
            let now = Instant::now();
            if now >= deadline {
                return None;
            }
            std::thread::sleep(self.park_slice.min(deadline - now));
            if let Some(hit) = self.sweep(sources) {
                return Some(hit);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Scripted {
        now: Readiness,
        probes: u32,
    }

    impl PollReady for Scripted {
        fn readiness(&mut self) -> Readiness {
            self.probes += 1;
            self.now
        }
    }

    fn scripted(now: Readiness) -> Scripted {
        Scripted { now, probes: 0 }
    }

    #[test]
    fn combine_prefers_data_then_death() {
        use Readiness::*;
        assert_eq!(Ready.combine(Dead), Ready);
        assert_eq!(Dead.combine(Ready), Ready);
        assert_eq!(Idle.combine(Dead), Dead);
        assert_eq!(Idle.combine(Idle), Idle);
        assert!(Ready.is_actionable());
        assert!(Dead.is_actionable());
        assert!(!Idle.is_actionable());
    }

    #[test]
    fn sweep_returns_first_actionable_source() {
        let mut set = vec![
            scripted(Readiness::Idle),
            scripted(Readiness::Dead),
            scripted(Readiness::Ready),
        ];
        let (idx, r) = PollSet::new().sweep(&mut set).expect("actionable");
        assert_eq!((idx, r), (1, Readiness::Dead));
        // The sweep short-circuits: the third source was never probed.
        assert_eq!(set[2].probes, 0);
    }

    #[test]
    fn wait_any_times_out_on_an_idle_set() {
        let mut set = vec![scripted(Readiness::Idle)];
        let t0 = Instant::now();
        let hit = PollSet::syscall_probes().wait_any(&mut set, Duration::from_millis(5));
        assert!(hit.is_none());
        assert!(t0.elapsed() >= Duration::from_millis(5));
        assert!(
            set[0].probes >= SPIN_POLLS_SYSCALL,
            "spin sweeps probed the source"
        );
    }

    #[test]
    fn wait_any_returns_immediately_when_ready() {
        let mut set = vec![scripted(Readiness::Idle), scripted(Readiness::Ready)];
        let hit = PollSet::new().wait_any(&mut set, Duration::from_secs(5));
        assert_eq!(hit, Some((1, Readiness::Ready)));
    }

    #[test]
    fn wait_any_on_an_empty_set_sleeps_out_the_timeout() {
        let mut set: Vec<Scripted> = vec![];
        let t0 = Instant::now();
        assert!(PollSet::new()
            .wait_any(&mut set, Duration::from_millis(2))
            .is_none());
        assert!(t0.elapsed() >= Duration::from_millis(2));
    }
}
