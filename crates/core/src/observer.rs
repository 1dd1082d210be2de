//! Run observers: a typed event stream out of the protocol engine.
//!
//! Benches, the accuracy sweep, and telemetry all used to scrape
//! [`PerfReport`](crate::PerfReport)s after the fact; an [`EmuObserver`]
//! instead receives every protocol-level event as it happens — transition
//! starts (mode switches), rollbacks, LOB flushes, channel accesses — from
//! both channel wrappers, tagged with the side that produced it.
//!
//! Every event of a session or fabric arrives on the thread that called
//! its run method, one at a time. Observers must still be `Send`: a session
//! farm moves whole sessions, observer included, between its workers.

use predpkt_channel::{Direction, Side};
use predpkt_sim::VirtualTime;
use std::sync::{Arc, Mutex};

/// One protocol-level event, produced by the channel wrapper of `side`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EmuEvent {
    /// The width handshake with the peer completed.
    HandshakeComplete,
    /// A transition began; emitted by the initiating wrapper only.
    /// `optimistic == false` marks a conservative (C-path) exchange — so a
    /// flip of this flag between consecutive events is an operating-mode
    /// switch.
    TransitionStarted {
        /// The side leading (or initiating the conservative exchange).
        leader: Side,
        /// Whether the transition runs ahead on predictions.
        optimistic: bool,
    },
    /// A packet left this side through the costed channel.
    ChannelSend {
        /// Transfer direction.
        direction: Direction,
        /// Wire words (tag + payload).
        words: u64,
        /// Virtual-time cost billed for the access.
        cost: VirtualTime,
    },
    /// The leader flushed its LOB as one burst (S-path).
    LobFlush {
        /// Entries in the burst (head cycles + predicted cycles).
        entries: usize,
        /// Entries carrying predictions (checked by the lagger).
        predictions: usize,
    },
    /// The leader received the lagger's report for a flushed burst.
    ReportReceived {
        /// Whether every prediction checked out.
        success: bool,
        /// Index of the first failing entry, when `success` is false.
        failed_index: Option<usize>,
    },
    /// The leader rolled back and replayed the verified prefix (RB + F-path).
    Rollback {
        /// Index of the failing burst entry.
        failed_index: usize,
        /// Cycles replayed during roll-forth (verified prefix + repair).
        replayed: u64,
    },
    /// One conservative cycle committed (C-path, either role).
    ConservativeCycle,
}

impl EmuEvent {
    /// A stable label for counting/telemetry.
    pub fn kind(&self) -> &'static str {
        match self {
            EmuEvent::HandshakeComplete => "handshake",
            EmuEvent::TransitionStarted { .. } => "transition",
            EmuEvent::ChannelSend { .. } => "channel_send",
            EmuEvent::LobFlush { .. } => "lob_flush",
            EmuEvent::ReportReceived { .. } => "report",
            EmuEvent::Rollback { .. } => "rollback",
            EmuEvent::ConservativeCycle => "conservative_cycle",
        }
    }
}

/// Receives protocol events from both channel wrappers.
///
/// All methods have default no-op implementations, so an observer implements
/// only what it cares about. The single entry point keeps dynamic dispatch
/// cost to one call per event.
pub trait EmuObserver: Send {
    /// Called for every protocol event, tagged with the producing side.
    fn on_event(&mut self, side: Side, event: &EmuEvent);
}

/// The do-nothing observer (the default for every session).
#[derive(Debug, Clone, Copy, Default)]
pub struct NoopObserver;

impl EmuObserver for NoopObserver {
    fn on_event(&mut self, _side: Side, _event: &EmuEvent) {}
}

/// Aggregate counters over the event stream.
///
/// Cloning shares the underlying counters, so keep a clone and hand the
/// original to the session:
///
/// ```
/// use predpkt_core::{EventCounters, EmuObserver, EmuEvent};
/// use predpkt_channel::Side;
/// let counters = EventCounters::new();
/// let mut observer = counters.clone(); // give this one to the session
/// observer.on_event(Side::Simulator, &EmuEvent::ConservativeCycle);
/// assert_eq!(counters.snapshot().conservative_cycles, 1);
/// ```
#[derive(Debug, Clone, Default)]
pub struct EventCounters {
    inner: Arc<Mutex<EventCounts>>,
}

/// The counts collected by an [`EventCounters`] observer.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EventCounts {
    /// Completed handshakes.
    pub handshakes: u64,
    /// Transitions started (optimistic + conservative).
    pub transitions: u64,
    /// Transitions that ran ahead on predictions.
    pub optimistic_transitions: u64,
    /// Channel sends.
    pub channel_sends: u64,
    /// Total wire words sent.
    pub words_sent: u64,
    /// LOB flushes.
    pub lob_flushes: u64,
    /// Reports received by leaders.
    pub reports: u64,
    /// Rollbacks.
    pub rollbacks: u64,
    /// Cycles replayed during roll-forth.
    pub replayed_cycles: u64,
    /// Conservative cycles committed.
    pub conservative_cycles: u64,
}

impl EventCounters {
    /// Creates a zeroed counter set.
    pub fn new() -> Self {
        Self::default()
    }

    /// A copy of the counts so far.
    pub fn snapshot(&self) -> EventCounts {
        *self.inner.lock().expect("counter mutex poisoned")
    }
}

impl EmuObserver for EventCounters {
    fn on_event(&mut self, _side: Side, event: &EmuEvent) {
        let mut c = self.inner.lock().expect("counter mutex poisoned");
        match event {
            EmuEvent::HandshakeComplete => c.handshakes += 1,
            EmuEvent::TransitionStarted { optimistic, .. } => {
                c.transitions += 1;
                if *optimistic {
                    c.optimistic_transitions += 1;
                }
            }
            EmuEvent::ChannelSend { words, .. } => {
                c.channel_sends += 1;
                c.words_sent += words;
            }
            EmuEvent::LobFlush { .. } => c.lob_flushes += 1,
            EmuEvent::ReportReceived { .. } => c.reports += 1,
            EmuEvent::Rollback { replayed, .. } => {
                c.rollbacks += 1;
                c.replayed_cycles += replayed;
            }
            EmuEvent::ConservativeCycle => c.conservative_cycles += 1,
        }
    }
}

/// Records the full event stream, tagged by side, in arrival order.
///
/// Like [`EventCounters`], clones share the underlying log.
#[derive(Debug, Clone, Default)]
pub struct EventLog {
    inner: Arc<Mutex<Vec<(Side, EmuEvent)>>>,
}

impl EventLog {
    /// Creates an empty log.
    pub fn new() -> Self {
        Self::default()
    }

    /// A copy of the events recorded so far.
    pub fn events(&self) -> Vec<(Side, EmuEvent)> {
        self.inner.lock().expect("log mutex poisoned").clone()
    }

    /// Number of events recorded.
    pub fn len(&self) -> usize {
        self.inner.lock().expect("log mutex poisoned").len()
    }

    /// `true` if nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl EmuObserver for EventLog {
    fn on_event(&mut self, side: Side, event: &EmuEvent) {
        self.inner
            .lock()
            .expect("log mutex poisoned")
            .push((side, event.clone()));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_aggregate_events() {
        let counters = EventCounters::new();
        let mut obs = counters.clone();
        obs.on_event(
            Side::Accelerator,
            &EmuEvent::TransitionStarted {
                leader: Side::Accelerator,
                optimistic: true,
            },
        );
        obs.on_event(
            Side::Accelerator,
            &EmuEvent::LobFlush {
                entries: 8,
                predictions: 7,
            },
        );
        obs.on_event(
            Side::Accelerator,
            &EmuEvent::ChannelSend {
                direction: Direction::AccToSim,
                words: 12,
                cost: VirtualTime::from_picos(1),
            },
        );
        obs.on_event(
            Side::Accelerator,
            &EmuEvent::Rollback {
                failed_index: 3,
                replayed: 4,
            },
        );
        let c = counters.snapshot();
        assert_eq!(c.transitions, 1);
        assert_eq!(c.optimistic_transitions, 1);
        assert_eq!(c.lob_flushes, 1);
        assert_eq!(c.words_sent, 12);
        assert_eq!(c.rollbacks, 1);
        assert_eq!(c.replayed_cycles, 4);
    }

    #[test]
    fn log_preserves_order_and_sides() {
        let log = EventLog::new();
        let mut obs = log.clone();
        obs.on_event(Side::Simulator, &EmuEvent::HandshakeComplete);
        obs.on_event(Side::Accelerator, &EmuEvent::ConservativeCycle);
        let events = log.events();
        assert_eq!(events.len(), 2);
        assert_eq!(events[0], (Side::Simulator, EmuEvent::HandshakeComplete));
        assert_eq!(events[1].0, Side::Accelerator);
        assert!(!log.is_empty());
    }

    #[test]
    fn event_kinds_are_stable() {
        assert_eq!(EmuEvent::HandshakeComplete.kind(), "handshake");
        assert_eq!(EmuEvent::ConservativeCycle.kind(), "conservative_cycle");
    }
}
