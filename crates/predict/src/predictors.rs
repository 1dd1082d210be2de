//! Signal predictors for the paper's §3 signal classes.
//!
//! | Signal class | Paper's argument | Predictor |
//! |---|---|---|
//! | address/control of the active master | "increase linearly over time or remain constant throughout a single burst" | [`BurstFollower`] |
//! | responses of the active slave | "can be modeled with a simple producer-consumer model" | [`WaitPredictor`] |
//! | arbitration requests / results | "the arbitration result tends to change only occasionally" | [`LastValuePredictor`] |
//! | interrupts and other sideband | "should be a subject of prediction, too" | [`LastValuePredictor`] |
//! | read/write data | "cannot be effectively predicted" | none — the data source must lead |

use predpkt_ahb::burst::BurstTracker;
use predpkt_ahb::signals::{Htrans, MasterSignals};
use predpkt_sim::declare_state;

/// Predicts the next value of a slowly-changing word: the last observed value.
///
/// Used for arbitration request bits, IRQ lines and HSPLIT vectors. During
/// run-ahead the predictor feeds on its own predictions (the value is assumed
/// stable), so a change during speculation costs exactly one rollback.
///
/// # Example
///
/// ```
/// use predpkt_predict::LastValuePredictor;
/// let mut p = LastValuePredictor::new(0);
/// p.observe(7);
/// assert_eq!(p.predict(), 7);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LastValuePredictor {
    value: u32,
}

impl LastValuePredictor {
    /// Creates the predictor with an initial value.
    pub fn new(initial: u32) -> Self {
        LastValuePredictor { value: initial }
    }

    /// Records an observed actual value.
    pub fn observe(&mut self, actual: u32) {
        self.value = actual;
    }

    /// Predicts the next value.
    pub fn predict(&self) -> u32 {
        self.value
    }
}

declare_state! { impl LastValuePredictor { value } }

/// Predicts a remote master's address/control signals by following its burst.
///
/// Once a NONSEQ with a multi-beat burst is observed, subsequent cycles are
/// predicted as SEQ beats at sequenced addresses until the burst completes;
/// outside a burst the master is predicted to hold its last phase (IDLE stays
/// IDLE, a completed burst returns to IDLE with the request held by the
/// last-value portion).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BurstFollower {
    /// Last seen (or predicted) full signal bundle.
    last: MasterSignals,
    /// Live burst being followed.
    burst: Option<BurstTracker>,
}

impl Default for BurstFollower {
    fn default() -> Self {
        Self::new()
    }
}

impl BurstFollower {
    /// Creates a follower that has observed nothing (predicts idle).
    pub fn new() -> Self {
        BurstFollower {
            last: MasterSignals::idle(),
            burst: None,
        }
    }

    /// Feeds the master's signals for a cycle and whether the bus accepted an
    /// active phase this cycle (`accepted` = granted with `hready`).
    pub fn observe(&mut self, actual: &MasterSignals, accepted: bool) {
        self.last = *actual;
        if !accepted {
            return;
        }
        match actual.trans {
            Htrans::Nonseq => {
                self.burst = match actual.burst.beats() {
                    Some(beats) if beats > 1 => {
                        Some(BurstTracker::start(actual.addr, actual.size, actual.burst))
                    }
                    // Follow INCR bursts too: length unknown, assume it continues.
                    None => Some(BurstTracker::start(actual.addr, actual.size, actual.burst)),
                    _ => None,
                };
            }
            Htrans::Seq => {
                if let Some(t) = &mut self.burst {
                    t.advance();
                    if t.complete() {
                        self.burst = None;
                    }
                }
            }
            Htrans::Idle => self.burst = None,
            Htrans::Busy => {}
        }
    }

    /// Predicts the master's signals for the next cycle, then advances the
    /// follower as if the prediction were accepted (speculative timeline).
    pub fn predict_and_advance(&mut self) -> MasterSignals {
        let mut predicted = self.last;
        match &mut self.burst {
            Some(t) => {
                predicted.trans = Htrans::Seq;
                predicted.addr = t.next_addr();
                predicted.size = t.size();
                predicted.burst = t.burst();
                t.advance();
                if t.complete() {
                    self.burst = None;
                }
            }
            None => {
                // Outside a burst: predict a quiet master (request bits are
                // handled by the last-value layer on top).
                predicted.trans = Htrans::Idle;
            }
        }
        self.last = predicted;
        predicted
    }
}

declare_state! {
    impl BurstFollower {
        last,
        burst,
    }
}

/// Predicts a remote slave's HREADY pattern: the producer–consumer model.
///
/// Learns the wait-state count separately for first beats (NONSEQ) and
/// sequential beats (SEQ), then predicts `ready=false` for that many cycles
/// after a data phase starts and `ready=true` on the completing cycle.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WaitPredictor {
    learned_first: u32,
    learned_seq: u32,
    /// Wait cycles predicted to remain for the current data phase.
    countdown: u32,
    /// Wait cycles observed so far for the live actual data phase.
    observing: u32,
}

impl Default for WaitPredictor {
    fn default() -> Self {
        Self::new()
    }
}

impl WaitPredictor {
    /// Creates a predictor assuming zero wait states.
    pub fn new() -> Self {
        WaitPredictor {
            learned_first: 0,
            learned_seq: 0,
            countdown: 0,
            observing: 0,
        }
    }

    /// The learned wait states for (first, sequential) beats.
    pub fn learned(&self) -> (u32, u32) {
        (self.learned_first, self.learned_seq)
    }

    /// Observes the slave during a cycle it owns the data phase.
    ///
    /// `first_beat` marks NONSEQ phases; `ready` is the slave's actual HREADY.
    pub fn observe(&mut self, first_beat: bool, ready: bool) {
        if ready {
            // Phase completed: learn the run length.
            if first_beat {
                self.learned_first = self.observing;
            } else {
                self.learned_seq = self.observing;
            }
            self.observing = 0;
        } else {
            self.observing += 1;
        }
    }

    /// Starts predicting a new data phase on the speculative timeline.
    pub fn begin_phase(&mut self, first_beat: bool) {
        self.countdown = if first_beat {
            self.learned_first
        } else {
            self.learned_seq
        };
    }

    /// Predicts HREADY for the current speculative cycle and advances.
    pub fn predict_and_advance(&mut self) -> bool {
        if self.countdown > 0 {
            self.countdown -= 1;
            false
        } else {
            true
        }
    }
}

declare_state! {
    impl WaitPredictor {
        learned_first,
        learned_seq,
        countdown,
        observing,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use predpkt_ahb::signals::{Hburst, Hsize};
    use predpkt_sim::{restore_from_vec, save_to_vec};

    #[test]
    fn last_value_tracks() {
        let mut p = LastValuePredictor::new(1);
        assert_eq!(p.predict(), 1);
        p.observe(9);
        assert_eq!(p.predict(), 9);
        let state = save_to_vec(&p);
        let mut copy = LastValuePredictor::new(0);
        restore_from_vec(&mut copy, &state).unwrap();
        assert_eq!(copy, p);
    }

    fn nonseq(addr: u32, burst: Hburst) -> MasterSignals {
        MasterSignals {
            busreq: true,
            trans: Htrans::Nonseq,
            addr,
            size: Hsize::Word,
            burst,
            ..MasterSignals::idle()
        }
    }

    #[test]
    fn burst_follower_predicts_seq_beats() {
        let mut f = BurstFollower::new();
        f.observe(&nonseq(0x100, Hburst::Incr4), true);
        // Predict beats 2..4.
        let p1 = f.predict_and_advance();
        assert_eq!(p1.trans, Htrans::Seq);
        assert_eq!(p1.addr, 0x104);
        let p2 = f.predict_and_advance();
        assert_eq!(p2.addr, 0x108);
        let p3 = f.predict_and_advance();
        assert_eq!(p3.addr, 0x10c);
        // Burst exhausted: idle after.
        let p4 = f.predict_and_advance();
        assert_eq!(p4.trans, Htrans::Idle);
    }

    #[test]
    fn burst_follower_wrap_addresses() {
        let mut f = BurstFollower::new();
        f.observe(&nonseq(0x38, Hburst::Wrap4), true);
        assert_eq!(f.predict_and_advance().addr, 0x3c);
        assert_eq!(f.predict_and_advance().addr, 0x30);
        assert_eq!(f.predict_and_advance().addr, 0x34);
    }

    #[test]
    fn burst_follower_unaccepted_phase_ignored() {
        let mut f = BurstFollower::new();
        f.observe(&nonseq(0x100, Hburst::Incr4), false); // stalled, not accepted
        assert_eq!(f.predict_and_advance().trans, Htrans::Idle);
    }

    #[test]
    fn burst_follower_idle_resets() {
        let mut f = BurstFollower::new();
        f.observe(&nonseq(0x0, Hburst::Incr8), true);
        f.observe(&MasterSignals::idle(), true);
        assert_eq!(f.predict_and_advance().trans, Htrans::Idle);
    }

    #[test]
    fn burst_follower_mixed_observation_and_prediction() {
        // Observe two actual beats, then predict the rest of an INCR8.
        let mut f = BurstFollower::new();
        f.observe(&nonseq(0x0, Hburst::Incr8), true);
        let mut seq = nonseq(0x4, Hburst::Incr8);
        seq.trans = Htrans::Seq;
        f.observe(&seq, true);
        let p = f.predict_and_advance();
        assert_eq!(p.addr, 0x8);
        assert_eq!(p.trans, Htrans::Seq);
    }

    #[test]
    fn burst_follower_snapshot_roundtrip() {
        let mut f = BurstFollower::new();
        f.observe(&nonseq(0x40, Hburst::Incr16), true);
        f.predict_and_advance();
        let state = save_to_vec(&f);
        let mut copy = BurstFollower::new();
        restore_from_vec(&mut copy, &state).unwrap();
        assert_eq!(copy, f);
    }

    #[test]
    fn wait_predictor_learns_pattern() {
        let mut p = WaitPredictor::new();
        // Observe a first beat with 2 waits.
        p.observe(true, false);
        p.observe(true, false);
        p.observe(true, true);
        // And sequential beats with 1 wait.
        p.observe(false, false);
        p.observe(false, true);
        assert_eq!(p.learned(), (2, 1));
        // Prediction replays the pattern.
        p.begin_phase(true);
        assert!(!p.predict_and_advance());
        assert!(!p.predict_and_advance());
        assert!(p.predict_and_advance());
        p.begin_phase(false);
        assert!(!p.predict_and_advance());
        assert!(p.predict_and_advance());
    }

    #[test]
    fn wait_predictor_zero_wait_default() {
        let mut p = WaitPredictor::new();
        p.begin_phase(true);
        assert!(
            p.predict_and_advance(),
            "assumes zero waits before learning"
        );
    }

    #[test]
    fn wait_predictor_snapshot_roundtrip() {
        let mut p = WaitPredictor::new();
        p.observe(true, false);
        p.begin_phase(true);
        let state = save_to_vec(&p);
        let mut copy = WaitPredictor::new();
        restore_from_vec(&mut copy, &state).unwrap();
        assert_eq!(copy, p);
    }
}
