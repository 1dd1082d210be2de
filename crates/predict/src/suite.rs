//! Pluggable predictor suites: the strategy layer between the raw predictors
//! and the half-bus domain models.
//!
//! The paper fixes one predictor per signal class (§3): [`BurstFollower`] for
//! address/control, [`WaitPredictor`] for slave responses,
//! [`LastValuePredictor`] for arbitration requests and sideband. That wiring
//! is the [`PaperSuite`]. Lifting it behind the [`PredictorSuite`] trait lets
//! a session swap in alternative strategies — e.g. the deliberately naive
//! [`LastValueSuite`] — without touching the protocol engine, and makes the
//! accuracy/traffic trade-off an experimental axis: correctness is guaranteed
//! by verification + rollback, so a worse suite costs performance, never
//! fidelity.
//!
//! A suite is a *factory*: the domain model asks it for one predictor object
//! per **remote** component (components hosted in the peer domain), indexed by
//! bus position. Predictor objects are [`Snapshot`]-able because they live
//! inside the leader's rollback state: a rolled-back leader also rolls back
//! what it learned during the failed speculation.

use crate::predictors::{BurstFollower, LastValuePredictor, WaitPredictor};
use predpkt_ahb::signals::{Hresp, MasterSignals, SlaveSignals};
use predpkt_sim::{Snapshot, SnapshotError, StateReader, StateWriter};

/// Strategy predicting one remote master's per-cycle signals.
///
/// `Send` so the owning domain model can move to a worker thread. A predictor
/// that wraps another forwards all three of [`Snapshot::mark`] /
/// [`rewind`](Snapshot::rewind) / [`release`](Snapshot::release), or none.
pub trait MasterPredictor: Snapshot + Send {
    /// Trains on the master's actual signals for a cycle; `accepted` marks a
    /// granted address phase with `hready` (the bus accepted the transfer).
    fn observe(&mut self, actual: &MasterSignals, accepted: bool);

    /// Predicts the master's signals for the next cycle, advancing the
    /// predictor along the speculative timeline.
    fn predict(&mut self) -> MasterSignals;

    /// Drains control words this predictor owes the channel (e.g. strategy
    /// epochs an adaptive predictor must agree with the peer). The session
    /// collects these at flush time and bills them through the cost model as
    /// piggybacked burst payload. Static strategies owe nothing.
    fn take_control_words(&mut self) -> u32 {
        0
    }
}

/// Strategy predicting one remote slave's per-cycle signals.
///
/// A predictor that wraps another forwards all three of [`Snapshot::mark`] /
/// [`rewind`](Snapshot::rewind) / [`release`](Snapshot::release), or none.
pub trait SlavePredictor: Snapshot + Send {
    /// Trains on the slave's actual signals for a cycle. `data_phase_first` is
    /// `Some(is_first_beat)` exactly when this slave owns the cycle's data
    /// phase (so wait-state learning can distinguish NONSEQ from SEQ beats).
    fn observe(&mut self, actual: &SlaveSignals, data_phase_first: Option<bool>);

    /// Notifies the predictor that an accepted address phase targets this
    /// slave: a data phase opens there next cycle on the speculative timeline.
    fn begin_phase(&mut self, first_beat: bool);

    /// Predicts the slave's signals for the next cycle; `in_data_phase` is
    /// `true` when the slave owns the upcoming data phase.
    fn predict(&mut self, in_data_phase: bool) -> SlaveSignals;

    /// Drains control words this predictor owes the channel; see
    /// [`MasterPredictor::take_control_words`].
    fn take_control_words(&mut self) -> u32 {
        0
    }
}

/// Factory producing predictor objects for a domain's remote components.
///
/// `index` is the component's bus position (the same index used by the
/// placement tables); the model only requests predictors for remote slots.
pub trait PredictorSuite {
    /// A predictor for the remote master at bus index `index`.
    fn master_predictor(&self, index: usize) -> Box<dyn MasterPredictor>;

    /// A predictor for the remote slave at bus index `index`.
    fn slave_predictor(&self, index: usize) -> Box<dyn SlavePredictor>;

    /// Human-readable suite name (telemetry and reports).
    fn name(&self) -> &'static str {
        "custom"
    }
}

/// The paper's §3 wiring: burst following for address/control, learned wait
/// states for slave responses, last-value for everything slow-moving.
#[derive(Debug, Clone, Copy, Default)]
pub struct PaperSuite;

impl PredictorSuite for PaperSuite {
    fn master_predictor(&self, _index: usize) -> Box<dyn MasterPredictor> {
        Box::new(PaperMasterPredictor::new())
    }

    fn slave_predictor(&self, _index: usize) -> Box<dyn SlavePredictor> {
        Box::new(PaperSlavePredictor::new())
    }

    fn name(&self) -> &'static str {
        "paper"
    }
}

/// A deliberately naive baseline: every signal predicted by last value, no
/// burst following, no wait-state learning. Useful for quantifying how much
/// of the paper's win comes from the structured predictors.
#[derive(Debug, Clone, Copy, Default)]
pub struct LastValueSuite;

impl PredictorSuite for LastValueSuite {
    fn master_predictor(&self, _index: usize) -> Box<dyn MasterPredictor> {
        Box::new(LastValueMasterPredictor::new())
    }

    fn slave_predictor(&self, _index: usize) -> Box<dyn SlavePredictor> {
        Box::new(LastValueSlavePredictor::new())
    }

    fn name(&self) -> &'static str {
        "last-value"
    }
}

/// Paper wiring for one remote master: a [`BurstFollower`] for address/control
/// plus last-value layers for the request, lock, write-data and protection
/// signals.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PaperMasterPredictor {
    follower: BurstFollower,
    busreq: LastValuePredictor,
    lock: LastValuePredictor,
    wdata: LastValuePredictor,
    prot: LastValuePredictor,
}

impl Default for PaperMasterPredictor {
    fn default() -> Self {
        Self::new()
    }
}

impl PaperMasterPredictor {
    /// Creates the predictor bundle in its untrained state.
    pub fn new() -> Self {
        PaperMasterPredictor {
            follower: BurstFollower::new(),
            busreq: LastValuePredictor::new(0),
            lock: LastValuePredictor::new(0),
            wdata: LastValuePredictor::new(0),
            prot: LastValuePredictor::new(0),
        }
    }
}

impl MasterPredictor for PaperMasterPredictor {
    fn observe(&mut self, actual: &MasterSignals, accepted: bool) {
        self.follower.observe(actual, accepted);
        self.busreq.observe(actual.busreq as u32);
        self.lock.observe(actual.lock as u32);
        self.wdata.observe(actual.wdata);
        self.prot.observe(actual.prot as u32);
    }

    fn predict(&mut self) -> MasterSignals {
        let mut sig = self.follower.predict_and_advance();
        sig.busreq = self.busreq.predict() != 0;
        sig.lock = self.lock.predict() != 0;
        sig.wdata = self.wdata.predict();
        sig.prot = self.prot.predict() as u8;
        sig
    }
}

impl Snapshot for PaperMasterPredictor {
    fn save(&self, w: &mut StateWriter<'_>) {
        self.follower.save(w);
        self.busreq.save(w);
        self.lock.save(w);
        self.wdata.save(w);
        self.prot.save(w);
    }

    fn restore(&mut self, r: &mut StateReader<'_>) -> Result<(), SnapshotError> {
        self.follower.restore(r)?;
        self.busreq.restore(r)?;
        self.lock.restore(r)?;
        self.wdata.restore(r)?;
        self.prot.restore(r)
    }
}

/// Paper wiring for one remote slave: a [`WaitPredictor`] for HREADY plus
/// last-value layers for IRQ and read data; responses predicted OKAY and the
/// SPLIT mask quiet.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PaperSlavePredictor {
    wait: WaitPredictor,
    irq: LastValuePredictor,
    rdata: LastValuePredictor,
}

impl Default for PaperSlavePredictor {
    fn default() -> Self {
        Self::new()
    }
}

impl PaperSlavePredictor {
    /// Creates the predictor bundle in its untrained state.
    pub fn new() -> Self {
        PaperSlavePredictor {
            wait: WaitPredictor::new(),
            irq: LastValuePredictor::new(0),
            rdata: LastValuePredictor::new(0),
        }
    }
}

impl SlavePredictor for PaperSlavePredictor {
    fn observe(&mut self, actual: &SlaveSignals, data_phase_first: Option<bool>) {
        self.irq.observe(actual.irq as u32);
        self.rdata.observe(actual.rdata);
        if let Some(first_beat) = data_phase_first {
            self.wait.observe(first_beat, actual.ready);
        }
    }

    fn begin_phase(&mut self, first_beat: bool) {
        self.wait.begin_phase(first_beat);
    }

    fn predict(&mut self, in_data_phase: bool) -> SlaveSignals {
        let ready = if in_data_phase {
            self.wait.predict_and_advance()
        } else {
            true
        };
        SlaveSignals {
            ready,
            resp: Hresp::Okay,
            rdata: self.rdata.predict(),
            split_unmask: 0,
            irq: self.irq.predict() != 0,
        }
    }
}

impl Snapshot for PaperSlavePredictor {
    fn save(&self, w: &mut StateWriter<'_>) {
        self.wait.save(w);
        self.irq.save(w);
        self.rdata.save(w);
    }

    fn restore(&mut self, r: &mut StateReader<'_>) -> Result<(), SnapshotError> {
        self.wait.restore(r)?;
        self.irq.restore(r)?;
        self.rdata.restore(r)
    }
}

/// Naive remote-master predictor: repeats the last observed signal bundle.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LastValueMasterPredictor {
    last: MasterSignals,
}

impl Default for LastValueMasterPredictor {
    fn default() -> Self {
        Self::new()
    }
}

impl LastValueMasterPredictor {
    /// Creates the predictor; predicts idle until trained.
    pub fn new() -> Self {
        LastValueMasterPredictor {
            last: MasterSignals::idle(),
        }
    }
}

impl MasterPredictor for LastValueMasterPredictor {
    fn observe(&mut self, actual: &MasterSignals, _accepted: bool) {
        self.last = *actual;
    }

    fn predict(&mut self) -> MasterSignals {
        self.last
    }
}

impl Snapshot for LastValueMasterPredictor {
    fn save(&self, w: &mut StateWriter<'_>) {
        self.last.save(w);
    }

    fn restore(&mut self, r: &mut StateReader<'_>) -> Result<(), SnapshotError> {
        self.last.restore(r)
    }
}

/// Naive remote-slave predictor: repeats the last observed signal bundle
/// (including its HREADY, so wait states are mispredicted at phase edges).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LastValueSlavePredictor {
    last: SlaveSignals,
}

impl Default for LastValueSlavePredictor {
    fn default() -> Self {
        Self::new()
    }
}

impl LastValueSlavePredictor {
    /// Creates the predictor; predicts an idle ready slave until trained.
    pub fn new() -> Self {
        LastValueSlavePredictor {
            last: SlaveSignals::idle(),
        }
    }
}

impl SlavePredictor for LastValueSlavePredictor {
    fn observe(&mut self, actual: &SlaveSignals, _data_phase_first: Option<bool>) {
        self.last = *actual;
    }

    fn begin_phase(&mut self, _first_beat: bool) {}

    fn predict(&mut self, _in_data_phase: bool) -> SlaveSignals {
        // Never predict a SPLIT unmask pulse: they are one-shot events.
        let mut sig = self.last;
        sig.split_unmask = 0;
        sig
    }
}

impl Snapshot for LastValueSlavePredictor {
    fn save(&self, w: &mut StateWriter<'_>) {
        self.last.save(w);
    }

    fn restore(&mut self, r: &mut StateReader<'_>) -> Result<(), SnapshotError> {
        self.last.restore(r)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use predpkt_ahb::signals::{Hburst, Hsize, Htrans};
    use predpkt_sim::{restore_from_vec, save_to_vec};

    fn nonseq(addr: u32) -> MasterSignals {
        MasterSignals {
            busreq: true,
            trans: Htrans::Nonseq,
            addr,
            size: Hsize::Word,
            burst: Hburst::Incr4,
            ..MasterSignals::idle()
        }
    }

    #[test]
    fn paper_master_predicts_burst_continuation() {
        let mut p = PaperMasterPredictor::new();
        p.observe(&nonseq(0x100), true);
        let s = p.predict();
        assert_eq!(s.trans, Htrans::Seq);
        assert_eq!(s.addr, 0x104);
        assert!(s.busreq, "request bit follows last value");
    }

    #[test]
    fn last_value_master_repeats_observation() {
        let mut p = LastValueMasterPredictor::new();
        assert_eq!(p.predict().trans, Htrans::Idle);
        p.observe(&nonseq(0x40), true);
        assert_eq!(p.predict().addr, 0x40);
        assert_eq!(p.predict().trans, Htrans::Nonseq, "no burst sequencing");
    }

    #[test]
    fn paper_slave_waits_then_readies() {
        let mut p = PaperSlavePredictor::new();
        // Learn one wait state on first beats.
        p.observe(
            &SlaveSignals {
                ready: false,
                ..SlaveSignals::idle()
            },
            Some(true),
        );
        p.observe(&SlaveSignals::idle(), Some(true));
        p.begin_phase(true);
        assert!(!p.predict(true).ready);
        assert!(p.predict(true).ready);
        assert!(p.predict(false).ready, "no data phase, no waits");
    }

    #[test]
    fn last_value_slave_never_predicts_split_pulse() {
        let mut p = LastValueSlavePredictor::new();
        p.observe(
            &SlaveSignals {
                split_unmask: 0b10,
                ..SlaveSignals::idle()
            },
            None,
        );
        assert_eq!(p.predict(true).split_unmask, 0);
    }

    #[test]
    fn boxed_predictors_snapshot_roundtrip() {
        let suite = PaperSuite;
        let mut p = suite.master_predictor(0);
        p.observe(&nonseq(0x80), true);
        let state = save_to_vec(p.as_ref());
        let mut copy = suite.master_predictor(0);
        restore_from_vec(&mut *copy, &state).unwrap();
        assert_eq!(copy.predict(), p.predict());
    }

    #[test]
    fn suite_names() {
        assert_eq!(PaperSuite.name(), "paper");
        assert_eq!(LastValueSuite.name(), "last-value");
    }
}
