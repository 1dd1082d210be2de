//! Decorators that count each call into a layer and record a span around a
//! sample of them (see [`crate::trace`]). They forward
//! every call unchanged, so a decorated session must commit exactly what the
//! plain one commits — the benchmark checks that on every traced rep.
//!
//! | decorator | handed to | spans |
//! |---|---|---|
//! | [`Timed`] | `EmuSession::builder` / `CoEmulator::with_transport` | `ahb.tick`, `ahb.outputs`, `ahb.verify`, `predict.predict`, `sim.snapshot_save`, `sim.snapshot_restore`, `sim.trace_truncate` |
//! | [`TimedSuite`] | `SocBlueprint::build_pair_with` | `predict.train` (inside `ahb.tick`) |
//! | [`TimedTransport`] | `CoEmulator::with_transport` | `channel.send`, `channel.recv` |
//!
//! Cheap queries (`needs_sync`, `elect_leader`, widths, trace marks) are
//! forwarded as they are: their time stays with the core wrapper.

use crate::trace::{enter, Site};
use predpkt_ahb::signals::{MasterSignals, SlaveSignals};
use predpkt_channel::{BatchStats, Packet, Side, Transport};
use predpkt_core::{DomainModel, TickKind};
use predpkt_predict::{MasterPredictor, PredictorSuite, SlavePredictor};
use predpkt_sim::{Snapshot, SnapshotError, StateReader, StateWriter, Trace, TraceMark};

/// A domain model with a span around every call that does per-cycle work.
pub struct Timed<M> {
    inner: M,
    control_words: u64,
}

impl<M> Timed<M> {
    pub fn new(inner: M) -> Self {
        Timed {
            inner,
            control_words: 0,
        }
    }

    pub fn inner(&self) -> &M {
        &self.inner
    }

    /// Control words the predictors billed to the channel so far.
    pub fn control_words(&self) -> u64 {
        self.control_words
    }
}

impl<M: DomainModel> DomainModel for Timed<M> {
    fn side(&self) -> Side {
        self.inner.side()
    }

    fn cycle(&self) -> u64 {
        self.inner.cycle()
    }

    fn local_width(&self) -> usize {
        self.inner.local_width()
    }

    fn remote_width(&self) -> usize {
        self.inner.remote_width()
    }

    fn local_outputs(&self) -> Vec<u32> {
        let _span = enter(Site::AhbOutputs);
        self.inner.local_outputs()
    }

    fn needs_sync(&self) -> bool {
        self.inner.needs_sync()
    }

    fn elect_leader(&self) -> Side {
        self.inner.elect_leader()
    }

    fn predict_remote(&mut self) -> Vec<u32> {
        let _span = enter(Site::PredictPredict);
        self.inner.predict_remote()
    }

    fn tick(&mut self, remote: &[u32], kind: TickKind) {
        let _span = enter(Site::AhbTick);
        self.inner.tick(remote, kind);
    }

    fn take_control_words(&mut self) -> u64 {
        let words = self.inner.take_control_words();
        self.control_words += words;
        words
    }

    fn verify_prediction(&self, leader_outputs: &[u32], predicted_me: &[u32]) -> bool {
        let _span = enter(Site::AhbVerify);
        self.inner.verify_prediction(leader_outputs, predicted_me)
    }

    fn trace(&self) -> &Trace {
        self.inner.trace()
    }

    fn trace_mut(&mut self) -> &mut Trace {
        self.inner.trace_mut()
    }

    fn trace_mark(&self) -> TraceMark {
        self.inner.trace_mark()
    }

    fn trace_truncate(&mut self, mark: TraceMark) {
        let _span = enter(Site::SimTraceTruncate);
        self.inner.trace_truncate(mark);
    }
}

impl<M: Snapshot> Snapshot for Timed<M> {
    fn save(&self, w: &mut StateWriter<'_>) {
        let _span = enter(Site::SimSnapshotSave);
        self.inner.save(w);
    }

    fn restore(&mut self, r: &mut StateReader<'_>) -> Result<(), SnapshotError> {
        let _span = enter(Site::SimSnapshotRestore);
        self.inner.restore(r)
    }
}

/// A predictor suite whose predictors record a span around training.
/// Prediction runs inside the model's `predict.predict` span and is forwarded
/// untimed.
pub struct TimedSuite<S>(pub S);

impl<S: PredictorSuite> PredictorSuite for TimedSuite<S> {
    fn master_predictor(&self, index: usize) -> Box<dyn MasterPredictor> {
        Box::new(TimedMaster(self.0.master_predictor(index)))
    }

    fn slave_predictor(&self, index: usize) -> Box<dyn SlavePredictor> {
        Box::new(TimedSlave(self.0.slave_predictor(index)))
    }

    fn name(&self) -> &'static str {
        self.0.name()
    }
}

struct TimedMaster(Box<dyn MasterPredictor>);

impl MasterPredictor for TimedMaster {
    fn observe(&mut self, actual: &MasterSignals, accepted: bool) {
        let _span = enter(Site::PredictTrain);
        self.0.observe(actual, accepted);
    }

    fn predict(&mut self) -> MasterSignals {
        self.0.predict()
    }

    fn take_control_words(&mut self) -> u32 {
        self.0.take_control_words()
    }
}

impl Snapshot for TimedMaster {
    fn save(&self, w: &mut StateWriter<'_>) {
        self.0.save(w);
    }

    fn restore(&mut self, r: &mut StateReader<'_>) -> Result<(), SnapshotError> {
        self.0.restore(r)
    }
}

struct TimedSlave(Box<dyn SlavePredictor>);

impl SlavePredictor for TimedSlave {
    fn observe(&mut self, actual: &SlaveSignals, data_phase_first: Option<bool>) {
        let _span = enter(Site::PredictTrain);
        self.0.observe(actual, data_phase_first);
    }

    fn begin_phase(&mut self, first_beat: bool) {
        self.0.begin_phase(first_beat);
    }

    fn predict(&mut self, in_data_phase: bool) -> SlaveSignals {
        self.0.predict(in_data_phase)
    }

    fn take_control_words(&mut self) -> u32 {
        self.0.take_control_words()
    }
}

impl Snapshot for TimedSlave {
    fn save(&self, w: &mut StateWriter<'_>) {
        self.0.save(w);
    }

    fn restore(&mut self, r: &mut StateReader<'_>) -> Result<(), SnapshotError> {
        self.0.restore(r)
    }
}

/// A transport with a span around each send and receive. With `record` set
/// it also keeps every packet sent, in order, for the replay measurements.
pub struct TimedTransport<T> {
    inner: T,
    record: bool,
    log: Vec<(Side, Packet)>,
}

impl<T> TimedTransport<T> {
    pub fn new(inner: T, record: bool) -> Self {
        TimedTransport {
            inner,
            record,
            log: Vec::new(),
        }
    }

    /// The packets sent so far, in order, with the side that sent each.
    pub fn log(&self) -> &[(Side, Packet)] {
        &self.log
    }
}

impl<T: Transport> Transport for TimedTransport<T> {
    fn send(&mut self, from: Side, packet: Packet) {
        if self.record {
            self.log.push((from, packet.clone()));
        }
        let _span = enter(Site::ChannelSend);
        self.inner.send(from, packet);
    }

    fn recv(&mut self, to: Side) -> Option<Packet> {
        let _span = enter(Site::ChannelRecv);
        self.inner.recv(to)
    }

    fn pending(&self, to: Side) -> usize {
        self.inner.pending(to)
    }

    fn batch_stats(&self) -> Option<BatchStats> {
        self.inner.batch_stats()
    }
}
