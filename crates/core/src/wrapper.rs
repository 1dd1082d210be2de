//! The channel wrapper: per-domain protocol state machine.
//!
//! Each domain owns one [`ChannelWrapper`]. Its behaviour maps onto the paper's
//! Fig. 3 operation paths:
//!
//! | Paper path | Here |
//! |---|---|
//! | **C** (conservative) | initiator sends `CycleOutputs`, awaits the reply, ticks; responder mirrors |
//! | **P** (prediction) | leader predicts the lagger's outputs, ticks ahead, packetizes into the LOB |
//! | **S** (synchronization) | leader flushes the LOB as one burst and blocks in *Get response* |
//! | **L** (lagger) | lagger checks one prediction per consumed entry, ticking on verified data |
//! | **R** (report) | lagger reports success/failure plus its next-cycle outputs |
//! | **F** (roll-forth) | leader replays the verified prefix after a rollback |
//!
//! Transition steps (paper Tbl. 1) follow: run-ahead = leader in P while the
//! lagger sits in L/R/C; follow-up = S/L; rollback = S/L; roll-forth = F/L.
//!
//! The wrapper is co-operatively scheduled: a blocking read returns
//! [`Progress::Blocked`] and the orchestrator runs the peer domain.

use crate::model::{DomainModel, TickKind};
use crate::observer::{EmuEvent, EmuObserver};
use crate::protocol::Message;
use predpkt_channel::{BufferPool, CostedChannel, Packet, Side, Transport};
use predpkt_predict::{Lob, LobEntries};
use predpkt_sim::{
    declare_state, mark_into, rewind_from_vec, CostCategory, Each, SimError, Snapshot,
    SnapshotError, StateReader, StateVec, StateWriter, TimeLedger, TraceMark, VirtualTime,
};
use std::fmt;

/// Operating-mode policy: who may lead, and whether prediction is allowed
/// (paper §2: SLA, ALS, and the conventional conservative mode; §3 problem 4:
/// dynamic mode decisions).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ModePolicy {
    /// Cycle-by-cycle synchronization, no prediction (the baseline).
    Conservative,
    /// Simulator Leading Accelerator, forced.
    ForcedSla,
    /// Accelerator Leading Simulator, forced.
    ForcedAls,
    /// Leader elected per transition from the data-flow source
    /// ([`DomainModel::elect_leader`]).
    Auto,
}

impl ModePolicy {
    /// Resolves (initiator side, optimism allowed) given the model's election.
    pub fn resolve(self, elected: Side) -> (Side, bool) {
        match self {
            ModePolicy::Conservative => (Side::Accelerator, false),
            ModePolicy::ForcedSla => (Side::Simulator, true),
            ModePolicy::ForcedAls => (Side::Accelerator, true),
            ModePolicy::Auto => (elected, true),
        }
    }
}

/// The paper's Fig. 3 operation paths, used for occupancy statistics.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PaperPath {
    /// Roll-forth.
    F,
    /// Prediction (run-ahead).
    P,
    /// Synchronization (flush / get response).
    S,
    /// Lagger (follow-up checking).
    L,
    /// Report.
    R,
    /// Conservative.
    C,
}

impl PaperPath {
    fn index(self) -> usize {
        match self {
            PaperPath::F => 0,
            PaperPath::P => 1,
            PaperPath::S => 2,
            PaperPath::L => 3,
            PaperPath::R => 4,
            PaperPath::C => 5,
        }
    }
}

impl fmt::Display for PaperPath {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{self:?}")
    }
}

/// Per-wrapper statistics.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CwStats {
    /// Transitions completed as leader (success + failure).
    pub transitions: u64,
    /// Transitions whose every prediction checked out.
    pub clean_transitions: u64,
    /// Rollbacks performed (as leader).
    pub rollbacks: u64,
    /// Cycles executed on predicted values (as leader).
    pub predicted_cycles: u64,
    /// Cycles replayed in roll-forth (as leader).
    pub replayed_cycles: u64,
    /// Head cycles executed on report-carried actuals (as leader).
    pub head_cycles: u64,
    /// Conservative cycles executed (either role).
    pub conservative_cycles: u64,
    /// Predictions this wrapper checked as lagger.
    pub checked_predictions: u64,
    /// Checked predictions that failed.
    pub failed_predictions: u64,
    /// LOB flushes sent.
    pub flushes: u64,
    /// Cycle-or-event occupancy per paper path (F, P, S, L, R, C).
    pub path_events: [u64; 6],
}

impl CwStats {
    fn bump(&mut self, path: PaperPath) {
        self.path_events[path.index()] += 1;
    }

    /// Events recorded for `path`.
    pub fn path(&self, path: PaperPath) -> u64 {
        self.path_events[path.index()]
    }

    /// Prediction accuracy observed by this wrapper as lagger, if any
    /// predictions were checked.
    pub fn observed_accuracy(&self) -> Option<f64> {
        (self.checked_predictions > 0)
            .then(|| 1.0 - self.failed_predictions as f64 / self.checked_predictions as f64)
    }

    /// Folds another wrapper's counters into this one — how an N-domain
    /// fabric aggregates the per-port engines a domain runs (one per peer)
    /// into that domain's side of a [`PerfReport`](crate::PerfReport).
    pub fn merge(&mut self, other: &CwStats) {
        self.transitions += other.transitions;
        self.clean_transitions += other.clean_transitions;
        self.rollbacks += other.rollbacks;
        self.predicted_cycles += other.predicted_cycles;
        self.replayed_cycles += other.replayed_cycles;
        self.head_cycles += other.head_cycles;
        self.conservative_cycles += other.conservative_cycles;
        self.checked_predictions += other.checked_predictions;
        self.failed_predictions += other.failed_predictions;
        self.flushes += other.flushes;
        for (mine, theirs) in self.path_events.iter_mut().zip(other.path_events) {
            *mine += theirs;
        }
    }
}

// Sixteen words: the ten counters, then the six per-path occupancy buckets
// (F, P, S, L, R, C).
declare_state! {
    impl CwStats {
        transitions,
        clean_transitions,
        rollbacks,
        predicted_cycles,
        replayed_cycles,
        head_cycles,
        conservative_cycles,
        checked_predictions,
        failed_predictions,
        flushes,
        path_events: Each,
    }
}

/// Scheduling outcome of one `ChannelWrapper::step` call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Progress {
    /// The wrapper did work (ticked, sent, or processed a message).
    Worked,
    /// The wrapper is blocked on a read; run the peer.
    Blocked,
}

/// Virtual-time cost parameters for one domain.
#[derive(Debug, Clone, Copy)]
pub(crate) struct DomainCosts {
    /// One target clock cycle of execution in this domain.
    pub cycle: VirtualTime,
    /// Ledger bucket for cycle execution.
    pub category: CostCategory,
    /// Snapshot cost per rollback variable (word).
    pub store_per_var: VirtualTime,
    /// Restore cost per rollback variable (word).
    pub restore_per_var: VirtualTime,
    /// When set, store/restore bill as if the state had this many variables
    /// (the paper's parametric "1,000 rollback variables").
    pub rollback_vars_override: Option<usize>,
}

/// Smallest adaptive run-ahead: even a failing transition amortizes the two
/// channel accesses over at least this many attempted cycles.
const ADAPTIVE_MIN_DEPTH: usize = 2;

/// Merges the committed prefix of two wrappers' local-output traces into
/// full-bus records.
pub(crate) fn merge_committed_traces<M: DomainModel>(
    sim: &ChannelWrapper<M>,
    acc: &ChannelWrapper<M>,
    merge: impl Fn(&[u64], &[u64]) -> Vec<u64>,
) -> predpkt_sim::Trace {
    let n = sim.cycle().min(acc.cycle()) as usize;
    let mut out = predpkt_sim::Trace::new();
    for i in 0..n {
        let s = sim
            .model()
            .trace()
            .get(i)
            .expect("sim trace holds committed cycles");
        let a = acc
            .model()
            .trace()
            .get(i)
            .expect("acc trace holds committed cycles");
        out.record(merge(s, a));
    }
    out
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    /// Send our handshake.
    HandshakeSend,
    /// Await the peer's handshake.
    HandshakeAwait,
    /// Synchronized: decide the next transition's roles.
    Elect,
    /// Leader: optimistic run-ahead (P-path).
    LeadPredict,
    /// Leader: flushed, awaiting the report (S-3 *Get response*).
    LeadAwaitReport,
    /// Initiator: conservative outputs sent, awaiting the reply (C-path).
    ConsAwaitReply,
    /// Responder: blocked in *Read input data* (C-3 / R-3).
    FollowAwait,
}

/// The wrapper's sending half, a field of its own so that a message may lend
/// the wrapper's other buffers while it is sent.
struct Outbox {
    side: Side,
    /// Where outgoing payloads come from and consumed incoming ones return
    /// to: a transition sends a burst and receives a report (or the reverse),
    /// so after warm-up every payload is a buffer the peer's last message
    /// arrived in.
    pool: BufferPool,
}

impl Outbox {
    /// Encodes `msg` into a pooled payload, sends it and bills the access.
    fn send<T: Transport>(
        &mut self,
        channel: &mut CostedChannel<T>,
        ledger: &mut TimeLedger,
        msg: &Message<'_>,
        obs: &mut dyn EmuObserver,
    ) {
        let mut payload = self.pool.acquire();
        let tag = msg.encode_into(&mut payload);
        let pkt = Packet::new(tag, payload);
        let words = pkt.wire_words();
        let cost = channel.send(self.side, pkt);
        ledger.charge(CostCategory::Channel, cost);
        obs.on_event(
            self.side,
            &EmuEvent::ChannelSend {
                direction: self.side.outbound(),
                words,
                cost,
            },
        );
    }
}

/// Replaces `buf` with `model`'s outputs for the upcoming cycle.
fn refill_outputs<M: DomainModel>(model: &M, buf: &mut Vec<u32>) {
    buf.clear();
    model.local_outputs_into(buf);
}

/// The per-domain protocol engine. See the module docs.
///
/// Every buffer a cycle needs is a field that outlives it — the LOB and its
/// in-flight twin, the burst decode buffer, the two output vectors, the
/// carried actuals, the payload pool — so a committed cycle in steady state
/// allocates nothing here (`tests/alloc_budget.rs` pins that).
pub struct ChannelWrapper<M: DomainModel> {
    model: M,
    side: Side,
    policy: ModePolicy,
    phase: Phase,
    /// The run-ahead being buffered: one flat buffer already in the
    /// packetizer's block layout, filled in place by the model's `_into`
    /// methods and delta-encoded straight into the burst payload.
    lob: Lob,
    /// The leader's rollback mark: one buffer for the wrapper's lifetime,
    /// refilled at every transition start. A clean report releases the mark
    /// and a rollback rewinds to it; either leaves the buffer in place.
    snapshot: StateVec,
    /// The trace mark taken with `snapshot`; `None` while no transition's
    /// snapshot is live, so whatever `snapshot` holds is stale.
    snapshot_mark: Option<TraceMark>,
    /// The entries in flight after a flush (for roll-forth replay): the
    /// flush swaps `lob` with this buffer, so the two trade allocations and
    /// nothing is copied.
    inflight: Lob,
    /// The lagger's decode buffer: a received burst's entries, end to end.
    burst: Vec<u32>,
    /// Scratch for this domain's outputs on their way into a message (a
    /// conservative exchange, a failing cycle's actuals, the leader's
    /// next-cycle outputs).
    outputs: Vec<u32>,
    /// Scratch for the next-cycle outputs a report carries.
    next: Vec<u32>,
    /// Remote Moore outputs for the upcoming cycle (carried by reports and
    /// bursts); meaningful only while `pending_cycle` is set.
    pending_actuals: Vec<u32>,
    /// The cycle index `pending_actuals` is for; `None` when nothing is
    /// carried.
    pending_cycle: Option<u64>,
    /// Whether to exploit report/burst-carried next-cycle outputs for head
    /// cycles (protocol refinement; off for paper-faithful accounting).
    carry_actuals: bool,
    /// Maximum run-ahead (the LOB depth).
    depth_cap: usize,
    /// Current run-ahead target (= cap when not adaptive).
    cur_depth: usize,
    /// Adapt the run-ahead to observed prediction-run lengths: double on a
    /// clean transition, shrink to the achieved run on a failure.
    adaptive_depth: bool,
    stats: CwStats,
    outbox: Outbox,
    /// Set when a restore failed partway, leaving the model in an undefined
    /// mixture of old and new state. Every further [`step`](Self::step) then
    /// refuses with [`SimError::StatePoisoned`] — a half-restored run must
    /// never silently diverge.
    poisoned: Option<SnapshotError>,
}

impl<M: DomainModel> ChannelWrapper<M> {
    /// Creates a wrapper around a domain model.
    pub fn new(model: M, lob_depth: usize, policy: ModePolicy) -> Self {
        let side = model.side();
        let lob = Lob::new(lob_depth, model.local_width(), model.remote_width());
        ChannelWrapper {
            side,
            policy,
            phase: Phase::HandshakeSend,
            inflight: lob.clone(),
            lob,
            snapshot: StateVec::new(),
            snapshot_mark: None,
            burst: Vec::new(),
            outputs: Vec::with_capacity(model.local_width()),
            next: Vec::with_capacity(model.local_width()),
            pending_actuals: Vec::with_capacity(model.remote_width()),
            pending_cycle: None,
            carry_actuals: true,
            depth_cap: lob_depth,
            cur_depth: lob_depth,
            adaptive_depth: false,
            stats: CwStats::default(),
            outbox: Outbox {
                side,
                pool: BufferPool::new(),
            },
            poisoned: None,
            model,
        }
    }

    /// Enables or disables the head-actuals carry refinement.
    pub fn with_carry_actuals(mut self, enabled: bool) -> Self {
        self.carry_actuals = enabled;
        self
    }

    /// Enables adaptive run-ahead depth (see [`ChannelWrapper`] field docs).
    pub fn with_adaptive_depth(mut self, enabled: bool) -> Self {
        self.adaptive_depth = enabled;
        if enabled {
            self.cur_depth = ADAPTIVE_MIN_DEPTH.min(self.depth_cap);
        }
        self
    }

    /// The wrapped model.
    pub fn model(&self) -> &M {
        &self.model
    }

    /// Consumes the wrapper, returning the model — for salvaging the domain
    /// models out of a dead session so a fresh one can be rebuilt around
    /// them (a checkpoint restore overwrites every bit of model state, so
    /// the models' current values are irrelevant).
    pub fn into_model(self) -> M {
        self.model
    }

    /// Statistics so far.
    pub fn stats(&self) -> &CwStats {
        &self.stats
    }

    /// Committed cycles of this domain (leader counts speculative ticks until
    /// rolled back; use the minimum across domains for the global figure).
    pub fn cycle(&self) -> u64 {
        self.model.cycle()
    }

    /// `true` while the wrapper sits at a transition boundary (synchronized
    /// with its peer, about to elect the next transition's roles). The
    /// session runners halt domains only here, so the stop point is a
    /// deterministic protocol event independent of scheduling.
    pub(crate) fn at_transition_boundary(&self) -> bool {
        self.phase == Phase::Elect
    }

    /// The restore failure that quarantined this wrapper, if any.
    pub(crate) fn poisoned(&self) -> Option<&SnapshotError> {
        self.poisoned.as_ref()
    }

    /// Quarantines the wrapper after an external restore failure (the
    /// session-level checkpoint restore poisons *both* wrappers when either
    /// side's section fails, so a half-restored pair can never step).
    pub(crate) fn poison(&mut self, err: SnapshotError) {
        self.poisoned = Some(err);
    }

    /// Serializes everything live at a transition boundary: the model (its
    /// own [`Snapshot`]), the committed trace (outside the model snapshot by
    /// contract), the carried next-cycle actuals, the adaptive run-ahead
    /// depth, and the statistics. Transient transition state (LOB, rollback
    /// snapshot, in-flight entries) is empty at a boundary by construction
    /// and is reset on restore instead of serialized.
    pub(crate) fn checkpoint_save(&self, w: &mut StateWriter<'_>) {
        debug_assert!(
            self.at_transition_boundary(),
            "checkpoints are taken only at committed boundaries"
        );
        w.section("model");
        self.model.save(w);
        w.section("trace");
        self.model.trace().save(w);
        w.section("wrapper");
        match self.pending_cycle {
            None => {
                w.bool(false);
            }
            Some(cycle) => {
                w.bool(true).word(cycle).slice_u32(&self.pending_actuals);
            }
        }
        w.usize(self.cur_depth);
        self.stats.save(w);
    }

    /// Restores a [`checkpoint_save`](Self::checkpoint_save) cut, resetting
    /// the wrapper to the boundary phase. On failure the wrapper poisons
    /// itself — the model may hold a mixture of old and new state.
    pub(crate) fn checkpoint_restore(
        &mut self,
        r: &mut StateReader<'_>,
    ) -> Result<(), SnapshotError> {
        if let Err(err) = self.checkpoint_restore_inner(r) {
            self.poisoned = Some(err.clone());
            return Err(err);
        }
        self.poisoned = None;
        Ok(())
    }

    fn checkpoint_restore_inner(&mut self, r: &mut StateReader<'_>) -> Result<(), SnapshotError> {
        self.model.restore(r)?;
        self.model.trace_mut().restore(r)?;
        self.pending_cycle = None;
        if r.bool()? {
            let cycle = r.word()?;
            // The carried actuals pass the gate every peer vector passes:
            // refused at their length word if it is not the peer's width,
            // else at their first word.
            let at = r.position();
            r.slice_u32_into(&mut self.pending_actuals)?;
            if !self.model.check_remote(&self.pending_actuals) {
                let right_width = self.pending_actuals.len() == self.model.remote_width();
                return Err(r.corrupt_at(at + usize::from(right_width)));
            }
            self.pending_cycle = Some(cycle);
        }
        let at = r.position();
        self.cur_depth = r.usize()?;
        if !(1..=self.depth_cap).contains(&self.cur_depth) {
            return Err(r.corrupt_at(at));
        }
        self.stats.restore(r)?;
        self.phase = Phase::Elect;
        self.lob.clear();
        self.snapshot_mark = None;
        self.inflight.clear();
        Ok(())
    }

    fn bill_cycle(&self, ledger: &mut TimeLedger, costs: &DomainCosts) {
        ledger.charge(costs.category, costs.cycle);
    }

    /// The rollback variables one store or restore of `snapshot` bills: the
    /// model's declared state, whatever part of it the mark copied.
    fn rollback_vars(&self, costs: &DomainCosts) -> u64 {
        costs
            .rollback_vars_override
            .unwrap_or(self.snapshot.billed_len()) as u64
    }

    fn take_snapshot(&mut self, ledger: &mut TimeLedger, costs: &DomainCosts) {
        mark_into(&mut self.model, &mut self.snapshot);
        let vars = self.rollback_vars(costs);
        ledger.charge(CostCategory::StateStore, costs.store_per_var * vars);
        self.snapshot_mark = Some(self.model.trace_mark());
    }

    /// The gate every peer-supplied output vector passes before the model
    /// sees it: `what` names its position in the message for the error.
    fn check_remote(&self, remote: &[u32], what: &str) -> Result<(), SimError> {
        if self.model.check_remote(remote) {
            Ok(())
        } else {
            Err(SimError::Config(format!(
                "protocol: malformed signal word in {what}"
            )))
        }
    }

    /// Keeps `next` — checked peer outputs for cycle `self.model.cycle()` —
    /// as head actuals for a transition this domain may lead.
    fn carry(&mut self, next: &[u32]) {
        self.pending_actuals.clear();
        self.pending_actuals.extend_from_slice(next);
        self.pending_cycle = Some(self.model.cycle());
    }

    /// Runs one scheduling quantum. Returns [`Progress::Blocked`] when waiting
    /// for a message that has not arrived.
    ///
    /// # Errors
    ///
    /// Returns [`SimError`] on protocol violations or snapshot corruption.
    pub(crate) fn step<T: Transport>(
        &mut self,
        channel: &mut CostedChannel<T>,
        ledger: &mut TimeLedger,
        costs: &DomainCosts,
        obs: &mut dyn EmuObserver,
    ) -> Result<Progress, SimError> {
        if let Some(err) = &self.poisoned {
            return Err(SimError::StatePoisoned(err.clone()));
        }
        match self.phase {
            Phase::HandshakeSend => {
                let msg = Message::Handshake {
                    local_width: self.model.local_width(),
                    remote_width: self.model.remote_width(),
                };
                self.outbox.send(channel, ledger, &msg, obs);
                self.phase = Phase::HandshakeAwait;
                Ok(Progress::Worked)
            }
            Phase::Elect => {
                let (initiator, optimistic) = self.policy.resolve(self.model.elect_leader());
                if initiator != self.side {
                    self.phase = Phase::FollowAwait;
                    return Ok(Progress::Worked);
                }
                if !optimistic || self.model.needs_sync() {
                    // C-path: conservative cycle with initiative.
                    obs.on_event(
                        self.side,
                        &EmuEvent::TransitionStarted {
                            leader: self.side,
                            optimistic: false,
                        },
                    );
                    self.pending_cycle = None;
                    refill_outputs(&self.model, &mut self.outputs);
                    let msg = Message::CycleOutputs {
                        outputs: &self.outputs,
                    };
                    self.outbox.send(channel, ledger, &msg, obs);
                    self.phase = Phase::ConsAwaitReply;
                    return Ok(Progress::Worked);
                }
                obs.on_event(
                    self.side,
                    &EmuEvent::TransitionStarted {
                        leader: self.side,
                        optimistic: true,
                    },
                );
                // Start a transition: optional head cycle on actuals (the
                // conventional first P-path cycle, P-5/P-6), then snapshot.
                self.inflight.clear();
                if self.pending_cycle.take() == Some(self.model.cycle()) && self.carry_actuals {
                    let model = &self.model;
                    self.lob
                        .push_with(false, |entry| model.local_outputs_into(entry))
                        .expect("head entry always fits");
                    self.model.tick(&self.pending_actuals, TickKind::Actual);
                    self.bill_cycle(ledger, costs);
                    self.stats.head_cycles += 1;
                    self.stats.bump(PaperPath::P);
                }
                self.take_snapshot(ledger, costs);
                self.phase = Phase::LeadPredict;
                Ok(Progress::Worked)
            }
            Phase::LeadPredict => {
                if self.lob.predictions() >= self.cur_depth
                    || (self.model.needs_sync() && !self.lob.is_empty())
                {
                    // S-path: flush the LOB as one burst.
                    obs.on_event(
                        self.side,
                        &EmuEvent::LobFlush {
                            entries: self.lob.len(),
                            predictions: self.lob.predictions(),
                        },
                    );
                    refill_outputs(&self.model, &mut self.outputs);
                    let msg = Message::Burst {
                        entries: self.lob.entries(),
                        leader_next: &self.outputs,
                    };
                    self.outbox.send(channel, ledger, &msg, obs);
                    // What was flushed is now in flight; the buffer that was
                    // in flight last time takes the next run-ahead.
                    std::mem::swap(&mut self.lob, &mut self.inflight);
                    self.lob.clear();
                    self.stats.flushes += 1;
                    self.stats.bump(PaperPath::S);
                    // Strategy-coordination words (adaptive suites) piggyback
                    // on the burst just sent: bill them per-word, no access.
                    let control = self.model.take_control_words();
                    if control > 0 {
                        let cost = channel.bill_control(self.side, control);
                        ledger.charge(CostCategory::Channel, cost);
                    }
                    self.phase = Phase::LeadAwaitReport;
                    return Ok(Progress::Worked);
                }
                debug_assert!(
                    !self.model.needs_sync(),
                    "sync need with an empty LOB must be handled in Elect"
                );
                // P-path: one optimistic cycle, its entry written in place
                // and the model ticked from the prediction as buffered.
                let model = &mut self.model;
                let entry = self
                    .lob
                    .push_with(true, |entry| {
                        model.local_outputs_into(entry);
                        model.predict_remote_into(entry);
                    })
                    .expect("checked is_full above");
                let predicted = entry.predicted.expect("pushed with a prediction");
                self.model.tick(predicted, TickKind::Predicted);
                self.bill_cycle(ledger, costs);
                self.stats.predicted_cycles += 1;
                self.stats.bump(PaperPath::P);
                Ok(Progress::Worked)
            }
            Phase::HandshakeAwait
            | Phase::LeadAwaitReport
            | Phase::ConsAwaitReply
            | Phase::FollowAwait => {
                let Some(pkt) = channel.recv(self.side) else {
                    return Ok(Progress::Blocked);
                };
                // The message lends the packet and (a burst) the decode
                // buffer, which leaves `self` for the duration so the handler
                // may borrow the rest of it.
                let mut burst = std::mem::take(&mut self.burst);
                let (local_width, remote_width) =
                    (self.model.local_width(), self.model.remote_width());
                let handled = Message::decode(&pkt, local_width, remote_width, &mut burst)
                    .map_err(|e| SimError::Config(format!("protocol: {e}")))
                    .and_then(|msg| self.receive(msg, channel, ledger, costs, obs));
                self.burst = burst;
                self.outbox.pool.release(pkt.into_payload());
                handled.map(|()| Progress::Worked)
            }
        }
    }

    /// Handles the message a receiving phase was blocked on.
    fn receive<T: Transport>(
        &mut self,
        msg: Message<'_>,
        channel: &mut CostedChannel<T>,
        ledger: &mut TimeLedger,
        costs: &DomainCosts,
        obs: &mut dyn EmuObserver,
    ) -> Result<(), SimError> {
        match (self.phase, msg) {
            (
                Phase::HandshakeAwait,
                Message::Handshake {
                    local_width,
                    remote_width,
                },
            ) => {
                if local_width != self.model.remote_width()
                    || remote_width != self.model.local_width()
                {
                    return Err(SimError::Config(format!(
                        "width disagreement: peer {local_width}/{remote_width}, \
                         local {}/{}",
                        self.model.local_width(),
                        self.model.remote_width()
                    )));
                }
                obs.on_event(self.side, &EmuEvent::HandshakeComplete);
            }
            (Phase::LeadAwaitReport, Message::ReportSuccess { next }) => {
                self.check_remote(next, "a report's next-cycle outputs")?;
                obs.on_event(
                    self.side,
                    &EmuEvent::ReportReceived {
                        success: true,
                        failed_index: None,
                    },
                );
                self.stats.transitions += 1;
                self.stats.clean_transitions += 1;
                if self.adaptive_depth {
                    self.cur_depth = (self.cur_depth * 2).min(self.depth_cap);
                }
                self.carry(next);
                self.model.release();
                self.snapshot_mark = None;
                self.inflight.clear();
            }
            (
                Phase::LeadAwaitReport,
                Message::ReportFailure {
                    failed_index,
                    actual,
                    next,
                },
            ) => {
                self.check_remote(actual, "a report's actual outputs")?;
                self.check_remote(next, "a report's next-cycle outputs")?;
                // Only an entry that carried a prediction can have failed.
                let checked = self.head_count()..self.inflight.len();
                if !checked.contains(&failed_index) {
                    return Err(SimError::Config(format!(
                        "protocol: failure report names entry {failed_index}, \
                         outside the checked entries {checked:?} of its burst"
                    )));
                }
                obs.on_event(
                    self.side,
                    &EmuEvent::ReportReceived {
                        success: false,
                        failed_index: Some(failed_index),
                    },
                );
                self.stats.transitions += 1;
                self.stats.rollbacks += 1;
                if self.adaptive_depth {
                    // Aim the next run-ahead at the run length that was
                    // actually achievable this time.
                    self.cur_depth = failed_index.max(ADAPTIVE_MIN_DEPTH).min(self.depth_cap);
                }
                self.roll_back_and_forth(failed_index, actual, ledger, costs, obs)?;
                self.carry(next);
            }
            (Phase::ConsAwaitReply, Message::CycleOutputs { outputs }) => {
                self.check_remote(outputs, "cycle outputs")?;
                self.conservative_tick(outputs, ledger, costs, obs);
            }
            (Phase::FollowAwait, Message::CycleOutputs { outputs }) => {
                // C-path responder: reply with our outputs, then tick.
                self.check_remote(outputs, "cycle outputs")?;
                refill_outputs(&self.model, &mut self.outputs);
                let mine = Message::CycleOutputs {
                    outputs: &self.outputs,
                };
                self.outbox.send(channel, ledger, &mine, obs);
                self.conservative_tick(outputs, ledger, costs, obs);
            }
            (
                Phase::FollowAwait,
                Message::Burst {
                    entries,
                    leader_next,
                },
            ) => {
                self.check_remote(leader_next, "a burst's leader-next outputs")?;
                self.follow_burst(entries, leader_next, channel, ledger, costs, obs)?;
            }
            (phase, other) => {
                return Err(SimError::Config(format!(
                    "protocol: {phase:?} did not expect {:?}",
                    other.tag()
                )));
            }
        }
        self.phase = Phase::Elect;
        Ok(())
    }

    /// One conservative cycle on the peer's exchanged outputs (either role).
    fn conservative_tick(
        &mut self,
        outputs: &[u32],
        ledger: &mut TimeLedger,
        costs: &DomainCosts,
        obs: &mut dyn EmuObserver,
    ) {
        self.model.tick(outputs, TickKind::Actual);
        self.bill_cycle(ledger, costs);
        self.stats.conservative_cycles += 1;
        self.stats.bump(PaperPath::C);
        obs.on_event(self.side, &EmuEvent::ConservativeCycle);
    }

    /// L/R-paths: consume a burst, checking one prediction per entry.
    fn follow_burst<T: Transport>(
        &mut self,
        entries: LobEntries<'_>,
        leader_next: &[u32],
        channel: &mut CostedChannel<T>,
        ledger: &mut TimeLedger,
        costs: &DomainCosts,
        obs: &mut dyn EmuObserver,
    ) -> Result<(), SimError> {
        for (idx, entry) in entries.iter().enumerate() {
            // Entries past a failed prediction are never looked at, so each
            // is checked as it is reached.
            self.check_remote(entry.local, "a burst entry's outputs")?;
            let verified = match entry.predicted {
                None => {
                    self.model.tick(entry.local, TickKind::Actual);
                    true
                }
                Some(predicted) => {
                    self.stats.checked_predictions += 1;
                    self.model
                        .verify_and_tick(entry.local, predicted, &mut self.outputs)
                }
            };
            self.bill_cycle(ledger, costs);
            self.stats.bump(PaperPath::L);
            if !verified {
                // L-5: the failing cycle itself committed (the leader's
                // outputs for it depend only on verified predictions), and
                // `outputs` holds ours for it: report and invalidate the rest.
                self.stats.failed_predictions += 1;
                refill_outputs(&self.model, &mut self.next);
                let report = Message::ReportFailure {
                    failed_index: idx,
                    actual: &self.outputs,
                    next: &self.next,
                };
                self.outbox.send(channel, ledger, &report, obs);
                self.pending_cycle = None;
                return Ok(());
            }
        }
        // R-path: all predictions correct.
        refill_outputs(&self.model, &mut self.next);
        let report = Message::ReportSuccess { next: &self.next };
        self.outbox.send(channel, ledger, &report, obs);
        self.stats.bump(PaperPath::R);
        // The burst carried the leader's next outputs: valid head actuals if we
        // lead the next transition.
        self.carry(leader_next);
        Ok(())
    }

    /// The in-flight entries a leader ran on carried actuals: the leading
    /// ones, with no prediction. They are inside the mark, so a failure
    /// report names an entry after them.
    fn head_count(&self) -> usize {
        self.inflight
            .entries()
            .iter()
            .take_while(|e| e.predicted.is_none())
            .count()
    }

    /// RB + RF: rewind to the mark and replay the verified prefix (F-path).
    fn roll_back_and_forth(
        &mut self,
        failed_index: usize,
        actual: &[u32],
        ledger: &mut TimeLedger,
        costs: &DomainCosts,
        obs: &mut dyn EmuObserver,
    ) -> Result<(), SimError> {
        let mark = self
            .snapshot_mark
            .take()
            .ok_or_else(|| SimError::Config("rollback without a snapshot".into()))?;
        let vars = self.rollback_vars(costs);
        ledger.charge(CostCategory::StateRestore, costs.restore_per_var * vars);
        rewind_from_vec(&mut self.model, &self.snapshot);
        self.model.trace_truncate(mark);

        // Roll-forth: replay the verified prefix with its recorded predictions
        // (projection-verified, so state evolution matches the lagger), then
        // the failing cycle with the reported actuals. Head entries executed on
        // actual values are *inside* the snapshot and must not be replayed.
        let inflight = self.inflight.entries();
        let head_count = self.head_count();
        for entry in inflight
            .iter()
            .skip(head_count)
            .take(failed_index - head_count)
        {
            let values = entry.predicted.expect("prefix entries carry predictions");
            self.model.tick(values, TickKind::Actual);
            self.bill_cycle(ledger, costs);
            self.stats.replayed_cycles += 1;
            self.stats.bump(PaperPath::F);
        }
        self.inflight.clear();
        self.model.tick(actual, TickKind::Actual);
        self.bill_cycle(ledger, costs);
        self.stats.replayed_cycles += 1;
        self.stats.bump(PaperPath::F);
        obs.on_event(
            self.side,
            &EmuEvent::Rollback {
                failed_index,
                replayed: (failed_index - head_count) as u64 + 1,
            },
        );
        Ok(())
    }
}

impl<M: DomainModel + fmt::Debug> fmt::Debug for ChannelWrapper<M> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ChannelWrapper")
            .field("side", &self.side)
            .field("phase", &self.phase)
            .field("cycle", &self.model.cycle())
            .field("lob_len", &self.lob.len())
            .finish()
    }
}
