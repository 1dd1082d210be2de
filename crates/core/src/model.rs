//! The domain-model abstraction the protocol engine drives.

use predpkt_channel::Side;
use predpkt_sim::{Snapshot, Trace, TraceMark};

/// How a cycle's remote values were obtained.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TickKind {
    /// Remote values are actual (exchanged or verified): predictors train on
    /// them.
    Actual,
    /// Remote values were produced by [`DomainModel::predict_remote`], which
    /// already advanced the predictors.
    Predicted,
}

/// One verification domain as the channel wrapper sees it.
///
/// Implementations: [`AhbDomainModel`](crate::AhbDomainModel) (the real
/// half-bus SoC) and the controlled-accuracy synthetic model in
/// `predpkt-workloads`. The protocol engine is generic over this trait, so the
/// paper's parametric evaluation exercises exactly the code that runs the real
/// system.
///
/// # Contract
///
/// * The model is a Moore machine: [`local_outputs`](DomainModel::local_outputs)
///   is a pure function of state, [`tick`](DomainModel::tick) advances one
///   cycle given the remote domain's outputs for that cycle. The wrapper may
///   ask for the outputs any number of times between two ticks (a LOB entry,
///   a conservative exchange, a replay) and gets the same words each time, so
///   a model whose outputs cost something to evaluate computes them once per
///   state change and makes
///   [`local_outputs_into`](DomainModel::local_outputs_into) a copy, as
///   [`AhbDomainModel`](crate::AhbDomainModel) does.
/// * Output widths are constant for the lifetime of the model and mirror the
///   peer's (`self.local_width() == peer.remote_width()`).
/// * `tick` must append the cycle's local outputs to [`trace`](DomainModel::trace)
///   so committed traces can be merged and compared against a golden run.
/// * [`Snapshot`] must capture everything `tick` depends on — components,
///   fabric replica, predictors, proxy values — but **not** the trace (the
///   wrapper truncates it with marks on rollback).
/// * The leader [`mark`](Snapshot::mark)s at a transition start, then
///   [`release`](Snapshot::release)s on a clean report or
///   [`rewind`](Snapshot::rewind)s on a rollback; a model overrides all three
///   or none (see the cost contract in `predpkt_sim`'s snapshot module).
///
/// # The per-cycle path
///
/// Every committed cycle the wrapper calls
/// [`local_outputs_into`](DomainModel::local_outputs_into),
/// [`predict_remote_into`](DomainModel::predict_remote_into) (leader),
/// [`check_remote`](DomainModel::check_remote) and
/// [`tick`](DomainModel::tick) — or, for an entry whose prediction the
/// lagger checks, [`verify_and_tick`](DomainModel::verify_and_tick) —
/// plus the cheap queries. The `_into` forms *append* to a buffer the
/// wrapper keeps (a LOB entry, a pooled payload) and are what the wrapper
/// calls; a model for which speed matters overrides them and allocates
/// nothing in steady state — in them, in `tick` (record the trace with
/// [`Trace::record_words`]) or in the lagger's check. The provided bodies go
/// through the allocating required forms, so a model that implements only
/// those behaves identically, one vector per call slower.
///
/// The required methods' signatures are frozen while
/// `benchmark/src/timed.rs` implements this trait: new methods must be
/// provided ones. A decorator that does not forward a provided method gets
/// the provided body — correct, but it allocates where the wrapped model
/// would not, and it skips the model's `check_remote`.
pub trait DomainModel: Snapshot {
    /// Which side of the channel this domain is.
    fn side(&self) -> Side;

    /// Completed ticks; also the index of the next cycle to execute.
    fn cycle(&self) -> u64;

    /// Width (words) of this domain's packed local outputs.
    fn local_width(&self) -> usize;

    /// Width (words) of the peer's packed outputs.
    fn remote_width(&self) -> usize;

    /// This domain's packed Moore outputs for the upcoming cycle.
    fn local_outputs(&self) -> Vec<u32>;

    /// Appends [`local_outputs`](DomainModel::local_outputs) to `out`.
    fn local_outputs_into(&self, out: &mut Vec<u32>) {
        out.extend_from_slice(&self.local_outputs());
    }

    /// `true` if the upcoming cycle needs unpredictable inbound data
    /// (lagger→leader read data or write data, §3's data rule) and therefore
    /// forces synchronization.
    fn needs_sync(&self) -> bool;

    /// Which side should lead the next transition (the data-flow-source rule);
    /// must be a pure function of synchronized state so both replicas agree.
    fn elect_leader(&self) -> Side;

    /// Predicts the peer's packed outputs for the upcoming cycle, advancing
    /// predictor state along the speculative timeline.
    fn predict_remote(&mut self) -> Vec<u32>;

    /// Appends [`predict_remote`](DomainModel::predict_remote) to `out`.
    fn predict_remote_into(&mut self, out: &mut Vec<u32>) {
        out.extend_from_slice(&self.predict_remote());
    }

    /// `true` if `remote` — `remote_width` words a peer sent as its outputs —
    /// is a vector [`tick`](DomainModel::tick) can take. The wrapper asks
    /// before it hands any peer-supplied outputs to the model and fails the
    /// session with a protocol error otherwise, so `tick` may treat a
    /// malformed vector as a broken internal condition. Predictions are not
    /// checked here: a malformed one simply does not verify. Models whose
    /// `tick` accepts any words keep the provided `true`.
    fn check_remote(&self, _remote: &[u32]) -> bool {
        true
    }

    /// Advances one cycle given the peer's outputs for that cycle.
    fn tick(&mut self, remote: &[u32], kind: TickKind);

    /// Drains control words the model's predictors owe the channel (e.g.
    /// adaptive-suite strategy epochs). The wrapper collects these when it
    /// flushes a burst and bills them through the cost model as piggybacked
    /// payload, so strategy coordination shows up in traffic accounting.
    /// Models without billable predictors owe nothing.
    fn take_control_words(&mut self) -> u64 {
        0
    }

    /// Lagger-side check: would the leader's prediction `predicted_me` of this
    /// domain's outputs have been adequate for the upcoming cycle — equal in
    /// every *active* signal position (the MSABS projection, §3) — given the
    /// leader's actual outputs `leader_outputs`?
    fn verify_prediction(&self, leader_outputs: &[u32], predicted_me: &[u32]) -> bool;

    /// The lagger's step for one checked burst entry: whether the leader's
    /// prediction `predicted_me` verifies against `leader_outputs`, as
    /// [`verify_prediction`](DomainModel::verify_prediction) says, then one
    /// [`tick`](DomainModel::tick) on `leader_outputs` as
    /// [`TickKind::Actual`] — a failing cycle commits too. When the check
    /// fails, `before` is replaced by this domain's outputs for the cycle
    /// just ticked (the failure report's actuals); otherwise it is left as
    /// it was.
    ///
    /// The provided body is those two calls. A model that can check and
    /// tick on one evaluation of the cycle overrides it, as
    /// [`AhbDomainModel`](crate::AhbDomainModel) does. A decorator that does
    /// not forward it gets the provided body, so the wrapped model's
    /// `verify_prediction` and `tick` still run as two calls: the traced
    /// reps of `benchmark/src/timed.rs` time `ahb.verify` apart from
    /// `ahb.tick` that way.
    fn verify_and_tick(
        &mut self,
        leader_outputs: &[u32],
        predicted_me: &[u32],
        before: &mut Vec<u32>,
    ) -> bool {
        let verified = self.verify_prediction(leader_outputs, predicted_me);
        if !verified {
            before.clear();
            self.local_outputs_into(before);
        }
        self.tick(leader_outputs, TickKind::Actual);
        verified
    }

    /// The committed local-outputs trace.
    fn trace(&self) -> &Trace;

    /// Exclusive access to the committed trace — for whole-session
    /// checkpoint/restore only. The trace lives *outside* the model's
    /// [`Snapshot`] (rollback truncates it with marks), so a session
    /// checkpoint captures and restores it through this accessor.
    fn trace_mut(&mut self) -> &mut Trace;

    /// Marks the trace for possible rollback.
    fn trace_mark(&self) -> TraceMark;

    /// Discards speculative trace records past `mark`.
    fn trace_truncate(&mut self, mark: TraceMark);
}
