//! The co-emulation orchestrator.

use crate::blueprint::SocBlueprint;
use crate::checkpoint::{CheckpointError, SessionCheckpoint};
use crate::engine::Engine;
use crate::model::DomainModel;
use crate::observer::EmuObserver;
use crate::report::PerfReport;
use crate::wrapper::{CwStats, DomainCosts, ModePolicy};
use crate::AhbDomainModel;
use predpkt_ahb::bus::BusConfigError;
use predpkt_channel::{ChannelCostModel, ChannelStats, QueueTransport, Side, Transport};
use predpkt_sim::{CostCategory, Frequency, SimError, Snapshot, TimeLedger, Trace, VirtualTime};
use std::error::Error;
use std::fmt;

/// A rejected co-emulation configuration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ConfigError {
    /// The LOB depth was zero (the leader could never run ahead).
    ZeroLobDepth,
    /// A domain speed was zero cycles per second.
    ZeroSpeed {
        /// The offending domain.
        side: Side,
    },
    /// A fault-injection rate was not a probability.
    InvalidFaultSpec {
        /// The offending `FaultSpec` field.
        field: &'static str,
        /// Why the value was rejected.
        detail: String,
    },
    /// A reliable-transport knob was rejected (zero window, zero retry
    /// budget, or a degenerate timeout).
    InvalidReliableConfig {
        /// The offending `ReliableConfig` field.
        field: &'static str,
        /// Why the value was rejected.
        detail: String,
    },
    /// A session was asked for fewer than two domains — there is no channel
    /// to co-emulate over.
    TooFewDomains {
        /// The rejected domain count.
        domains: usize,
    },
}

impl ConfigError {
    /// Lifts a channel-layer [`KnobError`] from `FaultSpec::validate`,
    /// preserving the offending field name.
    pub(crate) fn invalid_fault_spec(e: predpkt_channel::KnobError) -> Self {
        ConfigError::InvalidFaultSpec {
            field: e.field,
            detail: e.detail,
        }
    }

    /// Lifts a channel-layer [`KnobError`] from `ReliableConfig::validate`,
    /// preserving the offending field name.
    pub(crate) fn invalid_reliable_config(e: predpkt_channel::KnobError) -> Self {
        ConfigError::InvalidReliableConfig {
            field: e.field,
            detail: e.detail,
        }
    }

    /// The offending configuration field, when the error concerns one —
    /// uniform across the fault-spec and reliable-transport paths.
    pub fn field(&self) -> Option<&'static str> {
        match self {
            ConfigError::InvalidFaultSpec { field, .. }
            | ConfigError::InvalidReliableConfig { field, .. } => Some(field),
            _ => None,
        }
    }
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConfigError::ZeroLobDepth => write!(f, "LOB depth must be non-zero"),
            ConfigError::ZeroSpeed { side } => {
                write!(f, "{side:?} speed must be non-zero")
            }
            ConfigError::InvalidFaultSpec { field, detail } => {
                write!(f, "invalid fault spec: {field}: {detail}")
            }
            ConfigError::InvalidReliableConfig { field, detail } => {
                write!(f, "invalid reliable transport config: {field}: {detail}")
            }
            ConfigError::TooFewDomains { domains } => {
                write!(f, "a session needs at least two domains (got {domains})")
            }
        }
    }
}

impl Error for ConfigError {}

/// Configuration of a co-emulation run: domain speeds, LOB depth, operating
/// mode, channel and rollback cost models.
#[derive(Debug, Clone, Copy)]
pub struct CoEmuConfig {
    /// Simulator speed (the paper evaluates 100 k and 1,000 kcycles/s).
    pub sim_speed: Frequency,
    /// Accelerator speed (the paper fixes 10 Mcycles/s).
    pub acc_speed: Frequency,
    /// LOB depth (the paper evaluates 8 and 64).
    pub lob_depth: usize,
    /// Operating-mode policy.
    pub policy: ModePolicy,
    /// Channel cost model.
    pub channel: ChannelCostModel,
    /// Simulator-side snapshot cost per rollback variable (memcpy-style).
    pub sim_store_per_var: VirtualTime,
    /// Accelerator-side snapshot cost per rollback variable (hardware shadow
    /// copy; calibrated to the paper's Tstore row).
    pub acc_store_per_var: VirtualTime,
    /// When set, store/restore costs bill as if the leader state had this many
    /// variables (the paper's parametric "1,000 rollback variables").
    pub rollback_vars_override: Option<usize>,
    /// Whether reports and bursts carry the sender's next-cycle outputs so the
    /// next transition's head cycle runs on actual values (a protocol
    /// refinement over the paper; disable for paper-faithful accounting).
    pub carry_actuals: bool,
    /// Adaptive run-ahead depth: ramp toward the LOB cap on clean transitions,
    /// shrink to the observed run length on failures. Matches the paper's
    /// low-accuracy behaviour far better than a fixed full-depth run-ahead.
    pub adaptive_depth: bool,
}

impl CoEmuConfig {
    /// The paper's Table 2 configuration: simulator 1,000 kcycles/s,
    /// accelerator 10 Mcycles/s, LOB depth 64, iPROVE PCI channel, 1,000
    /// rollback variables, forced ALS.
    pub fn paper_defaults() -> Self {
        CoEmuConfig {
            sim_speed: Frequency::from_kcycles_per_sec(1_000),
            acc_speed: Frequency::from_mcycles_per_sec(10),
            lob_depth: 64,
            policy: ModePolicy::ForcedAls,
            channel: ChannelCostModel::iprove_pci(),
            sim_store_per_var: VirtualTime::from_picos(10_000), // 10 ns
            acc_store_per_var: VirtualTime::from_picos(30),     // 0.03 ns
            rollback_vars_override: Some(1_000),
            carry_actuals: false,
            adaptive_depth: false,
        }
    }

    /// Overrides the simulator speed.
    pub fn sim_speed(mut self, f: Frequency) -> Self {
        self.sim_speed = f;
        self
    }

    /// Overrides the accelerator speed.
    pub fn acc_speed(mut self, f: Frequency) -> Self {
        self.acc_speed = f;
        self
    }

    /// Overrides the LOB depth, rejecting invalid depths.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError::ZeroLobDepth`] if `depth` is zero.
    pub fn try_lob_depth(mut self, depth: usize) -> Result<Self, ConfigError> {
        if depth == 0 {
            return Err(ConfigError::ZeroLobDepth);
        }
        self.lob_depth = depth;
        Ok(self)
    }

    /// Checks the configuration for internal consistency. The
    /// [`EmuSession`](crate::EmuSession) builder calls this before
    /// constructing anything.
    ///
    /// # Errors
    ///
    /// Returns the first [`ConfigError`] found.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.lob_depth == 0 {
            return Err(ConfigError::ZeroLobDepth);
        }
        if self.sim_speed.cycles_per_sec() == 0 {
            return Err(ConfigError::ZeroSpeed {
                side: Side::Simulator,
            });
        }
        if self.acc_speed.cycles_per_sec() == 0 {
            return Err(ConfigError::ZeroSpeed {
                side: Side::Accelerator,
            });
        }
        Ok(())
    }

    /// Overrides the operating-mode policy.
    pub fn policy(mut self, policy: ModePolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Overrides the channel cost model.
    pub fn channel(mut self, channel: ChannelCostModel) -> Self {
        self.channel = channel;
        self
    }

    /// Overrides the rollback-variable count used for store/restore costing
    /// (`None` bills actual snapshot size).
    pub fn rollback_vars(mut self, vars: Option<usize>) -> Self {
        self.rollback_vars_override = vars;
        self
    }

    /// Enables or disables the head-actuals carry refinement (see
    /// [`CoEmuConfig::carry_actuals`]).
    pub fn carry(mut self, enabled: bool) -> Self {
        self.carry_actuals = enabled;
        self
    }

    /// Enables or disables adaptive run-ahead depth (see
    /// [`CoEmuConfig::adaptive_depth`]).
    pub fn adaptive(mut self, enabled: bool) -> Self {
        self.adaptive_depth = enabled;
        self
    }

    pub(crate) fn costs_for(&self, side: Side) -> DomainCosts {
        match side {
            Side::Simulator => DomainCosts {
                cycle: self.sim_speed.cycle_time(),
                category: CostCategory::Simulator,
                store_per_var: self.sim_store_per_var,
                restore_per_var: self.sim_store_per_var,
                rollback_vars_override: self.rollback_vars_override,
            },
            Side::Accelerator => DomainCosts {
                cycle: self.acc_speed.cycle_time(),
                category: CostCategory::Accelerator,
                store_per_var: self.acc_store_per_var,
                restore_per_var: self.acc_store_per_var,
                rollback_vars_override: self.rollback_vars_override,
            },
        }
    }
}

/// What a bounded scheduling slice achieved — the vocabulary a session
/// server schedules by (see [`SlicedSession`](crate::SlicedSession)).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SliceStatus {
    /// Both domains are halted at the target transition boundary: the run is
    /// complete and further slices are no-ops.
    Done,
    /// The step budget ran out with protocol work still flowing; the session
    /// is runnable and should be rescheduled.
    Working,
    /// Both domains are blocked with nothing locally deliverable: progress
    /// now depends on the transport medium (frames in flight through the
    /// kernel or ring). The session should be parked until its transports
    /// report readiness — or declared starved after a deadlock window.
    Idle,
}

/// The co-emulator: the shared-medium layout of the engine over a
/// caller-supplied [`Transport`] — two channel wrappers on one costed channel
/// and one ledger.
///
/// Domains are scheduled co-operatively on the calling thread; a wrapper
/// blocked on a read yields. Virtual time follows the paper's serialized
/// model (the Table 2 `Perform.` arithmetic), so the ledger total *is* the
/// emulation wall time.
///
/// There is one engine, and this is a name for one of its two layouts: both
/// domains over one in-process medium that holds both directions, so a run
/// is exactly reproducible. The channel is generic over any [`Transport`]
/// backend (deterministic [`QueueTransport`] by default; see
/// [`LossyTransport`](predpkt_channel::LossyTransport) for fault injection).
/// [`EmuSession`](crate::EmuSession) runs the same engine — in this layout
/// for its queue-backed backends, with a channel and a ledger per side for
/// the others — so the run loop, the halt rule, the deadlock rule, the
/// report, and the checkpoint sections are not written here: every method
/// below forwards. Prefer `EmuSession` unless the transport is one the
/// session builder cannot take.
pub struct CoEmulator<M: DomainModel, T: Transport = QueueTransport> {
    engine: Engine<M, T>,
}

impl CoEmulator<AhbDomainModel> {
    /// Builds a co-emulator for a split AHB SoC over the deterministic queue
    /// transport — the compatibility entry point; new code composes the same
    /// pieces through [`EmuSession`](crate::EmuSession).
    ///
    /// # Errors
    ///
    /// Returns [`BusConfigError`] for broken blueprints.
    pub fn from_blueprint(
        blueprint: &SocBlueprint,
        config: CoEmuConfig,
    ) -> Result<Self, BusConfigError> {
        let (sim, acc) = blueprint.build_pair()?;
        Ok(Self::new(sim, acc, config))
    }
}

impl<M: DomainModel> CoEmulator<M> {
    /// Builds a co-emulator from two domain models over the deterministic
    /// queue transport.
    ///
    /// # Panics
    ///
    /// Panics if the models' sides or widths disagree.
    pub fn new(sim_model: M, acc_model: M, config: CoEmuConfig) -> Self {
        Self::with_transport(sim_model, acc_model, config, QueueTransport::new())
    }
}

impl<M: DomainModel, T: Transport> CoEmulator<M, T> {
    /// Builds a co-emulator from two domain models over an arbitrary
    /// transport backend.
    ///
    /// # Panics
    ///
    /// Panics if the models' sides or widths disagree.
    pub fn with_transport(sim_model: M, acc_model: M, config: CoEmuConfig, transport: T) -> Self {
        CoEmulator {
            engine: Engine::shared(sim_model, acc_model, config, transport),
        }
    }

    /// Installs the observer receiving both wrappers' protocol events (none
    /// by default), as [`EmuSessionBuilder::observer`](crate::EmuSessionBuilder::observer)
    /// does for a session.
    pub fn with_observer(mut self, observer: Box<dyn EmuObserver>) -> Self {
        self.engine.set_observer(observer);
        self
    }

    /// Dismantles the co-emulator, salvaging the domain models, the
    /// configuration, and the observer — everything a fresh session built on
    /// a *new* transport needs. Wrapper, channel, and ledger state are
    /// deliberately dropped, because a checkpoint restore rebuilds all of
    /// it.
    pub fn into_parts(self) -> (M, M, CoEmuConfig, Box<dyn EmuObserver>) {
        let (mut models, config, observer) = self.engine.into_parts();
        let (sim, acc) = models.pop().expect("a co-emulator has one edge");
        (sim, acc, config, observer)
    }

    /// Cycles both domains have committed (the lagger's progress during
    /// speculation).
    pub fn committed_cycles(&self) -> u64 {
        self.engine.committed_cycles(None)
    }

    /// Runs until at least `cycles` cycles are committed, stopping
    /// immediately: one step per domain at a time, checked after each pair
    /// — the one run that is not made of whole [rounds](Self::run_slice).
    /// It may stop mid-transition, but a leader's head cycle, snapshot,
    /// run-ahead and flush are one step, so at the finest it stops between a
    /// flush and its report.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Deadlock`] if both domains block with no message in
    /// flight, or any protocol/snapshot error.
    pub fn run_until_committed(&mut self, cycles: u64) -> Result<(), SimError> {
        while self.committed_cycles() < cycles {
            // No halt target: neither domain stops at a boundary on the way.
            if !self.engine.round(u64::MAX, 1)? && self.engine.deliverable(u64::MAX) == 0 {
                return Err(self.engine.deadlock());
            }
        }
        Ok(())
    }

    /// Runs until both domains have committed at least `cycles` cycles *and*
    /// stand at a transition boundary (synchronized, about to elect roles).
    ///
    /// Unlike [`run_until_committed`](Self::run_until_committed), the stop
    /// point is a deterministic protocol event rather than a scheduling
    /// artifact, so every transport backend — including the socket and ring
    /// ones — halts after exactly the same message sequence. This is the
    /// semantics [`EmuSession`](crate::EmuSession) runs with.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Deadlock`] if the run starves before both domains
    /// reach the target, or any protocol/snapshot error.
    pub fn run_until_synchronized(&mut self, cycles: u64) -> Result<(), SimError> {
        // A slice over the shared in-process medium never idles: it is done,
        // deadlocked, or out of budget.
        while self.run_slice(cycles, u32::MAX)? != SliceStatus::Done {}
        Ok(())
    }

    /// Runs at most `max_steps` scheduling rounds toward the
    /// [`run_until_synchronized`](Self::run_until_synchronized) halt — the
    /// budgeted form a session server interleaves with thousands of other
    /// sessions on one worker thread: a run driven to [`SliceStatus::Done`]
    /// through any sequence of slices commits exactly what one
    /// uninterrupted call commits.
    ///
    /// A round is what
    /// [`SlicedSession::run_slice`](crate::SlicedSession::run_slice) defines
    /// — this is the same loop — so the transport is asked what is
    /// [`pending`](Transport::pending) only after a round in which neither
    /// domain worked.
    ///
    /// Never returns [`SliceStatus::Idle`]: both ends of the transport live
    /// in this object, so "blocked with deliverable traffic" resolves within
    /// the same slice and "blocked without" is an immediate
    /// [`SimError::Deadlock`] — there is no external medium to wait on.
    ///
    /// # Errors
    ///
    /// Exactly those of [`run_until_synchronized`](Self::run_until_synchronized).
    pub fn run_slice(&mut self, cycles: u64, max_steps: u32) -> Result<SliceStatus, SimError> {
        self.engine.run_slice(cycles, max_steps)
    }

    /// Shared access to the transport backend (e.g. to read
    /// [`LossyTransport`](predpkt_channel::LossyTransport) fault counters).
    pub fn transport(&self) -> &T {
        self.engine.shared_slot().0.transport()
    }

    /// The virtual-time ledger.
    pub fn ledger(&self) -> &TimeLedger {
        self.engine.shared_slot().1
    }

    /// Channel statistics.
    pub fn channel_stats(&self) -> &ChannelStats {
        self.engine.shared_slot().0.stats()
    }

    /// Simulator-side wrapper statistics.
    pub fn sim_stats(&self) -> &CwStats {
        self.engine.edge_wrappers(0).0.stats()
    }

    /// Accelerator-side wrapper statistics.
    pub fn acc_stats(&self) -> &CwStats {
        self.engine.edge_wrappers(0).1.stats()
    }

    /// The simulator-side model.
    pub fn sim_model(&self) -> &M {
        self.engine.edge_wrappers(0).0.model()
    }

    /// The accelerator-side model.
    pub fn acc_model(&self) -> &M {
        self.engine.edge_wrappers(0).1.model()
    }

    /// The configuration in force.
    pub fn config(&self) -> &CoEmuConfig {
        self.engine.config()
    }

    /// Builds the performance report over the committed cycles, including
    /// the recovery bill and the frame-coalescing counters of a transport
    /// that reports them.
    ///
    /// # Panics
    ///
    /// Panics if no cycle has committed yet — a freshly built engine, or one
    /// whose transport died in the handshake: every row of the report is per
    /// committed cycle. [`EmuSession::report`](crate::EmuSession::report) and
    /// [`EmuSession::domain_report`](crate::EmuSession::domain_report)
    /// are the same method and panic alike; check
    /// [`committed_cycles`](Self::committed_cycles) first.
    pub fn report(&self) -> PerfReport {
        self.engine.report(None)
    }

    /// Merges the two domains' committed local-output traces into full-bus
    /// records comparable with a golden [`AhbBus`](predpkt_ahb::bus::AhbBus)
    /// trace.
    ///
    /// `merge` receives (sim record, acc record) per cycle and must interleave
    /// them into the golden record layout.
    pub fn merged_trace(&self, merge: impl Fn(&[u64], &[u64]) -> Vec<u64>) -> Trace {
        let (sim, acc) = self.engine.edge_wrappers(0);
        crate::wrapper::merge_committed_traces(sim, acc, merge)
    }
}

impl<M: DomainModel, T: Transport + Snapshot> CoEmulator<M, T> {
    /// Takes a whole-session checkpoint at the current committed transition
    /// boundary: both wrappers (model, predictors, trace, statistics), the
    /// channel — including any frames a cooperative backend holds in flight
    /// and the reliability layer's windows — and the virtual-time ledger.
    ///
    /// Standalone engines stamp the backend name `"coemulator"`; sessions
    /// built through [`EmuSession`](crate::EmuSession) stamp their
    /// [`backend`](crate::EmuSession::backend) name instead and check it on
    /// restore.
    ///
    /// # Errors
    ///
    /// [`CheckpointError::NotAtBoundary`] unless both domains stand halted
    /// at a committed transition boundary (run with
    /// [`run_until_synchronized`](Self::run_until_synchronized) first), and
    /// [`CheckpointError::Poisoned`] after a failed restore.
    pub fn checkpoint(&self) -> Result<SessionCheckpoint, CheckpointError> {
        let mut ckpt = SessionCheckpoint::new("coemulator", self.committed_cycles());
        self.engine.checkpoint_into(&mut ckpt)?;
        Ok(ckpt)
    }

    /// Restores this engine to a checkpoint's cut. The engine must have the
    /// same shape (models, transport type, configuration) as the one the
    /// checkpoint was taken on; resuming then commits bit-identical traces,
    /// statistics, and ledgers to the original run.
    ///
    /// # Errors
    ///
    /// [`CheckpointError::MissingSection`] or
    /// [`CheckpointError::UnexpectedSection`] if the checkpoint's section
    /// table is not this engine's (rejected before any state is touched), and
    /// [`CheckpointError::Snapshot`] if a component rejects its words — the
    /// engine is then **poisoned** and refuses further steps.
    pub fn restore(&mut self, ckpt: &SessionCheckpoint) -> Result<(), CheckpointError> {
        self.engine.restore_from(ckpt)
    }
}

impl<M: DomainModel + fmt::Debug, T: Transport> fmt::Debug for CoEmulator<M, T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("CoEmulator")
            .field("committed", &self.committed_cycles())
            .field("total_time", &self.ledger().total())
            .finish()
    }
}
