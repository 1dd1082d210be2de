//! Transport-generic co-emulation sessions.
//!
//! An [`EmuSession`] composes the four ingredients of a co-emulation run —
//! a pair of domain models (usually from a [`SocBlueprint`]), a
//! [`CoEmuConfig`], a transport backend, and an optional [`EmuObserver`] —
//! behind one builder, and runs the same protocol over any backend:
//!
//! * [`TransportSelect::Queue`] — the deterministic in-process
//!   [`QueueTransport`](predpkt_channel::QueueTransport), one medium shared
//!   by both domains (the evaluation default);
//! * [`TransportSelect::Lossy`] — a
//!   [`LossyTransport`](predpkt_channel::LossyTransport) injecting seeded
//!   drops/truncations/duplicates for protocol-robustness scenarios;
//! * [`TransportSelect::Threaded`] — per-side endpoints of a
//!   [`ThreadedTransport`](predpkt_channel::ThreadedTransport) (`mpsc`
//!   channels), the cheapest medium that gives each domain its own link end;
//! * [`TransportSelect::Tcp`] — a real TCP socket pair (per-side
//!   [`TcpEndpoint`](predpkt_channel::TcpEndpoint)s moving length-prefixed
//!   frames), the same machinery that carries a session whose domains live
//!   in different processes or hosts;
//! * [`TransportSelect::Shm`] — a shared-memory ring pair (per-side
//!   [`ShmEndpoint`](predpkt_channel::ShmEndpoint)s moving the same frames
//!   through lock-free SPSC rings, heap-shared or in a `/dev/shm` region
//!   file), the multi-process-on-one-host configuration;
//! * [`TransportSelect::Reliable`] — an ack-and-retransmit
//!   [`ReliableTransport`](predpkt_channel::ReliableTransport) over any of
//!   the above (chosen with [`ReliableInner`](crate::ReliableInner)): the
//!   session *survives* injected faults, committing bit-identical traces and
//!   ledgers to a clean run, with the repair traffic billed into
//!   [`RecoveryStats`] (see [`EmuSession::recovery_stats`]).
//!
//! Underneath there is one engine with two channel layouts. The in-process
//! backends (queue, lossy, and the reliable layer over either) put both
//! domains on **one shared medium**: one channel and one ledger, exactly
//! reproducible — the layout [`CoEmulator`](crate::CoEmulator) names, for
//! callers that bring their own [`Transport`](predpkt_channel::Transport).
//! Every other backend gives each domain **its own end** of a link, with a
//! channel and a ledger per side — the layout of an N-domain
//! [`FabricSession`](crate::FabricSession), of which a session is the
//! one-edge, two-domain case. The run loop, the halt rule, the deadlock rule,
//! the report, and the checkpoint sections are the same code for both, and
//! every domain is stepped on the calling thread: backends differ in the
//! medium, not the schedule.
//!
//! Sessions halt at **transition boundaries**: a domain stops only when it is
//! synchronized with its peer and has committed at least the target cycle
//! count. The stop point is therefore a protocol event, not a scheduling
//! artifact — a queue run and a socket run of the same blueprint commit
//! bit-identical traces and exchange exactly the same packets, which the
//! transport-equivalence suite asserts.
//!
//! ## Example
//!
//! ```
//! use predpkt_core::{EmuSession, EventCounters, ModePolicy, Side, SocBlueprint};
//! use predpkt_ahb::engine::BusOp;
//! use predpkt_ahb::masters::TrafficGenMaster;
//! use predpkt_ahb::slaves::MemorySlave;
//!
//! let blueprint = SocBlueprint::new()
//!     .master(Side::Accelerator, || {
//!         Box::new(TrafficGenMaster::from_ops(vec![BusOp::write_single(0x40, 7)]).looping())
//!     })
//!     .slave(Side::Simulator, 0x0, 0x1000, || Box::new(MemorySlave::new(0x1000, 0)));
//! let counters = EventCounters::new();
//! let mut session = EmuSession::from_blueprint(&blueprint)
//!     .policy(ModePolicy::Auto)
//!     .observer(Box::new(counters.clone()))
//!     .build()?;
//! session.run_until_committed(200)?;
//! assert!(session.committed_cycles() >= 200);
//! assert!(counters.snapshot().lob_flushes > 0);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

use crate::blueprint::SocBlueprint;
use crate::checkpoint::{CheckpointError, SessionCheckpoint};
use crate::coemu::{CoEmuConfig, ConfigError, SliceStatus};
use crate::engine::Engine;
use crate::link::{Link, LinkSpec, TransportSelect};
use crate::model::DomainModel;
use crate::observer::EmuObserver;
use crate::report::PerfReport;
use crate::wrapper::{merge_committed_traces, ChannelWrapper, CwStats, ModePolicy};
use crate::AhbDomainModel;
use predpkt_ahb::bus::BusConfigError;
use predpkt_channel::{
    BatchStats, ChannelStats, FaultStats, PollReady, Readiness, RecoveryStats, Transport,
};
use predpkt_predict::{PaperSuite, PredictorSuite};
use predpkt_sim::{SimError, TimeLedger, Trace};
use std::error::Error;
use std::fmt;

/// Why a session could not be built.
#[derive(Debug)]
pub enum SessionError {
    /// The configuration failed validation.
    Config(ConfigError),
    /// The blueprint could not be built into domain models.
    Bus(BusConfigError),
    /// A socket-backed transport could not be set up (bind, connect, or
    /// accept failed).
    Io(std::io::Error),
    /// A checkpoint restore failed while resuming a session
    /// ([`EmuSession::resume_from`]): the rebuilt session rejected the cut —
    /// wrong backend, missing section, or corrupt words.
    Checkpoint(CheckpointError),
}

impl fmt::Display for SessionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SessionError::Config(e) => write!(f, "invalid configuration: {e}"),
            SessionError::Bus(e) => write!(f, "invalid blueprint: {e}"),
            SessionError::Io(e) => write!(f, "transport setup failed: {e}"),
            SessionError::Checkpoint(e) => write!(f, "resume failed: {e}"),
        }
    }
}

impl Error for SessionError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            SessionError::Config(e) => Some(e),
            SessionError::Bus(e) => Some(e),
            SessionError::Io(e) => Some(e),
            SessionError::Checkpoint(e) => Some(e),
        }
    }
}

impl From<CheckpointError> for SessionError {
    fn from(e: CheckpointError) -> Self {
        SessionError::Checkpoint(e)
    }
}

impl From<ConfigError> for SessionError {
    fn from(e: ConfigError) -> Self {
        SessionError::Config(e)
    }
}

impl From<BusConfigError> for SessionError {
    fn from(e: BusConfigError) -> Self {
        SessionError::Bus(e)
    }
}

/// Builder for an [`EmuSession`] from an explicit pair of domain models.
///
/// Obtained from [`EmuSession::builder`]; for AHB SoCs prefer
/// [`EmuSession::from_blueprint`], which also composes a [`PredictorSuite`].
pub struct EmuSessionBuilder<M: DomainModel + Send + 'static> {
    sim: M,
    acc: M,
    config: CoEmuConfig,
    transport: TransportSelect,
    observer: Option<Box<dyn EmuObserver>>,
}

impl<M: DomainModel + Send + 'static> EmuSessionBuilder<M> {
    /// Overrides the configuration (defaults to
    /// [`CoEmuConfig::paper_defaults`]).
    pub fn config(mut self, config: CoEmuConfig) -> Self {
        self.config = config;
        self
    }

    /// Overrides the operating-mode policy on the current configuration.
    pub fn policy(mut self, policy: ModePolicy) -> Self {
        self.config = self.config.policy(policy);
        self
    }

    /// Overrides the LOB depth on the current configuration, deferring
    /// validation to [`build`](Self::build).
    pub fn lob_depth(mut self, depth: usize) -> Self {
        // Store the raw depth; build() validates through CoEmuConfig::validate.
        self.config.lob_depth = depth;
        self
    }

    /// Selects the transport backend (defaults to the deterministic queue).
    pub fn transport(mut self, transport: TransportSelect) -> Self {
        self.transport = transport;
        self
    }

    /// Installs an observer receiving every protocol event.
    pub fn observer(mut self, observer: Box<dyn EmuObserver>) -> Self {
        self.observer = Some(observer);
        self
    }

    /// Builds the session.
    ///
    /// # Errors
    ///
    /// Returns [`SessionError::Config`] for invalid configurations — a zero
    /// LOB depth set through [`lob_depth`](Self::lob_depth), an out-of-range
    /// [`FaultSpec`](predpkt_channel::FaultSpec) rate on the lossy backends,
    /// or a degenerate reliable-layer knob on the reliable backend — and
    /// [`SessionError::Io`] when a socket or region file cannot be set up.
    ///
    /// # Panics
    ///
    /// Panics if the two models' sides or widths disagree.
    pub fn build(self) -> Result<EmuSession<M>, SessionError> {
        self.config.validate()?;
        let link = self.transport.lower()?;
        let cost_model = self.config.channel;
        let mut engine = if link.shares_medium() {
            let medium = link.shared_medium(cost_model);
            Engine::shared(self.sim, self.acc, self.config, medium)
        } else {
            let mesh = link.mesh(2, cost_model)?;
            Engine::per_side(vec![(self.sim, self.acc)], mesh, self.config)
        };
        if let Some(observer) = self.observer {
            engine.set_observer(observer);
        }
        Ok(EmuSession { engine, link })
    }
}

/// Builder for an [`EmuSession`] over an AHB [`SocBlueprint`], composing the
/// blueprint with a [`PredictorSuite`] on top of the generic session knobs.
pub struct BlueprintSessionBuilder<'bp> {
    blueprint: &'bp SocBlueprint,
    suite: Box<dyn PredictorSuite>,
    config: CoEmuConfig,
    transport: TransportSelect,
    observer: Option<Box<dyn EmuObserver>>,
}

impl<'bp> BlueprintSessionBuilder<'bp> {
    /// Overrides the configuration (defaults to
    /// [`CoEmuConfig::paper_defaults`]).
    pub fn config(mut self, config: CoEmuConfig) -> Self {
        self.config = config;
        self
    }

    /// Overrides the operating-mode policy on the current configuration.
    pub fn policy(mut self, policy: ModePolicy) -> Self {
        self.config = self.config.policy(policy);
        self
    }

    /// Overrides the LOB depth on the current configuration, deferring
    /// validation to [`build`](Self::build).
    pub fn lob_depth(mut self, depth: usize) -> Self {
        self.config.lob_depth = depth;
        self
    }

    /// Swaps the predictor suite (defaults to the paper's
    /// [`PaperSuite`]).
    pub fn predictors(mut self, suite: impl PredictorSuite + 'static) -> Self {
        self.suite = Box::new(suite);
        self
    }

    /// Selects the transport backend (defaults to the deterministic queue).
    pub fn transport(mut self, transport: TransportSelect) -> Self {
        self.transport = transport;
        self
    }

    /// Installs an observer receiving every protocol event.
    pub fn observer(mut self, observer: Box<dyn EmuObserver>) -> Self {
        self.observer = Some(observer);
        self
    }

    /// Builds the two half-bus domain models and the session around them.
    ///
    /// # Errors
    ///
    /// Returns [`SessionError::Bus`] for broken blueprints and
    /// [`SessionError::Config`] for invalid configurations.
    pub fn build(self) -> Result<EmuSession<AhbDomainModel>, SessionError> {
        let (sim, acc) = self.blueprint.build_pair_with(self.suite.as_ref())?;
        let mut builder = EmuSession::builder(sim, acc)
            .config(self.config)
            .transport(self.transport);
        if let Some(obs) = self.observer {
            builder = builder.observer(obs);
        }
        builder.build()
    }
}

/// A co-emulation run composed from models, config, transport, and observer.
///
/// See the crate-level docs for the backend catalogue ([`TransportSelect`])
/// and the boundary-halt semantics shared by every backend.
pub struct EmuSession<M: DomainModel + Send + 'static> {
    /// One edge: two ports on one shared channel, or on one channel each —
    /// whichever [`LinkSpec::shares_medium`] says of `link`.
    engine: Engine<M, Box<dyn Link>>,
    link: LinkSpec,
}

impl EmuSession<AhbDomainModel> {
    /// Starts a builder over an AHB blueprint with the paper's predictor
    /// wiring, paper-default configuration, and the queue transport.
    pub fn from_blueprint(blueprint: &SocBlueprint) -> BlueprintSessionBuilder<'_> {
        BlueprintSessionBuilder {
            blueprint,
            suite: Box::new(PaperSuite),
            config: CoEmuConfig::paper_defaults(),
            transport: TransportSelect::Queue,
            observer: None,
        }
    }
}

impl<M: DomainModel + Send + 'static> EmuSession<M> {
    /// Starts a builder from an explicit pair of domain models (simulator
    /// side first).
    pub fn builder(sim: M, acc: M) -> EmuSessionBuilder<M> {
        EmuSessionBuilder {
            sim,
            acc,
            config: CoEmuConfig::paper_defaults(),
            transport: TransportSelect::Queue,
            observer: None,
        }
    }

    /// A stable name for the backend in force (telemetry).
    pub fn backend(&self) -> &'static str {
        self.link.session_name()
    }

    /// Runs until both domains have committed at least `cycles` cycles and
    /// stand synchronized at a transition boundary (a deterministic protocol
    /// event — identical across backends; the run may overshoot `cycles` by
    /// up to one transition).
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Deadlock`] when the protocol starves (e.g. a
    /// lossy transport dropped a packet with no reliability layer installed),
    /// [`SimError::RetryBudgetExhausted`] when a reliable backend gives up on
    /// a frame, or any protocol/snapshot error — including decode failures
    /// for corrupted packets.
    pub fn run_until_committed(&mut self, cycles: u64) -> Result<(), SimError> {
        let result = self.engine.run_until_synchronized(cycles, self.link.opts());
        // A blocking run that returned is a sliced run that reached `Done`.
        self.engine
            .reliable_outcome(result.map(|()| SliceStatus::Done), self.link.failure_seed())
            .map(|_| ())
    }

    /// Cycles both domains have committed.
    pub fn committed_cycles(&self) -> u64 {
        self.engine.committed_cycles(None)
    }

    /// The virtual-time ledger (merged across the two per-side ledgers for
    /// the per-side backends).
    pub fn ledger(&self) -> TimeLedger {
        self.engine.ledger(None)
    }

    /// Channel statistics (merged across the two per-side channels for the
    /// per-side backends). Recovery overhead of a reliable backend is *not*
    /// included — see [`recovery_stats`](Self::recovery_stats) — so these
    /// figures stay comparable with a clean run.
    pub fn channel_stats(&self) -> ChannelStats {
        self.engine.channel_stats(None)
    }

    /// Fault counters, when the session injects faults (the lossy backend,
    /// directly or under the reliability layer; the TCP and shm backends
    /// when an active [`TcpOptions::fault`](crate::TcpOptions::fault) /
    /// [`ShmOptions::fault`](crate::ShmOptions::fault) plan is in force,
    /// merged across the two per-side wrappers).
    pub fn fault_stats(&self) -> Option<FaultStats> {
        if !self.link.reports_faults() {
            return None;
        }
        self.engine
            .link_stats(None, |link| link.fault_stats(), FaultStats::merge)
    }

    /// Recovery counters, when the session runs over a reliable backend
    /// (merged across the two per-side layers where each side has its own).
    pub fn recovery_stats(&self) -> Option<RecoveryStats> {
        self.engine
            .link_stats(None, |link| link.recovery_stats(), RecoveryStats::merge)
    }

    /// Physical-write efficiency counters (frames per socket write / ring
    /// publication), when the backend coalesces frames — the two-endpoint
    /// backends (TCP, shm), merged across both sides, directly or under the
    /// lossy/reliable wrappers. `None` for backends with no physical write
    /// concept (queue, lossy-over-queue, mpsc).
    pub fn batch_stats(&self) -> Option<BatchStats> {
        self.engine
            .link_stats(None, |link| link.batch_stats(), BatchStats::merge)
    }

    /// The two protocol engines, simulator side first.
    fn wrappers(&self) -> (&ChannelWrapper<M>, &ChannelWrapper<M>) {
        self.engine.edge_wrappers(0)
    }

    /// Simulator-side wrapper statistics.
    pub fn sim_stats(&self) -> &CwStats {
        self.wrappers().0.stats()
    }

    /// Accelerator-side wrapper statistics.
    pub fn acc_stats(&self) -> &CwStats {
        self.wrappers().1.stats()
    }

    /// The simulator-side model.
    pub fn sim_model(&self) -> &M {
        self.wrappers().0.model()
    }

    /// The accelerator-side model.
    pub fn acc_model(&self) -> &M {
        self.wrappers().1.model()
    }

    /// The configuration in force.
    pub fn config(&self) -> &CoEmuConfig {
        self.engine.config()
    }

    /// Builds the performance report over the committed cycles, including
    /// the recovery bill for reliable backends and the frame-coalescing
    /// counters for the batching ones.
    ///
    /// # Panics
    ///
    /// Panics if no cycle has committed yet — a freshly built session, or
    /// one whose link died in the handshake: every row of the report is per
    /// committed cycle. [`CoEmulator::report`](crate::CoEmulator::report) and
    /// [`FabricSession::domain_report`](crate::FabricSession::domain_report)
    /// are the same method and panic alike; check
    /// [`committed_cycles`](Self::committed_cycles) first.
    pub fn report(&self) -> PerfReport {
        self.engine.report(None)
    }

    /// Merges the two domains' committed local-output traces into full-bus
    /// records (see [`CoEmulator::merged_trace`](crate::CoEmulator::merged_trace)).
    pub fn merged_trace(&self, merge: impl Fn(&[u64], &[u64]) -> Vec<u64>) -> Trace {
        let (sim, acc) = self.wrappers();
        merge_committed_traces(sim, acc, merge)
    }

    /// Whether both domains stand at a committed transition boundary — the
    /// only cut at which [`checkpoint`](Self::checkpoint) succeeds. True
    /// after every [`run_until_committed`](Self::run_until_committed) call
    /// (the halt condition *is* the boundary).
    pub fn at_checkpoint_boundary(&self) -> bool {
        let (sim, acc) = self.wrappers();
        sim.at_transition_boundary() && acc.at_transition_boundary()
    }

    /// Takes a whole-session checkpoint: both domains' model, predictor,
    /// trace, and statistics state, the channel (in-flight frames of the
    /// shared in-process medium; the reliability layer's windows, clock, and
    /// recovery counters where one is installed), and the virtual-time
    /// ledgers — one consistent cut, stamped with the
    /// [`backend`](Self::backend) name and the committed cycle count.
    ///
    /// Restoring the checkpoint into a freshly built session of the same
    /// shape ([`restore`](Self::restore)) and running on commits
    /// bit-identical results to never having stopped. Serialize with
    /// [`SessionCheckpoint::to_bytes`] to migrate the session between
    /// processes or hosts.
    ///
    /// # Errors
    ///
    /// [`CheckpointError::NotAtBoundary`] unless the session is halted at a
    /// committed transition boundary, and [`CheckpointError::Poisoned`]
    /// after a failed restore.
    pub fn checkpoint(&self) -> Result<SessionCheckpoint, CheckpointError> {
        let mut ckpt = SessionCheckpoint::new(self.backend(), self.committed_cycles());
        self.engine.checkpoint_into(&mut ckpt)?;
        Ok(ckpt)
    }

    /// Restores this session to a checkpoint's cut. The session must run
    /// the same [`backend`](Self::backend) and be built from the same
    /// models and configuration as the one the checkpoint was taken on.
    ///
    /// # Errors
    ///
    /// [`CheckpointError::BackendMismatch`] or
    /// [`CheckpointError::MissingSection`] for a checkpoint of the wrong
    /// shape (rejected before any state is touched), and
    /// [`CheckpointError::Snapshot`] when a component rejects its words —
    /// the session is then **poisoned**: every subsequent step fails with
    /// [`SimError::StatePoisoned`] until a full restore succeeds.
    pub fn restore(&mut self, ckpt: &SessionCheckpoint) -> Result<(), CheckpointError> {
        if ckpt.backend() != self.backend() {
            return Err(CheckpointError::BackendMismatch {
                expected: self.backend().to_string(),
                found: ckpt.backend().to_string(),
            });
        }
        self.engine.restore_from(ckpt)
    }

    /// Rebuilds this session on a **fresh transport** and rewinds it onto
    /// `ckpt` — the self-healing path for a session whose transport died
    /// (socket reset, severed link, exhausted retry budget). The dead
    /// session is consumed: its domain models, configuration, and observer
    /// are salvaged (their current state is irrelevant — the restore
    /// overwrites every bit of it), everything transport-scoped is dropped,
    /// and the checkpoint's committed prefix is restored into the new
    /// session exactly as [`restore`](Self::restore) would.
    ///
    /// Running the result to the original target then commits results
    /// bit-identical to a run that never failed — asserted across backends
    /// by the terminal-fault sweeps in `tests/self_healing.rs`.
    ///
    /// `transport` must produce the same [`backend`](Self::backend) name the
    /// checkpoint was taken on (a *new instance* of the same shape — fresh
    /// sockets, fresh rings, fresh fault-injector state); a mismatch is
    /// rejected before any state is touched.
    ///
    /// # Errors
    ///
    /// [`SessionError::Config`]/[`SessionError::Io`] if the fresh transport
    /// cannot be built, and [`SessionError::Checkpoint`] if the rebuilt
    /// session rejects the cut (backend mismatch, missing section, corrupt
    /// words).
    pub fn resume_from(
        self,
        ckpt: &SessionCheckpoint,
        transport: TransportSelect,
    ) -> Result<EmuSession<M>, SessionError> {
        let (sim, acc, config, observer) = self.engine.into_parts();
        let mut session = EmuSession::builder(sim, acc)
            .config(config)
            .transport(transport)
            .observer(observer)
            .build()?;
        session.restore(ckpt)?;
        Ok(session)
    }
}

impl<M: DomainModel + Send + fmt::Debug + 'static> fmt::Debug for EmuSession<M> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("EmuSession")
            .field("backend", &self.backend())
            .field("committed", &self.committed_cycles())
            .finish()
    }
}

/// An [`EmuSession`] scheduled in bounded slices instead of run to completion
/// in one blocking call — the unit a [session
/// farm](https://docs.rs/predpkt-farm) multiplexes over a fixed worker pool.
///
/// Every backend the session layer offers runs sliced, with the same
/// committed results: a session over the shared in-process medium never
/// waits on it, and one over per-side link ends (mpsc, TCP, shm — bare or
/// under the reliable layer) hands the waits its blocking run would make out
/// to the caller as [`SliceStatus::Idle`] + [`readiness`](Self::readiness).
/// The cross-transport conformance property carries over: driving a session
/// to [`SliceStatus::Done`] through *any* interleaving of slices commits
/// bit-identical traces, channel statistics, and ledgers to one
/// uninterrupted [`EmuSession::run_until_committed`] call.
///
/// ```
/// use predpkt_core::{EmuSession, SliceStatus, SocBlueprint, Side};
/// use predpkt_ahb::engine::BusOp;
/// use predpkt_ahb::masters::TrafficGenMaster;
/// use predpkt_ahb::slaves::MemorySlave;
///
/// let blueprint = SocBlueprint::new()
///     .master(Side::Accelerator, || {
///         Box::new(TrafficGenMaster::from_ops(vec![BusOp::write_single(0x40, 7)]).looping())
///     })
///     .slave(Side::Simulator, 0x0, 0x1000, || Box::new(MemorySlave::new(0x1000, 0)));
/// let session = EmuSession::from_blueprint(&blueprint).build()?;
/// let mut sliced = session.into_sliced(200);
/// loop {
///     match sliced.run_slice(256)? {
///         SliceStatus::Done => break,
///         // Queue-backed sessions never go Idle; a farm would park on
///         // `readiness()` here for the endpoint-backed ones.
///         _ => continue,
///     }
/// }
/// assert!(sliced.committed_cycles() >= 200);
/// let session = sliced.into_session();
/// assert!(session.report().billed_words() > 0);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub struct SlicedSession<M: DomainModel + Send + 'static> {
    session: EmuSession<M>,
    target: u64,
    /// When set, a fresh checkpoint is stashed every time a slice ends with
    /// the session at a new committed transition boundary.
    auto_checkpoint: bool,
    /// Committed cycles between auto-checkpoint cuts (see
    /// [`set_checkpoint_interval`](Self::set_checkpoint_interval)).
    checkpoint_interval: u64,
    latest_checkpoint: Option<Box<SessionCheckpoint>>,
    /// Committed cycles at the last stash, so boundaries are checkpointed
    /// once instead of on every subsequent no-op slice.
    checkpointed_at: Option<u64>,
}

/// Default committed-cycle spacing between auto-checkpoint cuts.
const DEFAULT_CHECKPOINT_INTERVAL: u64 = 16;

impl<M: DomainModel + Send + 'static> EmuSession<M> {
    /// Converts the session into its sliced form, targeting `cycles`
    /// committed cycles at a transition boundary (the same stop condition as
    /// [`run_until_committed`](Self::run_until_committed)).
    pub fn into_sliced(self, cycles: u64) -> SlicedSession<M> {
        SlicedSession {
            session: self,
            target: cycles,
            auto_checkpoint: false,
            checkpoint_interval: DEFAULT_CHECKPOINT_INTERVAL,
            latest_checkpoint: None,
            checkpointed_at: None,
        }
    }
}

impl<M: DomainModel + Send + 'static> SlicedSession<M> {
    /// Runs at most `max_steps` scheduling rounds toward the target.
    ///
    /// A **round** is the unit of every slice budget, and it is the same on
    /// every backend: every running port stepped until it blocks or halts —
    /// at most one transition (LOB depth + flush + await), because every
    /// transition needs an answer from the peer. A link is asked what it
    /// holds only after a round in which no port worked.
    ///
    /// Returns [`SliceStatus::Done`] once both domains stand halted at the
    /// target boundary (further calls are no-ops returning `Done` again),
    /// [`SliceStatus::Working`] when the budget ran out mid-flight, and
    /// [`SliceStatus::Idle`] when progress now depends on the transport
    /// medium — park the session and re-run it when
    /// [`readiness`](Self::readiness) turns actionable.
    ///
    /// # Errors
    ///
    /// The same errors as [`EmuSession::run_until_committed`], with one
    /// scheduling difference: starvation on a *live* medium is the caller's
    /// to detect (a session parked `Idle` past a deadlock window), because
    /// only the caller knows how long the session has actually been starved
    /// across slices. A dead medium still fails fast with
    /// [`SimError::Deadlock`], and a reliable backend that abandoned a frame
    /// surfaces [`SimError::RetryBudgetExhausted`] as soon as the session
    /// would otherwise park.
    pub fn run_slice(&mut self, max_steps: u32) -> Result<SliceStatus, SimError> {
        if !self.auto_checkpoint {
            return self.dispatch_slice(self.target, max_steps);
        }
        // Checkpoints are only consistent with both domains halted at the
        // same committed boundary, and free-running domains pipeline past
        // each other — they almost never align on their own. So aim the
        // engine at the next interval cut instead of the final target: it
        // halts there exactly like `run_until_committed` would (the linger
        // drains are protocol no-ops, so the committed stream is unchanged),
        // the stash captures the cut, and `Working` tells the scheduler the
        // real target still lies ahead.
        // Anchor cuts at fixed interval multiples: a moving `committed +
        // interval` cut would recede ahead of the run and never be reached.
        let iv = self.checkpoint_interval.max(1);
        let cut = (self.session.committed_cycles() / iv)
            .saturating_add(1)
            .saturating_mul(iv)
            .min(self.target);
        let status = self.dispatch_slice(cut, max_steps)?;
        self.stash_fresh_boundary();
        match status {
            SliceStatus::Done if cut < self.target => Ok(SliceStatus::Working),
            s => Ok(s),
        }
    }

    /// One bounded run of the backend engine toward `target`, with no
    /// checkpoint capture.
    fn dispatch_slice(&mut self, target: u64, max_steps: u32) -> Result<SliceStatus, SimError> {
        let EmuSession { engine, link } = &mut self.session;
        let result = engine.run_slice(target, max_steps);
        engine.reliable_outcome(result, link.failure_seed())
    }

    /// Stashes a checkpoint if the session stands at a committed boundary
    /// it has not checkpointed yet.
    fn stash_fresh_boundary(&mut self) {
        if self.checkpointed_at != Some(self.session.committed_cycles())
            && self.session.at_checkpoint_boundary()
        {
            if let Ok(ckpt) = self.session.checkpoint() {
                self.checkpointed_at = Some(ckpt.committed_cycles());
                self.latest_checkpoint = Some(Box::new(ckpt));
            }
        }
    }

    /// Enables (or disables) automatic checkpoint capture: the sliced run
    /// periodically halts at a committed transition boundary (every
    /// [`checkpoint interval`](Self::set_checkpoint_interval) cycles) and
    /// stashes a whole-session checkpoint there, retrievable with
    /// [`take_latest_checkpoint`](Self::take_latest_checkpoint). The halts
    /// do not change what the session commits — they are the same boundary
    /// stops `run_until_committed` makes, and the committed stream stays
    /// bit-identical to an uninterrupted run. A session farm enables this so
    /// an evicted session leaves carrying its most recent consistent cut
    /// instead of losing the run.
    pub fn set_auto_checkpoint(&mut self, enabled: bool) {
        self.auto_checkpoint = enabled;
    }

    /// Sets the committed-cycle spacing between auto-checkpoint cuts
    /// (default 16; clamped to at least 1). Smaller intervals lose less work
    /// on eviction but serialize the session more often.
    pub fn set_checkpoint_interval(&mut self, cycles: u64) {
        self.checkpoint_interval = cycles.max(1);
    }

    /// Whether automatic checkpoint capture is on.
    pub fn auto_checkpoint(&self) -> bool {
        self.auto_checkpoint
    }

    /// Takes ownership of the most recent auto-captured checkpoint, if any
    /// (see [`set_auto_checkpoint`](Self::set_auto_checkpoint)).
    pub fn take_latest_checkpoint(&mut self) -> Option<Box<SessionCheckpoint>> {
        self.latest_checkpoint.take()
    }

    /// Takes a whole-session checkpoint now (see
    /// [`EmuSession::checkpoint`]); the session must stand at a committed
    /// transition boundary, e.g. after [`SliceStatus::Done`].
    ///
    /// # Errors
    ///
    /// Those of [`EmuSession::checkpoint`].
    pub fn checkpoint(&self) -> Result<SessionCheckpoint, CheckpointError> {
        self.session.checkpoint()
    }

    /// Restores the underlying session to a checkpoint's cut (see
    /// [`EmuSession::restore`]).
    ///
    /// # Errors
    ///
    /// Those of [`EmuSession::restore`].
    pub fn restore(&mut self, ckpt: &SessionCheckpoint) -> Result<(), CheckpointError> {
        self.session.restore(ckpt)
    }

    /// The committed-cycle target this sliced run halts at.
    pub fn target(&self) -> u64 {
        self.target
    }

    /// Cycles both domains have committed so far.
    pub fn committed_cycles(&self) -> u64 {
        self.session.committed_cycles()
    }

    /// The backend's stable name (see [`EmuSession::backend`]).
    pub fn backend(&self) -> &'static str {
        self.session.backend()
    }

    /// Shared access to the underlying session (reports, statistics,
    /// traces).
    pub fn session(&self) -> &EmuSession<M> {
        &self.session
    }

    /// Unwraps back into the plain session — typically after
    /// [`SliceStatus::Done`], to harvest the report and traces.
    pub fn into_session(self) -> EmuSession<M> {
        self.session
    }
}

impl<M: DomainModel + Send + 'static> PollReady for SlicedSession<M> {
    /// The probe a parked session is woken by. Queue-backed sessions are
    /// always `Ready` (both transport ends live in the session object, so
    /// stepping always makes progress or fails deterministically); the
    /// endpoint-backed ones fold both endpoints' probes. `Dead` is
    /// actionable too: scheduling the session lets it discover the loss and
    /// fail fast, freeing its slot.
    fn readiness(&mut self) -> Readiness {
        self.session.engine.readiness()
    }
}

impl<M: DomainModel + Send + fmt::Debug + 'static> fmt::Debug for SlicedSession<M> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SlicedSession")
            .field("backend", &self.session.backend())
            .field("target", &self.target)
            .field("committed", &self.session.committed_cycles())
            .finish()
    }
}
