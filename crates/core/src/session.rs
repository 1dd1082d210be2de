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
//! Underneath there is one engine with two channel layouts. Two domains over
//! an in-process backend (queue, lossy, and the reliable layer over either)
//! sit on **one shared medium**: one channel and one ledger, exactly
//! reproducible — the layout [`CoEmulator`](crate::CoEmulator) names, for
//! callers that bring their own [`Transport`](predpkt_channel::Transport).
//! Every other session gives each domain **its own end** of every link it
//! touches, with a channel and a ledger per end. The run loop, the halt rule,
//! the deadlock rule, the report, and the checkpoint sections are the same
//! code for both, and every domain is stepped on the calling thread: backends
//! differ in the medium, not the schedule.
//!
//! Sessions halt at **transition boundaries**: a domain stops only when it is
//! synchronized with its peer and has committed at least the target cycle
//! count. The stop point is therefore a protocol event, not a scheduling
//! artifact — a queue run and a socket run of the same blueprint commit
//! bit-identical traces and exchange exactly the same packets, which the
//! transport-equivalence suite asserts.
//!
//! ## More than two domains
//!
//! [`domains(n)`](BlueprintSessionBuilder::domains) joins `n ≥ 2` domains
//! over a full mesh of links ([`full_mesh`](predpkt_channel::full_mesh)),
//! every one over the selected backend. Routing is structural and single-hop:
//! every pair of domains owns a dedicated link — one **edge** — so no domain
//! ever forwards another pair's traffic. On each edge the lower-numbered
//! domain plays [`Side::Simulator`](predpkt_channel::Side) and the
//! higher-numbered one `Side::Accelerator`
//! ([`FabricEdge::role_of`](predpkt_channel::FabricEdge::role_of)), and the
//! pair runs the paper's protocol between them over the blueprint's traffic —
//! a domain hosts one protocol engine per peer, leading toward some and
//! lagging toward others. Past two domains the queue and lossy backends run
//! over mpsc ends, a socket backend opens one socket per edge, the ring
//! backend packs every edge into one region, and a fault plan fires on every
//! link with per-edge decorrelated seeds (edge 0's are the two-domain
//! session's).
//!
//! The halt is the same event per edge: a domain halts only when *every one
//! of its ports* stands at a transition boundary with the target committed,
//! and a halted domain keeps pumping acknowledgements on all of its links
//! until every other domain has halted too, so per-link reliability layers
//! finish their retransmissions and no peer is stranded mid-recovery.
//! Per-domain ledgers, per-edge traces, and channel statistics are therefore
//! bit-identical across backends at any `n`, and everything a session can do
//! — checkpoint, restore, [`resume_from`](EmuSession::resume_from), sliced
//! runs, observers, a session farm — it does at any `n`.
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
    full_mesh, BatchStats, ChannelStats, FabricEdge, FaultStats, PollReady, Readiness,
    RecoveryStats, Transport,
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
        let models = vec![(self.sim, self.acc)];
        EmuSession::assemble(models, 2, self.config, self.transport, self.observer)
    }
}

/// Builder for an [`EmuSession`] over an AHB [`SocBlueprint`], composing the
/// blueprint with a [`PredictorSuite`] on top of the generic session knobs.
pub struct BlueprintSessionBuilder<'bp> {
    blueprint: &'bp SocBlueprint,
    suite: Box<dyn PredictorSuite>,
    domains: usize,
    config: CoEmuConfig,
    transport: TransportSelect,
    observer: Option<Box<dyn EmuObserver>>,
}

impl<'bp> BlueprintSessionBuilder<'bp> {
    /// Joins `domains` domains instead of two, over a full mesh of links
    /// that each run the blueprint's traffic between their two ends over the
    /// selected transport. On every edge the lower-numbered domain plays the
    /// simulator role, and everything a two-domain session does — checkpoint,
    /// restore, [`resume_from`](EmuSession::resume_from), sliced runs,
    /// observers — the mesh does as one session.
    ///
    /// ```
    /// use predpkt_core::{EmuSession, Side, SocBlueprint, ThreadedOpts, TransportSelect};
    /// use predpkt_ahb::engine::BusOp;
    /// use predpkt_ahb::masters::TrafficGenMaster;
    /// use predpkt_ahb::slaves::MemorySlave;
    ///
    /// let blueprint = SocBlueprint::new()
    ///     .master(Side::Accelerator, || {
    ///         Box::new(TrafficGenMaster::from_ops(vec![BusOp::write_single(0x40, 7)]).looping())
    ///     })
    ///     .slave(Side::Simulator, 0x0, 0x1000, || Box::new(MemorySlave::new(0x1000, 0)));
    /// let build = || {
    ///     EmuSession::from_blueprint(&blueprint)
    ///         .domains(3)
    ///         .transport(TransportSelect::Threaded(ThreadedOpts::default()))
    ///         .build()
    /// };
    /// let mut session = build()?;
    /// session.run_until_committed(60)?;
    /// let cut = session.checkpoint()?;
    /// session.run_until_committed(120)?;
    /// for d in 0..session.domains() {
    ///     assert!(session.domain_report(d).committed_cycles() >= 120);
    /// }
    ///
    /// // A cut spans the whole mesh, and restores into a twin of the same shape.
    /// let mut twin = build()?;
    /// twin.restore(&cut)?;
    /// twin.run_until_committed(120)?;
    /// assert_eq!(twin.committed_cycles(), session.committed_cycles());
    /// # Ok::<(), Box<dyn std::error::Error>>(())
    /// ```
    pub fn domains(mut self, domains: usize) -> Self {
        self.domains = domains;
        self
    }

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

    /// Builds a pair of half-bus domain models per edge (one pair, at two
    /// domains) and the session around them.
    ///
    /// # Errors
    ///
    /// Returns [`SessionError::Bus`] for broken blueprints,
    /// [`SessionError::Config`] for invalid configurations (fewer than two
    /// domains included), and [`SessionError::Io`] when a socket or region
    /// file cannot be set up.
    pub fn build(self) -> Result<EmuSession<AhbDomainModel>, SessionError> {
        let models = full_mesh(self.domains)
            .iter()
            .map(|_| self.blueprint.build_pair_with(self.suite.as_ref()))
            .collect::<Result<Vec<_>, _>>()?;
        EmuSession::assemble(
            models,
            self.domains,
            self.config,
            self.transport,
            self.observer,
        )
    }
}

/// A co-emulation run composed from models, config, transport, and observer.
///
/// See the crate-level docs for the backend catalogue ([`TransportSelect`])
/// and the boundary-halt semantics shared by every backend.
pub struct EmuSession<M: DomainModel + Send + 'static> {
    /// Two domains over a link that [shares its
    /// medium](LinkSpec::shares_medium): one edge, two ports on one channel.
    /// Anything else: a full mesh, every port on its own end.
    engine: Engine<M, Box<dyn Link>>,
    link: LinkSpec,
}

impl EmuSession<AhbDomainModel> {
    /// Starts a builder over an AHB blueprint with the paper's predictor
    /// wiring, paper-default configuration, the queue transport, and two
    /// domains.
    pub fn from_blueprint(blueprint: &SocBlueprint) -> BlueprintSessionBuilder<'_> {
        BlueprintSessionBuilder {
            blueprint,
            suite: Box::new(PaperSuite),
            domains: 2,
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

    /// The one place a session is put together: `models[e]` is edge `e`'s
    /// simulator-role and accelerator-role model, one pair per edge of the
    /// full mesh over `domains` domains.
    fn assemble(
        mut models: Vec<(M, M)>,
        domains: usize,
        config: CoEmuConfig,
        transport: TransportSelect,
        observer: Option<Box<dyn EmuObserver>>,
    ) -> Result<Self, SessionError> {
        config.validate()?;
        if domains < 2 {
            return Err(ConfigError::TooFewDomains { domains }.into());
        }
        let link = transport.lower()?;
        let mut engine = if domains == 2 && link.shares_medium() {
            let (sim, acc) = models.pop().expect("two domains share one edge");
            Engine::shared(sim, acc, config, link.shared_medium(config.channel))
        } else {
            Engine::per_side(models, link.mesh(domains, config.channel)?, config)
        };
        if let Some(observer) = observer {
            engine.set_observer(observer);
        }
        Ok(EmuSession { engine, link })
    }

    /// A stable name for the backend in force (telemetry, and the stamp a
    /// checkpoint is matched by): the link's name at two domains, `"fabric+"`
    /// followed by it past two.
    pub fn backend(&self) -> &'static str {
        self.link.backend_name(self.domains())
    }

    /// How many domains the session joins.
    pub fn domains(&self) -> usize {
        self.engine.domains()
    }

    /// The edge list: one entry per pair of domains, lexicographic (see
    /// [`full_mesh`]).
    pub fn edges(&self) -> &[FabricEdge] {
        self.engine.edges()
    }

    /// Runs until every domain stands halted at a transition boundary with
    /// at least `cycles` cycles committed on each of its ports (a
    /// deterministic protocol event — identical across backends; the run may
    /// overshoot `cycles` by up to one transition).
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

    /// Cycles every domain has committed (the minimum over all ports).
    pub fn committed_cycles(&self) -> u64 {
        self.engine.committed_cycles(None)
    }

    /// The virtual-time ledger (every per-side ledger merged, where the
    /// link ends have their own).
    pub fn ledger(&self) -> TimeLedger {
        self.engine.ledger(None)
    }

    /// Channel statistics (every link counted once per side, where the link
    /// ends have their own channels). Recovery overhead of a reliable
    /// backend is *not* included — see
    /// [`recovery_stats`](Self::recovery_stats) — so these figures stay
    /// comparable with a clean run.
    pub fn channel_stats(&self) -> ChannelStats {
        self.engine.channel_stats(None)
    }

    /// `Some(domain)`, checked: the argument of the per-domain reads.
    fn domain(&self, domain: usize) -> Option<usize> {
        let domains = self.domains();
        assert!(
            domain < domains,
            "domain {domain} is out of range: domains() is {domains}"
        );
        Some(domain)
    }

    /// Cycles domain `domain` has committed on every one of its ports.
    ///
    /// # Panics
    ///
    /// Panics if `domain` is not below [`domains`](Self::domains).
    pub fn domain_committed(&self, domain: usize) -> u64 {
        self.engine.committed_cycles(self.domain(domain))
    }

    /// Domain `domain`'s virtual-time ledger (its ports merged in edge
    /// order). Two domains on a shared in-process medium bill one ledger, so
    /// either reads the whole session's.
    ///
    /// # Panics
    ///
    /// Panics if `domain` is not below [`domains`](Self::domains).
    pub fn domain_ledger(&self, domain: usize) -> TimeLedger {
        self.engine.ledger(self.domain(domain))
    }

    /// Domain `domain`'s channel statistics, merged over its links (the
    /// whole session's, for two domains on a shared in-process medium).
    ///
    /// # Panics
    ///
    /// Panics if `domain` is not below [`domains`](Self::domains).
    pub fn domain_channel_stats(&self, domain: usize) -> ChannelStats {
        self.engine.channel_stats(self.domain(domain))
    }

    /// Fault counters, when the session injects faults (the lossy backend,
    /// directly or under the reliability layer; the TCP and shm backends
    /// when an active [`TcpOptions::fault`](crate::TcpOptions::fault) /
    /// [`ShmOptions::fault`](crate::ShmOptions::fault) plan is in force,
    /// merged across every per-side wrapper).
    pub fn fault_stats(&self) -> Option<FaultStats> {
        if !self.link.reports_faults() {
            return None;
        }
        self.engine
            .link_stats(None, |link| link.fault_stats(), FaultStats::merge)
    }

    /// Recovery counters, when the session runs over a reliable backend
    /// (merged across the per-side layers where each link end has its own).
    pub fn recovery_stats(&self) -> Option<RecoveryStats> {
        self.engine
            .link_stats(None, |link| link.recovery_stats(), RecoveryStats::merge)
    }

    /// Physical-write efficiency counters (frames per socket write / ring
    /// publication), when the backend coalesces frames — the two-endpoint
    /// backends (TCP, shm), merged across every link end, directly or under
    /// the lossy/reliable wrappers. `None` for backends with no physical
    /// write concept (queue, lossy-over-queue, mpsc).
    pub fn batch_stats(&self) -> Option<BatchStats> {
        self.engine
            .link_stats(None, |link| link.batch_stats(), BatchStats::merge)
    }

    /// Edge 0's two protocol engines, simulator side first — the only edge
    /// of a two-domain session.
    fn wrappers(&self) -> (&ChannelWrapper<M>, &ChannelWrapper<M>) {
        self.engine.edge_wrappers(0)
    }

    /// Simulator-side wrapper statistics (edge 0's, past two domains; a
    /// [`domain_report`](Self::domain_report) merges a domain's by role).
    pub fn sim_stats(&self) -> &CwStats {
        self.wrappers().0.stats()
    }

    /// Accelerator-side wrapper statistics (edge 0's, past two domains).
    pub fn acc_stats(&self) -> &CwStats {
        self.wrappers().1.stats()
    }

    /// The simulator-side model (edge 0's, past two domains).
    pub fn sim_model(&self) -> &M {
        self.wrappers().0.model()
    }

    /// The accelerator-side model (edge 0's, past two domains).
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
    /// committed cycle. [`domain_report`](Self::domain_report) and
    /// [`CoEmulator::report`](crate::CoEmulator::report) are the same method
    /// and panic alike; check [`committed_cycles`](Self::committed_cycles)
    /// first.
    pub fn report(&self) -> PerfReport {
        self.engine.report(None)
    }

    /// Domain `domain`'s performance report: its merged ledger and channel
    /// statistics, its wrapper counters split by port role, and — on
    /// reliable backends — its share of the recovery bill.
    ///
    /// # Panics
    ///
    /// Panics if `domain` is not below [`domains`](Self::domains), or — like
    /// [`report`](Self::report) — if it has not committed a cycle on every
    /// one of its ports yet; check
    /// [`domain_committed`](Self::domain_committed) first.
    pub fn domain_report(&self, domain: usize) -> PerfReport {
        self.engine.report(self.domain(domain))
    }

    /// Merges edge `edge`'s two committed local-output traces into full-bus
    /// records comparable with a golden [`AhbBus`](predpkt_ahb::bus::AhbBus)
    /// trace: `merge` receives (simulator-role record, accelerator-role
    /// record) per cycle and must interleave them into the golden layout.
    ///
    /// # Panics
    ///
    /// Panics if `edge` is not below [`edges`](Self::edges)`.len()`.
    pub fn edge_trace(&self, edge: usize, merge: impl Fn(&[u64], &[u64]) -> Vec<u64>) -> Trace {
        let edges = self.edges().len();
        assert!(
            edge < edges,
            "edge {edge} is out of range: edges().len() is {edges}"
        );
        let (sim, acc) = self.engine.edge_wrappers(edge);
        merge_committed_traces(sim, acc, merge)
    }

    /// [`edge_trace`](Self::edge_trace) of edge 0 — the one edge of a
    /// two-domain session.
    pub fn merged_trace(&self, merge: impl Fn(&[u64], &[u64]) -> Vec<u64>) -> Trace {
        self.edge_trace(0, merge)
    }

    /// Whether every domain stands at a committed transition boundary on
    /// every one of its ports — the only cut at which
    /// [`checkpoint`](Self::checkpoint) succeeds. True after every
    /// [`run_until_committed`](Self::run_until_committed) call (the halt
    /// condition *is* the boundary).
    pub fn at_checkpoint_boundary(&self) -> bool {
        self.engine.at_boundary()
    }

    /// Takes a whole-session checkpoint: every domain's model, predictor,
    /// trace, and statistics state on every edge, the channels (in-flight
    /// frames of the shared in-process medium; the reliability layers'
    /// windows, clocks, and recovery counters where installed), and the
    /// virtual-time ledgers — one consistent cut, stamped with the
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
    /// committed transition boundary (a single port mid-transition refuses
    /// the cut), and [`CheckpointError::Poisoned`] after a failed restore.
    pub fn checkpoint(&self) -> Result<SessionCheckpoint, CheckpointError> {
        let mut ckpt = SessionCheckpoint::new(self.backend(), self.committed_cycles());
        self.engine.checkpoint_into(&mut ckpt)?;
        Ok(ckpt)
    }

    /// Restores this session to a checkpoint's cut. The session must run
    /// the same [`backend`](Self::backend), join as many domains, and be
    /// built from the same models and configuration as the one the
    /// checkpoint was taken on.
    ///
    /// # Errors
    ///
    /// [`CheckpointError::BackendMismatch`],
    /// [`CheckpointError::MissingSection`] or
    /// [`CheckpointError::UnexpectedSection`] for a checkpoint of the wrong
    /// shape — its section table must be exactly this session's — rejected
    /// before any state is touched, and
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
        let domains = self.domains();
        let (models, config, observer) = self.engine.into_parts();
        let mut session = Self::assemble(models, domains, config, transport, Some(observer))?;
        session.restore(ckpt)?;
        Ok(session)
    }
}

impl<M: DomainModel + Send + fmt::Debug + 'static> fmt::Debug for EmuSession<M> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("EmuSession")
            .field("backend", &self.backend())
            .field("domains", &self.domains())
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
    /// Returns [`SliceStatus::Done`] once every domain stands halted at the
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
        // Checkpoints are only consistent with every domain halted at the
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

    /// Cycles every domain has committed so far.
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
    /// endpoint-backed ones fold every endpoint's probe. `Dead` is
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
