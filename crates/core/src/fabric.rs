//! N-domain fabric sessions: the engine past two domains.
//!
//! A [`FabricSession`] joins `N ≥ 2` domains over a full-mesh
//! [`Fabric`](predpkt_channel::Fabric) of links. Routing is structural and
//! single-hop: every ordered pair of domains owns a dedicated directed link,
//! so a packet for domain `d` goes out on the one link that ends at `d` and
//! no domain ever forwards another pair's traffic. On each edge the
//! lower-numbered domain plays [`Side::Simulator`](predpkt_channel::Side)
//! and the higher-numbered one `Side::Accelerator` (fixed by
//! [`FabricEdge::role_of`]), and the pair runs the paper's
//! prediction-packetizing protocol over their link — a domain therefore
//! hosts one **port** (protocol engine + costed channel + ledger) per peer,
//! acting as leader toward some peers and lagger toward others.
//!
//! ## N-way boundary halt
//!
//! A domain halts only when *every one of its ports* stands at a transition
//! boundary with the target cycle count committed — the same deterministic
//! protocol event a two-domain [`EmuSession`](crate::EmuSession) halts on,
//! per edge — and a fully halted domain keeps pumping acknowledgements on
//! **all** of its links until every other domain has halted too, so per-link
//! reliability layers can finish retransmissions and no peer is ever
//! stranded mid-recovery. The engine is the one every two-domain session
//! runs, in the layout of its per-side-endpoint backends, where `N = 2` is
//! one edge and one port per domain; the conformance suite pins the two to
//! each other bit-for-bit.
//!
//! ## Backends and determinism
//!
//! Every link of a fabric runs over the same [`TransportSelect`] a
//! two-domain session takes: mpsc links (`Queue` — the baseline — `Lossy`
//! with its seeded faults, and `Threaded`), TCP loopback sockets, one per
//! edge (`Tcp`), shared-memory rings packed into one region (`Shm`), and a
//! per-link ack-and-retransmit layer over any of them (`Reliable`). A
//! configured fault plan fires on every link with per-edge decorrelated
//! seeds. Every domain is stepped on the calling thread whatever the medium,
//! and all of them halt at
//! transition boundaries, so per-domain ledgers, traces, and channel
//! statistics are bit-identical across backends — the N-domain extension of
//! the two-domain conformance property.

use crate::blueprint::SocBlueprint;
use crate::coemu::{CoEmuConfig, ConfigError, SliceStatus};
use crate::engine::Engine;
use crate::link::{Link, LinkSpec, TransportSelect};
use crate::report::PerfReport;
use crate::session::SessionError;
use crate::wrapper::merge_committed_traces;
use crate::AhbDomainModel;
use predpkt_channel::{ChannelStats, FabricEdge, FaultStats, RecoveryStats, Transport};
use predpkt_predict::PaperSuite;
use predpkt_sim::{SimError, TimeLedger, Trace};
use std::fmt;

/// Builder for a [`FabricSession`]; obtained from
/// [`FabricSession::from_blueprint`].
pub struct FabricSessionBuilder<'bp> {
    blueprint: &'bp SocBlueprint,
    domains: usize,
    config: CoEmuConfig,
    link: TransportSelect,
}

impl FabricSessionBuilder<'_> {
    /// Overrides the configuration (defaults to
    /// [`CoEmuConfig::paper_defaults`]).
    pub fn config(mut self, config: CoEmuConfig) -> Self {
        self.config = config;
        self
    }

    /// Overrides the operating-mode policy on the current configuration.
    pub fn policy(mut self, policy: crate::ModePolicy) -> Self {
        self.config = self.config.policy(policy);
        self
    }

    /// Selects the backend every link runs over (defaults to the queue
    /// baseline).
    pub fn link(mut self, link: TransportSelect) -> Self {
        self.link = link;
        self
    }

    /// Builds the fabric session: the link mesh, then one protocol engine
    /// pair per edge.
    ///
    /// # Errors
    ///
    /// [`SessionError::Config`] for invalid configurations (including fewer
    /// than two domains), [`SessionError::Bus`] for broken blueprints, and
    /// [`SessionError::Io`] for socket or region-file setup failures.
    pub fn build(self) -> Result<FabricSession, SessionError> {
        self.config.validate()?;
        if self.domains < 2 {
            return Err(SessionError::Config(ConfigError::TooFewDomains {
                domains: self.domains,
            }));
        }
        let link = self.link.lower()?;
        let mesh = link.mesh(self.domains, self.config.channel)?;
        let models = mesh
            .edges()
            .iter()
            .map(|_| self.blueprint.build_pair_with(&PaperSuite))
            .collect::<Result<Vec<_>, _>>()?;
        Ok(FabricSession {
            engine: Engine::per_side(models, mesh, self.config),
            link,
        })
    }
}

/// An N-domain co-emulation over a routed link fabric. See the module docs
/// for topology, routing, and halt semantics.
///
/// ```
/// use predpkt_core::{FabricSession, Side, SocBlueprint, ThreadedOpts, TransportSelect};
/// use predpkt_ahb::engine::BusOp;
/// use predpkt_ahb::masters::TrafficGenMaster;
/// use predpkt_ahb::slaves::MemorySlave;
///
/// let blueprint = SocBlueprint::new()
///     .master(Side::Accelerator, || {
///         Box::new(TrafficGenMaster::from_ops(vec![BusOp::write_single(0x40, 7)]).looping())
///     })
///     .slave(Side::Simulator, 0x0, 0x1000, || Box::new(MemorySlave::new(0x1000, 0)));
/// let mut session = FabricSession::from_blueprint(&blueprint, 3)
///     .link(TransportSelect::Threaded(ThreadedOpts::default()))
///     .build()?;
/// session.run_until_committed(120)?;
/// for d in 0..session.domains() {
///     let report = session.domain_report(d);
///     assert!(report.committed_cycles() >= 120);
/// }
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub struct FabricSession {
    engine: Engine<AhbDomainModel, Box<dyn Link>>,
    link: LinkSpec,
}

impl FabricSession {
    /// Starts a builder for a fabric of `domains` domains over `blueprint`
    /// (every edge runs the blueprint's traffic between its two ends), with
    /// the paper's predictor wiring and paper-default configuration.
    pub fn from_blueprint(blueprint: &SocBlueprint, domains: usize) -> FabricSessionBuilder<'_> {
        FabricSessionBuilder {
            blueprint,
            domains,
            config: CoEmuConfig::paper_defaults(),
            link: TransportSelect::Queue,
        }
    }

    /// A stable name for the link backend in force (telemetry): `"fabric+"`
    /// followed by the name a two-domain session over the same
    /// [`TransportSelect`] reports.
    pub fn backend(&self) -> &'static str {
        self.link.fabric_name()
    }

    /// How many domains the fabric joins.
    pub fn domains(&self) -> usize {
        self.engine.domains()
    }

    /// The fabric's edge list (lexicographic; see
    /// [`full_mesh`](predpkt_channel::full_mesh)).
    pub fn edges(&self) -> &[FabricEdge] {
        self.engine.edges()
    }

    /// Runs until every domain stands halted at a transition boundary with
    /// at least `cycles` cycles committed on each of its ports.
    ///
    /// # Errors
    ///
    /// The same errors as
    /// [`EmuSession::run_until_committed`](crate::EmuSession::run_until_committed),
    /// surfaced from whichever domain hit them first.
    pub fn run_until_committed(&mut self, cycles: u64) -> Result<(), SimError> {
        let result = self.engine.run_until_synchronized(cycles, self.link.opts());
        self.engine
            .reliable_outcome(result.map(|()| SliceStatus::Done), self.link.failure_seed())
            .map(|_| ())
    }

    /// Cycles every domain has committed (the minimum over all ports).
    pub fn committed_cycles(&self) -> u64 {
        self.engine.committed_cycles(None)
    }

    /// Cycles domain `domain` has committed on every one of its ports.
    pub fn domain_committed(&self, domain: usize) -> u64 {
        self.engine.committed_cycles(Some(domain))
    }

    /// Domain `domain`'s virtual-time ledger (its ports merged in edge
    /// order).
    pub fn domain_ledger(&self, domain: usize) -> TimeLedger {
        self.engine.ledger(Some(domain))
    }

    /// Domain `domain`'s channel statistics, merged over its links.
    pub fn domain_channel_stats(&self, domain: usize) -> ChannelStats {
        self.engine.channel_stats(Some(domain))
    }

    /// The whole fabric's ledger (every domain merged).
    pub fn ledger(&self) -> TimeLedger {
        self.engine.ledger(None)
    }

    /// The whole fabric's channel statistics (every link counted once per
    /// side, matching the two-domain session's merged view).
    pub fn channel_stats(&self) -> ChannelStats {
        self.engine.channel_stats(None)
    }

    /// Domain `domain`'s performance report: its merged ledger and channel
    /// statistics, its wrapper counters split by port role, and — on
    /// reliable backends — its share of the recovery bill.
    ///
    /// # Panics
    ///
    /// Panics if `domain` has not committed a cycle on every one of its
    /// ports yet — a freshly built fabric, or one with a link that died in
    /// the handshake: every row of the report is per committed cycle.
    /// [`EmuSession::report`](crate::EmuSession::report) and
    /// [`CoEmulator::report`](crate::CoEmulator::report) are the same method
    /// and panic alike; check [`domain_committed`](Self::domain_committed)
    /// first.
    pub fn domain_report(&self, domain: usize) -> PerfReport {
        self.engine.report(Some(domain))
    }

    /// Domain `domain`'s merged recovery counters, when the fabric runs
    /// over a reliable backend.
    pub fn domain_recovery_stats(&self, domain: usize) -> Option<RecoveryStats> {
        self.engine.link_stats(
            Some(domain),
            |link| link.recovery_stats(),
            RecoveryStats::merge,
        )
    }

    /// The whole fabric's merged recovery counters, when reliable.
    pub fn recovery_stats(&self) -> Option<RecoveryStats> {
        self.engine
            .link_stats(None, |link| link.recovery_stats(), RecoveryStats::merge)
    }

    /// Merged fault counters over every link, when the fabric injects
    /// faults (same rule as
    /// [`EmuSession::fault_stats`](crate::EmuSession::fault_stats)).
    pub fn fault_stats(&self) -> Option<FaultStats> {
        if !self.link.reports_faults() {
            return None;
        }
        self.engine
            .link_stats(None, |link| link.fault_stats(), FaultStats::merge)
    }

    /// Merges edge `edge`'s two committed local-output traces into full-bus
    /// records, exactly like
    /// [`EmuSession::merged_trace`](crate::EmuSession::merged_trace) does
    /// for the two-domain session.
    pub fn edge_trace(&self, edge: usize, merge: impl Fn(&[u64], &[u64]) -> Vec<u64>) -> Trace {
        let (sim, acc) = self.engine.edge_wrappers(edge);
        merge_committed_traces(sim, acc, merge)
    }
}

impl fmt::Debug for FabricSession {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("FabricSession")
            .field("backend", &self.backend())
            .field("domains", &self.domains())
            .field("edges", &self.edges().len())
            .field("committed", &self.committed_cycles())
            .finish()
    }
}
