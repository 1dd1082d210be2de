//! One description of a link, and the one place links are built.
//!
//! Users pick a backend with [`TransportSelect`] — for the one link of a
//! two-domain [`EmuSession`](crate::EmuSession) and for every edge of a wider
//! one alike. The selection lowers to an
//! internal [`LinkSpec`]: a **base** medium (in-process queue, mpsc channel
//! pair, TCP socket, shared-memory ring) plus two optional layers stacked on top of
//! it, a seeded fault plan ([`LossyTransport`]) and an ack-and-retransmit
//! layer ([`ReliableTransport`]). Communication layers stack independently
//! of behaviour (the layered-TLM point), so validation, the backend's stable
//! name, seed derivation, and construction each exist exactly once here, and
//! the engine only ever sees a type-erased [`Link`]. What distinguishes the
//! backends is the medium, never the schedule: every session is stepped on
//! the thread that calls its run method.

use crate::coemu::ConfigError;
use crate::session::SessionError;
use predpkt_channel::{
    ChannelCostModel, Fabric, FaultSpec, LossyTransport, PollReady, QueueTransport, ReliableConfig,
    ReliableTransport, Side, Transport, DEFAULT_RING_WORDS,
};
use predpkt_sim::Snapshot;
use std::time::Duration;

/// Waiting knobs of a blocking run over per-side link ends (the name dates
/// from the mpsc backend, built on `ThreadedTransport`; it is API and stays).
#[derive(Debug, Clone, Copy)]
pub struct ThreadedOpts {
    /// The idle-wait slice: how long a run whose every port is blocked waits
    /// on its link ends at a time before re-checking the starvation window.
    pub poll_interval: Duration,
    /// How long the run may starve (no protocol progress on any port)
    /// before it is reported as deadlocked. This is wall-clock time, so a
    /// medium that delivers extremely late (a stalled kernel, a stopped
    /// peer process) is indistinguishable from protocol starvation — the
    /// generous default trades detection latency for robustness on loaded
    /// (e.g. CI) machines.
    pub deadlock_timeout: Duration,
}

impl Default for ThreadedOpts {
    fn default() -> Self {
        ThreadedOpts {
            poll_interval: Duration::from_millis(2),
            deadlock_timeout: Duration::from_secs(10),
        }
    }
}

/// Tuning knobs for the TCP socket backend.
///
/// The session opens an ephemeral localhost socket per link and gives each
/// domain its own endpoint — so the traffic crosses a real socket while both
/// domains are stepped on the calling thread. `fault` optionally wraps each
/// endpoint in a per-side
/// [`LossyTransport`](predpkt_channel::LossyTransport), injecting seeded
/// faults *on the socket path*; compose with [`TransportSelect::Reliable`]
/// (via [`ReliableInner::Tcp`]) when the session must survive them.
#[derive(Debug, Clone, Copy, Default)]
pub struct TcpOptions {
    /// Idle-wait slice and starvation window of a blocking run.
    pub threaded: ThreadedOpts,
    /// Seeded per-side fault plan applied on top of the sockets; `None`
    /// leaves the link clean (the wrapper is then bit-for-bit transparent).
    pub fault: Option<FaultSpec>,
}

impl TcpOptions {
    /// Overrides the idle-wait slice and starvation window.
    pub fn threaded(mut self, opts: ThreadedOpts) -> Self {
        self.threaded = opts;
        self
    }

    /// Injects seeded faults on the socket path.
    pub fn fault(mut self, spec: FaultSpec) -> Self {
        self.fault = Some(spec);
        self
    }
}

/// Tuning knobs for the shared-memory ring backend.
///
/// The session creates per-side [`ShmEndpoint`](predpkt_channel::ShmEndpoint)s
/// — over a heap region shared through an `Arc` by default, or a `/dev/shm`
/// region file when [`file_backed`](Self::file_backed) is set (the
/// multi-process codepath, exercised here within one process) — one per
/// domain, both stepped on the calling thread. `fault` optionally wraps each endpoint in a
/// per-side [`LossyTransport`](predpkt_channel::LossyTransport), injecting
/// seeded faults *on the ring path*; compose with
/// [`TransportSelect::Reliable`] (via [`ReliableInner::Shm`]) when the
/// session must survive them.
#[derive(Debug, Clone, Copy)]
pub struct ShmOptions {
    /// Idle-wait slice and starvation window of a blocking run.
    pub threaded: ThreadedOpts,
    /// Seeded per-side fault plan applied on top of the rings; `None`
    /// leaves the channel clean (the wrapper is then bit-for-bit
    /// transparent).
    pub fault: Option<FaultSpec>,
    /// Per-direction ring capacity in words (rounded up to a power of two).
    pub ring_words: u32,
    /// Put the rings in a `/dev/shm` region file instead of a shared heap
    /// allocation — the same codepath two separate processes would use.
    pub file_backed: bool,
}

impl Default for ShmOptions {
    fn default() -> Self {
        ShmOptions {
            threaded: ThreadedOpts::default(),
            fault: None,
            ring_words: DEFAULT_RING_WORDS,
            file_backed: false,
        }
    }
}

impl ShmOptions {
    /// Overrides the idle-wait slice and starvation window.
    pub fn threaded(mut self, opts: ThreadedOpts) -> Self {
        self.threaded = opts;
        self
    }

    /// Injects seeded faults on the ring path.
    pub fn fault(mut self, spec: FaultSpec) -> Self {
        self.fault = Some(spec);
        self
    }

    /// Overrides the per-direction ring capacity in words.
    pub fn ring_words(mut self, words: u32) -> Self {
        self.ring_words = words;
        self
    }

    /// Backs the rings with a `/dev/shm` region file.
    pub fn file_backed(mut self) -> Self {
        self.file_backed = true;
        self
    }
}

/// The transport backend a session runs over — every one of its links, past
/// two domains.
#[derive(Debug, Clone, Copy, Default)]
pub enum TransportSelect {
    /// Deterministic in-process FIFOs shared by both domains (the default,
    /// and the baseline every other backend is conformance-checked against).
    #[default]
    Queue,
    /// Seeded fault injection over in-process FIFOs.
    Lossy(FaultSpec),
    /// Per-side endpoints over `std::sync::mpsc` channels.
    Threaded(ThreadedOpts),
    /// Per-side endpoints over real TCP sockets — one socket per link, the
    /// shape a cross-host run takes.
    Tcp(TcpOptions),
    /// Per-side endpoints over shared-memory rings — the
    /// multi-process-on-one-host configuration (and the lowest-latency
    /// channel the crate models). Past two domains every link is packed into
    /// one region.
    Shm(ShmOptions),
    /// An ack-and-retransmit
    /// [`ReliableTransport`](predpkt_channel::ReliableTransport) over one of
    /// the inner backends — the session *survives* channel faults instead of
    /// merely detecting them, and bills the recovery traffic (see
    /// [`EmuSession::recovery_stats`](crate::EmuSession::recovery_stats)).
    Reliable {
        /// The transport underneath the reliability layer.
        inner: ReliableInner,
        /// Sliding-window size (unacknowledged frames per direction).
        window: usize,
        /// Retransmissions allowed per frame before the session fails with
        /// [`SimError::RetryBudgetExhausted`](predpkt_sim::SimError::RetryBudgetExhausted).
        retry_budget: u32,
    },
}

impl TransportSelect {
    /// A reliable backend with the default window (8) and retry budget (16).
    pub fn reliable(inner: ReliableInner) -> Self {
        let defaults = ReliableConfig::default();
        TransportSelect::Reliable {
            inner,
            window: defaults.window,
            retry_budget: defaults.retry_budget,
        }
    }
}

/// The transport underneath a [`TransportSelect::Reliable`] layer.
#[derive(Debug, Clone, Copy, Default)]
pub enum ReliableInner {
    /// Deterministic in-process FIFOs (the default).
    #[default]
    Queue,
    /// Seeded fault injection — the combination the reliability layer exists
    /// for: the session commits bit-identical results to a clean run while
    /// `RecoveryStats` records the repairs.
    Lossy(FaultSpec),
    /// Per-side endpoints over `std::sync::mpsc` channels.
    Threaded(ThreadedOpts),
    /// Per-side endpoints over real TCP sockets — the remote-
    /// accelerator configuration. With [`TcpOptions::fault`] set, seeded
    /// faults fire *on the socket path* and the per-side reliability layers
    /// absorb them.
    Tcp(TcpOptions),
    /// Per-side endpoints over shared-memory rings — the one-host
    /// multi-process configuration. With [`ShmOptions::fault`] set, seeded
    /// faults fire *on the ring path* and the per-side reliability layers
    /// absorb them.
    Shm(ShmOptions),
}

/// What an engine needs of a link end, whatever it is made of: a mailbox
/// with a non-blocking readiness probe, checkpointable state, and the freedom to
/// move between a session farm's workers. Every backend — a bare endpoint or any stack of
/// layers over one — is erased behind this one object-safe bound.
pub(crate) trait Link: Transport + PollReady + Snapshot + Send {}

impl<T: Transport + PollReady + Snapshot + Send> Link for T {}

/// The medium at the bottom of a link.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum LinkBase {
    /// In-process FIFOs: one [`QueueTransport`] shared by both domains of a
    /// two-domain session, mpsc endpoint pairs past two.
    Queue,
    Threaded,
    Tcp,
    Shm {
        ring_words: u32,
        file_backed: bool,
    },
}

/// A validated link description: base medium, optional fault plan, optional
/// reliability layer, waiting knobs. Only [`TransportSelect::lower`]
/// makes one, so holding a `LinkSpec` means every knob has been checked.
#[derive(Debug, Clone, Copy)]
pub(crate) struct LinkSpec {
    base: LinkBase,
    /// The fault plan the user asked for, *when it is reported*: always for
    /// the in-process lossy backends, only when it can actually fire for the
    /// socket and ring backends (where `None` and an inactive plan both mean
    /// "clean link", and reporting all-zero counters would wrongly suggest
    /// fault injection was requested).
    fault: Option<FaultSpec>,
    reliable: Option<ReliableConfig>,
    opts: ThreadedOpts,
}

impl TransportSelect {
    /// Validates the selection and lowers it to the one internal link
    /// description.
    ///
    /// # Errors
    ///
    /// [`ConfigError::InvalidFaultSpec`] for an out-of-range fault rate and
    /// [`ConfigError::InvalidReliableConfig`] for a degenerate window or
    /// retry budget.
    pub(crate) fn lower(self) -> Result<LinkSpec, ConfigError> {
        let (plain, reliable) = match self {
            TransportSelect::Reliable {
                inner,
                window,
                retry_budget,
            } => {
                let config = ReliableConfig::default()
                    .window(window)
                    .retry_budget(retry_budget);
                let plain = match inner {
                    ReliableInner::Queue => TransportSelect::Queue,
                    ReliableInner::Lossy(spec) => TransportSelect::Lossy(spec),
                    ReliableInner::Threaded(opts) => TransportSelect::Threaded(opts),
                    ReliableInner::Tcp(opts) => TransportSelect::Tcp(opts),
                    ReliableInner::Shm(opts) => TransportSelect::Shm(opts),
                };
                (plain, Some(config))
            }
            plain => (plain, None),
        };
        let (base, fault, opts) = match plain {
            // In-process links pace their (rare) idle waits by the defaults.
            TransportSelect::Queue => (LinkBase::Queue, None, ThreadedOpts::default()),
            TransportSelect::Lossy(spec) => (LinkBase::Queue, Some(spec), ThreadedOpts::default()),
            TransportSelect::Threaded(opts) => (LinkBase::Threaded, None, opts),
            TransportSelect::Tcp(opts) => (LinkBase::Tcp, opts.fault, opts.threaded),
            TransportSelect::Shm(opts) => (
                LinkBase::Shm {
                    ring_words: opts.ring_words,
                    file_backed: opts.file_backed,
                },
                opts.fault,
                opts.threaded,
            ),
            TransportSelect::Reliable { .. } => {
                unreachable!("a reliable layer's inner backend is never itself reliable")
            }
        };
        if let Some(spec) = &fault {
            spec.validate().map_err(ConfigError::invalid_fault_spec)?;
        }
        if let Some(config) = &reliable {
            config
                .validate()
                .map_err(ConfigError::invalid_reliable_config)?;
        }
        let fault = match base {
            LinkBase::Queue => fault,
            _ => fault.filter(FaultSpec::is_active),
        };
        Ok(LinkSpec {
            base,
            fault,
            reliable,
            opts,
        })
    }
}

/// Every backend's stable name, at two domains and past two — telemetry, and
/// the stamp a checkpoint is matched against on restore (wire format: never
/// rename). Indexed `[reliable][medium]`.
const BACKEND_NAMES: [[(&str, &str); 5]; 2] = {
    macro_rules! named {
        ($($name:literal),*) => { [$(($name, concat!("fabric+", $name))),*] };
    }
    [
        named!("queue", "lossy", "threaded", "tcp", "shm"),
        named!(
            "reliable+queue",
            "reliable+lossy",
            "reliable+threaded",
            "reliable+tcp",
            "reliable+shm"
        ),
    ]
};

impl LinkSpec {
    /// The stable name of a session of `domains` domains over this link: the
    /// link's own name at two, `"fabric+"` + it past two.
    pub(crate) fn backend_name(&self, domains: usize) -> &'static str {
        let medium = match (self.base, self.fault) {
            (LinkBase::Queue, None) => 0,
            (LinkBase::Queue, Some(_)) => 1,
            (LinkBase::Threaded, _) => 2,
            (LinkBase::Tcp, _) => 3,
            (LinkBase::Shm { .. }, _) => 4,
        };
        let (two, wider) = BACKEND_NAMES[usize::from(self.reliable.is_some())][medium];
        if domains == 2 {
            two
        } else {
            wider
        }
    }

    /// Which of the engine's two layouts a two-domain session over this
    /// link takes: one in-process medium shared by both domains (one channel,
    /// one ledger; built by [`shared_medium`](Self::shared_medium)) when
    /// true, a link end per domain (built by [`mesh`](Self::mesh), as every
    /// wider session is) otherwise.
    pub(crate) fn shares_medium(&self) -> bool {
        self.base == LinkBase::Queue
    }

    /// The waiting knobs (idle-wait slice, starvation window).
    pub(crate) fn opts(&self) -> ThreadedOpts {
        self.opts
    }

    /// Whether sessions over this link report fault counters.
    pub(crate) fn reports_faults(&self) -> bool {
        self.fault.is_some()
    }

    /// The replay seed a retry-budget exhaustion reports: the fault plan's,
    /// when one is reported at all (see the `fault` field), 0 otherwise.
    pub(crate) fn failure_seed(&self) -> u64 {
        self.fault.map_or(0, |spec| spec.seed)
    }

    /// The fault plan of one link end. The simulator side of edge 0 (and a
    /// shared medium, `scope = None`) uses the configured seed as given; the
    /// accelerator side a decorrelated one, so the two directions see
    /// independent fault streams; and each further edge of a mesh
    /// decorrelates again — edge 0 unchanged, so a two-domain session and
    /// edge 0 of a mesh draw the same fault stream.
    ///
    /// Socket and ring ends always carry a plan, a transparent
    /// [`FaultSpec::none`] when none is active: their checkpoints have
    /// always included the fault layer's section, and that is wire format.
    fn plan_for(&self, edge: usize, scope: Option<Side>) -> Option<FaultSpec> {
        let base = match self.base {
            LinkBase::Tcp | LinkBase::Shm { .. } => Some(self.fault.unwrap_or(FaultSpec::none(0))),
            LinkBase::Queue | LinkBase::Threaded => self.fault,
        }?;
        let mut seed = base.seed ^ (edge as u64).wrapping_mul(0xd1b5_4a32_d192_ed03);
        if scope == Some(Side::Accelerator) {
            seed ^= 0x9e37_79b9_7f4a_7c15;
        }
        Some(FaultSpec { seed, ..base })
    }

    /// Stacks this spec's layers over one bare medium end: `end`, then the
    /// fault plan, then the reliability layer (`Reliable<Lossy<E>>`), erased
    /// once at the top so the layers below dispatch statically. `scope` is
    /// the side a per-side endpoint serves (`None` for a shared medium).
    /// The only place the layer constructors are called.
    fn stack<E: Link + 'static>(
        &self,
        end: E,
        edge: usize,
        scope: Option<Side>,
        model: ChannelCostModel,
    ) -> Box<dyn Link> {
        fn reliably<T: Link + 'static>(
            inner: T,
            config: Option<ReliableConfig>,
            scope: Option<Side>,
            model: ChannelCostModel,
        ) -> Box<dyn Link> {
            let Some(config) = config else {
                return Box::new(inner);
            };
            let layer = ReliableTransport::new(inner, config, model);
            Box::new(match scope {
                Some(side) => layer.for_side(side),
                None => layer,
            })
        }
        match self.plan_for(edge, scope) {
            Some(plan) => reliably(LossyTransport::new(end, plan), self.reliable, scope, model),
            None => reliably(end, self.reliable, scope, model),
        }
    }

    /// The one in-process medium both domains of a two-domain session share
    /// (see [`shares_medium`](Self::shares_medium)).
    pub(crate) fn shared_medium(&self, model: ChannelCostModel) -> Box<dyn Link> {
        self.stack(QueueTransport::new(), 0, None, model)
    }

    /// The full mesh of per-side link ends joining `domains` domains — one
    /// edge, for a two-domain session.
    ///
    /// # Errors
    ///
    /// [`SessionError::Io`] when a socket or region file cannot be set up.
    pub(crate) fn mesh(
        &self,
        domains: usize,
        model: ChannelCostModel,
    ) -> Result<Fabric<Box<dyn Link>>, SessionError> {
        // One `map` per arm: each wraps a different endpoint type.
        Ok(match self.base {
            LinkBase::Queue | LinkBase::Threaded => Fabric::threaded_mesh(domains)
                .map(|edge, _, role, end| self.stack(end, edge, Some(role), model)),
            LinkBase::Tcp => Fabric::tcp_mesh(domains)
                .map_err(SessionError::Io)?
                .map(|edge, _, role, end| self.stack(end, edge, Some(role), model)),
            LinkBase::Shm {
                ring_words,
                file_backed: false,
            } => Fabric::shm_mesh(domains, ring_words)
                .map(|edge, _, role, end| self.stack(end, edge, Some(role), model)),
            #[cfg(unix)]
            LinkBase::Shm {
                ring_words,
                file_backed: true,
            } => Fabric::shm_file_mesh(domains, ring_words)
                .map_err(SessionError::Io)?
                .map(|edge, _, role, end| self.stack(end, edge, Some(role), model)),
            #[cfg(not(unix))]
            LinkBase::Shm {
                file_backed: true, ..
            } => {
                return Err(SessionError::Io(std::io::Error::new(
                    std::io::ErrorKind::Unsupported,
                    "file-backed shm regions require a unix host",
                )))
            }
        })
    }
}
