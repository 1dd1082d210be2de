//! The port engine: the boundary-halt runner over per-side link ends, for
//! any number of domains.
//!
//! Every pair of domains that exchanges traffic shares one **edge**, and each
//! end of an edge is a **port**: one protocol engine, its costed channel over
//! that end of the link, and its share of the domain's virtual-time ledger. A
//! domain owns one port per peer. A two-domain
//! [`EmuSession`](crate::EmuSession) over a threaded, socket, or ring backend
//! is the one-edge case — two domains, one port each — and an N-domain
//! [`FabricSession`](crate::FabricSession) the general one; both are this
//! engine, so the run loops, the halt rule, and the statistics folds below
//! exist once.
//!
//! A domain halts only when *every one of its ports* stands at a transition
//! boundary with the target cycle count committed — a deterministic protocol
//! event per edge, not a scheduling artifact, which is what keeps committed
//! results bit-identical across backends. A halted domain **lingers**,
//! pumping acknowledgements on all of its links until every other domain has
//! halted too, so per-link reliability layers can finish retransmissions and
//! no peer is stranded mid-recovery.
//!
//! One schedule drives the ports: a budgeted slice on the calling thread
//! ([`PortEngine::run_slice`]). The protocol is strictly alternating — a
//! leader blocks in *Get response* exactly while its lagger follows the
//! burst — so inside one session both domains never have work at once, and
//! which medium joins them (mpsc, socket, ring) changes nothing about who
//! steps them. A session farm interleaves slices of thousands of sessions;
//! [`PortEngine::run_until_synchronized`] is the same slice in a blocking
//! loop.

use crate::checkpoint::{restore_section, save_section, CheckpointError, SessionCheckpoint};
use crate::coemu::{build_wrapper_pair, CoEmuConfig, SliceStatus};
use crate::link::{Link, LinkSpec, ThreadedOpts};
use crate::model::DomainModel;
use crate::observer::{EmuObserver, NoopObserver};
use crate::wrapper::{ChannelWrapper, CwStats, DomainCosts, Progress};
use predpkt_channel::{
    ChannelStats, CostedChannel, Fabric, FabricEdge, PollReady, PollSet, Readiness, RetryExhausted,
    Side, Transport,
};
use predpkt_sim::{SimError, Snapshot, TimeLedger};
use std::time::Instant;

/// One domain-side terminus of an edge: the protocol engine for that edge,
/// its costed channel over the edge's link end, and its share of the
/// domain's virtual-time ledger.
struct Port<M: DomainModel> {
    edge: usize,
    role: Side,
    /// The virtual-time costs of the role this port plays.
    costs: DomainCosts,
    wrapper: ChannelWrapper<M>,
    ch: CostedChannel<Box<dyn Link>>,
    ledger: TimeLedger,
}

impl<M: DomainModel> Port<M> {
    fn halted(&self, target: u64) -> bool {
        self.wrapper.at_transition_boundary() && self.wrapper.cycle() >= target
    }
}

/// Per-domain port lists over the edge list, plus the run knobs.
pub(crate) struct PortEngine<M: DomainModel> {
    /// `ports[d]` are domain `d`'s ports in edge order.
    ports: Vec<Vec<Port<M>>>,
    edges: Vec<FabricEdge>,
    config: CoEmuConfig,
    opts: ThreadedOpts,
    observer: Box<dyn EmuObserver>,
}

fn all_halted<M: DomainModel>(ports: &[Vec<Port<M>>], target: u64) -> bool {
    ports.iter().flatten().all(|p| p.halted(target))
}

fn min_cycle<'a, M: DomainModel + 'a>(ports: impl Iterator<Item = &'a Port<M>>) -> u64 {
    ports.map(|p| p.wrapper.cycle()).min().unwrap_or(0)
}

/// Non-blocking readiness over every link end: data anywhere wins, then
/// death, then idleness.
fn probe<M: DomainModel>(ports: &mut [Vec<Port<M>>]) -> Readiness {
    ports.iter_mut().flatten().fold(Readiness::Idle, |all, p| {
        all.combine(p.ch.transport_mut().readiness())
    })
}

impl<M: DomainModel> PortEngine<M> {
    /// Builds one protocol engine pair per edge (`models[e]` is edge `e`'s
    /// simulator-role and accelerator-role model) over `mesh`'s link ends
    /// and distributes the resulting ports to their domains.
    ///
    /// # Panics
    ///
    /// Panics if a model pair's sides or widths disagree.
    pub(crate) fn new(
        models: Vec<(M, M)>,
        mesh: Fabric<Box<dyn Link>>,
        config: CoEmuConfig,
        link: &LinkSpec,
        observer: Option<Box<dyn EmuObserver>>,
    ) -> Self {
        let (domains, edges, links) = mesh.into_parts();
        let mut ports: Vec<Vec<Port<M>>> = (0..domains).map(|_| Vec::new()).collect();
        for (edge, ((sim_model, acc_model), (sim_end, acc_end))) in
            models.into_iter().zip(links).enumerate()
        {
            let (sim, acc) = build_wrapper_pair(sim_model, acc_model, &config);
            let port = |role: Side, wrapper, end| {
                let mut ch = CostedChannel::with_transport(end, config.channel);
                // Per-scheduling-slice batching: a domain's sends are parked
                // in the channel outbox and flushed when the domain next
                // reads the channel or blocks — consecutive messages (a
                // report followed by the next transition's opener) coalesce
                // into one physical write. Billing is identical to the
                // unbatched path, so traces, statistics, and ledgers stay
                // bit-identical to the queue baseline (the conformance
                // harness asserts exactly that).
                ch.set_batching(true);
                Port {
                    edge,
                    role,
                    costs: config.costs_for(role),
                    wrapper,
                    ch,
                    ledger: TimeLedger::new(),
                }
            };
            ports[edges[edge].a()].push(port(Side::Simulator, sim, sim_end));
            ports[edges[edge].b()].push(port(Side::Accelerator, acc, acc_end));
        }
        PortEngine {
            ports,
            edges,
            config,
            opts: link.opts(),
            observer: observer.unwrap_or_else(|| Box::new(NoopObserver)),
        }
    }

    pub(crate) fn domains(&self) -> usize {
        self.ports.len()
    }

    pub(crate) fn edges(&self) -> &[FabricEdge] {
        &self.edges
    }

    pub(crate) fn config(&self) -> &CoEmuConfig {
        &self.config
    }

    /// Every port of `domain` in edge order, or of every domain (in domain
    /// order) with `None`.
    fn ports_of(&self, domain: Option<usize>) -> impl Iterator<Item = &Port<M>> {
        let domains = match domain {
            Some(d) => &self.ports[d..=d],
            None => &self.ports[..],
        };
        domains.iter().flatten()
    }

    /// Cycles committed on every port of `domain` (or of the whole engine).
    pub(crate) fn committed_cycles(&self, domain: Option<usize>) -> u64 {
        min_cycle(self.ports_of(domain))
    }

    /// The ledgers of `domain`'s ports (or of every port) merged.
    pub(crate) fn ledger(&self, domain: Option<usize>) -> TimeLedger {
        let mut out = TimeLedger::new();
        for p in self.ports_of(domain) {
            out.merge(&p.ledger);
        }
        out
    }

    /// The channel statistics of `domain`'s links (or of every link, each
    /// counted once per side) merged.
    pub(crate) fn channel_stats(&self, domain: Option<usize>) -> ChannelStats {
        let mut out = ChannelStats::default();
        for p in self.ports_of(domain) {
            out.merge(p.ch.stats());
        }
        out
    }

    /// `domain`'s wrapper statistics (or everyone's), split by the role the
    /// ports play: leader-side engines first, lagger-side engines second.
    pub(crate) fn cw_stats(&self, domain: Option<usize>) -> (CwStats, CwStats) {
        let mut sim = CwStats::default();
        let mut acc = CwStats::default();
        for p in self.ports_of(domain) {
            match p.role {
                Side::Simulator => sim.merge(p.wrapper.stats()),
                Side::Accelerator => acc.merge(p.wrapper.stats()),
            }
        }
        (sim, acc)
    }

    /// One optional counter block of the link stacks — batch, fault, or
    /// recovery statistics, picked by `hook` — merged over `domain`'s ports
    /// (or every port); `None` when no port reports any.
    pub(crate) fn link_stats<S>(
        &self,
        domain: Option<usize>,
        hook: fn(&dyn Link) -> Option<S>,
        merge: fn(&mut S, &S),
    ) -> Option<S> {
        self.ports_of(domain)
            .filter_map(|p| hook(p.ch.transport().as_ref()))
            .reduce(|mut acc, part| {
                merge(&mut acc, &part);
                acc
            })
    }

    /// The two engines of edge `edge` (simulator-role first), wherever their
    /// domains keep them.
    pub(crate) fn edge_wrappers(&self, edge: usize) -> (&ChannelWrapper<M>, &ChannelWrapper<M>) {
        let e = self.edges[edge];
        let find = |domain: usize| {
            self.ports[domain]
                .iter()
                .find(|p| p.edge == edge)
                .expect("every edge has a port at both ends")
        };
        (&find(e.a()).wrapper, &find(e.b()).wrapper)
    }

    /// First recorded frame abandonment across every link's two reliability
    /// layers, in deterministic (edge, side) order.
    pub(crate) fn failure(&self) -> Option<RetryExhausted> {
        self.ports_of(None)
            .filter_map(|p| {
                let at = (p.edge, p.role == Side::Accelerator);
                Some((at, p.ch.transport().failure()?))
            })
            .min_by_key(|(at, _)| *at)
            .map(|(_, failure)| failure)
    }

    /// Non-blocking readiness over every link end (the farm's parking
    /// probe).
    pub(crate) fn readiness(&mut self) -> Readiness {
        probe(&mut self.ports)
    }

    /// Dismantles a one-edge engine, salvaging the two models, the
    /// configuration, and the observer for a rebuild on a fresh transport
    /// (link ends, channels, and ledgers are transport-scoped or restored
    /// from the checkpoint).
    pub(crate) fn into_parts(mut self) -> (M, M, CoEmuConfig, Box<dyn EmuObserver>) {
        let mut model = |domain: usize| {
            let port = self.ports[domain].pop().expect("a session has one edge");
            port.wrapper.into_model()
        };
        (model(0), model(1), self.config, self.observer)
    }

    /// Runs at most `max_steps` scheduling rounds toward `target` on the
    /// calling thread. A round visits every port of every domain once and
    /// steps it until it blocks on its link or halts — at most one
    /// transition (LOB depth + flush + await), because every transition needs
    /// an answer from the peer. Stepping order cannot reorder packets within
    /// a link, the halt condition is a deterministic protocol event, and the
    /// final outbox flush happens at the same point on every backend — so
    /// traces, statistics, and ledgers are bit-identical whatever the medium
    /// and however a run is cut into slices.
    ///
    /// When every running port is blocked and no link end has anything,
    /// this returns [`SliceStatus::Idle`] so the caller can multiplex the
    /// wait over many sessions. Starvation detection therefore belongs to
    /// the caller too — with one exception: a *dead* medium (peer gone,
    /// everything drained) with nothing deliverable fails fast with
    /// [`SimError::Deadlock`] instead of waiting out a timeout.
    pub(crate) fn run_slice(
        &mut self,
        target: u64,
        max_steps: u32,
    ) -> Result<SliceStatus, SimError> {
        let ports = &mut self.ports[..];
        let obs = self.observer.as_mut();
        for _ in 0..max_steps {
            if all_halted(ports, target) {
                break;
            }
            let mut any_worked = false;
            let mut deliverable = 0;
            for p in ports.iter_mut().flatten() {
                if p.halted(target) {
                    // The halt-linger: the final message of the run may
                    // still sit in the batching outbox (recv flushes it),
                    // and a per-side reliability layer may owe the peer
                    // retransmissions and must keep consuming
                    // acknowledgements until every port has halted. Anything
                    // drained here is recovery-layer chatter — protocol
                    // traffic stops at the boundary.
                    let _ = p.ch.recv(p.role);
                    continue;
                }
                // Until the port blocks or halts, not one step per round: a
                // blocked peer would otherwise be re-polled once per cycle
                // this port predicts, and over a socket each poll is a
                // syscall.
                while !p.halted(target) {
                    match p.wrapper.step(&mut p.ch, &mut p.ledger, &p.costs, obs)? {
                        Progress::Worked => any_worked = true,
                        Progress::Blocked => {
                            // Packets addressed to a halted port can never
                            // be consumed, so only the running ports' count.
                            deliverable += p.ch.pending(p.role);
                            break;
                        }
                    }
                }
            }
            if any_worked || deliverable > 0 {
                continue;
            }
            // Nothing stepped and nothing locally decoded — but frames may be
            // in flight inside the medium (kernel socket buffer, ring). Probe
            // every link end without blocking.
            match probe(ports) {
                // Data just landed (or a reliability layer owes a repair
                // that only polling advances): keep stepping.
                Readiness::Ready => {}
                Readiness::Idle => return Ok(SliceStatus::Idle),
                Readiness::Dead => {
                    let cycle = min_cycle(ports.iter().flatten());
                    return Err(SimError::Deadlock { cycle });
                }
            }
        }
        // Also reached when the budget ran out on exactly the round that
        // finished the run.
        if all_halted(ports, target) {
            // No-ops where the linger branch already pushed the final outbox
            // out.
            for p in ports.iter_mut().flatten() {
                p.ch.flush();
            }
            return Ok(SliceStatus::Done);
        }
        Ok(SliceStatus::Working)
    }

    /// Runs until every domain stands halted at a transition boundary with
    /// at least `target` cycles committed on each of its ports: slices until
    /// done, waiting on the link ends through idle rounds. A reliability
    /// layer needs fruitless polls to advance its retransmission clock, so
    /// an idle round is not yet a deadlock — only a full starvation window
    /// of them is.
    pub(crate) fn run_until_synchronized(&mut self, target: u64) -> Result<(), SimError> {
        let mut idle_since: Option<Instant> = None;
        loop {
            // One round per slice, so `Working` means *this* round moved
            // something and the starvation window restarts.
            match self.run_slice(target, 1)? {
                SliceStatus::Done => return Ok(()),
                SliceStatus::Working => idle_since = None,
                SliceStatus::Idle => {
                    if idle_since.get_or_insert_with(Instant::now).elapsed()
                        >= self.opts.deadlock_timeout
                    {
                        return Err(SimError::Deadlock {
                            cycle: self.committed_cycles(None),
                        });
                    }
                    // Halted ports are left out: what arrives for them is
                    // never consumed, so it must not cut the wait short.
                    let mut ends: Vec<_> = self
                        .ports
                        .iter_mut()
                        .flatten()
                        .filter(|p| !p.halted(target))
                        .map(|p| p.ch.transport_mut())
                        .collect();
                    PollSet::syscall_probes().wait_any(&mut ends, self.opts.poll_interval);
                }
            }
        }
    }
}

/// The labels a one-edge (per-side-channel) checkpoint serializes under, in
/// restore order.
const SECTIONS: [&str; 6] = [
    "wrapper.sim",
    "wrapper.acc",
    "channel.sim",
    "channel.acc",
    "ledger.sim",
    "ledger.acc",
];

/// Checkpointing, for the one-edge engine a two-domain session runs on.
impl<M: DomainModel> PortEngine<M> {
    /// The two ports of edge 0, simulator side first.
    fn pair(&self) -> [&Port<M>; 2] {
        [&self.ports[0][0], &self.ports[1][0]]
    }

    fn pair_mut(&mut self) -> [&mut Port<M>; 2] {
        let (sim, acc) = self.ports.split_at_mut(1);
        [&mut sim[0][0], &mut acc[0][0]]
    }

    /// Fills `ckpt` with the per-side component sections. Endpoint
    /// transports serialize nothing — in-flight frames in an external medium
    /// are healed on resume by a reliability layer's re-armed window.
    pub(crate) fn checkpoint_into(
        &self,
        ckpt: &mut SessionCheckpoint,
    ) -> Result<(), CheckpointError> {
        let [sim, acc] = self.pair();
        if let Some(err) = sim.wrapper.poisoned().or_else(|| acc.wrapper.poisoned()) {
            return Err(CheckpointError::Poisoned(err.clone()));
        }
        if !(sim.wrapper.at_transition_boundary() && acc.wrapper.at_transition_boundary()) {
            return Err(CheckpointError::NotAtBoundary);
        }
        ckpt.push_section(
            "wrapper.sim",
            save_section(|w| sim.wrapper.checkpoint_save(w)),
        );
        ckpt.push_section(
            "wrapper.acc",
            save_section(|w| acc.wrapper.checkpoint_save(w)),
        );
        ckpt.push_section("channel.sim", save_section(|w| sim.ch.save(w)));
        ckpt.push_section("channel.acc", save_section(|w| acc.ch.save(w)));
        ckpt.push_section("ledger.sim", save_section(|w| sim.ledger.save(w)));
        ckpt.push_section("ledger.acc", save_section(|w| acc.ledger.save(w)));
        Ok(())
    }

    pub(crate) fn restore_from(&mut self, ckpt: &SessionCheckpoint) -> Result<(), CheckpointError> {
        // Pre-flight the section table before touching anything, so a
        // checkpoint with the wrong shape is rejected without mutation.
        for label in SECTIONS {
            ckpt.section(label)?;
        }
        let [sim, acc] = self.pair_mut();
        let result = (|| {
            restore_section(ckpt, "wrapper.sim", |r| sim.wrapper.checkpoint_restore(r))?;
            restore_section(ckpt, "wrapper.acc", |r| acc.wrapper.checkpoint_restore(r))?;
            restore_section(ckpt, "channel.sim", |r| sim.ch.restore(r))?;
            restore_section(ckpt, "channel.acc", |r| acc.ch.restore(r))?;
            restore_section(ckpt, "ledger.sim", |r| sim.ledger.restore(r))?;
            restore_section(ckpt, "ledger.acc", |r| acc.ledger.restore(r))
        })();
        if let Err(CheckpointError::Snapshot { source, .. }) = &result {
            // A failed section leaves the pair inconsistent: poison both
            // wrappers so the session refuses to step until a full restore
            // succeeds.
            sim.wrapper.poison(source.clone());
            acc.wrapper.poison(source.clone());
        }
        result
    }
}
