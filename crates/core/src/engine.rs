//! The engine: the one boundary-halt runner, for any number of domains and
//! either channel layout.
//!
//! Every pair of domains that exchanges traffic shares one **edge**, and each
//! end of an edge is a **port**: one protocol engine playing one role, which
//! reaches the costed channel it sends on and the virtual-time ledger it
//! bills through an index. A domain owns one port per peer. Which ports
//! share a channel is the **layout**, and it is data, not a second engine:
//!
//! * **shared medium** — one edge whose two ports use *one* channel and
//!   *one* ledger: both domains over a single in-process transport that
//!   holds both directions. A two-domain [`EmuSession`](crate::EmuSession)
//!   over the queue (bare, lossy, or under the reliable layer) is this, and
//!   so is a [`CoEmulator`](crate::CoEmulator) over whatever
//!   [`Transport`] its caller supplies.
//! * **per-side ends** — every port has its own channel over its own end of
//!   the edge's link, and its own ledger. A two-domain session over mpsc, a
//!   socket, or a ring is the one-edge case; a session of more domains (a
//!   full mesh, one edge per pair) the general one.
//!
//! The run loop, the halt rule, the deadlock rule, the statistics folds, the
//! report, and the checkpoint sections below exist once and serve both.
//!
//! A domain halts only when *every one of its ports* stands at a transition
//! boundary with the target cycle count committed — a deterministic protocol
//! event per edge, not a scheduling artifact, which is what keeps committed
//! results bit-identical across backends. Over per-side ends a halted domain
//! **lingers**, pumping acknowledgements on all of its links until every
//! other domain has halted too, so per-link reliability layers can finish
//! retransmissions and no peer is stranded mid-recovery. Over a shared medium
//! it does not: the one reliability layer there serves both directions and
//! is pumped by the port that still runs.
//!
//! One schedule drives the ports: a budgeted slice of **rounds** on the
//! calling thread ([`Engine::run_slice`]). The protocol is strictly
//! alternating — a leader blocks in *Get response* exactly while its lagger
//! follows the burst — so inside one session both domains never have work at
//! once, and which medium joins them (queue, mpsc, socket, ring) changes
//! nothing about who steps them. A session farm interleaves slices of
//! thousands of sessions; [`Engine::run_until_synchronized`] is the same
//! slice in a blocking loop.

use crate::checkpoint::{restore_section, save_section, CheckpointError, SessionCheckpoint};
use crate::coemu::{CoEmuConfig, SliceStatus};
use crate::link::ThreadedOpts;
use crate::model::DomainModel;
use crate::observer::{EmuObserver, NoopObserver};
use crate::report::PerfReport;
use crate::wrapper::{ChannelWrapper, CwStats, DomainCosts, Progress};
use predpkt_channel::{
    BatchStats, ChannelStats, CostedChannel, Fabric, FabricEdge, PollReady, PollSet, Readiness,
    RecoveryStats, RetryExhausted, Side, Transport, TransportDead,
};
use predpkt_sim::{SimError, Snapshot, TimeLedger};
use std::time::Instant;

/// One domain-side terminus of an edge: the protocol engine for that edge
/// and the role it plays, plus where it sends and bills.
struct Port<M: DomainModel> {
    edge: usize,
    role: Side,
    /// The virtual-time costs of the role this port plays.
    costs: DomainCosts,
    wrapper: ChannelWrapper<M>,
    /// The engine's channel this port sends and receives on, and the ledger
    /// (same index) it bills. Two ports name the same slot exactly when they
    /// share a medium.
    slot: usize,
}

impl<M: DomainModel> Port<M> {
    fn halted(&self, target: u64) -> bool {
        self.wrapper.at_transition_boundary() && self.wrapper.cycle() >= target
    }
}

/// Per-domain port lists over the edge list, and the channels and ledgers
/// the ports index into.
pub(crate) struct Engine<M: DomainModel, T: Transport> {
    /// `ports[d]` are domain `d`'s ports in edge order.
    ports: Vec<Vec<Port<M>>>,
    /// One channel for the shared layout; per edge its simulator-side end,
    /// then its accelerator-side end, for the per-side layout.
    channels: Vec<CostedChannel<T>>,
    /// `ledgers[slot]` is billed by the ports that send on `channels[slot]`.
    ledgers: Vec<TimeLedger>,
    /// The non-blocking question "could waiting on this link end help?" —
    /// and the layout: `None` is the shared medium, which has no far end to
    /// wait on, so it is never probed, never idle, and never lingers.
    probe: Option<fn(&mut T) -> Readiness>,
    edges: Vec<FabricEdge>,
    config: CoEmuConfig,
    observer: Box<dyn EmuObserver>,
}

impl<M: DomainModel, T: Transport> Engine<M, T> {
    /// The shared-medium layout: one edge, both of its ports on one channel
    /// over `medium` and on one ledger.
    ///
    /// # Panics
    ///
    /// Panics if the models' sides or widths disagree.
    pub(crate) fn shared(sim: M, acc: M, config: CoEmuConfig, medium: T) -> Self {
        // Unbatched: the channel's outbox bookkeeping is part of its
        // checkpoint words, and one medium holding both directions has no
        // physical write to coalesce.
        let channel = CostedChannel::with_transport(medium, config.channel);
        let edges = vec![FabricEdge::new(0, 1)];
        Self::assemble(2, edges, vec![(sim, acc)], vec![channel], None, config)
    }

    /// Builds one protocol engine pair per edge (`models[e]` is edge `e`'s
    /// simulator-role and accelerator-role model), distributes the ports to
    /// their domains, and points each at its slot. The single place wrapper
    /// knobs are wired, so the layouts can never drift.
    fn assemble(
        domains: usize,
        edges: Vec<FabricEdge>,
        models: Vec<(M, M)>,
        channels: Vec<CostedChannel<T>>,
        probe: Option<fn(&mut T) -> Readiness>,
        config: CoEmuConfig,
    ) -> Self {
        let mut ports: Vec<Vec<Port<M>>> = (0..domains).map(|_| Vec::new()).collect();
        for (edge, (sim, acc)) in models.into_iter().enumerate() {
            assert_eq!(sim.side(), Side::Simulator);
            assert_eq!(acc.side(), Side::Accelerator);
            assert_eq!(sim.local_width(), acc.remote_width());
            assert_eq!(acc.local_width(), sim.remote_width());
            let mut port = |role: Side, domain: usize, model: M| {
                let wrapper = ChannelWrapper::new(model, config.lob_depth, config.policy)
                    .with_carry_actuals(config.carry_actuals)
                    .with_adaptive_depth(config.adaptive_depth);
                let slot = match probe {
                    None => 0,
                    Some(_) => 2 * edge + usize::from(role == Side::Accelerator),
                };
                ports[domain].push(Port {
                    edge,
                    role,
                    costs: config.costs_for(role),
                    wrapper,
                    slot,
                });
            };
            port(Side::Simulator, edges[edge].a(), sim);
            port(Side::Accelerator, edges[edge].b(), acc);
        }
        Engine {
            ports,
            ledgers: channels.iter().map(|_| TimeLedger::new()).collect(),
            channels,
            probe,
            edges,
            config,
            observer: Box::new(NoopObserver),
        }
    }

    /// Installs the observer receiving every protocol event from every port.
    pub(crate) fn set_observer(&mut self, observer: Box<dyn EmuObserver>) {
        self.observer = observer;
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

    /// The one channel and the one ledger of the shared layout.
    pub(crate) fn shared_slot(&self) -> (&CostedChannel<T>, &TimeLedger) {
        debug_assert!(self.probe.is_none(), "per-side ends have no shared slot");
        (&self.channels[0], &self.ledgers[0])
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

    /// The slots `domain`'s ports use (or every slot), ascending, each once
    /// — also where two ports share one.
    fn slots_of(&self, domain: Option<usize>) -> impl Iterator<Item = usize> + '_ {
        (0..self.channels.len()).filter(move |&slot| {
            domain.map_or(true, |d| self.ports[d].iter().any(|p| p.slot == slot))
        })
    }

    /// Cycles committed on every port of `domain` (or of the whole engine).
    pub(crate) fn committed_cycles(&self, domain: Option<usize>) -> u64 {
        self.ports_of(domain)
            .map(|p| p.wrapper.cycle())
            .min()
            .unwrap_or(0)
    }

    /// The ledgers of `domain`'s ports (or every ledger) merged.
    pub(crate) fn ledger(&self, domain: Option<usize>) -> TimeLedger {
        let mut out = TimeLedger::new();
        for slot in self.slots_of(domain) {
            out.merge(&self.ledgers[slot]);
        }
        out
    }

    /// The channel statistics of `domain`'s links (or of every link: a
    /// shared channel once, per-side ends once per side) merged.
    pub(crate) fn channel_stats(&self, domain: Option<usize>) -> ChannelStats {
        let mut out = ChannelStats::default();
        for slot in self.slots_of(domain) {
            out.merge(self.channels[slot].stats());
        }
        out
    }

    /// `domain`'s wrapper statistics (or everyone's), split by the role the
    /// ports play: leader-side engines first, lagger-side engines second.
    fn cw_stats(&self, domain: Option<usize>) -> (CwStats, CwStats) {
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
    /// recovery statistics, picked by `hook` — merged over `domain`'s links
    /// (or every link); `None` when no link reports any.
    pub(crate) fn link_stats<S>(
        &self,
        domain: Option<usize>,
        hook: fn(&T) -> Option<S>,
        merge: fn(&mut S, &S),
    ) -> Option<S> {
        self.slots_of(domain)
            .filter_map(|slot| hook(self.channels[slot].transport()))
            .reduce(|mut acc, part| {
                merge(&mut acc, &part);
                acc
            })
    }

    /// `domain`'s performance report (or the whole engine's): merged ledger
    /// and channel statistics over the committed cycles, wrapper counters
    /// split by port role, and — where the links report them — the recovery
    /// bill and the frame-coalescing counters.
    ///
    /// # Panics
    ///
    /// Panics if no cycle has committed yet: every row is per committed
    /// cycle.
    pub(crate) fn report(&self, domain: Option<usize>) -> PerfReport {
        let (sim, acc) = self.cw_stats(domain);
        let mut report = PerfReport::new(
            self.ledger(domain),
            self.committed_cycles(domain),
            self.channel_stats(domain),
            sim,
            acc,
        );
        if let Some(recovery) = self.link_stats(domain, T::recovery_stats, RecoveryStats::merge) {
            report = report.with_recovery(recovery);
        }
        if let Some(batch) = self.link_stats(domain, T::batch_stats, BatchStats::merge) {
            report = report.with_batch(batch);
        }
        report
    }

    /// Where `domain` keeps its port of edge `edge`.
    fn port_index(&self, domain: usize, edge: usize) -> usize {
        let mut ports = self.ports[domain].iter();
        let index = ports.position(|p| p.edge == edge);
        index.expect("every edge has a port at both ends")
    }

    /// The two engines of edge `edge` (simulator-role first), wherever their
    /// domains keep them.
    pub(crate) fn edge_wrappers(&self, edge: usize) -> (&ChannelWrapper<M>, &ChannelWrapper<M>) {
        let e = self.edges[edge];
        let at = |domain: usize| &self.ports[domain][self.port_index(domain, edge)].wrapper;
        (at(e.a()), at(e.b()))
    }

    /// Whether every port stands at a committed transition boundary — the
    /// only cut at which a checkpoint is consistent.
    pub(crate) fn at_boundary(&self) -> bool {
        self.ports_of(None)
            .all(|p| p.wrapper.at_transition_boundary())
    }

    /// First recorded frame abandonment across every reliability layer, in
    /// deterministic (edge, side) order — which is slot order.
    fn failure(&self) -> Option<RetryExhausted> {
        self.channels.iter().find_map(|ch| ch.transport().failure())
    }

    /// Converts a run's outcome on a reliable backend (a no-op on every
    /// other, which records no failure). A recorded [`RetryExhausted`]
    /// failure takes precedence over the raw engine error (typically the
    /// deadlock the abandonment surfaced as). An *idle* slice with an
    /// abandoned frame recorded is hopeless too — the abandoned data can
    /// never arrive, so the exhaustion surfaces immediately instead of
    /// letting a scheduler park the session until its deadlock window
    /// expires. A run that reached its target ([`SliceStatus::Done`]) is
    /// reported as success even if a failure was recorded along the way —
    /// over a socket or a region file, late kernel delivery can burn the
    /// retry budget spuriously, and a completed run proves every abandoned
    /// frame had in fact been delivered. `seed` is the fault plan's replay
    /// seed the error reports.
    pub(crate) fn reliable_outcome(
        &self,
        result: Result<SliceStatus, SimError>,
        seed: u64,
    ) -> Result<SliceStatus, SimError> {
        match (result, self.failure()) {
            (Err(_) | Ok(SliceStatus::Idle), Some(f)) => Err(SimError::RetryBudgetExhausted {
                seed,
                seq: f.seq as u64,
                retries: f.retries,
                cycle: self.committed_cycles(None),
                idle_picos: f.idle.as_picos(),
                peer_gone: f.cause == TransportDead::PeerGone,
            }),
            (result, _) => result,
        }
    }

    /// Non-blocking readiness over every link end: data anywhere wins, then
    /// death, then idleness. `None` for the shared medium, which has no end
    /// to ask.
    fn probe_ends(&mut self) -> Option<Readiness> {
        let probe = self.probe?;
        let ends = self.channels.iter_mut();
        Some(ends.fold(Readiness::Idle, |all, ch| {
            all.combine(probe(ch.transport_mut()))
        }))
    }

    /// The farm's parking probe. A shared-medium engine is always `Ready`:
    /// both ends of its transport live in it, so stepping always makes
    /// progress or fails deterministically.
    pub(crate) fn readiness(&mut self) -> Readiness {
        self.probe_ends().unwrap_or(Readiness::Ready)
    }

    /// Dismantles the engine, salvaging every edge's model pair (edge order,
    /// simulator-role first), the configuration, and the observer for a
    /// rebuild on a fresh transport (wrapper, channel, and ledger state are
    /// deliberately dropped: they are transport-scoped or restored from the
    /// checkpoint).
    pub(crate) fn into_parts(self) -> (Vec<(M, M)>, CoEmuConfig, Box<dyn EmuObserver>) {
        // A domain keeps its ports in edge order, so walking the edge list
        // takes each domain's ports front to back.
        let mut ports: Vec<_> = self.ports.into_iter().map(Vec::into_iter).collect();
        let mut model = |domain: usize| {
            let port = ports[domain].next().expect("a port per edge end");
            port.wrapper.into_model()
        };
        let models = self.edges.iter().map(|e| (model(e.a()), model(e.b())));
        (models.collect(), self.config, self.observer)
    }

    fn all_halted(&self, target: u64) -> bool {
        self.ports_of(None).all(|p| p.halted(target))
    }

    /// Packets a running port could still consume — on a reliable link also
    /// the frames it is still owed. Packets addressed to a halted port can
    /// never be consumed, so they do not count.
    pub(crate) fn deliverable(&self, target: u64) -> usize {
        self.ports_of(None)
            .filter(|p| !p.halted(target))
            .map(|p| self.channels[p.slot].pending(p.role))
            .sum()
    }

    pub(crate) fn deadlock(&self) -> SimError {
        SimError::Deadlock {
            cycle: self.committed_cycles(None),
        }
    }

    /// One **round**: every port of every domain is visited once, in domain
    /// order, and a running one is stepped until it blocks on its link or
    /// halts at `target`, but at most `steps` times — at most one transition
    /// however large `steps` is, because every transition needs an answer
    /// from the peer. A leader's half of a transition (head cycle, snapshot,
    /// run-ahead and flush) is one step, its wait for the report the next.
    /// Returns whether any port worked.
    ///
    /// Until the port blocks, not one step per visit: a blocked peer would
    /// otherwise be re-polled once per message this port handles, and over
    /// a socket each poll is a syscall. (`steps = 1` is for the one caller
    /// that must be able to stop between any two steps,
    /// [`CoEmulator::run_until_committed`](crate::CoEmulator::run_until_committed);
    /// a leader's two steps put the finest such stop between a flush and
    /// its report.)
    pub(crate) fn round(&mut self, target: u64, steps: u32) -> Result<bool, SimError> {
        let linger = self.probe.is_some();
        let obs = self.observer.as_mut();
        let mut any_worked = false;
        for p in self.ports.iter_mut().flatten() {
            let (ch, ledger) = (&mut self.channels[p.slot], &mut self.ledgers[p.slot]);
            if p.halted(target) {
                if linger {
                    // The final message of the run may still sit in the
                    // batching outbox (recv flushes it), and a per-side
                    // reliability layer may owe the peer retransmissions
                    // and must keep consuming acknowledgements until every
                    // port has halted. Anything drained here is
                    // recovery-layer chatter — protocol traffic stops at
                    // the boundary.
                    let _ = ch.recv(p.role);
                }
                continue;
            }
            for _ in 0..steps {
                match p.wrapper.step(ch, ledger, &p.costs, obs)? {
                    Progress::Worked => any_worked = true,
                    Progress::Blocked => break,
                }
                if p.halted(target) {
                    break;
                }
            }
        }
        Ok(any_worked)
    }

    /// Runs at most `max_steps` [rounds](Self::round) toward `target` on the
    /// calling thread. Stepping order cannot reorder packets within a link,
    /// the halt condition is a deterministic protocol event, and the final
    /// outbox flush happens at the same point on every backend — so traces,
    /// statistics, and ledgers are bit-identical whatever the medium and
    /// however a run is cut into slices.
    ///
    /// The links are asked what they hold only after a round in which no
    /// port worked. If every running port is then blocked with nothing
    /// deliverable and nothing owed, the layout decides. A shared medium is
    /// self-contained — nothing else can put a packet into it — so that is
    /// [`SimError::Deadlock`] at once. Per-side ends may have frames in
    /// flight inside the medium (kernel socket buffer, ring): every end is
    /// probed without blocking, and if all are quiet this returns
    /// [`SliceStatus::Idle`] so the caller can multiplex the wait over many
    /// sessions. Starvation detection therefore belongs to the caller too —
    /// with one exception: a *dead* medium (peer gone, everything drained)
    /// fails fast with [`SimError::Deadlock`] instead of waiting out a
    /// timeout.
    pub(crate) fn run_slice(
        &mut self,
        target: u64,
        max_steps: u32,
    ) -> Result<SliceStatus, SimError> {
        for _ in 0..max_steps {
            if self.all_halted(target) {
                break;
            }
            if self.round(target, u32::MAX)? || self.deliverable(target) > 0 {
                continue;
            }
            match self.probe_ends() {
                // Data just landed (or a reliability layer owes a repair
                // that only polling advances): keep stepping.
                Some(Readiness::Ready) => {}
                Some(Readiness::Idle) => return Ok(SliceStatus::Idle),
                Some(Readiness::Dead) | None => return Err(self.deadlock()),
            }
        }
        // Also reached when the budget ran out on exactly the round that
        // finished the run.
        if self.all_halted(target) {
            // No-ops where the linger already pushed the final outbox out,
            // and where nothing is batched.
            for ch in &mut self.channels {
                ch.flush();
            }
            return Ok(SliceStatus::Done);
        }
        Ok(SliceStatus::Working)
    }
}

impl<M: DomainModel, T: Transport + PollReady> Engine<M, T> {
    /// The per-side layout over `mesh`'s link ends: one protocol engine pair
    /// per edge (`models[e]` is edge `e`'s simulator-role and
    /// accelerator-role model), every port on its own channel and ledger.
    ///
    /// # Panics
    ///
    /// Panics if a model pair's sides or widths disagree.
    pub(crate) fn per_side(models: Vec<(M, M)>, mesh: Fabric<T>, config: CoEmuConfig) -> Self {
        let (domains, edges, links) = mesh.into_parts();
        let channels = links
            .into_iter()
            .flat_map(|(sim_end, acc_end)| [sim_end, acc_end])
            .map(|end| {
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
                ch
            })
            .collect();
        Self::assemble(domains, edges, models, channels, Some(T::readiness), config)
    }

    /// Runs until every domain stands halted at a transition boundary with
    /// at least `target` cycles committed on each of its ports: slices until
    /// done, waiting on the link ends through idle rounds (never, over a
    /// shared medium). A reliability layer needs fruitless polls to advance
    /// its retransmission clock, so an idle round is not yet a deadlock —
    /// only a full starvation window of them (`opts.deadlock_timeout`) is.
    pub(crate) fn run_until_synchronized(
        &mut self,
        target: u64,
        opts: ThreadedOpts,
    ) -> Result<(), SimError> {
        let mut idle_since: Option<Instant> = None;
        loop {
            // One round per slice, so `Working` means *this* round moved
            // something and the starvation window restarts.
            match self.run_slice(target, 1)? {
                SliceStatus::Done => return Ok(()),
                SliceStatus::Working => idle_since = None,
                SliceStatus::Idle => {
                    if idle_since.get_or_insert_with(Instant::now).elapsed()
                        >= opts.deadlock_timeout
                    {
                        return Err(self.deadlock());
                    }
                    // Halted ports are left out: what arrives for them is
                    // never consumed, so it must not cut the wait short.
                    let Engine {
                        ports, channels, ..
                    } = self;
                    let running = |slot: usize| {
                        let mut ports = ports.iter().flatten();
                        ports.any(|p| p.slot == slot && !p.halted(target))
                    };
                    let mut ends: Vec<_> = channels
                        .iter_mut()
                        .enumerate()
                        .filter(|(slot, _)| running(*slot))
                        .map(|(_, ch)| ch.transport_mut())
                        .collect();
                    PollSet::syscall_probes().wait_any(&mut ends, opts.poll_interval);
                }
            }
        }
    }
}

/// One entry of the checkpoint section table: where the component a label
/// names lives in the engine.
#[derive(Clone, Copy)]
enum Part {
    /// `ports[domain][index].wrapper`.
    Wrapper(usize, usize),
    /// `channels[slot]`.
    Channel(usize),
    /// `ledgers[slot]`.
    Ledger(usize),
}

/// The label of one of edge `edge`'s sections. Edge 0 keeps the bare names a
/// two-domain session has always written (wire format: never rename); every
/// further edge prefixes them.
fn edge_label(edge: usize, name: &str) -> String {
    match edge {
        0 => name.to_string(),
        _ => format!("edge{edge}.{name}"),
    }
}

/// Checkpointing, for every layout and any number of edges.
impl<M: DomainModel, T: Transport + Snapshot> Engine<M, T> {
    /// The section table — labels in serialization order, each with the
    /// component it names: every edge's two wrappers in edge order, then
    /// every channel, then every ledger, both in slot order. The one slot of
    /// the shared layout goes by the bare `channel` / `ledger`; a per-side
    /// end by its edge's label with the side appended.
    fn section_table(&self) -> Vec<(String, Part)> {
        let mut table = Vec::new();
        for (e, edge) in self.edges.iter().enumerate() {
            for (domain, name) in [(edge.a(), "wrapper.sim"), (edge.b(), "wrapper.acc")] {
                let part = Part::Wrapper(domain, self.port_index(domain, e));
                table.push((edge_label(e, name), part));
            }
        }
        let label = |what: &str, slot: usize| match self.probe {
            None => what.to_string(),
            Some(_) => edge_label(slot / 2, &format!("{what}.{}", ["sim", "acc"][slot % 2])),
        };
        for slot in 0..self.channels.len() {
            table.push((label("channel", slot), Part::Channel(slot)));
        }
        for slot in 0..self.ledgers.len() {
            table.push((label("ledger", slot), Part::Ledger(slot)));
        }
        table
    }

    /// Fills `ckpt` with the component sections: wrappers (model,
    /// predictors, trace, statistics), channels, ledgers. A shared
    /// in-process medium is part of its channel's words, frames in flight
    /// included; endpoint transports serialize nothing — in-flight frames in
    /// an external medium are healed on resume by a reliability layer's
    /// re-armed window.
    pub(crate) fn checkpoint_into(
        &self,
        ckpt: &mut SessionCheckpoint,
    ) -> Result<(), CheckpointError> {
        if let Some(err) = self.ports_of(None).find_map(|p| p.wrapper.poisoned()) {
            return Err(CheckpointError::Poisoned(err.clone()));
        }
        if !self.at_boundary() {
            return Err(CheckpointError::NotAtBoundary);
        }
        for (label, part) in self.section_table() {
            let state = save_section(|w| match part {
                Part::Wrapper(domain, index) => {
                    self.ports[domain][index].wrapper.checkpoint_save(w)
                }
                Part::Channel(slot) => self.channels[slot].save(w),
                Part::Ledger(slot) => self.ledgers[slot].save(w),
            });
            ckpt.push_section(label, state);
        }
        Ok(())
    }

    /// Restores every section of `ckpt`, whose section table must be exactly
    /// this engine's: the same labels in the same order, nothing missing and
    /// nothing left over. Asking only for the labels this engine needs would
    /// let the cut of a wider mesh — which holds them all, for edges that
    /// join other domains — restore into a narrower one.
    pub(crate) fn restore_from(&mut self, ckpt: &SessionCheckpoint) -> Result<(), CheckpointError> {
        let table = self.section_table();
        // Pre-flight before touching anything, so a checkpoint with the
        // wrong shape is rejected without mutation.
        let wanted = table.iter().map(|(label, _)| Some(label.as_str()));
        let mut found = ckpt.sections().map(|(label, _)| label);
        for want in wanted.chain([None]) {
            let have = found.next();
            if have != want {
                if let Some(want) = want {
                    ckpt.section(want)?; // nowhere in the blob: missing
                }
                // `want` is further on (or the table is over): `have` is not
                // this engine's, or not in its place.
                let section = have.unwrap_or_default().to_string();
                return Err(CheckpointError::UnexpectedSection { section });
            }
        }
        let result = table.iter().try_for_each(|(label, part)| {
            restore_section(ckpt, label, |r| match *part {
                Part::Wrapper(domain, index) => {
                    self.ports[domain][index].wrapper.checkpoint_restore(r)
                }
                Part::Channel(slot) => self.channels[slot].restore(r),
                Part::Ledger(slot) => self.ledgers[slot].restore(r),
            })
        });
        if let Err(CheckpointError::Snapshot { source, .. }) = &result {
            // A failed section leaves the session inconsistent: poison every
            // wrapper so it refuses to step until a full restore succeeds.
            for p in self.ports.iter_mut().flatten() {
                p.wrapper.poison(source.clone());
            }
        }
        result
    }
}
