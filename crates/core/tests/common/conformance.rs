//! The conformance matrix: one backend table, one baseline per workload and
//! domain count, and one function that runs every cell against it.
//!
//! A cell is a workload (mode policy, run length, predictor suite) at `n`
//! domains over one backend row, under one [`Perturbation`]: none, a slice
//! budget, a cut-and-restore through bytes, a severed link healed from its
//! latest checkpoint, or seeded faults under the reliable layer. Every cell
//! must commit **exactly** what the deterministic queue backend commits for
//! the same workload and `n` ([`Commit`]: every edge's merged-trace hash, the
//! halt boundary, protocol-level channel statistics, the virtual-time ledger
//! and the wrapper counters), read the same per-domain statistics, and keep
//! the promises its backend row makes.
//!
//! The baseline itself is checked once per test binary against the golden
//! monolithic bus: every edge, truncated to the target, commits the golden
//! trace, and the golden run's AHB protocol checker reports nothing. A cell
//! that matches the baseline therefore inherits that protocol check.
//!
//! What tells the backends apart is data in [`backend_table`], never a name
//! pattern: whether the retransmission clock is deterministic, whether the
//! medium batches frames, whether the link is reliable, whether two domains
//! share one medium, and whether the row can carry a fault plan.
//!
//! Cells run on [`WORKERS`] scoped threads; the assertions run on the
//! caller's, in cell order. Socket-backed rows use ephemeral localhost ports
//! and ring rows uniquely named region files, so concurrent cells and test
//! processes cannot collide.

// Each test binary that includes the harness uses a subset of it; the unused
// remainder must not trip `-D warnings`.
#![allow(dead_code)]

use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::{Duration, Instant};
use std::{fmt, panic, thread};

use predpkt_channel::{ChannelStats, FaultSpec, PollSet};
use predpkt_core::{
    AhbDomainModel, CoEmuConfig, EmuEvent, EmuObserver, EmuSession, EventLog, ModePolicy,
    PerfReport, ReliableInner, SessionCheckpoint, ShmOptions, Side, SliceStatus, TcpOptions,
    ThreadedOpts, TransportSelect,
};
use predpkt_predict::{AdaptiveSuite, LastValueSuite, MarkovSuite};
use predpkt_sim::{SimError, VirtualTime};

use super::figure2_soc;

/// The predictor suite a workload runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Suite {
    Paper,
    LastValue,
    Markov,
    Adaptive,
}

/// A mode policy, a target cycle count, a domain count and a predictor suite
/// over the Fig. 2-shaped SoC.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    /// Stable name for assertion messages.
    pub name: &'static str,
    pub policy: ModePolicy,
    /// Cycles to commit before halting at a transition boundary.
    pub cycles: u64,
    /// Domains joined (a full mesh of Fig. 2 links past two).
    pub domains: usize,
    pub suite: Suite,
}

impl Workload {
    /// The same workload over `domains` domains.
    pub fn at(self, domains: usize) -> Self {
        Workload { domains, ..self }
    }

    /// The same workload under another predictor suite.
    pub fn with(self, suite: Suite) -> Self {
        Workload { suite, ..self }
    }
}

const fn workload(name: &'static str, policy: ModePolicy, cycles: u64) -> Workload {
    let (domains, suite) = (2, Suite::Paper);
    Workload {
        name,
        policy,
        cycles,
        domains,
        suite,
    }
}

/// Every mode policy the protocol distinguishes, with run lengths long
/// enough that bursts, rollbacks and conservative fallbacks all fire.
pub fn workload_matrix() -> Vec<Workload> {
    vec![
        workload("auto", ModePolicy::Auto, 500),
        workload("forced-als", ModePolicy::ForcedAls, 500),
        workload("conservative", ModePolicy::Conservative, 300),
    ]
}

/// The matrix workload for `policy` — by policy, not position.
pub fn workload_for(policy: ModePolicy) -> Workload {
    let mut matrix = workload_matrix().into_iter();
    matrix.find(|w| w.policy == policy).expect("in the matrix")
}

/// The shorter Auto run the reproducibility and seeded-fault sweeps use.
pub fn auto_400() -> Workload {
    workload("auto-400", ModePolicy::Auto, 400)
}

/// The session configuration every cell of `workload` runs.
pub fn workload_config(workload: &Workload) -> CoEmuConfig {
    CoEmuConfig::paper_defaults()
        .policy(workload.policy)
        .rollback_vars(None)
        .carry(true)
        .adaptive(true)
}

/// One transport backend and the facts about it the matrix asserts.
#[derive(Debug, Clone, Copy)]
pub struct Backend {
    /// A label for messages: the backend's two-domain name, except that
    /// `shm+file` names itself `shm`.
    pub name: &'static str,
    clean: TransportSelect,
    /// The fault plan this row runs with; `None` in the table.
    pub fault: Option<FaultSpec>,
    /// A reliable layer over this medium needs no retransmission on a clean
    /// link: one thread polls both ends, so the clock ticks on protocol polls
    /// alone. Over a socket or a region file the kernel decides when written
    /// data becomes readable, and an early poll can fire a harmless,
    /// duplicate-suppressed retransmission.
    pub deterministic_clock: bool,
    /// Coalesces frames into physical writes and reports `BatchStats`.
    pub batches: bool,
    /// Acknowledges and retransmits, and reports `RecoveryStats`.
    pub reliable: bool,
    /// Two domains share one in-process medium (one channel, one ledger).
    pub shares_medium: bool,
}

impl Backend {
    /// The selection this row runs: its clean backend under its fault plan.
    pub fn select(&self) -> TransportSelect {
        let Some(spec) = self.fault else {
            return self.clean;
        };
        faulted(self.clean, spec).expect("`with_fault` checked the row")
    }

    /// This row with `spec` injected on its medium.
    pub fn with_fault(self, spec: FaultSpec) -> Backend {
        let can_fault = faulted(self.clean, spec).is_some();
        assert!(can_fault, "{} cannot carry a fault plan", self.name);
        let fault = Some(spec);
        Backend { fault, ..self }
    }
}

fn faulted(select: TransportSelect, spec: FaultSpec) -> Option<TransportSelect> {
    use ReliableInner as R;
    use TransportSelect as T;
    Some(match select {
        T::Lossy(_) => T::Lossy(spec),
        T::Tcp(opts) => T::Tcp(opts.fault(spec)),
        T::Shm(opts) => T::Shm(opts.fault(spec)),
        T::Reliable {
            inner,
            window,
            retry_budget,
        } => T::Reliable {
            inner: match inner {
                R::Lossy(_) => R::Lossy(spec),
                R::Tcp(opts) => R::Tcp(opts.fault(spec)),
                R::Shm(opts) => R::Shm(opts.fault(spec)),
                R::Queue | R::Threaded(_) => return None,
            },
            window,
            retry_budget,
        },
        T::Queue | T::Threaded(_) => return None,
    })
}

/// A backend row's facts, as bits of [`backend_table`]'s third column.
const CLOCK: u8 = 1;
const BATCHES: u8 = 2;
const SHARED: u8 = 4;

/// Every backend the session layer offers, waiting with `opts`: the queue
/// baseline first, fault-capable rows with an inactive plan (a clean lossy
/// wrapper is bit-for-bit transparent). The facts: a deterministic `CLOCK`,
/// a medium that `BATCHES`, and a medium `SHARED` by two domains.
pub fn backend_table(opts: ThreadedOpts) -> Vec<Backend> {
    use ReliableInner as R;
    use TransportSelect as T;
    let tcp = TcpOptions::default().threaded(opts);
    let shm = ShmOptions::default().threaded(opts);
    let (rel, inert) = (T::reliable, FaultSpec::none);
    [
        ("queue", T::Queue, CLOCK | SHARED),
        ("lossy", T::Lossy(inert(1)), CLOCK | SHARED),
        ("threaded", T::Threaded(opts), CLOCK),
        ("tcp", T::Tcp(tcp), BATCHES),
        ("shm", T::Shm(shm), CLOCK | BATCHES),
        // The multi-process codepath: the rings in a `/dev/shm` region file,
        // attached exactly as a second process would.
        ("shm+file", T::Shm(shm.file_backed()), BATCHES),
        ("reliable+queue", rel(R::Queue), CLOCK | SHARED),
        ("reliable+lossy", rel(R::Lossy(inert(2))), CLOCK | SHARED),
        ("reliable+threaded", rel(R::Threaded(opts)), CLOCK),
        ("reliable+tcp", rel(R::Tcp(tcp)), BATCHES),
        ("reliable+shm", rel(R::Shm(shm)), CLOCK | BATCHES),
    ]
    .map(|(name, clean, facts)| Backend {
        name,
        clean,
        fault: None,
        deterministic_clock: facts & CLOCK != 0,
        batches: facts & BATCHES != 0,
        reliable: matches!(clean, T::Reliable { .. }),
        shares_medium: facts & SHARED != 0,
    })
    .to_vec()
}

/// Waiting knobs for conformance runs: a finer idle-wait slice than the
/// production default keeps a run whose data is still inside the kernel
/// snappy on loaded hosts.
pub fn test_opts() -> ThreadedOpts {
    ThreadedOpts {
        poll_interval: Duration::from_micros(500),
        ..ThreadedOpts::default()
    }
}

/// The backend table with the conformance waiting knobs.
pub fn backends() -> Vec<Backend> {
    backend_table(test_opts())
}

/// The row named `name` of `table`.
pub fn row(table: &[Backend], name: &str) -> Backend {
    let found = table.iter().find(|b| b.name == name);
    *found.unwrap_or_else(|| panic!("no backend row {name}"))
}

/// The conformance row named `name`.
pub fn backend(name: &str) -> Backend {
    row(&backends(), name)
}

/// The conformance rows named `names`, in that order.
pub fn named(names: &[&str]) -> Vec<Backend> {
    names.iter().map(|name| backend(name)).collect()
}

/// What a cell does to a run on its way to the target.
#[derive(Debug, Clone, Copy)]
pub enum Perturbation {
    /// One uninterrupted `run_until_committed`.
    None,
    /// Driven through `run_slice` with this round budget, parking on the
    /// readiness poll-set at `Idle`, with an event log attached.
    Slice(u32),
    /// Halted at half the target, checkpointed through bytes into a fresh
    /// session, run on. A row carrying faults must also replay the straight
    /// run's fault and repair counters.
    CutAndRestore,
    /// The link severs after this many frames; the wreck resumes from its
    /// latest auto-checkpoint onto the clean row, or restarts cold.
    KillAndHeal(u64),
    /// This seeded fault plan on the row's medium, under its reliable layer:
    /// every injected kind must show its repairs.
    Faults(FaultSpec),
}

/// How a [`Perturbation::KillAndHeal`] run ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Heal {
    /// Resumed from the latest checkpoint, at this committed boundary.
    Resumed { boundary: u64 },
    /// Killed before the first checkpoint boundary: restarted from zero.
    ColdRestart,
    /// The cut lay beyond the run's traffic.
    Unharmed,
}

/// Committed cycles between auto-checkpoints of a kill-and-heal run.
pub const CHECKPOINT_EVERY: u64 = 8;

/// Seed of every terminal-fault plan (rates stay zero, so the plan is
/// transparent until the cut fires).
const KILL_SEED: u64 = 0x5e1f_4ea1;

/// Scoped threads a call to [`for_each_cell`] runs its cells on.
const WORKERS: usize = 2;

/// One point of the matrix.
#[derive(Debug, Clone, Copy)]
pub struct Cell {
    pub workload: Workload,
    pub backend: Backend,
    pub perturbation: Perturbation,
}

impl fmt::Display for Cell {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let (w, row, perturbation) = (&self.workload, &self.backend, self.perturbation);
        write!(f, "{}", row.name)?;
        if let (Some(spec), Perturbation::CutAndRestore) = (row.fault, perturbation) {
            write!(f, " under {spec:?}")?;
        }
        let (name, suite, n) = (w.name, w.suite, w.domains);
        write!(f, " / {name} ({suite:?} suite) / n={n} / {perturbation:?}")
    }
}

/// What every cell must commit exactly as its baseline does.
#[derive(Debug, Clone, PartialEq)]
pub struct Commit {
    /// Hash of every edge's merged committed trace, in edge order.
    pub edge_hashes: Vec<u64>,
    /// Cycles committed at the halt boundary.
    pub committed: u64,
    /// Protocol-level channel statistics (recovery excluded by design).
    pub channel: ChannelStats,
    pub ledger_total: VirtualTime,
    /// Simulator-side rollbacks and accelerator-side flushes (edge 0's).
    pub sim_rollbacks: u64,
    pub acc_flushes: u64,
}

/// Everything a cell observes about its session.
#[derive(Debug, Clone)]
pub struct Observed {
    pub commit: Commit,
    /// Per domain: cycles committed, channel statistics, total virtual time.
    /// Two domains on a shared medium have one channel and one ledger, so
    /// either reads the whole session's there.
    pub domains: Vec<(u64, ChannelStats, VirtualTime)>,
    pub faults_injected: u64,
    /// Channel, wrapper, recovery and batching statistics.
    pub report: PerfReport,
    /// Slices a [`Perturbation::Slice`] run took, and its observer events.
    pub slices: usize,
    pub events: Vec<(Side, EmuEvent)>,
    /// How a [`Perturbation::KillAndHeal`] run ended.
    pub heal: Option<Heal>,
}

/// Captures what a cell compares from a finished Fig. 2 session.
pub fn observe(session: &EmuSession<AhbDomainModel>) -> Observed {
    let placement = figure2_soc().placement();
    let merge = |s: &[u64], a: &[u64]| placement.merge_records(s, a);
    let edges = 0..session.edges().len();
    let domain = |d| {
        let (committed, channel) = (session.domain_committed(d), session.domain_channel_stats(d));
        (committed, channel, session.domain_ledger(d).total())
    };
    Observed {
        commit: Commit {
            edge_hashes: edges.map(|e| session.edge_trace(e, merge).hash()).collect(),
            committed: session.committed_cycles(),
            channel: session.channel_stats(),
            ledger_total: session.ledger().total(),
            sim_rollbacks: session.sim_stats().rollbacks,
            acc_flushes: session.acc_stats().flushes,
        },
        domains: (0..session.domains()).map(domain).collect(),
        faults_injected: session.fault_stats().map_or(0, |f| f.total()),
        report: session.report(),
        slices: 0,
        events: Vec::new(),
        heal: None,
    }
}

/// A fresh Fig. 2 session for `workload` over `select`.
pub fn build_session(select: TransportSelect, workload: &Workload) -> EmuSession<AhbDomainModel> {
    build_session_with(select, workload, None)
}

/// [`build_session`] with an observer attached.
pub fn build_session_with(
    select: TransportSelect,
    workload: &Workload,
    observer: Option<Box<dyn EmuObserver>>,
) -> EmuSession<AhbDomainModel> {
    let blueprint = figure2_soc();
    let mut builder = EmuSession::from_blueprint(&blueprint)
        .domains(workload.domains)
        .config(workload_config(workload))
        .transport(select);
    if let Some(observer) = observer {
        builder = builder.observer(observer);
    }
    let builder = match workload.suite {
        Suite::Paper => builder,
        Suite::LastValue => builder.predictors(LastValueSuite),
        Suite::Markov => builder.predictors(MarkovSuite),
        Suite::Adaptive => builder.predictors(AdaptiveSuite::default()),
    };
    builder.build().expect("session builds")
}

/// Runs `compute` once per test binary for `key`.
fn cached(key: String, compute: impl FnOnce() -> Observed) -> Arc<Observed> {
    static RUNS: OnceLock<Mutex<HashMap<String, Arc<Observed>>>> = OnceLock::new();
    let runs = RUNS.get_or_init(Default::default);
    if let Some(hit) = runs.lock().unwrap().get(&key) {
        return hit.clone();
    }
    let run = Arc::new(compute());
    runs.lock().unwrap().entry(key).or_insert(run).clone()
}

/// The queue baseline of `workload`, computed once per test binary and
/// checked against the golden bus: every edge, truncated to the target,
/// commits the golden trace, and the golden run breaks no AHB rule.
pub fn baseline(workload: &Workload) -> Arc<Observed> {
    cached(format!("queue {workload:?}"), || {
        let (w, n) = (workload, workload.domains);
        let mut session = build_session(TransportSelect::Queue, w);
        session.run_until_committed(w.cycles).expect("runs");
        let blueprint = figure2_soc();
        let mut golden = blueprint.build_golden().expect("Fig. 2 builds");
        golden.run(w.cycles);
        let violations = golden.violations();
        assert!(violations.is_empty(), "{w:?}: golden bus: {violations:?}");
        let placement = blueprint.placement();
        for e in 0..session.edges().len() {
            let mut trace = session.edge_trace(e, |s, a| placement.merge_records(s, a));
            trace.truncate_to_len(w.cycles as usize);
            let (at, same) = (
                golden.trace().first_divergence(&trace),
                trace == *golden.trace(),
            );
            assert!(same, "{w:?}: edge {e} left the golden bus at cycle {at:?}");
        }
        let base = observe(&session);
        let edges = base.commit.edge_hashes.len();
        assert_eq!(edges, n * (n - 1) / 2, "{w:?}: a full mesh");
        let reached = base.domains.iter().all(|(c, ..)| *c >= w.cycles);
        assert!(base.domains.len() == n && reached, "{w:?}: every domain");
        base
    })
}

/// The per-domain reads a row must match. Past two domains every backend
/// splits by link end as the queue baseline does; at two, a per-side row is
/// compared with the mpsc backend's split.
fn domain_reference(workload: &Workload, backend: &Backend) -> Arc<Observed> {
    if workload.domains > 2 || backend.shares_medium {
        return baseline(workload);
    }
    cached(format!("split {workload:?}"), || {
        let mut split = build_session(TransportSelect::Threaded(test_opts()), workload);
        split.run_until_committed(workload.cycles).expect("runs");
        observe(&split)
    })
}

/// Runs every (workload, n, backend) cell under `perturbation` and asserts
/// it against the (workload, n) baseline; a failure names the cell. Returns
/// each cell's observation for cross-cell checks.
pub fn for_each_cell(
    workloads: &[Workload],
    domains: &[usize],
    backends: &[Backend],
    perturbation: Perturbation,
) -> Vec<(Cell, Observed)> {
    let mut cells = Vec::new();
    for workload in workloads
        .iter()
        .flat_map(|w| domains.iter().map(|&n| w.at(n)))
    {
        baseline(&workload);
        for &backend in backends {
            let backend = match perturbation {
                Perturbation::Faults(spec) => backend.with_fault(spec),
                _ => backend,
            };
            cells.push(Cell {
                workload,
                backend,
                perturbation,
            });
        }
    }
    let observed = run_cells(&cells);
    for (cell, observed) in cells.iter().zip(&observed) {
        assert_cell(cell, &baseline(&cell.workload), observed);
    }
    cells.into_iter().zip(observed).collect()
}

/// Runs `cells` on [`WORKERS`] scoped threads, each taking the next cell
/// not yet started; a panicking cell re-raises its own message.
fn run_cells(cells: &[Cell]) -> Vec<Observed> {
    let next = AtomicUsize::new(0);
    let worker = || {
        let mut done = Vec::new();
        loop {
            let i = next.fetch_add(1, Ordering::Relaxed);
            let Some(cell) = cells.get(i) else {
                return done;
            };
            let started = Instant::now();
            done.push((i, run_cell(cell)));
            println!("{cell}: {:.1?}", started.elapsed());
        }
    };
    let mut runs: Vec<(usize, Observed)> = thread::scope(|scope| {
        let workers: Vec<_> = (0..WORKERS).map(|_| scope.spawn(worker)).collect();
        let join = |w: thread::ScopedJoinHandle<'_, _>| {
            w.join().unwrap_or_else(|p| panic::resume_unwind(p))
        };
        workers.into_iter().flat_map(join).collect()
    });
    runs.sort_by_key(|(i, _)| *i);
    runs.into_iter().map(|(_, observed)| observed).collect()
}

fn run_cell(cell: &Cell) -> Observed {
    let (w, backend) = (&cell.workload, &cell.backend);
    let fail = |e: SimError| panic!("{cell}: {e}");
    let straight = || {
        let mut session = build_session(backend.select(), w);
        session.run_until_committed(w.cycles).unwrap_or_else(fail);
        observe(&session)
    };
    match cell.perturbation {
        Perturbation::None | Perturbation::Faults(_) => straight(),
        Perturbation::Slice(steps) => {
            let log = EventLog::new();
            let observer: Box<dyn EmuObserver> = Box::new(log.clone());
            let session = build_session_with(backend.select(), w, Some(observer));
            let mut sliced = session.into_sliced(w.cycles);
            let poll = PollSet::syscall_probes();
            let deadline = Instant::now() + Duration::from_secs(60);
            let mut slices = 1;
            loop {
                match sliced
                    .run_slice(steps)
                    .unwrap_or_else(|e| panic!("{cell}: {e}"))
                {
                    SliceStatus::Done => break,
                    SliceStatus::Working => {}
                    // Park on the readiness poll-set: the farm poller's
                    // discipline over one session.
                    SliceStatus::Idle => {
                        poll.wait_any(&mut [&mut sliced], Duration::from_millis(2));
                    }
                }
                assert!(Instant::now() < deadline, "{cell}: sliced run wedged");
                slices += 1;
            }
            let (slices, events) = (slices, log.events());
            let observed = observe(&sliced.into_session());
            Observed {
                slices,
                events,
                ..observed
            }
        }
        Perturbation::CutAndRestore => {
            let mut first = build_session(backend.select(), w);
            first.run_until_committed(w.cycles / 2).unwrap_or_else(fail);
            let ckpt = first.checkpoint().expect("a halt is a checkpoint boundary");
            assert!(ckpt.committed_cycles() >= w.cycles / 2, "{cell}: cut");
            // Nothing but the blob crosses from the first session to the
            // second: the migration path.
            let bytes = ckpt.to_bytes();
            drop(first);
            let ckpt = SessionCheckpoint::from_bytes(&bytes).expect("blob round-trips");
            let mut second = build_session(backend.select(), w);
            second.restore(&ckpt).expect("restore into a fresh session");
            let at = second.committed_cycles();
            assert_eq!(at, ckpt.committed_cycles(), "{cell}: restored at the cut");
            second.run_until_committed(w.cycles).unwrap_or_else(fail);
            let observed = observe(&second);
            if backend.fault.is_some() {
                // The lossy cursor and the reliable windows are in the cut:
                // the restored run replays the same faults and repairs.
                let straight = straight();
                let replayed = (straight.faults_injected, straight.report.recovery());
                let got = (observed.faults_injected, observed.report.recovery());
                assert_eq!(replayed, got, "{cell}: replayed faults, repairs");
            }
            observed
        }
        Perturbation::KillAndHeal(cut) => kill_and_heal(cell, cut),
    }
}

/// Runs the cell with its link doomed to sever after `cut` frames, heals the
/// wreck onto the clean row (resume from the latest auto-checkpoint, or a
/// cold restart), and drives the healed session to the target.
fn kill_and_heal(cell: &Cell, cut: u64) -> Observed {
    let (w, backend) = (&cell.workload, &cell.backend);
    let doomed = backend.with_fault(FaultSpec::disconnect_after(KILL_SEED, cut));
    let mut sliced = build_session(doomed.select(), w).into_sliced(w.cycles);
    sliced.set_auto_checkpoint(true);
    sliced.set_checkpoint_interval(CHECKPOINT_EVERY);
    // The sliced runner fails fast on a dead medium; `Idle` on a live link
    // only means frames are still in flight.
    let err = loop {
        match sliced.run_slice(256) {
            Ok(SliceStatus::Done) => {
                let observed = observe(&sliced.into_session());
                let heal = Some(Heal::Unharmed);
                return Observed { heal, ..observed };
            }
            Ok(_) => {}
            Err(e) => break e,
        }
    };
    // A bare link starves into a deadlock; the reliable layer abandons a
    // frame.
    match (&err, backend.reliable) {
        (SimError::Deadlock { .. }, false) | (SimError::RetryBudgetExhausted { .. }, true) => {}
        _ => panic!("{cell}: unexpected failure {err:?}"),
    }
    let checkpoint = sliced.take_latest_checkpoint();
    let dead = sliced.into_session();
    let (mut session, heal) = match checkpoint {
        Some(ckpt) => {
            // Only the blob needs to survive the dead session's teardown.
            let ckpt = SessionCheckpoint::from_bytes(&ckpt.to_bytes()).expect("blob round-trips");
            let boundary = ckpt.committed_cycles();
            let healed = dead.resume_from(&ckpt, backend.select());
            let healed = healed.unwrap_or_else(|e| panic!("{cell}: resume: {e}"));
            let at = healed.committed_cycles();
            assert_eq!(at, boundary, "{cell}: resumed at the cut");
            (healed, Heal::Resumed { boundary })
        }
        None => (build_session(backend.select(), w), Heal::ColdRestart),
    };
    let run = session.run_until_committed(w.cycles);
    run.unwrap_or_else(|e| panic!("{cell}: healed run: {e}"));
    let heal = Some(heal);
    Observed {
        heal,
        ..observe(&session)
    }
}

/// Asserts that `observed` committed exactly what `base` did.
pub fn assert_same_commit(label: &str, base: &Observed, observed: &Observed) {
    assert_eq!(base.commit, observed.commit, "{label}: committed otherwise");
}

/// Asserts that `observed` committed exactly what the baseline did, plus
/// the facts its backend row promises.
fn assert_cell(cell: &Cell, base: &Observed, observed: &Observed) {
    let (row, report) = (&cell.backend, &observed.report);
    let check = |ok: bool, what: &str| assert!(ok, "{cell}: {what}");
    assert_same_commit(&cell.to_string(), base, observed);
    let reference = domain_reference(&cell.workload, row);
    assert_eq!(reference.domains, observed.domains, "{cell}: per domain");
    // No `writes <= frames` bound: the ring publishes a large frame in
    // chunk-sized slices.
    let batched = report
        .batch()
        .is_some_and(|b| b.frames > 0 && b.physical_writes > 0);
    check(batched == row.batches, "batch stats");
    check(
        report.recovery().is_some() == row.reliable,
        "recovery stats",
    );
    check(
        (observed.faults_injected > 0) == row.fault.is_some(),
        "faults",
    );
    let Some(r) = report.recovery() else {
        return;
    };
    // Headers and acks are honest overhead even on a clean link.
    let words = report.billed_words() > base.report.billed_words();
    let time = report.billed_channel_time() > base.report.billed_channel_time();
    check(words && time, "no recovery overhead billed");
    check(report.to_string().contains("recovery:"), "report");
    let Some(spec) = row.fault else {
        let clock = !row.deterministic_clock || r.retransmits == 0;
        check(clock, "a retransmission on a clean link");
        check(r.crc_rejects == 0, "a CRC reject on a clean link");
        check(r.acks_sent > 0, "every frame is acknowledged");
        check(r.acks_piggybacked <= r.acks_sent, "acks");
        return;
    };
    check(r.recovery_events() > 0, "nothing repaired");
    let drops = (spec.drop_rate, r.retransmits, "retransmits");
    let truncations = (spec.truncate_rate, r.crc_rejects, "CRC rejects");
    let duplicates = (spec.duplicate_rate, r.duplicates_suppressed, "dedups");
    for (rate, repairs, kind) in [drops, truncations, duplicates] {
        check(rate == 0.0 || repairs > 0, kind);
    }
}
