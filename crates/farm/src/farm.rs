//! The worker pool, run queue, and readiness poller.
//!
//! One mutex-guarded [`State`] holds the run queue, the parked set, and the
//! results; a single condition variable wakes idle workers. At any moment at
//! most one worker is the *poller*: it takes the whole parked set out of the
//! lock and parks on it with [`PollSet::wait_any`] — the generalized
//! spin-then-park ladder the shm transport uses for one endpoint, applied to
//! N sessions at once. Everything else is plain queue discipline.

use std::collections::{HashSet, VecDeque};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::{self, JoinHandle};
use std::time::Instant;

use predpkt_channel::{PollReady, PollSet, Readiness};
use predpkt_core::{DomainModel, SessionCheckpoint, SessionError, SliceStatus, SlicedSession};

use crate::config::{FarmConfig, FarmError};
use crate::stats::{percentile, FarmReport, FarmResult, FarmStats, SessionOutcome};

/// Handle identifying one admitted session, returned by
/// [`SessionFarm::submit`] and echoed in its [`FarmResult`].
pub type SessionId = u64;

type BuildFn<M> = Box<dyn FnOnce() -> Result<SlicedSession<M>, SessionError> + Send>;
type RespawnFn<M> = Box<dyn FnMut() -> Result<SlicedSession<M>, SessionError> + Send>;

/// The self-healing hook a [`submit_healable`](SessionFarm::submit_healable)
/// job carries for its whole life: a reusable builder producing a fresh
/// incarnation of the session (fresh sockets, fresh rings, fresh injector
/// state), plus the count of re-admissions already spent against the
/// [`ReadmitPolicy`](crate::ReadmitPolicy) budget.
struct Heal<M: DomainModel + Send + 'static> {
    respawn: RespawnFn<M>,
    retries: u32,
}

/// Sessions are admitted *unbuilt*: the build closure runs on the worker that
/// first schedules the session, so ten thousand queued sessions do not mean
/// ten thousand open socket pairs before the first slice runs.
enum JobState<M: DomainModel + Send + 'static> {
    Unbuilt(BuildFn<M>),
    Built(Box<SlicedSession<M>>),
    /// (Re)build via the job's [`Heal`] closure — the healable twin of
    /// `Unbuilt`, usable any number of times.
    Respawn,
}

struct Job<M: DomainModel + Send + 'static> {
    id: SessionId,
    submitted: Instant,
    state: JobState<M>,
    /// The self-healing hook, present for `submit_healable` jobs.
    heal: Option<Heal<M>>,
    /// A checkpoint to restore right after the next (re)build — the cut the
    /// previous incarnation died carrying.
    resume: Option<Box<SessionCheckpoint>>,
}

/// A death the re-admission policy accepted, waiting out its backoff delay.
/// Promoted back onto the run queue once `due` passes.
struct PendingReadmit<M: DomainModel + Send + 'static> {
    id: SessionId,
    submitted: Instant,
    due: Instant,
    resume: Option<Box<SessionCheckpoint>>,
    heal: Heal<M>,
}

/// A parked session: blocked on its medium, costing zero threads.
struct Parked<M: DomainModel + Send + 'static> {
    job: Job<M>,
    idle_since: Instant,
}

impl<M: DomainModel + Send + 'static> PollReady for Parked<M> {
    fn readiness(&mut self) -> Readiness {
        match &mut self.job.state {
            JobState::Built(s) => s.readiness(),
            // Unreachable: only built sessions ever park.
            JobState::Unbuilt(_) | JobState::Respawn => Readiness::Ready,
        }
    }
}

struct State<M: DomainModel + Send + 'static> {
    runnable: VecDeque<Job<M>>,
    parked: Vec<Parked<M>>,
    /// Healable deaths waiting out their backoff; still `outstanding`.
    pending_readmits: Vec<PendingReadmit<M>>,
    results: Vec<FarmResult<M>>,
    cancelled: HashSet<SessionId>,
    /// Sessions admitted and not yet resolved (runnable + parked + executing
    /// + waiting out a re-admission backoff).
    outstanding: usize,
    submitted: u64,
    parked_events: u64,
    readmitted: u64,
    gave_up: u64,
    /// Cumulative scheduled backoff delay across all re-admissions.
    backoff_ns: u64,
    busy_ns: u64,
    paused: bool,
    closing: bool,
    poller_active: bool,
}

struct Shared<M: DomainModel + Send + 'static> {
    state: Mutex<State<M>>,
    work: Condvar,
    cfg: FarmConfig,
}

/// What one scheduling turn did with a job (computed outside the lock).
enum Turn<M: DomainModel + Send + 'static> {
    Working(Job<M>),
    Idle(Job<M>),
    Finished {
        id: SessionId,
        submitted: Instant,
        outcome: SessionOutcome,
        session: Option<Box<SlicedSession<M>>>,
        /// Returned so the scheduler can re-admit a healable death.
        heal: Option<Heal<M>>,
    },
}

/// An event-driven server multiplexing many co-emulation sessions over a
/// fixed worker pool. See the [crate docs](crate) for the model and a worked
/// example.
pub struct SessionFarm<M: DomainModel + Send + 'static> {
    shared: Arc<Shared<M>>,
    workers: Vec<JoinHandle<()>>,
    next_id: AtomicU64,
    started: Instant,
}

impl<M: DomainModel + Send + 'static> SessionFarm<M> {
    /// Validates `config` and spawns the worker pool. This is the only place
    /// the farm creates threads — session count never changes thread count.
    pub fn new(config: FarmConfig) -> Result<Self, FarmError> {
        config.validate()?;
        let workers = config.workers;
        let paused = config.start_paused;
        let shared = Arc::new(Shared {
            state: Mutex::new(State {
                runnable: VecDeque::new(),
                parked: Vec::new(),
                pending_readmits: Vec::new(),
                results: Vec::new(),
                cancelled: HashSet::new(),
                outstanding: 0,
                submitted: 0,
                parked_events: 0,
                readmitted: 0,
                gave_up: 0,
                backoff_ns: 0,
                busy_ns: 0,
                paused,
                closing: false,
                poller_active: false,
            }),
            work: Condvar::new(),
            cfg: config,
        });
        let mut handles = Vec::with_capacity(workers);
        for i in 0..workers {
            let shared = Arc::clone(&shared);
            let handle = thread::Builder::new()
                .name(format!("predpkt-farm-{i}"))
                .spawn(move || worker_loop(&shared))
                .expect("spawn farm worker");
            handles.push(handle);
        }
        Ok(SessionFarm {
            shared,
            workers: handles,
            next_id: AtomicU64::new(0),
            started: Instant::now(),
        })
    }

    /// Admits one session. The closure builds the [`SlicedSession`] on the
    /// worker that first schedules it — compose it from the usual pieces
    /// (blueprint, [`CoEmuConfig`](predpkt_core::CoEmuConfig),
    /// [`TransportSelect`](predpkt_core::TransportSelect), predictor suite)
    /// and call [`EmuSession::into_sliced`](predpkt_core::EmuSession).
    ///
    /// # Errors
    ///
    /// [`FarmError::Saturated`] when [`capacity`](FarmConfig::capacity)
    /// sessions are already outstanding; [`FarmError::Closed`] once
    /// [`join`](Self::join) has begun.
    pub fn submit<F>(&self, build: F) -> Result<SessionId, FarmError>
    where
        F: FnOnce() -> Result<SlicedSession<M>, SessionError> + Send + 'static,
    {
        self.admit(JobState::Unbuilt(Box::new(build)), None)
    }

    /// Admits a **self-healing** session: `respawn` builds a fresh
    /// incarnation (fresh transport — new sockets, new rings, new injector
    /// state) every time it is called, and the farm calls it again after
    /// each death the configured [`ReadmitPolicy`](crate::ReadmitPolicy)
    /// accepts, restoring the latest boundary checkpoint the dead
    /// incarnation carried before running on. The session keeps its
    /// [`SessionId`] across incarnations; its [`FarmResult`] reflects the
    /// final outcome and its latency spans admission to that outcome,
    /// healing delays included.
    ///
    /// Deaths eligible for healing are transport-shaped: an emulation
    /// failure ([`SessionOutcome::Failed`]) or an eviction after wedging
    /// ([`SessionOutcome::Evicted`](crate::SessionOutcome::Evicted)). Build
    /// failures, panics, and cancellations are final. Combine with
    /// [`checkpoint_evictions`](FarmConfig::checkpoint_evictions) so the
    /// dead incarnation carries a cut — without it healing restarts from
    /// cycle zero.
    ///
    /// # Errors
    ///
    /// Those of [`submit`](Self::submit), plus [`FarmError::Config`] when
    /// the farm was built without [`FarmConfig::readmit`] — a healable
    /// session with no policy to heal it under is a contradiction.
    pub fn submit_healable<F>(&self, respawn: F) -> Result<SessionId, FarmError>
    where
        F: FnMut() -> Result<SlicedSession<M>, SessionError> + Send + 'static,
    {
        if self.shared.cfg.readmit.is_none() {
            return Err(FarmError::Config(predpkt_channel::KnobError::new(
                "readmit",
                "submit_healable needs a ReadmitPolicy (FarmConfig::readmit)",
            )));
        }
        self.admit(
            JobState::Respawn,
            Some(Heal {
                respawn: Box::new(respawn),
                retries: 0,
            }),
        )
    }

    fn admit(&self, state: JobState<M>, heal: Option<Heal<M>>) -> Result<SessionId, FarmError> {
        let mut guard = self.lock();
        if guard.closing {
            return Err(FarmError::Closed);
        }
        if guard.outstanding >= self.shared.cfg.capacity {
            return Err(FarmError::Saturated {
                capacity: self.shared.cfg.capacity,
            });
        }
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        guard.outstanding += 1;
        guard.submitted += 1;
        guard.runnable.push_back(Job {
            id,
            submitted: Instant::now(),
            state,
            heal,
            resume: None,
        });
        drop(guard);
        self.shared.work.notify_one();
        Ok(id)
    }

    /// Requests cancellation of one session. Takes effect the next time the
    /// scheduler touches it (pop, park sweep, or poller wake); a session
    /// mid-slice finishes its slice first. Completed sessions are unaffected.
    pub fn cancel(&self, id: SessionId) {
        self.lock().cancelled.insert(id);
        self.shared.work.notify_all();
    }

    /// Unpauses a farm built with [`start_paused`](FarmConfig::start_paused).
    pub fn resume(&self) {
        self.lock().paused = false;
        self.shared.work.notify_all();
    }

    /// Sessions admitted and not yet resolved.
    pub fn outstanding(&self) -> usize {
        self.lock().outstanding
    }

    /// Closes admission, drains every outstanding session, joins the worker
    /// pool, and returns the [`FarmReport`]. A paused farm is resumed first —
    /// join never deadlocks on admitted work.
    pub fn join(self) -> FarmReport<M> {
        {
            let mut guard = self.lock();
            guard.closing = true;
            guard.paused = false;
        }
        self.shared.work.notify_all();
        for handle in self.workers {
            let _ = handle.join();
        }
        let wall = self.started.elapsed();
        let mut state = self.shared.state.lock().unwrap();
        let results = std::mem::take(&mut state.results);
        let mut stats = FarmStats {
            submitted: state.submitted,
            completed: 0,
            failed: 0,
            build_failed: 0,
            panicked: 0,
            evicted: 0,
            cancelled: 0,
            readmitted: state.readmitted,
            gave_up: state.gave_up,
            backoff: std::time::Duration::from_nanos(state.backoff_ns),
            parked_events: state.parked_events,
            workers: self.shared.cfg.workers,
            wall,
            sessions_per_sec: 0.0,
            p50_latency: None,
            p99_latency: None,
            pool_occupancy: 0.0,
        };
        let mut latencies = Vec::new();
        for r in &results {
            match &r.outcome {
                SessionOutcome::Completed => {
                    stats.completed += 1;
                    latencies.push(r.latency);
                }
                SessionOutcome::Failed { .. } => stats.failed += 1,
                SessionOutcome::BuildFailed(_) => stats.build_failed += 1,
                SessionOutcome::Panicked(_) => stats.panicked += 1,
                SessionOutcome::Evicted { .. } => stats.evicted += 1,
                SessionOutcome::Cancelled => stats.cancelled += 1,
            }
        }
        latencies.sort_unstable();
        stats.p50_latency = percentile(&latencies, 0.50);
        stats.p99_latency = percentile(&latencies, 0.99);
        if !wall.is_zero() {
            stats.sessions_per_sec = stats.completed as f64 / wall.as_secs_f64();
            let pool_ns = self.shared.cfg.workers as u128 * wall.as_nanos();
            stats.pool_occupancy = state.busy_ns as f64 / pool_ns as f64;
        }
        FarmReport { results, stats }
    }

    fn lock(&self) -> MutexGuard<'_, State<M>> {
        self.shared.state.lock().unwrap()
    }
}

fn worker_loop<M: DomainModel + Send + 'static>(shared: &Shared<M>) {
    // Parked sessions can hide syscall-backed probes (TCP), so the poller
    // uses the gentler syscall tuning rather than the shared-memory one.
    let poll_set = PollSet::syscall_probes();
    loop {
        let mut state = shared.state.lock().unwrap();
        loop {
            if state.closing && state.outstanding == 0 {
                shared.work.notify_all();
                return;
            }
            // `closing` overrides `paused` so join() always drains.
            let active = !state.paused || state.closing;
            if active {
                promote_due_readmits(&mut state);
            }
            let can_run = active && !state.runnable.is_empty();
            let can_poll = active && !state.parked.is_empty() && !state.poller_active;
            if can_run || can_poll {
                break;
            }
            // The park-slice timeout doubles as the re-admission clock: a
            // backoff delay expires within one slice of its due time.
            state = shared
                .work
                .wait_timeout(state, shared.cfg.park_slice)
                .unwrap()
                .0;
        }
        if let Some(job) = state.runnable.pop_front() {
            if state.cancelled.remove(&job.id) {
                finish(
                    shared,
                    &mut state,
                    job.id,
                    job.submitted,
                    SessionOutcome::Cancelled,
                    match job.state {
                        JobState::Built(s) => Some(*s),
                        JobState::Unbuilt(_) | JobState::Respawn => None,
                    },
                );
                continue;
            }
            drop(state);
            let slice_start = Instant::now();
            let turn = run_turn(job, &shared.cfg);
            let busy = slice_start.elapsed().as_nanos() as u64;
            let mut state = shared.state.lock().unwrap();
            state.busy_ns += busy;
            match turn {
                Turn::Working(job) => {
                    state.runnable.push_back(job);
                    drop(state);
                    shared.work.notify_one();
                }
                Turn::Idle(job) => {
                    state.parked.push(Parked {
                        job,
                        idle_since: Instant::now(),
                    });
                    state.parked_events += 1;
                    drop(state);
                    // Wake a free worker to take up poller duty.
                    shared.work.notify_one();
                }
                Turn::Finished {
                    id,
                    submitted,
                    outcome,
                    session,
                    heal,
                } => settle(
                    shared,
                    &mut state,
                    id,
                    submitted,
                    outcome,
                    session.map(|s| *s),
                    heal,
                ),
            }
        } else {
            poll_parked(shared, state, &poll_set);
        }
    }
}

/// Moves every pending re-admission whose backoff has expired back onto the
/// run queue (as a respawn job carrying its predecessor's cut). Idempotent
/// under the lock — every waking worker may call it.
fn promote_due_readmits<M: DomainModel + Send + 'static>(state: &mut State<M>) {
    let now = Instant::now();
    let mut i = 0;
    while i < state.pending_readmits.len() {
        if state.pending_readmits[i].due <= now {
            let p = state.pending_readmits.swap_remove(i);
            state.runnable.push_back(Job {
                id: p.id,
                submitted: p.submitted,
                state: JobState::Respawn,
                heal: Some(p.heal),
                resume: p.resume,
            });
        } else {
            i += 1;
        }
    }
}

/// Routes a finished turn: healable deaths the [`ReadmitPolicy`] accepts are
/// scheduled for re-admission (no result recorded — the session is still
/// outstanding); everything else lands as the session's final outcome. A
/// death the policy declines is counted in `gave_up` and then recorded — a
/// refused heal is never silent.
#[allow(clippy::too_many_arguments)]
fn settle<M: DomainModel + Send + 'static>(
    shared: &Shared<M>,
    state: &mut State<M>,
    id: SessionId,
    submitted: Instant,
    outcome: SessionOutcome,
    session: Option<SlicedSession<M>>,
    heal: Option<Heal<M>>,
) {
    let healable = matches!(
        outcome,
        SessionOutcome::Failed { .. } | SessionOutcome::Evicted { .. }
    );
    if let (Some(mut heal), Some(policy), true) = (heal, shared.cfg.readmit, healable) {
        if state.cancelled.remove(&id) {
            finish(
                shared,
                state,
                id,
                submitted,
                SessionOutcome::Cancelled,
                session,
            );
            return;
        }
        if heal.retries >= policy.max_retries
            || state.pending_readmits.len() >= policy.max_outstanding
        {
            state.gave_up += 1;
            finish(shared, state, id, submitted, outcome, session);
            return;
        }
        let resume = match outcome {
            SessionOutcome::Failed { checkpoint, .. } => checkpoint,
            SessionOutcome::Evicted { checkpoint } => checkpoint,
            _ => unreachable!("healable outcomes carry the checkpoint"),
        };
        let delay = policy.delay_for(heal.retries);
        heal.retries += 1;
        state.readmitted += 1;
        state.backoff_ns += delay.as_nanos() as u64;
        // The dead incarnation's transport-scoped remains drop here; the
        // respawn closure builds the fresh one when the retry comes due.
        drop(session);
        state.pending_readmits.push(PendingReadmit {
            id,
            submitted,
            due: Instant::now() + delay,
            resume,
            heal,
        });
        return;
    }
    finish(shared, state, id, submitted, outcome, session);
}

/// One build step with its panics contained: the fresh session, or the
/// outcome the job ends with.
fn build_contained<M: DomainModel + Send + 'static>(
    build: &mut dyn FnMut() -> Result<SlicedSession<M>, SessionError>,
) -> Result<Box<SlicedSession<M>>, SessionOutcome> {
    match catch_unwind(AssertUnwindSafe(build)) {
        Ok(Ok(session)) => Ok(Box::new(session)),
        Ok(Err(e)) => Err(SessionOutcome::BuildFailed(e)),
        Err(panic) => Err(SessionOutcome::Panicked(panic_message(panic))),
    }
}

/// One scheduling turn for one job, run outside the farm lock. Panics in the
/// build closure or the slice are contained here: the worker reports them as
/// a [`SessionOutcome::Panicked`] result and keeps serving other sessions.
fn run_turn<M: DomainModel + Send + 'static>(job: Job<M>, cfg: &FarmConfig) -> Turn<M> {
    let Job {
        id,
        submitted,
        state,
        mut heal,
        mut resume,
    } = job;
    let built = match state {
        JobState::Built(s) => Ok(s),
        JobState::Unbuilt(build) => {
            let mut build = Some(build);
            build_contained(&mut || (build.take().expect("an unbuilt job builds once"))())
        }
        JobState::Respawn => build_contained(
            &mut heal
                .as_mut()
                .expect("respawn jobs carry their heal hook")
                .respawn,
        ),
    };
    let mut session = match built {
        Ok(session) => session,
        Err(outcome) => {
            return Turn::Finished {
                id,
                submitted,
                outcome,
                session: None,
                heal,
            }
        }
    };
    if let Some(ckpt) = resume.take() {
        // A re-admitted incarnation rewinds onto its predecessor's cut
        // before its first slice. A rejected cut is a build failure — the
        // fresh session never ran, and retrying a deterministic rejection
        // would loop, so it is final.
        if let Err(e) = session.restore(&ckpt) {
            return Turn::Finished {
                id,
                submitted,
                outcome: SessionOutcome::BuildFailed(e.into()),
                session: None,
                heal,
            };
        }
    }
    if cfg.checkpoint_evictions {
        // Stash a checkpoint at each committed boundary so an eviction can
        // hand the last consistent cut back instead of dropping the work.
        session.set_auto_checkpoint(true);
    }
    match catch_unwind(AssertUnwindSafe(|| session.run_slice(cfg.slice_steps))) {
        Ok(Ok(SliceStatus::Done)) => Turn::Finished {
            id,
            submitted,
            outcome: SessionOutcome::Completed,
            session: Some(session),
            heal,
        },
        Ok(Ok(SliceStatus::Working)) => Turn::Working(Job {
            id,
            submitted,
            state: JobState::Built(session),
            heal,
            resume: None,
        }),
        Ok(Ok(SliceStatus::Idle)) => Turn::Idle(Job {
            id,
            submitted,
            state: JobState::Built(session),
            heal,
            resume: None,
        }),
        Ok(Err(e)) => Turn::Finished {
            id,
            submitted,
            // A failed session carries its last cut out exactly like an
            // evicted one: a transport that died mid-run loses nothing
            // past the latest boundary checkpoint.
            outcome: SessionOutcome::Failed {
                error: e,
                checkpoint: session.take_latest_checkpoint(),
            },
            session: Some(session),
            heal,
        },
        // A session that panicked mid-slice is in an unknown state; drop it.
        Err(panic) => Turn::Finished {
            id,
            submitted,
            outcome: SessionOutcome::Panicked(panic_message(panic)),
            session: None,
            heal,
        },
    }
}

/// The poller turn: claim the whole parked set, park on it as one readiness
/// poll-set, and act on whatever the sweep surfaced — wake the session whose
/// endpoints turned actionable, evict the ones parked past the deadlock
/// window, cancel the ones asked to die while parked.
fn poll_parked<M: DomainModel + Send + 'static>(
    shared: &Shared<M>,
    mut state: MutexGuard<'_, State<M>>,
    poll_set: &PollSet,
) {
    state.poller_active = true;
    let mut batch: Vec<Parked<M>> = std::mem::take(&mut state.parked);
    drop(state);

    let hit = poll_set.wait_any(&mut batch, shared.cfg.park_slice);
    let now = Instant::now();
    let woken = hit.map(|(idx, _)| batch.swap_remove(idx));
    let mut expired = Vec::new();
    let mut i = 0;
    while i < batch.len() {
        if now.duration_since(batch[i].idle_since) >= shared.cfg.deadlock_timeout {
            expired.push(batch.swap_remove(i));
        } else {
            i += 1;
        }
    }

    let mut state = shared.state.lock().unwrap();
    state.poller_active = false;
    // New sessions may have parked while we held the batch out of the lock.
    state.parked.extend(batch);
    let mut cancelled = Vec::new();
    let mut j = 0;
    while j < state.parked.len() {
        let id = state.parked[j].job.id;
        if state.cancelled.remove(&id) {
            cancelled.push(state.parked.swap_remove(j));
        } else {
            j += 1;
        }
    }
    if let Some(p) = woken {
        if state.cancelled.remove(&p.job.id) {
            cancelled.push(p);
        } else {
            state.runnable.push_back(p.job);
        }
    }
    for mut p in expired {
        let outcome = if state.cancelled.remove(&p.job.id) {
            SessionOutcome::Cancelled
        } else {
            SessionOutcome::Evicted {
                checkpoint: take_checkpoint(&mut p),
            }
        };
        resolve_parked(shared, &mut state, p, outcome);
    }
    for p in cancelled {
        resolve_parked(shared, &mut state, p, SessionOutcome::Cancelled);
    }
    drop(state);
    shared.work.notify_all();
}

/// Pulls the evicted session's last boundary checkpoint (stashed by the
/// auto-checkpoint hook when [`FarmConfig::checkpoint_evictions`] is on; the
/// session itself may still be wedged mid-burst past that boundary).
fn take_checkpoint<M: DomainModel + Send + 'static>(
    p: &mut Parked<M>,
) -> Option<Box<SessionCheckpoint>> {
    match &mut p.job.state {
        JobState::Built(s) => s.take_latest_checkpoint(),
        JobState::Unbuilt(_) | JobState::Respawn => None,
    }
}

fn resolve_parked<M: DomainModel + Send + 'static>(
    shared: &Shared<M>,
    state: &mut State<M>,
    parked: Parked<M>,
    outcome: SessionOutcome,
) {
    let heal = parked.job.heal;
    let session = match parked.job.state {
        JobState::Built(s) => Some(*s),
        JobState::Unbuilt(_) | JobState::Respawn => None,
    };
    settle(
        shared,
        state,
        parked.job.id,
        parked.job.submitted,
        outcome,
        session,
        heal,
    );
}

fn finish<M: DomainModel + Send + 'static>(
    shared: &Shared<M>,
    state: &mut State<M>,
    id: SessionId,
    submitted: Instant,
    outcome: SessionOutcome,
    session: Option<SlicedSession<M>>,
) {
    let session = if shared.cfg.keep_sessions {
        session.map(SlicedSession::into_session)
    } else {
        None
    };
    state.results.push(FarmResult {
        id,
        outcome,
        latency: submitted.elapsed(),
        session,
    });
    state.outstanding -= 1;
    if state.closing && state.outstanding == 0 {
        shared.work.notify_all();
    }
}

fn panic_message(panic: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = panic.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = panic.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}
