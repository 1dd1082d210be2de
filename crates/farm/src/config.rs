//! Farm sizing and scheduling knobs, plus the admission-control error type.

use std::error::Error;
use std::fmt;
use std::time::Duration;

use predpkt_channel::KnobError;

/// Sizing and scheduling knobs for a [`SessionFarm`](crate::SessionFarm).
///
/// The defaults run a small pool suitable for tests; servers should size
/// [`workers`](Self::workers) to the machine and [`capacity`](Self::capacity)
/// to the memory/fd budget they are willing to commit to in-flight sessions.
#[derive(Debug, Clone)]
pub struct FarmConfig {
    pub(crate) workers: usize,
    pub(crate) capacity: usize,
    pub(crate) slice_steps: u32,
    pub(crate) park_slice: Duration,
    pub(crate) deadlock_timeout: Duration,
    pub(crate) keep_sessions: bool,
    pub(crate) start_paused: bool,
    pub(crate) checkpoint_evictions: bool,
    pub(crate) readmit: Option<ReadmitPolicy>,
}

impl Default for FarmConfig {
    fn default() -> Self {
        FarmConfig {
            workers: 4,
            capacity: 1024,
            slice_steps: 1024,
            park_slice: Duration::from_micros(200),
            deadlock_timeout: Duration::from_secs(5),
            keep_sessions: false,
            start_paused: false,
            checkpoint_evictions: false,
            readmit: None,
        }
    }
}

/// Re-admission knobs for self-healing sessions (see
/// [`SessionFarm::submit_healable`](crate::SessionFarm::submit_healable)).
///
/// When a healable session dies — a transport failure surfaced as
/// [`SessionOutcome::Failed`](crate::SessionOutcome::Failed), or an eviction
/// after wedging — the farm schedules a retry instead of recording the
/// death: after an exponential-backoff delay it rebuilds the session on a
/// **fresh** transport (the respawn closure), restores the latest boundary
/// checkpoint the dead incarnation carried out, and runs on. The budget is
/// bounded twice over: per session by [`max_retries`](Self::max_retries),
/// and farm-wide by [`max_outstanding`](Self::max_outstanding) deaths
/// waiting out their backoff at once. A death the policy declines to retry
/// is **never silent** — it lands as the session's final outcome and counts
/// in [`FarmStats::gave_up`](crate::FarmStats::gave_up).
#[derive(Debug, Clone, Copy)]
pub struct ReadmitPolicy {
    pub(crate) max_retries: u32,
    pub(crate) base_delay: Duration,
    pub(crate) max_delay: Duration,
    pub(crate) max_outstanding: usize,
}

impl Default for ReadmitPolicy {
    fn default() -> Self {
        ReadmitPolicy {
            max_retries: 3,
            base_delay: Duration::from_millis(1),
            max_delay: Duration::from_millis(100),
            max_outstanding: 32,
        }
    }
}

impl ReadmitPolicy {
    /// The default policy (3 retries, 1ms–100ms exponential backoff, 32
    /// outstanding re-admissions).
    pub fn new() -> Self {
        ReadmitPolicy::default()
    }

    /// Times one session may be re-admitted before the farm gives up on it.
    pub fn max_retries(mut self, retries: u32) -> Self {
        self.max_retries = retries;
        self
    }

    /// Delay before the first re-admission; each subsequent retry of the
    /// same session doubles it (capped at [`max_delay`](Self::max_delay)).
    /// Zero means immediate re-admission.
    pub fn base_delay(mut self, delay: Duration) -> Self {
        self.base_delay = delay;
        self
    }

    /// Ceiling on the per-retry backoff delay.
    pub fn max_delay(mut self, delay: Duration) -> Self {
        self.max_delay = delay;
        self
    }

    /// Farm-wide cap on deaths waiting out their backoff at once; a death
    /// arriving past the cap is given up immediately (and counted).
    pub fn max_outstanding(mut self, cap: usize) -> Self {
        self.max_outstanding = cap;
        self
    }

    /// The backoff delay before retry number `retries` (0-based):
    /// `base_delay * 2^retries`, capped at `max_delay`.
    pub(crate) fn delay_for(&self, retries: u32) -> Duration {
        let factor = 1u32.checked_shl(retries).unwrap_or(u32::MAX);
        self.base_delay
            .checked_mul(factor)
            .unwrap_or(self.max_delay)
            .min(self.max_delay)
    }

    pub(crate) fn validate(&self) -> Result<(), KnobError> {
        if self.max_retries == 0 {
            return Err(KnobError::new(
                "readmit.max_retries",
                "a zero-retry policy can never re-admit; drop the policy instead",
            ));
        }
        if self.max_outstanding == 0 {
            return Err(KnobError::new(
                "readmit.max_outstanding",
                "a zero-slot re-admission queue gives up on every death",
            ));
        }
        if self.max_delay < self.base_delay {
            return Err(KnobError::new(
                "readmit.max_delay",
                format!(
                    "backoff ceiling below its base ({:?} < {:?})",
                    self.max_delay, self.base_delay
                ),
            ));
        }
        Ok(())
    }
}

impl FarmConfig {
    /// The default configuration (4 workers, 1024-session capacity).
    pub fn new() -> Self {
        FarmConfig::default()
    }

    /// Number of worker threads in the fixed pool. This is the farm's *only*
    /// source of threads — sessions never get their own.
    pub fn workers(mut self, workers: usize) -> Self {
        self.workers = workers;
        self
    }

    /// Maximum sessions outstanding (runnable + parked + executing) before
    /// [`submit`](crate::SessionFarm::submit) refuses with
    /// [`FarmError::Saturated`].
    pub fn capacity(mut self, capacity: usize) -> Self {
        self.capacity = capacity;
        self
    }

    /// Scheduling rounds a session may consume per slice before it yields the
    /// worker — the farm's time-slice, in the unit
    /// [`SlicedSession::run_slice`](predpkt_core::SlicedSession::run_slice)
    /// defines: a round is every running port stepped until it blocks or
    /// halts, at most one transition, on every backend.
    pub fn slice_steps(mut self, steps: u32) -> Self {
        self.slice_steps = steps;
        self
    }

    /// How long the poller parks on the readiness poll-set per sweep, and the
    /// idle workers' condition-variable re-check interval.
    pub fn park_slice(mut self, slice: Duration) -> Self {
        self.park_slice = slice;
        self
    }

    /// How long a session may stay parked without its endpoints turning
    /// actionable before the farm gives up on it and reports
    /// [`SessionOutcome::Evicted`](crate::SessionOutcome::Evicted). This is
    /// the farm-side analogue of the blocking runner's deadlock timeout: a
    /// wedged peer costs one eviction, never a worker.
    pub fn deadlock_timeout(mut self, timeout: Duration) -> Self {
        self.deadlock_timeout = timeout;
        self
    }

    /// Keep each finished [`EmuSession`](predpkt_core::EmuSession) in its
    /// [`FarmResult`](crate::FarmResult) so the caller can harvest reports,
    /// traces, and ledgers. Off by default: ten thousand retained sessions
    /// means ten thousand sets of sockets and rings held until
    /// [`join`](crate::SessionFarm::join).
    pub fn keep_sessions(mut self, keep: bool) -> Self {
        self.keep_sessions = keep;
        self
    }

    /// Checkpoint sessions at each committed boundary they pass, so that an
    /// eviction carries the last consistent cut out in
    /// [`SessionOutcome::Evicted`](crate::SessionOutcome::Evicted) instead of
    /// dropping the session's progress. The checkpoint can be re-admitted to
    /// this farm (or migrated to another host) via
    /// [`EmuSession::restore`](predpkt_core::EmuSession::restore). Off by
    /// default: each checkpoint copies the session's full state, which is
    /// wasted work for farms that treat wedged sessions as disposable.
    pub fn checkpoint_evictions(mut self, enabled: bool) -> Self {
        self.checkpoint_evictions = enabled;
        self
    }

    /// Arms self-healing re-admission: sessions admitted through
    /// [`submit_healable`](crate::SessionFarm::submit_healable) that die of
    /// a transport failure or eviction are rebuilt on a fresh transport and
    /// resumed from their latest boundary checkpoint, under `policy`'s
    /// backoff schedule and budgets. Combine with
    /// [`checkpoint_evictions`](Self::checkpoint_evictions) — without it the
    /// dead session carries no cut and healing restarts from cycle zero.
    pub fn readmit(mut self, policy: ReadmitPolicy) -> Self {
        self.readmit = Some(policy);
        self
    }

    /// Start with the scheduler paused: sessions are admitted (and counted
    /// against capacity) but none execute until
    /// [`resume`](crate::SessionFarm::resume). Deterministic
    /// saturation/cancellation tests want this; servers do not.
    pub fn start_paused(mut self, paused: bool) -> Self {
        self.start_paused = paused;
        self
    }

    pub(crate) fn validate(&self) -> Result<(), KnobError> {
        if self.workers == 0 {
            return Err(KnobError::new("workers", "need at least one worker thread"));
        }
        if self.capacity == 0 {
            return Err(KnobError::new(
                "capacity",
                "a zero-capacity farm can never admit a session",
            ));
        }
        if self.slice_steps == 0 {
            return Err(KnobError::new(
                "slice_steps",
                "a zero-round slice cannot make progress",
            ));
        }
        if self.park_slice.is_zero() {
            return Err(KnobError::new(
                "park_slice",
                "the poller needs a non-zero park interval",
            ));
        }
        if self.deadlock_timeout < self.park_slice {
            return Err(KnobError::new(
                "deadlock_timeout",
                format!(
                    "must cover at least one park slice ({:?} < {:?})",
                    self.deadlock_timeout, self.park_slice
                ),
            ));
        }
        if let Some(policy) = &self.readmit {
            policy.validate()?;
        }
        Ok(())
    }
}

/// Why the farm refused a request.
#[derive(Debug)]
pub enum FarmError {
    /// The admission queue is full: `capacity` sessions are already
    /// outstanding. Shed load or retry after some complete — the farm never
    /// queues without bound.
    Saturated {
        /// The configured [`FarmConfig::capacity`] that was hit.
        capacity: usize,
    },
    /// [`join`](crate::SessionFarm::join) has begun; the farm no longer
    /// admits sessions.
    Closed,
    /// The [`FarmConfig`] failed validation.
    Config(KnobError),
}

impl fmt::Display for FarmError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FarmError::Saturated { capacity } => {
                write!(f, "farm saturated: {capacity} sessions already outstanding")
            }
            FarmError::Closed => write!(f, "farm is closed to new sessions"),
            FarmError::Config(e) => write!(f, "invalid farm config: {e}"),
        }
    }
}

impl Error for FarmError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            FarmError::Config(e) => Some(e),
            _ => None,
        }
    }
}

impl From<KnobError> for FarmError {
    fn from(e: KnobError) -> Self {
        FarmError::Config(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_validates() {
        assert!(FarmConfig::new().validate().is_ok());
    }

    #[test]
    fn zero_workers_is_rejected() {
        let err = FarmConfig::new().workers(0).validate().unwrap_err();
        assert!(err.to_string().contains("workers"));
    }

    #[test]
    fn readmit_policy_validates_through_the_farm_config() {
        assert!(FarmConfig::new()
            .readmit(ReadmitPolicy::new())
            .validate()
            .is_ok());
        let err = FarmConfig::new()
            .readmit(ReadmitPolicy::new().max_retries(0))
            .validate()
            .unwrap_err();
        assert!(err.to_string().contains("max_retries"));
        let err = FarmConfig::new()
            .readmit(
                ReadmitPolicy::new()
                    .base_delay(Duration::from_millis(50))
                    .max_delay(Duration::from_millis(1)),
            )
            .validate()
            .unwrap_err();
        assert!(err.to_string().contains("max_delay"));
    }

    #[test]
    fn backoff_doubles_and_caps() {
        let policy = ReadmitPolicy::new()
            .base_delay(Duration::from_millis(2))
            .max_delay(Duration::from_millis(12));
        assert_eq!(policy.delay_for(0), Duration::from_millis(2));
        assert_eq!(policy.delay_for(1), Duration::from_millis(4));
        assert_eq!(policy.delay_for(2), Duration::from_millis(8));
        assert_eq!(policy.delay_for(3), Duration::from_millis(12));
        assert_eq!(policy.delay_for(60), Duration::from_millis(12));
    }

    #[test]
    fn deadlock_timeout_must_cover_a_park_slice() {
        let err = FarmConfig::new()
            .park_slice(Duration::from_millis(10))
            .deadlock_timeout(Duration::from_millis(1))
            .validate()
            .unwrap_err();
        assert!(err.to_string().contains("deadlock_timeout"));
    }
}
