//! The `farm-mixed` workload: many short sessions over a two-worker
//! `SessionFarm`, rotating queue, shm and tcp transports.
//!
//! Two shapes, stated apart because they answer different questions:
//!
//! * **closed batch** — a batch is submitted at once and drained; capacity
//!   (`sessions_per_s`, `host_kcps`) comes from its wall time;
//! * **open loop** — one generator thread submits on a seeded Poisson
//!   schedule at a fraction of that capacity, whether or not earlier
//!   sessions have finished. A session's latency counts from when it was
//!   *due*, so a late generator cannot hide queueing, and the generator's own
//!   lateness is reported.

use crate::layers;
use crate::procfs;
use crate::reference;
use crate::session::{fingerprint, Fingerprint, RunArgs};
use crate::stats::{median, percentile, RunResult, Timing};
use crate::workloads::{bench_config, variant_seed, Backend, FARM_SESSION_CYCLES, FARM_VARIANTS};
use predpkt_core::{AhbDomainModel, EmuSession, SessionError, SliceStatus, SlicedSession};
use predpkt_farm::{FarmConfig, FarmReport, SessionFarm};
use predpkt_sim::SplitMix64;
use predpkt_workloads::figure2_soc;
use std::time::{Duration, Instant};

const WORKERS: usize = 2;
const SLICE_STEPS: u32 = 64;
/// Rounds per run: each is one closed batch, then one open-loop segment.
const ROUNDS: usize = 6;
/// Sessions per closed batch.
const CLOSED_BATCH: usize = 200;
/// Open-loop arrival rate. The issue sized it at a third of a 73 sessions/s
/// capacity; the reference box drains a closed batch at ≈ 300 sessions/s, so
/// this is a tenth. At 40/s and above the generator — a third thread beside
/// the two workers — ran late too often to trust the latencies.
const OPEN_RATE_PER_S: f64 = 25.0;
/// The share of `--seconds` a run's open-loop segments last together.
const OPEN_SHARE: f64 = 0.6;
/// Open-loop segments of the per-layer run, pooled for the 99th percentile.
const TRACED_SEGMENTS: usize = 3;
/// The generator sleeps until this long before an arrival is due, then spins.
const SPIN_BEFORE_DUE: Duration = Duration::from_micros(100);
/// The generator times the reference kernel this long after an arrival was
/// due (a session takes 2–6 ms), if that leaves [`KERNEL_ROOM`] before the next.
const KERNEL_AFTER_DUE: Duration = Duration::from_millis(12);
const KERNEL_ROOM: Duration = Duration::from_millis(4);
/// A submit that ran later than this is counted and named on standard error.
const LAG_LIMIT: Duration = Duration::from_millis(5);

/// Extra farms built and joined idle for the `setup_s` median.
const SETUP_SAMPLES: usize = 1000;

const BACKENDS: [Backend; 3] = [Backend::Queue, Backend::Shm, Backend::Tcp];

/// Session `index` of a run: which blueprint variant and which transport.
fn session_shape(index: usize) -> (u64, Backend) {
    (
        index as u64 % FARM_VARIANTS,
        BACKENDS[index % BACKENDS.len()],
    )
}

fn build_session(seed: u64, backend: Backend) -> Result<EmuSession<AhbDomainModel>, SessionError> {
    EmuSession::from_blueprint(&figure2_soc(seed))
        .config(bench_config())
        .transport(backend.select())
        .build()
}

/// Seconds from the start of an open-loop segment at which each of `count`
/// sessions is due: exponential gaps at `rate_per_s`, from `seed` alone.
pub fn poisson_schedule(seed: u64, rate_per_s: f64, count: usize) -> Vec<f64> {
    let mut rng = SplitMix64::new(seed);
    let mut at = 0.0;
    (0..count)
        .map(|_| {
            // unit_f64 is in [0, 1), so the logarithm's argument is in (0, 1].
            at += -(1.0 - rng.unit_f64()).ln() / rate_per_s;
            at
        })
        .collect()
}

/// What every farm session of variant `v` must commit: the direct run's.
struct Expected {
    seeds: Vec<u64>,
    fingerprints: Vec<Fingerprint>,
}

impl Expected {
    fn compute(args: &RunArgs) -> Result<(Expected, Vec<f64>), String> {
        let mut blueprint_us = Vec::new();
        let mut expected = Expected {
            seeds: Vec::new(),
            fingerprints: Vec::new(),
        };
        for v in 0..FARM_VARIANTS {
            let seed = variant_seed(args.seed, v);
            let started = Instant::now();
            let blueprint = figure2_soc(seed);
            blueprint_us.push(started.elapsed().as_secs_f64() * 1e6);
            let mut session =
                build_session(seed, Backend::Queue).map_err(|e| format!("direct build: {e}"))?;
            session
                .run_until_committed(FARM_SESSION_CYCLES)
                .map_err(|e| format!("direct run: {e}"))?;
            let placement = blueprint.placement();
            let mut fp = fingerprint(
                &session,
                &|s, a| placement.merge_records(s, a),
                FARM_SESSION_CYCLES,
            );
            if args.sabotage {
                fp.trace_hash = !fp.trace_hash;
            }
            expected.seeds.push(seed);
            expected.fingerprints.push(fp);
        }
        Ok((expected, blueprint_us))
    }

    /// Checks one finished farm session against the direct run.
    fn check(&self, variant: u64, session: &EmuSession<AhbDomainModel>) -> Result<(), String> {
        let placement = figure2_soc(self.seeds[variant as usize]).placement();
        let got = fingerprint(
            session,
            &|s, a| placement.merge_records(s, a),
            FARM_SESSION_CYCLES,
        );
        let want = &self.fingerprints[variant as usize];
        if got == *want {
            Ok(())
        } else {
            Err(format!(
                "farm session committed {got:?}, the direct run {want:?}"
            ))
        }
    }
}

/// Totals over the sessions of one drained farm.
#[derive(Default)]
struct Drained {
    completed: u64,
    committed: u64,
    words: u64,
    accesses: u64,
    virtual_ps: u128,
    pool_occupancy: f64,
    parked_events: u64,
}

/// Checks every result of a drained farm and sums what completed.
/// `admitted[id]` is the run-wide index of the session the farm gave `id`.
fn drain(
    report: &FarmReport<AhbDomainModel>,
    admitted: &[usize],
    expected: &Expected,
    result: &mut RunResult,
) -> Drained {
    let mut drained = Drained {
        pool_occupancy: report.stats.pool_occupancy,
        parked_events: report.stats.parked_events,
        ..Drained::default()
    };
    for outcome in &report.results {
        let (variant, backend) = session_shape(admitted[outcome.id as usize]);
        let session = match (&outcome.outcome.is_completed(), &outcome.session) {
            (true, Some(session)) => session,
            _ => {
                result.fail(format!(
                    "farm session {} ({backend:?}): {}",
                    outcome.id, outcome.outcome
                ));
                continue;
            }
        };
        if let Err(e) = expected.check(variant, session) {
            result.fail(format!("farm session {} ({backend:?}): {e}", outcome.id));
            continue;
        }
        let channel = session.channel_stats();
        drained.completed += 1;
        drained.committed += session.committed_cycles();
        drained.words += channel.total_words();
        drained.accesses += channel.total_accesses();
        drained.virtual_ps += session.ledger().total().as_picos() as u128;
    }
    drained
}

fn new_farm(
    workers: usize,
    capacity: usize,
) -> Result<(SessionFarm<AhbDomainModel>, Duration), String> {
    let started = Instant::now();
    let farm = SessionFarm::new(
        FarmConfig::new()
            .workers(workers)
            .capacity(capacity)
            .slice_steps(SLICE_STEPS)
            .keep_sessions(true),
    )
    .map_err(|e| format!("farm construction: {e}"))?;
    Ok((farm, started.elapsed()))
}

/// Submits session `index`; ids are handed out in admission order, so the
/// id of an admitted session is its position in `admitted`.
fn submit(
    farm: &SessionFarm<AhbDomainModel>,
    expected: &Expected,
    index: usize,
    admitted: &mut Vec<usize>,
) -> Result<(), String> {
    let (variant, backend) = session_shape(index);
    let seed = expected.seeds[variant as usize];
    let id = farm
        .submit(move || Ok(build_session(seed, backend)?.into_sliced(FARM_SESSION_CYCLES)))
        .map_err(|e| format!("submit refused: {e}"))?;
    assert_eq!(id as usize, admitted.len(), "ids follow admission order");
    admitted.push(index);
    Ok(())
}

/// One closed batch: submit `CLOSED_BATCH` sessions at once, drain.
struct Closed {
    setup: Duration,
    wall: Duration,
    /// The host's slowdown around the batch (see `reference`).
    slowdown: f64,
    drained: Drained,
}

fn closed_batch(
    workers: usize,
    expected: &Expected,
    result: &mut RunResult,
) -> Result<Closed, String> {
    let kernel_before = reference::kernel_ns();
    let (farm, setup) = new_farm(workers, CLOSED_BATCH)?;
    let mut admitted = Vec::with_capacity(CLOSED_BATCH);
    let started = Instant::now();
    for index in 0..CLOSED_BATCH {
        result.attempted += 1;
        if let Err(e) = submit(&farm, expected, index, &mut admitted) {
            result.fail(e);
        }
    }
    let report = farm.join();
    let wall = started.elapsed();
    let slowdown = reference::slowdown(kernel_before, reference::kernel_ns());
    eprintln!(
        "closed batch: {workers} workers, {CLOSED_BATCH} sessions in {:.1} ms of wall time, \
         host slowdown {slowdown:.3}x",
        wall.as_secs_f64() * 1e3
    );
    Ok(Closed {
        setup,
        wall,
        slowdown,
        drained: drain(&report, &admitted, expected, result),
    })
}

/// One open-loop segment.
struct Open {
    /// Per completed session: due time to outcome, in ms.
    latencies_ms: Vec<f64>,
    submit_us: Vec<f64>,
    lag_ms_max: f64,
    /// Submits that ran over [`LAG_LIMIT`] late.
    late: usize,
    /// The reference kernel's times before, in the gaps of and after the
    /// segment.
    kernel_ns: Vec<f64>,
}

fn open_loop(
    schedule: &[f64],
    expected: &Expected,
    result: &mut RunResult,
) -> Result<Open, String> {
    let mut kernel_ns = vec![reference::kernel_ns()];
    let (farm, _) = new_farm(WORKERS, schedule.len().max(1))?;
    let mut admitted = Vec::with_capacity(schedule.len());
    // How late each admitted session's submit ran, by session id.
    let mut lags: Vec<Duration> = Vec::with_capacity(schedule.len());
    let mut submit_us = Vec::with_capacity(schedule.len());
    let started = Instant::now();
    for (index, due) in schedule.iter().enumerate() {
        let due = started + Duration::from_secs_f64(*due);
        if let Some(sleep) = due
            .checked_duration_since(Instant::now())
            .and_then(|left| left.checked_sub(SPIN_BEFORE_DUE))
        {
            std::thread::sleep(sleep);
        }
        while Instant::now() < due {
            std::hint::spin_loop();
        }
        let submitting = Instant::now();
        result.attempted += 1;
        let outcome = submit(&farm, expected, index, &mut admitted);
        submit_us.push(submitting.elapsed().as_secs_f64() * 1e6);
        match outcome {
            Ok(()) => lags.push(submitting - due),
            // A refused session never gets a latency: it counts as failed.
            Err(e) => result.fail(e),
        }
        // The reference kernel runs in the gaps: after the session just
        // submitted has had time to finish, and only when it will itself be
        // done well before the next arrival.
        let kernel_at = due + KERNEL_AFTER_DUE;
        let next_due = schedule
            .get(index + 1)
            .map(|next| started + Duration::from_secs_f64(*next));
        if next_due.map_or(true, |next| next >= kernel_at + KERNEL_ROOM) {
            if let Some(sleep) = kernel_at.checked_duration_since(Instant::now()) {
                std::thread::sleep(sleep);
            }
            kernel_ns.push(reference::kernel_ns());
        }
    }
    let report = farm.join();
    kernel_ns.push(reference::kernel_ns());
    drain(&report, &admitted, expected, result);
    let latencies_ms = report
        .results
        .iter()
        .filter(|r| r.outcome.is_completed())
        .map(|r| (lags[r.id as usize] + r.latency).as_secs_f64() * 1e3)
        .collect();
    let late = lags.iter().filter(|lag| **lag > LAG_LIMIT).count();
    Ok(Open {
        latencies_ms,
        submit_us,
        lag_ms_max: lags
            .iter()
            .map(|lag| lag.as_secs_f64() * 1e3)
            .fold(0.0, f64::max),
        late,
        kernel_ns,
    })
}

fn arrivals_per_segment(seconds: f64) -> usize {
    ((OPEN_RATE_PER_S * OPEN_SHARE * seconds / ROUNDS as f64).round() as usize).max(1)
}

/// Runs open-loop segment `segment` of the run on its own seeded schedule.
///
/// A late generator does not fail the run, and its segment is not measured
/// again: a latency counts from the session's *due* time, so the lag is
/// inside the number, and a run reports the median over its segments, which a
/// stalled segment cannot move. Lateness is reported
/// (`farm.generator_lag_ms_max`, and per run on standard error).
fn open_segment(
    args: &RunArgs,
    segment: usize,
    expected: &Expected,
    result: &mut RunResult,
) -> Result<Open, String> {
    let schedule = poisson_schedule(
        variant_seed(args.seed, FARM_VARIANTS + segment as u64),
        OPEN_RATE_PER_S,
        arrivals_per_segment(args.seconds),
    );
    open_loop(&schedule, expected, result)
}

/// How well the generators of `opens` kept to their schedules, for standard error.
fn lateness(opens: &[Open]) -> String {
    let submits: usize = opens.iter().map(|o| o.submit_us.len()).sum();
    let late: usize = opens.iter().map(|o| o.late).sum();
    let worst = opens.iter().map(|o| o.lag_ms_max).fold(0.0, f64::max);
    format!("{late} of {submits} submits ran over {LAG_LIMIT:?} late, the worst by {worst:.2} ms")
}

/// The end-to-end run (`--trace 0`): closed batches and open-loop segments
/// alternate, so drift of the host hits both.
pub fn run(args: &RunArgs) -> RunResult {
    let mut result = RunResult::default();
    let (expected, _) = match Expected::compute(args) {
        Ok(expected) => expected,
        Err(e) => {
            result.errors.push(e);
            return result;
        }
    };
    let mut closed = Vec::new();
    let mut opens = Vec::new();
    for round in 0..ROUNDS {
        match closed_batch(WORKERS, &expected, &mut result) {
            Ok(batch) => closed.push(batch),
            Err(e) => result.errors.push(e),
        }
        match open_segment(args, round, &expected, &mut result) {
            Ok(open) => opens.push(open),
            Err(e) => result.errors.push(e),
        }
    }
    if closed.is_empty() || opens.is_empty() {
        result
            .errors
            .push("no closed batch or no open-loop segment finished".to_string());
        return result;
    }
    // A closed batch keeps the CPU busy: its times are in reference seconds,
    // wall seconds ÷ the slowdown around the batch.
    let slowdowns: Vec<f64> = closed.iter().map(|c| c.slowdown).collect();
    let run_slowdown = median(&slowdowns).expect("batches");
    // Farm construction takes tens of microseconds; the few farms measured
    // above are too few for a steady median.
    let mut setups: Vec<f64> = closed
        .iter()
        .map(|c| c.setup.as_secs_f64() / c.slowdown)
        .collect();
    for _ in 0..SETUP_SAMPLES {
        if let Ok((farm, setup)) = new_farm(WORKERS, 1) {
            drop(farm.join());
            setups.push(setup.as_secs_f64() / run_slowdown);
        }
    }

    let rate = |count: fn(&Drained) -> u64| {
        let per_s: Vec<f64> = closed
            .iter()
            .map(|c| count(&c.drained) as f64 / (c.wall.as_secs_f64() / c.slowdown))
            .collect();
        median(&per_s).expect("batches")
    };
    result.put("host_kcps", rate(|d| d.committed) / 1e3);
    result.put("sessions_per_s", rate(|d| d.completed));
    let batch = &closed[0].drained;
    result.put(
        "model_kcps",
        batch.committed as f64 / (batch.virtual_ps as f64 * 1e-12) / 1e3,
    );
    result.put(
        "channel_words_per_kcycle",
        batch.words as f64 * 1e3 / batch.committed as f64,
    );
    result.put(
        "channel_accesses_per_kcycle",
        batch.accesses as f64 * 1e3 / batch.committed as f64,
    );
    // Open-loop latencies are in reference milliseconds too. The host's
    // speed drifts from run to run (raw medians of ten runs: 2.0 to 3.0 ms),
    // and the kernel the generator times in the gaps between arrivals drifts
    // with it. Within a run the host stalls in bursts of tens of
    // milliseconds, which move a pooled 90th percentile; the median over the
    // segments stays where the middle segment is.
    let kernels: Vec<f64> = opens.iter().flat_map(|o| o.kernel_ns.clone()).collect();
    let open_slowdown = median(&kernels).expect("kernel samples") / reference::NOMINAL_NS;
    let over_segments = |pct: f64| {
        let per_segment: Vec<f64> = opens
            .iter()
            .filter_map(|o| percentile(&o.latencies_ms, pct))
            .collect();
        median(&per_segment).unwrap_or(0.0)
    };
    let (p50, p90) = (over_segments(50.0), over_segments(90.0));
    result.put("session_p50_ms", p50 / open_slowdown);
    result.put("session_p90_ms", p90 / open_slowdown);
    result.put("setup_s", median(&setups).expect("setups"));
    eprintln!(
        "open loop, wall time: median over {} segments of the median {p50:.3} ms, of the 90th \
         percentile {p90:.3} ms; {}; host slowdown in the gaps {open_slowdown:.3}x ({} kernel \
         samples), around the closed batches {run_slowdown:.3}x",
        opens.len(),
        lateness(&opens),
        kernels.len()
    );
    result
}

/// The same session mix built, run and dropped on one thread with no farm:
/// mean milliseconds per session.
fn direct_service_ms(expected: &Expected, sessions: usize) -> Result<f64, String> {
    let started = Instant::now();
    for index in 0..sessions {
        let (variant, backend) = session_shape(index);
        let mut sliced: SlicedSession<AhbDomainModel> =
            build_session(expected.seeds[variant as usize], backend)
                .map_err(|e| format!("direct build: {e}"))?
                .into_sliced(FARM_SESSION_CYCLES);
        // Idle means frames are in flight in the kernel or the ring; with
        // nothing else to run, poll again.
        while sliced
            .run_slice(SLICE_STEPS)
            .map_err(|e| format!("direct slice: {e}"))?
            != SliceStatus::Done
        {}
    }
    Ok(started.elapsed().as_secs_f64() * 1e3 / sessions as f64)
}

/// The per-layer run (`--trace 1`).
pub fn trace_layers(args: &RunArgs) -> RunResult {
    let mut result = RunResult::default();
    layers::zero_all(&mut result);
    let (expected, blueprint_us) = match Expected::compute(args) {
        Ok(expected) => expected,
        Err(e) => {
            result.errors.push(e);
            return result;
        }
    };
    result.put(
        "workloads.blueprint_build_us",
        median(&blueprint_us).unwrap_or(0.0),
    );

    let before = procfs::Sample::now();
    let measured = Instant::now();
    let two = closed_batch(WORKERS, &expected, &mut result);
    let one = closed_batch(1, &expected, &mut result);
    let direct = direct_service_ms(&expected, CLOSED_BATCH / 2);
    match (two, one, direct) {
        (Ok(two), Ok(one), Ok(direct_ms)) => {
            let per_s = |c: &Closed| c.drained.completed as f64 / c.wall.as_secs_f64();
            result.put("farm.pool_occupancy", two.drained.pool_occupancy);
            result.put(
                "farm.parked_events_per_session",
                two.drained.parked_events as f64 / two.drained.completed.max(1) as f64,
            );
            result.put("farm.direct_service_ms", direct_ms);
            result.put(
                "farm.overhead_x",
                WORKERS as f64 * two.wall.as_secs_f64() * 1e3
                    / two.drained.completed.max(1) as f64
                    / direct_ms,
            );
            result.put("farm.scaling_x", per_s(&two) / per_s(&one));
        }
        (two, one, direct) => {
            for e in [two.err(), one.err(), direct.err()].into_iter().flatten() {
                result.errors.push(e);
            }
        }
    }
    let mut opens = Vec::new();
    for segment in 0..TRACED_SEGMENTS {
        match open_segment(args, segment, &expected, &mut result) {
            Ok(open) => opens.push(open),
            Err(e) => result.errors.push(e),
        }
    }
    eprintln!("open loop: {}", lateness(&opens));
    let pooled = |of: fn(&Open) -> &Vec<f64>| -> Vec<f64> {
        opens.iter().flat_map(|o| of(o).iter().copied()).collect()
    };
    let latencies = pooled(|o| &o.latencies_ms);
    result.put(
        "farm.submit_us",
        median(&pooled(|o| &o.submit_us)).unwrap_or(0.0),
    );
    result.put(
        "farm.generator_lag_ms_max",
        opens.iter().map(|o| o.lag_ms_max).fold(0.0, f64::max),
    );
    result.put(
        "farm.session_p99_ms",
        percentile(&latencies, 99.0).unwrap_or(0.0),
    );
    if let Some(kernel) = median(&pooled(|o| &o.kernel_ns)) {
        result.put("run.host_slowdown_x", kernel / reference::NOMINAL_NS);
    }
    if let Some(t) = Timing::of(&latencies) {
        result.put("run.session_ms_p50", t.median);
        result.put("run.session_samples", t.samples as f64);
        if let Some((pct, value)) = t.top {
            result.put("run.session_top_pct", pct);
            result.put("run.session_ms_top", value);
        }
    }
    let mut usage = procfs::Usage::default();
    usage.add(&before, &procfs::Sample::now(), measured.elapsed());
    result.put("proc.cpu_s_per_wall_s", usage.cpu_per_wall());
    result.put("proc.peak_rss_mb", procfs::peak_rss_mb());
    result.put("farm.completed", (result.attempted - result.failed) as f64);
    result.put("farm.failed", result.failed as f64);
    result
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn poisson_schedule_repeats_for_a_seed_and_differs_across_seeds() {
        let a = poisson_schedule(7, 25.0, 200);
        assert_eq!(a, poisson_schedule(7, 25.0, 200));
        assert_ne!(a, poisson_schedule(8, 25.0, 200));
        assert!(a.windows(2).all(|w| w[0] < w[1]), "arrivals are ordered");
        let mean_gap = a[a.len() - 1] / a.len() as f64;
        assert!((mean_gap - 1.0 / 25.0).abs() < 0.01, "mean gap {mean_gap}");
    }

    #[test]
    fn session_mix_rotates_transports_and_variants() {
        let shapes: Vec<_> = (0..48).map(session_shape).collect();
        for backend in BACKENDS {
            assert_eq!(shapes.iter().filter(|s| s.1 == backend).count(), 16);
        }
        assert!(shapes.iter().all(|s| s.0 < FARM_VARIANTS));
        assert_eq!(shapes[0], (0, Backend::Queue));
        assert_eq!(shapes[17], (1, Backend::Tcp));
    }

    #[test]
    fn arrivals_scale_with_the_time_budget() {
        assert_eq!(arrivals_per_segment(10.0), 25);
        assert_eq!(arrivals_per_segment(0.01), 1);
    }
}
