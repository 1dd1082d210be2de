//! The six session workloads: timed reps, the correctness gate, and — with
//! tracing on — the per-layer measurements.
//!
//! A rep is one whole session: generate the variant's inputs, build the
//! session, run it to its committed-cycle target, check what it committed,
//! drop it. Set-up, run and tear-down are timed apart. Reps cycle through
//! the run's variants and continue until `--seconds` have passed (at least
//! one pass over the variants), so every timing is a median over many reps.

use crate::layers;
use crate::procfs;
use crate::reference;
use crate::stats::{median, percentile, RunResult, Timing};
use crate::timed::{Timed, TimedTransport};
use crate::trace::{self, Site};
use crate::workloads::{variant_seed, Backend, Subject};
use predpkt_channel::{BatchStats, ChannelStats, Packet, QueueTransport, Side, Transport};
use predpkt_core::{CoEmulator, CwStats, DomainModel, EmuSession};
use predpkt_perfmodel::{AnalyticRow, ModelParams};
use predpkt_sim::{save_to_vec, SimError, Trace, VirtualTime};
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// Arguments of one run.
#[derive(Debug, Clone)]
pub struct RunArgs {
    pub seed: u64,
    pub seconds: f64,
    /// Corrupts the expected hashes, to show that the gate trips.
    pub sabotage: bool,
    /// Where to write the last traced rep's spans, if anywhere.
    pub spans_out: Option<PathBuf>,
}

/// Sizing of one session workload.
#[derive(Debug, Clone, Copy)]
pub struct Plan {
    pub cycles: u64,
    pub variants: u64,
    pub backend: Backend,
    /// Controlled accuracy and the paper's `Perform.` entry for it (kcycles
    /// per virtual second), where the workload has them.
    pub paper: Option<(f64, f64)>,
}

/// What the correctness gate compares between two runs of one variant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fingerprint {
    pub trace_hash: u64,
    pub committed: u64,
    pub channel_words: u64,
    pub virtual_time_ps: u64,
}

/// Interleaves one cycle's simulator and accelerator records into the layout
/// committed traces are hashed in.
pub type Merge<'a> = &'a dyn Fn(&[u64], &[u64]) -> Vec<u64>;

/// What both runners expose once a run has halted at its boundary.
pub trait Halted {
    fn committed(&self) -> u64;
    fn channel(&self) -> ChannelStats;
    fn virtual_time(&self) -> VirtualTime;
    fn merged(&self, merge: Merge<'_>) -> Trace;
    fn wrappers(&self) -> (CwStats, CwStats);
    fn batch(&self) -> Option<BatchStats>;
}

impl<M: DomainModel + Send + 'static> Halted for EmuSession<M> {
    fn committed(&self) -> u64 {
        self.committed_cycles()
    }
    fn channel(&self) -> ChannelStats {
        self.channel_stats()
    }
    fn virtual_time(&self) -> VirtualTime {
        self.ledger().total()
    }
    fn merged(&self, merge: Merge<'_>) -> Trace {
        self.merged_trace(merge)
    }
    fn wrappers(&self) -> (CwStats, CwStats) {
        (self.sim_stats().clone(), self.acc_stats().clone())
    }
    fn batch(&self) -> Option<BatchStats> {
        self.batch_stats()
    }
}

impl<M: DomainModel, T: Transport> Halted for CoEmulator<M, T> {
    fn committed(&self) -> u64 {
        self.committed_cycles()
    }
    fn channel(&self) -> ChannelStats {
        self.channel_stats().clone()
    }
    fn virtual_time(&self) -> VirtualTime {
        self.ledger().total()
    }
    fn merged(&self, merge: Merge<'_>) -> Trace {
        self.merged_trace(merge)
    }
    fn wrappers(&self) -> (CwStats, CwStats) {
        (self.sim_stats().clone(), self.acc_stats().clone())
    }
    fn batch(&self) -> Option<BatchStats> {
        self.transport().batch_stats()
    }
}

pub fn fingerprint(run: &impl Halted, merge: Merge<'_>, cycles: u64) -> Fingerprint {
    // A run may overshoot its target by up to one transition; the golden bus
    // ran exactly `cycles`.
    let mut trace = run.merged(merge);
    trace.truncate_to_len(cycles as usize);
    Fingerprint {
        trace_hash: trace.hash(),
        committed: run.committed(),
        channel_words: run.channel().total_words(),
        virtual_time_ps: run.virtual_time().as_picos(),
    }
}

/// One variant of the run: its inputs and what its sessions must commit.
struct Variant<I> {
    seed: u64,
    inputs: I,
    /// Hash of the monolithic golden bus, where there is one.
    golden: Option<u64>,
    /// What the queue backend commits (non-queue workloads), or what this
    /// variant's first rep committed.
    reference: Option<Fingerprint>,
}

/// Samples taken while preparing the variants.
#[derive(Default)]
struct Preparation {
    blueprint_build_us: Vec<f64>,
    golden_kcps: Vec<f64>,
}

fn prepare<S: Subject>(
    subject: &S,
    plan: &Plan,
    args: &RunArgs,
    count: u64,
    result: &mut RunResult,
) -> (Vec<Variant<S::Inputs>>, Preparation) {
    let mut prep = Preparation::default();
    let mut variants = Vec::new();
    for index in 0..count {
        let seed = variant_seed(args.seed, index);
        let started = Instant::now();
        let inputs = subject.generate(seed);
        prep.blueprint_build_us
            .push(started.elapsed().as_secs_f64() * 1e6);
        let golden = subject.golden(&inputs, plan.cycles).map(|(hash, secs)| {
            prep.golden_kcps.push(plan.cycles as f64 / secs / 1e3);
            if args.sabotage {
                !hash
            } else {
                hash
            }
        });
        let mut variant = Variant {
            seed,
            inputs,
            golden,
            reference: None,
        };
        if plan.backend != Backend::Queue {
            // soc-shm and soc-tcp must commit what soc-queue commits.
            match plain_rep(subject, plan, &variant, Backend::Queue) {
                Ok(rep) => variant.reference = Some(rep.fingerprint),
                Err(e) => result
                    .errors
                    .push(format!("variant {index}: queue reference run: {e}")),
            }
        }
        variants.push(variant);
    }
    (variants, prep)
}

/// One finished rep.
struct Rep {
    setup: Duration,
    run: Duration,
    teardown: Duration,
    fingerprint: Fingerprint,
    channel: ChannelStats,
    wrappers: (CwStats, CwStats),
    batch: Option<BatchStats>,
}

fn build_plain<S: Subject>(
    subject: &S,
    inputs: &S::Inputs,
    backend: Backend,
) -> Result<EmuSession<S::Model>, String> {
    let (sim, acc) = subject.models(inputs, false);
    EmuSession::builder(sim, acc)
        .config(subject.config())
        .transport(backend.select())
        .build()
        .map_err(|e| format!("session build: {e}"))
}

/// One whole undecorated session on `backend`: generate, build, run, drop.
fn plain_rep<S: Subject>(
    subject: &S,
    plan: &Plan,
    variant: &Variant<S::Inputs>,
    backend: Backend,
) -> Result<Rep, String> {
    let started = Instant::now();
    let inputs = subject.generate(variant.seed);
    let mut session = build_plain(subject, &inputs, backend)?;
    let setup = started.elapsed();

    let started = Instant::now();
    let outcome = session.run_until_committed(plan.cycles);
    let run = started.elapsed();
    outcome.map_err(|e| format!("run: {e}"))?;

    let merge = |s: &[u64], a: &[u64]| subject.merge(&inputs, s, a);
    let fingerprint = fingerprint(&session, &merge, plan.cycles);
    let channel = session.channel();
    let wrappers = session.wrappers();
    let batch = session.batch();

    let started = Instant::now();
    drop(session);
    let teardown = started.elapsed();
    Ok(Rep {
        setup,
        run,
        teardown,
        fingerprint,
        channel,
        wrappers,
        batch,
    })
}

/// Wall time of one undecorated run of the variant with seed `variant_seed`
/// on the plan's backend (`run_until_committed` only).
pub fn run_wall<S: Subject>(
    subject: &S,
    plan: &Plan,
    variant_seed: u64,
) -> Result<Duration, String> {
    let inputs = subject.generate(variant_seed);
    let mut session = build_plain(subject, &inputs, plan.backend)?;
    let started = Instant::now();
    let outcome = session.run_until_committed(plan.cycles);
    let wall = started.elapsed();
    outcome.map(|()| wall).map_err(|e| format!("run: {e}"))
}

/// The correctness gate for one rep; returns what it missed.
fn gate<I>(
    variant: &mut Variant<I>,
    plan: &Plan,
    got: &Fingerprint,
    sabotage: bool,
) -> Vec<String> {
    let mut misses = Vec::new();
    if got.committed < plan.cycles {
        misses.push(format!(
            "committed {} of {} cycles",
            got.committed, plan.cycles
        ));
    }
    if let Some(golden) = variant.golden {
        if got.trace_hash != golden {
            misses.push(format!(
                "merged trace {:016x} differs from the golden bus {golden:016x}",
                got.trace_hash
            ));
        }
    }
    match &variant.reference {
        Some(reference) if reference != got => misses.push(format!(
            "committed {got:?}, the reference run {reference:?}"
        )),
        Some(_) => {}
        None => {
            // First rep of a queue variant: later reps must repeat it. With
            // no golden bus to corrupt, sabotage corrupts this instead.
            let mut reference = *got;
            if sabotage && variant.golden.is_none() {
                reference.trace_hash = !reference.trace_hash;
            }
            variant.reference = Some(reference);
        }
    }
    misses
}

/// Model-time totals over one pass of the variants: they repeat exactly for
/// a given seed, so one rep per variant is all there is to know.
#[derive(Default)]
struct ModelTotals {
    committed: u64,
    words: u64,
    accesses: u64,
    virtual_ps: u128,
}

impl ModelTotals {
    fn add(&mut self, rep: &Rep) {
        self.committed += rep.fingerprint.committed;
        self.words += rep.channel.total_words();
        self.accesses += rep.channel.total_accesses();
        self.virtual_ps += rep.fingerprint.virtual_time_ps as u128;
    }

    fn per_kcycle(&self, count: u64) -> f64 {
        count as f64 * 1e3 / self.committed as f64
    }

    /// Committed kcycles per second of virtual time — the paper's `Perform.`
    fn model_kcps(&self) -> f64 {
        self.committed as f64 / (self.virtual_ps as f64 * 1e-12) / 1e3
    }
}

fn secs(samples: &[Duration]) -> Vec<f64> {
    samples.iter().map(Duration::as_secs_f64).collect()
}

/// The end-to-end run of one session workload (`--trace 0`).
pub fn run<S: Subject>(subject: &S, plan: &Plan, args: &RunArgs) -> RunResult {
    let mut result = RunResult::default();
    let set_up = Instant::now();
    let (mut variants, _) = prepare(subject, plan, args, plan.variants, &mut result);
    // Warm-up: allocator, lazy statics, the first socket pair.
    if let Err(e) = plain_rep(subject, plan, &variants[0], plan.backend) {
        result.errors.push(format!("warm-up rep: {e}"));
    }
    eprintln!(
        "prepared {} variants in {:.2} s",
        variants.len(),
        set_up.elapsed().as_secs_f64()
    );

    // Each rep with the host's slowdown around it (see `reference`).
    let reference_time = plan.backend.keeps_cpu_busy();
    let mut reps: Vec<(Rep, f64)> = Vec::new();
    let mut totals = ModelTotals::default();
    let deadline = Instant::now() + Duration::from_secs_f64(args.seconds);
    let mut kernel_before = reference::kernel_ns();
    loop {
        let index = result.attempted as usize % variants.len();
        result.attempted += 1;
        let outcome = plain_rep(subject, plan, &variants[index], plan.backend);
        let kernel_after = reference::kernel_ns();
        let slowdown = reference::slowdown(kernel_before, kernel_after);
        kernel_before = kernel_after;
        match outcome {
            Ok(rep) => {
                let misses = gate(&mut variants[index], plan, &rep.fingerprint, args.sabotage);
                if misses.is_empty() {
                    if reps.len() < variants.len() {
                        totals.add(&rep);
                    }
                    reps.push((rep, slowdown));
                } else {
                    result.fail(format!(
                        "rep {} (variant {index}): {}",
                        result.attempted,
                        misses.join("; ")
                    ));
                }
            }
            Err(e) => result.fail(format!("rep {} (variant {index}): {e}", result.attempted)),
        }
        if result.attempted as usize >= variants.len() && Instant::now() >= deadline {
            break;
        }
    }
    if reps.len() < variants.len() {
        result
            .errors
            .push("no complete pass over the variants succeeded".to_string());
        return result;
    }

    // Host times in reference seconds — wall seconds ÷ slowdown — where the
    // session keeps its CPU busy; wall seconds where it waits.
    let reference_secs =
        |d: Duration, slowdown: f64| d.as_secs_f64() / if reference_time { slowdown } else { 1.0 };
    let kcps: Vec<f64> = reps
        .iter()
        .map(|(r, slow)| r.fingerprint.committed as f64 / reference_secs(r.run, *slow) / 1e3)
        .collect();
    let whole: Vec<f64> = reps
        .iter()
        .map(|(r, slow)| reference_secs(r.setup + r.run + r.teardown, *slow))
        .collect();
    let whole_ms: Vec<f64> = whole.iter().map(|s| s * 1e3).collect();
    let setups: Vec<f64> = reps
        .iter()
        .map(|(r, slow)| reference_secs(r.setup, *slow))
        .collect();

    result.put("host_kcps", median(&kcps).expect("reps"));
    result.put("model_kcps", totals.model_kcps());
    result.put("channel_words_per_kcycle", totals.per_kcycle(totals.words));
    result.put(
        "channel_accesses_per_kcycle",
        totals.per_kcycle(totals.accesses),
    );
    result.put(
        "sessions_per_s",
        whole.len() as f64 / whole.iter().sum::<f64>(),
    );
    result.put("session_p50_ms", median(&whole_ms).expect("reps"));
    result.put("session_p90_ms", percentile(&whole_ms, 90.0).expect("reps"));
    result.put("setup_s", median(&setups).expect("reps"));

    let raw_ms: Vec<f64> = reps
        .iter()
        .map(|(r, _)| (r.setup + r.run + r.teardown).as_secs_f64() * 1e3)
        .collect();
    let slowdowns: Vec<f64> = reps.iter().map(|(_, slow)| *slow).collect();
    if let Some(t) = Timing::of(&raw_ms) {
        let top = t
            .top
            .map_or("none".to_string(), |(p, v)| format!("p{p} {v:.3} ms"));
        eprintln!(
            "session wall time: median {:.3} ms, top percentile {top}, {} samples; \
             host slowdown: median {:.3}x",
            t.median,
            t.samples,
            median(&slowdowns).expect("reps")
        );
    }
    result
}

/// Builds the decorated session the traced reps run: `Timed` models on every
/// backend; on the queue also a `TimedTransport`, which the session builder
/// cannot take, so the cooperative engine is driven directly — it is the
/// engine a queue session runs, stepped by the same call.
enum Traced<M: DomainModel + Send + 'static> {
    Queue(Box<CoEmulator<Timed<M>, TimedTransport<QueueTransport>>>),
    Endpoints(Box<EmuSession<Timed<M>>>),
}

impl<M: DomainModel + Send + 'static> Traced<M> {
    fn run(&mut self, cycles: u64) -> Result<(), SimError> {
        let _root = trace::enter_root(Site::CoreRun);
        match self {
            Traced::Queue(c) => c.run_until_synchronized(cycles),
            Traced::Endpoints(s) => s.run_until_committed(cycles),
        }
    }

    fn models(&self) -> (&Timed<M>, &Timed<M>) {
        match self {
            Traced::Queue(c) => (c.sim_model(), c.acc_model()),
            Traced::Endpoints(s) => (s.sim_model(), s.acc_model()),
        }
    }
}

fn build_traced<S: Subject>(
    subject: &S,
    plan: &Plan,
    inputs: &S::Inputs,
    record: bool,
) -> Result<Traced<S::Model>, String> {
    let (sim, acc) = subject.models(inputs, true);
    let (sim, acc) = (Timed::new(sim), Timed::new(acc));
    Ok(match plan.backend {
        Backend::Queue => Traced::Queue(Box::new(CoEmulator::with_transport(
            sim,
            acc,
            subject.config(),
            TimedTransport::new(QueueTransport::new(), record),
        ))),
        backend => Traced::Endpoints(Box::new(
            EmuSession::builder(sim, acc)
                .config(subject.config())
                .transport(backend.select())
                .build()
                .map_err(|e| format!("traced session build: {e}"))?,
        )),
    })
}

/// Per-cycle layer times and counts of one traced rep.
struct TracedRep {
    wall: Duration,
    fingerprint: Fingerprint,
    analysis: trace::Analysis,
    control_words: u64,
    snapshot_words: f64,
}

fn traced_rep<S: Subject>(
    subject: &S,
    plan: &Plan,
    variant: &Variant<S::Inputs>,
    spans_out: Option<&PathBuf>,
) -> Result<TracedRep, String> {
    let _ = trace::take();
    let mut session = build_traced(subject, plan, &variant.inputs, false)?;
    let started = Instant::now();
    let outcome = session.run(plan.cycles);
    let wall = started.elapsed();
    outcome.map_err(|e| format!("traced run: {e}"))?;
    let spans = trace::take();
    if let Some(path) = spans_out {
        let write = std::fs::File::create(path)
            .map(std::io::BufWriter::new)
            .and_then(|mut out| {
                trace::write_jsonl(&spans, &mut out)?;
                std::io::Write::flush(&mut out)
            });
        if let Err(e) = write {
            return Err(format!("writing spans to {}: {e}", path.display()));
        }
    }
    let analysis = trace::analyze(&spans, &trace::calibrate());

    let merge = |s: &[u64], a: &[u64]| subject.merge(&variant.inputs, s, a);
    let fingerprint = match &session {
        Traced::Queue(c) => fingerprint(c.as_ref(), &merge, plan.cycles),
        Traced::Endpoints(s) => fingerprint(s.as_ref(), &merge, plan.cycles),
    };
    let (sim, acc) = session.models();
    // Mean of the two sides' snapshot sizes: the spans do not say which side
    // saved, so the sides weigh evenly.
    let snapshot_words =
        (save_to_vec(sim.inner()).len() + save_to_vec(acc.inner()).len()) as f64 / 2.0;
    Ok(TracedRep {
        wall,
        fingerprint,
        control_words: sim.control_words() + acc.control_words(),
        snapshot_words,
        analysis,
    })
}

/// The packet stream of one queue run, in order, with what the replay and
/// codec measurements need to know about the run.
struct Recording {
    stream: Vec<(Side, Packet)>,
    committed: u64,
    /// Output widths of the simulator-side model, in words.
    sim_local: usize,
    sim_remote: usize,
}

/// Records the packet stream of one queue run of the variant.
fn record_stream<S: Subject>(
    subject: &S,
    plan: &Plan,
    variant: &Variant<S::Inputs>,
) -> Result<Recording, String> {
    let queue_plan = Plan {
        backend: Backend::Queue,
        ..*plan
    };
    let mut session = build_traced(subject, &queue_plan, &variant.inputs, true)?;
    session
        .run(plan.cycles)
        .map_err(|e| format!("recording run: {e}"))?;
    let _ = trace::take();
    let Traced::Queue(engine) = session else {
        unreachable!("queue plan builds the queue engine");
    };
    Ok(Recording {
        stream: engine.transport().log().to_vec(),
        committed: engine.committed_cycles(),
        sim_local: engine.sim_model().local_width(),
        sim_remote: engine.sim_model().remote_width(),
    })
}

fn median_or_zero(values: &[f64]) -> f64 {
    median(values).unwrap_or(0.0)
}

/// The per-layer run of one session workload (`--trace 1`).
pub fn trace_layers<S: Subject>(
    subject: &S,
    plan: &Plan,
    args: &RunArgs,
    paper_twin: Option<&dyn Fn(u64) -> Result<Duration, String>>,
) -> RunResult {
    let mut result = RunResult::default();
    layers::zero_all(&mut result);
    eprintln!("span costs: {:?}", trace::calibrate());
    // The layer numbers do not need the seed-averaging the end-to-end ones
    // do; a few variants keep set-up short.
    let count = plan.variants.min(4);
    let (mut variants, prep) = prepare(subject, plan, args, count, &mut result);
    if let Err(e) = plain_rep(subject, plan, &variants[0], plan.backend) {
        result.errors.push(format!("warm-up rep: {e}"));
    }

    // Untraced and traced reps alternate, so slow drift of the host hits
    // both alike and their ratio is the tracing overhead.
    let mut plain: Vec<Rep> = Vec::new();
    let mut traced: Vec<TracedRep> = Vec::new();
    let mut usage = procfs::Usage::default();
    let mut kernel_ns = vec![reference::kernel_ns()];
    let deadline = Instant::now() + Duration::from_secs_f64(args.seconds * 0.5);
    let mut pairs = 0usize;
    loop {
        let index = pairs % variants.len();
        pairs += 1;
        result.attempted += 2;
        let before = procfs::Sample::now();
        match plain_rep(subject, plan, &variants[index], plan.backend) {
            Ok(rep) => {
                usage.add(
                    &before,
                    &procfs::Sample::now(),
                    rep.setup + rep.run + rep.teardown,
                );
                let misses = gate(&mut variants[index], plan, &rep.fingerprint, args.sabotage);
                if misses.is_empty() {
                    plain.push(rep);
                } else {
                    result.fail(format!(
                        "untraced rep (variant {index}): {}",
                        misses.join("; ")
                    ));
                }
            }
            Err(e) => result.fail(format!("untraced rep (variant {index}): {e}")),
        }
        let last = Instant::now() >= deadline && pairs >= 3;
        let spans_out = args.spans_out.as_ref().filter(|_| last);
        match traced_rep(subject, plan, &variants[index], spans_out) {
            Ok(rep) => {
                // Decorators must not perturb what the session commits.
                let misses = gate(&mut variants[index], plan, &rep.fingerprint, args.sabotage);
                if misses.is_empty() {
                    traced.push(rep);
                } else {
                    result.fail(format!(
                        "traced rep (variant {index}): {}",
                        misses.join("; ")
                    ));
                }
            }
            Err(e) => result.fail(format!("traced rep (variant {index}): {e}")),
        }
        kernel_ns.push(reference::kernel_ns());
        if last {
            break;
        }
    }
    result.put(
        "run.host_slowdown_x",
        median_or_zero(&kernel_ns) / reference::NOMINAL_NS,
    );
    if plain.is_empty() || traced.is_empty() {
        result.errors.push("no rep pair succeeded".to_string());
        return result;
    }

    // ---- spans: self time per layer, per committed cycle ----------------
    let per_cycle = |site: Site| -> f64 {
        median_or_zero(
            &traced
                .iter()
                .map(|r| r.analysis.self_ns(site) / r.fingerprint.committed as f64)
                .collect::<Vec<_>>(),
        )
    };
    let per_kcycle_calls = |site: Site| -> f64 {
        median_or_zero(
            &traced
                .iter()
                .map(|r| r.analysis.calls(site) as f64 * 1e3 / r.fingerprint.committed as f64)
                .collect::<Vec<_>>(),
        )
    };
    result.put("ahb.tick_ns_per_cycle", per_cycle(Site::AhbTick));
    result.put("ahb.outputs_ns_per_cycle", per_cycle(Site::AhbOutputs));
    result.put("ahb.verify_ns_per_cycle", per_cycle(Site::AhbVerify));
    let ticks_per_cycle = per_kcycle_calls(Site::AhbTick) / 1e3;
    result.put("ahb.ticks_per_cycle", ticks_per_cycle);
    result.put(
        "predict.predict_ns_per_cycle",
        per_cycle(Site::PredictPredict),
    );
    result.put("predict.train_ns_per_cycle", per_cycle(Site::PredictTrain));
    result.put(
        "sim.snapshot_save_ns_per_cycle",
        per_cycle(Site::SimSnapshotSave),
    );
    result.put(
        "sim.snapshot_restore_ns_per_cycle",
        per_cycle(Site::SimSnapshotRestore),
    );
    result.put(
        "sim.snapshot_saves_per_kcycle",
        per_kcycle_calls(Site::SimSnapshotSave),
    );
    result.put(
        "sim.snapshot_restores_per_kcycle",
        per_kcycle_calls(Site::SimSnapshotRestore),
    );
    result.put("sim.snapshot_words", traced[0].snapshot_words);
    result.put(
        "sim.trace_truncate_ns_per_cycle",
        per_cycle(Site::SimTraceTruncate),
    );
    result.put("core.self_ns_per_cycle", per_cycle(Site::CoreRun));
    // Each committed cycle needs one tick per domain; the rest were
    // speculative ticks rolled back, or their replay.
    result.put(
        "core.useful_tick_ratio",
        if ticks_per_cycle > 0.0 {
            2.0 / ticks_per_cycle
        } else {
            0.0
        },
    );
    if plan.backend == Backend::Queue {
        let calls = |r: &TracedRep, site| r.analysis.calls(site).max(1) as f64;
        result.put(
            "channel.queue.send_ns_per_packet",
            median_or_zero(
                &traced
                    .iter()
                    .map(|r| r.analysis.self_ns(Site::ChannelSend) / calls(r, Site::ChannelSend))
                    .collect::<Vec<_>>(),
            ),
        );
        // The cooperative loop polls: a receive that finds nothing is the
        // queue's form of waiting, so all polls are charged to the packets.
        result.put(
            "channel.queue.recv_wait_ns_per_packet",
            median_or_zero(
                &traced
                    .iter()
                    .map(|r| r.analysis.self_ns(Site::ChannelRecv) / calls(r, Site::ChannelSend))
                    .collect::<Vec<_>>(),
            ),
        );
    }
    let traced_wall = median_or_zero(&secs(&traced.iter().map(|r| r.wall).collect::<Vec<_>>()));
    let plain_wall = median_or_zero(&secs(&plain.iter().map(|r| r.run).collect::<Vec<_>>()));
    result.put(
        "trace.overhead_pct",
        (traced_wall / plain_wall - 1.0) * 100.0,
    );
    // The layers' estimated untraced times, summed, against the wall time of
    // the untraced reps (times the threads that ran): near 1 when sampling
    // and calibration hold up.
    result.put(
        "trace.attributed_share",
        median_or_zero(
            &traced
                .iter()
                .map(|r| {
                    r.analysis.total_self_ns()
                        / (plain_wall * 1e9 * r.analysis.threads.max(1) as f64)
                })
                .collect::<Vec<_>>(),
        ),
    );

    // ---- public counters -------------------------------------------------
    let rep = &plain[0];
    let committed = rep.fingerprint.committed as f64;
    let per_k = |count: u64| count as f64 * 1e3 / committed;
    let (sim, acc) = &rep.wrappers;
    let both = |f: fn(&CwStats) -> u64| f(sim) + f(acc);
    result.put(
        "core.transitions_per_kcycle",
        per_k(both(|s| s.transitions)),
    );
    result.put("core.rollbacks_per_kcycle", per_k(both(|s| s.rollbacks)));
    result.put(
        "core.replayed_cycles_per_kcycle",
        per_k(both(|s| s.replayed_cycles)),
    );
    result.put(
        "core.predicted_cycles_per_kcycle",
        per_k(both(|s| s.predicted_cycles)),
    );
    result.put(
        "core.conservative_cycles_per_kcycle",
        // Both roles count a conservative cycle; it is one cycle.
        per_k(both(|s| s.conservative_cycles)) / 2.0,
    );
    result.put("core.flushes_per_kcycle", per_k(both(|s| s.flushes)));
    let checked = both(|s| s.checked_predictions);
    result.put(
        "predict.hit_rate",
        if checked > 0 {
            1.0 - both(|s| s.failed_predictions) as f64 / checked as f64
        } else {
            0.0
        },
    );
    result.put(
        "predict.control_words_per_kcycle",
        traced[0].control_words as f64 * 1e3 / traced[0].fingerprint.committed as f64,
    );
    let accesses = rep.channel.total_accesses();
    result.put("channel.packets_per_kcycle", per_k(accesses));
    result.put(
        "channel.words_per_packet",
        rep.channel.total_words() as f64 / accesses.max(1) as f64,
    );
    if let Some(batch) = rep.batch.and_then(|b| b.frames_per_write()) {
        result.put("channel.frames_per_write", batch);
    }
    result.put("proc.peak_rss_mb", procfs::peak_rss_mb());
    result.put("proc.cpu_s_per_wall_s", usage.cpu_per_wall());
    let plain_kcycles: f64 = plain
        .iter()
        .map(|r| r.fingerprint.committed as f64 / 1e3)
        .sum();
    result.put(
        "proc.voluntary_ctx_switches_per_kcycle",
        usage.voluntary_switches as f64 / plain_kcycles,
    );
    result.put(
        "workloads.blueprint_build_us",
        median_or_zero(&prep.blueprint_build_us),
    );
    result.put("ahb.golden_kcps", median_or_zero(&prep.golden_kcps));
    let whole_ms: Vec<f64> = plain
        .iter()
        .map(|r| (r.setup + r.run + r.teardown).as_secs_f64() * 1e3)
        .collect();
    if let Some(t) = Timing::of(&whole_ms) {
        result.put("run.session_ms_p50", t.median);
        result.put("run.session_samples", t.samples as f64);
        if let Some((pct, value)) = t.top {
            result.put("run.session_top_pct", pct);
            result.put("run.session_ms_top", value);
        }
    }

    // ---- model-time accuracy (synthetic workloads only) -------------------
    if let Some((p, paper_kcps)) = plan.paper {
        let mut totals = ModelTotals::default();
        totals.add(rep);
        let measured = totals.model_kcps();
        result.put(
            "paper_perf_err_pct",
            (measured - paper_kcps).abs() / paper_kcps * 100.0,
        );
        let params = ModelParams::from_config(&subject.config(), Side::Accelerator);
        let analytic = AnalyticRow::at(&params, p).performance / 1e3;
        result.put(
            "perfmodel.analytic_err_pct",
            (measured - analytic).abs() / analytic * 100.0,
        );
    }

    // ---- one long run in ten windows: does a cycle get dearer? -----------
    match windows(subject, plan, &variants[0]) {
        Ok(ns_per_cycle) => {
            let (first, last) = (ns_per_cycle[0], ns_per_cycle[ns_per_cycle.len() - 1]);
            result.put("core.window_ns_per_cycle_first", first);
            result.put("core.window_ns_per_cycle_last", last);
            result.put("core.window_growth_x", last / first);
        }
        Err(e) => result.errors.push(format!("windowed run: {e}")),
    }

    // ---- checkpoints: the baseline for heal work ---------------------------
    match layers::checkpoint_costs(
        || build_plain(subject, &variants[0].inputs, plan.backend),
        plan,
    ) {
        Ok(costs) => costs.put(&mut result),
        Err(e) => result.errors.push(format!("checkpoint measurements: {e}")),
    }

    // ---- the other predictor suite on the same inputs ---------------------
    if let Some(twin) = paper_twin {
        let mut ratios = Vec::new();
        for variant in &variants {
            let twin_wall = twin(variant.seed);
            let own = plain_rep(subject, plan, variant, plan.backend);
            match (own, twin_wall) {
                (Ok(own), Ok(twin_wall)) => {
                    ratios.push(own.run.as_secs_f64() / twin_wall.as_secs_f64())
                }
                (Err(e), _) | (_, Err(e)) => result.errors.push(format!("suite comparison: {e}")),
            }
        }
        result.put("predict.adaptive_vs_paper_wall_x", median_or_zero(&ratios));
    }

    // ---- replay: the recorded packet stream through each real backend ----
    match record_stream(subject, plan, &variants[0]) {
        Ok(rec) => {
            layers::codec_costs(&rec.stream).put(&mut result);
            layers::delta_costs(&rec.stream, rec.sim_local, rec.sim_remote).put(&mut result);
            for (backend, outcome) in layers::replay_all(&rec.stream) {
                match outcome {
                    Ok(replay) => replay.put(backend, rec.committed, &mut result),
                    Err(e) => result.errors.push(format!("replay over {backend}: {e}")),
                }
            }
        }
        Err(e) => result
            .errors
            .push(format!("recording the packet stream: {e}")),
    }
    result
}

/// Runs one undecorated session to its target in ten equal windows and
/// returns each window's host nanoseconds per committed cycle.
fn windows<S: Subject>(
    subject: &S,
    plan: &Plan,
    variant: &Variant<S::Inputs>,
) -> Result<Vec<f64>, String> {
    const WINDOWS: u64 = 10;
    let mut session = build_plain(subject, &variant.inputs, plan.backend)?;
    let mut out = Vec::new();
    let mut before = 0;
    for window in 1..=WINDOWS {
        let started = Instant::now();
        session
            .run_until_committed(plan.cycles * window / WINDOWS)
            .map_err(|e| format!("window {window}: {e}"))?;
        let wall = started.elapsed();
        let committed = session.committed_cycles();
        if committed > before {
            out.push(wall.as_nanos() as f64 / (committed - before) as f64);
        }
        before = committed;
    }
    if out.len() < 2 {
        return Err("fewer than two windows made progress".to_string());
    }
    Ok(out)
}
