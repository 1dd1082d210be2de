//! Spans recorded from the benchmark's own files, around the calls into each
//! layer. A span is (site, thread, parent, start, end); spans are kept in
//! memory — one buffer per thread, flushed to a shared collector when the
//! thread ends — and analysed after the rep they belong to has finished.
//!
//! A layer's *self time* is its spans' duration minus the part their child
//! spans on the same thread cover. A child on another thread (the simulator
//! domain of a threaded session runs on a thread the session spawns) runs
//! concurrently with its parent, so it is attributed on its own thread and
//! never subtracted from the parent.
//!
//! **Sampling.** A session makes some fifteen calls into its layers per
//! committed cycle, many of them shorter than the two clock reads a span
//! costs (37 ns each on the reference box); timing all of them slowed the
//! run by 46 %. So every call is *counted*, but only one in [`STRIDE`] of a
//! site's calls directly under the run is *timed* — together with everything
//! nested in it, so a timed span's children are all timed and its self time
//! is exact. A site's total is its timed total scaled by calls ÷ timed calls.
//! The stride is prime because the protocol's own periods are powers of two.
//!
//! **Calibration.** A timed span's interval still contains about one clock
//! read, and its parent pays the rest of the bookkeeping; an untimed call
//! costs its parent a counter update. [`calibrate`] measures the three costs
//! on empty spans and [`analyze`] takes them out, so the reported times
//! estimate what the layers cost in an *untraced* run — which
//! `trace.attributed_share` then checks against the untraced wall time.

use std::cell::RefCell;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// One in this many of a site's top-level calls is timed.
pub const STRIDE: u64 = 13;

/// Where a span is recorded: the call into a layer it surrounds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Site {
    /// `run_until_committed`: the root; its self time is the core wrapper's.
    CoreRun,
    AhbTick,
    AhbOutputs,
    AhbVerify,
    PredictPredict,
    PredictTrain,
    SimSnapshotSave,
    SimSnapshotRestore,
    SimTraceTruncate,
    ChannelSend,
    ChannelRecv,
    /// Empty spans of [`calibrate`] and of tests.
    Probe,
}

const SITES: usize = 12;

impl Site {
    pub const ALL: [Site; SITES] = [
        Site::CoreRun,
        Site::AhbTick,
        Site::AhbOutputs,
        Site::AhbVerify,
        Site::PredictPredict,
        Site::PredictTrain,
        Site::SimSnapshotSave,
        Site::SimSnapshotRestore,
        Site::SimTraceTruncate,
        Site::ChannelSend,
        Site::ChannelRecv,
        Site::Probe,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Site::CoreRun => "core.run",
            Site::AhbTick => "ahb.tick",
            Site::AhbOutputs => "ahb.outputs",
            Site::AhbVerify => "ahb.verify",
            Site::PredictPredict => "predict.predict",
            Site::PredictTrain => "predict.train",
            Site::SimSnapshotSave => "sim.snapshot_save",
            Site::SimSnapshotRestore => "sim.snapshot_restore",
            Site::SimTraceTruncate => "sim.trace_truncate",
            Site::ChannelSend => "channel.send",
            Site::ChannelRecv => "channel.recv",
            Site::Probe => "probe",
        }
    }
}

/// Identifies a span across threads: (thread, index in that thread's buffer).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanId {
    pub thread: u32,
    pub index: u32,
}

#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub site: Site,
    pub thread: u32,
    pub parent: Option<SpanId>,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Everything one thread recorded: its timed spans and, per site, how many
/// calls it counted.
#[derive(Debug, Clone, Default)]
pub struct ThreadTrace {
    pub thread: u32,
    pub spans: Vec<Span>,
    pub calls: [u64; SITES],
}

static EPOCH: OnceLock<Instant> = OnceLock::new();
static NEXT_THREAD: AtomicU32 = AtomicU32::new(0);
/// The span a thread with an empty stack hangs its spans under: the run span
/// the benchmark's main thread currently has open (0 = none).
static ROOT: AtomicU64 = AtomicU64::new(0);
static FLUSHED: Mutex<Vec<ThreadTrace>> = Mutex::new(Vec::new());

fn now_ns() -> u64 {
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

struct ThreadBuffer {
    trace: ThreadTrace,
    /// Indices of the open timed spans, innermost last.
    open: Vec<u32>,
    /// Depth inside an untimed call: everything nested is only counted.
    untimed_depth: u32,
    /// The outermost open span is the root, under which calls are sampled.
    root_open: bool,
}

impl Drop for ThreadBuffer {
    fn drop(&mut self) {
        // Runs when the thread ends; a poisoned collector only loses spans.
        if let Ok(mut flushed) = FLUSHED.lock() {
            flushed.push(std::mem::take(&mut self.trace));
        }
    }
}

thread_local! {
    static BUFFER: RefCell<ThreadBuffer> = RefCell::new(ThreadBuffer {
        trace: ThreadTrace {
            thread: NEXT_THREAD.fetch_add(1, Ordering::Relaxed),
            ..ThreadTrace::default()
        },
        open: Vec::new(),
        untimed_depth: 0,
        root_open: false,
    });
}

/// Which calls of a site to time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Sampling {
    /// One in [`STRIDE`] top-level calls, and every call nested in a timed one.
    Stride,
    Always,
    Never,
}

/// Closes its span (or leaves its untimed call) when dropped.
pub struct SpanGuard {
    /// Index of the timed span; `None` for a call that was only counted.
    index: Option<u32>,
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        match self.index {
            Some(index) => {
                let end = now_ns();
                BUFFER.with(|b| {
                    let mut b = b.borrow_mut();
                    b.trace.spans[index as usize].end_ns = end;
                    b.open.pop();
                });
            }
            None => BUFFER.with(|b| b.borrow_mut().untimed_depth -= 1),
        }
    }
}

fn enter_with(site: Site, sampling: Sampling) -> SpanGuard {
    BUFFER.with(|b| {
        let mut b = b.borrow_mut();
        b.trace.calls[site as usize] += 1;
        let nested_in_timed = b.untimed_depth == 0 && b.open.len() > usize::from(b.root_open);
        let timed = match sampling {
            Sampling::Always => b.untimed_depth == 0,
            Sampling::Never => false,
            Sampling::Stride => {
                nested_in_timed
                    || (b.untimed_depth == 0 && b.trace.calls[site as usize] % STRIDE == 0)
            }
        };
        if !timed {
            b.untimed_depth += 1;
            return SpanGuard { index: None };
        }
        let thread = b.trace.thread;
        let parent = match b.open.last() {
            Some(&index) => Some(SpanId { thread, index }),
            None => decode_root(ROOT.load(Ordering::Acquire)),
        };
        let index = b.trace.spans.len() as u32;
        b.open.push(index);
        b.trace.spans.push(Span {
            site,
            thread,
            parent,
            start_ns: 0,
            end_ns: 0,
        });
        // Read the clock last, so the bookkeeping above is the parent's.
        b.trace.spans[index as usize].start_ns = now_ns();
        SpanGuard { index: Some(index) }
    })
}

/// Counts a call at `site` and, for a sampled one, opens a span on the
/// calling thread — nested under the thread's innermost open span, or under
/// the root span when the thread has none open.
pub fn enter(site: Site) -> SpanGuard {
    enter_with(site, Sampling::Stride)
}

fn encode_root(id: SpanId) -> u64 {
    ((id.thread as u64) << 32 | id.index as u64) + 1
}

fn decode_root(raw: u64) -> Option<SpanId> {
    raw.checked_sub(1).map(|v| SpanId {
        thread: (v >> 32) as u32,
        index: v as u32,
    })
}

/// Opens an always-timed span and publishes it as the root that the calls
/// directly under it — on this thread or another — are sampled against.
pub fn enter_root(site: Site) -> RootGuard {
    let guard = enter_with(site, Sampling::Always);
    let index = guard
        .index
        .expect("a root is never opened inside an untimed call");
    let thread = BUFFER.with(|b| {
        let mut b = b.borrow_mut();
        assert_eq!(
            b.open.len(),
            1,
            "a root is the outermost span of its thread"
        );
        b.root_open = true;
        b.trace.thread
    });
    ROOT.store(encode_root(SpanId { thread, index }), Ordering::Release);
    RootGuard { _guard: guard }
}

pub struct RootGuard {
    _guard: SpanGuard,
}

impl Drop for RootGuard {
    fn drop(&mut self) {
        ROOT.store(0, Ordering::Release);
        BUFFER.with(|b| b.borrow_mut().root_open = false);
    }
}

/// Takes everything recorded so far: the calling thread's buffer plus what
/// ended threads flushed. Call between reps, with no span open.
pub fn take() -> Vec<ThreadTrace> {
    let mut traces = vec![BUFFER.with(|b| {
        let mut b = b.borrow_mut();
        assert!(
            b.open.is_empty() && b.untimed_depth == 0,
            "take() inside a span"
        );
        let taken = b.trace.clone();
        // Keep the allocation: the next rep records about as many spans.
        b.trace.spans.clear();
        b.trace.calls = [0; SITES];
        taken
    })];
    traces.append(&mut FLUSHED.lock().expect("span collector lock"));
    traces.retain(|t| t.calls.iter().any(|&c| c > 0));
    traces
}

/// What a span costs beyond the call it surrounds, in nanoseconds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Calibration {
    /// Part of a timed span's own interval that is the clock, not the call.
    pub inside_ns: f64,
    /// What a timed span costs its parent outside that interval.
    pub outside_ns: f64,
    /// What a call that is only counted costs its parent.
    pub untimed_ns: f64,
}

/// Measures the cost of empty spans on this thread, once per process.
pub fn calibrate() -> Calibration {
    static CALIBRATION: OnceLock<Calibration> = OnceLock::new();
    *CALIBRATION.get_or_init(|| {
        const BATCHES: usize = 9;
        const PER_BATCH: u64 = 4_000;
        let _ = take();
        let (mut inside, mut outside, mut untimed) = (Vec::new(), Vec::new(), Vec::new());
        for _ in 0..BATCHES {
            let started = Instant::now();
            for _ in 0..PER_BATCH {
                drop(enter_with(Site::Probe, Sampling::Always));
            }
            let per_span = started.elapsed().as_nanos() as f64 / PER_BATCH as f64;
            let spans = take().into_iter().flat_map(|t| t.spans);
            let in_span = spans.map(|s| s.duration_ns() as f64).sum::<f64>() / PER_BATCH as f64;
            inside.push(in_span);
            outside.push((per_span - in_span).max(0.0));

            let started = Instant::now();
            for _ in 0..PER_BATCH {
                drop(enter_with(Site::Probe, Sampling::Never));
            }
            untimed.push(started.elapsed().as_nanos() as f64 / PER_BATCH as f64);
            let _ = take();
        }
        let median = |v: &[f64]| crate::stats::median(v).expect("batches");
        Calibration {
            inside_ns: median(&inside),
            outside_ns: median(&outside),
            untimed_ns: median(&untimed),
        }
    })
}

/// Estimated untraced self time and the call count of one site.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SelfTime {
    pub self_ns: f64,
    pub calls: u64,
}

/// Per-site self times, plus the number of threads that recorded anything.
#[derive(Debug, Default)]
pub struct Analysis {
    by_site: [SelfTime; SITES],
    pub threads: usize,
}

impl Analysis {
    pub fn self_ns(&self, site: Site) -> f64 {
        self.by_site[site as usize].self_ns
    }

    pub fn calls(&self, site: Site) -> u64 {
        self.by_site[site as usize].calls
    }

    pub fn total_self_ns(&self) -> f64 {
        self.by_site.iter().map(|s| s.self_ns).sum()
    }
}

/// Computes, per site, the self time its calls would have cost untraced:
/// timed self times (duration minus same-thread children minus the span
/// costs `calibration` names), scaled from the timed calls to all calls. The
/// root is timed once and exactly; the calls under it are estimated from
/// their samples, and so is what the root has left.
pub fn analyze(traces: &[ThreadTrace], calibration: &Calibration) -> Analysis {
    let mut analysis = Analysis {
        threads: traces.len(),
        ..Analysis::default()
    };
    for trace in traces {
        let spans = &trace.spans;
        // Per span: duration and number of its direct same-thread children.
        let mut children_ns = vec![0f64; spans.len()];
        let mut children = vec![0f64; spans.len()];
        for span in spans {
            if let Some(parent) = span.parent.filter(|p| p.thread == trace.thread) {
                children_ns[parent.index as usize] += span.duration_ns() as f64;
                children[parent.index as usize] += 1.0;
            }
        }
        // What the span's own code would have cost untraced: its interval
        // without its children, its own clock read and its children's
        // bookkeeping.
        let self_ns = |at: usize| {
            spans[at].duration_ns() as f64
                - children_ns[at]
                - calibration.inside_ns
                - children[at] * calibration.outside_ns
        };
        // The same including everything nested. A thread records a parent
        // before its children, so one reverse pass sums bottom-up.
        let mut inclusive_ns: Vec<f64> = (0..spans.len()).map(self_ns).collect();
        for at in (0..spans.len()).rev() {
            if let Some(parent) = spans[at].parent.filter(|p| p.thread == trace.thread) {
                inclusive_ns[parent.index as usize] += inclusive_ns[at];
            }
        }

        let root = spans
            .iter()
            .position(|s| s.parent.is_none() && s.site == Site::CoreRun);
        let mut timed_ns = [0f64; SITES];
        let mut timed = [0u64; SITES];
        // Untraced time of the timed calls directly under the root, per site.
        let mut under_root_ns = [0f64; SITES];
        for (at, span) in spans.iter().enumerate() {
            if Some(at) == root {
                continue;
            }
            // No clamping per span: a call shorter than the clock's jitter
            // reads below zero as often as above, and the sum is unbiased.
            timed_ns[span.site as usize] += self_ns(at);
            timed[span.site as usize] += 1;
            if root.is_some() && span.parent.map(|p| p.index as usize) == root {
                under_root_ns[span.site as usize] += inclusive_ns[at];
            }
        }
        let mut root_children_ns = 0.0;
        let (mut timed_calls, mut untimed_calls) = (0, 0);
        for site in Site::ALL {
            let at = site as usize;
            let calls = trace.calls[at] - u64::from(root.is_some() && site == Site::CoreRun);
            let scale = if timed[at] > 0 {
                calls as f64 / timed[at] as f64
            } else {
                0.0
            };
            analysis.by_site[at].self_ns += (timed_ns[at] * scale).max(0.0);
            analysis.by_site[at].calls += calls;
            root_children_ns += under_root_ns[at] * scale;
            timed_calls += timed[at];
            untimed_calls += calls - timed[at];
        }
        if let Some(root) = root {
            // The root's wall time holds every call under it (estimated from
            // the samples), every span's cost, and the root's own code.
            let self_ns = spans[root].duration_ns() as f64
                - calibration.inside_ns
                - root_children_ns
                - timed_calls as f64 * (calibration.inside_ns + calibration.outside_ns)
                - untimed_calls as f64 * calibration.untimed_ns;
            let entry = &mut analysis.by_site[Site::CoreRun as usize];
            entry.self_ns += self_ns.max(0.0);
            entry.calls += 1;
        }
    }
    analysis
}

/// Writes timed spans as JSON lines (`--spans`).
pub fn write_jsonl(traces: &[ThreadTrace], out: &mut impl std::io::Write) -> std::io::Result<()> {
    for span in traces.iter().flat_map(|t| &t.spans) {
        let parent = match span.parent {
            Some(p) => format!("[{},{}]", p.thread, p.index),
            None => "null".to_string(),
        };
        writeln!(
            out,
            "{{\"name\":\"{}\",\"thread\":{},\"parent\":{parent},\"start_ns\":{},\"end_ns\":{}}}",
            span.site.name(),
            span.thread,
            span.start_ns,
            span.end_ns
        )?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// No correction: spans are taken at face value.
    const NONE: Calibration = Calibration {
        inside_ns: 0.0,
        outside_ns: 0.0,
        untimed_ns: 0.0,
    };

    fn span(
        site: Site,
        thread: u32,
        parent: Option<(u32, u32)>,
        start_ns: u64,
        end_ns: u64,
    ) -> Span {
        Span {
            site,
            thread,
            parent: parent.map(|(thread, index)| SpanId { thread, index }),
            start_ns,
            end_ns,
        }
    }

    /// A thread's trace in which every call was timed.
    fn all_timed(thread: u32, spans: Vec<Span>) -> ThreadTrace {
        let mut calls = [0; SITES];
        for s in &spans {
            calls[s.site as usize] += 1;
        }
        ThreadTrace {
            thread,
            spans,
            calls,
        }
    }

    #[test]
    fn nested_children_are_subtracted_once_per_level() {
        // run [0,100] ⊃ tick [10,60] ⊃ train [20,30]; run ⊃ save [70,90].
        let trace = all_timed(
            0,
            vec![
                span(Site::CoreRun, 0, None, 0, 100),
                span(Site::AhbTick, 0, Some((0, 0)), 10, 60),
                span(Site::PredictTrain, 0, Some((0, 1)), 20, 30),
                span(Site::SimSnapshotSave, 0, Some((0, 0)), 70, 90),
            ],
        );
        let a = analyze(&[trace], &NONE);
        assert_eq!(a.self_ns(Site::CoreRun), 100.0 - 50.0 - 20.0);
        assert_eq!(a.self_ns(Site::AhbTick), 50.0 - 10.0);
        assert_eq!(a.self_ns(Site::PredictTrain), 10.0);
        assert_eq!(a.self_ns(Site::SimSnapshotSave), 20.0);
        assert_eq!(a.total_self_ns(), 100.0, "self times partition the root");
        assert_eq!(a.threads, 1);
    }

    #[test]
    fn cross_thread_children_are_not_subtracted_from_the_parent() {
        // Thread 1's tick hangs under thread 0's run but overlaps it in time.
        let main = all_timed(
            0,
            vec![
                span(Site::CoreRun, 0, None, 0, 100),
                span(Site::AhbTick, 0, Some((0, 0)), 0, 40),
            ],
        );
        let other = all_timed(
            1,
            vec![
                span(Site::AhbTick, 1, Some((0, 0)), 5, 95),
                span(Site::PredictTrain, 1, Some((1, 0)), 10, 20),
            ],
        );
        let a = analyze(&[main, other], &NONE);
        assert_eq!(a.self_ns(Site::CoreRun), 60.0, "only the same-thread tick");
        assert_eq!(a.self_ns(Site::AhbTick), 40.0 + (90.0 - 10.0));
        assert_eq!(a.calls(Site::AhbTick), 2);
        assert_eq!(a.threads, 2);
    }

    #[test]
    fn sampled_sites_scale_to_their_call_count() {
        // Seven ticks were counted, one of them timed at 10 ns with a 4 ns
        // train inside: 7 × 6 ns of tick, 7 × 4 ns of train, and the root
        // keeps 100 − 7 × 10.
        let mut trace = all_timed(
            0,
            vec![
                span(Site::CoreRun, 0, None, 0, 100),
                span(Site::AhbTick, 0, Some((0, 0)), 10, 20),
                span(Site::PredictTrain, 0, Some((0, 1)), 12, 16),
            ],
        );
        trace.calls[Site::AhbTick as usize] = 7;
        trace.calls[Site::PredictTrain as usize] = 7;
        let a = analyze(&[trace], &NONE);
        assert_eq!(a.self_ns(Site::AhbTick), 42.0);
        assert_eq!(a.self_ns(Site::PredictTrain), 28.0);
        assert_eq!(a.self_ns(Site::CoreRun), 30.0);
        assert_eq!(a.calls(Site::AhbTick), 7);
    }

    #[test]
    fn calibration_moves_span_costs_out_of_the_layers() {
        let mut trace = all_timed(
            0,
            vec![
                span(Site::CoreRun, 0, None, 0, 1_000),
                span(Site::AhbTick, 0, Some((0, 0)), 100, 200),
                span(Site::PredictTrain, 0, Some((0, 1)), 120, 150),
            ],
        );
        trace.calls[Site::AhbOutputs as usize] = 3; // counted, never timed
        let calibration = Calibration {
            inside_ns: 10.0,
            outside_ns: 5.0,
            untimed_ns: 2.0,
        };
        let a = analyze(&[trace], &calibration);
        assert_eq!(a.self_ns(Site::PredictTrain), 30.0 - 10.0);
        assert_eq!(a.self_ns(Site::AhbTick), 100.0 - 30.0 - 10.0 - 5.0);
        // 1000 = root + its clock read + tick's interval and bookkeeping +
        // three counted calls.
        assert_eq!(
            a.self_ns(Site::CoreRun),
            1_000.0 - 10.0 - 100.0 - 5.0 - 3.0 * 2.0
        );
        assert_eq!(a.total_self_ns(), 20.0 + 55.0 + 879.0);
        assert_eq!(a.self_ns(Site::AhbOutputs), 0.0);
        assert_eq!(a.calls(Site::AhbOutputs), 3);
    }

    /// The live recorder: the one test that touches the process-wide state.
    #[test]
    fn live_recording_samples_nests_and_crosses_threads() {
        let _ = take();
        {
            let _root = enter_root(Site::CoreRun);
            for _ in 0..3 * STRIDE {
                let _outer = enter(Site::AhbTick);
                let _inner = enter(Site::PredictTrain);
            }
            std::thread::scope(|s| {
                s.spawn(|| {
                    for _ in 0..STRIDE {
                        let _other = enter(Site::AhbVerify);
                    }
                })
                .join()
                .expect("span thread");
            });
        }
        let traces = take();
        assert_eq!(traces.len(), 2);
        let main = traces
            .iter()
            .find(|t| t.calls[Site::CoreRun as usize] == 1)
            .expect("main thread");
        let other = traces
            .iter()
            .find(|t| t.thread != main.thread)
            .expect("other");
        assert_eq!(main.calls[Site::AhbTick as usize], 3 * STRIDE);
        assert_eq!(main.calls[Site::PredictTrain as usize], 3 * STRIDE);
        let count = |t: &ThreadTrace, site| t.spans.iter().filter(|s| s.site == site).count();
        assert_eq!(count(main, Site::AhbTick), 3, "one in STRIDE is timed");
        assert_eq!(
            count(main, Site::PredictTrain),
            3,
            "nested calls follow their parent"
        );
        assert_eq!(count(other, Site::AhbVerify), 1);
        let root_id = Some(SpanId {
            thread: main.thread,
            index: 0,
        });
        assert!(main
            .spans
            .iter()
            .filter(|s| s.site == Site::AhbTick)
            .all(|s| s.parent == root_id));
        assert_eq!(
            other.spans[0].parent, root_id,
            "cross-thread parent is the root"
        );
        let a = analyze(&traces, &NONE);
        assert_eq!(a.calls(Site::AhbTick), 3 * STRIDE);
        assert_eq!(a.threads, 2);

        let calibration = calibrate();
        assert!(calibration.inside_ns > 0.0 && calibration.inside_ns < 10_000.0);
        assert!(calibration.untimed_ns < calibration.inside_ns + calibration.outside_ns);
        assert!(take().is_empty(), "calibration leaves nothing behind");
    }

    #[test]
    fn jsonl_is_one_object_per_line() {
        let traces = [
            all_timed(0, vec![span(Site::CoreRun, 0, None, 1, 2)]),
            all_timed(1, vec![span(Site::AhbTick, 1, Some((0, 0)), 3, 4)]),
        ];
        let mut out = Vec::new();
        write_jsonl(&traces, &mut out).expect("write to memory");
        let text = String::from_utf8(out).expect("utf-8");
        assert_eq!(text.lines().count(), 2);
        assert!(text.contains("\"parent\":[0,0]"));
        assert!(text.contains("\"parent\":null"));
    }
}
