//! `AhbDomainModel` evaluates each component once per cycle, and its snapshot
//! words are where they always were.
//!
//! The model latches its components' Moore outputs at the clock edge (see
//! "Latched outputs" in `ahb_model.rs`), so the LOB words, the trace record,
//! the lagger's prediction check and the tick itself read a slot. Two pins:
//! the number of `outputs()` dispatches a component sees across a run with
//! rollbacks, and the model's state-vector words at fixed cuts — the latched
//! values are derived state and must never reach a snapshot. And one
//! comparison: the lagger's fused check-and-tick and the proxies' cached
//! words against the two-call path a decorator takes.

mod common;

use common::{figure2_soc, figure2_soc_seeded, mesh_soc};
use predpkt_ahb::engine::BusOp;
use predpkt_ahb::masters::{CpuMaster, CpuProfile, TrafficGenMaster};
use predpkt_ahb::signals::{Hburst, Hsize, MasterSignals, MasterView, SlaveSignals, SlaveView};
use predpkt_ahb::slaves::MemorySlave;
use predpkt_ahb::{AhbMaster, AhbSlave};
use predpkt_core::{
    AhbDomainModel, CoEmuConfig, CoEmulator, DomainModel, ModePolicy, Side, SocBlueprint, TickKind,
};
use predpkt_predict::{AdaptiveSuite, PaperSuite, PredictorSuite};
use predpkt_sim::{
    save_to_vec, Snapshot, SnapshotError, StateReader, StateVec, StateWriter, Trace, TraceMark,
};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// What `benchmark/` runs the Fig. 2 SoC under.
fn bench_config() -> CoEmuConfig {
    CoEmuConfig::paper_defaults()
        .policy(ModePolicy::Auto)
        .rollback_vars(None)
        .carry(true)
        .adaptive(true)
}

/// How often each entry point of one component was called.
#[derive(Default)]
struct Calls {
    outputs: AtomicU64,
    ticks: AtomicU64,
    restores: AtomicU64,
}

impl Calls {
    fn bump(counter: &AtomicU64) {
        counter.fetch_add(1, Ordering::Relaxed);
    }

    fn read(&self) -> (u64, u64, u64) {
        (
            self.outputs.load(Ordering::Relaxed),
            self.ticks.load(Ordering::Relaxed),
            self.restores.load(Ordering::Relaxed),
        )
    }
}

/// A component that counts the calls it forwards to `inner`.
struct Counting<C> {
    inner: C,
    calls: Arc<Calls>,
}

impl<C: Snapshot> Snapshot for Counting<C> {
    fn save(&self, w: &mut StateWriter<'_>) {
        self.inner.save(w);
    }

    fn restore(&mut self, r: &mut StateReader<'_>) -> Result<(), SnapshotError> {
        Calls::bump(&self.calls.restores);
        self.inner.restore(r)
    }
}

impl AhbMaster for Counting<TrafficGenMaster> {
    fn outputs(&self) -> MasterSignals {
        Calls::bump(&self.calls.outputs);
        self.inner.outputs()
    }

    fn tick(&mut self, view: &MasterView) {
        Calls::bump(&self.calls.ticks);
        self.inner.tick(view);
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }
}

impl AhbSlave for Counting<MemorySlave> {
    fn outputs(&self) -> SlaveSignals {
        Calls::bump(&self.calls.outputs);
        self.inner.outputs()
    }

    fn tick(&mut self, view: &SlaveView) {
        Calls::bump(&self.calls.ticks);
        self.inner.tick(view);
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }
}

/// One `outputs()` per component when the model is built, one per `tick`, one
/// per `restore` — and in a debug build one more per `tick`, for the
/// assertion that checks the latch. (Before the latch: two to three per
/// tick, for the LOB words, the tick's vectors and the lagger's check.)
#[test]
fn a_component_is_evaluated_once_per_cycle() {
    let master_calls = Arc::new(Calls::default());
    let slave_calls = Arc::new(Calls::default());
    let (m, s) = (master_calls.clone(), slave_calls.clone());
    // The CPU's irregular traffic is what mispredicts; the counted pair sits
    // one on each side so both wrappers' rollback paths are counted.
    let blueprint = SocBlueprint::new()
        .master(Side::Simulator, || {
            Box::new(CpuMaster::new(0xbeef, CpuProfile::default()))
        })
        .master(Side::Accelerator, move || {
            Box::new(Counting {
                inner: TrafficGenMaster::from_ops(vec![
                    BusOp::read_burst(0x0040, Hsize::Word, Hburst::Wrap8),
                    BusOp::write_single(0x1004, 0xabcd),
                ])
                .looping()
                .with_idle_gap(11),
                calls: m.clone(),
            })
        })
        .slave(Side::Simulator, 0x0000, 0x1000, move || {
            Box::new(Counting {
                inner: MemorySlave::new(0x1000, 0),
                calls: s.clone(),
            })
        })
        .slave(Side::Accelerator, 0x1000, 0x1000, || {
            Box::new(MemorySlave::with_waits(0x1000, 2, 1))
        });
    let mut coemu = CoEmulator::from_blueprint(&blueprint, bench_config()).expect("session builds");
    coemu.run_until_committed(2_000).expect("run completes");

    let per_tick = if cfg!(debug_assertions) { 2 } else { 1 };
    for (name, calls) in [("master", &master_calls), ("slave", &slave_calls)] {
        let (outputs, ticks, restores) = calls.read();
        assert!(
            ticks > 2_000 && restores > 0,
            "{name}: the run must replay cycles after rollbacks ({ticks} ticks, {restores} restores)"
        );
        assert_eq!(
            outputs,
            1 + per_tick * ticks + restores,
            "{name}: outputs() calls over {ticks} ticks and {restores} restores"
        );
    }
}

/// FNV-1a over a state vector's words.
fn hash_words(words: &[u64]) -> u64 {
    words.iter().fold(0xcbf2_9ce4_8422_2325, |hash, &word| {
        (hash ^ word).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// The words both domain models save at four cuts, pinned to what the model
/// wrote when it kept separate proxy vectors: a local slot saved as anything
/// but idle, a slot out of order or a latched value written out fails here
/// by cut and side, not as a drift in some blob's size. Two runs: the Fig. 2
/// SoC under the paper suite, and the mesh — FIFO, split jobs, DMA chunks,
/// scripted results, journaled stores — under the adaptive suite, whose
/// context tables, timelines and scoreboards the paper suite never saves.
/// Each side's committed trace hash pins the packed signal layout too: the
/// golden bus and both domains pack with the same code, so the conformance
/// matrix cannot see a layout change.
#[test]
fn domain_model_snapshot_words_are_pinned() {
    let fig2 = CoEmulator::from_blueprint(&figure2_soc_seeded(11), bench_config())
        .expect("session builds");
    let (sim, acc) = mesh_soc()
        .build_pair_with(&AdaptiveSuite::default())
        .expect("pair builds");
    let mesh = CoEmulator::new(sim, acc, bench_config());
    for (soc, mut coemu, pinned) in [
        ("fig. 2", fig2, PINNED_WORDS),
        ("mesh, adaptive", mesh, PINNED_MESH_WORDS),
    ] {
        let mut read = Vec::new();
        for cut in [50, 400, 1_500, 4_000] {
            coemu.run_until_committed(cut).expect("run reaches the cut");
            let committed = coemu.committed_cycles();
            let words = |model: &AhbDomainModel| {
                let state = save_to_vec(model);
                let mut trace = model.trace().clone();
                trace.truncate_to_len(committed as usize);
                (state.len(), hash_words(state.words()), trace.hash())
            };
            read.push((
                committed,
                [words(coemu.sim_model()), words(coemu.acc_model())],
            ));
        }
        assert_eq!(read, pinned, "{soc}: read {read:#x?}");
    }
}

/// The committed cycles at a cut, and the simulator's and the accelerator's
/// `(words, hash, committed trace hash)` there.
type Cut = (u64, [(usize, u64, u64); 2]);

const PINNED_MESH_WORDS: [Cut; 4] = [
    (
        50,
        [
            (4351, 0xa84b35c7d967259f, 0x2a165964f2294416),
            (2645, 0xa716c28b637fdac9, 0x9cdfbec9f74cb6fa),
        ],
    ),
    (
        402,
        [
            (4336, 0x9fdb3e4e4fa51836, 0xdc99797780e109d1),
            (2685, 0x654794313dae5a9d, 0x6496b5215ae1fd1d),
        ],
    ),
    (
        1501,
        [
            (4332, 0x0411994d703da973, 0x138ad251b65d2148),
            (2633, 0x3779b8677382c8e4, 0x5480bfdeca5b12b7),
        ],
    ),
    (
        4000,
        [
            (4356, 0xb5b8a697f5124af1, 0xff1bca35cc259dbd),
            (2644, 0xf2f82ba4d3bd2ae1, 0x40af19d59aed906c),
        ],
    ),
];

const PINNED_WORDS: [Cut; 4] = [
    (
        55,
        [
            (2122, 0x15c7b194d285e829, 0x6104e33eed103a6d),
            (126, 0x5501a95fc46460f0, 0x31dd2473a1e50f94),
        ],
    ),
    (
        400,
        [
            (2130, 0xcd0fa7367327a1f6, 0xe3212ba06d9604f0),
            (120, 0x97bbbb98e9ef3b1e, 0xac49bf8fd19fcabd),
        ],
    ),
    (
        1501,
        [
            (2120, 0x4f05477350bc1692, 0x755a494b3978cfb2),
            (125, 0x3863628fbc12692e, 0x3a676947295a5755),
        ],
    ),
    (
        4006,
        [
            (2146, 0x8159479b69394f2c, 0x9ecd65a7123fc7fa),
            (121, 0x927fd68578f89641, 0x2c71d094e082b394),
        ],
    ),
];

/// A model seen through the required `DomainModel` and `Snapshot` methods
/// only (and `take_control_words`, which bills the channel): the wrapper
/// gets the provided lagger step — `verify_prediction`, then `tick` — and
/// the provided `_into` forms, and rolls back by full save / restore.
struct TwoCall<M>(M);

impl<M: DomainModel> DomainModel for TwoCall<M> {
    fn side(&self) -> Side {
        self.0.side()
    }

    fn cycle(&self) -> u64 {
        self.0.cycle()
    }

    fn local_width(&self) -> usize {
        self.0.local_width()
    }

    fn remote_width(&self) -> usize {
        self.0.remote_width()
    }

    fn local_outputs(&self) -> Vec<u32> {
        self.0.local_outputs()
    }

    fn needs_sync(&self) -> bool {
        self.0.needs_sync()
    }

    fn elect_leader(&self) -> Side {
        self.0.elect_leader()
    }

    fn predict_remote(&mut self) -> Vec<u32> {
        self.0.predict_remote()
    }

    fn tick(&mut self, remote: &[u32], kind: TickKind) {
        self.0.tick(remote, kind);
    }

    fn take_control_words(&mut self) -> u64 {
        self.0.take_control_words()
    }

    fn verify_prediction(&self, leader_outputs: &[u32], predicted_me: &[u32]) -> bool {
        self.0.verify_prediction(leader_outputs, predicted_me)
    }

    fn trace(&self) -> &Trace {
        self.0.trace()
    }

    fn trace_mut(&mut self) -> &mut Trace {
        self.0.trace_mut()
    }

    fn trace_mark(&self) -> TraceMark {
        self.0.trace_mark()
    }

    fn trace_truncate(&mut self, mark: TraceMark) {
        self.0.trace_truncate(mark);
    }
}

impl<M: Snapshot> Snapshot for TwoCall<M> {
    fn save(&self, w: &mut StateWriter<'_>) {
        self.0.save(w);
    }

    fn restore(&mut self, r: &mut StateReader<'_>) -> Result<(), SnapshotError> {
        self.0.restore(r)
    }
}

/// What one leg of a run commits and counts by its end, and both models'
/// saved words at every cut it was halted at.
#[derive(PartialEq)]
struct Leg {
    trace_hash: u64,
    channel: predpkt_channel::ChannelStats,
    ledger: predpkt_sim::TimeLedger,
    rollbacks: [u64; 2],
    failed_predictions: [u64; 2],
    cuts: Vec<(u64, [StateVec; 2])>,
}

/// Runs `coemu` on to `end`, halting at the first transition boundary
/// every 37 cycles to save both models.
fn leg<M: DomainModel>(coemu: &mut CoEmulator<M>, end: u64, blueprint: &SocBlueprint) -> Leg {
    let mut cuts = Vec::new();
    while coemu.committed_cycles() < end {
        coemu
            .run_until_synchronized(coemu.committed_cycles() + 37)
            .expect("run reaches the cut");
        let saved = [
            save_to_vec(coemu.sim_model()),
            save_to_vec(coemu.acc_model()),
        ];
        cuts.push((coemu.committed_cycles(), saved));
    }
    let placement = blueprint.placement();
    let mut trace = coemu.merged_trace(|s, a| placement.merge_records(s, a));
    trace.truncate_to_len(end as usize);
    let (sim, acc) = (coemu.sim_stats(), coemu.acc_stats());
    Leg {
        trace_hash: trace.hash(),
        channel: coemu.channel_stats().clone(),
        ledger: coemu.ledger().clone(),
        rollbacks: [sim.rollbacks, acc.rollbacks],
        failed_predictions: [sim.failed_predictions, acc.failed_predictions],
        cuts,
    }
}

/// Where the cut in [`cut_and_restore`] is taken, and where its runs end.
const CUT: u64 = 1_000;
const END: u64 = 3_000;

/// `coemu` run to [`CUT`] and on to [`END`], then `fresh` restored from its
/// cut at `CUT` and run to `END`: the three legs.
fn cut_and_restore<M: DomainModel>(
    mut coemu: CoEmulator<M>,
    mut fresh: CoEmulator<M>,
    blueprint: &SocBlueprint,
) -> [Leg; 3] {
    let before = leg(&mut coemu, CUT, blueprint);
    let ckpt = coemu.checkpoint().expect("checkpoint at a boundary");
    let after = leg(&mut coemu, END, blueprint);
    fresh.restore(&ckpt).expect("the cut restores");
    let restored = leg(&mut fresh, END, blueprint);
    [before, after, restored]
}

/// The lagger's fused step and the proxies' cached words against the slow
/// path, on Fig. 2 under the paper suite and on the mesh under
/// `AdaptiveSuite`. Each SoC runs directly and through [`TwoCall`], cut at
/// [`CUT`] and restored into a fresh session of its kind. Every run commits
/// the golden trace; the restored run agrees with the straight one, and the
/// direct and the decorated run agree with each other, on channel
/// statistics, ledger, rollbacks, failed predictions and both models' saved
/// words at a cut every 37 cycles — many of them just after a rollback's
/// rewind, some just after the restore. A fused step that skipped the
/// projection, or a word cache a rewind or a restore left stale, diverges.
#[test]
fn the_fused_lagger_step_matches_the_two_call_path() {
    let socs: [(&str, SocBlueprint, &dyn PredictorSuite); 2] = [
        ("fig. 2", figure2_soc(), &PaperSuite),
        ("mesh, adaptive", mesh_soc(), &AdaptiveSuite::default()),
    ];
    for (soc, blueprint, suite) in socs {
        let mut golden = blueprint.build_golden().expect("golden bus builds");
        golden.run(END);
        let mut golden_at_cut = golden.trace().clone();
        golden_at_cut.truncate_to_len(CUT as usize);
        let golden = [
            golden_at_cut.hash(),
            golden.trace().hash(),
            golden.trace().hash(),
        ];

        let pair = || blueprint.build_pair_with(suite).expect("pair builds");
        let direct = || {
            let (sim, acc) = pair();
            CoEmulator::new(sim, acc, bench_config())
        };
        let two_call = || {
            let (sim, acc) = pair();
            CoEmulator::new(TwoCall(sim), TwoCall(acc), bench_config())
        };
        let direct = cut_and_restore(direct(), direct(), &blueprint);
        let two_call = cut_and_restore(two_call(), two_call(), &blueprint);
        let rollbacks = direct[1].rollbacks.iter().sum::<u64>();
        assert!(rollbacks > 10, "{soc}: {rollbacks} rollbacks");
        for (path, legs) in [("direct", &direct), ("two-call", &two_call)] {
            let hashes: Vec<u64> = legs.iter().map(|leg| leg.trace_hash).collect();
            assert_eq!(hashes, golden, "{soc}, {path}: the golden trace");
            assert!(
                legs[2] == legs[1],
                "{soc}, {path}: the restored run differs"
            );
        }
        for (n, (d, t)) in direct.iter().zip(&two_call).enumerate() {
            let first_cut = d.cuts.iter().zip(&t.cuts).position(|(d, t)| d != t);
            assert_eq!(
                first_cut, None,
                "{soc}, leg {n}: saved words differ at that cut"
            );
            assert!(
                d == t,
                "{soc}, leg {n}: the fused and the two-call run differ"
            );
        }
    }
}
