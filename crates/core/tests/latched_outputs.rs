//! `AhbDomainModel` evaluates each component once per cycle, and its snapshot
//! words are where they always were.
//!
//! The model latches its components' Moore outputs at the clock edge (see
//! "Latched outputs" in `ahb_model.rs`), so the LOB words, the trace record,
//! the lagger's prediction check and the tick itself read a slot. Two pins:
//! the number of `outputs()` dispatches a component sees across a run with
//! rollbacks, and the model's state-vector words at fixed cuts — the latched
//! values are derived state and must never reach a snapshot.

mod common;

use common::figure2_soc_seeded;
use predpkt_ahb::engine::BusOp;
use predpkt_ahb::masters::{CpuMaster, CpuProfile, TrafficGenMaster};
use predpkt_ahb::signals::{Hburst, Hsize, MasterSignals, MasterView, SlaveSignals, SlaveView};
use predpkt_ahb::slaves::MemorySlave;
use predpkt_ahb::{AhbMaster, AhbSlave};
use predpkt_core::{CoEmuConfig, CoEmulator, ModePolicy, Side, SocBlueprint};
use predpkt_sim::{save_to_vec, Snapshot, SnapshotError, StateReader, StateWriter};
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

/// The words both Fig. 2 domain models save at four cuts, pinned to what the
/// model wrote when it kept separate proxy vectors: a local slot saved as
/// anything but idle, a slot out of order or a latched value written out
/// fails here by cut and side, not as a drift in some blob's size.
#[test]
fn domain_model_snapshot_words_are_pinned() {
    let mut coemu = CoEmulator::from_blueprint(&figure2_soc_seeded(11), bench_config())
        .expect("session builds");
    let mut read = Vec::new();
    for cut in [50, 400, 1_500, 4_000] {
        coemu.run_until_committed(cut).expect("run reaches the cut");
        let words = |model| {
            let state = save_to_vec(model);
            (state.len(), hash_words(state.words()))
        };
        read.push((
            coemu.committed_cycles(),
            [words(coemu.sim_model()), words(coemu.acc_model())],
        ));
    }
    assert_eq!(read, PINNED_WORDS, "read {read:#x?}");
}

/// The committed cycles at a cut, and the simulator's and the accelerator's
/// `(words, hash)` there.
type Cut = (u64, [(usize, u64); 2]);

const PINNED_WORDS: [Cut; 4] = [
    (55, [(2122, 0x15c7b194d285e829), (126, 0x5501a95fc46460f0)]),
    (400, [(2130, 0xcd0fa7367327a1f6), (120, 0xbdc8651861dd7a47)]),
    (
        1501,
        [(2120, 0x4f05477350bc1692), (125, 0x3863628fbc12692e)],
    ),
    (
        4006,
        [(2146, 0x8159479b69394f2c), (121, 0x927fd68578f89641)],
    ),
];
