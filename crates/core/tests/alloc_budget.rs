//! The allocation budget of a committed cycle, pinned.
//!
//! The paper's argument is that per-access start-up overhead, not payload, is
//! what a co-emulated cycle pays for; the host pays the same kind of overhead
//! once per heap allocation. The wrapper ↔ model path (`ChannelWrapper::step`
//! → `DomainModel` → `Trace` → `Message` / delta codec → `Packet`) keeps every
//! buffer it needs across cycles, so after warm-up a committed cycle allocates
//! (almost) nothing: what is left is amortised growth of the traces and the
//! bus components' own transfer bookkeeping. The synthetic pair has no bus
//! components and its traces grow into recycled buffers, so its rows are
//! pinned at exactly zero — over the queue, and over loopback TCP and the
//! shm ring, whose endpoints decode each received frame into the payload of
//! a packet they sent.
//!
//! This file is a test target of its own with a single `#[test]`, so its
//! `#[global_allocator]` counts nothing else. When the assertion trips, a
//! site on the per-cycle path allocates again: run the test with
//! `-- --nocapture` for the measured counts, then bisect with a breakpoint on
//! `CountingAlloc::alloc` inside the measured window.

use predpkt_core::{CoEmuConfig, EmuSession, ModePolicy, ShmOptions, TcpOptions, TransportSelect};
use predpkt_predict::AdaptiveSuite;
use predpkt_workloads::{figure2_soc, mesh_hotspot_soc, MeshConfig, SyntheticSoc};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

/// Counts every allocation and reallocation the process makes.
struct CountingAlloc;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

// SAFETY: pure delegation — every method forwards its arguments unchanged to
// `System`, which upholds the `GlobalAlloc` contract; the only addition is a
// relaxed counter increment, which neither allocates nor touches the blocks.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller's `layout` is passed through as received.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` and `layout` are the caller's, from `alloc`/`realloc` above.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller's `layout` is passed through as received.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: `ptr`, `layout` and `new_size` are passed through as received.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

const WARM_UP: u64 = 1_000;
const MEASURED: u64 = 5_000;

/// Allocations per committed cycle over `MEASURED` cycles after `WARM_UP`.
fn allocations_per_cycle<M: predpkt_core::DomainModel + Send + 'static>(
    name: &str,
    mut session: EmuSession<M>,
) -> f64 {
    session.run_until_committed(WARM_UP).expect("warm-up runs");
    let from_cycle = session.committed_cycles();
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    session
        .run_until_committed(from_cycle + MEASURED)
        .expect("measured window runs");
    let allocations = ALLOCATIONS.load(Ordering::Relaxed) - before;
    let cycles = session.committed_cycles() - from_cycle;
    let per_cycle = allocations as f64 / cycles as f64;
    println!("{name}: {allocations} allocations over {cycles} committed cycles = {per_cycle:.3} per cycle");
    per_cycle
}

#[test]
fn a_committed_cycle_stays_within_the_allocation_budget() {
    // What `benchmark/` runs as `soc-queue`: Fig. 2 SoC, leader elected per
    // transition, real snapshot sizes, head-actuals carry, adaptive depth.
    let bench_config = CoEmuConfig::paper_defaults()
        .policy(ModePolicy::Auto)
        .rollback_vars(None)
        .carry(true)
        .adaptive(true);
    let soc = EmuSession::from_blueprint(&figure2_soc(7))
        .config(bench_config)
        .transport(TransportSelect::Queue)
        .build()
        .expect("the Fig. 2 session builds");
    let soc = allocations_per_cycle("figure2_soc / queue / bench config", soc);

    // What `benchmark/` runs as `mesh-adaptive-queue`: the hotspot mesh under
    // the adaptive suite, which scores three candidates per remote component
    // every cycle and rolls their context tables back by journal.
    let mesh = EmuSession::from_blueprint(&mesh_hotspot_soc(MeshConfig {
        seed: 7,
        ..MeshConfig::default()
    }))
    .config(bench_config)
    .predictors(AdaptiveSuite::default())
    .transport(TransportSelect::Queue)
    .build()
    .expect("the mesh session builds");
    let mesh = allocations_per_cycle("mesh_hotspot_soc / queue / adaptive / bench config", mesh);

    // What `benchmark/` runs as `synth-p60-queue`: Table 2's configuration,
    // forced ALS at the fixed LOB depth, prediction accuracy 0.6 — most of a
    // burst is discarded and the in-flight entries are replayed.
    let paper_config = CoEmuConfig::paper_defaults().policy(ModePolicy::ForcedAls);
    let synth = SyntheticSoc::als(0.6, 7)
        .session()
        .config(paper_config)
        .transport(TransportSelect::Queue)
        .build()
        .expect("the synthetic session builds");
    let synth = allocations_per_cycle("SyntheticSoc::als(0.6) / queue / paper config", synth);

    // What `benchmark/` runs as `synth-p100-queue`: the paper's ideal case,
    // every burst verified in full and no rollback.
    let ideal = SyntheticSoc::als(1.0, 7)
        .session()
        .config(paper_config)
        .transport(TransportSelect::Queue)
        .build()
        .expect("the synthetic session builds");
    let ideal = allocations_per_cycle("SyntheticSoc::als(1.0) / queue / paper config", ideal);

    // The per-side backends the farm runs: the same pair at p = 0.6 over
    // loopback TCP and over the shm ring, and Fig. 2 over TCP. Each
    // endpoint decodes into the payloads of the packets it last sent.
    let tcp = || TransportSelect::Tcp(TcpOptions::default());
    let shm = || TransportSelect::Shm(ShmOptions::default());
    let per_side = |transport: TransportSelect| {
        SyntheticSoc::als(0.6, 7)
            .session()
            .config(paper_config)
            .transport(transport)
            .build()
            .expect("the synthetic session builds")
    };
    let synth_tcp = allocations_per_cycle(
        "SyntheticSoc::als(0.6) / tcp / paper config",
        per_side(tcp()),
    );
    let synth_shm = allocations_per_cycle(
        "SyntheticSoc::als(0.6) / shm / paper config",
        per_side(shm()),
    );
    let soc_tcp = EmuSession::from_blueprint(&figure2_soc(7))
        .config(bench_config)
        .transport(tcp())
        .build()
        .expect("the Fig. 2 session builds");
    let soc_tcp = allocations_per_cycle("figure2_soc / tcp / bench config", soc_tcp);

    assert!(soc <= 1.0, "figure2_soc: {soc:.3} allocations per cycle");
    assert!(
        mesh <= 1.0,
        "mesh_hotspot_soc: {mesh:.3} allocations per cycle"
    );
    // The synthetic model allocates nothing of its own, every buffer of the
    // run-ahead, the flush, the lagger's decode and the rollback is reused,
    // and the traces grow into the buffers the sessions above left to this
    // thread (`predpkt_sim::Trace`): not one allocation in the window.
    assert_eq!(synth, 0.0, "synthetic p=0.6: allocations per cycle");
    assert_eq!(ideal, 0.0, "synthetic p=1.0: allocations per cycle");
    assert_eq!(
        synth_tcp, 0.0,
        "synthetic p=0.6 over tcp: allocations per cycle"
    );
    assert_eq!(
        synth_shm, 0.0,
        "synthetic p=0.6 over shm: allocations per cycle"
    );
    assert!(
        soc_tcp <= 1.0,
        "figure2_soc over tcp: {soc_tcp:.3} allocations per cycle"
    );
}
