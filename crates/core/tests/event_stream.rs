//! The observer's event stream, pinned in order.
//!
//! Every model-time figure can stay bit-equal while the events that explain
//! them arrive in another order: a transition start after its burst's send,
//! a flush after the report it waits for. Each run below records an
//! [`EventLog`] over 2 000 committed cycles and pins its length and an
//! FNV-1a hash of the events in arrival order, for the Fig. 2 SoC under the
//! benchmark's configuration and for the synthetic pair at p = 0.6 under the
//! paper's. Each runs once through [`EmuSession::run_until_committed`], which
//! steps a domain until it blocks, and once through
//! [`CoEmulator::run_until_committed`], which steps each domain once per
//! round.

use predpkt_core::{CoEmuConfig, CoEmulator, EmuSession, EventLog, ModePolicy, TransportSelect};
use predpkt_workloads::{figure2_soc, SyntheticSoc};

const CYCLES: u64 = 2_000;

/// What `benchmark/` runs as `soc-queue`.
fn bench_config() -> CoEmuConfig {
    CoEmuConfig::paper_defaults()
        .policy(ModePolicy::Auto)
        .rollback_vars(None)
        .carry(true)
        .adaptive(true)
}

/// What `benchmark/` runs as `synth-p60-queue`.
fn paper_config() -> CoEmuConfig {
    CoEmuConfig::paper_defaults().policy(ModePolicy::ForcedAls)
}

/// The log's length and an FNV-1a-64 hash of its events' debug form, one
/// `side event` line each.
fn fingerprint(log: &EventLog) -> (usize, u64) {
    let mut hash = 0xcbf2_9ce4_8422_2325_u64;
    let events = log.events();
    for (side, event) in &events {
        for byte in format!("{side:?} {event:?}\n").bytes() {
            hash = (hash ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    (events.len(), hash)
}

#[test]
fn a_session_emits_its_events_in_a_pinned_order() {
    let log = EventLog::new();
    EmuSession::from_blueprint(&figure2_soc(7))
        .config(bench_config())
        .transport(TransportSelect::Queue)
        .observer(Box::new(log.clone()))
        .build()
        .expect("the Fig. 2 session builds")
        .run_until_committed(CYCLES)
        .expect("the Fig. 2 session runs");
    assert_eq!(
        fingerprint(&log),
        (2_718, 6_915_403_362_729_581_639),
        "figure2_soc / bench config"
    );

    let log = EventLog::new();
    SyntheticSoc::als(0.6, 7)
        .session()
        .config(paper_config())
        .transport(TransportSelect::Queue)
        .observer(Box::new(log.clone()))
        .build()
        .expect("the synthetic session builds")
        .run_until_committed(CYCLES)
        .expect("the synthetic session runs");
    assert_eq!(
        fingerprint(&log),
        (4_756, 10_357_089_596_884_061_686),
        "SyntheticSoc::als(0.6) / paper config"
    );
}

#[test]
fn a_coemulator_stepping_once_per_round_emits_its_events_in_a_pinned_order() {
    let log = EventLog::new();
    CoEmulator::from_blueprint(&figure2_soc(7), bench_config())
        .expect("the Fig. 2 co-emulator builds")
        .with_observer(Box::new(log.clone()))
        .run_until_committed(CYCLES)
        .expect("the Fig. 2 co-emulator runs");
    assert_eq!(
        fingerprint(&log),
        (2_717, 4_781_196_179_258_123_891),
        "figure2_soc / bench config"
    );

    let log = EventLog::new();
    let (sim, acc) = SyntheticSoc::als(0.6, 7).build();
    CoEmulator::new(sim, acc, paper_config())
        .with_observer(Box::new(log.clone()))
        .run_until_committed(CYCLES)
        .expect("the synthetic co-emulator runs");
    assert_eq!(
        fingerprint(&log),
        (4_756, 7_308_149_415_920_696_638),
        "SyntheticSoc::als(0.6) / paper config"
    );
}
