//! Workspace-level integration: the umbrella crate's public API drives every
//! subsystem together — blueprints → co-emulation → reports → analytic model.

use predpkt::predict::{AdaptiveSuite, MarkovSuite};
use predpkt::prelude::*;
use predpkt::workloads::{
    dma_offload_soc, figure2_soc, irq_driven_soc, mesh_hotspot_soc, split_heavy_soc, stream_soc,
    MeshConfig,
};

fn golden_hash(blueprint: &SocBlueprint, cycles: u64) -> u64 {
    let mut bus = blueprint.build_golden().expect("golden builds");
    bus.run(cycles);
    assert!(bus.violations().is_empty(), "{:?}", bus.violations());
    bus.trace().hash()
}

fn coemu_hash(blueprint: &SocBlueprint, policy: ModePolicy, cycles: u64) -> (u64, PerfReport) {
    let config = CoEmuConfig::paper_defaults()
        .policy(policy)
        .rollback_vars(None)
        .carry(true)
        .adaptive(true);
    let mut coemu = CoEmulator::from_blueprint(blueprint, config).expect("pair builds");
    coemu.run_until_committed(cycles).expect("no deadlock");
    let placement = blueprint.placement();
    let mut merged = coemu.merged_trace(|s, a| placement.merge_records(s, a));
    merged.truncate_to_len(cycles as usize);
    (merged.hash(), coemu.report())
}

#[test]
fn every_scenario_is_equivalent_under_every_mode() {
    let scenarios: Vec<(&str, SocBlueprint)> = vec![
        ("figure2", figure2_soc(7)),
        ("dma_offload", dma_offload_soc(64)),
        ("irq_driven", irq_driven_soc(12)),
        ("split_heavy", split_heavy_soc(4, 3)),
        ("stream", stream_soc(3)),
    ];
    for (name, blueprint) in scenarios {
        let cycles = 400;
        let golden = golden_hash(&blueprint, cycles);
        for policy in [
            ModePolicy::Conservative,
            ModePolicy::ForcedAls,
            ModePolicy::ForcedSla,
            ModePolicy::Auto,
        ] {
            let (hash, _) = coemu_hash(&blueprint, policy, cycles);
            assert_eq!(hash, golden, "{name} under {policy:?} diverged from golden");
        }
    }
}

#[test]
fn optimistic_beats_conservative_on_every_scenario() {
    let scenarios: Vec<(&str, SocBlueprint)> = vec![
        ("figure2", figure2_soc(7)),
        ("dma_offload", dma_offload_soc(64)),
        ("irq_driven", irq_driven_soc(12)),
        ("stream", stream_soc(3)),
    ];
    for (name, blueprint) in scenarios {
        let (_, cons) = coemu_hash(&blueprint, ModePolicy::Conservative, 800);
        let (_, auto) = coemu_hash(&blueprint, ModePolicy::Auto, 800);
        assert!(
            auto.performance_cps() > cons.performance_cps(),
            "{name}: auto {} !> conservative {}",
            auto.performance_cps(),
            cons.performance_cps()
        );
        assert!(
            auto.accesses_per_cycle() < cons.accesses_per_cycle(),
            "{name}: channel traffic must shrink"
        );
    }
}

#[test]
fn prelude_covers_the_quickstart_path() {
    // The doc example, as a compiled test.
    let blueprint = figure2_soc(42);
    let config = CoEmuConfig::paper_defaults()
        .policy(ModePolicy::Auto)
        .rollback_vars(None);
    let mut coemu = CoEmulator::from_blueprint(&blueprint, config).unwrap();
    coemu.run_until_committed(500).unwrap();
    let report = coemu.report();
    assert!(report.accesses_per_cycle() < 2.0);
    assert!(report.committed_cycles() >= 500);
}

#[test]
fn analytic_model_is_reachable_from_prelude() {
    let config = CoEmuConfig::paper_defaults();
    let params = ModelParams::from_config(&config, Side::Accelerator);
    let row = AnalyticRow::at(&params, 1.0);
    assert!(row.ratio > 15.0);
}

#[test]
fn virtual_time_accounting_is_exact_integers() {
    // Two identical runs produce bit-identical ledgers (no float drift).
    let blueprint = figure2_soc(99);
    let run = || {
        let config = CoEmuConfig::paper_defaults()
            .policy(ModePolicy::Auto)
            .rollback_vars(None);
        let mut coemu = CoEmulator::from_blueprint(&blueprint, config).unwrap();
        coemu.run_until_committed(600).unwrap();
        (
            coemu.ledger().total(),
            coemu.channel_stats().total_words(),
            coemu.committed_cycles(),
        )
    };
    assert_eq!(run(), run(), "runs must be exactly reproducible");
}

/// The billed channel words of 600 committed cycles of the hotspot mesh over
/// the queue backend under `suite`.
fn mesh_words(suite: impl PredictorSuite + 'static) -> u64 {
    let config = CoEmuConfig::paper_defaults()
        .policy(ModePolicy::Auto)
        .rollback_vars(None);
    let mut session = EmuSession::from_blueprint(&mesh_hotspot_soc(MeshConfig::default()))
        .config(config)
        .predictors(suite)
        .build()
        .expect("session builds");
    session.run_until_committed(600).expect("run completes");
    session.channel_stats().total_words()
}

/// Where last-value prediction misses every request edge, the
/// sequence-learning suites pay for themselves: on the hotspot mesh the
/// Markov and adaptive suites each move strictly fewer billed words than
/// last-value. 600 cycles is about what the adaptive suite needs to have
/// switched to its Markov candidate.
#[test]
fn sequence_learning_suites_beat_last_value_on_the_hotspot_mesh() {
    let last_value = mesh_words(LastValueSuite);
    let markov = mesh_words(MarkovSuite);
    let adaptive = mesh_words(AdaptiveSuite::default());
    println!("hotspot mesh, 600 cycles: last-value {last_value}, markov {markov}, adaptive {adaptive} words");
    assert!(
        markov < last_value,
        "markov {markov} vs last-value {last_value}"
    );
    assert!(
        adaptive < last_value,
        "adaptive {adaptive} vs last-value {last_value}"
    );
}
