//! The metric vocabulary: every name the benchmark emits, with its unit, the
//! direction that is better and — end to end — the share by which it may
//! worsen before a change counts as a regression. `BENCHMARK.json` is
//! generated from these tables (`--print-benchmark-json`) and a test keeps
//! the committed file equal to them.

use crate::workloads::WORKLOADS;
use std::fmt::Write as _;
use Better::{Higher, Lower};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub bound: f64,
}

/// Seconds one run measures for (`run_seconds` of `BENCHMARK.json`).
pub const RUN_SECONDS: u64 = 15;

/// The metrics a user of the system would see, on every workload. Host times
/// are in reference seconds (see `reference`); even so the reference box's
/// host moves them by several percent between runs, so they get the widest
/// bound the contract allows. The model-time ones repeat exactly for one
/// seed; their bound covers how far the median over ten seeds moves with the
/// choice of seeds.
pub const END_TO_END: [EndToEnd; 8] = [
    EndToEnd {
        name: "host_kcps",
        unit: "kcycles/s",
        better: Better::Higher,
        bound: 0.25,
    },
    EndToEnd {
        name: "model_kcps",
        unit: "kcycles/vs",
        better: Better::Higher,
        bound: 0.15,
    },
    EndToEnd {
        name: "channel_words_per_kcycle",
        unit: "words",
        better: Better::Lower,
        bound: 0.15,
    },
    EndToEnd {
        name: "channel_accesses_per_kcycle",
        unit: "accesses",
        better: Better::Lower,
        bound: 0.15,
    },
    EndToEnd {
        name: "sessions_per_s",
        unit: "sessions/s",
        better: Better::Higher,
        bound: 0.25,
    },
    EndToEnd {
        name: "session_p50_ms",
        unit: "ms",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "session_p90_ms",
        unit: "ms",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
];

#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Layer {
    pub name: String,
    pub unit: &'static str,
    pub better: Better,
}

/// Backends the recorded packet stream is replayed through.
pub const REPLAY_BACKENDS: [&str; 5] = ["queue", "threaded", "shm", "tcp", "reliable-shm"];

const LAYERS: [(&str, &str, Better); 64] = [
    ("ahb.tick_ns_per_cycle", "ns", Lower),
    ("ahb.outputs_ns_per_cycle", "ns", Lower),
    ("ahb.verify_ns_per_cycle", "ns", Lower),
    ("ahb.ticks_per_cycle", "count", Lower),
    ("ahb.golden_kcps", "kcycles/s", Higher),
    ("predict.predict_ns_per_cycle", "ns", Lower),
    ("predict.train_ns_per_cycle", "ns", Lower),
    ("predict.hit_rate", "ratio", Higher),
    ("predict.control_words_per_kcycle", "words", Lower),
    ("predict.adaptive_vs_paper_wall_x", "x", Lower),
    ("predict.delta_encode_ns_per_word", "ns", Lower),
    ("predict.delta_decode_ns_per_word", "ns", Lower),
    ("sim.snapshot_save_ns_per_cycle", "ns", Lower),
    ("sim.snapshot_restore_ns_per_cycle", "ns", Lower),
    ("sim.snapshot_saves_per_kcycle", "count", Lower),
    ("sim.snapshot_restores_per_kcycle", "count", Lower),
    ("sim.snapshot_words", "words", Lower),
    ("sim.trace_truncate_ns_per_cycle", "ns", Lower),
    ("core.self_ns_per_cycle", "ns", Lower),
    ("core.transitions_per_kcycle", "count", Lower),
    ("core.rollbacks_per_kcycle", "count", Lower),
    ("core.replayed_cycles_per_kcycle", "count", Lower),
    ("core.predicted_cycles_per_kcycle", "count", Higher),
    ("core.conservative_cycles_per_kcycle", "count", Lower),
    ("core.flushes_per_kcycle", "count", Lower),
    ("core.useful_tick_ratio", "ratio", Higher),
    ("core.window_ns_per_cycle_first", "ns", Lower),
    ("core.window_ns_per_cycle_last", "ns", Lower),
    ("core.window_growth_x", "x", Lower),
    ("core.checkpoint_capture_us", "us", Lower),
    ("core.checkpoint_encode_us", "us", Lower),
    ("core.checkpoint_decode_us", "us", Lower),
    ("core.checkpoint_restore_us", "us", Lower),
    ("core.checkpoint_blob_bytes", "bytes", Lower),
    ("core.resume_from_us", "us", Lower),
    ("channel.codec_encode_ns_per_frame", "ns", Lower),
    ("channel.codec_decode_ns_per_frame", "ns", Lower),
    ("channel.packets_per_kcycle", "count", Lower),
    ("channel.words_per_packet", "words", Higher),
    ("channel.frames_per_write", "count", Higher),
    ("channel.pool_hit_rate", "ratio", Higher),
    ("farm.pool_occupancy", "ratio", Higher),
    ("farm.parked_events_per_session", "count", Lower),
    ("farm.direct_service_ms", "ms", Lower),
    ("farm.overhead_x", "x", Lower),
    ("farm.scaling_x", "x", Higher),
    ("farm.submit_us", "us", Lower),
    ("farm.generator_lag_ms_max", "ms", Lower),
    ("farm.session_p99_ms", "ms", Lower),
    ("farm.completed", "count", Higher),
    ("farm.failed", "count", Lower),
    ("perfmodel.analytic_err_pct", "%", Lower),
    ("paper_perf_err_pct", "%", Lower),
    ("workloads.blueprint_build_us", "us", Lower),
    ("proc.peak_rss_mb", "MB", Lower),
    ("proc.cpu_s_per_wall_s", "ratio", Higher),
    ("proc.voluntary_ctx_switches_per_kcycle", "count", Lower),
    ("trace.overhead_pct", "%", Lower),
    ("trace.attributed_share", "ratio", Higher),
    ("run.session_ms_p50", "ms", Lower),
    ("run.session_ms_top", "ms", Lower),
    ("run.session_top_pct", "%", Higher),
    ("run.session_samples", "count", Higher),
    ("run.host_slowdown_x", "x", Lower),
];

const PER_BACKEND: [&str; 4] = [
    "send_ns_per_packet",
    "recv_wait_ns_per_packet",
    "replay_ns_per_cycle",
    "pingpong_rtt_ns",
];

/// Every per-layer metric: the fixed ones, then four per replay backend.
pub fn per_layer() -> Vec<Layer> {
    let fixed = LAYERS.iter().map(|&(name, unit, better)| Layer {
        name: name.to_string(),
        unit,
        better,
    });
    let per_backend = REPLAY_BACKENDS.iter().flat_map(|backend| {
        PER_BACKEND.iter().map(move |what| Layer {
            name: format!("channel.{backend}.{what}"),
            unit: "ns",
            better: Lower,
        })
    });
    fixed.chain(per_backend).collect()
}

/// The unit a metric is reported in; `None` for a name nobody declared.
pub fn unit_of(name: &str) -> Option<&'static str> {
    END_TO_END
        .iter()
        .find(|m| m.name == name)
        .map(|m| m.unit)
        .or_else(|| {
            per_layer()
                .into_iter()
                .find(|m| m.name == name)
                .map(|m| m.unit)
        })
}

/// The contents of `BENCHMARK.json`.
pub fn benchmark_json() -> String {
    let mut out = String::from("{\n");
    out.push_str(
        "  \"command\": [\"cargo\", \"run\", \"--release\", \"--quiet\", \"--offline\", \
         \"--manifest-path\", \"benchmark/Cargo.toml\", \"--\"],\n",
    );
    out.push_str("  \"paths\": [\"benchmark\"],\n");
    let _ = writeln!(out, "  \"run_seconds\": {RUN_SECONDS},");
    out.push_str("  \"workloads\": [\n");
    for (i, w) in WORKLOADS.iter().enumerate() {
        let comma = if i + 1 < WORKLOADS.len() { "," } else { "" };
        let _ = writeln!(
            out,
            "    {{\"name\": \"{}\", \"why\": \"{}\"}}{comma}",
            w.name, w.why
        );
    }
    out.push_str("  ],\n  \"end_to_end\": [\n");
    for (i, m) in END_TO_END.iter().enumerate() {
        let comma = if i + 1 < END_TO_END.len() { "," } else { "" };
        let _ = writeln!(
            out,
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}{comma}",
            m.name,
            m.unit,
            m.better.as_str(),
            m.bound
        );
    }
    out.push_str("  ],\n  \"per_layer\": [\n");
    let layers = per_layer();
    for (i, m) in layers.iter().enumerate() {
        let comma = if i + 1 < layers.len() { "," } else { "" };
        let _ = writeln!(
            out,
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}{comma}",
            m.name,
            m.unit,
            m.better.as_str()
        );
    }
    out.push_str("  ]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::valid_name;
    use std::collections::BTreeSet;

    fn valid_unit(unit: &str) -> bool {
        !unit.is_empty()
            && unit.len() <= 16
            && unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
    }

    #[test]
    fn every_emitted_name_and_unit_fits_the_contract() {
        let mut names = BTreeSet::new();
        for m in END_TO_END {
            assert!(valid_name(m.name), "{}", m.name);
            assert!(valid_unit(m.unit), "{}", m.unit);
            assert!(m.bound >= 0.0 && m.bound <= 0.25, "{}", m.name);
            assert!(names.insert(m.name.to_string()), "{} twice", m.name);
        }
        let layers = per_layer();
        assert!((1..=128).contains(&layers.len()), "{} layers", layers.len());
        for m in &layers {
            assert!(valid_name(&m.name), "{}", m.name);
            assert!(valid_unit(m.unit), "{}", m.unit);
            assert!(names.insert(m.name.clone()), "{} twice", m.name);
        }
        for w in WORKLOADS {
            assert!(names.insert(w.name.to_string()), "{} twice", w.name);
        }
    }

    #[test]
    fn setup_time_is_an_end_to_end_metric_with_the_largest_bound() {
        let setup = END_TO_END
            .iter()
            .find(|m| m.name == "setup_s")
            .expect("setup_s declared");
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound));
    }

    #[test]
    fn committed_benchmark_json_matches_the_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let committed = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        assert_eq!(
            committed,
            benchmark_json(),
            "regenerate with --print-benchmark-json"
        );
        assert!(committed.len() <= 64 * 1024);
    }

    #[test]
    fn units_resolve_for_declared_names_only() {
        assert_eq!(unit_of("host_kcps"), Some("kcycles/s"));
        assert_eq!(unit_of("channel.reliable-shm.pingpong_rtt_ns"), Some("ns"));
        assert_eq!(unit_of("no.such.metric"), None);
    }
}
