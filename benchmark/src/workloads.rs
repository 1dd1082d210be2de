//! The seven workloads: what each runs and why it exists.
//!
//! The seed is a command-line argument; the library only ever sees the
//! blueprints and configurations generated from it here. One run covers
//! several *variants* of a workload — blueprints from sub-seeds of the run's
//! seed — because one small SoC script decides how predictable the traffic
//! is, and a single draw would make the model-time metrics swing with the
//! seed instead of with the code (mesh: ±20 % from one seed to the next).

use predpkt_core::{
    AhbDomainModel, CoEmuConfig, DomainModel, ModePolicy, ShmOptions, SocBlueprint, TcpOptions,
    ThreadedOpts, TransportSelect,
};
use predpkt_predict::{AdaptiveSuite, PaperSuite, PredictorSuite};
use predpkt_sim::splitmix64_mix;
use predpkt_workloads::{figure2_soc, mesh_hotspot_soc, MeshConfig, SyntheticModel, SyntheticSoc};
use std::time::{Duration, Instant};

use crate::timed::TimedSuite;

/// Committed cycles per rep of the three `soc-*` workloads (kept equal so
/// they commit bit-identically) and of the mesh. The issue sized these at
/// 50 000; `soc-shm` needs 2.3 s for that, and a run must fit many reps into
/// its `--seconds`.
pub const SOC_CYCLES: u64 = 10_000;
pub const SOC_VARIANTS: u64 = 8;
pub const MESH_VARIANTS: u64 = 64;
/// Sessions of the farm workload: short, so scheduling shows.
pub const FARM_SESSION_CYCLES: u64 = 400;
/// Distinct blueprints the farm's sessions rotate through.
pub const FARM_VARIANTS: u64 = 16;

/// Transport of a `soc-*` workload or a farm session.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Backend {
    Queue,
    Shm,
    Tcp,
}

impl Backend {
    /// Whether a session over this backend keeps its (one, pinned) CPU busy.
    /// Over the queue it computes; over tcp its two threads hand the CPU to
    /// each other through the kernel. Over shm it spends its time in the
    /// ring's timed park slices, which no host slowdown stretches — so its
    /// host times are not converted to reference seconds.
    pub fn keeps_cpu_busy(self) -> bool {
        self != Backend::Shm
    }

    pub fn select(self) -> TransportSelect {
        match self {
            Backend::Queue => TransportSelect::Queue,
            Backend::Shm => TransportSelect::Shm(ShmOptions::default().threaded(bench_opts())),
            Backend::Tcp => TransportSelect::Tcp(TcpOptions::default().threaded(bench_opts())),
        }
    }
}

/// Fine-grained polling, so a blocked domain's wake-up does not dominate.
fn bench_opts() -> ThreadedOpts {
    ThreadedOpts {
        poll_interval: Duration::from_micros(200),
        deadlock_timeout: Duration::from_secs(10),
    }
}

/// The configuration the AHB workloads run: leader elected per transition,
/// real snapshot sizes billed, head-actuals carry and adaptive depth on.
pub fn bench_config() -> CoEmuConfig {
    CoEmuConfig::paper_defaults()
        .policy(ModePolicy::Auto)
        .rollback_vars(None)
        .carry(true)
        .adaptive(true)
}

/// Table 2's configuration: forced ALS at the fixed LOB depth.
pub fn paper_config() -> CoEmuConfig {
    CoEmuConfig::paper_defaults().policy(ModePolicy::ForcedAls)
}

#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Kind {
    Soc(Backend),
    Mesh,
    /// Controlled accuracy `p`, with the paper's Table 2 `Perform.` entry.
    Synth {
        p: f64,
        cycles: u64,
        variants: u64,
        paper_kcps: f64,
    },
    Farm,
}

#[derive(Debug, Clone, Copy)]
pub struct Spec {
    pub name: &'static str,
    pub why: &'static str,
    pub kind: Kind,
}

pub const WORKLOADS: [Spec; 7] = [
    Spec {
        name: "soc-queue",
        why: "Fig. 2 SoC on one thread over a VecDeque: ahb, predict, snapshot and the core wrapper do all the work",
        kind: Kind::Soc(Backend::Queue),
    },
    Spec {
        name: "soc-shm",
        why: "same session over the shm ring: wall is cross-thread hand-off and waiting on the SPSC ring, the AHB engine a small share",
        kind: Kind::Soc(Backend::Shm),
    },
    Spec {
        name: "soc-tcp",
        why: "same session over loopback TCP: frame codec, syscalls and write batching instead of spin and park",
        kind: Kind::Soc(Backend::Tcp),
    },
    Spec {
        name: "mesh-adaptive-queue",
        why: "hotspot mesh with the adaptive suite: the predictor layer does most of the work and mispredicts often; soc-queue bypasses both",
        kind: Kind::Mesh,
    },
    Spec {
        name: "synth-p100-queue",
        why: "paper's ideal case p=1.0: trivial model, no rollback, so LOB fill and flush, packetizer and wrapper bookkeeping are the whole cost",
        kind: Kind::Synth {
            p: 1.0,
            cycles: 100_000,
            variants: 1,
            paper_kcps: 652.0,
        },
    },
    Spec {
        name: "synth-p60-queue",
        why: "same layers as synth-p100-queue used the opposite way at p=0.6: restore, replay and discarded predicted cycles dominate",
        kind: Kind::Synth {
            p: 0.6,
            cycles: 10_000,
            variants: 4,
            paper_kcps: 76.7,
        },
    },
    Spec {
        name: "farm-mixed",
        why: "the server shape: 400-cycle sessions rotating queue, shm and tcp over 2 workers; closed batch for capacity, open loop at 25 sessions/s, a tenth of it, for latency",
        kind: Kind::Farm,
    },
];

pub fn find(name: &str) -> Option<&'static Spec> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// The seed of variant `index` of a run: distinct for every (seed, index).
pub fn variant_seed(seed: u64, index: u64) -> u64 {
    splitmix64_mix(seed, index)
}

/// What a session workload runs: how its inputs are generated from a seed
/// and how a pair of domain models is built from them.
pub trait Subject {
    type Model: DomainModel + Send + 'static;
    /// The generated inputs of one variant — all the library gets to see.
    type Inputs;

    fn generate(&self, variant_seed: u64) -> Self::Inputs;

    /// Simulator and accelerator models; with `timed_suite` the predictors
    /// record `predict.train` spans.
    fn models(&self, inputs: &Self::Inputs, timed_suite: bool) -> (Self::Model, Self::Model);

    fn config(&self) -> CoEmuConfig;

    /// Interleaves one cycle's two per-domain records into the layout the
    /// committed traces are hashed in.
    fn merge(&self, inputs: &Self::Inputs, sim: &[u64], acc: &[u64]) -> Vec<u64>;

    /// Hash of the monolithic golden bus over `cycles` cycles and the
    /// seconds that run took; `None` where there is no golden model.
    fn golden(&self, inputs: &Self::Inputs, cycles: u64) -> Option<(u64, f64)>;
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Suite {
    Paper,
    Adaptive,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Soc {
    Figure2,
    MeshHotspot,
}

/// A split AHB SoC from `predpkt-workloads`.
#[derive(Debug, Clone, Copy)]
pub struct AhbSubject {
    pub soc: Soc,
    pub suite: Suite,
}

impl Subject for AhbSubject {
    type Model = AhbDomainModel;
    type Inputs = SocBlueprint;

    fn generate(&self, variant_seed: u64) -> SocBlueprint {
        match self.soc {
            Soc::Figure2 => figure2_soc(variant_seed),
            Soc::MeshHotspot => mesh_hotspot_soc(MeshConfig {
                seed: variant_seed,
                ..MeshConfig::default()
            }),
        }
    }

    fn models(
        &self,
        blueprint: &SocBlueprint,
        timed_suite: bool,
    ) -> (AhbDomainModel, AhbDomainModel) {
        fn pair(
            blueprint: &SocBlueprint,
            suite: &dyn PredictorSuite,
        ) -> (AhbDomainModel, AhbDomainModel) {
            blueprint
                .build_pair_with(suite)
                .expect("generated blueprints have a valid address map")
        }
        match (self.suite, timed_suite) {
            (Suite::Paper, false) => pair(blueprint, &PaperSuite),
            (Suite::Paper, true) => pair(blueprint, &TimedSuite(PaperSuite)),
            (Suite::Adaptive, false) => pair(blueprint, &AdaptiveSuite::default()),
            (Suite::Adaptive, true) => pair(blueprint, &TimedSuite(AdaptiveSuite::default())),
        }
    }

    fn config(&self) -> CoEmuConfig {
        bench_config()
    }

    fn merge(&self, blueprint: &SocBlueprint, sim: &[u64], acc: &[u64]) -> Vec<u64> {
        blueprint.placement().merge_records(sim, acc)
    }

    fn golden(&self, blueprint: &SocBlueprint, cycles: u64) -> Option<(u64, f64)> {
        let mut bus = blueprint
            .build_golden()
            .expect("generated blueprints have a valid address map");
        let started = Instant::now();
        bus.run(cycles);
        let secs = started.elapsed().as_secs_f64();
        // A protocol violation on the golden bus means the workload itself
        // is broken; poison the hash so the gate trips.
        let hash = if bus.violations().is_empty() {
            bus.trace().hash()
        } else {
            !bus.trace().hash()
        };
        Some((hash, secs))
    }
}

/// The controlled-accuracy synthetic pair at accuracy `p`, ALS arrangement.
#[derive(Debug, Clone, Copy)]
pub struct SynthSubject {
    pub p: f64,
}

impl Subject for SynthSubject {
    type Model = SyntheticModel;
    type Inputs = SyntheticSoc;

    fn generate(&self, variant_seed: u64) -> SyntheticSoc {
        SyntheticSoc::als(self.p, variant_seed)
    }

    fn models(&self, soc: &SyntheticSoc, _timed_suite: bool) -> (SyntheticModel, SyntheticModel) {
        soc.build()
    }

    fn config(&self) -> CoEmuConfig {
        paper_config()
    }

    fn merge(&self, _soc: &SyntheticSoc, sim: &[u64], acc: &[u64]) -> Vec<u64> {
        [sim, acc].concat()
    }

    fn golden(&self, _soc: &SyntheticSoc, _cycles: u64) -> Option<(u64, f64)> {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::valid_name;

    #[test]
    fn workload_names_are_valid_and_unique() {
        let mut names: Vec<_> = WORKLOADS.iter().map(|w| w.name).collect();
        assert!(names.iter().all(|n| valid_name(n)));
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), WORKLOADS.len());
        assert!(WORKLOADS
            .iter()
            .all(|w| w.why.len() <= 200 && !w.why.contains('\n')));
    }

    #[test]
    fn variant_seeds_differ_across_seeds_and_indices() {
        let mut seen = std::collections::BTreeSet::new();
        for seed in 0..16 {
            for index in 0..SOC_VARIANTS {
                assert!(seen.insert(variant_seed(seed, index)));
            }
        }
    }
}
