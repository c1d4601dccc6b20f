//! The four workloads: their topologies, engines and seeded inputs.
//!
//! All four run the paper tree (8 sources → 4 → 2 → root) over the
//! Figure 5(a) Gaussian mix split with `scenarios::split_interval`, and
//! answer SUM + COUNT + `Quantile(0.9)`. They differ in engine, strategy
//! and frame size so that each stresses a different set of layers.

use approxiot_core::{Batch, ColumnarBatch};
use approxiot_net::ImpairmentSpec;
use approxiot_runtime::{EngineKind, LayerSpec, QuerySet, QuerySpec, Strategy, Topology};
use approxiot_workload::scenarios;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Duration;

/// Sources of the paper tree.
pub const SOURCES: usize = 8;
/// The quantile every workload asks for.
pub const QUANTILE: f64 = 0.9;
/// Overall sampling fraction of the WHS workloads.
pub const FRACTION: f64 = 0.1;

/// Which engine path a workload drives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Path {
    /// `EngineKind::Sim`, closed loop.
    Sim,
    /// `EngineKind::pipeline_deterministic()`, closed loop.
    Replay,
    /// `EngineKind::pipeline()` (wall clock), open loop on a fixed schedule.
    Wall,
}

/// A workload's shape. Sizes are per pass: one pass builds a fresh
/// topology and driver and pushes the whole dataset through it.
#[derive(Debug, Clone)]
pub struct Spec {
    /// Workload name as given on the command line.
    pub name: &'static str,
    /// Engine path.
    pub path: Path,
    /// Sketch strata instead of WHS.
    pub sketch: bool,
    /// §III-E worker shards on the leaf layer.
    pub leaf_workers: usize,
    /// Frame loss on every hop.
    pub loss: f64,
    /// Items per pushed interval, summed over the sources.
    pub items_per_interval: usize,
    /// Distinct intervals generated. Sim and replay push each once per
    /// pass; wall_paced cycles through them.
    pub intervals: usize,
    /// Length of one pushed interval in event time.
    pub interval: Duration,
    /// Root window.
    pub window: Duration,
    /// The root's allowed lateness.
    pub lateness: Duration,
}

impl Spec {
    /// The named workload at full size, or `None` for an unknown name.
    pub fn named(name: &str) -> Option<Spec> {
        let sec = Duration::from_secs(1);
        let spec = match name {
            "sim_bulk" => Spec {
                name: "sim_bulk",
                path: Path::Sim,
                sketch: false,
                leaf_workers: 1,
                loss: 0.0,
                items_per_interval: 200_000,
                intervals: 5,
                interval: sec,
                window: sec,
                lateness: Duration::ZERO,
            },
            "replay_frames" => Spec {
                name: "replay_frames",
                path: Path::Replay,
                sketch: false,
                leaf_workers: 2,
                loss: 0.01,
                items_per_interval: 4_096,
                intervals: 100,
                interval: sec,
                window: sec,
                lateness: Duration::ZERO,
            },
            "wall_paced" => Spec {
                name: "wall_paced",
                path: Path::Wall,
                sketch: false,
                leaf_workers: 1,
                loss: 0.0,
                items_per_interval: 20_000,
                intervals: 20,
                interval: Duration::from_millis(10),
                window: Duration::from_millis(100),
                // Three windows: each buffering WHS layer holds input for
                // up to a window plus a poll, so with less the wall-clock
                // root closes windows before the last items of a window
                // arrive and drops them late (see BENCHMARK.json).
                lateness: Duration::from_millis(300),
            },
            "sim_sketch" => Spec {
                name: "sim_sketch",
                path: Path::Sim,
                sketch: true,
                leaf_workers: 1,
                loss: 0.0,
                items_per_interval: 16_000,
                intervals: 32,
                interval: sec,
                window: sec,
                lateness: Duration::ZERO,
            },
            _ => return None,
        };
        Some(spec)
    }

    /// The four workload names.
    pub fn names() -> [&'static str; 4] {
        ["sim_bulk", "replay_frames", "wall_paced", "sim_sketch"]
    }

    /// The same workload with intervals and items per interval scaled
    /// down by `divisor`, for the self-test.
    pub fn reduced(mut self, divisor: usize) -> Spec {
        self.intervals = (self.intervals / divisor).max(2);
        self.items_per_interval = (self.items_per_interval / divisor).max(64 * SOURCES);
        self
    }

    /// The engine this workload drives.
    pub fn engine(&self) -> EngineKind {
        match self.path {
            Path::Sim => EngineKind::Sim,
            Path::Replay => EngineKind::pipeline_deterministic(),
            Path::Wall => EngineKind::pipeline(),
        }
    }

    /// The paper tree for this workload, seeded with `seed`.
    pub fn topology(&self, seed: u64) -> Topology {
        let strategy = if self.sketch {
            Strategy::sketch()
        } else {
            Strategy::whs()
        };
        let mut builder = Topology::builder()
            .sources(SOURCES)
            .layer(LayerSpec::new(4).workers(self.leaf_workers))
            .layer(LayerSpec::new(2))
            .strategy(strategy)
            .overall_fraction(if self.sketch { 1.0 } else { FRACTION })
            .window(self.window)
            .allowed_lateness(self.lateness)
            .seed(seed);
        if self.loss > 0.0 {
            builder = builder.impair_all_hops(ImpairmentSpec::none().loss(self.loss));
        }
        builder.build().expect("the benchmark topologies are valid")
    }

    /// SUM + COUNT + `Quantile(0.9)`.
    pub fn queries(&self) -> QuerySet {
        QuerySet::new()
            .with(QuerySpec::Sum)
            .with(QuerySpec::Count)
            .with(QuerySpec::Quantile(QUANTILE))
    }
}

/// SplitMix64 finaliser: derives independent seeds from one run seed.
pub fn mix_seed(seed: u64, salt: u64) -> u64 {
    let mut z = seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The topology seed of pass `pass`: every pass samples independently,
/// so accuracy figures average over passes as well as windows.
pub fn pass_seed(seed: u64, pass: usize) -> u64 {
    mix_seed(seed, 0x7061_7373 + pass as u64)
}

/// Exact answers for one interval's items.
#[derive(Debug, Clone)]
pub struct Truth {
    /// Exact SUM.
    pub sum: f64,
    /// Exact COUNT.
    pub count: u64,
    /// Every item value, for exact quantiles.
    pub values: Vec<f64>,
}

/// A generated workload: per-interval source batches plus their truth.
#[derive(Debug)]
pub struct Dataset {
    /// `intervals[t][s]`: source `s`'s batch of interval `t`.
    pub intervals: Vec<Vec<Batch>>,
    /// Exact answers per interval.
    pub truths: Vec<Truth>,
}

impl Dataset {
    /// Generates `spec`'s inputs from `seed`: the same seed gives the same
    /// items.
    pub fn generate(spec: &Spec, seed: u64) -> Dataset {
        let mut rng = StdRng::seed_from_u64(mix_seed(seed, 0xDA7A));
        let rate = spec.items_per_interval as f64 / spec.interval.as_secs_f64();
        let mut mix = scenarios::gaussian_mix(rate, spec.interval);
        let mut intervals = Vec::with_capacity(spec.intervals);
        let mut truths = Vec::with_capacity(spec.intervals);
        for t in 0..spec.intervals {
            let batch = mix.next_interval(&mut rng);
            let split = scenarios::split_interval(batch, t as u64, spec.interval, SOURCES);
            let values: Vec<f64> = split
                .iter()
                .flat_map(|b| b.items.iter().map(|i| i.value))
                .collect();
            truths.push(Truth {
                sum: values.iter().sum(),
                count: values.len() as u64,
                values,
            });
            intervals.push(split);
        }
        Dataset { intervals, truths }
    }

    /// Source items in one pass.
    pub fn items(&self) -> u64 {
        self.truths.iter().map(|t| t.count).sum()
    }

    /// The same batches in the columnar layout the replica feeds to the
    /// node kernels.
    pub fn columnar(&self) -> Vec<Vec<ColumnarBatch>> {
        self.intervals
            .iter()
            .map(|interval| interval.iter().map(ColumnarBatch::from_batch).collect())
            .collect()
    }
}

/// The exact `q`-quantile under the root's convention: the smallest value
/// whose cumulative count reaches `q · n`.
pub fn exact_quantile(values: &mut [f64], q: f64) -> f64 {
    let n = values.len();
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n) - 1;
    let (_, value, _) = values.select_nth_unstable_by(rank, f64::total_cmp);
    *value
}
