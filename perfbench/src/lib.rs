//! The repository benchmark.
//!
//! One command generates a workload from a seed, runs it through the
//! `Driver` front door (`approxiot_runtime::engine`), checks the outputs
//! and prints every metric by name with its unit:
//!
//! ```text
//! cargo run --release --offline --quiet --manifest-path perfbench/Cargo.toml -- \
//!     --workload sim_bulk --seed 1 --seconds 20 --trace 0
//! ```
//!
//! Workloads (see [`workload::Spec::named`]): `sim_bulk`, `replay_frames`,
//! `wall_paced`, `sim_sketch`. The default seed is 1; claims are
//! confirmed on the held-out seed 2. The program only ever sees the
//! generated items; every pass derives its topology seed from the run
//! seed.
//!
//! `--trace 0` prints the end-to-end metrics ([`END_TO_END`]);
//! `--trace 1` prints the per-layer metrics ([`PER_LAYER`]). The last line
//! of standard output is one JSON object: `correct`, `attempted`,
//! `failed` (windows) and `metrics`. Any failure of the correctness gate
//! makes the process exit non-zero. An environment record (CPU count,
//! compiler, commit, seed, workload sizes, sample counts) and, for traced
//! runs, the spans of the first two passes (JSON lines) are written under
//! `perfbench/out/`.
//!
//! Each untraced run repeats passes (a fresh topology and `Driver`, the
//! whole dataset pushed, `finish`) until its time is up and reports
//! medians. Times of the closed-loop workloads (but not the tail of
//! result latency) and every `setup_s` are calibrated to a reference host
//! speed ([`calibrate`]); the raw throughput, setup time and median
//! latency and the calibration factor are in the environment record.
//! Closed-loop result latencies are taken per block of 200 windows and
//! reported as the median over blocks.
//! `peak_rss_mb` is the median peak of the first passes ([`closed`]).
//! `window_ok_frac` is the complement of the window failure fraction
//! (windows expected minus windows returned exactly once, correct and, on
//! wall_paced, within 500 ms, over windows expected). `rel_error_mean`
//! averages the per-window relative errors of SUM and `Quantile(0.9)`.
//!
//! Per-layer numbers on `sim_bulk`, `replay_frames` and `sim_sketch` come
//! from a traced single-threaded [`replica`] of the engine path, which
//! must reproduce the `Driver` run bit for bit on every pass or the run
//! fails. On `wall_paced` spans wrap only `Driver::push_interval`, `poll`
//! and result arrival, so its layer timings read 0 and are listed as
//! unmeasured in the environment record.
//!
//! What each per-layer metric should move:
//!
//! * `driver.*`: push cost and generator lag move `result_latency_p95_ms`
//!   on wall_paced; on replay_frames `finish_ms` holds all processing.
//! * `node.*`: busy time moves `items_per_s` on sim_bulk, barely on
//!   replay_frames; `l0.frames_out_per_in` (shard amplification) moves
//!   `items_per_s` and `wan_bytes_per_item` on replay_frames only.
//! * `summary.*`: `items_per_s` and `wan_bytes_per_item` on sim_sketch.
//! * `codec.*`, `broker.*`, `fault.*`: `items_per_s` on replay_frames;
//!   nothing on the sim workloads, which only bill encoded lengths
//!   (`codec.encode_ms` there is that billing).
//! * `root.*`: `answer_ms` moves `items_per_s` on sim_bulk and sim_sketch;
//!   `dropped_late` moves `window_ok_frac` on wall_paced.
//! * `trace.*`: tracing overhead (traced vs untraced replica) and the
//!   share of traced wall time attributed to layer self times;
//!   `replica.items_per_s` is the single-threaded baseline.
//! * `peak_rss_mb` on replay_frames should fall when replay stops
//!   buffering its whole input.

// The benchmark exists to read the wall clock; the repository's D1 lint
// (no wall-clock reads) guards the engines' replay determinism, not this.
#![allow(clippy::disallowed_methods)]

pub mod calibrate;
pub mod closed;
pub mod replica;
pub mod stats;
pub mod sysinfo;
pub mod trace;
pub mod wall;
pub mod workload;

use approxiot_bench::json::Json;
use std::collections::BTreeMap;
use trace::{compact, Tracer};
use workload::{Dataset, Path, Spec};

/// End-to-end metrics and their units, reported by every workload with
/// `--trace 0`.
pub const END_TO_END: [(&str, &str); 8] = [
    ("setup_s", "s"),
    ("items_per_s", "1/s"),
    ("result_latency_p50_ms", "ms"),
    ("result_latency_p95_ms", "ms"),
    ("window_ok_frac", "ratio"),
    ("rel_error_mean", "ratio"),
    ("wan_bytes_per_item", "B"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics and their units, reported by every workload with
/// `--trace 1`. A layer a workload does not exercise reads 0.
pub const PER_LAYER: [(&str, &str); 37] = [
    ("driver.push_ms_p50", "ms"),
    ("driver.push_ms_p95", "ms"),
    ("driver.finish_ms", "ms"),
    ("driver.gen_lag_p95_ms", "ms"),
    ("driver.poll_returned_frac", "ratio"),
    ("node.l0.busy_ms", "ms"),
    ("node.l1.busy_ms", "ms"),
    ("node.l0.items_in", "count"),
    ("node.l0.items_out", "count"),
    ("node.l1.items_in", "count"),
    ("node.l1.items_out", "count"),
    ("node.keep_ratio", "ratio"),
    ("node.l0.frames_out_per_in", "ratio"),
    ("summary.absorb_ms", "ms"),
    ("summary.take_ms", "ms"),
    ("summary.merge_ms", "ms"),
    ("summary.frame_bytes", "B"),
    ("codec.encode_ms", "ms"),
    ("codec.decode_ms", "ms"),
    ("codec.frames", "count"),
    ("codec.bytes", "B"),
    ("broker.send_ms", "ms"),
    ("broker.poll_ms", "ms"),
    ("broker.records", "count"),
    ("broker.empty_poll_frac", "ratio"),
    ("fault.transmit_ms", "ms"),
    ("fault.frames_in", "count"),
    ("fault.frames_dropped", "count"),
    ("fault.items_dropped", "count"),
    ("root.ingest_ms", "ms"),
    ("root.answer_ms", "ms"),
    ("root.items_in", "count"),
    ("root.windows", "count"),
    ("root.dropped_late", "count"),
    ("trace.overhead_frac", "ratio"),
    ("trace.attributed_frac", "ratio"),
    ("replica.items_per_s", "1/s"),
];

/// How long and how to measure.
#[derive(Debug, Clone)]
pub struct Options {
    /// Seconds of measurement (passes repeat until they are used up).
    pub seconds: f64,
    /// The traced run (per-layer metrics) instead of the untraced one.
    pub trace: bool,
}

/// Timed passes a run makes however short its `seconds` are.
pub const MIN_PASSES: usize = 3;

/// One named measurement.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Metric name.
    pub name: String,
    /// Value as measured.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

impl Metric {
    fn new(name: &str, value: f64, unit: &'static str) -> Metric {
        Metric {
            name: name.to_string(),
            value,
            unit,
        }
    }
}

/// The outcome of one benchmark run.
#[derive(Debug)]
pub struct Outcome {
    /// Windows expected over every pass.
    pub attempted: u64,
    /// Windows not returned exactly once and correct (and, on wall_paced,
    /// within the latency limit), plus push errors.
    pub failed: u64,
    /// Correctness-gate failures (empty when the gate passed).
    pub failures: Vec<String>,
    /// The measured metrics.
    pub metrics: Vec<Metric>,
    /// Sample counts and other context for the environment record.
    pub notes: BTreeMap<String, Json>,
    /// The spans of a traced run.
    pub tracer: Option<Tracer>,
}

impl Outcome {
    fn new(spec: &Spec, seed: u64, opts: &Options) -> Outcome {
        let mut notes = BTreeMap::new();
        notes.insert("workload".to_string(), Json::from(spec.name));
        notes.insert("seed".to_string(), Json::from(seed));
        notes.insert("seconds".to_string(), Json::from(opts.seconds));
        notes.insert("trace".to_string(), Json::from(opts.trace));
        Outcome {
            attempted: 0,
            failed: 0,
            failures: Vec::new(),
            metrics: Vec::new(),
            notes,
            tracer: None,
        }
    }

    fn push(&mut self, metric: Metric) {
        self.metrics.push(metric);
    }

    fn note(&mut self, key: &str, value: Json) {
        self.notes.insert(key.to_string(), value);
    }

    /// Share of expected windows that came back exactly once and correct.
    fn ok_frac(&self) -> f64 {
        1.0 - self.failed as f64 / self.attempted.max(1) as f64
    }

    /// Whether the correctness gate passed.
    pub fn correct(&self) -> bool {
        self.failures.is_empty() && self.failed == 0 && self.attempted > 0
    }

    /// The metric named `name`.
    pub fn metric(&self, name: &str) -> Option<&Metric> {
        self.metrics.iter().find(|m| m.name == name)
    }

    /// The result line: `correct`, `attempted`, `failed` and `metrics`.
    pub fn result_json(&self) -> Json {
        let metrics = self
            .metrics
            .iter()
            .map(|m| {
                let value =
                    Json::obj([("value", Json::from(m.value)), ("unit", Json::from(m.unit))]);
                (m.name.clone(), value)
            })
            .collect();
        Json::obj([
            ("correct", Json::from(self.correct())),
            ("attempted", Json::from(self.attempted)),
            ("failed", Json::from(self.failed)),
            ("metrics", Json::Obj(metrics)),
        ])
    }

    /// The result line as printed.
    pub fn result_line(&self) -> String {
        compact(&self.result_json())
    }
}

/// Generates the workload's data and measures it.
pub fn run(spec: &Spec, seed: u64, opts: &Options) -> Outcome {
    let data = Dataset::generate(spec, seed);
    let mut outcome = match spec.path {
        Path::Wall => wall::run(spec, &data, seed, opts),
        Path::Sim | Path::Replay => closed::run(spec, &data, seed, opts),
    };
    outcome.note("sources", Json::from(workload::SOURCES));
    outcome.note("items_per_interval", Json::from(spec.items_per_interval));
    outcome.note("intervals_generated", Json::from(spec.intervals));
    outcome.note(
        "items_per_source_frame",
        Json::from(spec.items_per_interval / workload::SOURCES),
    );
    outcome
}

/// The environment record written beside every result: CPU count,
/// compiler, commit, seed and workload sizes (the latter two are in the
/// outcome's notes).
pub fn environment(outcome: &Outcome) -> Json {
    let mut env = outcome.notes.clone();
    env.insert("nproc".to_string(), Json::from(sysinfo::nproc()));
    env.insert("rustc".to_string(), Json::from(sysinfo::rustc_version()));
    env.insert("commit".to_string(), Json::from(sysinfo::git_commit()));
    Json::Obj(env)
}
