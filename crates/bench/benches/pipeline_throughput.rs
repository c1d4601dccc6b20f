//! End-to-end pipeline throughput: the system-level benchmark for the
//! threaded pipeline and its zero-allocation wire path.
//!
//! Where `micro_samplers` measures the WHS kernel in isolation, this
//! group drives the paper topology (4 leaves, 2 mids, 1 root over broker
//! topics) through [`approxiot_runtime::run_pipeline`] and reports
//! whole-run cost per source item — encode, produce, poll, decode, sample
//! and root reconstruction included. Strategies: WHS (with
//! `edge_workers` ∈ {1, 2, 4} §III-E shards, run inline on each node's
//! thread), the SRS baseline, and native forwarding. Delays are zeroed
//! and links uncapped so the measurement is the software path, not the
//! emulated WAN. Baseline numbers live in `BENCH_pipeline.json` at the
//! repository root.

use approxiot_core::{Batch, StratumId, StreamItem};
use approxiot_runtime::{
    run_pipeline, Driver, EngineKind, FractionSplit, LayerSpec, PipelineConfig, Query, QuerySet,
    Strategy, Topology,
};
use criterion::{criterion_group, criterion_main, BatchSize, BenchmarkId, Criterion, Throughput};
use std::hint::black_box;
use std::time::Duration;

/// Intervals × sources × items per batch; 8 sources × 16 intervals × 512
/// items = 64k source items per run — enough batches that steady-state
/// (post-warm-up) behaviour dominates, small enough that one run stays in
/// the low tens of milliseconds and the group finishes in CI.
const INTERVALS: usize = 16;
const SOURCES: usize = 8;
const ITEMS_PER_BATCH: usize = 512;

fn source_data() -> Vec<Vec<Batch>> {
    (0..INTERVALS)
        .map(|_| {
            (0..SOURCES)
                .map(|s| {
                    Batch::from_items(
                        (0..ITEMS_PER_BATCH)
                            .map(|k| {
                                StreamItem::with_meta(
                                    StratumId::new(s as u32),
                                    (k % 100) as f64,
                                    k as u64,
                                    0,
                                )
                            })
                            .collect(),
                    )
                })
                .collect()
        })
        .collect()
}

fn config(strategy: Strategy, edge_workers: usize) -> PipelineConfig {
    PipelineConfig {
        leaves: 4,
        mids: 2,
        strategy,
        overall_fraction: 0.1,
        split: FractionSplit::Even,
        // A short window so WHS edges flush several times per run rather
        // than only at stream close.
        window: Duration::from_millis(10),
        query: Query::Sum,
        // Zero emulated delay and unlimited links: measure the software
        // path (codec, broker, sampler, pool), not sleeps.
        hop_delays: [Duration::ZERO; 3],
        capacity_bytes_per_sec: None,
        source_capacity_bytes_per_sec: None,
        source_interval: None,
        edge_workers,
        seed: 0x717E,
    }
}

fn bench_pipeline(c: &mut Criterion) {
    let data = source_data();
    let total_items = (INTERVALS * SOURCES * ITEMS_PER_BATCH) as u64;
    let mut group = c.benchmark_group("pipeline_throughput");
    group.throughput(Throughput::Elements(total_items));
    let native_full = |strategy: Strategy| match strategy {
        Strategy::Native => 1.0,
        _ => 0.1,
    };
    for (label, strategy, workers) in [
        ("whs", Strategy::whs(), 1usize),
        ("whs", Strategy::whs(), 2),
        ("whs", Strategy::whs(), 4),
        ("srs", Strategy::Srs, 1),
        ("native", Strategy::Native, 1),
    ] {
        let mut cfg = config(strategy, workers);
        cfg.overall_fraction = native_full(strategy);
        group.bench_with_input(BenchmarkId::new(label, workers), &cfg, |b, cfg| {
            // The pipeline consumes its source data, so each iteration
            // clones it — in the setup closure, outside the timing.
            b.iter_batched(
                || data.clone(),
                |data| {
                    let report = run_pipeline(black_box(cfg), data).expect("valid config");
                    black_box(report.throughput_items_per_sec)
                },
                BatchSize::LargeInput,
            )
        });
    }
    // A depth-4 tree (8 → 4 → 2 → 1 edge → root) through the unified
    // driver: one extra sampling stage and one extra wire hop over the
    // paper shape, from the same Topology description.
    let deep = || {
        Topology::builder()
            .sources(SOURCES)
            .layer(LayerSpec::new(4))
            .layer(LayerSpec::new(2))
            .layer(LayerSpec::new(1))
            .overall_fraction(0.1)
            .window(Duration::from_millis(10))
            .seed(0x717E)
            .build()
            .expect("valid fraction")
    };
    group.bench_function(BenchmarkId::new("whs-deep", 1), |b| {
        b.iter(|| {
            let driver = Driver::new(deep(), QuerySet::default(), EngineKind::pipeline())
                .expect("valid topology");
            let report = driver.run(black_box(&data)).expect("source count matches");
            black_box(report.throughput_items_per_sec)
        })
    });
    group.finish();
}

criterion_group!(
    name = benches;
    config = Criterion::default()
        .sample_size(10)
        .warm_up_time(Duration::from_millis(500))
        .measurement_time(Duration::from_secs(8));
    targets = bench_pipeline
);
criterion_main!(benches);
