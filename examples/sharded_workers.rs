//! §III-E distributed execution: a hot sub-stream handled by `w` worker
//! shards, each with a local reservoir of `N/w` slots and its own arrival
//! counter — and the estimate still reconstructs exactly, because the
//! root's Θ store was designed to accept multiple (weight, items) pairs
//! per stratum from the start.
//!
//! Also shows the consumer-group machinery that would feed such workers in
//! the threaded deployment.
//!
//! Run with: `cargo run --release --example sharded_workers`

use approxiot::mq::{Broker, GroupCoordinator};
use approxiot::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn main() -> Result<(), approxiot::core::BudgetError> {
    let mut rng = StdRng::seed_from_u64(35);

    // One very hot sub-stream: 200k items in an interval.
    let items: Vec<StreamItem> = (0..200_000)
        .map(|k| StreamItem::with_meta(StratumId::new(0), 10.0 + rng.random::<f64>(), k, 0))
        .collect();
    let batch = Batch::from_items(items);
    let truth = batch.value_sum();

    println!(
        "one sub-stream, {} items, sampled at 2% by w worker shards:\n",
        batch.len()
    );
    println!(
        "{:>8} {:>12} {:>16} {:>12} {:>10} {:>12}",
        "workers", "pairs in Θ", "estimate", "exact ĉ", "loss %", "wall µs"
    );
    for workers in [1usize, 2, 4, 8, 16] {
        // Each node samples its window on `workers` inline shards with
        // deterministic per-shard RNGs (ParallelShardedSampler).
        let mut node = SamplingNode::with_workers(Strategy::whs(), 0.02, 35, workers)?;
        let start = std::time::Instant::now();
        let outs = node.process_batch_parallel(&batch);
        let elapsed = start.elapsed();
        let theta: ThetaStore = outs
            .into_iter()
            .map(|b| WhsOutput {
                weights: b.weights,
                sample: b.items,
            })
            .collect();
        let est = theta.sum_estimate();
        println!(
            "{workers:>8} {:>12} {:>16.1} {:>12.1} {:>10.4} {:>12}",
            theta.len(),
            est.value,
            theta.count_estimate(),
            accuracy_loss(est.value, truth) * 100.0,
            elapsed.as_micros()
        );
    }
    println!("\nexact SUM: {truth:.1}");
    println!("count reconstruction (ĉ = 200000) is exact for every worker count —");
    println!("each shard's local counter feeds its local weight (paper §III-E).\n");

    // The same sharding, declared on the topology: every node of the
    // first edge layer samples on 4 worker shards, and the
    // whole tree runs behind the driver (identically on either engine).
    let topology = Topology::builder()
        .sources(1)
        .layer(LayerSpec::new(2).workers(4))
        .layer(LayerSpec::new(1))
        .overall_fraction(0.02)
        .seed(35)
        .build()
        .expect("valid fraction");
    let driver =
        Driver::new(topology, QuerySet::default(), EngineKind::Sim).expect("valid topology");
    let report = driver
        .run(std::slice::from_ref(&vec![batch.clone()]))
        .expect("source count matches");
    let r = &report.results[0];
    println!(
        "same stream through a sharded 2-layer topology: SUM ≈ {:.1} (ĉ = {:.0}, {} pairs in Θ)\n",
        r.estimate.value, r.count_hat, r.sampled_items
    );

    // The membership half: workers joining and leaving a consumer group
    // over the hot topic's partitions.
    let broker = Broker::new();
    let topic = broker
        .create_topic("hot-sub-stream", 8)
        .expect("fresh broker");
    let group = GroupCoordinator::new(topic);
    let w1 = group.join();
    let w2 = group.join();
    let w3 = group.join();
    println!("3 workers join an 8-partition topic:");
    for w in [&w1, &w2, &w3] {
        let m = group.assignment(w.member_id).expect("live member");
        println!(
            "  worker {} owns partitions {:?}",
            m.member_id, m.partitions
        );
    }
    group.leave(w2.member_id).expect("member exists");
    println!(
        "worker {} leaves; rebalanced (generation {}):",
        w2.member_id,
        group.generation()
    );
    for w in [&w1, &w3] {
        let m = group.assignment(w.member_id).expect("live member");
        println!(
            "  worker {} owns partitions {:?}",
            m.member_id, m.partitions
        );
    }
    Ok(())
}
