//! A single-threaded replica of the engines' data path, used for the
//! per-layer (traced) numbers.
//!
//! The replica builds the same `SamplingNode`s, `RootNode` and
//! `FaultInjector`s the engines build, from the topology's public
//! `stage_fractions`, `node_seed`, `root_seed`, `sketch_seed` and
//! `hop_impairment_seed`, and drives them in the engines' canonical
//! `(interval, sender, arrival)` order. It calls only what the workload's
//! engine calls:
//!
//! * sim (WHS): node kernels, frame billing by encoded length, root ingest
//!   and watermark answering;
//! * sim (sketch): summary fold, take and merge, v3 billing, root summary
//!   ingest;
//! * replay: the above plus v2 encode → broker append → poll → decode on
//!   every hop and a fault injector per sender.
//!
//! It runs the columnar / v2 surface (`ColumnarBatch`,
//! `process_columns_*`, v2 frames) wherever the runtime offers one; the
//! sketch fold and the root only take `Batch`. Its results and per-hop
//! bytes are compared bit for bit with a `Driver` run of the same seed;
//! on a mismatch its numbers are void.
//!
//! `BatchProducer::send_columns_to` is split into its two halves,
//! `encode_columns_into` (codec) and `Topic::append_to` (broker), so the
//! two layers are timed apart; the bytes are the same.

use crate::trace::{Tracer, NO_LAYER};
use crate::workload::{Path, Spec};
use approxiot_core::{Batch, ColumnarBatch};
use approxiot_mq::codec::{
    decode_batch_any_into, decode_columns_into, encode_batch_v2_into, encode_columns_into,
    encoded_len, encoded_len_columns, encoded_len_summaries,
};
use approxiot_mq::{Broker, Consumer, ProducerRecord, Record, StartOffset, Topic};
use approxiot_runtime::{
    FaultInjector, HopBytes, HopFaults, NodePayload, QuerySet, RootConfig, RootNode, SamplingNode,
    Strategy, Topology, WindowResult,
};
use bytes::{Bytes, BytesMut};
use std::sync::Arc;
use std::time::Duration;

/// The sim engine bills v1 frame lengths; a v2 frame of the same batch is
/// this many bytes longer (four column-length prefixes in place of one
/// item count). The replica bills its columnar frames at the v1 length so
/// its bytes match the engine's.
const V2_OVER_V1: usize = 12;

/// Records drained per poll, as in the pipeline's node loops.
const POLL_MAX: usize = 64;

/// Counts taken at the layer boundaries during one pass.
#[derive(Debug, Default, Clone)]
pub struct Counters {
    /// Frames encoded (replay) or billed by length (sim).
    pub codec_frames: u64,
    /// Bytes of those frames.
    pub codec_bytes: u64,
    /// Records appended to broker topics.
    pub broker_records: u64,
    /// Consumer polls.
    pub broker_polls: u64,
    /// Polls that returned no record.
    pub broker_empty_polls: u64,
    /// Frames handed to fault injectors.
    pub fault_frames_in: u64,
    /// Frames the leaf layer received.
    pub l0_frames_in: u64,
    /// Frames the leaf layer forwarded (before fault injection).
    pub l0_frames_out: u64,
    /// Bytes of v3 summary frames.
    pub summary_frame_bytes: u64,
}

impl Counters {
    /// Counts one frame of `len` bytes crossing `hop`.
    fn bill(&mut self, bytes: &mut HopBytes, hop: usize, len: usize) {
        self.codec_frames += 1;
        self.codec_bytes += len as u64;
        bytes.add(hop, len as u64);
    }
}

/// What one replica pass produced.
#[derive(Debug)]
pub struct ReplicaRun {
    /// Window results, sorted by window.
    pub results: Vec<WindowResult>,
    /// Bytes per hop.
    pub bytes: HopBytes,
    /// Fault accounting per hop.
    pub faults: HopFaults,
    /// Layer-boundary counts.
    pub counters: Counters,
    /// `(items_in, items_out)` summed per edge layer.
    pub layer_items: Vec<(u64, u64)>,
    /// Items the root received.
    pub root_items_in: u64,
    /// Windows the root answered.
    pub root_windows: u64,
    /// Items the root dropped as late.
    pub root_dropped_late: u64,
}

/// The replay transport: one topic per hop with one partition per
/// sender, node `j` of a layer with `n` nodes consuming partitions
/// `p % n == j` — the pipeline's routing.
struct Wire {
    _broker: Broker,
    topics: Vec<Arc<Topic>>,
    consumers: Vec<Vec<Consumer>>,
    root: Consumer,
    buf: BytesMut,
    records: Vec<Record>,
    polled: Vec<Record>,
    /// Records appended but not yet polled, per hop and partition.
    pending: Vec<Vec<usize>>,
}

/// One replica instance over one topology (one pass).
pub struct Replica {
    topology: Topology,
    path: Path,
    nodes: Vec<Vec<SamplingNode>>,
    root: RootNode,
    /// `injectors[hop][sender]`.
    injectors: Vec<Vec<Option<FaultInjector>>>,
    bytes: HopBytes,
    wire: Option<Wire>,
    counters: Counters,
    results: Vec<WindowResult>,
    max_event_ts: u64,
    interval: u64,
}

impl Replica {
    /// Builds the replica's nodes exactly as the engines do.
    pub fn new(spec: &Spec, topology: Topology, queries: QuerySet) -> Replica {
        let fractions = topology.stage_fractions();
        let nodes = topology
            .layers()
            .iter()
            .enumerate()
            .map(|(l, layer)| {
                (0..layer.nodes)
                    .map(|j| {
                        let strategy = topology.layer_strategy(l);
                        let seed = match strategy {
                            Strategy::Sketch(_) => topology.sketch_seed(),
                            _ => topology.node_seed(l, j),
                        };
                        SamplingNode::with_workers(strategy, fractions[l], seed, layer.workers)
                            .expect("valid fraction")
                    })
                    .collect()
            })
            .collect();
        let root_seed = match topology.root_strategy() {
            Strategy::Sketch(_) => topology.sketch_seed(),
            _ => topology.root_seed(),
        };
        let root = RootNode::new(RootConfig {
            strategy: topology.root_strategy(),
            fraction: *fractions.last().expect("depth >= 1"),
            overall_fraction: topology.overall_fraction(),
            window: topology.window(),
            queries,
            seed: root_seed,
            delivery_factor: topology.delivery_factor(),
            allowed_lateness: topology.allowed_lateness(),
        })
        .expect("valid fraction");
        let injectors = (0..topology.hops())
            .map(|hop| {
                let senders = if hop == 0 {
                    topology.sources()
                } else {
                    topology.layers()[hop - 1].nodes
                };
                (0..senders)
                    .map(|s| {
                        FaultInjector::new(
                            topology.hop_impairment(hop),
                            topology.hop_impairment_seed(hop, s),
                        )
                    })
                    .collect()
            })
            .collect();
        let wire = (spec.path == Path::Replay).then(|| Wire::new(&topology));
        Replica {
            bytes: HopBytes::new(topology.hops()),
            path: spec.path,
            topology,
            nodes,
            root,
            injectors,
            wire,
            counters: Counters::default(),
            results: Vec::new(),
            max_event_ts: 0,
            interval: 0,
        }
    }

    /// Pushes one interval of source batches (`cols` is the same data in
    /// columnar layout) and, like the benchmark's `Driver::poll` after
    /// every push, answers what the engine's poll would answer.
    pub fn push_interval(&mut self, batches: &[Batch], cols: &[ColumnarBatch], t: &mut Tracer) {
        for batch in batches {
            if let Some(ts) = batch.items.iter().map(|i| i.source_ts).max() {
                self.max_event_ts = self.max_event_ts.max(ts);
            }
        }
        if self.topology.sketch_config().is_some() {
            self.push_sketch(batches, t);
        } else if self.wire.is_some() {
            self.push_replay(batches, t);
        } else {
            self.push_sim(cols, t);
        }
        self.interval += 1;
        if self.path == Path::Sim {
            let watermark = self.max_event_ts;
            let root = &mut self.root;
            let new = t.span("root.answer", NO_LAYER, |_| {
                root.advance_watermark(watermark)
            });
            self.results.extend(new);
        }
    }

    /// The sim engine's clean WHS path.
    fn push_sim(&mut self, cols: &[ColumnarBatch], t: &mut Tracer) {
        let Replica {
            topology,
            nodes,
            root,
            bytes,
            counters,
            ..
        } = self;
        let v1_len = |col: &ColumnarBatch| encoded_len_columns(col) - V2_OVER_V1;
        for col in cols {
            let len = t.span("codec.len", NO_LAYER, |_| v1_len(col));
            counters.bill(bytes, 0, len);
        }
        let n0 = topology.layers()[0].nodes;
        let mut carried: Vec<Vec<ColumnarBatch>> = (0..n0).map(|_| Vec::new()).collect();
        for (j, outs) in carried.iter_mut().enumerate() {
            for col in cols.iter().skip(j).step_by(n0) {
                counters.l0_frames_in += 1;
                let node = &mut nodes[0][j];
                let new = t.span("node.process", 0, |_| node.process_columns_parallel(col));
                let before = outs.len();
                outs.extend(new.into_iter().filter(|o| !o.is_empty()));
                counters.l0_frames_out += (outs.len() - before) as u64;
            }
        }
        for (l, layer_nodes) in nodes.iter_mut().enumerate().skip(1) {
            let n = layer_nodes.len();
            let mut inputs: Vec<Vec<ColumnarBatch>> = (0..n).map(|_| Vec::new()).collect();
            for (child, outs) in carried.into_iter().enumerate() {
                for out in outs {
                    let len = t.span("codec.len", NO_LAYER, |_| v1_len(&out));
                    counters.bill(bytes, l, len);
                    inputs[child % n].push(out);
                }
            }
            carried = (0..n).map(|_| Vec::new()).collect();
            for ((node, input), outs) in layer_nodes.iter_mut().zip(inputs).zip(&mut carried) {
                for col in &input {
                    let new = t.span("node.process", l as u8, |_| {
                        node.process_columns_parallel(col)
                    });
                    outs.extend(new.into_iter().filter(|o| !o.is_empty()));
                }
            }
        }
        let root_hop = topology.hops() - 1;
        for out in carried.into_iter().flatten() {
            let len = t.span("codec.len", NO_LAYER, |_| v1_len(&out));
            counters.bill(bytes, root_hop, len);
            let batch = out.to_batch();
            t.span("root.ingest", NO_LAYER, |_| root.ingest(&batch));
        }
    }

    /// The sim engine's sketch path: leaves fold item frames, every later
    /// hop carries one v3 summary frame per node per interval.
    fn push_sketch(&mut self, batches: &[Batch], t: &mut Tracer) {
        let Replica {
            topology,
            nodes,
            root,
            bytes,
            counters,
            ..
        } = self;
        let scheme = root.window();
        let n0 = topology.layers()[0].nodes;
        for (i, batch) in batches.iter().enumerate() {
            let len = t.span("codec.len", NO_LAYER, |_| encoded_len(batch));
            counters.bill(bytes, 0, len);
            counters.l0_frames_in += 1;
            let node = &mut nodes[0][i % n0];
            t.span("summary.absorb", 0, |_| node.absorb_batch(batch, scheme));
        }
        let n_layers = nodes.len();
        let root_hop = topology.hops() - 1;
        for l in 0..n_layers {
            let n_next = topology.layers().get(l + 1).map_or(0, |layer| layer.nodes);
            for j in 0..nodes[l].len() {
                let node = &mut nodes[l][j];
                let windows = t.span("summary.take", l as u8, |_| node.take_summaries());
                if windows.is_empty() {
                    continue;
                }
                if l == 0 {
                    counters.l0_frames_out += 1;
                }
                let len = t.span("codec.len", NO_LAYER, |_| encoded_len_summaries(&windows));
                counters.summary_frame_bytes += len as u64;
                if l + 1 < n_layers {
                    counters.bill(bytes, l + 1, len);
                    let payload = NodePayload::Summaries(windows);
                    let next = &mut nodes[l + 1][j % n_next];
                    t.span("summary.merge", (l + 1) as u8, |_| {
                        next.absorb_payload(&payload, scheme)
                    });
                } else {
                    counters.bill(bytes, root_hop, len);
                    t.span("root.ingest", NO_LAYER, |_| root.ingest_summaries(windows));
                }
            }
        }
    }

    /// The deterministic pipeline's path: every hop is v2 encode →
    /// broker append → poll → decode, with a fault injector per sender.
    fn push_replay(&mut self, batches: &[Batch], t: &mut Tracer) {
        let key = self.interval;
        let Replica {
            topology,
            nodes,
            root,
            injectors,
            bytes,
            wire,
            counters,
            ..
        } = self;
        let wire = wire.as_mut().expect("replay replica has a wire");
        // Hop 0: the driver sends each source batch through its injector.
        for (s, batch) in batches.iter().enumerate() {
            if injectors[0][s].is_some() {
                counters.fault_frames_in += 1;
            }
            let mut deliver = |t: &mut Tracer, frame: &Batch| {
                let buf = &mut wire.buf;
                t.span("codec.encode", NO_LAYER, |_| {
                    encode_batch_v2_into(frame, buf)
                });
                wire.send(0, s as u32, key, counters, bytes, t);
                true
            };
            match injectors[0][s].as_mut() {
                Some(injector) => {
                    t.span("fault.transmit", NO_LAYER, |t| {
                        injector.transmit(std::slice::from_ref(batch), &mut |f, _| deliver(t, f))
                    });
                }
                None => {
                    deliver(t, batch);
                }
            }
        }
        // Edge layers: poll, decode, process, forward.
        let mut col = ColumnarBatch::new();
        for (l, layer_nodes) in nodes.iter_mut().enumerate() {
            let hop = l + 1;
            let sharded = topology.layers()[l].workers > 1;
            for (j, node) in layer_nodes.iter_mut().enumerate() {
                let records = wire.poll_all(Some((l, j)), counters, t);
                for record in &records {
                    t.span("codec.decode", NO_LAYER, |_| {
                        decode_columns_into(&record.value, &mut col)
                    })
                    .expect("replica frames decode");
                    if l == 0 {
                        counters.l0_frames_in += 1;
                    }
                    let mut outs = t.span("node.process", l as u8, |_| {
                        if sharded {
                            node.process_columns_parallel(&col)
                        } else {
                            vec![node.process_columns_mut(&mut col)]
                        }
                    });
                    outs.retain(|o| !o.is_empty());
                    if l == 0 {
                        counters.l0_frames_out += outs.len() as u64;
                    }
                    if injectors[hop][j].is_some() {
                        counters.fault_frames_in += outs.len() as u64;
                    }
                    let mut deliver = |t: &mut Tracer, out: &ColumnarBatch| {
                        let buf = &mut wire.buf;
                        t.span("codec.encode", NO_LAYER, |_| encode_columns_into(out, buf));
                        wire.send(hop, j as u32, key, counters, bytes, t);
                        true
                    };
                    match injectors[hop][j].as_mut() {
                        Some(injector) => {
                            t.span("fault.transmit", NO_LAYER, |t| {
                                injector.transmit(&outs, &mut |o, _| deliver(t, o))
                            });
                        }
                        None => {
                            for out in &outs {
                                deliver(t, out);
                            }
                        }
                    }
                }
                wire.polled = records;
            }
        }
        // Root: AoS decode (either frame version) and ingest.
        let records = wire.poll_all(None, counters, t);
        let mut batch = Batch::new();
        for record in &records {
            t.span("codec.decode", NO_LAYER, |_| {
                decode_batch_any_into(&record.value, &mut batch)
            })
            .expect("replica frames decode");
            t.span("root.ingest", NO_LAYER, |_| root.ingest_mut(&mut batch));
        }
        wire.polled = records;
    }

    /// Ends the stream: answers every open window and reports the pass.
    pub fn finish(mut self, t: &mut Tracer) -> ReplicaRun {
        let root = &mut self.root;
        let new = t.span("root.answer", NO_LAYER, |_| root.flush());
        self.results.extend(new);
        self.results.sort_by_key(|r| r.window);
        let mut faults = HopFaults::new(self.injectors.len());
        for (hop, senders) in self.injectors.iter().enumerate() {
            for injector in senders.iter().flatten() {
                faults.record(hop, injector.stats());
            }
        }
        ReplicaRun {
            layer_items: self
                .nodes
                .iter()
                .map(|layer| {
                    layer
                        .iter()
                        .fold((0, 0), |(i, o), n| (i + n.items_in(), o + n.items_out()))
                })
                .collect(),
            root_items_in: self.root.items_in(),
            root_windows: self.root.windows_emitted(),
            root_dropped_late: self.root.dropped_late(),
            results: self.results,
            bytes: self.bytes,
            faults,
            counters: self.counters,
        }
    }
}

impl Wire {
    fn new(topology: &Topology) -> Wire {
        let broker = Broker::new();
        let n_layers = topology.layers().len();
        let topics: Vec<Arc<Topic>> = (0..=n_layers)
            .map(|hop| {
                let senders = if hop == 0 {
                    topology.sources()
                } else {
                    topology.layers()[hop - 1].nodes
                };
                broker
                    .create_topic(&format!("hop{hop}"), senders as u32)
                    .expect("fresh broker")
            })
            .collect();
        let consumers = topology
            .layers()
            .iter()
            .enumerate()
            .map(|(l, layer)| {
                (0..layer.nodes)
                    .map(|j| {
                        let partitions: Vec<u32> = (0..topics[l].partition_count())
                            .filter(|p| (*p as usize) % layer.nodes == j)
                            .collect();
                        Consumer::subscribe(
                            Arc::clone(&topics[l]),
                            &partitions,
                            StartOffset::Earliest,
                        )
                    })
                    .collect()
            })
            .collect();
        let root = Consumer::subscribe_all(Arc::clone(&topics[n_layers]), StartOffset::Earliest);
        Wire {
            _broker: broker,
            pending: topics
                .iter()
                .map(|t| vec![0; t.partition_count() as usize])
                .collect(),
            topics,
            consumers,
            root,
            buf: BytesMut::new(),
            records: Vec::new(),
            polled: Vec::new(),
        }
    }

    /// Appends the encoded frame in `buf` to `hop`'s topic.
    fn send(
        &mut self,
        hop: usize,
        partition: u32,
        key: u64,
        counters: &mut Counters,
        bytes: &mut HopBytes,
        t: &mut Tracer,
    ) {
        counters.bill(bytes, hop, self.buf.len());
        counters.broker_records += 1;
        self.pending[hop][partition as usize] += 1;
        let (topic, buf) = (&self.topics[hop], &self.buf);
        t.span("broker.send", NO_LAYER, |_| {
            let record = ProducerRecord {
                key: None,
                value: Bytes::copy_from_slice(buf),
                timestamp: key,
            };
            topic.append_to(partition, record)
        })
        .expect("replica topics stay open");
    }

    /// Drains the records appended to one consumer's partitions (`None` =
    /// the root) since its last drain, sorted by `(partition, offset)`:
    /// the canonical arrival order within one interval. The replica knows
    /// how many records are waiting, so it never issues a poll that finds
    /// nothing.
    fn poll_all(
        &mut self,
        node: Option<(usize, usize)>,
        counters: &mut Counters,
        t: &mut Tracer,
    ) -> Vec<Record> {
        let (hop, consumer) = match node {
            Some((l, j)) => (l, &mut self.consumers[l][j]),
            None => (self.topics.len() - 1, &mut self.root),
        };
        let mut expected = 0;
        for p in consumer.assignment() {
            expected += std::mem::take(&mut self.pending[hop][p as usize]);
        }
        let mut all = std::mem::take(&mut self.polled);
        all.clear();
        while all.len() < expected {
            let records = &mut self.records;
            let n = t
                .span("broker.poll", NO_LAYER, |_| {
                    consumer.poll_into(records, POLL_MAX, Duration::ZERO)
                })
                .expect("replica topics stay open");
            counters.broker_polls += 1;
            if n == 0 {
                counters.broker_empty_polls += 1;
                break;
            }
            all.append(records);
        }
        all.sort_by_key(|r| (r.partition, r.offset));
        all
    }
}
