//! Closed-loop workloads (sim_bulk, replay_frames, sim_sketch): each
//! pass builds a fresh topology and `Driver`, pushes the whole dataset
//! interval by interval (the next push starts when the previous push and
//! poll return), and finishes. Passes repeat until the run's time is up.

use crate::calibrate::Calibration;
use crate::replica::{Replica, ReplicaRun};
use crate::stats::{
    blocked_percentile, count_exact, count_of, median, percentile, result_key, tail_quantile,
    window_error,
};
use crate::sysinfo;
use crate::trace::{totals, SpanTotals, Tracer, NO_LAYER};
use crate::workload::{exact_quantile, pass_seed, Dataset, Path, Spec, QUANTILE};
use crate::{Metric, Options, Outcome, MIN_PASSES};
use approxiot_bench::json::Json;
use approxiot_core::ColumnarBatch;
use approxiot_runtime::{Driver, EngineKind, RunReport, WindowResult};
use std::collections::{BTreeMap, BTreeSet};
use std::time::Instant;

/// Window results as the benchmark saw them come back.
#[derive(Debug, Default)]
pub struct Arrivals {
    /// `Driver::poll` calls.
    pub polls: u64,
    /// Polls that returned at least one result.
    pub returned: u64,
    /// `(window, when the poll or finish call returning it returned)`.
    pub list: Vec<(u64, Instant)>,
}

impl Arrivals {
    /// Polls the driver inside a `driver.poll` span, marking each result.
    pub fn poll(&mut self, driver: &mut Driver, t: &mut Tracer) {
        let new = t.span("driver.poll", NO_LAYER, |t| {
            let new = driver.poll();
            for _ in &new {
                t.mark("driver.result");
            }
            new
        });
        let now = Instant::now();
        self.polls += 1;
        self.returned += u64::from(!new.is_empty());
        self.list.extend(new.iter().map(|r| (r.window, now)));
    }

    /// The distinct windows returned so far.
    pub fn windows(&self) -> BTreeSet<u64> {
        self.list.iter().map(|(w, _)| *w).collect()
    }

    /// Records the windows only `finish` returned, at `end`.
    pub fn finished(&mut self, report: &RunReport, end: Instant) {
        let polled = self.windows();
        for r in &report.results {
            if !polled.contains(&r.window) {
                self.list.push((r.window, end));
            }
        }
    }

    /// How many times each window came back.
    pub fn times_returned(&self) -> BTreeMap<u64, u32> {
        let mut times = BTreeMap::new();
        for (w, _) in &self.list {
            *times.entry(*w).or_insert(0) += 1;
        }
        times
    }
}

/// One pass through the `Driver`.
struct DriverPass {
    seed: u64,
    setup_s: f64,
    run_s: f64,
    finish_ms: f64,
    push_ms: Vec<f64>,
    arrivals: Arrivals,
    /// Per-window latency (ms), by window id.
    latency_ms: BTreeMap<u64, f64>,
    push_errors: u64,
    report: RunReport,
}

fn driver_pass(spec: &Spec, data: &Dataset, seed: u64, t: &mut Tracer) -> DriverPass {
    let start = Instant::now();
    let topology = spec.topology(seed);
    let mut driver = Driver::new(topology, spec.queries(), spec.engine())
        .expect("the benchmark workloads are valid");
    let setup_s = start.elapsed().as_secs_f64();
    let mut push_ms = Vec::with_capacity(data.intervals.len());
    let mut due = Vec::with_capacity(data.intervals.len());
    let mut arrivals = Arrivals::default();
    let mut push_errors = 0;
    let first = Instant::now();
    for interval in &data.intervals {
        // Closed loop: an interval is due the moment the previous one
        // has been pushed and polled.
        let at = Instant::now();
        due.push(at);
        if t.span("driver.push", NO_LAYER, |_| driver.push_interval(interval))
            .is_err()
        {
            push_errors += 1;
        }
        push_ms.push(at.elapsed().as_secs_f64() * 1e3);
        arrivals.poll(&mut driver, t);
    }
    let finish_start = Instant::now();
    let report = t.span("driver.finish", NO_LAYER, |_| driver.finish());
    let end = Instant::now();
    arrivals.finished(&report, end);
    // One interval per window: window w's last interval is interval w.
    let latency_ms = arrivals
        .list
        .iter()
        .filter_map(|(w, at)| {
            let d = due.get(*w as usize)?;
            Some((*w, at.duration_since(*d).as_secs_f64() * 1e3))
        })
        .collect();
    DriverPass {
        seed,
        setup_s,
        run_s: end.duration_since(first).as_secs_f64(),
        finish_ms: end.duration_since(finish_start).as_secs_f64() * 1e3,
        push_ms,
        arrivals,
        latency_ms,
        push_errors,
        report,
    }
}

/// The correctness gate for one pass: the windows that came back exactly
/// once and correct, and a description of every failure. Sim passes must
/// reconstruct every COUNT exactly; replay passes must be bit-identical to
/// a Sim run of the same topology and data.
fn check_pass(spec: &Spec, data: &Dataset, pass: &DriverPass) -> (u64, Vec<String>) {
    let mut failures = Vec::new();
    if pass.push_errors > 0 {
        failures.push(format!(
            "pass seed {}: {} push errors",
            pass.seed, pass.push_errors
        ));
    }
    let reference: Option<BTreeMap<u64, String>> = (spec.path == Path::Replay).then(|| {
        let sim = Driver::new(spec.topology(pass.seed), spec.queries(), EngineKind::Sim)
            .expect("valid workload")
            .run(&data.intervals)
            .expect("sim run");
        if !approxiot_runtime::results_bit_identical(&pass.report, &sim) {
            failures.push(format!("pass seed {}: replay differs from sim", pass.seed));
        }
        sim.results
            .iter()
            .map(|r| (r.window, result_key(r)))
            .collect()
    });
    let by_window: BTreeMap<u64, &WindowResult> =
        pass.report.results.iter().map(|r| (r.window, r)).collect();
    let times_returned = pass.arrivals.times_returned();
    let mut ok = 0;
    for (w, truth) in data.truths.iter().enumerate() {
        let w = w as u64;
        let Some(result) = by_window.get(&w) else {
            failures.push(format!("pass seed {}: window {w} missing", pass.seed));
            continue;
        };
        if times_returned.get(&w) != Some(&1) {
            failures.push(format!(
                "pass seed {}: window {w} returned {:?} times",
                pass.seed,
                times_returned.get(&w)
            ));
            continue;
        }
        let correct = match &reference {
            Some(sim) => sim.get(&w) == Some(&result_key(result)),
            None => count_exact(count_of(result), truth.count),
        };
        if correct {
            ok += 1;
        } else {
            failures.push(format!("pass seed {}: window {w} incorrect", pass.seed));
        }
    }
    if pass.report.results.len() != data.truths.len() {
        failures.push(format!(
            "pass seed {}: {} windows returned, {} expected",
            pass.seed,
            pass.report.results.len(),
            data.truths.len()
        ));
    }
    (ok, failures)
}

/// Per-window latency samples kept by the untraced run. This and the
/// per-pass series are allocated and touched before the resident-set
/// baseline, so the benchmark's own bookkeeping does not show in
/// `peak_rss_mb`.
const LATENCY_SAMPLES: usize = 1 << 17;
/// Result latencies are taken in blocks of this many consecutive windows
/// (the fewest a 95th percentile is taken over) and reported as the
/// median over blocks, so a burst of host noise in part of a run moves
/// only the blocks it falls in.
const LATENCY_BLOCK: usize = 200;
/// Most passes one untraced run makes.
const MAX_PASSES: usize = 1 << 13;
/// The first passes of an untraced run each start from a heap with no
/// free pages and measure their own peak resident set above that start;
/// `peak_rss_mb` is their median. (The kernel's resident-set counters
/// are batched per thread, so a single reading can be off by a few
/// hundred KiB: about the whole footprint of sim_sketch.) These passes
/// are not timed.
const MEMORY_PASSES: usize = 5;

/// Runs the untraced measurement (`trace = false`) or the traced one.
pub fn run(spec: &Spec, data: &Dataset, seed: u64, opts: &Options) -> Outcome {
    if opts.trace {
        return run_traced(spec, data, seed, opts);
    }
    let mut outcome = Outcome::new(spec, seed, opts);
    let items = data.items() as f64;
    let exact_q: Vec<f64> = data
        .truths
        .iter()
        .map(|t| exact_quantile(&mut t.values.clone(), QUANTILE))
        .collect();
    let mut latencies = vec![0.0; LATENCY_SAMPLES];
    let mut raw_latencies = vec![0.0; LATENCY_SAMPLES];
    let mut n_latencies = 0;
    let mut setups = vec![0.0; MAX_PASSES];
    let mut raw_setups = vec![0.0; MAX_PASSES];
    let mut rates = vec![0.0; MAX_PASSES];
    let mut raw_rates = vec![0.0; MAX_PASSES];
    let mut factors = vec![0.0; MAX_PASSES];
    let mut wan = vec![0.0; MAX_PASSES];
    let (mut error_sum, mut error_windows, mut ok) = (0.0, 0, 0);
    let mut tracer = Tracer::new(false);
    let mut calibration = Calibration::default();
    let mut peaks_mb = [0.0; MEMORY_PASSES];
    let start = Instant::now();
    let mut p = 0;
    while p < MEMORY_PASSES + MIN_PASSES
        || (start.elapsed().as_secs_f64() < opts.seconds && p < MAX_PASSES)
    {
        let baseline_kb = (p < MEMORY_PASSES).then(rss_baseline);
        factors[p] = calibration.factor();
        let pass = driver_pass(spec, data, pass_seed(seed, p), &mut tracer);
        if let Some(baseline_kb) = baseline_kb {
            let peak_kb = sysinfo::status_kb("VmHWM").unwrap_or(0);
            peaks_mb[p] = peak_kb.saturating_sub(baseline_kb) as f64 / 1024.0;
        }
        // Each pass is checked and reduced to its numbers at once, so the
        // run holds one report at a time.
        let (n, failures) = check_pass(spec, data, &pass);
        ok += n;
        outcome.failures.extend(failures);
        for r in &pass.report.results {
            let w = r.window as usize;
            if let (Some(truth), Some(q)) = (data.truths.get(w), exact_q.get(w)) {
                error_sum += window_error(r, truth.sum, *q, QUANTILE);
                error_windows += 1;
            }
        }
        wan[p] = pass.report.bytes.sampled_wire_bytes() as f64 / items;
        // The memory passes also warm caches and the allocator: they are
        // checked and count towards accuracy, but not towards timing.
        // Times are calibrated to the reference host speed (see
        // `calibrate`), except the latency tail: it is set by host events
        // such as preemption, not by a core's speed, and scaling it only
        // added the kernel's own noise.
        if p >= MEMORY_PASSES {
            setups[p] = pass.setup_s * factors[p];
            raw_setups[p] = pass.setup_s;
            rates[p] = items / (pass.run_s * factors[p]);
            raw_rates[p] = items / pass.run_s;
            for latency in pass.latency_ms.values() {
                if n_latencies < LATENCY_SAMPLES {
                    latencies[n_latencies] = *latency * factors[p];
                    raw_latencies[n_latencies] = *latency;
                    n_latencies += 1;
                }
            }
        }
        p += 1;
    }
    outcome.attempted = (p * data.truths.len()) as u64;
    outcome.failed = outcome.attempted - ok;
    let latencies = &latencies[..n_latencies];
    let raw_latencies = &raw_latencies[..n_latencies];
    let tail = tail_quantile(latencies.len().min(LATENCY_BLOCK));
    outcome.push(Metric::new(
        "setup_s",
        median(&setups[MEMORY_PASSES..p]),
        "s",
    ));
    outcome.push(Metric::new(
        "items_per_s",
        median(&rates[MEMORY_PASSES..p]),
        "1/s",
    ));
    outcome.push(Metric::new(
        "result_latency_p50_ms",
        blocked_percentile(latencies, LATENCY_BLOCK, 0.5),
        "ms",
    ));
    outcome.push(Metric::new(
        "result_latency_p95_ms",
        blocked_percentile(raw_latencies, LATENCY_BLOCK, tail),
        "ms",
    ));
    outcome.push(Metric::new("window_ok_frac", outcome.ok_frac(), "ratio"));
    outcome.push(Metric::new(
        "rel_error_mean",
        error_sum / error_windows as f64,
        "ratio",
    ));
    outcome.push(Metric::new("wan_bytes_per_item", median(&wan[..p]), "B"));
    outcome.push(Metric::new("peak_rss_mb", median(&peaks_mb), "MB"));
    outcome.note("passes", Json::from(p));
    outcome.note(
        "raw_items_per_s",
        Json::from(median(&raw_rates[MEMORY_PASSES..p])),
    );
    outcome.note(
        "raw_setup_s",
        Json::from(median(&raw_setups[MEMORY_PASSES..p])),
    );
    outcome.note(
        "raw_result_latency_p50_ms",
        Json::from(blocked_percentile(raw_latencies, LATENCY_BLOCK, 0.5)),
    );
    outcome.note("calibration_factor", Json::from(median(&factors[..p])));
    outcome.note("latency_samples", Json::from(latencies.len()));
    outcome.note("latency_tail_quantile", Json::from(tail));
    outcome.note("error_windows", Json::from(error_windows as u64));
    outcome
}

/// Releases free heap pages, resets the peak resident set and returns
/// the level to measure from.
pub fn rss_baseline() -> u64 {
    sysinfo::release_free_heap();
    if sysinfo::reset_peak_rss() {
        sysinfo::status_kb("VmRSS").unwrap_or(0)
    } else {
        sysinfo::status_kb("VmHWM").unwrap_or(0)
    }
}

/// Traced passes whose spans are kept for the JSON-lines file; the spans
/// of later passes are reduced to their per-layer numbers and dropped,
/// so a traced run's memory does not grow with its length.
const SPAN_PASSES: usize = 2;

fn replica_pass(
    spec: &Spec,
    data: &Dataset,
    cols: &[Vec<ColumnarBatch>],
    seed: u64,
    t: &mut Tracer,
) -> (f64, ReplicaRun) {
    let start = Instant::now();
    let mut replica = Replica::new(spec, spec.topology(seed), spec.queries());
    for (batches, cols) in data.intervals.iter().zip(cols) {
        replica.push_interval(batches, cols, t);
    }
    let run = replica.finish(t);
    (start.elapsed().as_secs_f64(), run)
}

/// Whether a replica pass reproduced the `Driver` pass bit for bit:
/// every window result, the bytes per hop and the fault counts.
fn identical(replica: &ReplicaRun, report: &RunReport) -> bool {
    replica.results.len() == report.results.len()
        && replica
            .results
            .iter()
            .zip(&report.results)
            .all(|(a, b)| result_key(a) == result_key(b))
        && replica.bytes == report.bytes
        && replica.faults == report.faults
}

fn run_traced(spec: &Spec, data: &Dataset, seed: u64, opts: &Options) -> Outcome {
    let cols = data.columnar();
    let mut tracer = Tracer::new(true);
    let mut driver_passes = Vec::new();
    let mut per_pass = Vec::new();
    let (mut plain, mut traced) = (Vec::new(), Vec::new());
    let mut outcome = Outcome::new(spec, seed, opts);
    let start = Instant::now();
    while driver_passes.len() < MIN_PASSES || start.elapsed().as_secs_f64() < opts.seconds {
        let p = driver_passes.len();
        let pass_seed = pass_seed(seed, p);
        let kept = tracer.spans().len();
        tracer.set_run(2 * p as u32);
        let driven = driver_pass(spec, data, pass_seed, &mut tracer);
        let (plain_s, plain_run) =
            replica_pass(spec, data, &cols, pass_seed, &mut Tracer::new(false));
        tracer.set_run(2 * p as u32 + 1);
        let replica_start = tracer.spans().len();
        let (traced_s, traced_run) = replica_pass(spec, data, &cols, pass_seed, &mut tracer);
        for (label, run) in [("untraced", &plain_run), ("traced", &traced_run)] {
            if !identical(run, &driven.report) {
                outcome.failures.push(format!(
                    "pass seed {pass_seed}: {label} replica differs from the Driver run"
                ));
            }
        }
        per_pass.push(layer_metrics(
            &totals(&tracer, replica_start),
            &traced_run,
            traced_s,
        ));
        if p >= SPAN_PASSES {
            tracer.truncate(kept);
        }
        driver_passes.push(driven);
        plain.push(plain_s);
        traced.push(traced_s);
    }
    let mut ok = 0;
    for pass in &driver_passes {
        let (n, failures) = check_pass(spec, data, pass);
        ok += n;
        outcome.failures.extend(failures);
    }
    outcome.attempted = (driver_passes.len() * data.truths.len()) as u64;
    outcome.failed = outcome.attempted - ok;
    let items = data.items() as f64;
    let pushes: Vec<f64> = driver_passes
        .iter()
        .flat_map(|p| p.push_ms.iter().copied())
        .collect();
    let finishes: Vec<f64> = driver_passes.iter().map(|p| p.finish_ms).collect();
    let polls: u64 = driver_passes.iter().map(|p| p.arrivals.polls).sum();
    let returned: u64 = driver_passes.iter().map(|p| p.arrivals.returned).sum();
    outcome.push(Metric::new(
        "driver.push_ms_p50",
        percentile(&pushes, 0.5),
        "ms",
    ));
    outcome.push(Metric::new(
        "driver.push_ms_p95",
        percentile(&pushes, tail_quantile(pushes.len())),
        "ms",
    ));
    outcome.push(Metric::new("driver.finish_ms", median(&finishes), "ms"));
    // Closed loop: every interval is pushed the moment it is due.
    outcome.push(Metric::new("driver.gen_lag_p95_ms", 0.0, "ms"));
    outcome.push(Metric::new(
        "driver.poll_returned_frac",
        returned as f64 / polls.max(1) as f64,
        "ratio",
    ));

    for (name, unit) in crate::PER_LAYER {
        if let Some(values) = per_pass
            .iter()
            .map(|m| m.get(name).copied())
            .collect::<Option<Vec<f64>>>()
        {
            outcome.push(Metric::new(name, median(&values), unit));
        }
    }
    outcome.push(Metric::new(
        "trace.overhead_frac",
        median(&traced) / median(&plain) - 1.0,
        "ratio",
    ));
    outcome.push(Metric::new(
        "replica.items_per_s",
        items / median(&plain),
        "1/s",
    ));
    outcome.note("passes", Json::from(driver_passes.len()));
    outcome.tracer = Some(tracer);
    outcome
}

/// The per-layer numbers of one traced replica pass.
fn layer_metrics(s: &SpanTotals, run: &ReplicaRun, traced_s: f64) -> BTreeMap<&'static str, f64> {
    let c = &run.counters;
    let (l0_in, l0_out) = run.layer_items[0];
    let (l1_in, l1_out) = run.layer_items[1];
    let dropped = run
        .faults
        .hops()
        .iter()
        .map(|h| h.dropped_frames)
        .sum::<u64>();
    BTreeMap::from([
        ("node.l0.busy_ms", s.layer_busy_ms(0)),
        ("node.l1.busy_ms", s.layer_busy_ms(1)),
        ("node.l0.items_in", l0_in as f64),
        ("node.l0.items_out", l0_out as f64),
        ("node.l1.items_in", l1_in as f64),
        ("node.l1.items_out", l1_out as f64),
        (
            "node.keep_ratio",
            run.root_items_in as f64 / l0_in.max(1) as f64,
        ),
        (
            "node.l0.frames_out_per_in",
            c.l0_frames_out as f64 / c.l0_frames_in.max(1) as f64,
        ),
        ("summary.absorb_ms", s.ms("summary.absorb")),
        ("summary.take_ms", s.ms("summary.take")),
        ("summary.merge_ms", s.ms("summary.merge")),
        ("summary.frame_bytes", c.summary_frame_bytes as f64),
        ("codec.encode_ms", s.ms("codec.encode") + s.ms("codec.len")),
        ("codec.decode_ms", s.ms("codec.decode")),
        ("codec.frames", c.codec_frames as f64),
        ("codec.bytes", c.codec_bytes as f64),
        ("broker.send_ms", s.ms("broker.send")),
        ("broker.poll_ms", s.ms("broker.poll")),
        ("broker.records", c.broker_records as f64),
        (
            "broker.empty_poll_frac",
            c.broker_empty_polls as f64 / c.broker_polls.max(1) as f64,
        ),
        ("fault.transmit_ms", s.ms("fault.transmit")),
        ("fault.frames_in", c.fault_frames_in as f64),
        ("fault.frames_dropped", dropped as f64),
        ("fault.items_dropped", run.faults.dropped_items() as f64),
        ("root.ingest_ms", s.ms("root.ingest")),
        ("root.answer_ms", s.ms("root.answer")),
        ("root.items_in", run.root_items_in as f64),
        ("root.windows", run.root_windows as f64),
        ("root.dropped_late", run.root_dropped_late as f64),
        (
            "trace.attributed_frac",
            s.self_total as f64 / (traced_s * 1e9),
        ),
    ])
}
