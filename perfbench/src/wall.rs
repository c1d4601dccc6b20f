//! The open-loop wall_paced workload: the wall-clock pipeline fed one
//! interval every 10 ms on a fixed schedule kept by the benchmark's own
//! generator thread.
//!
//! The schedule is the benchmark's, not `PipelineOptions::source_interval`:
//! that option sleeps *after* each push, so it slows down when the system
//! does. Latency is measured from outside the engine: `RunReport::latency`
//! stops after 500,000 samples and times item ingest at the root, not
//! result emission.
//!
//! The engine stamps items with its own clock (`epoch.elapsed()` at send
//! time), which starts inside `Driver::new`. The benchmark only knows that
//! epoch lies between the instants before and after `Driver::new`, so it
//! places every push in the middle of a 10 ms slot and checks, per push,
//! that the push cannot have straddled a window boundary. Windows touched
//! by an ambiguous push skip the per-window COUNT and error checks; the
//! run-wide COUNT check covers them.

use crate::calibrate::Calibration;
use crate::closed::{rss_baseline, Arrivals};
use crate::stats::{count_exact, count_of, mean, median, percentile, tail_quantile, window_error};
use crate::sysinfo;
use crate::trace::{Tracer, NO_LAYER};
use crate::workload::{exact_quantile, mix_seed, pass_seed, Dataset, Spec, QUANTILE};
use crate::{Metric, Options, Outcome, MIN_PASSES};
use approxiot_bench::json::Json;
use approxiot_runtime::{Driver, RunReport, WindowResult};
use std::collections::{BTreeMap, BTreeSet};
use std::time::{Duration, Instant};

/// A window whose result takes longer than this counts as failed.
const LATENCY_LIMIT_MS: f64 = 500.0;
/// How long to keep polling for outstanding windows after the last push.
const DRAIN_LIMIT: Duration = Duration::from_secs(1);
/// Pushing time of one pass. Each pass is a fresh `Driver`: the broker
/// keeps every frame it was sent until the engine finishes (about 50 bytes
/// per source item across the four hops, 100 MB per second of stream at
/// this rate), so the stream is cut into passes to bound memory.
const PASS_SECONDS: f64 = 2.0;
/// Extra `Topology::build` + `Driver::new` measurements for `setup_s`
/// beyond the one each pass makes.
const SETUP_PROBES: usize = 40;
/// Longest sleep between polls while the generator waits.
const POLL_STEP: Duration = Duration::from_millis(1);

/// One pass of the stream.
struct StreamPass {
    setup_s: f64,
    pushes: Vec<Push>,
    arrivals: Arrivals,
    push_errors: u64,
    finish_ms: f64,
    /// First push until `finish` returned.
    run_s: f64,
    report: RunReport,
}

/// Streams `slots` intervals on the fixed schedule through a fresh
/// driver, then waits for outstanding windows and finishes.
fn stream_pass(spec: &Spec, data: &Dataset, seed: u64, slots: usize, t: &mut Tracer) -> StreamPass {
    let per_window = (spec.window.as_nanos() / spec.interval.as_nanos()) as usize;
    let window_ns = spec.window.as_nanos() as u64;
    let interval = spec.interval;
    let before = Instant::now();
    let mut driver = Driver::new(spec.topology(seed), spec.queries(), spec.engine())
        .expect("the benchmark workloads are valid");
    let after = Instant::now();
    let mut pushes = Vec::with_capacity(slots);
    let mut arrivals = Arrivals::default();
    let mut push_errors = 0;
    for k in 0..slots {
        // Push k sits mid-slot: the engine clock starts inside
        // Driver::new, between `before` and `after`.
        let due = before + interval * k as u32 + interval / 2;
        while Instant::now() < due {
            arrivals.poll(&mut driver, t);
            std::thread::sleep(due.saturating_duration_since(Instant::now()).min(POLL_STEP));
        }
        let source = k % data.intervals.len();
        let start = Instant::now();
        if t.span("driver.push", NO_LAYER, |_| {
            driver.push_interval(&data.intervals[source])
        })
        .is_err()
        {
            push_errors += 1;
        }
        let end = Instant::now();
        // Bounds of the push on the engine clock, whose epoch lies in
        // [before, after].
        let lo = start.saturating_duration_since(after).as_nanos() as u64;
        let hi = end.duration_since(before).as_nanos() as u64;
        let window = (k / per_window) as u64;
        pushes.push(Push {
            due,
            start,
            end,
            source,
            window,
            certain: lo / window_ns == window && hi / window_ns == window,
        });
        arrivals.poll(&mut driver, t);
    }
    let expected = slots / per_window;
    let last_push = Instant::now();
    while arrivals.windows().len() < expected && last_push.elapsed() < DRAIN_LIMIT {
        arrivals.poll(&mut driver, t);
        std::thread::sleep(POLL_STEP);
    }
    let finish_start = Instant::now();
    let report = t.span("driver.finish", NO_LAYER, |_| driver.finish());
    let end = Instant::now();
    arrivals.finished(&report, end);
    StreamPass {
        setup_s: after.duration_since(before).as_secs_f64(),
        run_s: end
            .duration_since(pushes.first().map_or(end, |p: &Push| p.start))
            .as_secs_f64(),
        pushes,
        arrivals,
        push_errors,
        finish_ms: end.duration_since(finish_start).as_secs_f64() * 1e3,
        report,
    }
}

/// The correctness gate of one pass, plus its latency and error samples.
#[derive(Default)]
struct Checked {
    expected: u64,
    ok: u64,
    items: u64,
    dropped_late: u64,
    ambiguous: usize,
    latencies: Vec<f64>,
    errors: Vec<f64>,
    failures: Vec<String>,
}

fn check_pass(data: &Dataset, pass: &StreamPass, p: usize) -> Checked {
    let mut c = Checked::default();
    let results = &pass.report.results;
    c.items = pass
        .pushes
        .iter()
        .map(|p| data.truths[p.source].count)
        .sum();
    let by_window: BTreeMap<u64, &WindowResult> = results.iter().map(|r| (r.window, r)).collect();
    let mut times_returned: BTreeMap<u64, u32> = BTreeMap::new();
    for (w, _) in &pass.arrivals.list {
        *times_returned.entry(*w).or_insert(0) += 1;
    }
    let count_total: f64 = results.iter().map(count_of).sum();
    if !count_exact(count_total, c.items) {
        c.failures.push(format!(
            "pass {p}: COUNT sums to {count_total}, {} items pushed",
            c.items
        ));
    }
    c.dropped_late = results.iter().map(|r| r.dropped_late).sum();
    if c.dropped_late > 0 {
        c.failures.push(format!(
            "pass {p}: root dropped {} items late",
            c.dropped_late
        ));
    }
    if pass.push_errors > 0 {
        c.failures
            .push(format!("pass {p}: {} push errors", pass.push_errors));
    }
    for (w, n) in &times_returned {
        if *n != 1 {
            c.failures
                .push(format!("pass {p}: window {w} returned {n} times"));
        }
    }
    let uncertain: BTreeSet<u64> = pass
        .pushes
        .iter()
        .filter(|p| !p.certain)
        .flat_map(|p| [p.window.saturating_sub(1), p.window, p.window + 1])
        .collect();
    let expected: BTreeSet<u64> = pass.pushes.iter().map(|p| p.window).collect();
    c.expected = expected.len() as u64;
    c.ambiguous = uncertain.intersection(&expected).count();
    for &w in &expected {
        let in_window: Vec<&Push> = pass.pushes.iter().filter(|p| p.window == w).collect();
        let last_due = in_window
            .iter()
            .map(|p| p.due)
            .max()
            .expect("expected windows have pushes");
        let arrival = pass
            .arrivals
            .list
            .iter()
            .find(|(id, _)| *id == w)
            .map(|(_, at)| *at);
        let (Some(result), Some(at)) = (by_window.get(&w), arrival) else {
            c.failures.push(format!("pass {p}: window {w} missing"));
            continue;
        };
        let latency = at.saturating_duration_since(last_due).as_secs_f64() * 1e3;
        c.latencies.push(latency);
        let mut correct = times_returned.get(&w) == Some(&1);
        if !uncertain.contains(&w) {
            let count: u64 = in_window.iter().map(|p| data.truths[p.source].count).sum();
            if !count_exact(count_of(result), count) {
                correct = false;
                c.failures.push(format!(
                    "pass {p}: window {w}: COUNT {} for {count} items",
                    count_of(result)
                ));
            }
            let sum: f64 = in_window.iter().map(|p| data.truths[p.source].sum).sum();
            let mut values: Vec<f64> = in_window
                .iter()
                .flat_map(|p| data.truths[p.source].values.iter().copied())
                .collect();
            c.errors.push(window_error(
                result,
                sum,
                exact_quantile(&mut values, QUANTILE),
                QUANTILE,
            ));
        }
        if correct && latency <= LATENCY_LIMIT_MS {
            c.ok += 1;
        }
    }
    c
}

/// Runs the wall-clock stream for `opts.seconds` of pushing (in passes of
/// `PASS_SECONDS`) and reports the end-to-end (untraced) or driver-layer
/// (traced) metrics.
pub fn run(spec: &Spec, data: &Dataset, seed: u64, opts: &Options) -> Outcome {
    let mut outcome = Outcome::new(spec, seed, opts);
    let mut tracer = Tracer::new(opts.trace);
    // Setup times are calibrated to the reference host speed (see
    // `calibrate`); latency and throughput are set by the schedule and the
    // engine's timers, so they are reported raw.
    let mut calibration = Calibration::default();
    let mut setups = Vec::with_capacity(SETUP_PROBES);
    let mut raw_setups = Vec::with_capacity(SETUP_PROBES);
    for probe in 0..SETUP_PROBES {
        let factor = calibration.factor();
        let start = Instant::now();
        let driver = Driver::new(
            spec.topology(mix_seed(seed, probe as u64)),
            spec.queries(),
            spec.engine(),
        )
        .expect("the benchmark workloads are valid");
        let setup_s = start.elapsed().as_secs_f64();
        setups.push(setup_s * factor);
        raw_setups.push(setup_s);
        drop(driver);
    }
    let baseline_kb = rss_baseline();
    let per_window = (spec.window.as_nanos() / spec.interval.as_nanos()) as usize;
    let pass_seconds = PASS_SECONDS.min(opts.seconds);
    let n_passes = ((opts.seconds / pass_seconds).round() as usize).max(MIN_PASSES);
    let slots = ((pass_seconds / spec.interval.as_secs_f64()).round() as usize / per_window).max(1)
        * per_window;
    let mut passes = Vec::with_capacity(n_passes);
    let mut peak_kb = 0;
    for p in 0..n_passes {
        tracer.set_run(p as u32);
        let factor = calibration.factor();
        passes.push(stream_pass(
            spec,
            data,
            pass_seed(seed, p),
            slots,
            &mut tracer,
        ));
        setups.push(passes[p].setup_s * factor);
        raw_setups.push(passes[p].setup_s);
        if p == 0 {
            // Memory is the first pass's peak: a stream pass holds hundreds
            // of MB, far above the error of one resident-set reading.
            peak_kb = sysinfo::status_kb("VmHWM").unwrap_or(0);
        }
    }

    let mut all = Checked::default();
    for (p, pass) in passes.iter().enumerate() {
        let c = check_pass(data, pass, p);
        all.expected += c.expected;
        all.ok += c.ok;
        all.dropped_late += c.dropped_late;
        all.ambiguous += c.ambiguous;
        all.latencies.extend(c.latencies);
        all.errors.extend(c.errors);
        all.failures.extend(c.failures);
    }
    let push_errors: u64 = passes.iter().map(|p| p.push_errors).sum();
    outcome.failures = all.failures;
    outcome.attempted = all.expected;
    outcome.failed = all.expected - all.ok + push_errors;
    let tail = tail_quantile(all.latencies.len());
    outcome.note("passes", Json::from(n_passes));
    outcome.note("windows_expected", Json::from(all.expected));
    outcome.note("latency_samples", Json::from(all.latencies.len()));
    outcome.note("latency_tail_quantile", Json::from(tail));
    outcome.note("ambiguous_windows", Json::from(all.ambiguous));
    outcome.note("error_windows", Json::from(all.errors.len()));
    if !opts.trace {
        let rates: Vec<f64> = passes
            .iter()
            .map(|p| {
                p.pushes
                    .iter()
                    .map(|x| data.truths[x.source].count)
                    .sum::<u64>() as f64
                    / p.run_s
            })
            .collect();
        let wan: Vec<f64> = passes
            .iter()
            .map(|p| {
                p.report.bytes.sampled_wire_bytes() as f64 / p.report.source_items.max(1) as f64
            })
            .collect();
        outcome.push(Metric::new("setup_s", median(&setups), "s"));
        outcome.push(Metric::new("items_per_s", median(&rates), "1/s"));
        outcome.push(Metric::new(
            "result_latency_p50_ms",
            percentile(&all.latencies, 0.5),
            "ms",
        ));
        outcome.push(Metric::new(
            "result_latency_p95_ms",
            percentile(&all.latencies, tail),
            "ms",
        ));
        outcome.push(Metric::new("window_ok_frac", outcome.ok_frac(), "ratio"));
        outcome.push(Metric::new("rel_error_mean", mean(&all.errors), "ratio"));
        outcome.push(Metric::new("wan_bytes_per_item", median(&wan), "B"));
        outcome.push(Metric::new(
            "peak_rss_mb",
            peak_kb.saturating_sub(baseline_kb) as f64 / 1024.0,
            "MB",
        ));
        outcome.note("rss_baseline_kb", Json::from(baseline_kb));
        outcome.note("raw_setup_s", Json::from(median(&raw_setups)));
        return outcome;
    }
    let pushes: Vec<&Push> = passes.iter().flat_map(|p| &p.pushes).collect();
    let push_ms: Vec<f64> = pushes
        .iter()
        .map(|p| p.end.duration_since(p.start).as_secs_f64() * 1e3)
        .collect();
    let lag_ms: Vec<f64> = pushes
        .iter()
        .map(|p| p.start.saturating_duration_since(p.due).as_secs_f64() * 1e3)
        .collect();
    let finishes: Vec<f64> = passes.iter().map(|p| p.finish_ms).collect();
    let polls: u64 = passes.iter().map(|p| p.arrivals.polls).sum();
    let returned: u64 = passes.iter().map(|p| p.arrivals.returned).sum();
    let windows: Vec<f64> = passes
        .iter()
        .map(|p| p.report.results.len() as f64)
        .collect();
    outcome.push(Metric::new(
        "driver.push_ms_p50",
        percentile(&push_ms, 0.5),
        "ms",
    ));
    outcome.push(Metric::new(
        "driver.push_ms_p95",
        percentile(&push_ms, tail_quantile(push_ms.len())),
        "ms",
    ));
    outcome.push(Metric::new("driver.finish_ms", median(&finishes), "ms"));
    outcome.push(Metric::new(
        "driver.gen_lag_p95_ms",
        percentile(&lag_ms, tail_quantile(lag_ms.len())),
        "ms",
    ));
    outcome.push(Metric::new(
        "driver.poll_returned_frac",
        returned as f64 / polls.max(1) as f64,
        "ratio",
    ));
    outcome.push(Metric::new("root.windows", median(&windows), "count"));
    outcome.push(Metric::new(
        "root.dropped_late",
        all.dropped_late as f64,
        "count",
    ));
    // Spans on this workload wrap only the Driver's calls; the layers
    // inside the threaded engine are not measured here.
    let mut unmeasured = Vec::new();
    for (name, unit) in crate::PER_LAYER {
        if outcome.metric(name).is_none() {
            outcome.push(Metric::new(name, 0.0, unit));
            unmeasured.push(Json::from(name));
        }
    }
    outcome.note("unmeasured_reported_as_0", Json::Arr(unmeasured));
    outcome.tracer = Some(tracer);
    outcome
}

/// One scheduled push.
struct Push {
    due: Instant,
    start: Instant,
    end: Instant,
    /// Which generated interval was pushed.
    source: usize,
    /// The window the schedule places it in.
    window: u64,
    /// Whether its engine-clock span provably lies in that window.
    certain: bool,
}
