//! A reduced-size run of all four workloads: the correctness gate passes,
//! every named metric prints with its unit, and the traced replica is
//! bit-identical to the untraced `Driver` run.

use approxiot_bench::json::Json;
use approxiot_perfbench::workload::Spec;
use approxiot_perfbench::{run, Options, END_TO_END, PER_LAYER};

fn reduced_run(name: &str, trace: bool) -> Json {
    let spec = Spec::named(name).expect("known workload").reduced(20);
    let opts = Options {
        seconds: 0.3,
        trace,
    };
    let outcome = run(&spec, 7, &opts);
    assert!(
        outcome.correct(),
        "{name} (trace {trace}) failed its gate: {:?}",
        outcome.failures
    );
    let line = outcome.result_line();
    assert!(!line.contains('\n'), "the result is one line");
    Json::parse(&line).expect("the result line is JSON")
}

fn assert_metrics(name: &str, result: &Json, expected: &[(&str, &str)]) {
    let metrics = result.get("metrics").expect("metrics object");
    let Json::Obj(map) = metrics else {
        panic!("metrics is an object")
    };
    assert_eq!(
        map.len(),
        expected.len(),
        "{name}: exactly the named metrics"
    );
    for (metric, unit) in expected {
        let entry = metrics
            .get(metric)
            .unwrap_or_else(|| panic!("{name}: {metric} missing"));
        assert_eq!(
            entry.get("unit").and_then(Json::as_str),
            Some(*unit),
            "{name}: {metric} unit"
        );
        let value = entry.get("value").and_then(Json::as_f64);
        assert!(
            value.is_some_and(f64::is_finite),
            "{name}: {metric} is a number"
        );
    }
    assert_eq!(result.get("correct"), Some(&Json::Bool(true)));
    assert!(result.get("attempted").and_then(Json::as_u64).unwrap_or(0) >= 1);
    assert_eq!(result.get("failed").and_then(Json::as_u64), Some(0));
}

#[test]
fn every_workload_passes_its_gate_and_prints_every_metric() {
    for name in Spec::names() {
        assert_metrics(name, &reduced_run(name, false), &END_TO_END);
        // The traced run fails its gate unless the replica reproduces the
        // Driver run bit for bit.
        assert_metrics(name, &reduced_run(name, true), &PER_LAYER);
    }
}

#[test]
fn benchmark_json_names_the_same_metrics_and_workloads() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let bench = Json::parse(&text).expect("BENCHMARK.json parses");
    let names = |key: &str| -> Vec<(String, Option<String>)> {
        bench
            .get(key)
            .and_then(Json::as_arr)
            .expect("array")
            .iter()
            .map(|m| {
                (
                    m.get("name")
                        .and_then(Json::as_str)
                        .expect("name")
                        .to_string(),
                    m.get("unit").and_then(Json::as_str).map(str::to_string),
                )
            })
            .collect()
    };
    let declared = |table: &[(&str, &str)]| -> Vec<(String, Option<String>)> {
        table
            .iter()
            .map(|(n, u)| (n.to_string(), Some(u.to_string())))
            .collect()
    };
    assert_eq!(names("end_to_end"), declared(&END_TO_END));
    assert_eq!(names("per_layer"), declared(&PER_LAYER));
    let workloads: Vec<String> = names("workloads").into_iter().map(|(n, _)| n).collect();
    assert_eq!(workloads, Spec::names());
}
