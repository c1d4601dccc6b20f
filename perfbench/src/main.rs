//! Command line: `--workload <name> --seed <n> --seconds <s> --trace <0|1>`.
//! See the library docs for what is measured.

// The benchmark exists to read the wall clock; the repository's D1 lint
// (no wall-clock reads) guards the engines' replay determinism, not this.
#![allow(clippy::disallowed_methods)]

use approxiot_bench::json::Json;
use approxiot_perfbench::workload::Spec;
use approxiot_perfbench::{environment, run, Options};
use std::path::PathBuf;
use std::process::ExitCode;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => args.seconds = value.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".to_string()),
                }
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    if args.seconds.is_nan() || args.seconds <= 0.0 {
        return Err("--seconds must be positive".to_string());
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let Some(spec) = Spec::named(&args.workload) else {
        eprintln!(
            "perfbench: unknown workload {:?}; one of {:?}",
            args.workload,
            Spec::names()
        );
        return ExitCode::from(2);
    };
    let opts = Options {
        seconds: args.seconds,
        trace: args.trace,
    };
    let outcome = run(&spec, args.seed, &opts);
    let env = environment(&outcome);
    let stem = format!(
        "{}-seed{}-trace{}",
        spec.name,
        args.seed,
        u8::from(args.trace)
    );
    let dir = PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/out"));
    let record = Json::obj([
        ("environment", env.clone()),
        ("result", outcome.result_json()),
        (
            "failures",
            Json::Arr(
                outcome
                    .failures
                    .iter()
                    .map(|f| Json::from(f.as_str()))
                    .collect(),
            ),
        ),
    ]);
    let written = std::fs::create_dir_all(&dir).and_then(|()| {
        std::fs::write(dir.join(format!("{stem}.json")), record.to_pretty())?;
        if let Some(tracer) = &outcome.tracer {
            // Spans of the first two passes (runs 0-3).
            let first: usize = tracer.spans().iter().take_while(|s| s.run < 4).count();
            std::fs::write(
                dir.join(format!("{stem}.spans.jsonl")),
                tracer.to_jsonl(first),
            )?;
        }
        Ok(())
    });
    if let Err(e) = written {
        eprintln!("perfbench: could not write {}: {e}", dir.display());
    }
    eprintln!("environment: {}", approxiot_perfbench::trace::compact(&env));
    for failure in &outcome.failures {
        eprintln!("FAIL: {failure}");
    }
    println!("{}", outcome.result_line());
    if outcome.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
