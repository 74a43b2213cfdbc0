//! Smoke test of the benchmark itself: every workload runs at a tiny
//! horizon, every metric `BENCHMARK.json` names prints with its unit, and a
//! wrong expected digest fails the run.
//!
//! Run with `cargo test --release --manifest-path perfbench/Cargo.toml`.

use std::process::{Command, Output};

use potemkin_json::JsonValue;

const TINY_HORIZON_MS: &str = "1000";

fn contract() -> JsonValue {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    JsonValue::parse(&text).expect("BENCHMARK.json parses")
}

fn names(contract: &JsonValue, key: &str) -> Vec<(String, String)> {
    contract
        .get(key)
        .and_then(JsonValue::as_array)
        .unwrap_or_else(|| panic!("BENCHMARK.json lacks {key}"))
        .iter()
        .map(|m| {
            let field =
                |f: &str| m.get(f).and_then(JsonValue::as_str).unwrap_or_default().to_string();
            (field("name"), field("unit"))
        })
        .collect()
}

fn run(workload: &str, trace: &str, extra: &[&str]) -> Output {
    let scratch = std::path::Path::new(env!("CARGO_TARGET_TMPDIR"))
        .join(format!("perfbench-smoke-{workload}-{trace}-{}", extra.len()));
    Command::new(env!("CARGO_BIN_EXE_potemkin-perfbench"))
        .args(["--workload", workload, "--seed", "3", "--seconds", "0", "--trace", trace])
        .args(["--sim-ms", TINY_HORIZON_MS, "--scratch"])
        .arg(&scratch)
        .args(extra)
        .output()
        .expect("benchmark binary runs")
}

fn result_line(out: &Output) -> JsonValue {
    let stdout = String::from_utf8_lossy(&out.stdout);
    let last = stdout.lines().last().expect("benchmark prints a result line");
    JsonValue::parse(last).unwrap_or_else(|e| panic!("result line is JSON ({e}): {last}"))
}

/// Every workload the binary runs; `BENCHMARK.json` gates a subset.
const WORKLOADS: [&str; 3] = ["worm_outbreak", "scan_churn", "checkpoint_restore"];

#[test]
fn every_workload_prints_every_metric_with_its_unit() {
    let contract = contract();
    let gated = names(&contract, "workloads");
    assert!(gated.len() >= 2);
    assert!(gated.iter().all(|(name, _)| WORKLOADS.contains(&name.as_str())));
    for (trace, key) in [("0", "end_to_end"), ("1", "per_layer")] {
        let wanted = names(&contract, key);
        for workload in WORKLOADS {
            let out = run(workload, trace, &[]);
            assert!(out.status.success(), "{workload} --trace {trace} failed: {out:?}");
            let result = result_line(&out);
            assert_eq!(result.get("correct"), Some(&JsonValue::Bool(true)));
            assert_eq!(result.get("failed").and_then(JsonValue::as_f64), Some(0.0));
            assert!(result.get("attempted").and_then(JsonValue::as_f64).unwrap_or(0.0) >= 1.0);
            let metrics = result.get("metrics").expect("metrics object");
            for (name, unit) in &wanted {
                let metric = metrics
                    .get(name)
                    .unwrap_or_else(|| panic!("{workload} --trace {trace} lacks {name}"));
                assert!(metric
                    .get("value")
                    .and_then(JsonValue::as_f64)
                    .is_some_and(f64::is_finite));
                assert_eq!(metric.get("unit").and_then(JsonValue::as_str), Some(unit.as_str()));
            }
            if let JsonValue::Object(members) = metrics {
                assert_eq!(members.len(), wanted.len(), "{workload}: extra metrics");
            }
        }
    }
}

#[test]
fn a_wrong_expected_digest_fails_the_run() {
    for (workload, trace) in
        [("worm_outbreak", "0"), ("worm_outbreak", "1"), ("checkpoint_restore", "0")]
    {
        let out = run(workload, trace, &["--expect-digest", "0123456789abcdef"]);
        assert!(!out.status.success(), "a digest mismatch must fail the {workload} run");
        let result = result_line(&out);
        assert_eq!(result.get("correct"), Some(&JsonValue::Bool(false)));
        assert_eq!(result.get("failed").and_then(JsonValue::as_f64), Some(1.0));
        assert_eq!(result.get("metrics"), Some(&JsonValue::Object(Default::default())));
    }
}
