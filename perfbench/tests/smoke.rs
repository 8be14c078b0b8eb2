//! Smoke-size runs of every workload: each prints the host record and a
//! result line that parses, passes its checks, and carries every metric
//! `BENCHMARK.json` names, with its unit. Run with
//! `cargo test --release --manifest-path perfbench/Cargo.toml`.

use ptatin_prof::json::{parse, Value};
use std::process::Command;

const WORKLOADS: [&str; 3] = ["rift", "zoo", "transport"];

fn benchmark_json() -> Value {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    parse(&text).expect("BENCHMARK.json parses")
}

/// `(name, unit)` of every metric in one section of `BENCHMARK.json`.
fn declared(section: &str) -> Vec<(String, String)> {
    benchmark_json()
        .get(section)
        .and_then(Value::as_arr)
        .expect("metric section")
        .iter()
        .map(|m| {
            let field = |k: &str| m.get(k).and_then(Value::as_str).expect(k).to_string();
            (field("name"), field("unit"))
        })
        .collect()
}

/// Run one smoke-size repetition; returns (host record, result line).
fn run(workload: &str, trace: u8) -> (Value, Value) {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--workload", workload, "--seed", "3", "--seconds", "1"])
        .args(["--trace", &trace.to_string(), "--smoke"])
        .output()
        .expect("benchmark binary runs");
    assert!(out.status.success(), "{workload}: exit {:?}", out.status);
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    let lines: Vec<&str> = stdout.lines().collect();
    let host = lines
        .iter()
        .find(|l| l.starts_with("{\"host\""))
        .expect("host record");
    let result = lines.last().expect("result line");
    (
        parse(host).expect("host parses"),
        parse(result).expect("result parses"),
    )
}

#[test]
fn every_workload_prints_every_metric_with_its_unit() {
    let declared_workloads: Vec<String> = benchmark_json()
        .get("workloads")
        .and_then(Value::as_arr)
        .expect("workloads")
        .iter()
        .map(|w| {
            w.get("name")
                .and_then(Value::as_str)
                .expect("name")
                .to_string()
        })
        .collect();
    assert_eq!(declared_workloads, WORKLOADS);
    for workload in WORKLOADS {
        for (trace, section) in [(0, "end_to_end"), (1, "per_layer")] {
            let (host, result) = run(workload, trace);
            for fact in [
                "nproc",
                "l2_kib",
                "l3_kib",
                "simd",
                "git_rev",
                "seed",
                "pool_threads",
            ] {
                assert!(
                    host.get("host").and_then(|h| h.get(fact)).is_some(),
                    "{fact}"
                );
            }
            let Value::Obj(top) = &result else {
                panic!("result is not an object")
            };
            let keys: Vec<&str> = top.keys().map(String::as_str).collect();
            assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
            assert_eq!(
                result.get("correct"),
                Some(&Value::Bool(true)),
                "{workload}"
            );
            assert!(result.get("attempted").and_then(Value::as_f64) >= Some(1.0));
            assert_eq!(result.get("failed").and_then(Value::as_f64), Some(0.0));
            let Some(Value::Obj(metrics)) = result.get("metrics") else {
                panic!("metrics is not an object")
            };
            let want = declared(section);
            assert_eq!(metrics.len(), want.len(), "{workload} trace {trace}");
            for (name, unit) in want {
                let m = metrics
                    .get(&name)
                    .unwrap_or_else(|| panic!("{workload}: {name}"));
                assert!(m.get("value").and_then(Value::as_f64).is_some(), "{name}");
                assert_eq!(m.get("unit").and_then(Value::as_str), Some(unit.as_str()));
            }
        }
    }
}

#[test]
fn bad_arguments_fail_without_a_result() {
    for args in [
        "--workload nope --seed 1 --seconds 1 --trace 0",
        "--workload rift --seed x --seconds 1 --trace 0",
        "--workload rift --seed 1 --seconds 1 --trace 2",
        "--workload rift --seed 1 --trace 0",
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
            .args(args.split(' '))
            .output()
            .expect("benchmark binary runs");
        assert!(!out.status.success(), "{args}");
        assert!(out.stdout.is_empty(), "{args}");
    }
}
