//! Smoke runs of every workload on two short programs: each run must end
//! with a result line carrying exactly the metrics `BENCHMARK.json` names
//! for its mode, each also printed as a `name value unit` line.

#[path = "../src/json.rs"]
#[allow(dead_code)]
mod json;

use json::Json;
use std::process::Command;

const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

fn names_and_units(spec: &Json, key: &str) -> Vec<(String, String)> {
    spec.get(key)
        .and_then(Json::as_array)
        .expect("metric list")
        .iter()
        .map(|m| {
            let field = |k| {
                m.get(k)
                    .and_then(Json::as_str)
                    .expect("name and unit")
                    .to_string()
            };
            (field("name"), field("unit"))
        })
        .collect()
}

fn smoke(workload: &str, trace: bool) {
    let spec = Json::parse(BENCHMARK_JSON).unwrap();
    // Cargo's scratch directory for integration tests, inside the target
    // directory: the run's own scratch files land there too.
    let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR"));
    let spans = dir.join(format!("smoke-{workload}.jsonl"));
    let out = Command::new(env!("CARGO_BIN_EXE_campaign-bench"))
        .args(["--workload", workload, "--seed", "7", "--seconds", "0"])
        .args(["--trace", if trace { "1" } else { "0" }])
        .args(["--programs", "sha,stringsearch", "--faults", "24"])
        .arg("--spans")
        .arg(&spans)
        .current_dir(dir)
        .output()
        .expect("the benchmark binary runs");
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(
        out.status.success(),
        "{workload}: {}\n{stdout}",
        String::from_utf8_lossy(&out.stderr)
    );
    let last = Json::parse(stdout.lines().last().expect("output")).unwrap();
    let keys: Vec<&str> = last
        .as_object()
        .unwrap()
        .iter()
        .map(|(k, _)| k.as_str())
        .collect();
    assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
    assert_eq!(last.get("correct"), Some(&Json::Bool(true)), "{stdout}");
    assert!(last.get("attempted").and_then(Json::as_f64).unwrap() >= 1.0);
    assert_eq!(last.get("failed").and_then(Json::as_f64), Some(0.0));

    let wanted = names_and_units(&spec, if trace { "per_layer" } else { "end_to_end" });
    let metrics = last.get("metrics").and_then(Json::as_object).unwrap();
    assert_eq!(metrics.len(), wanted.len(), "{workload}: {stdout}");
    for (name, unit) in &wanted {
        let m = last.get("metrics").and_then(|m| m.get(name)).expect(name);
        let value = m.get("value").and_then(Json::as_f64);
        assert!(
            value.is_some_and(f64::is_finite),
            "{workload}: {name} is not a number"
        );
        assert_eq!(m.get("unit").and_then(Json::as_str), Some(unit.as_str()));
        let line = stdout
            .lines()
            .find(|l| l.split(' ').next() == Some(name))
            .unwrap_or_else(|| panic!("{workload}: no `{name}` line"));
        let parts: Vec<&str> = line.split(' ').collect();
        assert_eq!(parts.len(), 3, "{line}");
        assert_eq!(parts[1].parse::<f64>().ok(), value, "{line}");
        assert_eq!(parts[2], unit, "{line}");
    }
    if trace {
        let text = std::fs::read_to_string(&spans).expect("span file");
        assert!(text.lines().all(|l| Json::parse(l).is_ok()));
        assert!(text.contains("\"layer\": \"inject\""));
        let _ = std::fs::remove_file(&spans);
    }
}

#[test]
fn merlin() {
    smoke("merlin", false);
    smoke("merlin", true);
}

#[test]
fn merlin_warm() {
    smoke("merlin-warm", false);
    smoke("merlin-warm", true);
}

#[test]
fn comprehensive() {
    smoke("comprehensive", false);
    smoke("comprehensive", true);
}

#[test]
fn comprehensive_sq() {
    smoke("comprehensive-sq", false);
    smoke("comprehensive-sq", true);
}

#[test]
fn bad_arguments_fail_without_a_result() {
    for args in [
        &["--workload", "nope"][..],
        &["--seed"],
        &["merlin", "--trace", "2"],
        &[],
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_campaign-bench"))
            .args(args)
            .output()
            .unwrap();
        assert!(!out.status.success(), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?}");
    }
}
