//! `compare A.jsonl B.jsonl`: the parent's runs (A) against the change's
//! (B), per workload and metric, under the bounds of `BENCHMARK.json`.
//!
//! A results file is the standard output of any number of runs appended
//! together; every record line (a JSON object with a `workload` key) of an
//! untraced run is one sample.  Runs compare only with runs of the same
//! settings (run length, program and fault overrides).  A change fails a
//! metric when its median is worse than the parent's by more than the
//! bound.  When the parent's own quartile spread is wider than the bound,
//! the metric is unresolved, unless every run of the change beats every run
//! of the parent.

use crate::json::Json;
use crate::spec::Spec;
use crate::stats::{median, quartiles};
use std::collections::{BTreeMap, BTreeSet};
use std::process::ExitCode;

/// (workload, settings) → metric → values.
type Samples = BTreeMap<(String, String), BTreeMap<String, Vec<f64>>>;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Within the bound.
    Ok,
    /// Every run of the change beats every run of the parent.
    Better,
    /// Worse than the parent's median by more than the bound.
    Regression,
    /// The parent's spread exceeds the bound, so the bound cannot decide.
    Unresolved,
    /// No bound: per-layer metrics are reported, not judged.
    Info,
}

pub fn main(args: &[String]) -> Result<ExitCode, String> {
    let [a_path, b_path] = args else {
        return Err("usage: compare <A.jsonl> <B.jsonl>".into());
    };
    let spec = Spec::load()?;
    let (a, b) = (load(a_path)?, load(b_path)?);
    let mut regressions = 0;
    for ((workload, settings), a_metrics) in &a {
        let Some(b_metrics) = b.get(&(workload.clone(), settings.clone())) else {
            continue;
        };
        println!("# {workload} ({settings})");
        println!(
            "{:<32} {:>7} {:>14} {:>30} {:>14} {:>30}  verdict",
            "metric", "n", "A median", "A q1..q3", "B median", "B q1..q3"
        );
        for (metric, av) in a_metrics {
            let Some(bv) = b_metrics.get(metric) else {
                continue;
            };
            let m = spec.metric(metric);
            let verdict = judge(
                m.is_some_and(|m| m.higher_is_better),
                m.and_then(|m| m.bound),
                av,
                bv,
            );
            if verdict == Verdict::Regression {
                regressions += 1;
            }
            let range = |v: &[f64]| {
                quartiles(v).map_or("-".to_string(), |(q1, q3)| format!("{q1:.6}..{q3:.6}"))
            };
            println!(
                "{:<32} {:>7} {:>14.6} {:>30} {:>14.6} {:>30}  {verdict:?}",
                metric,
                format!("{}/{}", av.len(), bv.len()),
                median(av).unwrap_or(f64::NAN),
                range(av),
                median(bv).unwrap_or(f64::NAN),
                range(bv),
            );
        }
    }
    let (ka, kb): (BTreeSet<_>, BTreeSet<_>) = (a.keys().collect(), b.keys().collect());
    for (workload, settings) in ka.symmetric_difference(&kb) {
        println!("# {workload} ({settings}): runs in one file only, not compared");
    }
    println!("{regressions} regression(s)");
    Ok(if regressions > 0 {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    })
}

/// Every numeric metric value of every untraced record line in `path`.
fn load(path: &str) -> Result<Samples, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    Ok(samples(&text))
}

fn samples(text: &str) -> Samples {
    let mut out = Samples::new();
    let records = text
        .lines()
        .filter(|l| l.trim_start().starts_with('{'))
        .filter_map(|l| Json::parse(l).ok());
    for record in records {
        let Some(workload) = record.get("workload").and_then(Json::as_str) else {
            continue;
        };
        // A traced run also times the layer probes and, on MeRLiN
        // workloads, the split cells: its numbers are not the workload's.
        if record.get("trace").and_then(Json::as_f64) != Some(0.0) {
            continue;
        }
        let group = out
            .entry((workload.to_string(), settings(&record)))
            .or_default();
        let metrics = record
            .get("metrics")
            .and_then(Json::as_object)
            .unwrap_or(&[]);
        for (name, m) in metrics {
            if let Some(v) = m.get("value").and_then(Json::as_f64) {
                group.entry(name.clone()).or_default().push(v);
            }
        }
    }
    out
}

/// The settings besides the seed that size a run's work.
fn settings(record: &Json) -> String {
    ["seconds", "programs", "faults_per_cell"]
        .map(|key| format!("{key} {}", record.get(key).unwrap_or(&Json::Null)))
        .join(", ")
}

pub fn judge(higher_is_better: bool, bound: Option<f64>, a: &[f64], b: &[f64]) -> Verdict {
    let (Some(bound), Some(ma), Some(mb)) = (bound, median(a), median(b)) else {
        return Verdict::Info;
    };
    let beats = |new: f64, old: f64| {
        if higher_is_better {
            new > old
        } else {
            new < old
        }
    };
    if b.iter().all(|&y| a.iter().all(|&x| beats(y, x))) {
        return Verdict::Better;
    }
    let relative = |d: f64| {
        if d == 0.0 {
            0.0
        } else if ma == 0.0 {
            d.signum() * f64::INFINITY
        } else {
            d / ma.abs()
        }
    };
    let spread = quartiles(a).map_or(f64::INFINITY, |(q1, q3)| relative(q3 - q1));
    if spread > bound {
        return Verdict::Unresolved;
    }
    let worse = relative(if higher_is_better { ma - mb } else { mb - ma });
    if worse > bound {
        Verdict::Regression
    } else {
        Verdict::Ok
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const A: [f64; 5] = [100.0, 101.0, 99.0, 100.5, 99.5];

    #[test]
    fn the_bound_decides_when_the_parent_is_steady() {
        // Throughput 9% down: inside a 10% bound.
        let b: Vec<f64> = A.iter().map(|x| x * 0.91).collect();
        assert_eq!(judge(true, Some(0.1), &A, &b), Verdict::Ok);
        // 12% down: a regression.
        let b: Vec<f64> = A.iter().map(|x| x * 0.88).collect();
        assert_eq!(judge(true, Some(0.1), &A, &b), Verdict::Regression);
        // For a time, up is worse.
        let b: Vec<f64> = A.iter().map(|x| x * 1.12).collect();
        assert_eq!(judge(false, Some(0.1), &A, &b), Verdict::Regression);
        assert_eq!(judge(true, Some(0.1), &A, &b), Verdict::Better);
    }

    #[test]
    fn a_noisy_parent_is_unresolved_unless_every_run_wins() {
        let noisy = [60.0, 100.0, 140.0, 80.0, 120.0];
        let b = [50.0, 95.0, 61.0];
        assert_eq!(judge(true, Some(0.1), &noisy, &b), Verdict::Unresolved);
        let b = [141.0, 150.0];
        assert_eq!(judge(true, Some(0.1), &noisy, &b), Verdict::Better);
        assert_eq!(judge(true, None, &A, &A), Verdict::Info);
        assert_eq!(judge(false, Some(0.1), &[0.0, 0.0], &[0.0]), Verdict::Ok);
    }

    #[test]
    fn samples_come_from_untraced_record_lines_grouped_by_settings() {
        let record = |trace: u8, seconds: u8, programs: &str, value: u32| {
            format!(
                "{{\"workload\": \"merlin\", \"trace\": {trace}, \"seconds\": {seconds}, \
                 \"programs\": {programs}, \"faults_per_cell\": null, \"metrics\": \
                 {{\"faults_per_s\": {{\"value\": {value}, \"unit\": \"1/s\"}}, \
                 \"x\": {{\"value\": null, \"unit\": \"s\"}}}}}}\n"
            )
        };
        let text = [
            "# seed 1\nfaults_per_s 10 1/s\n".to_string(),
            record(0, 12, "null", 10),
            // The result line: no workload.
            "{\"correct\": true, \"metrics\": {\"faults_per_s\": {\"value\": 99, \"unit\": \"1/s\"}}}\n"
                .to_string(),
            // A traced run of the same settings.
            record(1, 12, "null", 7),
            record(0, 12, "null", 12),
            // Other settings: a shorter run, and a restricted program mix.
            record(0, 6, "null", 20),
            record(0, 12, "\"sha\"", 30),
        ]
        .concat();
        let s = samples(&text);
        let full = (
            "merlin".to_string(),
            settings(&Json::parse(&record(0, 12, "null", 0)).unwrap()),
        );
        assert_eq!(full.1, "seconds 12, programs null, faults_per_cell null");
        assert_eq!(s[&full]["faults_per_s"], vec![10.0, 12.0]);
        assert!(!s[&full].contains_key("x"));
        let mut others: Vec<f64> = s
            .iter()
            .filter(|(k, _)| **k != full)
            .map(|(_, m)| m["faults_per_s"][0])
            .collect();
        others.sort_by(f64::total_cmp);
        assert_eq!(others, [20.0, 30.0]);
    }
}
