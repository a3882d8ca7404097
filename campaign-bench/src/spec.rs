//! `BENCHMARK.json`, compiled in: the metric names, units, directions and
//! bounds the result line and `compare` use.

use crate::json::Json;

const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

#[derive(Debug, Clone)]
pub struct MetricSpec {
    pub name: String,
    pub unit: String,
    pub higher_is_better: bool,
    /// Share of the parent's median the metric may worsen by (end-to-end
    /// metrics only).
    pub bound: Option<f64>,
}

#[derive(Debug)]
pub struct Spec {
    pub run_seconds: f64,
    pub workloads: Vec<String>,
    pub end_to_end: Vec<MetricSpec>,
    pub per_layer: Vec<MetricSpec>,
}

impl Spec {
    pub fn load() -> Result<Spec, String> {
        Spec::parse(BENCHMARK_JSON)
    }

    pub fn parse(text: &str) -> Result<Spec, String> {
        let root = Json::parse(text).map_err(|e| format!("BENCHMARK.json: {e}"))?;
        let list = |key: &str| {
            root.get(key)
                .and_then(Json::as_array)
                .ok_or(format!("BENCHMARK.json: missing `{key}`"))
        };
        let metrics = |key: &str| -> Result<Vec<MetricSpec>, String> {
            list(key)?
                .iter()
                .map(|m| {
                    let field = |k: &str| {
                        m.get(k)
                            .and_then(Json::as_str)
                            .map(str::to_string)
                            .ok_or(format!("BENCHMARK.json: a `{key}` metric lacks `{k}`"))
                    };
                    Ok(MetricSpec {
                        name: field("name")?,
                        unit: field("unit")?,
                        higher_is_better: field("better")? == "higher",
                        bound: m.get("bound").and_then(Json::as_f64),
                    })
                })
                .collect()
        };
        Ok(Spec {
            run_seconds: root
                .get("run_seconds")
                .and_then(Json::as_f64)
                .ok_or("BENCHMARK.json: missing `run_seconds`")?,
            workloads: list("workloads")?
                .iter()
                .filter_map(|w| w.get("name").and_then(Json::as_str).map(str::to_string))
                .collect(),
            end_to_end: metrics("end_to_end")?,
            per_layer: metrics("per_layer")?,
        })
    }

    pub fn metric(&self, name: &str) -> Option<&MetricSpec> {
        self.end_to_end
            .iter()
            .chain(&self.per_layer)
            .find(|m| m.name == name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::WORKLOADS;

    #[test]
    fn benchmark_json_names_exactly_the_workloads_defined_here() {
        let spec = Spec::load().unwrap();
        let defined: Vec<_> = WORKLOADS.iter().map(|w| w.name.to_string()).collect();
        assert_eq!(spec.workloads, defined);
        assert!(spec.run_seconds >= 1.0);
        let setup = spec.metric("setup_s").unwrap();
        assert_eq!((setup.unit.as_str(), setup.higher_is_better), ("s", false));
        for m in &spec.end_to_end {
            let b = m.bound.unwrap();
            assert!(b > 0.0 && b <= 0.25, "{}: bound {b}", m.name);
        }
        assert!(spec.per_layer.iter().all(|m| m.bound.is_none()));
    }
}
