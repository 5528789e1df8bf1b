//! The benchmark's definition, read from `BENCHMARK.json` itself.
//!
//! The file at the repository root is compiled in, so the metric names,
//! units and bounds this program prints and compares against are the ones
//! the file states — they cannot drift apart.

use agl_obs::json::Value;

const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

/// One metric definition of `BENCHMARK.json`.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricDef {
    pub name: String,
    pub unit: String,
    /// True when a lower value is better.
    pub lower_is_better: bool,
    /// Share of the parent's median by which the metric may worsen;
    /// `None` for per-layer metrics, which are not gated.
    pub bound: Option<f64>,
}

/// The parsed definition.
#[derive(Debug, Clone)]
pub struct Spec {
    pub run_seconds: u64,
    pub workloads: Vec<String>,
    pub end_to_end: Vec<MetricDef>,
    pub per_layer: Vec<MetricDef>,
}

fn metric_defs(root: &Value, key: &str) -> Result<Vec<MetricDef>, String> {
    let arr = root.get(key).and_then(Value::as_arr).ok_or_else(|| format!("BENCHMARK.json: no `{key}` array"))?;
    arr.iter()
        .map(|m| {
            let field = |f: &str| {
                m.get(f).and_then(Value::as_str).map(str::to_string).ok_or_else(|| format!("`{key}` entry lacks `{f}`"))
            };
            let better = field("better")?;
            if better != "lower" && better != "higher" {
                return Err(format!("`better` must be lower or higher, got {better:?}"));
            }
            Ok(MetricDef {
                name: field("name")?,
                unit: field("unit")?,
                lower_is_better: better == "lower",
                bound: m.get("bound").and_then(Value::as_f64),
            })
        })
        .collect()
}

impl Spec {
    /// Parse the compiled-in `BENCHMARK.json`.
    pub fn load() -> Result<Self, String> {
        Self::parse(BENCHMARK_JSON)
    }

    pub fn parse(text: &str) -> Result<Self, String> {
        let root = Value::parse(text).map_err(|e| format!("BENCHMARK.json: {e}"))?;
        let workloads = root
            .get("workloads")
            .and_then(Value::as_arr)
            .ok_or("BENCHMARK.json: no `workloads` array")?
            .iter()
            .map(|w| w.get("name").and_then(Value::as_str).map(str::to_string).ok_or("workload without a name"))
            .collect::<Result<Vec<_>, _>>()?;
        Ok(Self {
            run_seconds: root.get("run_seconds").and_then(Value::as_u64).ok_or("BENCHMARK.json: no `run_seconds`")?,
            workloads,
            end_to_end: metric_defs(&root, "end_to_end")?,
            per_layer: metric_defs(&root, "per_layer")?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::NAMES;

    fn name_ok(n: &str, max: usize, extra: &str) -> bool {
        !n.is_empty() && n.len() <= max && n.chars().all(|c| c.is_ascii_alphanumeric() || extra.contains(c))
    }

    /// The contract of the result format, checked on the file itself.
    #[test]
    fn benchmark_json_meets_the_result_contract() {
        let spec = Spec::load().unwrap();
        assert_eq!(spec.workloads, NAMES, "BENCHMARK.json lists exactly the workloads this program runs");
        assert!((1..=60).contains(&spec.run_seconds));
        let mut seen = std::collections::HashSet::new();
        for m in spec.end_to_end.iter().chain(&spec.per_layer) {
            assert!(name_ok(&m.name, 64, "_.-"), "metric name {:?}", m.name);
            assert!(m.name.chars().next().unwrap().is_ascii_alphanumeric());
            assert!(name_ok(&m.unit, 16, "_/%.-"), "unit {:?} of {}", m.unit, m.name);
            assert!(seen.insert(m.name.clone()), "metric {} is listed twice", m.name);
        }
        for w in &spec.workloads {
            assert!(seen.insert(w.clone()), "name {w} is used twice");
        }
        for m in &spec.end_to_end {
            let b = m.bound.unwrap_or_else(|| panic!("{} has no bound", m.name));
            assert!(b > 0.0 && b <= 0.25, "{} bound {b}", m.name);
        }
        assert!(spec.per_layer.iter().all(|m| m.bound.is_none()), "per-layer metrics carry no bound");
        let setup = spec.end_to_end.iter().find(|m| m.name == "setup_s").expect("setup_s is required");
        assert!(setup.lower_is_better && setup.unit == "s");
        let largest = spec.end_to_end.iter().filter_map(|m| m.bound).fold(0.0, f64::max);
        assert_eq!(setup.bound, Some(largest), "setup_s carries the largest bound");
    }

    #[test]
    fn malformed_definitions_are_rejected() {
        assert!(Spec::parse("{}").is_err());
        let bad = r#"{"run_seconds":5,"workloads":[],"per_layer":[],
                      "end_to_end":[{"name":"x","unit":"s","better":"sideways","bound":0.1}]}"#;
        assert!(Spec::parse(bad).unwrap_err().contains("sideways"));
    }
}
