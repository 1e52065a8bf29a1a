//! The metric catalogue: `BENCHMARK.json` at the repository root, compiled
//! in, is the single source of every metric's name, unit, direction and
//! bound.

use nemfpga_service::json::{self, Value};

/// The text of `BENCHMARK.json`.
pub const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

/// One declared metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name.
    pub name: String,
    /// Unit, as printed.
    pub unit: String,
    /// `true` when a larger value is better.
    pub higher_is_better: bool,
    /// Largest allowed worsening of the median, as a share of the base
    /// median (end-to-end metrics only).
    pub bound: Option<f64>,
}

/// The parsed `BENCHMARK.json`.
#[derive(Debug, Clone)]
pub struct Catalog {
    /// Seconds one run measures.
    pub run_seconds: u64,
    /// Workload names, in declaration order.
    pub workloads: Vec<String>,
    /// Metrics of an untraced run.
    pub end_to_end: Vec<Metric>,
    /// Metrics of a traced run.
    pub per_layer: Vec<Metric>,
}

impl Catalog {
    /// The compiled-in catalogue.
    pub fn load() -> Result<Self, String> {
        Self::parse(BENCHMARK_JSON)
    }

    /// Parses a `BENCHMARK.json` document.
    pub fn parse(text: &str) -> Result<Self, String> {
        let doc = json::parse(text).map_err(|e| format!("BENCHMARK.json: {e}"))?;
        let list = |key: &str| match doc.get(key) {
            Some(Value::Arr(items)) => Ok(items.clone()),
            _ => Err(format!("BENCHMARK.json: `{key}` is not a list")),
        };
        let text = |v: &Value, key: &str| {
            v.get(key)
                .and_then(Value::as_str)
                .map(str::to_owned)
                .ok_or(format!("metric lacks `{key}`"))
        };
        let metrics = |key: &str| -> Result<Vec<Metric>, String> {
            list(key)?
                .iter()
                .map(|m| {
                    Ok(Metric {
                        name: text(m, "name")?,
                        unit: text(m, "unit")?,
                        higher_is_better: match text(m, "better")?.as_str() {
                            "higher" => true,
                            "lower" => false,
                            other => return Err(format!("`better` is {other:?}")),
                        },
                        bound: m.get("bound").and_then(Value::as_f64),
                    })
                })
                .collect()
        };
        Ok(Self {
            run_seconds: doc
                .get("run_seconds")
                .and_then(Value::as_u64)
                .ok_or("BENCHMARK.json: `run_seconds` is not an integer")?,
            workloads: list("workloads")?
                .iter()
                .map(|w| text(w, "name"))
                .collect::<Result<_, _>>()?,
            end_to_end: metrics("end_to_end")?,
            per_layer: metrics("per_layer")?,
        })
    }

    /// The metrics a run prints: per-layer when traced, else end-to-end.
    pub fn printed(&self, traced: bool) -> &[Metric] {
        if traced {
            &self.per_layer
        } else {
            &self.end_to_end
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn benchmark_json_is_well_formed() {
        let c = Catalog::load().unwrap();
        assert_eq!(c.workloads, ["fig9_frisc", "fig12_mcnc20", "http_hit", "http_cold_mix"]);
        let valid = |s: &str| {
            !s.is_empty()
                && s.len() <= 64
                && s.chars().all(|ch| ch.is_ascii_alphanumeric() || "_.-".contains(ch))
                && s.chars().next().is_some_and(|ch| ch.is_ascii_alphanumeric())
        };
        let mut seen = std::collections::BTreeSet::new();
        for m in c.end_to_end.iter().chain(&c.per_layer) {
            assert!(valid(&m.name), "bad metric name {:?}", m.name);
            assert!(seen.insert(m.name.clone()), "metric {} declared twice", m.name);
        }
        for m in &c.end_to_end {
            let bound = m.bound.unwrap_or_else(|| panic!("{} has no bound", m.name));
            assert!(bound > 0.0 && bound <= 0.25, "{} bound {bound}", m.name);
        }
        assert!(c.per_layer.iter().all(|m| m.bound.is_none()));
        let setup = c.end_to_end.iter().find(|m| m.name == "setup_s").unwrap();
        assert_eq!((setup.unit.as_str(), setup.higher_is_better), ("s", false));
        let widest = c.end_to_end.iter().filter_map(|m| m.bound).fold(0.0, f64::max);
        assert_eq!(setup.bound, Some(widest), "setup_s must have the largest bound");
    }
}
