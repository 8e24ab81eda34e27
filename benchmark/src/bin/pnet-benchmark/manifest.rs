//! `BENCHMARK.json`, compiled into the binary: the one list of workloads and
//! metrics. A name, unit, direction or bound is written there and nowhere
//! else; the code only says which workload sets which metric, and which of
//! its values are exact counters.

use crate::json::{self, Value};
use std::sync::OnceLock;

const TEXT: &str = include_str!("../../../../BENCHMARK.json");

/// The product crates, in pipeline order. A span named `<layer>.<what>`
/// counts towards `<layer>.self_ms`.
pub const LAYERS: [&str; 7] = [
    "topology",
    "routing",
    "flowsim",
    "planner",
    "htsim",
    "workloads",
    "core",
];

/// Which direction is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub unit: String,
    pub better: Better,
    /// Regression bound as a share of the parent's median; end-to-end
    /// metrics only, 0 for per-layer metrics, which have none.
    pub bound: f64,
}

#[derive(Debug)]
pub struct Manifest {
    /// Length of the timed window when `--seconds` is not given.
    pub run_seconds: f64,
    /// `(name, why)`.
    pub workloads: Vec<(String, String)>,
    pub end_to_end: Vec<Metric>,
    pub per_layer: Vec<Metric>,
}

impl Manifest {
    pub fn per_layer_metric(&self, name: &str) -> Option<&Metric> {
        self.per_layer.iter().find(|m| m.name == name)
    }
}

/// The parsed manifest. A malformed `BENCHMARK.json` is a broken build of
/// the benchmark, so it panics rather than returning an error.
pub fn manifest() -> &'static Manifest {
    static PARSED: OnceLock<Manifest> = OnceLock::new();
    PARSED.get_or_init(|| parse(TEXT).unwrap_or_else(|e| panic!("BENCHMARK.json: {e}")))
}

fn parse(text: &str) -> Result<Manifest, String> {
    let doc = json::parse(text)?;
    let list = |key: &str| {
        doc.get(key)
            .and_then(Value::as_arr)
            .ok_or_else(|| format!("{key} is not a list"))
    };
    let text_of = |entry: &Value, key: &str| {
        entry
            .get(key)
            .and_then(Value::as_str)
            .map(str::to_string)
            .ok_or_else(|| format!("an entry lacks the string {key:?}"))
    };
    let metric = |entry: &Value, bounded: bool| -> Result<Metric, String> {
        let name = text_of(entry, "name")?;
        let better = match text_of(entry, "better")?.as_str() {
            "lower" => Better::Lower,
            "higher" => Better::Higher,
            other => return Err(format!("{name}: better is {other:?}")),
        };
        let bound = match entry.get("bound").and_then(Value::as_f64) {
            Some(b) if bounded => b,
            None if !bounded => 0.0,
            _ => return Err(format!("{name}: only end-to-end metrics have a bound")),
        };
        Ok(Metric {
            unit: text_of(entry, "unit")?,
            name,
            better,
            bound,
        })
    };
    Ok(Manifest {
        run_seconds: doc
            .get("run_seconds")
            .and_then(Value::as_f64)
            .ok_or("run_seconds is not a number")?,
        workloads: list("workloads")?
            .iter()
            .map(|w| Ok((text_of(w, "name")?, text_of(w, "why")?)))
            .collect::<Result<_, String>>()?,
        end_to_end: list("end_to_end")?
            .iter()
            .map(|m| metric(m, true))
            .collect::<Result<_, _>>()?,
        per_layer: list("per_layer")?
            .iter()
            .map(|m| metric(m, false))
            .collect::<Result<_, _>>()?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn well_formed(s: &str, max: usize, extra: &str) -> bool {
        !s.is_empty()
            && s.len() <= max
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || extra.contains(c))
    }

    /// The limits the benchmark driver puts on the file.
    #[test]
    fn manifest_is_within_the_drivers_limits() {
        let m = manifest();
        let doc = json::parse(TEXT).unwrap();
        let keys: Vec<&str> = doc
            .as_obj()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(
            keys,
            [
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer"
            ]
        );
        assert!(TEXT.len() <= 64 * 1024);
        assert!((1.0..=60.0).contains(&m.run_seconds) && m.run_seconds.fract() == 0.0);
        assert!((2..=8).contains(&m.workloads.len()));
        assert!((1..=16).contains(&m.end_to_end.len()));
        assert!((1..=128).contains(&m.per_layer.len()));

        let mut seen = std::collections::BTreeSet::new();
        for (name, why) in &m.workloads {
            assert!(well_formed(name, 64, "_.-") && seen.insert(name), "{name}");
            assert!(why.len() <= 200 && !why.contains('\n'), "{name}");
        }
        for metric in m.end_to_end.iter().chain(&m.per_layer) {
            assert!(
                well_formed(&metric.name, 64, "_.-") && seen.insert(&metric.name),
                "{}",
                metric.name
            );
            assert!(well_formed(&metric.unit, 16, "_/%.-"), "{}", metric.name);
        }
        assert!(m
            .end_to_end
            .iter()
            .all(|e| e.bound > 0.0 && e.bound <= 0.25));
        let setup = m.end_to_end.iter().find(|e| e.name == "setup_s").unwrap();
        assert_eq!((setup.unit.as_str(), setup.better), ("s", Better::Lower));
    }

    #[test]
    fn every_layer_metric_names_a_layer_or_the_harness() {
        for metric in &manifest().per_layer {
            let layer = metric.name.split('.').next().unwrap();
            assert!(
                layer == "bench" || LAYERS.contains(&layer),
                "{}",
                metric.name
            );
        }
    }

    #[test]
    fn malformed_manifests_are_refused() {
        assert!(parse("{}").is_err());
        assert!(parse(r#"{"run_seconds": 1, "workloads": [{"name": "a"}]}"#).is_err());
    }
}
