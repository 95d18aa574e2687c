//! `BENCHMARK.json` as the benchmark reads it: the declared workloads,
//! metric names, units, directions and regression bounds.
//!
//! The file is compiled in, so the binary, `compare` and the smoke tests
//! all judge against the committed declaration wherever they run from.

use serde_json::Value;

pub const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

#[derive(Debug, Clone, PartialEq)]
pub struct MetricSpec {
    pub name: String,
    pub unit: String,
    pub higher_is_better: bool,
    /// Share of the baseline median the metric may worsen by; end-to-end
    /// metrics only.
    pub bound: Option<f64>,
}

#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadSpec {
    pub name: String,
    pub why: String,
}

#[derive(Debug, Clone, PartialEq)]
pub struct Spec {
    pub command: Vec<String>,
    pub paths: Vec<String>,
    pub run_seconds: u64,
    pub workloads: Vec<WorkloadSpec>,
    pub end_to_end: Vec<MetricSpec>,
    pub per_layer: Vec<MetricSpec>,
}

fn field<'a>(v: &'a Value, name: &str) -> Result<&'a Value, String> {
    v.get_field(name).ok_or_else(|| format!("missing key {name:?}"))
}

fn string(v: &Value, name: &str) -> Result<String, String> {
    match field(v, name)? {
        Value::Str(s) => Ok(s.clone()),
        other => Err(format!("{name:?} must be a string, got {}", other.kind())),
    }
}

fn array<'a>(v: &'a Value, name: &str) -> Result<&'a [Value], String> {
    match field(v, name)? {
        Value::Array(a) => Ok(a),
        other => Err(format!("{name:?} must be an array, got {}", other.kind())),
    }
}

pub fn number(v: &Value) -> Option<f64> {
    match v {
        Value::Int(i) => Some(*i as f64),
        Value::UInt(u) => Some(*u as f64),
        Value::Float(f) => Some(*f),
        _ => None,
    }
}

fn strings(v: &Value, name: &str) -> Result<Vec<String>, String> {
    array(v, name)?
        .iter()
        .map(|s| match s {
            Value::Str(s) => Ok(s.clone()),
            other => Err(format!("{name:?} holds a {}", other.kind())),
        })
        .collect()
}

fn metric(v: &Value, bounded: bool) -> Result<MetricSpec, String> {
    let higher_is_better = match string(v, "better")?.as_str() {
        "higher" => true,
        "lower" => false,
        other => return Err(format!("\"better\" must be higher or lower, got {other:?}")),
    };
    let bound = if bounded {
        Some(number(field(v, "bound")?).ok_or("\"bound\" must be a number")?)
    } else {
        None
    };
    Ok(MetricSpec { name: string(v, "name")?, unit: string(v, "unit")?, higher_is_better, bound })
}

impl Spec {
    pub fn parse(text: &str) -> Result<Spec, String> {
        let v = Value::parse_json(text)?;
        let metrics = |name: &str, bounded: bool| -> Result<Vec<MetricSpec>, String> {
            array(&v, name)?.iter().map(|m| metric(m, bounded)).collect()
        };
        Ok(Spec {
            command: strings(&v, "command")?,
            paths: strings(&v, "paths")?,
            run_seconds: number(field(&v, "run_seconds")?)
                .filter(|s| s.fract() == 0.0 && *s >= 1.0)
                .ok_or("\"run_seconds\" must be a whole number")? as u64,
            workloads: array(&v, "workloads")?
                .iter()
                .map(|w| Ok(WorkloadSpec { name: string(w, "name")?, why: string(w, "why")? }))
                .collect::<Result<_, String>>()?,
            end_to_end: metrics("end_to_end", true)?,
            per_layer: metrics("per_layer", false)?,
        })
    }

    /// The committed declaration.
    pub fn load() -> Spec {
        Spec::parse(BENCHMARK_JSON).expect("the committed BENCHMARK.json is well-formed")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::NAMES;

    fn is_name(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 64
            && s.starts_with(|c: char| c.is_ascii_alphanumeric())
            && s.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    fn is_unit(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 16
            && s.chars().all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    }

    /// The limits the builder's contract puts on `BENCHMARK.json`.
    #[test]
    fn committed_declaration_is_inside_the_contract() {
        let spec = Spec::load();
        assert!(BENCHMARK_JSON.len() <= 64 * 1024);
        let Value::Object(keys) = Value::parse_json(BENCHMARK_JSON).unwrap() else { panic!() };
        let mut keys: Vec<&str> = keys.iter().map(|(k, _)| k.as_str()).collect();
        keys.sort_unstable();
        assert_eq!(
            keys,
            ["command", "end_to_end", "paths", "per_layer", "run_seconds", "workloads"]
        );

        assert!((2..=8).contains(&spec.workloads.len()));
        assert!((1..=16).contains(&spec.end_to_end.len()));
        assert!((1..=128).contains(&spec.per_layer.len()));
        assert!((1..=60).contains(&spec.run_seconds));
        assert!((1..=16).contains(&spec.paths.len()) && spec.command.len() <= 32);
        assert!(spec.command.iter().all(|c| c.len() <= 200 && !c.starts_with('/')));
        assert!(spec.command.iter().all(|c| !c.split('/').any(|part| part == "..")));
        assert_eq!(spec.paths, ["bench"]);

        // the driver makes 4 + 22 × workloads runs inside 3420 s, builds included
        let runs = 4 + 22 * spec.workloads.len() as u64;
        assert!(runs * (spec.run_seconds + 6) + 2 * 120 <= 3420, "runs no longer fit the cap");

        let mut seen = std::collections::BTreeSet::new();
        for w in &spec.workloads {
            assert!(is_name(&w.name) && seen.insert(w.name.clone()), "{}", w.name);
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}: why too long", w.name);
        }
        for m in spec.end_to_end.iter().chain(&spec.per_layer) {
            assert!(is_name(&m.name) && seen.insert(m.name.clone()), "{}", m.name);
            assert!(is_unit(&m.unit), "{}: unit {:?}", m.name, m.unit);
        }
        for m in &spec.end_to_end {
            let bound = m.bound.expect("end-to-end metrics carry a bound");
            assert!(bound > 0.0 && bound <= 0.25, "{}: bound {bound}", m.name);
        }
        assert!(spec.per_layer.iter().all(|m| m.bound.is_none()));
    }

    #[test]
    fn the_issue_names_are_declared() {
        let spec = Spec::load();
        let workloads: Vec<&str> = spec.workloads.iter().map(|w| w.name.as_str()).collect();
        assert_eq!(workloads, NAMES);
        let e2e: Vec<&str> = spec.end_to_end.iter().map(|m| m.name.as_str()).collect();
        assert_eq!(
            e2e,
            [
                "setup_s",
                "op_p50_ms",
                "op_p90_ms",
                "throughput_rec_s",
                "cpu_ms_per_op",
                "peak_rss_mb"
            ]
        );
        let setup = &spec.end_to_end[0];
        assert_eq!((setup.unit.as_str(), setup.higher_is_better), ("s", false));
        // set-up carries the largest bound
        assert!(spec.end_to_end.iter().all(|m| m.bound <= setup.bound));
        assert!(spec.end_to_end.iter().filter(|m| m.higher_is_better).count() == 1);
    }

    #[test]
    fn malformed_declarations_are_rejected() {
        assert!(Spec::parse("{}").is_err());
        assert!(Spec::parse("[]").is_err());
        let broken = BENCHMARK_JSON.replace("\"lower\"", "\"sideways\"");
        assert!(Spec::parse(&broken).is_err());
        let broken = BENCHMARK_JSON.replace("\"run_seconds\": 20", "\"run_seconds\": 2.5");
        assert!(Spec::parse(&broken).is_err());
    }
}
