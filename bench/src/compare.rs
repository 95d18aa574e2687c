//! `compare <dirA> <dirB>` — do two sets of runs agree?
//!
//! Each directory holds run files written with `--save`. Per (workload,
//! end-to-end metric) the report gives each side's median and quartiles,
//! the ratio with its base, and a verdict against the metric's bound in
//! `BENCHMARK.json`: `within`, `regressed` (B's median is worse than A's
//! by more than the bound) or `unresolved` (a side's own quartile spread
//! is wider than the bound, so the medians cannot be told apart).

use crate::spec::{number, MetricSpec, Spec};
use crate::stats::{median, quartiles};
use serde_json::Value;
use std::collections::BTreeMap;
use std::path::Path;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Within,
    Regressed,
    Unresolved,
}

impl Verdict {
    pub fn as_str(self) -> &'static str {
        match self {
            Verdict::Within => "within",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

#[derive(Debug, Clone)]
pub struct Side {
    pub runs: usize,
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
}

impl Side {
    fn of(values: &[f64]) -> Option<Side> {
        let (q1, q3) = quartiles(values)?;
        Some(Side { runs: values.len(), median: median(values)?, q1, q3 })
    }

    /// Distance between the quartiles as a share of the median.
    pub fn spread(&self) -> f64 {
        (self.q3 - self.q1).abs() / self.median.abs().max(f64::MIN_POSITIVE)
    }
}

#[derive(Debug, Clone)]
pub struct Row {
    pub workload: String,
    pub metric: String,
    pub a: Side,
    pub b: Side,
    /// B's median over A's (A is the base).
    pub ratio: f64,
    /// How much worse B's median is, as a share of A's; negative = better.
    pub worse_by: f64,
    pub bound: f64,
    pub verdict: Verdict,
}

/// One metric's values per (workload, metric name).
pub type Samples = BTreeMap<(String, String), Vec<f64>>;

fn judge(a: &[f64], b: &[f64], metric: &MetricSpec) -> Option<(Side, Side, f64, f64, Verdict)> {
    let (a, b) = (Side::of(a)?, Side::of(b)?);
    let bound = metric.bound?;
    let ratio = b.median / a.median;
    let worse_by = if metric.higher_is_better { 1.0 - ratio } else { ratio - 1.0 };
    let verdict = if a.spread() > bound || b.spread() > bound {
        Verdict::Unresolved
    } else if worse_by > bound {
        Verdict::Regressed
    } else {
        Verdict::Within
    };
    Some((a, b, ratio, worse_by, verdict))
}

/// Judges every (workload, end-to-end metric) both sides have at least
/// two runs of, in `BENCHMARK.json` order.
pub fn compare(spec: &Spec, a: &Samples, b: &Samples) -> Vec<Row> {
    let mut rows = Vec::new();
    for workload in &spec.workloads {
        for metric in &spec.end_to_end {
            let key = (workload.name.clone(), metric.name.clone());
            let (Some(va), Some(vb)) = (a.get(&key), b.get(&key)) else { continue };
            if let Some((a, b, ratio, worse_by, verdict)) = judge(va, vb, metric) {
                rows.push(Row {
                    workload: key.0,
                    metric: key.1,
                    a,
                    b,
                    ratio,
                    worse_by,
                    bound: metric.bound.unwrap_or(0.0),
                    verdict,
                });
            }
        }
    }
    rows
}

/// Reads every `*.json` run file in `dir` (see `--save`).
pub fn load_dir(dir: &Path) -> Result<Samples, String> {
    let mut samples = Samples::new();
    let entries = std::fs::read_dir(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    for entry in entries {
        let path = entry.map_err(|e| e.to_string())?.path();
        if path.extension().is_none_or(|x| x != "json") {
            continue;
        }
        let text =
            std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        add_run(&mut samples, &text).map_err(|e| format!("{}: {e}", path.display()))?;
    }
    Ok(samples)
}

/// Adds one run file's metrics: `{"workload": …, "result": {"metrics":
/// {name: {"value": …}}}}`.
pub fn add_run(samples: &mut Samples, text: &str) -> Result<(), String> {
    let v = Value::parse_json(text)?;
    let workload = match v.get_field("workload") {
        Some(Value::Str(w)) => w.clone(),
        _ => return Err("run file without a workload".into()),
    };
    let metrics = v
        .get_field("result")
        .and_then(|r| r.get_field("metrics"))
        .ok_or("run file without result.metrics")?;
    let Value::Object(fields) = metrics else { return Err("metrics must be an object".into()) };
    for (name, m) in fields {
        let value = m
            .get_field("value")
            .and_then(number)
            .ok_or_else(|| format!("metric {name:?} without a numeric value"))?;
        samples.entry((workload.clone(), name.clone())).or_default().push(value);
    }
    Ok(())
}

pub fn render(rows: &[Row]) -> String {
    let mut out = format!(
        "{:<11} {:<17} {:>4} {:>12} {:>12} {:>12} {:>4} {:>12} {:>12} {:>12} {:>8} {:>8} {:>6}  {}\n",
        "workload", "metric", "nA", "A.q1", "A.median", "A.q3", "nB", "B.q1", "B.median",
        "B.q3", "B/A", "worse", "bound", "verdict"
    );
    for r in rows {
        out.push_str(&format!(
            "{:<11} {:<17} {:>4} {:>12.4} {:>12.4} {:>12.4} {:>4} {:>12.4} {:>12.4} {:>12.4} \
             {:>8.4} {:>+8.4} {:>6.2}  {}\n",
            r.workload,
            r.metric,
            r.a.runs,
            r.a.q1,
            r.a.median,
            r.a.q3,
            r.b.runs,
            r.b.q1,
            r.b.median,
            r.b.q3,
            r.ratio,
            r.worse_by,
            r.bound,
            r.verdict.as_str()
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run_file(workload: &str, p50: f64, thr: f64) -> String {
        format!(
            "{{\"workload\":\"{workload}\",\"seed\":1,\"result\":{{\"correct\":true,\
             \"attempted\":10,\"failed\":0,\"metrics\":{{\
             \"op_p50_ms\":{{\"value\":{p50},\"unit\":\"ms\"}},\
             \"throughput_rec_s\":{{\"value\":{thr},\"unit\":\"1/s\"}}}}}}}}"
        )
    }

    fn set(workload: &str, p50: &[f64], thr: &[f64]) -> Samples {
        let mut s = Samples::new();
        for (p, t) in p50.iter().zip(thr) {
            add_run(&mut s, &run_file(workload, *p, *t)).unwrap();
        }
        s
    }

    fn verdict_of(rows: &[Row], metric: &str) -> Verdict {
        rows.iter().find(|r| r.metric == metric).expect("metric judged").verdict
    }

    #[test]
    fn synthetic_sets_get_the_three_verdicts() {
        let spec = Spec::load();
        let steady = [10.0, 10.1, 9.9, 10.05, 9.95];
        let thr = [1000.0, 1005.0, 995.0, 1002.0, 998.0];
        let a = set("batch_join", &steady, &thr);

        // same distribution → within, both directions of "better"
        let rows = compare(&spec, &a, &set("batch_join", &steady, &thr));
        assert_eq!(verdict_of(&rows, "op_p50_ms"), Verdict::Within);
        assert_eq!(verdict_of(&rows, "throughput_rec_s"), Verdict::Within);

        // latency up 30 %, throughput down 30 % → both regressed
        let slow: Vec<f64> = steady.iter().map(|v| v * 1.3).collect();
        let low: Vec<f64> = thr.iter().map(|v| v * 0.7).collect();
        let rows = compare(&spec, &a, &set("batch_join", &slow, &low));
        assert_eq!(verdict_of(&rows, "op_p50_ms"), Verdict::Regressed);
        assert_eq!(verdict_of(&rows, "throughput_rec_s"), Verdict::Regressed);
        let p50 = rows.iter().find(|r| r.metric == "op_p50_ms").unwrap();
        assert!((p50.ratio - 1.3).abs() < 1e-9 && (p50.worse_by - 0.3).abs() < 1e-9);

        // a 30 % *gain* is not a regression
        let fast: Vec<f64> = steady.iter().map(|v| v * 0.7).collect();
        let high: Vec<f64> = thr.iter().map(|v| v * 1.3).collect();
        let rows = compare(&spec, &a, &set("batch_join", &fast, &high));
        assert_eq!(verdict_of(&rows, "op_p50_ms"), Verdict::Within);
        assert_eq!(verdict_of(&rows, "throughput_rec_s"), Verdict::Within);

        // one side scattered wider than the bound → unresolved, whatever the medians
        let noisy = [6.0, 14.0, 10.0, 7.0, 13.0];
        let rows = compare(&spec, &a, &set("batch_join", &noisy, &thr));
        assert_eq!(verdict_of(&rows, "op_p50_ms"), Verdict::Unresolved);
        assert_eq!(verdict_of(&rows, "throughput_rec_s"), Verdict::Within);
    }

    #[test]
    fn workloads_missing_on_one_side_are_skipped_and_bad_files_rejected() {
        let spec = Spec::load();
        let a = set("dist", &[1.0, 1.1], &[5.0, 5.1]);
        assert!(compare(&spec, &a, &Samples::new()).is_empty());
        let mut s = Samples::new();
        assert!(add_run(&mut s, "{\"result\":{}}").is_err());
        assert!(add_run(&mut s, "not json").is_err());
        assert!(render(&compare(&spec, &a, &a)).contains("within"));
    }
}
