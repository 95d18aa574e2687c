//! Process-level smoke tests: the `--quick` variant of every workload,
//! both the end-to-end and the traced form, through the real binary.

use serde_json::Value;
use std::process::Command;
use std::sync::Mutex;
use std::time::{Duration, Instant};

const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");
const WORKLOADS: [&str; 5] = ["batch_join", "batch_scan", "stream", "service", "dist"];

/// The workloads time themselves, so they must not share the two cores.
static ONE_AT_A_TIME: Mutex<()> = Mutex::new(());

fn declared(section: &str) -> Vec<String> {
    let spec = Value::parse_json(BENCHMARK_JSON).expect("BENCHMARK.json parses");
    let Some(Value::Array(items)) = spec.get_field(section) else { panic!("no {section}") };
    items
        .iter()
        .map(|m| match m.get_field("name") {
            Some(Value::Str(s)) => s.clone(),
            _ => panic!("{section} entry without a name"),
        })
        .collect()
}

struct Run {
    code: Option<i32>,
    stdout: String,
    elapsed: Duration,
}

impl Run {
    /// The last line of standard output, parsed.
    fn result(&self) -> Value {
        let last = self.stdout.lines().last().expect("some output");
        Value::parse_json(last).unwrap_or_else(|e| panic!("last line is not JSON ({e}): {last}"))
    }

    fn metric_names(&self) -> Vec<String> {
        let result = self.result();
        let Some(Value::Object(metrics)) = result.get_field("metrics") else {
            panic!("result without metrics")
        };
        metrics.iter().map(|(k, _)| k.clone()).collect()
    }
}

fn perfbench(args: &[&str]) -> Run {
    let _guard = ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());
    let start = Instant::now();
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(args)
        .output()
        .expect("the benchmark binary starts");
    Run {
        code: out.status.code(),
        stdout: String::from_utf8_lossy(&out.stdout).into_owned(),
        elapsed: start.elapsed(),
    }
}

fn check_result_shape(run: &Run, expected_metrics: &[String]) {
    let result = run.result();
    let Value::Object(fields) = &result else { panic!("result must be an object") };
    let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
    assert_eq!(result.get_field("correct"), Some(&Value::Bool(true)), "{}", run.stdout);
    assert_eq!(result.get_field("failed"), Some(&Value::UInt(0)));
    assert!(matches!(result.get_field("attempted"), Some(Value::UInt(n)) if *n >= 1));
    // every declared metric exactly once, nothing undeclared
    let mut got = run.metric_names();
    let mut want = expected_metrics.to_vec();
    got.sort();
    want.sort();
    assert_eq!(got, want);
    let Some(Value::Object(metrics)) = result.get_field("metrics") else { unreachable!() };
    for (name, m) in metrics {
        assert!(name.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)), "{name}");
        assert!(
            matches!(m.get_field("value"), Some(Value::Float(_) | Value::UInt(_) | Value::Int(_))),
            "{name} has no numeric value"
        );
        assert!(matches!(m.get_field("unit"), Some(Value::Str(_))), "{name} has no unit");
    }
}

#[test]
fn quick_end_to_end_runs_emit_exactly_the_declared_metrics() {
    let want = declared("end_to_end");
    for w in WORKLOADS {
        let run = perfbench(&[
            "--workload",
            w,
            "--seed",
            "5",
            "--seconds",
            "1",
            "--trace",
            "0",
            "--quick",
        ]);
        assert_eq!(run.code, Some(0), "{w}: {}", run.stdout);
        assert!(run.elapsed < Duration::from_secs(5), "{w} took {:?}", run.elapsed);
        check_result_shape(&run, &want);
        // the end-to-end metrics are never zero
        let result = run.result();
        let Some(Value::Object(metrics)) = result.get_field("metrics") else { unreachable!() };
        for (name, m) in metrics {
            assert!(
                matches!(m.get_field("value"), Some(Value::Float(v)) if *v > 0.0),
                "{w}: {name} must be positive"
            );
        }
    }
}

#[test]
fn quick_traced_runs_emit_every_layer_and_a_loadable_trace() {
    let want = declared("per_layer");
    for w in WORKLOADS {
        let run = perfbench(&["trace", w, "--seed", "5", "--seconds", "1.5", "--quick"]);
        assert_eq!(run.code, Some(0), "{w}: {}", run.stdout);
        assert!(run.elapsed < Duration::from_secs(5), "{w} took {:?}", run.elapsed);
        check_result_shape(&run, &want);
        assert!(run.stdout.contains(&format!("attrib.{w}.unexplained_frac = ")), "{w}");
        assert!(run.stdout.contains("tracing overhead: op_p50_ms traced"), "{w}");
        let path = run
            .stdout
            .lines()
            .find_map(|l| l.strip_prefix("chrome trace: "))
            .expect("the trace file is announced");
        let trace = std::fs::read_to_string(path).expect("trace file exists");
        let trace = Value::parse_json(&trace).expect("trace file is JSON");
        assert!(
            matches!(trace.get_field("traceEvents"), Some(Value::Array(e)) if !e.is_empty()),
            "{w}: the trace holds spans"
        );
    }
}

#[test]
fn a_corrupted_oracle_value_is_reported_as_a_failed_op() {
    for w in WORKLOADS {
        let run = perfbench(&[
            "run",
            w,
            "--seed",
            "5",
            "--seconds",
            "0.5",
            "--quick",
            "--corrupt-oracle",
        ]);
        assert_eq!(run.code, Some(0), "{w}: {}", run.stdout);
        let result = run.result();
        assert_eq!(result.get_field("correct"), Some(&Value::Bool(false)), "{w}");
        assert!(matches!(result.get_field("failed"), Some(Value::UInt(n)) if *n >= 1), "{w}");
        assert!(run.stdout.contains("failed op: "), "{w}: the mismatch is explained");
    }
}

#[test]
fn bad_invocations_exit_non_zero_without_a_result() {
    for args in [
        &["--workload", "no_such_workload", "--seed", "1", "--seconds", "1", "--trace", "0"][..],
        &["--workload", "dist", "--seed", "x"],
        &["compare", "only-one-dir"],
        &[],
    ] {
        let run = perfbench(args);
        assert!(run.code.is_some_and(|c| c != 0), "{args:?} must fail");
        assert!(run.stdout.trim().is_empty(), "{args:?} must print no result");
    }
}

#[test]
fn saved_runs_compare_within_bounds_against_themselves() {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out").join("smoke-compare");
    let _ = std::fs::remove_dir_all(&dir);
    let (a, b) = (dir.join("a"), dir.join("b"));
    // two runs per side: quartiles need two values
    for side in [&a, &b] {
        for _ in 0..2 {
            let run = perfbench(&[
                "run",
                "service",
                "--seed",
                "5",
                "--seconds",
                "0.5",
                "--quick",
                "--save",
                side.to_str().expect("utf-8 path"),
            ]);
            assert_eq!(run.code, Some(0), "{}", run.stdout);
        }
    }
    let run = perfbench(&["compare", a.to_str().unwrap(), b.to_str().unwrap()]);
    // half-second quick runs are too noisy to demand a verdict; the
    // table must cover all six metrics of the workload that ran
    assert_eq!(
        run.stdout.lines().filter(|l| l.starts_with("service")).count(),
        6,
        "{}",
        run.stdout
    );
    let _ = std::fs::remove_dir_all(&dir);
}
