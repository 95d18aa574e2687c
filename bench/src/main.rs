//! The repo benchmark: five workloads, six end-to-end metrics, and a
//! per-layer ledger (see `README.md` and `../BENCHMARK.json`).
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>   # the driver's form
//! perfbench run   <name> [--seed n] [--seconds s] [--quick] [--save dir]
//! perfbench trace <name> [--seed n] [--seconds s] [--quick] [--save dir]
//! perfbench compare <dirA> <dirB>
//! ```
//!
//! The last line of standard output is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`. When the command line starts with
//! `--addr` the process is a worker forked by the `dist` workload's pool.

mod compare;
mod layers;
mod ledger;
mod procstat;
mod sizing;
mod spec;
mod stats;
mod trace;
mod workloads;

use sizing::Sizing;
use spec::{MetricSpec, Spec};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;
use workloads::{Timed, Workload};

/// Where traces, saved runs and scratch files go: `bench/out/`, inside
/// the checkout and ignored by git.
pub fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

fn process_tmp() -> PathBuf {
    out_dir().join("tmp").join(std::process::id().to_string())
}

/// A fresh directory under this process's scratch root.
pub fn scratch_dir(name: &str) -> PathBuf {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let dir = process_tmp().join(format!("{name}-{}", SEQ.fetch_add(1, Ordering::Relaxed)));
    std::fs::create_dir_all(&dir).expect("bench/out is writable");
    dir
}

#[derive(Debug)]
struct RunArgs {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    quick: bool,
    save: Option<PathBuf>,
    corrupt_oracle: bool,
}

enum Command {
    Run(RunArgs),
    Compare(PathBuf, PathBuf),
}

fn parse(args: &[String], spec: &Spec) -> Result<Command, String> {
    let mut run = RunArgs {
        workload: String::new(),
        seed: 1,
        seconds: spec.run_seconds as f64,
        trace: false,
        quick: false,
        save: None,
        corrupt_oracle: false,
    };
    let mut rest = args.iter();
    match args.first().map(String::as_str) {
        Some("compare") => {
            return match args {
                [_, a, b] => Ok(Command::Compare(a.into(), b.into())),
                _ => Err("usage: compare <dirA> <dirB>".into()),
            };
        }
        Some(sub @ ("run" | "trace")) => {
            run.trace = sub == "trace";
            run.workload = args.get(1).cloned().ok_or(format!("usage: {sub} <workload>"))?;
            rest = args[2..].iter();
        }
        _ => {}
    }
    while let Some(flag) = rest.next() {
        let mut value = || rest.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => run.workload = value()?.clone(),
            "--seed" => run.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                run.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(run.seconds > 0.0 && run.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--trace" => {
                run.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got {other:?}")),
                }
            }
            "--quick" => run.quick = true,
            "--save" => run.save = Some(value()?.into()),
            "--corrupt-oracle" => run.corrupt_oracle = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if !spec.workloads.iter().any(|w| w.name == run.workload) {
        let known: Vec<&str> = spec.workloads.iter().map(|w| w.name.as_str()).collect();
        return Err(format!("unknown workload {:?}; one of {known:?}", run.workload));
    }
    Ok(Command::Run(run))
}

/// The result object the driver reads from the last line.
struct Report {
    attempted: u64,
    failed: u64,
    correct: bool,
    metrics: Vec<(MetricSpec, f64)>,
}

impl Report {
    /// Pairs measured values with their declarations: every declared
    /// metric exactly once, nothing undeclared.
    fn new(timed: &Timed, declared: &[MetricSpec], mut values: BTreeMap<String, f64>) -> Report {
        let metrics: Vec<(MetricSpec, f64)> = declared
            .iter()
            .map(|m| {
                let v = values.remove(&m.name).unwrap_or_else(|| {
                    panic!("metric {} is declared in BENCHMARK.json but was not measured", m.name)
                });
                (m.clone(), if v.is_finite() { v } else { 0.0 })
            })
            .collect();
        assert!(values.is_empty(), "measured but not declared in BENCHMARK.json: {values:?}");
        Report {
            attempted: timed.attempted.max(1),
            failed: timed.failed,
            correct: timed.failed == 0 && timed.attempted > 0,
            metrics,
        }
    }

    fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(m, v)| format!("\"{}\": {{\"value\": {v:?}, \"unit\": \"{}\"}}", m.name, m.unit))
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }

    fn print(&self) {
        for (m, v) in &self.metrics {
            println!("{:<38} {:>16.4} {}", m.name, v, m.unit);
        }
        println!("ops attempted {}  failed {}", self.attempted, self.failed);
        println!("{}", self.to_json());
    }
}

fn fingerprint() -> String {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|t| {
            t.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|s| s.trim().to_string())
        })
        .unwrap_or_else(|| "unknown cpu".into());
    let cores = std::thread::available_parallelism().map_or(0, |n| n.get());
    format!("{cores} cores, {cpu}")
}

fn header(args: &RunArgs, w: &dyn Workload) {
    println!(
        "# {} seed={} seconds={} trace={} quick={} | {} | input checksum {:016x} | oracle values {}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        args.quick,
        fingerprint(),
        w.input_checksum(),
        w.oracle_len()
    );
}

fn report_failures(timed: &Timed) {
    for why in &timed.failures {
        println!("failed op: {why}");
    }
}

/// One timed set-up.
fn set_up(args: &RunArgs, size: &Sizing) -> (Box<dyn Workload>, f64) {
    let t0 = Instant::now();
    let w = workloads::build(&args.workload, args.seed, size).expect("workload name checked");
    (w, t0.elapsed().as_secs_f64())
}

/// Sets the workload up (timed), then computes its oracle (untimed).
/// Returns the workload and the set-up time, or `None` when the oracle
/// came out empty: such a run could not tell right from wrong.
fn prepare(args: &RunArgs, size: &Sizing) -> Option<(Box<dyn Workload>, f64)> {
    let (mut w, setup_s) = set_up(args, size);
    w.prepare_oracle(size);
    if w.oracle_len() == 0 {
        eprintln!("{}: the oracle is empty for seed {}; refusing to run", args.workload, args.seed);
        w.teardown();
        return None;
    }
    if args.corrupt_oracle {
        w.corrupt_oracle();
    }
    Some((w, setup_s))
}

fn end_to_end(args: &RunArgs, size: &Sizing, spec: &Spec) -> Option<Report> {
    let (mut w, first_setup_s) = prepare(args, size)?;
    header(args, w.as_ref());
    let cpu0 = procstat::cpu_ms();
    let timed = w.run(args.seconds);
    let cpu_ms = procstat::cpu_ms() - cpu0;
    // children are still alive here, so their peaks are readable
    let peak_rss_mb = procstat::peak_rss_mb();
    w.teardown();
    // Set-up is repeated only now, for the median: memory a torn-down
    // set-up frees stays with the allocator, and before the timed section
    // it would pile into this run's VmHWM by a different amount each run
    // (±6 % on batch_scan).
    let mut setups = vec![first_setup_s];
    while setups.len() < size.setup_repeats {
        let (w, setup_s) = set_up(args, size);
        setups.push(setup_s);
        w.teardown();
    }
    let setup_s = stats::median(&setups).expect("at least one set-up");
    report_failures(&timed);
    println!("latency samples: {}", timed.latencies_ms.len());
    let values = BTreeMap::from([
        ("setup_s".to_string(), setup_s),
        ("op_p50_ms".to_string(), stats::percentile(&timed.latencies_ms, 0.5).unwrap_or(0.0)),
        ("op_p90_ms".to_string(), stats::percentile(&timed.latencies_ms, 0.9).unwrap_or(0.0)),
        ("throughput_rec_s".to_string(), timed.records as f64 / timed.elapsed_s.max(1e-9)),
        ("cpu_ms_per_op".to_string(), cpu_ms / timed.attempted.max(1) as f64),
        ("peak_rss_mb".to_string(), peak_rss_mb),
    ]);
    Some(Report::new(&timed, &spec.end_to_end, values))
}

fn traced(args: &RunArgs, size: &Sizing, spec: &Spec) -> Option<Report> {
    let (mut w, _) = prepare(args, size)?;
    header(args, w.as_ref());
    let tracer = trace::global();
    // a fifth of the time untraced, for the overhead; three tenths traced
    let untraced = w.run(args.seconds * 0.2);
    tracer.set_on(true);
    let timed = w.run(args.seconds * 0.3);
    tracer.set_on(false);
    // taken now, so spans still open (a source waiting for its next
    // command) end with the traced section, not with the ledger
    let spans = tracer.spans();
    report_failures(&untraced);
    report_failures(&timed);

    let ledger = ledger::run(&w.sample(size.ledger_sample), size, args.seed, args.seconds * 0.5);
    let counters = w.counters(&ledger);
    let model = w.model(&ledger);
    w.teardown();

    let p50 = stats::percentile(&timed.latencies_ms, 0.5).unwrap_or(0.0);
    let p50_untraced = stats::percentile(&untraced.latencies_ms, 0.5).unwrap_or(0.0);
    let modelled: f64 = model.iter().map(|t| t.ms_per_op).sum();
    let unexplained = if p50 > 0.0 { 1.0 - modelled / p50 } else { 0.0 };

    println!("\nper-span totals of the traced section:");
    println!("{:<24} {:>8} {:>14} {:>14}", "span", "count", "total ms", "self ms");
    for (name, t) in trace::totals_of(&spans) {
        println!("{name:<24} {:>8} {:>14.3} {:>14.3}", t.count, t.total_us / 1e3, t.self_us / 1e3);
    }
    println!("\nattribution of op_p50_ms = {p50:.4} ms (traced run):");
    for term in &model {
        println!(
            "  {:<34} {:>10.4} ms  {:>6.1} %   {}",
            term.layer,
            term.ms_per_op,
            100.0 * term.ms_per_op / p50.max(1e-12),
            term.basis
        );
    }
    println!("  {:<34} {:>10.4} ms  {:>6.1} %", "unexplained", p50 - modelled, 100.0 * unexplained);
    println!("attrib.{}.unexplained_frac = {unexplained:.4}", args.workload);
    println!(
        "tracing overhead: op_p50_ms traced {p50:.4} vs untraced {p50_untraced:.4} \
         ({} vs {} ops)\n",
        timed.latencies_ms.len(),
        untraced.latencies_ms.len()
    );

    let trace_file = out_dir().join(format!("trace-{}-{}.json", args.workload, args.seed));
    std::fs::create_dir_all(out_dir()).expect("bench/out is writable");
    std::fs::write(&trace_file, trace::chrome_json(&spans)).expect("trace file is writable");
    println!("chrome trace: {}", trace_file.display());

    // every declared per-layer metric, zero where this workload never
    // enters the layer
    let mut values: BTreeMap<String, f64> =
        spec.per_layer.iter().map(|m| (m.name.clone(), 0.0)).collect();
    values.extend(ledger);
    values.extend(counters.into_iter().map(|(k, v)| (k.to_string(), v)));
    values.insert("attrib.unexplained_frac".into(), unexplained);
    values.insert(
        "trace.overhead_frac".into(),
        if p50_untraced > 0.0 { p50 / p50_untraced - 1.0 } else { 0.0 },
    );
    values.insert("trace.spans_per_op".into(), spans.len() as f64 / timed.attempted.max(1) as f64);
    let mut all = timed;
    all.absorb(untraced);
    Some(Report::new(&all, &spec.per_layer, values))
}

fn save(dir: &Path, args: &RunArgs, report: &Report) {
    std::fs::create_dir_all(dir).expect("--save directory is writable");
    let stamp = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map_or(0, |d| d.as_nanos());
    let file = dir.join(format!(
        "{}-seed{}-trace{}-{stamp}.json",
        args.workload,
        args.seed,
        u8::from(args.trace)
    ));
    let body = format!(
        "{{\"workload\": \"{}\", \"seed\": {}, \"trace\": {}, \"seconds\": {:?}, \"result\": {}}}\n",
        args.workload,
        args.seed,
        u8::from(args.trace),
        args.seconds,
        report.to_json()
    );
    std::fs::write(file, body).expect("--save directory is writable");
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if layers::is_worker_invocation(&args) {
        return match layers::worker_main(args) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("perfbench worker: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let spec = Spec::load();
    let command = match parse(&args, &spec) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let run = match command {
        Command::Compare(a, b) => {
            return match (compare::load_dir(&a), compare::load_dir(&b)) {
                (Ok(a), Ok(b)) => {
                    let rows = compare::compare(&spec, &a, &b);
                    print!("{}", compare::render(&rows));
                    let agree = rows.iter().all(|r| r.verdict == compare::Verdict::Within);
                    println!(
                        "{}",
                        if agree { "all within bounds" } else { "NOT all within bounds" }
                    );
                    if agree && !rows.is_empty() {
                        ExitCode::SUCCESS
                    } else {
                        ExitCode::FAILURE
                    }
                }
                (Err(e), _) | (_, Err(e)) => {
                    eprintln!("perfbench compare: {e}");
                    ExitCode::from(2)
                }
            };
        }
        Command::Run(run) => run,
    };

    // Everything the crates put in the temp dir (spill, shuffle buckets,
    // pool stores) stays inside the checkout; forked workers inherit it.
    // No other thread exists yet, so mutating the environment is sound.
    let tmp = process_tmp();
    std::fs::create_dir_all(&tmp).expect("bench/out is writable");
    std::env::set_var("TMPDIR", &tmp);

    let size = if run.quick { Sizing::quick() } else { Sizing::full() };
    let report =
        if run.trace { traced(&run, &size, &spec) } else { end_to_end(&run, &size, &spec) };
    let _ = std::fs::remove_dir_all(&tmp);
    let Some(report) = report else { return ExitCode::from(3) };
    if let Some(dir) = &run.save {
        save(dir, &run, &report);
    }
    report.print();
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strings(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn both_command_forms_parse_to_the_same_run() {
        let spec = Spec::load();
        let driver =
            strings(&["--workload", "dist", "--seed", "7", "--seconds", "3", "--trace", "1"]);
        let human = strings(&["trace", "dist", "--seed", "7", "--seconds", "3"]);
        for args in [driver, human] {
            match parse(&args, &spec) {
                Ok(Command::Run(r)) => {
                    assert_eq!(
                        (r.workload.as_str(), r.seed, r.seconds, r.trace),
                        ("dist", 7, 3.0, true)
                    );
                }
                _ => panic!("{args:?} must parse as a run"),
            }
        }
        assert!(parse(&strings(&["run", "nope"]), &spec).is_err());
        assert!(parse(&strings(&["--workload", "dist", "--trace", "2"]), &spec).is_err());
        assert!(parse(&strings(&["--workload", "dist", "--seconds", "0"]), &spec).is_err());
        assert!(parse(&strings(&["compare", "a"]), &spec).is_err());
        assert!(parse(&[], &spec).is_err());
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let spec = Spec::load();
        let timed = Timed { attempted: 4, failed: 1, ..Timed::default() };
        let values = spec.end_to_end.iter().map(|m| (m.name.clone(), 1.5)).collect();
        let report = Report::new(&timed, &spec.end_to_end, values);
        let v = serde_json::Value::parse_json(&report.to_json()).expect("valid JSON");
        let serde_json::Value::Object(fields) = &v else { panic!("object expected") };
        let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(v.get_field("correct"), Some(&serde_json::Value::Bool(false)));
        let serde_json::Value::Object(metrics) = v.get_field("metrics").unwrap() else { panic!() };
        assert_eq!(metrics.len(), spec.end_to_end.len());
    }

    #[test]
    #[should_panic(expected = "not declared")]
    fn undeclared_metrics_are_refused() {
        let spec = Spec::load();
        let mut values: BTreeMap<String, f64> =
            spec.end_to_end.iter().map(|m| (m.name.clone(), 1.0)).collect();
        values.insert("made_up".into(), 1.0);
        Report::new(&Timed::default(), &spec.end_to_end, values);
    }
}
