//! Failure-path coverage for the stream driver: a source that dies
//! mid-pump, batch-level retry exhaustion under both failure policies,
//! and watermark stability across a retried batch.

use stark::STObject;
use stark_engine::{Context, EngineConfig, Fault, FaultPlan, FaultRule, Scope};
use stark_geo::Envelope;
use stark_stream::{
    BatchFailurePolicy, GeneratorSource, LatePolicy, MemorySink, Source, StreamConfig,
    StreamContext, StreamJob, StreamReport, WindowSpec, WktSource,
};
use std::sync::Arc;

fn space() -> Envelope {
    Envelope::from_bounds(0.0, 0.0, 100.0, 100.0)
}

fn chaos_engine(max_task_retries: u32, injector: Arc<FaultPlan>) -> Context {
    Context::with_config(EngineConfig {
        parallelism: 2,
        max_task_retries,
        fault_injector: Some(injector),
        ..Default::default()
    })
}

/// Delegates to a [`GeneratorSource`] and panics after `healthy_batches`
/// pulls — a source whose upstream connection drops mid-stream.
struct DisconnectingSource {
    inner: GeneratorSource,
    healthy_batches: usize,
    served: usize,
}

impl Source<(u64, String)> for DisconnectingSource {
    fn next_batch(&mut self, max_records: usize) -> Option<Vec<(STObject, (u64, String))>> {
        if self.served == self.healthy_batches {
            panic!("source lost its upstream connection");
        }
        self.served += 1;
        self.inner.next_batch(max_records)
    }
}

#[test]
fn source_disconnect_mid_pump_ends_stream_cleanly() {
    let sc = StreamContext::with_config(
        Context::with_parallelism(2),
        StreamConfig { batch_records: 100, parallelism: 2, ..Default::default() },
    );
    let source = DisconnectingSource {
        inner: GeneratorSource::new(7, space(), 10, 500, 50),
        healthy_batches: 3,
        served: 0,
    };
    let sink = MemorySink::new();
    let job = StreamJob::new()
        .with_windows(WindowSpec::tumbling(400), 100, LatePolicy::Drop)
        .with_grid_aggregation(4, space())
        .with_sink(sink.clone());
    let report = sc.run(source, job);

    assert!(report.source_disconnected, "pump panic must be reported");
    assert!(!report.aborted);
    assert_eq!(report.batches.len(), 3, "batches pulled before the panic still process");
    assert_eq!(report.batches_failed(), 0);
    // the clean-shutdown path still flushes every open pane
    let windowed: u64 = sink.state().windows.iter().map(|w| w.count).sum();
    assert_eq!(windowed + report.late_dropped(), report.total_records());
    // an insert-only stream carries no retraction traffic, disconnect or not
    assert_eq!(report.records_retracted(), 0);
    assert_eq!(report.retractions_emitted(), 0);
}

#[test]
fn poison_records_quarantine_instead_of_killing_the_stream() {
    // 60 good records over 0..1200, with malformed lines of every shape
    // salted through the feed — a poisoned upstream export.
    let mut lines = Vec::new();
    for i in 0..60u64 {
        let t = i * 20;
        lines.push(format!("{i}\tconcert\t{t}\tPOINT({} {})", i % 10, i / 10));
        if i % 10 == 3 {
            lines.push(format!("{i}\tconcert\t{t}\tPOINT(not numbers)"));
        }
        if i % 10 == 7 {
            lines.push("truncated line".to_string());
        }
    }
    let source = WktSource::new(lines);
    let sc = StreamContext::with_config(
        Context::with_parallelism(2),
        StreamConfig { batch_records: 16, parallelism: 2, ..Default::default() },
    );
    let sink = MemorySink::new();
    let job = StreamJob::new()
        .with_windows(WindowSpec::tumbling(400), 100, LatePolicy::Drop)
        .with_grid_aggregation(4, space())
        .with_sink(sink.clone());
    let report = sc.run(source, job);

    assert!(!report.source_disconnected, "quarantine must replace the pump panic");
    assert!(!report.aborted);
    assert_eq!(report.records_quarantined, 12, "6 bad-WKT + 6 truncated lines");
    assert_eq!(report.total_records(), 60, "every well-formed record is processed");
    // the healthy records still produce full window output
    let windowed: u64 = sink.state().windows.iter().map(|w| w.count).sum();
    assert_eq!(windowed + report.late_dropped(), 60);
    assert!(report.windows_fired() + sink.state().windows.len() as u64 > 0);
    // watermark = max observed event time (59·20) − allowed lateness
    assert_eq!(report.final_watermark, Some(59 * 20 - 100));
    // quarantined records vanish before the operators: they are never
    // retracted, and the recompute path never emits corrections
    assert_eq!(report.records_retracted(), 0);
    assert_eq!(report.retractions_emitted(), 0);
}

/// Shared fixture for the exhaustion tests: every engine task panics
/// (probability 1.0, no engine retries), so every pane aggregation
/// spends its batch retry budget and fails permanently.
fn run_with_poisoned_engine(policy: BatchFailurePolicy) -> StreamReport {
    let chaos = Arc::new(FaultPlan::new(
        0xBAD5EED,
        vec![FaultRule::new(Fault::Panic, Scope::Probability(1.0))],
    ));
    let sc = StreamContext::with_config(
        chaos_engine(0, chaos),
        StreamConfig {
            batch_records: 100,
            parallelism: 2,
            channel_capacity: 2,
            max_batch_retries: 1,
            failure_policy: policy,
            ..Default::default()
        },
    );
    let source = GeneratorSource::new(21, space(), 6, 500, 50);
    let job = StreamJob::new()
        .with_windows(WindowSpec::tumbling(400), 50, LatePolicy::Drop)
        .with_grid_aggregation(4, space())
        .with_sink(MemorySink::new());
    sc.run(source, job)
}

#[test]
fn retry_exhaustion_skip_keeps_pumping() {
    let report = run_with_poisoned_engine(BatchFailurePolicy::Skip);
    assert!(!report.aborted);
    assert_eq!(report.batches.len(), 6, "a poisoned batch must not stall the stream");
    assert!(report.batches_failed() >= 1, "permanent failures must be recorded");
    assert!(
        report.aggregation_retries() >= report.batches_failed(),
        "every failed pane spent its retry budget first"
    );
    // failed and retried batches still never fabricate retraction traffic
    assert_eq!(report.records_retracted(), 0);
    assert_eq!(report.retractions_emitted(), 0);
}

#[test]
fn retry_exhaustion_abort_stops_driver() {
    let report = run_with_poisoned_engine(BatchFailurePolicy::Abort);
    assert!(report.aborted, "Abort policy must stop the driver loop");
    assert_eq!(report.batches_failed(), 1, "driver stops at the first permanent failure");
    assert!(report.batches.last().expect("at least one batch").failed);
    assert!(report.batches.len() < 6, "batches queued after the failure are discarded");
}

/// Runs the reference stream job and returns the report plus the fired
/// panes as comparable `(start, end, count, grid_total)` rows.
fn run_windowed_stream(ctx: Context) -> (StreamReport, Vec<(i64, i64, u64, u64)>) {
    let sc = StreamContext::with_config(
        ctx,
        StreamConfig {
            batch_records: 100,
            parallelism: 2,
            max_batch_retries: 2,
            ..Default::default()
        },
    );
    let source = GeneratorSource::new(42, space(), 5, 500, 50);
    let sink = MemorySink::new();
    let job = StreamJob::new()
        .with_windows(WindowSpec::tumbling(400), 50, LatePolicy::Drop)
        .with_grid_aggregation(4, space())
        .with_sink(sink.clone());
    let report = sc.run(source, job);
    let panes = sink
        .state()
        .windows
        .iter()
        .map(|w| (w.start, w.end, w.count, w.grid.iter().map(|c| c.count).sum()))
        .collect();
    (report, panes)
}

#[test]
fn watermark_stable_across_retried_batch() {
    let (clean, clean_panes) = run_windowed_stream(Context::with_parallelism(2));

    // Stage-scoped permanent fault with no engine retries: the first
    // pane aggregation fails outright, and only the batch-level retry —
    // re-running it as fresh engine jobs with fresh stage ordinals —
    // can recover it.
    let chaos = Arc::new(FaultPlan::new(9, vec![FaultRule::new(Fault::Panic, Scope::Stage(0))]));
    let (faulty, faulty_panes) = run_windowed_stream(chaos_engine(0, Arc::clone(&chaos)));

    assert!(chaos.injected() >= 1, "the stage-0 fault must actually fire");
    assert!(faulty.aggregation_retries() >= 1, "the poisoned pane must retry");
    assert_eq!(faulty.batches_failed(), 0, "a fresh stage ordinal recovers the batch");
    assert_eq!(
        faulty.final_watermark, clean.final_watermark,
        "the watermark is a pure function of observed events; retries must not move it"
    );
    assert!(faulty.final_watermark.is_some());
    assert_eq!(faulty.total_records(), clean.total_records());
    assert_eq!(clean_panes, faulty_panes, "retried pane output must match the clean run");
    // a retried pane re-aggregates; it must never be "corrected" via
    // retraction traffic on the recompute path
    assert_eq!(faulty.records_retracted(), 0);
    assert_eq!(faulty.retractions_emitted(), 0);
}
