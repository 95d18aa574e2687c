//! Load-shedding and per-batch-deadline coverage: every shed record is
//! accounted (`records_shed == records sent − records windowed`), the
//! watermark never moves backward no matter what is shed, and a batch
//! past its deadline fails typed without stalling the stream.

use stark_engine::{Context, EngineConfig, Fault, FaultPlan, FaultRule, Scope};
use stark_geo::Envelope;
use stark_stream::{
    BatchMetrics, EventPayload, GeneratorSource, LatePolicy, MemorySink, ShedPolicy, Sink,
    StreamConfig, StreamContext, StreamJob, StreamReport, WindowSpec,
};
use std::sync::Arc;
use std::time::Duration;

fn space() -> Envelope {
    Envelope::from_bounds(0.0, 0.0, 100.0, 100.0)
}

/// Stalls the driver loop after every batch, so the pump outruns the
/// consumer and the bounded channel saturates.
struct SlowSink {
    delay: Duration,
}

impl Sink<EventPayload> for SlowSink {
    fn on_batch(&mut self, _metrics: &BatchMetrics) {
        std::thread::sleep(self.delay);
    }
}

const BATCHES: usize = 16;
const BATCH_RECORDS: usize = 100;
const SENT: u64 = (BATCHES * BATCH_RECORDS) as u64;

/// Runs a slow consumer against a fast source under `policy` and
/// returns the report plus the total records landing in window panes.
/// Jitter 0 and generous lateness: nothing is ever late, so windowed
/// records account for every record the driver actually observed.
fn run_saturated(
    seed: u64,
    policy: ShedPolicy,
    lag_threshold: Option<usize>,
) -> (StreamReport, u64) {
    let sc = StreamContext::with_config(
        Context::with_parallelism(2),
        StreamConfig {
            batch_records: BATCH_RECORDS,
            channel_capacity: 2,
            parallelism: 2,
            shed_policy: policy,
            shed_lag_threshold: lag_threshold,
            ..Default::default()
        },
    );
    let source = GeneratorSource::new(seed, space(), BATCHES, 100, 0);
    let sink = MemorySink::new();
    let job = StreamJob::new()
        .with_windows(WindowSpec::tumbling(250), 10_000, LatePolicy::Drop)
        .with_sink(sink.clone())
        .with_sink(SlowSink { delay: Duration::from_millis(15) });
    let report = sc.run(source, job);
    let windowed = sink.state().windows.iter().map(|w| w.count).sum();
    (report, windowed)
}

/// Watermarks reported per batch must be non-decreasing.
fn assert_watermark_monotone(report: &StreamReport) {
    let marks: Vec<i64> = report.batches.iter().filter_map(|b| b.watermark).collect();
    assert!(
        marks.windows(2).all(|w| w[0] <= w[1]),
        "watermark moved backward across batches: {marks:?}"
    );
    if let (Some(last), Some(fin)) = (marks.last(), report.final_watermark) {
        assert!(fin >= *last, "final watermark regressed below the last batch");
    }
}

/// Shedding an insert-only stream must never surface as retraction
/// traffic: shed records are dropped before the operators, not
/// retracted after them.
fn assert_no_retraction_accounting(report: &StreamReport) {
    assert_eq!(report.records_retracted(), 0, "insert-only stream: nothing to retract");
    assert_eq!(report.retractions_emitted(), 0, "recompute path must never emit corrections");
}

#[test]
fn block_policy_sheds_nothing() {
    let (report, windowed) = run_saturated(1, ShedPolicy::Block, None);
    assert_eq!(report.records_shed, 0);
    assert_eq!(report.batches_shed, 0);
    assert_eq!(report.total_records(), SENT, "backpressure must preserve every record");
    assert_eq!(report.late_dropped(), 0);
    assert_eq!(windowed, SENT);
    assert_watermark_monotone(&report);
    assert_no_retraction_accounting(&report);
}

#[test]
fn drop_oldest_sheds_are_fully_accounted() {
    // property over several seeds: however many batches the race sheds,
    // the ledger must balance exactly
    for seed in [7u64, 21, 42] {
        let (report, windowed) = run_saturated(seed, ShedPolicy::DropOldest, None);
        assert!(report.batches_shed > 0, "seed {seed}: a 15ms/batch consumer must shed");
        assert_eq!(
            report.records_shed,
            report.batches_shed * BATCH_RECORDS as u64,
            "seed {seed}: whole batches are displaced"
        );
        assert_eq!(
            report.total_records(),
            SENT - report.records_shed,
            "seed {seed}: processed = sent - shed"
        );
        assert_eq!(
            windowed,
            SENT - report.records_shed,
            "seed {seed}: records_shed must equal records sent minus records windowed"
        );
        assert_watermark_monotone(&report);
        assert_no_retraction_accounting(&report);
    }
}

#[test]
fn sampling_thins_saturated_batches_and_accounts_every_record() {
    let (report, windowed) = run_saturated(5, ShedPolicy::Sample { keep_1_in_n: 4 }, Some(1));
    assert!(report.records_shed > 0, "saturated batches must be thinned");
    assert_eq!(report.batches_shed, 0, "sampling never drops whole batches");
    assert_eq!(report.total_records(), SENT - report.records_shed);
    assert_eq!(windowed, SENT - report.records_shed);
    assert_watermark_monotone(&report);
    assert_no_retraction_accounting(&report);
}

#[test]
fn batch_deadline_fails_typed_without_stalling_the_stream() {
    // every engine task of the first attempt stalls 150ms; the batch
    // deadline is 25ms, so pane aggregation fails typed long before the
    // stall ends — and the stream keeps pumping (Skip policy)
    let chaos = Arc::new(FaultPlan::new(
        0x5EED,
        vec![FaultRule::new(Fault::Delay(Duration::from_millis(150)), Scope::Probability(1.0))],
    ));
    let engine = Context::with_config(EngineConfig {
        parallelism: 2,
        max_task_retries: 3,
        fault_injector: Some(Arc::clone(&chaos)),
        ..Default::default()
    });
    let sc = StreamContext::with_config(
        engine,
        StreamConfig {
            batch_records: 100,
            parallelism: 2,
            max_batch_retries: 0,
            batch_deadline: Some(Duration::from_millis(25)),
            ..Default::default()
        },
    );
    let source = GeneratorSource::new(3, space(), 4, 250, 0);
    let sink = MemorySink::new();
    let job = StreamJob::new()
        .with_windows(WindowSpec::tumbling(250), 0, LatePolicy::Drop)
        .with_grid_aggregation(4, space())
        .with_sink(sink.clone());
    let report = sc.run(source, job);

    assert_eq!(report.batches.len(), 4, "timed-out batches must not stall the pump");
    assert!(report.batches_failed() >= 1, "the stalled aggregation must fail its deadline");
    assert!(!report.aborted);
    assert!(
        sc.engine().metrics().deadline_exceeded_jobs >= 1,
        "the engine must record the deadline-exceeded job"
    );
    // watermark bookkeeping is driver-local and survives the timeouts
    assert!(report.final_watermark.is_some());
    assert_watermark_monotone(&report);
    assert_no_retraction_accounting(&report);
    // the end-of-stream flush runs without the per-batch deadline, so
    // the stalled panes eventually aggregate (delays, not failures)
    assert!(sink.state().windows.iter().map(|w| w.count).sum::<u64>() > 0);
}
