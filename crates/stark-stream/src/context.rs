//! The stream driver: source pump, micro-batch loop, job wiring.
//!
//! Mirrors Spark Streaming's model on top of the reproduction's engine:
//! a producer thread pulls batches from the [`Source`] and pushes them
//! through a bounded [`stark_engine::channel`] (backpressure: a slow
//! consumer stalls the pump), and the driver loop turns each batch into
//! an engine [`Rdd`](stark_engine::Rdd), feeds the window manager and
//! the continuous-query engine, and emits per-batch metrics.

use crate::batch::{BatchMetrics, MicroBatch, StreamReport};
use crate::delta::{apply_ops, Delta, StatelessOp};
use crate::graph::{DeltaJoin, JoinSpec, PipelineMode, WindowAggregator};
use crate::query::ContinuousQueryEngine;
use crate::sink::{Sink, WindowAggregate};
use crate::source::Source;
use crate::window::{LatePolicy, WindowManager, WindowPane, WindowSpec};
use stark::cluster::{dbscan, DbscanParams};
use stark::SpatialRddExt;
use stark_engine::channel;
use stark_engine::{Context, StoreData};
use stark_geo::Envelope;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Best-effort rendering of a panic payload for error reporting.
fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else if let Some(e) = payload.downcast_ref::<stark_engine::TaskError>() {
        // a cancelled or deadline-exceeded engine job propagates its
        // typed TaskError as the panic payload
        e.to_string()
    } else {
        "non-string panic payload".to_string()
    }
}

/// How the source pump degrades when the driver cannot keep up —
/// i.e. when the bounded batch channel saturates (or consumer lag
/// crosses [`StreamConfig::shed_lag_threshold`]). Shedding happens
/// *before* a record is observed by the window manager, so it can hold
/// the watermark still but never moves it backward.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ShedPolicy {
    /// Backpressure: the pump blocks until the driver drains a batch.
    /// Nothing is lost; the source is stalled (the pre-existing
    /// behaviour).
    #[default]
    Block,
    /// Displace the *oldest* queued batch to make room for the newest —
    /// freshest data wins, displaced batches are counted in
    /// [`StreamReport::batches_shed`] / `records_shed`.
    DropOldest,
    /// Thin saturated batches by keeping every n-th record (the first
    /// record of each batch always survives); sampled-out records count
    /// toward [`StreamReport::records_shed`].
    Sample {
        /// Keep 1 record in `n` while saturated (`n >= 1`; 1 sheds nothing).
        keep_1_in_n: u32,
    },
}

/// What the driver does with a batch whose pane aggregation still fails
/// after the batch-level retry budget is spent.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum BatchFailurePolicy {
    /// Record the failure in [`BatchMetrics::failed`] and keep pumping —
    /// a poisoned batch must not stall the stream.
    #[default]
    Skip,
    /// Stop the driver loop; remaining queued batches are discarded.
    Abort,
}

/// Tuning knobs for a stream run. The driver blocks on the batch channel
/// until the next batch arrives or the stream ends.
#[derive(Debug, Clone)]
pub struct StreamConfig {
    /// Max records the pump requests per batch.
    pub batch_records: usize,
    /// In-flight batches before the pump blocks (backpressure depth).
    pub channel_capacity: usize,
    /// Partitions for each per-batch [`stark_engine::Rdd`].
    pub parallelism: usize,
    /// Retries a batch's pane aggregation gets after a permanent engine
    /// failure, on top of the engine's own per-task retries. Each retry
    /// re-runs the aggregation as fresh engine jobs (fresh stage
    /// ordinals), so a transiently poisoned batch recovers instead of
    /// stalling the pump.
    pub max_batch_retries: u32,
    /// What to do when the batch retry budget is exhausted.
    pub failure_policy: BatchFailurePolicy,
    /// How the pump degrades when the driver lags (see [`ShedPolicy`]).
    pub shed_policy: ShedPolicy,
    /// Queued-batch count at which the pump starts shedding. `None`
    /// sheds only when the channel is completely full
    /// (`channel_capacity`); irrelevant under [`ShedPolicy::Block`].
    pub shed_lag_threshold: Option<usize>,
    /// Wall-clock budget for each batch's pane aggregations, installed
    /// as an ambient engine deadline around batch processing
    /// ([`stark_engine::Context::deadline_scope`]). A batch past its
    /// deadline fails with a typed `DeadlineExceeded` engine error and
    /// is handled by [`StreamConfig::failure_policy`] like any other
    /// failed batch — its window *observations* still stand, so the
    /// watermark is unaffected. `None` (the default) never expires.
    pub batch_deadline: Option<Duration>,
}

impl Default for StreamConfig {
    fn default() -> Self {
        StreamConfig {
            batch_records: 1024,
            channel_capacity: 4,
            parallelism: 4,
            max_batch_retries: 2,
            failure_policy: BatchFailurePolicy::Skip,
            shed_policy: ShedPolicy::Block,
            shed_lag_threshold: None,
            batch_deadline: None,
        }
    }
}

/// Everything attached to a stream run: windows, window-level
/// aggregations, continuous queries and sinks. Built once, consumed by
/// [`StreamContext::run`].
pub struct StreamJob<V: StoreData> {
    mode: PipelineMode,
    ops: Vec<StatelessOp<V>>,
    windows: Option<WindowManager<V>>,
    grid: Option<(usize, Envelope)>,
    hotspots: Option<DbscanParams>,
    join: Option<JoinSpec<V>>,
    queries: Option<ContinuousQueryEngine<V>>,
    sinks: Vec<Box<dyn Sink<V>>>,
}

impl<V: StoreData> Default for StreamJob<V> {
    fn default() -> Self {
        Self::new()
    }
}

impl<V: StoreData> StreamJob<V> {
    pub fn new() -> Self {
        StreamJob {
            mode: PipelineMode::Recompute,
            ops: Vec::new(),
            windows: None,
            grid: None,
            hotspots: None,
            join: None,
            queries: None,
            sinks: Vec::new(),
        }
    }

    /// Selects how state-bearing operators execute (default:
    /// [`PipelineMode::Recompute`]).
    pub fn with_mode(mut self, mode: PipelineMode) -> Self {
        self.mode = mode;
        self
    }

    /// Shorthand for [`Self::with_mode`]`(PipelineMode::Incremental)`.
    pub fn incremental(self) -> Self {
        self.with_mode(PipelineMode::Incremental)
    }

    /// Appends a stateless filter/map operator; the chain applies to
    /// every batch's delta, in order, before any stateful operator —
    /// identically on both execution paths.
    pub fn with_op(mut self, op: StatelessOp<V>) -> Self {
        self.ops.push(op);
        self
    }

    /// Attaches a standing stream-stream join, executed per the job's
    /// [`PipelineMode`]: full re-probe each batch under recompute,
    /// delta-probes against per-side incremental indexes under
    /// incremental.
    pub fn with_join(mut self, spec: JoinSpec<V>) -> Self {
        self.join = Some(spec);
        self
    }

    /// Windows events by event time with the given lateness policy.
    pub fn with_windows(
        mut self,
        spec: WindowSpec,
        allowed_lateness: i64,
        policy: LatePolicy,
    ) -> Self {
        self.windows = Some(WindowManager::new(spec, allowed_lateness, policy));
        self
    }

    /// Computes per-cell counts over `space` for every fired window.
    pub fn with_grid_aggregation(mut self, dims: usize, space: Envelope) -> Self {
        self.grid = Some((dims, space));
        self
    }

    /// Runs DBSCAN hotspot detection on every fired window.
    pub fn with_hotspots(mut self, params: DbscanParams) -> Self {
        self.hotspots = Some(params);
        self
    }

    /// Attaches a continuous-query engine evaluated on every batch.
    pub fn with_queries(mut self, engine: ContinuousQueryEngine<V>) -> Self {
        self.queries = Some(engine);
        self
    }

    /// Attaches an output sink (any number may be attached).
    pub fn with_sink(mut self, sink: impl Sink<V> + 'static) -> Self {
        self.sinks.push(Box::new(sink));
        self
    }
}

/// Drives micro-batch stream jobs over an engine [`Context`].
pub struct StreamContext {
    ctx: Context,
    config: StreamConfig,
}

impl StreamContext {
    pub fn new(ctx: Context) -> Self {
        StreamContext { ctx, config: StreamConfig::default() }
    }

    pub fn with_config(ctx: Context, config: StreamConfig) -> Self {
        assert!(config.batch_records > 0, "batch_records must be positive");
        assert!(config.parallelism > 0, "parallelism must be positive");
        if let ShedPolicy::Sample { keep_1_in_n } = config.shed_policy {
            assert!(keep_1_in_n >= 1, "keep_1_in_n must be at least 1");
        }
        StreamContext { ctx, config }
    }

    /// The underlying engine context.
    pub fn engine(&self) -> &Context {
        &self.ctx
    }

    pub fn config(&self) -> &StreamConfig {
        &self.config
    }

    /// Runs `source` to exhaustion through `job`. Blocks until the
    /// source ends and every pane has been flushed.
    pub fn run<V, S>(&self, source: S, mut job: StreamJob<V>) -> StreamReport
    where
        V: StoreData + PartialEq,
        S: Source<V> + 'static,
    {
        assert!(
            job.mode == PipelineMode::Recompute || job.hotspots.is_none(),
            "hotspot detection (DBSCAN) is a holistic aggregate and cannot be \
             maintained incrementally; use PipelineMode::Recompute"
        );
        // Incremental mode trades the window manager's fire-time pane
        // recompute for a delta-maintained aggregator, and instantiates
        // the standing join against per-side incremental indexes.
        let mut aggregator: Option<WindowAggregator<V>> = if job.mode == PipelineMode::Incremental {
            job.windows.take().map(|wm| {
                WindowAggregator::new(wm.spec(), wm.allowed_lateness(), wm.policy(), job.grid)
            })
        } else {
            None
        };
        let mut join: Option<DeltaJoin<V>> =
            job.join.take().map(|spec| DeltaJoin::new(spec, job.mode));

        let (tx, rx) = channel::bounded::<MicroBatch<V>>(self.config.channel_capacity);
        let batch_records = self.config.batch_records;
        let shed_policy = self.config.shed_policy;
        let shed_bound =
            self.config.shed_lag_threshold.unwrap_or(self.config.channel_capacity).max(1);
        let source_panicked = Arc::new(AtomicBool::new(false));
        let pump_flag = Arc::clone(&source_panicked);
        let records_shed = Arc::new(AtomicU64::new(0));
        let batches_shed = Arc::new(AtomicU64::new(0));
        let records_quarantined = Arc::new(AtomicU64::new(0));
        let pump_records_shed = Arc::clone(&records_shed);
        let pump_batches_shed = Arc::clone(&batches_shed);
        let pump_quarantined = Arc::clone(&records_quarantined);
        let pump = std::thread::spawn(move || {
            let mut source = source;
            let mut id = 0u64;
            loop {
                // A panicking source must not take the driver down with
                // it: catch it here, flag it, and let the dropped sender
                // end the stream cleanly.
                let delta =
                    match catch_unwind(AssertUnwindSafe(|| source.next_delta(batch_records))) {
                        Ok(Some(delta)) => delta,
                        Ok(None) => break, // source drained
                        Err(_) => {
                            pump_flag.store(true, Ordering::Release);
                            break;
                        }
                    };
                let mut batch = MicroBatch {
                    id,
                    records: stark_engine::Partition::from_vec(delta.inserts),
                    retracts: stark_engine::Partition::from_vec(delta.retracts),
                };
                id += 1;
                // Saturation handling: shedding drops data *here*, before
                // the window manager ever observes it, so the watermark
                // can stall but never regress.
                match shed_policy {
                    ShedPolicy::Block => {
                        if tx.send(batch).is_err() {
                            break; // driver went away
                        }
                    }
                    ShedPolicy::DropOldest => match tx.send_or_displace(batch, shed_bound) {
                        Ok(displaced) => {
                            for old in displaced {
                                pump_batches_shed.fetch_add(1, Ordering::Relaxed);
                                pump_records_shed.fetch_add(
                                    (old.records.len() + old.retracts.len()) as u64,
                                    Ordering::Relaxed,
                                );
                            }
                        }
                        Err(_) => break,
                    },
                    ShedPolicy::Sample { keep_1_in_n } => {
                        if keep_1_in_n > 1 && tx.len() >= shed_bound {
                            let full = batch.records.len();
                            let kept: Vec<_> = batch
                                .records
                                .iter()
                                .step_by(keep_1_in_n as usize)
                                .cloned()
                                .collect();
                            pump_records_shed
                                .fetch_add((full - kept.len()) as u64, Ordering::Relaxed);
                            batch.records = stark_engine::Partition::from_vec(kept);
                        }
                        if tx.send(batch).is_err() {
                            break;
                        }
                    }
                }
            }
            // Quarantine is owned by the source; publish the final count
            // once the pump winds down (normal end, panic, or abort).
            pump_quarantined.store(source.records_quarantined(), Ordering::Release);
        });

        let run_start = Instant::now();
        let mut report = StreamReport::default();
        loop {
            let Ok(batch) = rx.recv() else { break };
            let queue_depth = rx.len();
            let metrics =
                self.process_batch(batch, queue_depth, &mut job, &mut aggregator, &mut join);
            let failed = metrics.failed;
            for sink in &mut job.sinks {
                sink.on_batch(&metrics);
            }
            report.batches.push(metrics);
            if failed && self.config.failure_policy == BatchFailurePolicy::Abort {
                report.aborted = true;
                break;
            }
        }
        // Unblock a pump stalled on a full channel (Abort path) before
        // joining it, or the join below would deadlock.
        drop(rx);

        // end of stream: fire every pane still open. The watermark is
        // captured first — it reflects observed events only, so batch
        // retries and the flush itself cannot move it.
        if let Some(wm) = &mut job.windows {
            report.final_watermark = wm.watermark();
            let remaining = wm.flush();
            for pane in remaining {
                let mut retries = 0u32;
                if let Ok(agg) =
                    self.aggregate_pane_with_retry(pane, &job.grid, &job.hotspots, &mut retries)
                {
                    for sink in &mut job.sinks {
                        sink.on_window(&agg);
                    }
                }
            }
        } else if let Some(agg) = &mut aggregator {
            // Incremental flush emits the maintained aggregates directly
            // — no engine jobs, nothing to retry.
            report.final_watermark = agg.watermark();
            for window in agg.flush() {
                for sink in &mut job.sinks {
                    sink.on_window(&window);
                }
            }
        }
        let _ = pump.join(); // panic already recorded via the flag
        report.source_disconnected = source_panicked.load(Ordering::Acquire);
        report.records_shed = records_shed.load(Ordering::Relaxed);
        report.batches_shed = batches_shed.load(Ordering::Relaxed);
        report.records_quarantined = records_quarantined.load(Ordering::Acquire);
        report.elapsed = run_start.elapsed();
        report
    }

    fn process_batch<V: StoreData + PartialEq>(
        &self,
        batch: MicroBatch<V>,
        queue_depth: usize,
        job: &mut StreamJob<V>,
        aggregator: &mut Option<WindowAggregator<V>>,
        join: &mut Option<DeltaJoin<V>>,
    ) -> BatchMetrics {
        let started = Instant::now();
        let records = batch.records.len() as u64;
        // Streaming batches draw on the same context-wide memory budget
        // as engine jobs: a forced reservation held for the batch's
        // lifetime, so under pressure cached/checkpointed partitions are
        // evicted rather than the live batch being refused.
        let _memory = self
            .ctx
            .memory()
            .reserve(batch.records.shallow_bytes() + batch.retracts.shallow_bytes());
        // Per-batch latency bound: pane aggregations (engine jobs) run
        // under an ambient deadline for the rest of this batch. The
        // window bookkeeping below is driver-local and unaffected, so a
        // timed-out batch still advances the watermark correctly.
        let _deadline = self.config.batch_deadline.map(|d| self.ctx.deadline_scope(d));

        let mut late_dropped = 0u64;
        let mut windows_fired = 0u64;
        let mut records_retracted = 0u64;
        let mut retractions_emitted = 0u64;
        let mut aggregation_retries = 0u32;
        let mut failed = false;
        let mut watermark = None;

        // The batch flows through the graph as a delta; the stateless
        // operator chain transforms it identically on both paths. A
        // panicking operator skips the batch whole — nothing was
        // observed, no state changed, the watermark simply holds still.
        let mut delta = Delta::new(
            batch.records.iter().cloned().collect(),
            batch.retracts.iter().cloned().collect(),
        );
        if !job.ops.is_empty() {
            let ops = &job.ops;
            match catch_unwind(AssertUnwindSafe(move || {
                let mut d = delta;
                apply_ops(ops, &mut d);
                d
            })) {
                Ok(d) => delta = d,
                Err(_) => {
                    let watermark = job
                        .windows
                        .as_ref()
                        .and_then(|wm| wm.watermark())
                        .or_else(|| aggregator.as_ref().and_then(|a| a.watermark()));
                    let latency = started.elapsed();
                    return BatchMetrics {
                        batch: batch.id,
                        records,
                        late_dropped: 0,
                        latency,
                        events_per_sec: 0.0,
                        queue_depth,
                        partitions_touched: 0,
                        partitions_rebuilt: 0,
                        windows_fired: 0,
                        records_retracted: 0,
                        retractions_emitted: 0,
                        aggregation_retries: 0,
                        watermark,
                        failed: true,
                    };
                }
            }
        }

        if let Some(wm) = &mut job.windows {
            // Observe/side/fire run exactly once per batch — they are
            // driver-local and infallible, so the watermark is a pure
            // function of the observed events no matter how often the
            // pane aggregation below retries.
            let stats = wm.observe_delta(&delta);
            late_dropped = stats.dropped;
            records_retracted = stats.retracted;
            watermark = wm.watermark();
            let side = wm.take_side_output();
            if !side.is_empty() {
                for sink in &mut job.sinks {
                    sink.on_late(&side);
                }
            }
            let fired = wm.fire_ready();
            windows_fired = fired.len() as u64;
            for pane in fired {
                match self.aggregate_pane_with_retry(
                    pane,
                    &job.grid,
                    &job.hotspots,
                    &mut aggregation_retries,
                ) {
                    Ok(agg) => {
                        for sink in &mut job.sinks {
                            sink.on_window(&agg);
                        }
                    }
                    Err(_) => failed = true,
                }
            }
        } else if let Some(agg) = aggregator.as_mut() {
            // Incremental path: the delta updates running aggregates in
            // O(Δ); expiry emits maintained state without re-scanning,
            // plus exactly one retraction per expired window.
            let stats = agg.observe_delta(&delta);
            late_dropped = stats.dropped;
            records_retracted = stats.retracted;
            watermark = agg.watermark();
            let side = agg.take_side_output();
            if !side.is_empty() {
                for sink in &mut job.sinks {
                    sink.on_late(&side);
                }
            }
            let expired = agg.expire();
            windows_fired = expired.len() as u64;
            retractions_emitted += expired.len() as u64;
            for (window, retraction) in &expired {
                for sink in &mut job.sinks {
                    sink.on_window(window);
                    sink.on_retraction(retraction);
                }
            }
        }

        if let Some(dj) = join.as_mut() {
            // Like query evaluation below: caught but not retried, since
            // a replay would double-apply the delta to join state.
            match catch_unwind(AssertUnwindSafe(|| dj.on_delta(&delta))) {
                Ok(emission) => {
                    retractions_emitted += emission.retracted() as u64;
                    for sink in &mut job.sinks {
                        sink.on_join(batch.id, &emission);
                    }
                }
                Err(_) => failed = true,
            }
        }

        let mut partitions_touched = 0;
        let mut partitions_rebuilt = 0;
        if let Some(engine) = &mut job.queries {
            // Query evaluation mutates the incremental index, so it is
            // caught but not retried: it runs no engine jobs (chaos
            // cannot strike it) and a replay could double-apply inserts.
            match catch_unwind(AssertUnwindSafe(|| engine.on_delta(&delta))) {
                Ok(eval) => {
                    partitions_touched = eval.partitions_touched;
                    partitions_rebuilt = eval.partitions_rebuilt;
                    for sink in &mut job.sinks {
                        sink.on_query_results(batch.id, &eval.results);
                    }
                }
                Err(_) => failed = true,
            }
        }

        let latency = started.elapsed();
        let events_per_sec =
            if latency.as_secs_f64() > 0.0 { records as f64 / latency.as_secs_f64() } else { 0.0 };
        BatchMetrics {
            batch: batch.id,
            records,
            late_dropped,
            latency,
            events_per_sec,
            queue_depth,
            partitions_touched,
            partitions_rebuilt,
            windows_fired,
            records_retracted,
            retractions_emitted,
            aggregation_retries,
            watermark,
            failed,
        }
    }

    /// Runs [`Self::aggregate_pane`] with the batch-level retry budget.
    /// Each attempt gets a cloned pane and fresh engine jobs (fresh
    /// stage ordinals), so a failure scoped to one stage or poisoned by
    /// a transient fault recovers on replay. `retries` accumulates the
    /// extra attempts spent.
    fn aggregate_pane_with_retry<V: StoreData>(
        &self,
        pane: WindowPane<V>,
        grid: &Option<(usize, Envelope)>,
        hotspots: &Option<DbscanParams>,
        retries: &mut u32,
    ) -> Result<WindowAggregate, String> {
        let budget = self.config.max_batch_retries;
        let mut attempt = 0u32;
        loop {
            let attempt_pane = pane.clone();
            match catch_unwind(AssertUnwindSafe(|| {
                self.aggregate_pane(attempt_pane, grid, hotspots)
            })) {
                Ok(agg) => return Ok(agg),
                Err(payload) => {
                    if attempt >= budget {
                        return Err(panic_message(payload));
                    }
                    attempt += 1;
                    *retries += 1;
                }
            }
        }
    }

    /// Computes the configured aggregates for one fired pane. The pane
    /// becomes a per-batch engine Rdd so grid aggregation and DBSCAN run
    /// through the same partitioned operators as the batch API.
    fn aggregate_pane<V: StoreData>(
        &self,
        pane: WindowPane<V>,
        grid: &Option<(usize, Envelope)>,
        hotspots: &Option<DbscanParams>,
    ) -> WindowAggregate {
        let count = pane.records.len() as u64;
        let mut agg = WindowAggregate {
            start: pane.start,
            end: pane.end,
            count,
            grid: Vec::new(),
            hotspot_clusters: 0,
        };
        if pane.records.is_empty() || (grid.is_none() && hotspots.is_none()) {
            return agg;
        }
        let parts = self.config.parallelism.min(pane.records.len()).max(1);
        let spatial = self.ctx.parallelize(pane.records, parts).spatial();
        if let Some((dims, space)) = grid {
            agg.grid = spatial.aggregate_by_grid(*dims, space);
        }
        if let Some(params) = hotspots {
            let mut clusters: Vec<u64> = dbscan(&spatial, *params)
                .collect()
                .into_iter()
                .filter_map(|(_, _, label)| label)
                .collect();
            clusters.sort_unstable();
            clusters.dedup();
            agg.hotspot_clusters = clusters.len() as u64;
        }
        agg
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::StandingQuery;
    use crate::sink::MemorySink;
    use crate::source::GeneratorSource;
    use stark::STPredicate;
    use stark::{DataSummary, GridPartitioner, STObject, SpatialPartitioner};
    use stark_geo::Coord;
    use std::sync::Arc;

    fn space() -> Envelope {
        Envelope::from_bounds(0.0, 0.0, 100.0, 100.0)
    }

    fn partitioner() -> Arc<dyn SpatialPartitioner> {
        let summary: DataSummary = [(0.0, 0.0), (100.0, 100.0)]
            .iter()
            .map(|&(x, y)| (Envelope::from_point(Coord::new(x, y)), Coord::new(x, y)))
            .collect();
        Arc::new(GridPartitioner::build(4, &summary))
    }

    #[test]
    fn end_to_end_stream_run() {
        let sc = StreamContext::with_config(
            Context::with_parallelism(2),
            StreamConfig {
                batch_records: 200,
                channel_capacity: 2,
                parallelism: 2,
                ..Default::default()
            },
        );
        let source = GeneratorSource::new(11, space(), 5, 1000, 100);
        let region =
            STObject::from_wkt_interval("POLYGON((20 20, 80 20, 80 80, 20 80, 20 20))", 0, 1 << 40)
                .unwrap();
        let sink = MemorySink::new();
        let job =
            StreamJob::new()
                .with_windows(WindowSpec::tumbling(500), 150, LatePolicy::Drop)
                .with_grid_aggregation(5, space())
                .with_queries(
                    ContinuousQueryEngine::indexed(partitioner(), 8).with_query(
                        StandingQuery::filter("region", region, STPredicate::Intersects),
                    ),
                )
                .with_sink(sink.clone());

        let report = sc.run(source, job);
        assert_eq!(report.batches.len(), 5);
        assert_eq!(report.total_records(), 1000);
        assert!(report.events_per_sec() > 0.0);

        let state = sink.state();
        assert_eq!(state.batches.len(), 5);
        // every accepted record shows up in exactly one tumbling pane
        let windowed: u64 = state.windows.iter().map(|w| w.count).sum();
        assert_eq!(windowed + report.late_dropped(), 1000);
        // grid cell counts agree with pane counts
        for w in &state.windows {
            let grid_total: u64 = w.grid.iter().map(|c| c.count).sum();
            assert_eq!(grid_total, w.count, "window [{}, {})", w.start, w.end);
        }
        // query results arrive for every batch and grow monotonically
        assert_eq!(state.query_results.len(), 5);
        let sizes: Vec<usize> =
            state.query_results.iter().map(|(_, rs)| rs[0].output.len()).collect();
        assert!(sizes.windows(2).all(|w| w[0] <= w[1]), "standing result must grow: {sizes:?}");
    }

    #[test]
    fn side_output_collects_late_records() {
        let sc = StreamContext::with_config(
            Context::with_parallelism(2),
            StreamConfig { batch_records: 100, ..Default::default() },
        );
        // jitter 300 far beyond lateness 10: some records must be late
        let source = GeneratorSource::new(3, space(), 4, 1000, 300);
        let sink = MemorySink::new();
        let job = StreamJob::new()
            .with_windows(WindowSpec::tumbling(400), 10, LatePolicy::SideOutput)
            .with_sink(sink.clone());
        let report = sc.run(source, job);
        let state = sink.state();
        assert!(!state.late.is_empty(), "expected side-output records");
        assert_eq!(report.late_dropped(), 0, "side-output must not count as dropped");
        let windowed: u64 = state.windows.iter().map(|w| w.count).sum();
        assert_eq!(windowed as usize + state.late.len(), 400);
    }
}
