//! Micro-batch and per-batch metric types.

use std::time::Duration;

/// Monotone batch sequence number, assigned by the source pump.
pub type BatchId = u64;

/// One micro-batch pulled from a [`crate::Source`].
///
/// Records ride in a shared [`stark_engine::Partition`], so handing the
/// batch from the pump thread to the driver — and from the driver into
/// the window manager and query engine — never deep-copies the payload.
#[derive(Debug, Clone)]
pub struct MicroBatch<V> {
    pub id: BatchId,
    pub records: stark_engine::Partition<(stark::STObject, V)>,
    /// Records the source retracts this batch (upstream corrections).
    /// Empty for plain insert-only sources.
    pub retracts: stark_engine::Partition<(stark::STObject, V)>,
}

/// Per-batch processing metrics, extending the engine's job counters
/// with the stream-level numbers the paper's demonstration surfaces.
#[derive(Debug, Clone, PartialEq)]
pub struct BatchMetrics {
    pub batch: BatchId,
    /// Records in the batch.
    pub records: u64,
    /// Late records discarded this batch.
    pub late_dropped: u64,
    /// Wall-clock time to process the batch end to end.
    pub latency: Duration,
    /// Records per second for this batch (`records / latency`).
    pub events_per_sec: f64,
    /// Channel occupancy observed after pulling the batch (saturation).
    pub queue_depth: usize,
    /// Index partitions this batch's records landed in.
    pub partitions_touched: usize,
    /// Standing-query index trees rebuilt for this batch: partitions
    /// that gained records, plus partitions whose tombstones passed
    /// [`stark::incremental::MAX_DEAD_FRACTION`]. A partition that only
    /// lost records has its extents re-fitted, not its tree rebuilt.
    pub partitions_rebuilt: usize,
    /// Window panes fired while processing this batch.
    pub windows_fired: u64,
    /// Upstream retraction records applied this batch (timely ones,
    /// routed to open panes / standing state; membership-checked no-ops
    /// included). 0 for insert-only streams.
    pub records_retracted: u64,
    /// Retraction events emitted downstream this batch: one per window
    /// the watermark expired on the incremental path, plus every
    /// retracted pair in a standing join's delta emission. 0 on the
    /// pure recompute path — it re-emits full results instead of
    /// correcting them, so any nonzero value there is double-emission.
    pub retractions_emitted: u64,
    /// Extra pane-aggregation attempts consumed by batch-level retry
    /// (0 = clean batch). On top of the engine's own per-task retries.
    pub aggregation_retries: u32,
    /// Event-time watermark after observing this batch (`None` when the
    /// job has no windows). Monotone across batches: load shedding drops
    /// whole batches or thins records *before* they are observed, so it
    /// can hold the watermark still but never move it backward.
    pub watermark: Option<i64>,
    /// Whether processing failed permanently (retry budget spent); the
    /// batch's window observations still stand, only the failed pane
    /// aggregation output is missing.
    pub failed: bool,
}

/// Whole-run roll-up returned by [`crate::StreamContext::run`].
#[derive(Debug, Clone, Default)]
pub struct StreamReport {
    pub batches: Vec<BatchMetrics>,
    /// Wall-clock span of the run, including source wait time.
    pub elapsed: Duration,
    /// The source panicked mid-pump; the stream ended early but cleanly.
    pub source_disconnected: bool,
    /// The driver stopped on a permanently failed batch
    /// ([`crate::BatchFailurePolicy::Abort`]).
    pub aborted: bool,
    /// Event-time watermark when the stream ended. A pure function of
    /// the observed events — batch retries must not move it.
    pub final_watermark: Option<i64>,
    /// Records dropped by the configured [`crate::ShedPolicy`] before
    /// reaching the driver (whole displaced batches plus sampled-out
    /// records). `records sent - records_shed = records processed`.
    pub records_shed: u64,
    /// Whole batches displaced unprocessed by
    /// [`crate::ShedPolicy::DropOldest`].
    pub batches_shed: u64,
    /// Malformed inputs the source diverted to its dead-letter
    /// quarantine instead of panicking the pump (unparseable WKT lines,
    /// corrupt recorded batches). Quarantined records never reach the
    /// driver, so they count toward neither `total_records` nor the
    /// watermark.
    pub records_quarantined: u64,
}

impl StreamReport {
    pub fn total_records(&self) -> u64 {
        self.batches.iter().map(|b| b.records).sum()
    }

    pub fn late_dropped(&self) -> u64 {
        self.batches.iter().map(|b| b.late_dropped).sum()
    }

    /// Upstream retraction records applied across the run.
    pub fn records_retracted(&self) -> u64 {
        self.batches.iter().map(|b| b.records_retracted).sum()
    }

    /// Retraction events emitted downstream across the run.
    pub fn retractions_emitted(&self) -> u64 {
        self.batches.iter().map(|b| b.retractions_emitted).sum()
    }

    /// Extra pane-aggregation attempts spent by batch-level retry.
    pub fn aggregation_retries(&self) -> u64 {
        self.batches.iter().map(|b| b.aggregation_retries as u64).sum()
    }

    /// Batches whose processing failed permanently.
    pub fn batches_failed(&self) -> u64 {
        self.batches.iter().filter(|b| b.failed).count() as u64
    }

    pub fn windows_fired(&self) -> u64 {
        self.batches.iter().map(|b| b.windows_fired).sum()
    }

    /// Total in-processing time (sum of per-batch latencies).
    pub fn processing_time(&self) -> Duration {
        self.batches.iter().map(|b| b.latency).sum()
    }

    /// Mean per-batch latency.
    pub fn mean_latency(&self) -> Duration {
        match self.batches.len() {
            0 => Duration::ZERO,
            n => self.processing_time() / n as u32,
        }
    }

    /// Worst per-batch latency.
    pub fn max_latency(&self) -> Duration {
        self.batches.iter().map(|b| b.latency).max().unwrap_or(Duration::ZERO)
    }

    /// Sustained throughput over processing time (records/second).
    pub fn events_per_sec(&self) -> f64 {
        let secs = self.processing_time().as_secs_f64();
        if secs > 0.0 {
            self.total_records() as f64 / secs
        } else {
            0.0
        }
    }
}
