//! Engine instrumentation.
//!
//! Spark exposes task- and stage-level metrics through its UI; this engine
//! exposes the counters the STARK evaluation cares about — most notably
//! how many partition tasks ran and how many were pruned away by spatial
//! partition bounds (paper §2.1: pruned partitions "decrease the number of
//! data items to process significantly").

use std::sync::atomic::{AtomicU64, Ordering};

/// Monotonic counters shared by every job run on a [`crate::Context`].
#[derive(Debug, Default)]
pub struct Metrics {
    /// Partition tasks actually executed.
    pub tasks_launched: AtomicU64,
    /// Records materialised out of partition computations.
    pub records_read: AtomicU64,
    /// Partition tasks skipped by predicate-driven pruning.
    pub partitions_pruned: AtomicU64,
    /// Shuffles (full re-partitioning passes) performed.
    pub shuffles: AtomicU64,
    /// Actions (jobs) started.
    pub jobs: AtomicU64,
    /// Cumulative wall-clock time spent inside partition tasks, in
    /// nanoseconds (summed across workers, so it can exceed elapsed time).
    pub task_nanos: AtomicU64,
    /// Cumulative wall-clock time of whole job runs (partition sweeps),
    /// in nanoseconds. Only top-level jobs accumulate here: a shuffle
    /// materialising inside a running job is covered by the enclosing
    /// job's interval and would otherwise be double-counted.
    pub job_nanos: AtomicU64,
    /// Records deep-cloned out of shared partition storage because a
    /// consumer needed owned elements (the clone the zero-copy
    /// [`Partition`](crate::Partition) data path could not avoid).
    pub records_cloned: AtomicU64,
    /// Shallow payload bytes served by Arc-sharing a partition handle
    /// (caches, shuffle buckets, parallelized sources) instead of
    /// deep-cloning the partition on access.
    pub clone_bytes_avoided: AtomicU64,
    /// Task attempts that failed and were retried (each retry of each
    /// task counts once).
    pub tasks_retried: AtomicU64,
    /// Tasks that exhausted their retry budget (or hit a non-retryable
    /// error) and surfaced a permanent [`TaskError`](crate::TaskError).
    pub tasks_failed_permanently: AtomicU64,
    /// Partitions recomputed from lineage (or re-read from a
    /// checkpoint) on a post-failure attempt.
    pub partitions_recomputed: AtomicU64,
    /// Serialised bytes written by [`Rdd::checkpoint`](crate::Rdd).
    pub checkpoint_bytes: AtomicU64,
    /// Speculative duplicate attempts launched for straggling tasks.
    pub tasks_speculated: AtomicU64,
    /// Speculative duplicates that finished before the original attempt
    /// and supplied the partition's result.
    pub speculative_wins: AtomicU64,
    /// Task attempts that observed cooperative cancellation (explicit
    /// cancel, lost speculation race, or a passed deadline) and aborted.
    pub tasks_cancelled: AtomicU64,
    /// Top-level jobs that failed with
    /// [`TaskErrorKind::DeadlineExceeded`](crate::TaskErrorKind).
    pub deadline_exceeded_jobs: AtomicU64,
    /// High-water mark of accounted bytes reserved from the context's
    /// [`MemoryManager`](crate::MemoryManager) — a peak gauge, not a
    /// monotone counter.
    pub bytes_reserved_peak: AtomicU64,
    /// Serialised bytes written to the spill store by shuffle tasks
    /// whose reservation did not fit the memory budget.
    pub bytes_spilled: AtomicU64,
    /// Spill blobs (one per non-empty shuffle bucket) written.
    pub spill_blobs_written: AtomicU64,
    /// Cache/checkpoint cells evicted by memory pressure (budget
    /// eviction, not task-failure eviction).
    pub partitions_evicted_for_pressure: AtomicU64,
    /// Columnar sidecars built from row partitions (one per
    /// [`Partition::to_columns`](crate::Partition) builder run — cache
    /// hits on an already-built sidecar do not count).
    pub columnar_batches_built: AtomicU64,
    /// Rows evaluated by columnar predicate kernels (each surviving row
    /// counts once per kernel pass, mirroring `records_read` for the
    /// row path).
    pub rows_scanned_columnar: AtomicU64,
}

impl Metrics {
    pub fn inc_tasks(&self, n: u64) {
        self.tasks_launched.fetch_add(n, Ordering::Relaxed);
    }
    pub fn inc_records(&self, n: u64) {
        self.records_read.fetch_add(n, Ordering::Relaxed);
    }
    pub fn inc_pruned(&self, n: u64) {
        self.partitions_pruned.fetch_add(n, Ordering::Relaxed);
    }
    pub fn inc_shuffles(&self) {
        self.shuffles.fetch_add(1, Ordering::Relaxed);
    }
    pub fn inc_jobs(&self) {
        self.jobs.fetch_add(1, Ordering::Relaxed);
    }
    pub fn add_task_nanos(&self, n: u64) {
        self.task_nanos.fetch_add(n, Ordering::Relaxed);
    }
    pub fn add_job_nanos(&self, n: u64) {
        self.job_nanos.fetch_add(n, Ordering::Relaxed);
    }
    pub fn inc_records_cloned(&self, n: u64) {
        self.records_cloned.fetch_add(n, Ordering::Relaxed);
    }
    pub fn add_clone_bytes_avoided(&self, n: u64) {
        self.clone_bytes_avoided.fetch_add(n, Ordering::Relaxed);
    }
    pub fn inc_tasks_retried(&self, n: u64) {
        self.tasks_retried.fetch_add(n, Ordering::Relaxed);
    }
    pub fn inc_tasks_failed_permanently(&self, n: u64) {
        self.tasks_failed_permanently.fetch_add(n, Ordering::Relaxed);
    }
    pub fn inc_partitions_recomputed(&self, n: u64) {
        self.partitions_recomputed.fetch_add(n, Ordering::Relaxed);
    }
    pub fn add_checkpoint_bytes(&self, n: u64) {
        self.checkpoint_bytes.fetch_add(n, Ordering::Relaxed);
    }
    pub fn inc_tasks_speculated(&self, n: u64) {
        self.tasks_speculated.fetch_add(n, Ordering::Relaxed);
    }
    pub fn inc_speculative_wins(&self, n: u64) {
        self.speculative_wins.fetch_add(n, Ordering::Relaxed);
    }
    pub fn inc_tasks_cancelled(&self, n: u64) {
        self.tasks_cancelled.fetch_add(n, Ordering::Relaxed);
    }
    pub fn inc_deadline_exceeded_jobs(&self, n: u64) {
        self.deadline_exceeded_jobs.fetch_add(n, Ordering::Relaxed);
    }
    /// Raises the reserved-bytes high-water mark to at least `n`.
    pub fn record_bytes_reserved_peak(&self, n: u64) {
        self.bytes_reserved_peak.fetch_max(n, Ordering::Relaxed);
    }
    pub fn add_bytes_spilled(&self, n: u64) {
        self.bytes_spilled.fetch_add(n, Ordering::Relaxed);
    }
    pub fn inc_spill_blobs_written(&self, n: u64) {
        self.spill_blobs_written.fetch_add(n, Ordering::Relaxed);
    }
    pub fn inc_partitions_evicted_for_pressure(&self, n: u64) {
        self.partitions_evicted_for_pressure.fetch_add(n, Ordering::Relaxed);
    }
    pub fn inc_columnar_batches_built(&self, n: u64) {
        self.columnar_batches_built.fetch_add(n, Ordering::Relaxed);
    }
    pub fn inc_rows_scanned_columnar(&self, n: u64) {
        self.rows_scanned_columnar.fetch_add(n, Ordering::Relaxed);
    }

    /// A point-in-time copy of all counters.
    pub fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            tasks_launched: self.tasks_launched.load(Ordering::Relaxed),
            records_read: self.records_read.load(Ordering::Relaxed),
            partitions_pruned: self.partitions_pruned.load(Ordering::Relaxed),
            shuffles: self.shuffles.load(Ordering::Relaxed),
            jobs: self.jobs.load(Ordering::Relaxed),
            task_nanos: self.task_nanos.load(Ordering::Relaxed),
            job_nanos: self.job_nanos.load(Ordering::Relaxed),
            records_cloned: self.records_cloned.load(Ordering::Relaxed),
            clone_bytes_avoided: self.clone_bytes_avoided.load(Ordering::Relaxed),
            tasks_retried: self.tasks_retried.load(Ordering::Relaxed),
            tasks_failed_permanently: self.tasks_failed_permanently.load(Ordering::Relaxed),
            partitions_recomputed: self.partitions_recomputed.load(Ordering::Relaxed),
            checkpoint_bytes: self.checkpoint_bytes.load(Ordering::Relaxed),
            tasks_speculated: self.tasks_speculated.load(Ordering::Relaxed),
            speculative_wins: self.speculative_wins.load(Ordering::Relaxed),
            tasks_cancelled: self.tasks_cancelled.load(Ordering::Relaxed),
            deadline_exceeded_jobs: self.deadline_exceeded_jobs.load(Ordering::Relaxed),
            bytes_reserved_peak: self.bytes_reserved_peak.load(Ordering::Relaxed),
            bytes_spilled: self.bytes_spilled.load(Ordering::Relaxed),
            spill_blobs_written: self.spill_blobs_written.load(Ordering::Relaxed),
            partitions_evicted_for_pressure: self
                .partitions_evicted_for_pressure
                .load(Ordering::Relaxed),
            columnar_batches_built: self.columnar_batches_built.load(Ordering::Relaxed),
            rows_scanned_columnar: self.rows_scanned_columnar.load(Ordering::Relaxed),
        }
    }
}

/// Plain-data view of [`Metrics`], cheap to copy and diff. Serializable
/// so services can put per-request counter deltas on the wire.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, serde::Serialize, serde::Deserialize)]
pub struct MetricsSnapshot {
    pub tasks_launched: u64,
    pub records_read: u64,
    pub partitions_pruned: u64,
    pub shuffles: u64,
    pub jobs: u64,
    /// Cumulative in-task wall-clock nanoseconds (see [`Metrics::task_nanos`]).
    pub task_nanos: u64,
    /// Cumulative per-job wall-clock nanoseconds (see [`Metrics::job_nanos`]).
    pub job_nanos: u64,
    /// Records deep-cloned from shared partitions (see [`Metrics::records_cloned`]).
    pub records_cloned: u64,
    /// Shallow bytes served by partition sharing (see [`Metrics::clone_bytes_avoided`]).
    pub clone_bytes_avoided: u64,
    /// Failed task attempts that were retried (see [`Metrics::tasks_retried`]).
    pub tasks_retried: u64,
    /// Tasks failed past their retry budget (see [`Metrics::tasks_failed_permanently`]).
    pub tasks_failed_permanently: u64,
    /// Partitions recomputed after a failure (see [`Metrics::partitions_recomputed`]).
    pub partitions_recomputed: u64,
    /// Bytes persisted by checkpoints (see [`Metrics::checkpoint_bytes`]).
    pub checkpoint_bytes: u64,
    /// Speculative duplicate attempts launched (see [`Metrics::tasks_speculated`]).
    pub tasks_speculated: u64,
    /// Duplicates that beat the original (see [`Metrics::speculative_wins`]).
    pub speculative_wins: u64,
    /// Attempts aborted by cancellation (see [`Metrics::tasks_cancelled`]).
    pub tasks_cancelled: u64,
    /// Jobs failed on a deadline (see [`Metrics::deadline_exceeded_jobs`]).
    pub deadline_exceeded_jobs: u64,
    /// Peak accounted bytes reserved (see [`Metrics::bytes_reserved_peak`]).
    pub bytes_reserved_peak: u64,
    /// Serialised bytes spilled by shuffles (see [`Metrics::bytes_spilled`]).
    pub bytes_spilled: u64,
    /// Spill blobs written (see [`Metrics::spill_blobs_written`]).
    pub spill_blobs_written: u64,
    /// Cells evicted under memory pressure (see
    /// [`Metrics::partitions_evicted_for_pressure`]).
    pub partitions_evicted_for_pressure: u64,
    /// Columnar sidecars built (see [`Metrics::columnar_batches_built`]).
    pub columnar_batches_built: u64,
    /// Rows scanned by columnar kernels (see [`Metrics::rows_scanned_columnar`]).
    pub rows_scanned_columnar: u64,
}

impl MetricsSnapshot {
    /// Counter deltas since `earlier` — the per-request metrics a
    /// service reports alongside each response.
    pub fn diff(&self, earlier: &MetricsSnapshot) -> MetricsSnapshot {
        MetricsSnapshot {
            tasks_launched: self.tasks_launched - earlier.tasks_launched,
            records_read: self.records_read - earlier.records_read,
            partitions_pruned: self.partitions_pruned - earlier.partitions_pruned,
            shuffles: self.shuffles - earlier.shuffles,
            jobs: self.jobs - earlier.jobs,
            task_nanos: self.task_nanos - earlier.task_nanos,
            job_nanos: self.job_nanos - earlier.job_nanos,
            records_cloned: self.records_cloned - earlier.records_cloned,
            clone_bytes_avoided: self.clone_bytes_avoided - earlier.clone_bytes_avoided,
            tasks_retried: self.tasks_retried - earlier.tasks_retried,
            tasks_failed_permanently: self.tasks_failed_permanently
                - earlier.tasks_failed_permanently,
            partitions_recomputed: self.partitions_recomputed - earlier.partitions_recomputed,
            checkpoint_bytes: self.checkpoint_bytes - earlier.checkpoint_bytes,
            tasks_speculated: self.tasks_speculated - earlier.tasks_speculated,
            speculative_wins: self.speculative_wins - earlier.speculative_wins,
            tasks_cancelled: self.tasks_cancelled - earlier.tasks_cancelled,
            deadline_exceeded_jobs: self.deadline_exceeded_jobs - earlier.deadline_exceeded_jobs,
            // a high-water mark has no meaningful delta: carry the later value
            bytes_reserved_peak: self.bytes_reserved_peak,
            bytes_spilled: self.bytes_spilled - earlier.bytes_spilled,
            spill_blobs_written: self.spill_blobs_written - earlier.spill_blobs_written,
            partitions_evicted_for_pressure: self.partitions_evicted_for_pressure
                - earlier.partitions_evicted_for_pressure,
            columnar_batches_built: self.columnar_batches_built - earlier.columnar_batches_built,
            rows_scanned_columnar: self.rows_scanned_columnar - earlier.rows_scanned_columnar,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        let m = Metrics::default();
        m.inc_tasks(3);
        m.inc_records(100);
        m.inc_pruned(2);
        m.inc_shuffles();
        m.inc_jobs();
        m.inc_records_cloned(17);
        m.add_clone_bytes_avoided(4096);
        let s = m.snapshot();
        assert_eq!(s.tasks_launched, 3);
        assert_eq!(s.records_read, 100);
        assert_eq!(s.partitions_pruned, 2);
        assert_eq!(s.shuffles, 1);
        assert_eq!(s.jobs, 1);
        assert_eq!(s.records_cloned, 17);
        assert_eq!(s.clone_bytes_avoided, 4096);
    }

    #[test]
    fn snapshot_diff() {
        let m = Metrics::default();
        m.inc_tasks(5);
        let before = m.snapshot();
        m.inc_tasks(7);
        let delta = m.snapshot().diff(&before);
        assert_eq!(delta.tasks_launched, 7);
    }

    #[test]
    fn memory_counters_accumulate_and_peak_is_a_high_water_mark() {
        let m = Metrics::default();
        m.record_bytes_reserved_peak(100);
        m.record_bytes_reserved_peak(40); // lower value must not regress the peak
        m.add_bytes_spilled(2048);
        m.inc_spill_blobs_written(3);
        m.inc_partitions_evicted_for_pressure(2);
        let before = m.snapshot();
        assert_eq!(before.bytes_reserved_peak, 100);
        assert_eq!(before.bytes_spilled, 2048);
        assert_eq!(before.spill_blobs_written, 3);
        assert_eq!(before.partitions_evicted_for_pressure, 2);
        m.record_bytes_reserved_peak(500);
        m.add_bytes_spilled(1000);
        let delta = m.snapshot().diff(&before);
        assert_eq!(delta.bytes_spilled, 1000, "spill volume diffs like a counter");
        assert_eq!(delta.bytes_reserved_peak, 500, "the peak carries the later high-water mark");
    }
}
