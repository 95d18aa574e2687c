//! The engine entry point, analogous to Spark's `SparkContext`.

use crate::cancel::{self, CancelScope, CancellationToken};
use crate::fault::{FaultPlan, Site};
use crate::memory::MemoryManager;
use crate::metrics::{Metrics, MetricsSnapshot};
use crate::rdd::Rdd;
use crate::storage::ObjectStore;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Duration;

/// Engine configuration: the values callers choose. The speculation
/// thresholds are fixed (see [`EngineConfig::speculation`]) and a failed
/// task is retried at once, with no backoff.
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// Maximum number of worker threads per job (the "cluster size").
    pub parallelism: usize,
    /// Default number of partitions for new datasets.
    pub default_partitions: usize,
    /// Retries a failed partition task gets before its error becomes
    /// permanent — Spark's `spark.task.maxFailures - 1`. Each retry
    /// recomputes the partition from lineage (evicting any poisoned
    /// cache entry first); `0` restores fail-fast behaviour.
    pub max_task_retries: u32,
    /// Chaos-testing hook: a seeded [`FaultPlan`] the executor consults
    /// at the start of every task attempt. Only task faults are allowed
    /// here. `None` (the default) injects nothing.
    pub fault_injector: Option<Arc<FaultPlan>>,
    /// Wall-clock budget applied to every top-level job started on the
    /// context. A job past its deadline fails with a non-retryable
    /// [`TaskErrorKind::DeadlineExceeded`](crate::TaskErrorKind) task
    /// error — observed cooperatively, so no thread is killed and no
    /// cache entry is left poisoned. `None` (the default) never expires.
    /// Per-action variants ([`Rdd::collect_with_deadline`](crate::Rdd))
    /// override this by installing a tighter ambient deadline.
    pub job_deadline: Option<Duration>,
    /// Straggler defence: once half of a stage's tasks have finished,
    /// any task running longer than 1.5 × the stage's median task time
    /// is relaunched as a duplicate attempt on an idle worker. First
    /// result wins; the loser is cancelled via its token. Off by default
    /// (Spark's `spark.speculation`).
    pub speculation: bool,
    /// Context-wide budget for accounted partition bytes (Spark's
    /// unified executor memory). When a shuffle task's buckets or a
    /// cache/checkpoint populate would exceed it, the engine degrades
    /// gracefully — spilling shuffle buckets to the spill store,
    /// evicting least-recently-used cache/checkpoint cells, or declining
    /// to cache — instead of failing the job. `None` (the default) is
    /// unbounded: accounting still runs (two relaxed atomics per
    /// partition) so the peak is measurable, but nothing spills or is
    /// evicted for pressure.
    pub memory_budget: Option<u64>,
    /// Directory under which the context creates its private spill
    /// store (shuffle buckets that did not fit [`EngineConfig::memory_budget`]).
    /// `None` (the default) uses the system temp directory. The
    /// context-owned subdirectory is removed when the context drops.
    pub spill_dir: Option<PathBuf>,
}

impl Default for EngineConfig {
    fn default() -> Self {
        let cores = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(4);
        EngineConfig {
            parallelism: cores,
            default_partitions: cores,
            max_task_retries: 3,
            fault_injector: None,
            job_deadline: None,
            speculation: false,
            memory_budget: None,
            spill_dir: None,
        }
    }
}

#[derive(Debug)]
pub(crate) struct ContextInner {
    pub(crate) config: EngineConfig,
    pub(crate) metrics: Arc<Metrics>,
    /// Context-wide byte accountant (see [`EngineConfig::memory_budget`]).
    pub(crate) memory: Arc<MemoryManager>,
    /// Lazily created private store for spilled shuffle buckets. Rooted
    /// in a context-owned subdirectory (removed on drop) so concurrent
    /// contexts never collide and spill blobs never outlive the context.
    pub(crate) spill: OnceLock<ObjectStore>,
    /// Jobs currently executing on this context. The executor uses the
    /// depth at job entry to attribute wall-clock time only to
    /// top-level jobs (a nested shuffle job is already covered by the
    /// enclosing job's interval).
    pub(crate) active_jobs: AtomicUsize,
    /// Stage ordinal source: each partition sweep on this context draws
    /// a fresh ordinal, so fault injection targeted by stage (or drawn
    /// per `(stage, partition)`) strikes re-runs independently.
    pub(crate) next_stage: AtomicU64,
    /// Root of the context's cancellation-token chain: every job token
    /// descends from it (directly, or through an ambient deadline
    /// scope), so [`Context::cancel`] reaches all running jobs.
    pub(crate) cancel: Arc<CancellationToken>,
}

/// Handle to the engine; cheap to clone, shared by all datasets it creates.
#[derive(Debug, Clone)]
pub struct Context {
    pub(crate) inner: Arc<ContextInner>,
}

impl Context {
    /// Creates a context with the given configuration.
    pub fn with_config(config: EngineConfig) -> Self {
        if let Some(plan) = &config.fault_injector {
            plan.assert_sites("EngineConfig::fault_injector", &[Site::Task]);
        }
        let metrics = Arc::new(Metrics::default());
        let memory = MemoryManager::new(config.memory_budget, Arc::clone(&metrics));
        Context {
            inner: Arc::new(ContextInner {
                config,
                metrics,
                memory,
                spill: OnceLock::new(),
                active_jobs: AtomicUsize::new(0),
                next_stage: AtomicU64::new(0),
                cancel: CancellationToken::new(),
            }),
        }
    }

    /// Creates a context with default configuration (one worker per core).
    pub fn new() -> Self {
        Self::with_config(EngineConfig::default())
    }

    /// Creates a context with a fixed worker-thread budget.
    pub fn with_parallelism(parallelism: usize) -> Self {
        let parallelism = parallelism.max(1);
        Self::with_config(EngineConfig {
            parallelism,
            default_partitions: parallelism,
            ..EngineConfig::default()
        })
    }

    /// The configured worker-thread budget.
    pub fn parallelism(&self) -> usize {
        self.inner.config.parallelism
    }

    /// The configured default partition count.
    pub fn default_partitions(&self) -> usize {
        self.inner.config.default_partitions
    }

    /// Records a columnar sidecar build in
    /// [`MetricsSnapshot::columnar_batches_built`](crate::MetricsSnapshot).
    /// Called by consumers (the spatial filter chain) when a
    /// [`Partition::to_columns`](crate::Partition) builder actually runs.
    pub fn note_columnar_batch_built(&self) {
        self.inner.metrics.inc_columnar_batches_built(1);
    }

    /// Records `n` rows scanned by a columnar kernel in
    /// [`MetricsSnapshot::rows_scanned_columnar`](crate::MetricsSnapshot).
    pub fn note_rows_scanned_columnar(&self, n: u64) {
        self.inner.metrics.inc_rows_scanned_columnar(n);
    }

    /// Records `n` rows deep-cloned out of a shared partition in
    /// [`MetricsSnapshot::records_cloned`](crate::MetricsSnapshot).
    /// Called by consumers that gather rows by reference (the spatial
    /// filter chain, the index probe) rather than through the engine's
    /// own counted conversions.
    pub fn note_records_cloned(&self, n: u64) {
        self.inner.metrics.inc_records_cloned(n);
    }

    /// The per-task retry budget (see [`EngineConfig::max_task_retries`]).
    pub fn max_task_retries(&self) -> u32 {
        self.inner.config.max_task_retries
    }

    /// The root [`CancellationToken`] every job on this context chains
    /// under.
    pub fn cancel_token(&self) -> &Arc<CancellationToken> {
        &self.inner.cancel
    }

    /// Cancels every running and future job on this context: tasks abort
    /// cooperatively with a [`TaskErrorKind::Cancelled`](crate::TaskErrorKind)
    /// error. Sticky until [`Context::reset_cancellation`].
    pub fn cancel(&self) {
        self.inner.cancel.cancel();
    }

    /// Clears a previous [`Context::cancel`], re-arming the context for
    /// new jobs.
    pub fn reset_cancellation(&self) {
        self.inner.cancel.reset();
    }

    /// Installs an ambient deadline on the calling thread until the
    /// returned guard drops: every job started on this thread while the
    /// guard lives (and every nested shuffle job those spawn) fails with
    /// [`TaskErrorKind::DeadlineExceeded`](crate::TaskErrorKind) once
    /// `deadline` elapses. The scope chains under the thread's current
    /// token (or the context root), so [`Context::cancel`] still applies.
    pub fn deadline_scope(&self, deadline: Duration) -> CancelScope {
        let parent = cancel::current().unwrap_or_else(|| Arc::clone(&self.inner.cancel));
        cancel::scope(parent.child_with_deadline(Some(deadline)))
    }

    /// Draws the next stage ordinal for a partition sweep.
    pub(crate) fn next_stage_id(&self) -> u64 {
        self.inner.next_stage.fetch_add(1, Ordering::Relaxed)
    }

    /// Distributes a local collection into `num_partitions` chunks,
    /// mirroring `SparkContext.parallelize`.
    pub fn parallelize<T: crate::rdd::Data>(&self, data: Vec<T>, num_partitions: usize) -> Rdd<T> {
        Rdd::from_collection(self.clone(), data, num_partitions.max(1))
    }

    /// [`Context::parallelize`] with the context's default partition count.
    pub fn parallelize_default<T: crate::rdd::Data>(&self, data: Vec<T>) -> Rdd<T> {
        let n = self.default_partitions();
        self.parallelize(data, n)
    }

    /// Point-in-time copy of the engine counters.
    pub fn metrics(&self) -> MetricsSnapshot {
        self.inner.metrics.snapshot()
    }

    pub(crate) fn raw_metrics(&self) -> &Metrics {
        &self.inner.metrics
    }

    /// The context's [`MemoryManager`] (see [`EngineConfig::memory_budget`]).
    pub fn memory(&self) -> &Arc<MemoryManager> {
        &self.inner.memory
    }

    /// The lazily created spill store for shuffle buckets that did not
    /// fit the memory budget. The backing directory is private to this
    /// context and removed when the context drops.
    pub(crate) fn spill_store(&self) -> &ObjectStore {
        self.inner.spill.get_or_init(|| {
            static SPILL_SEQ: AtomicU64 = AtomicU64::new(0);
            let base = self.inner.config.spill_dir.clone().unwrap_or_else(std::env::temp_dir);
            // a crashed prior run never reached its Drop cleanup; its
            // spill blobs are garbage once the owning pid is gone
            crate::storage::sweep_orphan_dirs(&base, "stark-spill-");
            let dir = base.join(format!(
                "stark-spill-{}-{}",
                std::process::id(),
                SPILL_SEQ.fetch_add(1, Ordering::Relaxed)
            ));
            ObjectStore::open(&dir).expect("spill store directory could not be created")
        })
    }
}

impl Drop for ContextInner {
    fn drop(&mut self) {
        // Best-effort removal of the context-private spill directory;
        // blobs are already deleted as they are merged back, so in the
        // common case this removes an empty tree.
        if let Some(store) = self.spill.get() {
            let _ = std::fs::remove_dir_all(store.root());
        }
    }
}

impl Default for Context {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn config_defaults_are_sane() {
        let c = Context::new();
        assert!(c.parallelism() >= 1);
        assert!(c.default_partitions() >= 1);
    }

    #[test]
    fn parallelism_clamped_to_one() {
        let c = Context::with_parallelism(0);
        assert_eq!(c.parallelism(), 1);
    }

    #[test]
    fn parallelize_splits_into_partitions() {
        let c = Context::with_parallelism(4);
        let rdd = c.parallelize((0..10).collect(), 3);
        assert_eq!(rdd.num_partitions(), 3);
        assert_eq!(rdd.collect().len(), 10);
    }
}
