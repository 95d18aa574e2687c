//! Partition-task execution on a bounded pool of scoped worker threads.
//!
//! Tasks pull partition indices off a shared atomic counter, so skewed
//! partitions naturally load-balance across the pool — the same dynamic
//! that makes balanced spatial partitioning matter on a real cluster.
//!
//! A panicking task does not tear the process down with a bare thread
//! panic: it is caught per-task and surfaced as a [`TaskError`] carrying
//! the failing partition index and payload size, so callers (and the
//! streaming layer, which must survive poison batches) can decide how to
//! react.
//!
//! Failed tasks are retried up to
//! [`EngineConfig::max_task_retries`](crate::EngineConfig) times before
//! the error becomes permanent. Each retry recomputes the partition from
//! RDD lineage — the engine first *evicts* the partition from every
//! cache along the lineage ([`RddImpl::evict`]) so a poisoned cached
//! value cannot be served back, exactly Spark's lost-partition recovery
//! path. Structural errors ([`TaskErrorKind::PartitionOutOfRange`]) are
//! deterministic and never retried; neither are cooperative aborts
//! ([`TaskErrorKind::Cancelled`] / [`TaskErrorKind::DeadlineExceeded`]),
//! which would only fail again.
//!
//! With [`EngineConfig::speculation`](crate::EngineConfig) on, workers
//! that drain the main partition queue turn into speculation scouts:
//! once [`SPECULATION_QUANTILE`] of a stage's tasks have finished, any
//! task running longer than [`SPECULATION_MULTIPLIER`] × the stage's
//! median task time is relaunched as a duplicate attempt. The first
//! attempt to finish publishes the partition's result and cancels the
//! other via its token; the loser's outcome is discarded, so job output
//! is byte-identical to a non-speculative run.

use crate::cancel::{self, CancelReason, CancellationToken};
use crate::context::Context;
use crate::fault::InjectedFault;
use crate::partition::Partition;
use crate::rdd::{Data, RddImpl};
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Why a partition task failed — drives the retry decision.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TaskErrorKind {
    /// A genuine panic in user code or the engine. Retryable: Spark
    /// retries every lost task, transient or not, and gives up only
    /// after the attempt budget.
    Panic,
    /// A fault raised by the configured
    /// [`FaultPlan`](crate::FaultPlan). Retryable.
    Injected,
    /// The task asked for a partition index the dataset does not have —
    /// a deterministic structural error; retrying cannot help, so it
    /// fails fast without consuming the retry budget.
    PartitionOutOfRange,
    /// The task observed its [`CancellationToken`](crate::CancellationToken)
    /// tripped (an explicit [`Context::cancel`](crate::Context::cancel),
    /// or a lost speculation race) and aborted cooperatively. Never
    /// retried — the token stays tripped — and never poisons a cache:
    /// the abort unwinds before any partition value is published.
    Cancelled,
    /// A job or per-action deadline passed while the task was running
    /// (or before it started). Non-retryable for the same reasons as
    /// [`TaskErrorKind::Cancelled`]; a later run without the deadline
    /// recomputes cleanly.
    DeadlineExceeded,
    /// A checkpoint blob this task depends on is unreadable or corrupt
    /// (failed its STK1 CRC). The lineage was truncated at the
    /// checkpoint, so recomputation is impossible and retrying would
    /// re-read the same bad bytes — the error is permanent and
    /// deterministic, like [`TaskErrorKind::PartitionOutOfRange`].
    CheckpointLost,
    /// The task rejected a malformed input record (e.g. a non-finite
    /// centroid handed to a spatial partitioner). Deterministic — the
    /// same record fails every attempt — so it fails fast without
    /// consuming the retry budget, like
    /// [`TaskErrorKind::PartitionOutOfRange`].
    InvalidRecord,
}

impl TaskErrorKind {
    /// Whether this kind is a cooperative cancellation outcome.
    pub fn is_cancellation(self) -> bool {
        matches!(self, TaskErrorKind::Cancelled | TaskErrorKind::DeadlineExceeded)
    }

    /// Whether retrying an attempt that failed with this kind can
    /// succeed. Structural errors and malformed-input rejections are
    /// deterministic — the same attempt fails the same way every time —
    /// so they fail fast without consuming the retry budget.
    pub fn is_retryable(self) -> bool {
        !matches!(
            self,
            TaskErrorKind::PartitionOutOfRange
                | TaskErrorKind::CheckpointLost
                | TaskErrorKind::InvalidRecord
        )
    }
}

/// A partition task failed (panicked) during a job.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TaskError {
    /// Index of the partition whose task failed.
    pub partition: usize,
    /// Records materialised for the partition before the failure
    /// (0 when the partition computation itself failed).
    pub payload_records: usize,
    /// Panic payload rendered as text.
    pub message: String,
    /// Failure classification (see [`TaskErrorKind`]).
    pub kind: TaskErrorKind,
    /// Attempts made before the error became permanent (≥ 1).
    pub attempts: u32,
    /// Stage ordinal of the partition sweep the task belonged to.
    pub stage: u64,
}

impl std::fmt::Display for TaskError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "task for partition {} failed permanently after {} attempt{} (stage {}, {} records materialised): {}",
            self.partition,
            self.attempts,
            if self.attempts == 1 { "" } else { "s" },
            self.stage,
            self.payload_records,
            self.message
        )
    }
}

impl std::error::Error for TaskError {}

/// Typed panic payload for engine-internal task aborts (e.g. the union
/// out-of-range guard): carries a [`TaskErrorKind`] so the executor can
/// classify the failure without string matching.
pub(crate) struct TaskAbort {
    pub(crate) kind: TaskErrorKind,
    pub(crate) message: String,
}

/// Classifies a caught panic payload into a [`TaskError`].
fn classify(
    payload: Box<dyn std::any::Any + Send>,
    partition: usize,
    stage: u64,
    attempts: u32,
) -> TaskError {
    let (kind, message) = if let Some(f) = payload.downcast_ref::<InjectedFault>() {
        (TaskErrorKind::Injected, f.to_string())
    } else if let Some(a) = payload.downcast_ref::<TaskAbort>() {
        (a.kind, a.message.clone())
    } else if let Some(e) = payload.downcast_ref::<TaskError>() {
        // a nested job (shuffle materialisation) cancelled or timed out:
        // keep the typed kind so the outer task is not pointlessly retried
        (e.kind, e.to_string())
    } else if let Some(s) = payload.downcast_ref::<&str>() {
        (TaskErrorKind::Panic, (*s).to_string())
    } else if let Some(s) = payload.downcast_ref::<String>() {
        (TaskErrorKind::Panic, s.clone())
    } else {
        (TaskErrorKind::Panic, "non-string panic payload".to_string())
    };
    TaskError { partition, payload_records: 0, message, kind, attempts, stage }
}

/// Tracks job nesting on a context so only top-level jobs accumulate
/// `job_nanos`: a shuffle materialising *inside* a running job spawns a
/// nested partition sweep whose wall-clock is already covered by the
/// enclosing job's interval — adding both would double-count. (Top-level
/// jobs started concurrently from independent user threads also nest
/// under this scheme; wall-clock attribution is first-come.)
struct JobDepthGuard<'a> {
    ctx: &'a Context,
    depth: usize,
}

impl<'a> JobDepthGuard<'a> {
    fn enter(ctx: &'a Context) -> Self {
        let depth = ctx.inner.active_jobs.fetch_add(1, Ordering::SeqCst);
        JobDepthGuard { ctx, depth }
    }

    fn is_top_level(&self) -> bool {
        self.depth == 0
    }
}

impl Drop for JobDepthGuard<'_> {
    fn drop(&mut self) {
        self.ctx.inner.active_jobs.fetch_sub(1, Ordering::SeqCst);
    }
}

/// Builds the typed error for an attempt that observed cancellation
/// before doing any work.
fn cancel_error(reason: CancelReason, partition: usize, stage: u64, attempts: u32) -> TaskError {
    let (kind, message) = match reason {
        CancelReason::Cancelled => (TaskErrorKind::Cancelled, "task cancelled cooperatively"),
        CancelReason::DeadlineExceeded => {
            (TaskErrorKind::DeadlineExceeded, "job deadline exceeded")
        }
    };
    TaskError { partition, payload_records: 0, message: message.to_string(), kind, attempts, stage }
}

/// Runs one partition task attempt under a panic guard, recording
/// metrics. The attempt's [`CancellationToken`] is checked up front (the
/// partition-boundary observation point) and installed as the thread's
/// governing token for the attempt's duration, so fused record chunks,
/// cooperative sleeps and nested shuffle jobs all observe it. The
/// configured [`FaultPlan`](crate::FaultPlan) is consulted
/// *inside* the guard, so injected faults take the same path as genuine
/// task panics.
fn run_attempt<T: Data, R>(
    ctx: &Context,
    inner: &Arc<dyn RddImpl<T>>,
    f: &(impl Fn(usize, Partition<T>) -> R + Send + Sync),
    i: usize,
    stage: u64,
    attempt: u32,
    token: &Arc<CancellationToken>,
) -> Result<R, TaskError> {
    if let Some(reason) = token.cancel_reason() {
        return Err(cancel_error(reason, i, stage, attempt + 1));
    }
    let metrics = ctx.raw_metrics();
    metrics.inc_tasks(1);
    let _governing = cancel::scope(Arc::clone(token));
    let started = Instant::now();
    let result = std::panic::catch_unwind(AssertUnwindSafe(|| {
        if let Some(plan) = &ctx.inner.config.fault_injector {
            plan.on_attempt(stage, i, attempt, ctx.memory());
        }
        inner.compute(i)
    }))
    .map_err(|payload| classify(payload, i, stage, attempt + 1))
    .and_then(|data| {
        metrics.inc_records(data.len() as u64);
        let payload_records = data.len();
        std::panic::catch_unwind(AssertUnwindSafe(|| f(i, data))).map_err(|payload| TaskError {
            payload_records,
            ..classify(payload, i, stage, attempt + 1)
        })
    });
    metrics.add_task_nanos(started.elapsed().as_nanos() as u64);
    result
}

/// Runs one partition task to completion: attempts, and on retryable
/// failure evicts the partition from lineage caches and recomputes, up
/// to the context's retry budget. `attempt_offset` shifts the attempt
/// numbers the fault injector sees: a speculative duplicate runs with
/// numbers past any original attempt, modelling relaunch on a healthy
/// node (a `(stage, partition)`-targeted stall or transient fault does
/// not strike the duplicate again).
fn run_task<T: Data, R>(
    ctx: &Context,
    inner: &Arc<dyn RddImpl<T>>,
    f: &(impl Fn(usize, Partition<T>) -> R + Send + Sync),
    i: usize,
    stage: u64,
    token: &Arc<CancellationToken>,
    attempt_offset: u32,
) -> Result<R, TaskError> {
    let metrics = ctx.raw_metrics();
    let budget = ctx.max_task_retries();
    let mut attempt = 0u32;
    loop {
        match run_attempt(ctx, inner, f, i, stage, attempt_offset + attempt, token) {
            Ok(r) => return Ok(r),
            Err(e) => {
                if e.kind.is_cancellation() {
                    // Cooperative abort: the token stays tripped, so a
                    // retry would fail identically. Not a permanent
                    // *failure* either — the work was abandoned, not lost.
                    metrics.inc_tasks_cancelled(1);
                    return Err(e);
                }
                if !e.kind.is_retryable() || attempt >= budget {
                    metrics.inc_tasks_failed_permanently(1);
                    return Err(e);
                }
                // Lineage-based recovery: drop any cached value for this
                // partition so the retry recomputes it from scratch.
                metrics.inc_tasks_retried(1);
                metrics.inc_partitions_recomputed(1);
                inner.evict(i);
                attempt += 1;
            }
        }
    }
}

/// Per-partition execution state shared between the main sweep and
/// speculation scouts. One mutex-guarded `Slot` per partition arbitrates
/// the first-result-wins race: whoever publishes `result` first cancels
/// every other in-flight attempt's token, and late finishers discard
/// their outcome — results and metrics stay deduplicated.
struct Slot<R> {
    result: Option<Result<R, TaskError>>,
    /// Tokens of in-flight attempts for this partition.
    running: Vec<Arc<CancellationToken>>,
    /// When the original attempt started (straggler age).
    started: Option<Instant>,
    /// Whether a speculative duplicate has been launched.
    speculated: bool,
}

/// How often an idle worker re-scans for stragglers once the main
/// partition queue is drained.
const SPECULATION_POLL: Duration = Duration::from_micros(200);

/// Fraction of a stage's tasks that must finish before stragglers are
/// speculated (Spark's `spark.speculation.quantile`).
const SPECULATION_QUANTILE: f64 = 0.5;

/// How many multiples of the stage's median task duration a task may run
/// before it is speculated (Spark's `spark.speculation.multiplier`).
const SPECULATION_MULTIPLIER: f64 = 1.5;

/// Computes every partition of `inner`, applies `f` to each, and returns
/// the results in partition order — or the first [`TaskError`] (lowest
/// partition index wins) if any task panicked.
pub(crate) fn try_run_partitions<T: Data, R: Send>(
    ctx: &Context,
    inner: &Arc<dyn RddImpl<T>>,
    f: impl Fn(usize, Partition<T>) -> R + Send + Sync,
) -> Result<Vec<R>, TaskError> {
    let n = inner.num_partitions();
    if n == 0 {
        return Ok(Vec::new());
    }
    let depth = JobDepthGuard::enter(ctx);
    let workers = ctx.parallelism().min(n);
    let stage = ctx.next_stage_id();
    let job_started = Instant::now();
    // Every job chains under the thread's governing token when one is
    // installed (a task of an enclosing job, or an ambient deadline
    // scope) and under the context root otherwise — so Context::cancel,
    // job deadlines and per-action deadlines all reach nested shuffles.
    let parent = cancel::current().unwrap_or_else(|| Arc::clone(ctx.cancel_token()));
    let job_token = parent.child_with_deadline(ctx.inner.config.job_deadline);

    let outcome = if workers <= 1 {
        (0..n)
            .map(|i| run_task(ctx, inner, &f, i, stage, &job_token, 0))
            .collect::<Result<Vec<R>, TaskError>>()
    } else {
        let metrics = ctx.raw_metrics();
        let speculation = ctx.inner.config.speculation;
        let next = AtomicUsize::new(0);
        let completed = AtomicUsize::new(0);
        // Durations of successful attempts, feeding the median that
        // defines "straggler" for this stage.
        let durations: Mutex<Vec<u64>> = Mutex::new(Vec::new());
        let slots: Vec<Mutex<Slot<R>>> = (0..n)
            .map(|_| {
                Mutex::new(Slot {
                    result: None,
                    running: Vec::new(),
                    started: None,
                    speculated: false,
                })
            })
            .collect();

        // Runs one attempt (original or speculative duplicate) for
        // partition `i` and arbitrates its outcome against the slot.
        let run_one = |i: usize, speculative: bool| {
            let attempt_token = job_token.child();
            {
                let mut s = slots[i].lock().expect("result slot poisoned");
                if s.result.is_some() {
                    return; // resolved while this attempt was being launched
                }
                s.running.push(Arc::clone(&attempt_token));
                if !speculative {
                    s.started = Some(Instant::now());
                }
            }
            // Duplicates take attempt numbers past any original attempt:
            // the relaunch lands on a "healthy node", out of reach of
            // `(stage, partition)`-targeted stalls and transient faults.
            let offset = if speculative { ctx.max_task_retries() + 1 } else { 0 };
            let attempt_started = Instant::now();
            let r = run_task(ctx, inner, &f, i, stage, &attempt_token, offset);
            let elapsed = attempt_started.elapsed().as_nanos() as u64;
            let mut s = slots[i].lock().expect("result slot poisoned");
            s.running.retain(|t| !Arc::ptr_eq(t, &attempt_token));
            if s.result.is_some() {
                return; // lost the race: outcome discarded (dedup)
            }
            if speculative && r.is_err() {
                // A failed duplicate never outranks the still-running
                // original — only a duplicate *success* may publish.
                return;
            }
            if r.is_ok() {
                if speculative {
                    metrics.inc_speculative_wins(1);
                }
                durations.lock().expect("durations poisoned").push(elapsed);
            }
            s.result = Some(r);
            // First result wins: retire every other in-flight attempt.
            for t in &s.running {
                t.cancel();
            }
            completed.fetch_add(1, Ordering::Release);
        };

        // Picks the next straggler to duplicate, if the stage has
        // reached its speculation quantile and someone is running past
        // `SPECULATION_MULTIPLIER ×` the median successful-attempt
        // duration.
        let next_straggler = || -> Option<usize> {
            let done = completed.load(Ordering::Acquire);
            let min_done = ((SPECULATION_QUANTILE * n as f64).ceil() as usize).clamp(1, n);
            if done < min_done {
                return None;
            }
            let threshold_nanos = {
                let d = durations.lock().expect("durations poisoned");
                if d.is_empty() {
                    return None;
                }
                let mut sorted = d.clone();
                sorted.sort_unstable();
                (sorted[sorted.len() / 2] as f64 * SPECULATION_MULTIPLIER) as u128
            };
            for (i, slot) in slots.iter().enumerate() {
                let mut s = slot.lock().expect("result slot poisoned");
                if s.result.is_none()
                    && !s.speculated
                    && s.started.is_some_and(|st| st.elapsed().as_nanos() > threshold_nanos)
                {
                    s.speculated = true;
                    return Some(i);
                }
            }
            None
        };

        std::thread::scope(|scope| {
            for _ in 0..workers {
                scope.spawn(|| loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i < n {
                        run_one(i, false);
                        continue;
                    }
                    // Main queue drained: idle workers become
                    // speculation scouts until every slot resolves.
                    if !speculation || completed.load(Ordering::Acquire) >= n {
                        break;
                    }
                    match next_straggler() {
                        Some(straggler) => {
                            metrics.inc_tasks_speculated(1);
                            run_one(straggler, true);
                        }
                        None => std::thread::sleep(SPECULATION_POLL),
                    }
                });
            }
        });

        slots
            .into_iter()
            .map(|cell| {
                cell.into_inner()
                    .expect("result slot poisoned")
                    .result
                    .expect("partition task did not produce a result")
            })
            .collect()
    };

    if let Err(e) = &outcome {
        if e.kind == TaskErrorKind::DeadlineExceeded && depth.is_top_level() {
            ctx.raw_metrics().inc_deadline_exceeded_jobs(1);
        }
    }
    if depth.is_top_level() {
        ctx.raw_metrics().add_job_nanos(job_started.elapsed().as_nanos() as u64);
    }
    outcome
}

/// Infallible wrapper over [`try_run_partitions`]: propagates a task
/// failure as a panic that names the failing partition and payload size.
/// Cancellation outcomes panic with the [`TaskError`] itself as payload,
/// so an enclosing task (a shuffle materialising inside a job) keeps the
/// typed non-retryable kind instead of degrading it to a string panic.
pub(crate) fn run_partitions<T: Data, R: Send>(
    ctx: &Context,
    inner: &Arc<dyn RddImpl<T>>,
    f: impl Fn(usize, Partition<T>) -> R + Send + Sync,
) -> Vec<R> {
    unwrap_job(try_run_partitions(ctx, inner, f))
}

/// The panic half of [`run_partitions`], for callers that ran the job
/// through [`try_run_partitions`] themselves.
pub(crate) fn unwrap_job<R>(outcome: Result<R, TaskError>) -> R {
    match outcome {
        Ok(results) => results,
        // Deterministic kinds (cancellation, structural, malformed input)
        // keep their typed payload: an enclosing task's `classify` then
        // preserves the kind instead of degrading it to a string panic —
        // and does not burn its retry budget re-running a nested job that
        // fails the same way every time.
        Err(e) if e.kind.is_cancellation() || !e.kind.is_retryable() => std::panic::panic_any(e),
        Err(e) => panic!("{e}"),
    }
}

#[cfg(test)]
mod tests {
    use crate::context::{Context, EngineConfig};
    use crate::executor::TaskErrorKind;
    use crate::fault::{Fault, FaultPlan, FaultRule, Scope};
    use std::collections::HashSet;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

    fn chaos_ctx(
        parallelism: usize,
        retries: u32,
        injector: FaultPlan,
    ) -> (Context, Arc<FaultPlan>) {
        let injector = Arc::new(injector);
        let ctx = Context::with_config(EngineConfig {
            parallelism,
            default_partitions: parallelism,
            max_task_retries: retries,
            fault_injector: Some(injector.clone()),
            ..EngineConfig::default()
        });
        (ctx, injector)
    }

    #[test]
    fn all_partitions_run_exactly_once() {
        let ctx = Context::with_parallelism(3);
        let runs = Arc::new(AtomicUsize::new(0));
        let runs2 = runs.clone();
        let r = ctx.parallelize((0..64).collect(), 16).map(move |x| {
            runs2.fetch_add(1, Ordering::Relaxed);
            x
        });
        let glommed = r.glom();
        assert_eq!(glommed.len(), 16);
        assert_eq!(runs.load(Ordering::Relaxed), 64);
        let all: HashSet<i32> = glommed.into_iter().flatten().collect();
        assert_eq!(all.len(), 64);
    }

    #[test]
    fn single_worker_path() {
        let ctx = Context::with_parallelism(1);
        let r = ctx.parallelize((0..10).collect(), 5);
        assert_eq!(r.collect(), (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn results_in_partition_order_despite_racing() {
        let ctx = Context::with_parallelism(8);
        // uneven partition workloads to shake up completion order
        let r = ctx.parallelize((0..1024).collect::<Vec<u64>>(), 32).map(|x| {
            if x % 97 == 0 {
                std::thread::sleep(std::time::Duration::from_micros(200));
            }
            x
        });
        assert_eq!(r.collect(), (0..1024).collect::<Vec<u64>>());
    }

    #[test]
    fn nested_jobs_do_not_deadlock() {
        // a shuffle inside a running job triggers a nested run_partitions
        let ctx = Context::with_parallelism(2);
        let r = ctx
            .parallelize((0..100).collect(), 4)
            .partition_by(4, |x| (*x % 4) as usize)
            .partition_by(2, |x| (*x % 2) as usize);
        assert_eq!(r.count(), 100);
    }

    #[test]
    fn task_panic_reports_partition_and_payload() {
        let ctx = Context::with_parallelism(4);
        let r = ctx.parallelize((0..40).collect::<Vec<i32>>(), 8).map(|x| {
            assert!(x != 17, "poison record");
            x
        });
        let err = r.try_collect().unwrap_err();
        // record 17 lives in partition 3 of 8 (5 records per partition)
        assert_eq!(err.partition, 3);
        assert_eq!(err.payload_records, 0); // map panics inside compute
        assert!(err.message.contains("poison record"), "{}", err.message);
    }

    #[test]
    fn earliest_failing_partition_wins() {
        let ctx = Context::with_parallelism(4);
        let r = ctx.parallelize((0..40).collect::<Vec<i32>>(), 8).map(|x| {
            if x % 10 == 5 {
                panic!("bad {x}")
            } else {
                x
            }
        });
        let err = r.try_collect().unwrap_err();
        assert_eq!(err.partition, 1); // record 5 is the first poison
    }

    #[test]
    fn task_timing_accumulates() {
        let ctx = Context::with_parallelism(2);
        let before = ctx.metrics();
        let r = ctx.parallelize((0..64).collect::<Vec<u64>>(), 8).map(|x| {
            std::thread::sleep(std::time::Duration::from_micros(100));
            x
        });
        assert_eq!(r.count(), 64);
        let delta = ctx.metrics().diff(&before);
        assert!(delta.task_nanos > 0, "task wall-clock not recorded");
        assert!(delta.job_nanos > 0, "job wall-clock not recorded");
        // 8 tasks at >=100µs each, run on 2 workers: cumulative task time
        // must exceed any single job's wall time
        assert!(delta.task_nanos >= 8 * 100_000);
    }

    #[test]
    fn transient_injected_fault_is_absorbed_by_retry() {
        let inj = FaultPlan::new(7, vec![FaultRule::new(Fault::Transient, Scope::Partition(2))]);
        let (ctx, chaos) = chaos_ctx(4, 3, inj);
        let r = ctx.parallelize((0..40).collect::<Vec<i32>>(), 8);
        assert_eq!(r.collect(), (0..40).collect::<Vec<_>>());
        let m = ctx.metrics();
        assert_eq!(m.tasks_retried, 1);
        assert_eq!(m.partitions_recomputed, 1);
        assert_eq!(m.tasks_failed_permanently, 0);
        assert_eq!(chaos.injected(), 1);
    }

    #[test]
    fn permanent_fault_exhausts_retry_budget() {
        let inj = FaultPlan::new(7, vec![FaultRule::new(Fault::Panic, Scope::Partition(1))]);
        let (ctx, chaos) = chaos_ctx(2, 2, inj);
        let err = ctx.parallelize((0..8).collect::<Vec<i32>>(), 4).try_collect().unwrap_err();
        assert_eq!(err.partition, 1);
        assert_eq!(err.kind, TaskErrorKind::Injected);
        assert_eq!(err.attempts, 3, "1 initial + 2 retries");
        assert!(err.message.contains("injected"), "{}", err.message);
        let m = ctx.metrics();
        assert_eq!(m.tasks_retried, 2);
        assert_eq!(m.tasks_failed_permanently, 1);
        assert_eq!(chaos.injected(), 3);
    }

    #[test]
    fn zero_retry_budget_fails_fast() {
        let ctx = Context::with_config(EngineConfig {
            parallelism: 2,
            max_task_retries: 0,
            ..EngineConfig::default()
        });
        let r = ctx.parallelize((0..8).collect::<Vec<i32>>(), 4).map(|x| {
            assert!(x != 2, "poison");
            x
        });
        let err = r.try_collect().unwrap_err();
        assert_eq!(err.kind, TaskErrorKind::Panic);
        assert_eq!(err.attempts, 1);
        assert_eq!(ctx.metrics().tasks_retried, 0);
    }

    #[test]
    fn delay_policy_stalls_but_preserves_results() {
        let delay = Fault::Delay(std::time::Duration::from_micros(200));
        let inj = FaultPlan::new(11, vec![FaultRule::new(delay, Scope::Probability(1.0))]);
        let (ctx, chaos) = chaos_ctx(4, 3, inj);
        let r = ctx.parallelize((0..32).collect::<Vec<i32>>(), 8);
        assert_eq!(r.collect(), (0..32).collect::<Vec<_>>());
        let m = ctx.metrics();
        assert_eq!(m.tasks_retried, 0, "delays are not failures");
        assert_eq!(chaos.injected(), 8, "every task was stalled once");
    }

    #[test]
    fn transient_user_panic_recovers_via_retry() {
        let ctx = Context::with_parallelism(2);
        let fails = Arc::new(AtomicUsize::new(0));
        let fails2 = fails.clone();
        let r = ctx.parallelize((0..8).collect::<Vec<i32>>(), 4).map(move |x| {
            if x == 5 && fails2.fetch_add(1, Ordering::SeqCst) == 0 {
                panic!("flaky record");
            }
            x
        });
        assert_eq!(r.collect(), (0..8).collect::<Vec<_>>());
        assert_eq!(ctx.metrics().tasks_retried, 1);
        assert_eq!(ctx.metrics().tasks_failed_permanently, 0);
    }

    #[test]
    fn stage_ordinals_give_reruns_fresh_fault_draws() {
        // a Stage-scoped fault strikes only its stage ordinal; the same
        // dataset re-run (a new sweep, hence a new stage) is untouched
        let inj = FaultPlan::new(5, vec![FaultRule::new(Fault::Panic, Scope::Stage(0))]);
        let (ctx, _chaos) = chaos_ctx(2, 0, inj);
        let r = ctx.parallelize((0..8).collect::<Vec<i32>>(), 4);
        assert!(r.try_collect().is_err(), "stage 0 is poisoned");
        assert_eq!(r.try_collect().unwrap(), (0..8).collect::<Vec<_>>(), "stage 1 is clean");
    }

    #[test]
    fn job_deadline_returns_typed_error_and_fast_jobs_still_pass() {
        let ctx = Context::with_config(EngineConfig {
            parallelism: 2,
            max_task_retries: 3,
            job_deadline: Some(std::time::Duration::from_millis(30)),
            ..EngineConfig::default()
        });
        let slow = ctx.parallelize((0..512).collect::<Vec<i32>>(), 4).map(|x| {
            std::thread::sleep(std::time::Duration::from_millis(1));
            x
        });
        let err = slow.try_collect().unwrap_err();
        assert_eq!(err.kind, TaskErrorKind::DeadlineExceeded);
        let m = ctx.metrics();
        assert_eq!(m.deadline_exceeded_jobs, 1);
        assert_eq!(m.tasks_retried, 0, "cancellation must not burn the retry budget");
        assert_eq!(m.tasks_failed_permanently, 0, "a deadline is not a task failure");
        // the deadline is per job, not cumulative on the context
        let fast = ctx.parallelize((0..8).collect::<Vec<i32>>(), 4);
        assert_eq!(fast.try_collect().unwrap(), (0..8).collect::<Vec<_>>());
    }

    #[test]
    fn collect_with_deadline_leaves_no_poisoned_cache() {
        let ctx = Context::with_parallelism(2);
        let slow = ctx
            .parallelize((0..512).collect::<Vec<i32>>(), 4)
            .map(|x| {
                std::thread::sleep(std::time::Duration::from_millis(1));
                x
            })
            .cache();
        let err = slow.collect_with_deadline(std::time::Duration::from_millis(30)).unwrap_err();
        assert_eq!(err.kind, TaskErrorKind::DeadlineExceeded);
        assert!(ctx.metrics().tasks_cancelled > 0, "tasks must observe the deadline");
        // the deadline lived only for the scoped action: the same lineage
        // (including its cache) computes cleanly afterwards
        assert_eq!(slow.collect(), (0..512).collect::<Vec<_>>());
        assert_eq!(
            slow.count_with_deadline(std::time::Duration::from_secs(60)).unwrap(),
            512,
            "cached partitions satisfy a later generous deadline"
        );
    }

    #[test]
    fn context_cancel_aborts_job_and_reset_rearms() {
        let ctx = Context::with_parallelism(2);
        let canceller = {
            let ctx = ctx.clone();
            std::thread::spawn(move || {
                std::thread::sleep(std::time::Duration::from_millis(20));
                ctx.cancel();
            })
        };
        let slow = ctx.parallelize((0..2048).collect::<Vec<i32>>(), 4).map(|x| {
            std::thread::sleep(std::time::Duration::from_millis(1));
            x
        });
        let err = slow.try_collect().unwrap_err();
        assert_eq!(err.kind, TaskErrorKind::Cancelled);
        canceller.join().unwrap();
        // sticky until reset: new jobs abort immediately
        let again = ctx.parallelize((0..4).collect::<Vec<i32>>(), 2).try_collect().unwrap_err();
        assert_eq!(again.kind, TaskErrorKind::Cancelled);
        ctx.reset_cancellation();
        assert_eq!(
            ctx.parallelize((0..4).collect::<Vec<i32>>(), 2).try_collect().unwrap(),
            (0..4).collect::<Vec<_>>()
        );
    }

    #[test]
    fn speculation_beats_delay_straggler_with_identical_results() {
        let stall = std::time::Duration::from_millis(400);
        let inj =
            FaultPlan::new(11, vec![FaultRule::new(Fault::Delay(stall), Scope::Partition(0))]);
        let injector = Arc::new(inj);
        let ctx = Context::with_config(EngineConfig {
            parallelism: 4,
            default_partitions: 8,
            max_task_retries: 3,
            fault_injector: Some(injector.clone()),
            speculation: true,
            ..EngineConfig::default()
        });
        let started = std::time::Instant::now();
        let out = ctx
            .parallelize((0..64).collect::<Vec<i32>>(), 8)
            .map(|x| {
                std::thread::sleep(std::time::Duration::from_micros(500));
                x * 2
            })
            .collect();
        let elapsed = started.elapsed();
        assert_eq!(out, (0..64).map(|x| x * 2).collect::<Vec<_>>(), "dedup must keep output exact");
        assert!(
            elapsed < stall * 3 / 4,
            "speculation should beat the {stall:?} straggler, took {elapsed:?}"
        );
        let m = ctx.metrics();
        assert!(m.tasks_speculated >= 1, "the stalled task must be speculated");
        assert!(m.speculative_wins >= 1, "the duplicate must win");
        assert!(m.tasks_cancelled >= 1, "the stalled original must be retired");
        assert_eq!(m.tasks_retried, 0, "delays are not failures, even speculated ones");
        assert_eq!(injector.injected(), 1, "only the original first attempt is stalled");
    }

    #[test]
    fn speculation_off_sleeps_out_the_straggler() {
        let stall = std::time::Duration::from_millis(80);
        let inj =
            FaultPlan::new(11, vec![FaultRule::new(Fault::Delay(stall), Scope::Partition(0))]);
        let (ctx, _chaos) = chaos_ctx(4, 3, inj);
        let started = std::time::Instant::now();
        let out = ctx.parallelize((0..64).collect::<Vec<i32>>(), 8).collect();
        assert_eq!(out, (0..64).collect::<Vec<_>>());
        assert!(
            started.elapsed() >= stall,
            "without speculation the stall is on the critical path"
        );
        assert_eq!(ctx.metrics().tasks_speculated, 0);
    }

    #[test]
    fn nested_shuffle_job_counts_wall_clock_once() {
        let ctx = Context::with_parallelism(2);
        let before = ctx.metrics();
        let started = std::time::Instant::now();
        let n = ctx
            .parallelize((0..8).collect::<Vec<u64>>(), 4)
            .map(|x| {
                std::thread::sleep(std::time::Duration::from_millis(10));
                x
            })
            .partition_by(4, |x| (*x % 4) as usize)
            .count();
        let elapsed = started.elapsed().as_nanos() as u64;
        assert_eq!(n, 8);
        let delta = ctx.metrics().diff(&before);
        // The shuffle materialises via an inner partition sweep that runs
        // *inside* the outer count job (it executes the sleeping maps).
        // Before depth tracking, job_nanos summed both overlapping
        // intervals and reported roughly twice the true wall-clock.
        assert!(delta.job_nanos > 0, "job wall-clock not recorded");
        assert!(
            delta.job_nanos <= elapsed,
            "job_nanos {} exceeds wall-clock {} — nested job double-counted",
            delta.job_nanos,
            elapsed
        );
    }
}
