//! Resilient-distributed-dataset lookalike: a lazy, partitioned,
//! immutable dataset with narrow transformations, shuffles and actions.
//!
//! The DAG is built from `Arc<dyn RddImpl>` nodes; nothing executes until
//! an action runs partition tasks on the context's thread pool. This is
//! the minimal subset of Spark's RDD model that STARK's operators need:
//! `map`/`filter`/`flatMap`/`mapPartitions`, `partitionBy` (shuffle),
//! `union`, `zipPartitions` for partition-aligned joins, caching, and a
//! partition-mask operator used for spatial partition pruning.
//!
//! Two data-path properties keep the hot loop lean:
//!
//! * **Zero-copy partitions** — `compute` returns a shared
//!   [`Partition<T>`] handle, so sources that retain partition data
//!   across jobs (parallelized collections, caches, shuffle buckets)
//!   serve the same allocation instead of deep-cloning it per access.
//! * **Narrow-operator fusion** — consecutive `map`/`filter`/
//!   `flat_map`/`map_partitions` calls compose into one per-partition
//!   iterator pipeline, so a `load → map → filter → map` lineage makes
//!   one pass with one output allocation instead of one `Vec` per
//!   operator. Fused chains render as `Fused[Map→Filter]` in
//!   [`Rdd::explain`].

use crate::context::Context;
use crate::executor;
use crate::executor::TaskAbort;
pub use crate::executor::{TaskError, TaskErrorKind};
use crate::fault::splitmix64;
use crate::memory::{MemoryReservation, VictimState};
use crate::partition::Partition;
use crate::storage::{ObjectStore, StorageError};
use serde::de::DeserializeOwned;
use serde::Serialize;
use std::collections::HashMap;
use std::hash::Hash;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Duration;

/// Bound alias for everything that can live in a dataset.
pub trait Data: Clone + Send + Sync + 'static {}
impl<T: Clone + Send + Sync + 'static> Data for T {}

/// Bound alias for dataset elements that can also round-trip through the
/// [`ObjectStore`]: shuffled data (which may spill under memory
/// pressure) and checkpointed data. Blanket-implemented, like [`Data`].
pub trait StoreData: Data + Serialize + DeserializeOwned {}
impl<T: Data + Serialize + DeserializeOwned> StoreData for T {}

/// A node in the dataset DAG: how many partitions, and how to compute one.
pub(crate) trait RddImpl<T: Data>: Send + Sync {
    fn num_partitions(&self) -> usize;
    fn compute(&self, partition: usize) -> Partition<T>;
    /// Drops any memoised value for `partition` along the lineage, so
    /// the next [`RddImpl::compute`] recomputes it from scratch. The
    /// executor calls this before retrying a failed task — Spark's
    /// lost-partition recovery, where a poisoned cache entry must not be
    /// served back. Nodes without storage propagate to their parents;
    /// the default is a no-op for true sources.
    fn evict(&self, _partition: usize) {}
    /// A node whose partition `p` is the one-element count of this
    /// node's partition `p`, for nodes that can count their output
    /// without building it. [`Rdd::count`] runs it as an ordinary job.
    fn counter(&self) -> Option<Arc<dyn RddImpl<usize>>> {
        None
    }
    /// Whether this node already memoises its partitions
    /// ([`Rdd::cache`] is then the identity).
    fn is_cache(&self) -> bool {
        false
    }
}

/// By-value iterator stage inside a fused narrow chain.
type BoxIter<T> = Box<dyn Iterator<Item = T> + Send>;
/// Produces the fused iterator pipeline for one partition.
type IterFn<T> = Arc<dyn Fn(usize) -> BoxIter<T> + Send + Sync>;

/// The fusable suffix of a lineage: a typed per-partition iterator
/// pipeline rooted at the last non-narrow ancestor. Kept alongside the
/// type-erased `inner` node so the next narrow operator can extend the
/// pipeline instead of stacking another materialising node on top.
pub(crate) struct FusedChain<T: Data> {
    num_partitions: usize,
    /// Operator names in application order, e.g. `["Map", "Filter"]`.
    ops: Vec<String>,
    iter_fn: IterFn<T>,
    /// Forwards cache eviction to the (type-erased) base node so a
    /// retried task recomputes through the whole chain.
    evict_fn: EvictFn,
    /// Lineage of the chain's base (the node below the fused suffix).
    base_lineage: Arc<Lineage>,
}

/// Type-erased eviction hook capturing a fused chain's base node.
type EvictFn = Arc<dyn Fn(usize) + Send + Sync>;

impl<T: Data> Clone for FusedChain<T> {
    fn clone(&self) -> Self {
        FusedChain {
            num_partitions: self.num_partitions,
            ops: self.ops.clone(),
            iter_fn: self.iter_fn.clone(),
            evict_fn: self.evict_fn.clone(),
            base_lineage: self.base_lineage.clone(),
        }
    }
}

/// A lazy partitioned dataset. Cheap to clone (clones share the DAG).
#[derive(Clone)]
pub struct Rdd<T: Data> {
    pub(crate) ctx: Context,
    pub(crate) inner: Arc<dyn RddImpl<T>>,
    lineage: Arc<Lineage>,
    /// Present when this node is a chain of fused narrow operators;
    /// `inner` is then the corresponding `FusedRdd`.
    fused: Option<FusedChain<T>>,
}

/// Lineage node describing how a dataset was derived — the engine's
/// equivalent of Spark's `RDD.toDebugString`.
#[derive(Debug)]
pub struct Lineage {
    /// Operator description, e.g. `Shuffle(16)`.
    pub op: String,
    /// Lineage of the input datasets.
    pub parents: Vec<Arc<Lineage>>,
}

impl Lineage {
    fn leaf(op: impl Into<String>) -> Arc<Lineage> {
        Arc::new(Lineage { op: op.into(), parents: Vec::new() })
    }

    fn derived(op: impl Into<String>, parents: Vec<Arc<Lineage>>) -> Arc<Lineage> {
        Arc::new(Lineage { op: op.into(), parents })
    }

    fn render(&self, indent: usize, out: &mut String) {
        for _ in 0..indent {
            out.push_str("  ");
        }
        out.push_str(&self.op);
        out.push('\n');
        for p in &self.parents {
            p.render(indent + 1, out);
        }
    }
}

// ---------------------------------------------------------------------------
// sources
// ---------------------------------------------------------------------------

struct ParallelCollection<T: Data> {
    ctx: Context,
    partitions: Vec<Partition<T>>,
}

impl<T: Data> RddImpl<T> for ParallelCollection<T> {
    fn num_partitions(&self) -> usize {
        self.partitions.len()
    }
    fn compute(&self, partition: usize) -> Partition<T> {
        let p = self.partitions[partition].clone();
        self.ctx.raw_metrics().add_clone_bytes_avoided(p.shallow_bytes());
        p
    }
}

// ---------------------------------------------------------------------------
// narrow transformations
// ---------------------------------------------------------------------------

/// A fused chain of narrow operators: one per-partition pass, one
/// output allocation, regardless of how many operators are in the chain.
struct FusedRdd<T: Data> {
    num_partitions: usize,
    iter_fn: IterFn<T>,
    evict_fn: EvictFn,
}

impl<T: Data> RddImpl<T> for FusedRdd<T> {
    fn num_partitions(&self) -> usize {
        self.num_partitions
    }
    fn compute(&self, partition: usize) -> Partition<T> {
        Partition::from_vec((self.iter_fn)(partition).collect())
    }
    fn evict(&self, partition: usize) {
        (self.evict_fn)(partition)
    }
}

/// Aborts the current task with a typed, non-retryable
/// [`TaskErrorKind::InvalidRecord`] error: the record is deterministic
/// bad input (e.g. a non-finite centroid reaching a spatial
/// partitioner), so retrying the task would fail identically. The abort
/// unwinds like a panic but is classified by the executor without
/// string matching, and [`Rdd::try_collect`] surfaces it as a typed
/// [`TaskError`].
pub fn abort_invalid_record(message: impl Into<String>) -> ! {
    std::panic::panic_any(TaskAbort { kind: TaskErrorKind::InvalidRecord, message: message.into() })
}

/// Evaluates one input partition: `(partition index, input)`.
type HandleFn<T, R> = Arc<dyn Fn(usize, Partition<T>) -> R + Send + Sync>;

/// Whole-partition narrow node that stands as its own lineage step
/// (see [`Rdd::map_partition_handles`]).
struct MapPartitionsRdd<T: Data, U: Data> {
    parent: Arc<dyn RddImpl<T>>,
    f: HandleFn<T, Partition<U>>,
    /// Counts one partition's output without building it; `None` only
    /// on the counter node that [`RddImpl::counter`] builds.
    count: Option<HandleFn<T, usize>>,
}

impl<T: Data, U: Data> RddImpl<U> for MapPartitionsRdd<T, U> {
    fn num_partitions(&self) -> usize {
        self.parent.num_partitions()
    }
    fn compute(&self, partition: usize) -> Partition<U> {
        (self.f)(partition, self.parent.compute(partition))
    }
    fn evict(&self, partition: usize) {
        self.parent.evict(partition)
    }
    fn counter(&self) -> Option<Arc<dyn RddImpl<usize>>> {
        let count = self.count.clone()?;
        Some(Arc::new(MapPartitionsRdd {
            parent: self.parent.clone(),
            f: Arc::new(move |p, part| Partition::from_vec(vec![count(p, part)])),
            count: None,
        }))
    }
}

struct UnionRdd<T: Data> {
    parents: Vec<Arc<dyn RddImpl<T>>>,
}

impl<T: Data> UnionRdd<T> {
    /// Resolves a union partition index to `(parent, local index)`.
    fn resolve(&self, partition: usize) -> Option<(&Arc<dyn RddImpl<T>>, usize)> {
        let mut idx = partition;
        for p in &self.parents {
            if idx < p.num_partitions() {
                return Some((p, idx));
            }
            idx -= p.num_partitions();
        }
        None
    }
}

impl<T: Data> RddImpl<T> for UnionRdd<T> {
    fn num_partitions(&self) -> usize {
        self.parents.iter().map(|p| p.num_partitions()).sum()
    }
    fn compute(&self, partition: usize) -> Partition<T> {
        match self.resolve(partition) {
            Some((p, idx)) => p.compute(idx),
            // Typed abort instead of a bare panic: surfaced by
            // `try_run_partitions` as a structural (non-retryable)
            // TaskError rather than unwinding through the caller.
            None => std::panic::panic_any(TaskAbort {
                kind: TaskErrorKind::PartitionOutOfRange,
                message: format!(
                    "partition {partition} out of range for union of {}",
                    self.num_partitions()
                ),
            }),
        }
    }
    fn evict(&self, partition: usize) {
        if let Some((p, idx)) = self.resolve(partition) {
            p.evict(idx);
        }
    }
}

/// Skips computing masked-out partitions entirely; the engine-level hook
/// behind STARK's partition pruning.
struct MaskRdd<T: Data> {
    ctx: Context,
    parent: Arc<dyn RddImpl<T>>,
    mask: Vec<bool>,
}

impl<T: Data> RddImpl<T> for MaskRdd<T> {
    fn num_partitions(&self) -> usize {
        self.parent.num_partitions()
    }
    fn compute(&self, partition: usize) -> Partition<T> {
        if self.mask[partition] {
            self.parent.compute(partition)
        } else {
            self.ctx.raw_metrics().inc_pruned(1);
            Partition::empty()
        }
    }
    fn evict(&self, partition: usize) {
        self.parent.evict(partition)
    }
}

/// Evaluates one partition pair: `(pair index, left, right)`.
type PairFn<A, B, R> = Arc<dyn Fn(usize, Partition<A>, Partition<B>) -> R + Send + Sync>;

struct PartitionPairJoinRdd<A: Data, B: Data, R: Data> {
    left: Arc<dyn RddImpl<A>>,
    right: Arc<dyn RddImpl<B>>,
    pairs: Arc<[(usize, usize)]>,
    f: PairFn<A, B, Vec<R>>,
    /// Counts one pair's output without building it, when the join
    /// was built from a matcher.
    count: Option<PairFn<A, B, usize>>,
}

impl<A: Data, B: Data, R: Data> RddImpl<R> for PartitionPairJoinRdd<A, B, R> {
    fn num_partitions(&self) -> usize {
        self.pairs.len()
    }
    fn compute(&self, partition: usize) -> Partition<R> {
        let (i, j) = self.pairs[partition];
        Partition::from_vec((self.f)(partition, self.left.compute(i), self.right.compute(j)))
    }
    fn evict(&self, partition: usize) {
        let (i, j) = self.pairs[partition];
        self.left.evict(i);
        self.right.evict(j);
    }
    fn counter(&self) -> Option<Arc<dyn RddImpl<usize>>> {
        let count = self.count.clone()?;
        Some(Arc::new(PartitionPairJoinRdd {
            left: self.left.clone(),
            right: self.right.clone(),
            pairs: self.pairs.clone(),
            f: Arc::new(move |p, l, r| vec![count(p, l, r)]),
            count: None,
        }))
    }
}

// ---------------------------------------------------------------------------
// shuffle and cache
// ---------------------------------------------------------------------------

/// Distinguishes concurrent shuffle materialisations in one process so
/// their spill blobs never collide in the context's spill store.
static SPILL_SEQ: AtomicU64 = AtomicU64::new(0);

/// Spill-store key of one map task's bucket blob.
fn spill_bucket_key(shuffle: u64, task: usize, bucket: usize) -> String {
    format!("spill/shuffle-{shuffle}/task-{task:05}/bucket-{bucket:05}")
}

/// One map task's shuffle output: its buckets, either held in memory
/// under a granted budget reservation or spilled to the spill store.
enum TaskBuckets<T> {
    Mem {
        buckets: Vec<Vec<T>>,
        /// Accounts the buckets until the merge consumes them.
        _reservation: MemoryReservation,
    },
    /// The reservation was refused: the buckets live in the spill store
    /// under [`spill_bucket_key`]`(shuffle, task, b)` for each listed
    /// non-empty bucket index, and are streamed back at merge time.
    Spilled { task: usize, written: Vec<usize> },
}

struct ShuffledRdd<T: Data> {
    ctx: Context,
    parent: Arc<dyn RddImpl<T>>,
    #[allow(clippy::type_complexity)]
    partition_fn: Arc<dyn Fn(&T) -> usize + Send + Sync>,
    num_partitions: usize,
    /// Materialised shuffle output, plus the budget reservation
    /// accounting for it (held for the dataset's lifetime — shuffle
    /// output is served from memory, so under pressure it is the cache
    /// victims that give their bytes back, not the shuffle).
    buckets: OnceLock<(Vec<Partition<T>>, MemoryReservation)>,
}

impl<T: StoreData> ShuffledRdd<T> {
    fn materialize(&self) -> &Vec<Partition<T>> {
        &self
            .buckets
            .get_or_init(|| {
                self.ctx.raw_metrics().inc_shuffles();
                let shuffle = SPILL_SEQ.fetch_add(1, Ordering::Relaxed);
                let memory = Arc::clone(self.ctx.memory());
                let per_task: Vec<TaskBuckets<T>> = executor::run_partitions(
                    &self.ctx,
                    &self.parent,
                    |task, data: Partition<T>| {
                        // The buckets hold exactly the input's elements,
                        // so the input's shallow size is their size.
                        let bytes = data.shallow_bytes();
                        let mut buckets: Vec<Vec<T>> =
                            (0..self.num_partitions).map(|_| Vec::new()).collect();
                        for item in data.into_iter_counted(self.ctx.raw_metrics()) {
                            let b = (self.partition_fn)(&item) % self.num_partitions;
                            buckets[b].push(item);
                        }
                        match memory.try_reserve(bytes) {
                            Some(r) => TaskBuckets::Mem { buckets, _reservation: r },
                            None => self.spill_task(shuffle, task, buckets),
                        }
                    },
                );
                let mut merged: Vec<Vec<T>> =
                    (0..self.num_partitions).map(|_| Vec::new()).collect();
                // Merging in task order, bucket order — whether a task's
                // buckets come from memory or the spill store — keeps the
                // output byte-identical to an unbounded run.
                for task_buckets in per_task {
                    match task_buckets {
                        TaskBuckets::Mem { mut buckets, _reservation } => {
                            for (i, b) in buckets.drain(..).enumerate() {
                                merged[i].extend(b);
                            }
                        }
                        TaskBuckets::Spilled { task, written } => {
                            let store = self.ctx.spill_store();
                            for b in written {
                                let key = spill_bucket_key(shuffle, task, b);
                                let data: Vec<T> = store.get_json(&key).unwrap_or_else(|e| {
                                    panic!("spilled shuffle bucket {key:?} unreadable: {e}")
                                });
                                merged[b].extend(data);
                                let _ = store.delete(&key);
                            }
                        }
                    }
                }
                let out: Vec<Partition<T>> = merged.into_iter().map(Partition::from_vec).collect();
                let out_bytes = out.iter().map(Partition::shallow_bytes).sum();
                // Forced: reduce-side output must reside in memory, so
                // under pressure the eviction sweep inside reserve()
                // reclaims cache/checkpoint bytes to make room instead.
                let reservation = memory.reserve(out_bytes);
                (out, reservation)
            })
            .0
    }

    /// Spills one map task's non-empty buckets to the spill store as
    /// STK1-framed blobs, recording the spilled volume.
    fn spill_task(&self, shuffle: u64, task: usize, buckets: Vec<Vec<T>>) -> TaskBuckets<T> {
        let store = self.ctx.spill_store();
        let metrics = self.ctx.raw_metrics();
        let mut written = Vec::new();
        let mut spilled = 0u64;
        for (b, bucket) in buckets.iter().enumerate() {
            if bucket.is_empty() {
                continue;
            }
            let key = spill_bucket_key(shuffle, task, b);
            spilled += store
                .put_json_sized(&key, bucket.as_slice())
                .unwrap_or_else(|e| panic!("spilling shuffle bucket {key:?} failed: {e}"));
            written.push(b);
        }
        metrics.add_bytes_spilled(spilled);
        metrics.inc_spill_blobs_written(written.len() as u64);
        TaskBuckets::Spilled { task, written }
    }
}

impl<T: StoreData> RddImpl<T> for ShuffledRdd<T> {
    fn num_partitions(&self) -> usize {
        self.num_partitions
    }
    fn compute(&self, partition: usize) -> Partition<T> {
        let p = self.materialize()[partition].clone();
        self.ctx.raw_metrics().add_clone_bytes_avoided(p.shallow_bytes());
        p
    }
    // evict: intentionally a no-op. Shuffle buckets materialise as a
    // whole stage: the OnceLock either holds a fully successful shuffle
    // output or stays empty (a panicking materialisation leaves it
    // uninitialised), so a poisoned per-partition bucket cannot exist.
}

/// Locks a memo cell, recovering from mutex poisoning: a panic while
/// the lock was held (a failing parent compute) leaves the plain
/// `Option` state consistent — either still empty or holding a fully
/// constructed value — and the retry path evicts/overwrites it.
fn lock_cell<V>(cell: &Mutex<Option<V>>) -> std::sync::MutexGuard<'_, Option<V>> {
    cell.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// One cache/checkpoint storage cell: the memoised partition together
/// with the budget reservation accounting for it, so *every* path that
/// drops the value — failure eviction, pressure eviction, or the owner
/// being dropped — gives the bytes back exactly once. `Arc` so the
/// memory manager's victim registration can hold a `Weak` reference that
/// outlives nothing.
type StoreCell<T> = Arc<Mutex<Option<(Partition<T>, MemoryReservation)>>>;

/// Registers every cell of a cache/checkpoint dataset as a pressure-
/// eviction victim, returning the shared LRU touch handles. Called once
/// at dataset construction; the hooks use `try_lock`, so a cell whose
/// lock is held by a running task is skipped rather than waited on.
fn register_store_cells<T: Data>(ctx: &Context, cells: &[StoreCell<T>]) -> Vec<Arc<AtomicU64>> {
    cells
        .iter()
        .map(|cell| {
            let weak = Arc::downgrade(cell);
            ctx.memory().register_victim(Box::new(move || {
                let Some(cell) = weak.upgrade() else { return VictimState::Gone };
                let Ok(mut slot) = cell.try_lock() else { return VictimState::Empty };
                match slot.as_ref() {
                    Some((_, r)) if r.bytes() > 0 => {
                        let (_, r) = slot.take().expect("checked Some");
                        VictimState::Evicted(r.bytes()) // dropping `r` releases
                    }
                    _ => VictimState::Empty, // empty, or nothing to reclaim
                }
            }))
        })
        .collect()
}

struct CachedRdd<T: Data> {
    ctx: Context,
    parent: Arc<dyn RddImpl<T>>,
    /// `Mutex<Option<…>>` rather than `OnceLock` so a partition can be
    /// *evicted* — by the executor when a task computing above it fails,
    /// or by the memory manager under pressure: the next access then
    /// recomputes from the parent instead of replaying a possibly
    /// poisoned (or reclaimed) cached value.
    cells: Vec<StoreCell<T>>,
    /// LRU touch handles, one per cell (see [`register_store_cells`]).
    touches: Vec<Arc<AtomicU64>>,
}

impl<T: Data> RddImpl<T> for CachedRdd<T> {
    fn num_partitions(&self) -> usize {
        self.parent.num_partitions()
    }
    fn compute(&self, partition: usize) -> Partition<T> {
        let mut cell = lock_cell(&self.cells[partition]);
        let p = match cell.as_ref() {
            Some((p, _)) => p.clone(),
            None => {
                let p = self.parent.compute(partition);
                // Cache only under a granted reservation: when the
                // budget cannot absorb the partition even after LRU
                // eviction, serve it uncached — later accesses
                // recompute from the parent, trading time for memory.
                if let Some(r) = self.ctx.memory().try_reserve(p.shallow_bytes()) {
                    *cell = Some((p.clone(), r));
                }
                p
            }
        };
        drop(cell);
        self.ctx.memory().touch(&self.touches[partition]);
        self.ctx.raw_metrics().add_clone_bytes_avoided(p.shallow_bytes());
        p
    }
    fn evict(&self, partition: usize) {
        *lock_cell(&self.cells[partition]) = None;
        self.parent.evict(partition);
    }
    fn is_cache(&self) -> bool {
        true
    }
}

// ---------------------------------------------------------------------------
// checkpointing
// ---------------------------------------------------------------------------

/// Object-store key of one checkpointed partition blob. Public so the
/// distributed checkpoint sink (`plan::PlanSink::Checkpoint`, executed
/// on a worker) writes blobs at exactly the keys a local
/// [`Rdd::checkpoint`] reader recovers from.
pub fn checkpoint_blob_key(key: &str, partition: usize) -> String {
    format!("{key}/part-{partition:05}")
}

/// A dataset whose partitions were persisted to the object store by
/// [`Rdd::checkpoint`]. Serves partitions from memory; after an eviction
/// (task failure) the partition is *re-read from the store* — lineage
/// was truncated, so recovery goes to stable storage, exactly Spark's
/// `RDD.checkpoint` semantics.
struct CheckpointRdd<T: Data> {
    ctx: Context,
    store: ObjectStore,
    key: String,
    cells: Vec<StoreCell<T>>,
    /// LRU touch handles, one per cell (see [`register_store_cells`]).
    touches: Vec<Arc<AtomicU64>>,
}

impl<T: StoreData> RddImpl<T> for CheckpointRdd<T> {
    fn num_partitions(&self) -> usize {
        self.cells.len()
    }
    fn compute(&self, partition: usize) -> Partition<T> {
        let mut cell = lock_cell(&self.cells[partition]);
        if let Some((p, _)) = cell.as_ref() {
            let p = p.clone();
            drop(cell);
            self.ctx.memory().touch(&self.touches[partition]);
            self.ctx.raw_metrics().add_clone_bytes_avoided(p.shallow_bytes());
            return p;
        }
        // Recovery path: the in-memory copy was evicted (task failure,
        // or memory pressure), so read the persisted blob back.
        let blob = checkpoint_blob_key(&self.key, partition);
        match self.store.get_json::<Vec<T>>(&blob) {
            Ok(data) => {
                let p = Partition::from_vec(data);
                // Re-admit to memory only if the budget allows; an
                // unadmitted partition is simply re-read next time.
                if let Some(r) = self.ctx.memory().try_reserve(p.shallow_bytes()) {
                    *cell = Some((p.clone(), r));
                }
                drop(cell);
                self.ctx.memory().touch(&self.touches[partition]);
                p
            }
            // The lineage was truncated at this checkpoint: with the
            // blob unreadable (deleted, or corrupt per its STK1 CRC)
            // there is nothing to recompute from and a retry would
            // re-read the same bad bytes. Abort with a typed,
            // non-retryable kind instead of a bare panic.
            Err(e) => std::panic::panic_any(TaskAbort {
                kind: TaskErrorKind::CheckpointLost,
                message: format!("checkpoint partition {blob:?} unreadable: {e}"),
            }),
        }
    }
    fn evict(&self, partition: usize) {
        *lock_cell(&self.cells[partition]) = None;
    }
}

// ---------------------------------------------------------------------------
// the public API
// ---------------------------------------------------------------------------

impl<T: Data> Rdd<T> {
    pub(crate) fn from_collection(ctx: Context, data: Vec<T>, num_partitions: usize) -> Self {
        let total = data.len();
        let num_partitions = num_partitions.max(1);
        let chunk = total.div_ceil(num_partitions).max(1);
        let mut partitions: Vec<Partition<T>> = Vec::with_capacity(num_partitions);
        let mut iter = data.into_iter();
        for _ in 0..num_partitions {
            partitions.push(Partition::from_vec(iter.by_ref().take(chunk).collect()));
        }
        let lineage = Lineage::leaf(format!(
            "ParallelCollection[{total} records, {num_partitions} partitions]"
        ));
        Rdd {
            ctx: ctx.clone(),
            inner: Arc::new(ParallelCollection { ctx, partitions }),
            lineage,
            fused: None,
        }
    }

    fn derive<U: Data>(&self, op: impl Into<String>, inner: Arc<dyn RddImpl<U>>) -> Rdd<U> {
        Rdd {
            ctx: self.ctx.clone(),
            inner,
            lineage: Lineage::derived(op, vec![self.lineage.clone()]),
            fused: None,
        }
    }

    /// Appends a narrow per-partition iterator stage. The stage composes
    /// into the current [`FusedChain`] (or starts one), producing a
    /// single `FusedRdd` node that makes one pass per partition.
    fn fuse_stage<U: Data>(
        &self,
        op: &str,
        stage: impl Fn(usize, BoxIter<T>) -> BoxIter<U> + Send + Sync + 'static,
    ) -> Rdd<U> {
        let stage = Arc::new(stage);
        let chain = match &self.fused {
            // extend the existing pipeline — no intermediate Vec
            Some(prev) => {
                let prev_fn = prev.iter_fn.clone();
                let s = stage.clone();
                let mut ops = prev.ops.clone();
                ops.push(op.to_string());
                FusedChain {
                    num_partitions: prev.num_partitions,
                    ops,
                    iter_fn: Arc::new(move |i| s(i, prev_fn(i))),
                    evict_fn: prev.evict_fn.clone(),
                    base_lineage: prev.base_lineage.clone(),
                }
            }
            // start a pipeline rooted at the current node
            None => {
                let base = self.inner.clone();
                let evict_base = self.inner.clone();
                let ctx = self.ctx.clone();
                let s = stage.clone();
                FusedChain {
                    num_partitions: base.num_partitions(),
                    ops: vec![op.to_string()],
                    iter_fn: Arc::new(move |i| {
                        s(
                            i,
                            Box::new(crate::cancel::checked(
                                base.compute(i).into_iter_counted(ctx.raw_metrics()),
                            )),
                        )
                    }),
                    evict_fn: Arc::new(move |i| evict_base.evict(i)),
                    base_lineage: self.lineage.clone(),
                }
            }
        };
        let label = if chain.ops.len() == 1 {
            chain.ops[0].clone()
        } else {
            format!("Fused[{}]", chain.ops.join("→"))
        };
        Rdd {
            ctx: self.ctx.clone(),
            inner: Arc::new(FusedRdd {
                num_partitions: chain.num_partitions,
                iter_fn: chain.iter_fn.clone(),
                evict_fn: chain.evict_fn.clone(),
            }),
            lineage: Lineage::derived(label, vec![chain.base_lineage.clone()]),
            fused: Some(chain),
        }
    }

    /// Renders the operator lineage of this dataset, root-first — the
    /// engine's answer to Spark's `toDebugString`.
    pub fn explain(&self) -> String {
        let mut out = String::new();
        self.lineage.render(0, &mut out);
        out
    }

    /// The lineage root of this dataset.
    pub fn lineage(&self) -> &Arc<Lineage> {
        &self.lineage
    }

    /// The context that owns this dataset.
    pub fn context(&self) -> &Context {
        &self.ctx
    }

    /// Number of partitions.
    pub fn num_partitions(&self) -> usize {
        self.inner.num_partitions()
    }

    // -- narrow transformations ------------------------------------------

    /// Element-wise transformation.
    pub fn map<U: Data>(&self, f: impl Fn(T) -> U + Send + Sync + 'static) -> Rdd<U> {
        let f = Arc::new(f);
        self.fuse_stage("Map", move |_, it| {
            let f = f.clone();
            Box::new(it.map(move |t| f(t))) as BoxIter<U>
        })
    }

    /// Keeps elements satisfying the predicate.
    pub fn filter(&self, f: impl Fn(&T) -> bool + Send + Sync + 'static) -> Rdd<T> {
        let f = Arc::new(f);
        self.fuse_stage("Filter", move |_, it| {
            let f = f.clone();
            Box::new(it.filter(move |t| f(t))) as BoxIter<T>
        })
    }

    /// Element-wise one-to-many transformation.
    pub fn flat_map<U: Data, I>(&self, f: impl Fn(T) -> I + Send + Sync + 'static) -> Rdd<U>
    where
        I: IntoIterator<Item = U> + 'static,
        I::IntoIter: Send,
    {
        let f = Arc::new(f);
        self.fuse_stage("FlatMap", move |_, it| {
            let f = f.clone();
            Box::new(it.flat_map(move |t| f(t))) as BoxIter<U>
        })
    }

    /// Whole-partition transformation. Unlike the element-wise
    /// operators this materialises its input, so it acts as a pipeline
    /// barrier inside a fused chain (the chain itself stays one node).
    pub fn map_partitions<U: Data>(
        &self,
        f: impl Fn(Vec<T>) -> Vec<U> + Send + Sync + 'static,
    ) -> Rdd<U> {
        self.fuse_stage("MapPartitions", move |_, it| {
            Box::new(f(it.collect()).into_iter()) as BoxIter<U>
        })
    }

    /// Whole-partition transformation that also receives the partition id.
    pub fn map_partitions_with_index<U: Data>(
        &self,
        f: impl Fn(usize, Vec<T>) -> Vec<U> + Send + Sync + 'static,
    ) -> Rdd<U> {
        self.fuse_stage("MapPartitions", move |i, it| {
            Box::new(f(i, it.collect()).into_iter()) as BoxIter<U>
        })
    }

    /// Whole-partition transformation over shared [`Partition`] handles,
    /// with a counter.
    ///
    /// Unlike [`Rdd::map_partitions`], the closures receive the parent's
    /// `Partition<T>` handle directly — including any columnar sidecar
    /// already cached on it via [`Partition::to_columns`] — so zero-copy
    /// consumers (borrow, bitmap-select, gather) never materialise an
    /// intermediate `Vec`. Computing a partition runs `f`, which returns
    /// a new handle. `count(p, input)` must equal the length of
    /// `f(p, input)`: [`Rdd::count`], [`Rdd::count_per_partition`] and
    /// [`Rdd::count_with_deadline`] on the result run only `count` per
    /// task over the same parent, so a count never builds the output.
    /// Any further transformation sees `f`'s output. Like
    /// `map_partitions` it acts as a pipeline barrier: it forms its own
    /// node rather than joining a fused chain. `op` becomes the lineage
    /// label.
    pub fn map_partition_handles<U: Data>(
        &self,
        op: impl Into<String>,
        f: impl Fn(usize, Partition<T>) -> Partition<U> + Send + Sync + 'static,
        count: impl Fn(usize, Partition<T>) -> usize + Send + Sync + 'static,
    ) -> Rdd<U> {
        self.derive(
            op,
            Arc::new(MapPartitionsRdd {
                parent: self.inner.clone(),
                f: Arc::new(f),
                count: Some(Arc::new(count)),
            }),
        )
    }

    /// Concatenation of the two datasets' partition lists.
    pub fn union(&self, other: &Rdd<T>) -> Rdd<T> {
        Rdd {
            ctx: self.ctx.clone(),
            inner: Arc::new(UnionRdd { parents: vec![self.inner.clone(), other.inner.clone()] }),
            lineage: Lineage::derived("Union", vec![self.lineage.clone(), other.lineage.clone()]),
            fused: None,
        }
    }

    /// Masks out partitions: a `false` entry makes the corresponding
    /// partition compute to empty *without* touching its parent. The
    /// engine counts each skip in
    /// [`MetricsSnapshot::partitions_pruned`](crate::metrics::MetricsSnapshot).
    pub fn with_partition_mask(&self, mask: Vec<bool>) -> Rdd<T> {
        assert_eq!(mask.len(), self.num_partitions(), "mask length must equal partition count");
        let skipped = mask.iter().filter(|m| !**m).count();
        self.derive(
            format!("PartitionMask[{skipped} of {} pruned]", mask.len()),
            Arc::new(MaskRdd { ctx: self.ctx.clone(), parent: self.inner.clone(), mask }),
        )
    }

    /// Pairs up equal-numbered partitions of two datasets: the partition
    /// pairs `(i, i)`. Panics if the partition counts differ. The closure
    /// receives shared [`Partition`] handles; borrow (`&data`,
    /// `data.iter()`) to stay zero-copy, or iterate by value to take
    /// owned elements.
    pub fn zip_partitions<B: Data, R: Data>(
        &self,
        other: &Rdd<B>,
        f: impl Fn(usize, Partition<T>, Partition<B>) -> Vec<R> + Send + Sync + 'static,
    ) -> Rdd<R> {
        let n = self.num_partitions();
        assert_eq!(n, other.num_partitions(), "zip_partitions requires equal partition counts");
        self.pair_join(other, (0..n).map(|i| (i, i)).collect(), Arc::new(f), None)
    }

    /// Joins selected partition pairs of two datasets: output partition
    /// `p` computes `f(left[pairs[p].0], right[pairs[p].1])`.
    ///
    /// This is the partition-pair join scheme STARK uses for spatial
    /// joins: only pairs whose partition extents can satisfy the join
    /// predicate are listed, and each pair is evaluated exactly once, so
    /// no duplicate elimination is needed. Callers should [`Rdd::cache`]
    /// inputs whose partitions appear in several pairs.
    pub fn join_partition_pairs<B: Data, R: Data>(
        &self,
        other: &Rdd<B>,
        pairs: Vec<(usize, usize)>,
        f: impl Fn(Partition<T>, Partition<B>) -> Vec<R> + Send + Sync + 'static,
    ) -> Rdd<R> {
        self.pair_join(other, pairs, Arc::new(move |_, l, r| f(l, r)), None)
    }

    /// [`Rdd::join_partition_pairs`] driven by a *matcher*:
    /// `matcher(p, left, right, emit)` calls `emit(a, b)` once per
    /// matched element pair of output partition `p`. Computing a
    /// partition clones the matched pairs; [`Rdd::count`] and
    /// [`Rdd::count_with_deadline`] on the result only sum the matches
    /// per task, so a counted join never builds its pairs. Any further
    /// transformation sees the cloned pairs, as with any other node.
    pub fn match_partition_pairs<B: Data>(
        &self,
        other: &Rdd<B>,
        pairs: Vec<(usize, usize)>,
        matcher: impl Fn(usize, &Partition<T>, &Partition<B>, &mut dyn FnMut(&T, &B))
            + Send
            + Sync
            + 'static,
    ) -> Rdd<(T, B)> {
        let matcher = Arc::new(matcher);
        let m = matcher.clone();
        let build: PairFn<T, B, Vec<(T, B)>> = Arc::new(move |p, l, r| {
            let mut out = Vec::new();
            m(p, &l, &r, &mut |a, b| out.push((a.clone(), b.clone())));
            out
        });
        let count: PairFn<T, B, usize> = Arc::new(move |p, l, r| {
            let mut n = 0usize;
            matcher(p, &l, &r, &mut |_, _| n += 1);
            n
        });
        self.pair_join(other, pairs, build, Some(count))
    }

    fn pair_join<B: Data, R: Data>(
        &self,
        other: &Rdd<B>,
        pairs: Vec<(usize, usize)>,
        f: PairFn<T, B, Vec<R>>,
        count: Option<PairFn<T, B, usize>>,
    ) -> Rdd<R> {
        let ln = self.num_partitions();
        let rn = other.num_partitions();
        for &(i, j) in &pairs {
            assert!(i < ln && j < rn, "partition pair ({i}, {j}) out of range");
        }
        let n_pairs = pairs.len();
        Rdd {
            ctx: self.ctx.clone(),
            inner: Arc::new(PartitionPairJoinRdd {
                left: self.inner.clone(),
                right: other.inner.clone(),
                pairs: pairs.into(),
                f,
                count,
            }),
            lineage: Lineage::derived(
                format!("PartitionPairJoin[{n_pairs} pairs of {ln}x{rn}]"),
                vec![self.lineage.clone(), other.lineage.clone()],
            ),
            fused: None,
        }
    }

    // -- shuffle / cache ---------------------------------------------------

    /// Re-distributes every element to the partition chosen by `f`
    /// (modulo `num_partitions`). This is the engine's shuffle; STARK's
    /// spatial partitioners plug in here, mirroring `RDD.partitionBy`.
    ///
    /// Requires [`StoreData`] (serialisable elements) because shuffle
    /// buckets spill to the spill store when the context's
    /// [`EngineConfig::memory_budget`](crate::EngineConfig) cannot hold
    /// them — the same reason Spark shuffle data must be serialisable.
    pub fn partition_by(
        &self,
        num_partitions: usize,
        f: impl Fn(&T) -> usize + Send + Sync + 'static,
    ) -> Rdd<T>
    where
        T: StoreData,
    {
        let num_partitions = num_partitions.max(1);
        self.derive(
            format!("Shuffle[{num_partitions} partitions]"),
            Arc::new(ShuffledRdd {
                ctx: self.ctx.clone(),
                parent: self.inner.clone(),
                partition_fn: Arc::new(f),
                num_partitions,
                buckets: OnceLock::new(),
            }),
        )
    }

    /// Memoises each partition after its first computation. Later
    /// accesses share the cached allocation (an `Arc` bump counted in
    /// [`MetricsSnapshot::clone_bytes_avoided`](crate::MetricsSnapshot))
    /// instead of deep-cloning the partition.
    ///
    /// Under a configured
    /// [`EngineConfig::memory_budget`](crate::EngineConfig), each cached
    /// partition is admitted only if its bytes fit the budget (evicting
    /// least-recently-used cache/checkpoint cells first); a partition
    /// that does not fit is served uncached and recomputed on later
    /// accesses. Pressure evictions are counted in
    /// [`MetricsSnapshot::partitions_evicted_for_pressure`](crate::MetricsSnapshot).
    ///
    /// Idempotent: on an already-cached dataset this returns that
    /// dataset, so its partitions are neither stored nor reserved
    /// against the budget twice.
    pub fn cache(&self) -> Rdd<T> {
        if self.inner.is_cache() {
            return self.clone();
        }
        let cells: Vec<StoreCell<T>> =
            (0..self.num_partitions()).map(|_| Arc::new(Mutex::new(None))).collect();
        let touches = register_store_cells(&self.ctx, &cells);
        self.derive(
            "Cache",
            Arc::new(CachedRdd {
                ctx: self.ctx.clone(),
                parent: self.inner.clone(),
                cells,
                touches,
            }),
        )
    }

    // -- actions ------------------------------------------------------------

    /// Eagerly computes this dataset and persists every partition to the
    /// object store under `key` (one JSON blob per partition plus a
    /// `manifest`), returning a dataset whose lineage is *truncated* to
    /// the checkpoint. Reads serve from memory; if a later task failure
    /// evicts a partition, recovery re-reads the blob from the store
    /// instead of recomputing the (discarded) upstream lineage —
    /// Spark's `RDD.checkpoint`.
    ///
    /// The serialised volume is recorded in
    /// [`MetricsSnapshot::checkpoint_bytes`](crate::MetricsSnapshot).
    /// Panics if a partition task fails permanently (like
    /// [`Rdd::collect`]); returns `Err` on storage or serialisation
    /// failures.
    pub fn checkpoint(&self, store: &ObjectStore, key: &str) -> Result<Rdd<T>, StorageError>
    where
        T: StoreData,
    {
        let parts = self.run_partitions(|_, data| data);
        let mut total_bytes = 0u64;
        for (i, p) in parts.iter().enumerate() {
            total_bytes += store.put_json_sized(&checkpoint_blob_key(key, i), p.as_slice())?;
        }
        store.put_json(&format!("{key}/manifest"), &(parts.len() as u64))?;
        self.ctx.raw_metrics().add_checkpoint_bytes(total_bytes);
        // Keep each partition in memory only under a granted budget
        // reservation; a declined cell starts empty and is re-read from
        // its (just written) blob on first access — byte-identical.
        let memory = self.ctx.memory();
        let cells: Vec<StoreCell<T>> = parts
            .into_iter()
            .map(|p| {
                let admitted = memory.try_reserve(p.shallow_bytes()).map(|r| (p, r));
                Arc::new(Mutex::new(admitted))
            })
            .collect();
        let touches = register_store_cells(&self.ctx, &cells);
        let lineage = Lineage::leaf(format!(
            "Checkpoint[{key:?}, {} partitions, {total_bytes} bytes]",
            self.num_partitions()
        ));
        Ok(Rdd {
            ctx: self.ctx.clone(),
            inner: Arc::new(CheckpointRdd {
                ctx: self.ctx.clone(),
                store: store.clone(),
                key: key.to_string(),
                cells,
                touches,
            }),
            lineage,
            fused: None,
        })
    }

    /// Runs `f` over every partition in parallel and returns the results
    /// in partition order. The building block for all other actions.
    /// `f` receives a shared [`Partition`] handle: borrow it to stay
    /// zero-copy, or convert with [`Partition::into_vec`] / by-value
    /// iteration when owned elements are needed.
    pub fn run_partitions<R: Send>(
        &self,
        f: impl Fn(usize, Partition<T>) -> R + Send + Sync,
    ) -> Vec<R> {
        self.ctx.raw_metrics().inc_jobs();
        executor::run_partitions(&self.ctx, &self.inner, f)
    }

    /// Fallible variant of [`Rdd::run_partitions`]: a panicking task is
    /// caught and surfaced as a [`TaskError`] naming the failing
    /// partition, instead of unwinding through the caller.
    pub fn try_run_partitions<R: Send>(
        &self,
        f: impl Fn(usize, Partition<T>) -> R + Send + Sync,
    ) -> Result<Vec<R>, TaskError> {
        self.ctx.raw_metrics().inc_jobs();
        executor::try_run_partitions(&self.ctx, &self.inner, f)
    }

    /// Materialises the whole dataset in partition order.
    pub fn collect(&self) -> Vec<T> {
        self.flatten_partitions(self.run_partitions(|_, data| data))
    }

    /// Fallible [`Rdd::collect`]: returns the first [`TaskError`] instead
    /// of panicking when a partition task fails.
    pub fn try_collect(&self) -> Result<Vec<T>, TaskError> {
        Ok(self.flatten_partitions(self.try_run_partitions(|_, data| data)?))
    }

    /// [`Rdd::try_collect`] under an ambient deadline: the job (and any
    /// nested shuffle jobs it spawns) fails with a typed
    /// [`TaskErrorKind::DeadlineExceeded`] error once `deadline` elapses,
    /// observed cooperatively at partition boundaries and between fused
    /// record chunks. No cache entry is poisoned — a later run without a
    /// deadline recomputes whatever the aborted run did not finish.
    pub fn collect_with_deadline(&self, deadline: Duration) -> Result<Vec<T>, TaskError> {
        let _scope = self.ctx.deadline_scope(deadline);
        self.try_collect()
    }

    /// Fallible [`Rdd::count`] under an ambient deadline; see
    /// [`Rdd::collect_with_deadline`].
    pub fn count_with_deadline(&self, deadline: Duration) -> Result<usize, TaskError> {
        let _scope = self.ctx.deadline_scope(deadline);
        Ok(self.try_count_per_partition()?.into_iter().sum())
    }

    /// Element count of every partition, as one job. A node that can
    /// count without building its output (a matcher-driven join, a
    /// [`Rdd::map_partition_handles`] node) runs
    /// its counter node instead — same retries, speculation, faults and
    /// deadlines, no rows.
    fn try_count_per_partition(&self) -> Result<Vec<usize>, TaskError> {
        self.ctx.raw_metrics().inc_jobs();
        match self.inner.counter() {
            Some(counter) => executor::try_run_partitions(&self.ctx, &counter, |_, n| n[0]),
            None => executor::try_run_partitions(&self.ctx, &self.inner, |_, data| data.len()),
        }
    }

    fn flatten_partitions(&self, mut parts: Vec<Partition<T>>) -> Vec<T> {
        if parts.len() == 1 {
            // single partition: steal the vec outright when unshared
            return parts.pop().expect("len checked").into_vec_counted(self.ctx.raw_metrics());
        }
        let total = parts.iter().map(|p| p.len()).sum();
        let mut out = Vec::with_capacity(total);
        for p in parts {
            out.extend(p.into_iter_counted(self.ctx.raw_metrics()));
        }
        out
    }

    /// Materialises the dataset keeping partition boundaries, returning
    /// shared [`Partition`] handles (no per-partition copy).
    pub fn glom(&self) -> Vec<Partition<T>> {
        self.run_partitions(|_, data| data)
    }

    /// Number of elements.
    pub fn count(&self) -> usize {
        self.count_per_partition().into_iter().sum()
    }

    /// Number of elements in each partition.
    pub fn count_per_partition(&self) -> Vec<usize> {
        executor::unwrap_job(self.try_count_per_partition())
    }

    /// Combines all elements with an associative function; `None` when
    /// the dataset is empty.
    pub fn reduce(&self, f: impl Fn(T, T) -> T + Send + Sync) -> Option<T> {
        self.run_partitions(|_, data| data.into_iter().reduce(&f)).into_iter().flatten().reduce(&f)
    }

    /// Folds each partition from `zero`, then folds the partials.
    pub fn fold<A: Send + Sync + Clone>(
        &self,
        zero: A,
        f: impl Fn(A, T) -> A + Send + Sync,
        combine: impl Fn(A, A) -> A,
    ) -> A {
        self.run_partitions(|_, data| data.into_iter().fold(zero.clone(), &f))
            .into_iter()
            .fold(zero, combine)
    }

    /// At most `n` elements, taken in partition order.
    pub fn take(&self, n: usize) -> Vec<T> {
        let mut out = Vec::with_capacity(n);
        for part in self.glom() {
            for item in part {
                if out.len() == n {
                    return out;
                }
                out.push(item);
            }
        }
        out
    }

    /// The first element, if any.
    pub fn first(&self) -> Option<T> {
        self.take(1).into_iter().next()
    }

    /// Distributed sample-sort: range-partitions the data on a sampled
    /// key distribution, then sorts each partition locally — Spark's
    /// `sortBy` scheme. The result is globally sorted across partition
    /// boundaries (partition *i* ≤ partition *i+1*).
    pub fn sort_by<K: Data + Ord>(
        &self,
        num_partitions: usize,
        key: impl Fn(&T) -> K + Send + Sync + 'static,
    ) -> Rdd<T>
    where
        T: StoreData,
    {
        let num_partitions = num_partitions.max(1);
        let key = Arc::new(key);

        // 1. Sample keys and derive range splitters.
        let k1 = key.clone();
        let mut sampled: Vec<K> = self.sample(0.1, 0x5eed).map(move |t| k1(&t)).collect();
        if sampled.len() < num_partitions * 4 {
            // tiny inputs: sample everything
            let k2 = key.clone();
            sampled = self.map(move |t| k2(&t)).collect();
        }
        sampled.sort();
        let mut splitters: Vec<K> = Vec::with_capacity(num_partitions.saturating_sub(1));
        for i in 1..num_partitions {
            if sampled.is_empty() {
                break;
            }
            let idx = (i * sampled.len() / num_partitions).min(sampled.len() - 1);
            splitters.push(sampled[idx].clone());
        }
        splitters.dedup();

        // 2. Range shuffle + local sort.
        let k3 = key.clone();
        let shuffled = self.partition_by(splitters.len() + 1, move |t| {
            let k = k3(t);
            splitters.partition_point(|s| *s <= k)
        });
        let k4 = key.clone();
        shuffled.map_partitions(move |mut data| {
            data.sort_by_key(|t| k4(t));
            data
        })
    }

    /// Bernoulli sample: keeps each element independently with
    /// probability `fraction`. Deterministic for a given seed and
    /// partitioning (a splitmix64 stream per partition).
    pub fn sample(&self, fraction: f64, seed: u64) -> Rdd<T> {
        assert!((0.0..=1.0).contains(&fraction), "fraction must be in [0, 1]");
        self.map_partitions_with_index(move |part, data| {
            let mut state = seed ^ (part as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
            data.into_iter()
                .filter(|_| {
                    state = splitmix64(state);
                    // uniform draw in [0, 1)
                    let u = (state >> 11) as f64 / (1u64 << 53) as f64;
                    u < fraction
                })
                .collect()
        })
    }

    /// Pairs every element with a dataset-wide sequential index.
    pub fn zip_with_index(&self) -> Rdd<(u64, T)> {
        let counts = self.count_per_partition();
        let mut offsets = Vec::with_capacity(counts.len());
        let mut acc = 0u64;
        for c in counts {
            offsets.push(acc);
            acc += c as u64;
        }
        self.map_partitions_with_index(move |i, data| {
            let base = offsets[i];
            data.into_iter().enumerate().map(|(j, t)| (base + j as u64, t)).collect()
        })
    }
}

impl<T: StoreData + Hash + Eq> Rdd<T> {
    /// Removes duplicates via a hash shuffle into `num_partitions` buckets.
    pub fn distinct(&self, num_partitions: usize) -> Rdd<T> {
        self.partition_by(num_partitions, |t| {
            use std::hash::Hasher;
            let mut h = std::collections::hash_map::DefaultHasher::new();
            t.hash(&mut h);
            h.finish() as usize
        })
        .map_partitions(|data| {
            let mut seen = std::collections::HashSet::with_capacity(data.len());
            data.into_iter().filter(|t| seen.insert(t.clone())).collect()
        })
    }
}

impl<K: Data + Hash + Eq, V: Data> Rdd<(K, V)> {
    fn hash_of(k: &K) -> usize {
        use std::hash::Hasher;
        let mut h = std::collections::hash_map::DefaultHasher::new();
        k.hash(&mut h);
        h.finish() as usize
    }

    /// Hash-partitions by key, mirroring Spark's `HashPartitioner`.
    pub fn partition_by_key(&self, num_partitions: usize) -> Rdd<(K, V)>
    where
        K: StoreData,
        V: StoreData,
    {
        self.partition_by(num_partitions, |(k, _)| Self::hash_of(k))
    }

    /// Groups values by key after a hash shuffle.
    pub fn group_by_key(&self, num_partitions: usize) -> Rdd<(K, Vec<V>)>
    where
        K: StoreData,
        V: StoreData,
    {
        self.partition_by_key(num_partitions).map_partitions(|data| {
            let mut groups: HashMap<K, Vec<V>> = HashMap::new();
            for (k, v) in data {
                groups.entry(k).or_default().push(v);
            }
            groups.into_iter().collect()
        })
    }

    /// Transforms values, keeping keys (and partitioning) intact.
    pub fn map_values<U: Data>(&self, f: impl Fn(V) -> U + Send + Sync + 'static) -> Rdd<(K, U)> {
        self.map(move |(k, v)| (k, f(v)))
    }

    /// Projects the keys.
    pub fn keys(&self) -> Rdd<K> {
        self.map(|(k, _)| k)
    }

    /// Projects the values.
    pub fn values(&self) -> Rdd<V> {
        self.map(|(_, v)| v)
    }

    /// Number of records per key, gathered on the driver.
    pub fn count_by_key(&self) -> HashMap<K, u64>
    where
        K: StoreData,
    {
        self.map_values(|_| 1u64)
            .reduce_by_key(self.num_partitions().max(1), |a, b| a + b)
            .collect()
            .into_iter()
            .collect()
    }

    /// Per-key reduction after a hash shuffle.
    pub fn reduce_by_key(
        &self,
        num_partitions: usize,
        f: impl Fn(V, V) -> V + Send + Sync + 'static,
    ) -> Rdd<(K, V)>
    where
        K: StoreData,
        V: StoreData,
    {
        self.partition_by_key(num_partitions).map_partitions(move |data| {
            let mut acc: HashMap<K, V> = HashMap::new();
            for (k, v) in data {
                match acc.remove(&k) {
                    Some(prev) => {
                        acc.insert(k, f(prev, v));
                    }
                    None => {
                        acc.insert(k, v);
                    }
                }
            }
            acc.into_iter().collect()
        })
    }
}

#[cfg(test)]
mod tests {
    use crate::context::{Context, EngineConfig};

    fn ctx() -> Context {
        Context::with_parallelism(4)
    }

    #[test]
    fn map_filter_flatmap() {
        let c = ctx();
        let r = c.parallelize((0..100).collect(), 7);
        assert_eq!(r.map(|x| x * 2).collect(), (0..100).map(|x| x * 2).collect::<Vec<_>>());
        assert_eq!(r.filter(|x| x % 2 == 0).count(), 50);
        assert_eq!(r.flat_map(|x| vec![x, x]).count(), 200);
    }

    #[test]
    fn collect_preserves_partition_order() {
        let c = ctx();
        let data: Vec<i64> = (0..1000).collect();
        let r = c.parallelize(data.clone(), 13);
        assert_eq!(r.collect(), data);
    }

    #[test]
    fn empty_dataset() {
        let c = ctx();
        let r = c.parallelize(Vec::<i32>::new(), 4);
        assert_eq!(r.count(), 0);
        assert_eq!(r.collect(), Vec::<i32>::new());
        assert_eq!(r.reduce(|a, b| a + b), None);
        assert_eq!(r.first(), None);
    }

    #[test]
    fn more_partitions_than_elements() {
        let c = ctx();
        let r = c.parallelize(vec![1, 2, 3], 10);
        assert_eq!(r.num_partitions(), 10);
        assert_eq!(r.count(), 3);
        assert_eq!(r.collect(), vec![1, 2, 3]);
    }

    #[test]
    fn reduce_and_fold() {
        let c = ctx();
        let r = c.parallelize((1..=100).collect(), 9);
        assert_eq!(r.reduce(|a, b| a + b), Some(5050));
        assert_eq!(r.fold(0i64, |a, b| a + b as i64, |a, b| a + b), 5050);
    }

    #[test]
    fn take_and_first() {
        let c = ctx();
        let r = c.parallelize((0..50).collect(), 6);
        assert_eq!(r.take(5), vec![0, 1, 2, 3, 4]);
        assert_eq!(r.take(0), Vec::<i32>::new());
        assert_eq!(r.take(500).len(), 50);
        assert_eq!(r.first(), Some(0));
    }

    #[test]
    fn union_concatenates() {
        let c = ctx();
        let a = c.parallelize(vec![1, 2], 2);
        let b = c.parallelize(vec![3, 4, 5], 2);
        let u = a.union(&b);
        assert_eq!(u.num_partitions(), 4);
        assert_eq!(u.collect(), vec![1, 2, 3, 4, 5]);
    }

    #[test]
    fn partition_by_routes_elements() {
        let c = ctx();
        let r = c.parallelize((0..100).collect(), 5).partition_by(4, |x| (*x % 4) as usize);
        assert_eq!(r.num_partitions(), 4);
        let parts = r.glom();
        for (i, part) in parts.iter().enumerate() {
            assert_eq!(part.len(), 25);
            assert!(part.iter().all(|x| (*x % 4) as usize == i));
        }
        // shuffle was counted
        assert!(c.metrics().shuffles >= 1);
    }

    #[test]
    fn partition_mask_skips_and_counts() {
        let c = ctx();
        let r = c.parallelize((0..100).collect(), 4);
        let masked = r.with_partition_mask(vec![true, false, true, false]);
        let before = c.metrics();
        let n = masked.count();
        assert_eq!(n, 50);
        let delta = c.metrics().diff(&before);
        assert_eq!(delta.partitions_pruned, 2);
    }

    #[test]
    #[should_panic(expected = "mask length")]
    fn partition_mask_length_checked() {
        let c = ctx();
        c.parallelize(vec![1], 2).with_partition_mask(vec![true]);
    }

    #[test]
    fn zip_partitions_pairs_up() {
        let c = ctx();
        let a = c.parallelize((0..10).collect(), 2);
        let b = c.parallelize((100..110).collect(), 2);
        let z =
            a.zip_partitions(&b, |_, xs, ys| xs.into_iter().zip(ys).map(|(x, y)| x + y).collect());
        assert_eq!(z.collect(), (0..10).map(|i| 100 + 2 * i).collect::<Vec<_>>());
    }

    #[test]
    fn cache_computes_once() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        use std::sync::Arc;
        let c = ctx();
        let hits = Arc::new(AtomicUsize::new(0));
        let hits2 = hits.clone();
        let r = c
            .parallelize((0..10).collect(), 2)
            .map(move |x| {
                hits2.fetch_add(1, Ordering::Relaxed);
                x
            })
            .cache();
        assert_eq!(r.count(), 10);
        assert_eq!(r.count(), 10);
        assert_eq!(r.collect().len(), 10);
        assert_eq!(hits.load(Ordering::Relaxed), 10, "map ran once per element");
    }

    #[test]
    fn distinct_removes_duplicates() {
        let c = ctx();
        let r = c.parallelize(vec![1, 2, 2, 3, 3, 3, 4], 3).distinct(4);
        let mut got = r.collect();
        got.sort_unstable();
        assert_eq!(got, vec![1, 2, 3, 4]);
    }

    #[test]
    fn group_by_key_and_reduce_by_key() {
        let c = ctx();
        let pairs: Vec<(u32, u32)> = (0..30).map(|i| (i % 3, i)).collect();
        let r = c.parallelize(pairs, 5);
        let grouped = r.group_by_key(4);
        let mut sizes: Vec<(u32, usize)> =
            grouped.collect().into_iter().map(|(k, vs)| (k, vs.len())).collect();
        sizes.sort_unstable();
        assert_eq!(sizes, vec![(0, 10), (1, 10), (2, 10)]);

        let mut sums = r.reduce_by_key(4, |a, b| a + b).collect();
        sums.sort_unstable();
        let expect: Vec<(u32, u32)> = vec![
            (0, (0..30).filter(|i| i % 3 == 0).sum()),
            (1, (0..30).filter(|i| i % 3 == 1).sum()),
            (2, (0..30).filter(|i| i % 3 == 2).sum()),
        ];
        assert_eq!(sums, expect);
    }

    #[test]
    fn sort_by_produces_global_order() {
        let c = ctx();
        let data: Vec<i64> = (0..2000).map(|i| (i * 7919) % 4093).collect();
        let sorted = c.parallelize(data.clone(), 7).sort_by(5, |x| *x);
        let collected = sorted.collect();
        let mut expect = data;
        expect.sort_unstable();
        assert_eq!(collected, expect, "globally sorted across partitions");
        // partitions form non-overlapping ranges
        let glommed = sorted.glom();
        let mut prev_max = i64::MIN;
        for part in glommed.iter().filter(|p| !p.is_empty()) {
            assert!(part.first().unwrap() >= &prev_max);
            prev_max = *part.last().unwrap();
        }
    }

    #[test]
    fn sort_by_handles_duplicates_and_tiny_inputs() {
        let c = ctx();
        let sorted = c.parallelize(vec![5, 5, 5, 1, 1], 3).sort_by(4, |x| *x);
        assert_eq!(sorted.collect(), vec![1, 1, 5, 5, 5]);
        let empty: Vec<i32> = Vec::new();
        assert_eq!(c.parallelize(empty, 2).sort_by(3, |x| *x).count(), 0);
    }

    #[test]
    fn sort_by_key_projection() {
        let c = ctx();
        let pairs: Vec<(String, u32)> =
            vec![("b".into(), 2), ("a".into(), 1), ("c".into(), 3), ("a".into(), 0)];
        let sorted = c.parallelize(pairs, 2).sort_by(2, |(k, _)| k.clone());
        let keys: Vec<String> = sorted.collect().into_iter().map(|(k, _)| k).collect();
        assert_eq!(keys, vec!["a", "a", "b", "c"]);
    }

    #[test]
    fn sample_is_deterministic_and_proportional() {
        let c = ctx();
        let r = c.parallelize((0..10_000).collect(), 8);
        let a = r.sample(0.3, 42).collect();
        let b = r.sample(0.3, 42).collect();
        assert_eq!(a, b, "same seed, same sample");
        let n = a.len() as f64;
        assert!((n - 3000.0).abs() < 300.0, "got {n} of ~3000");
        let other = r.sample(0.3, 43).collect();
        assert_ne!(a, other, "different seed, different sample");
        assert_eq!(r.sample(0.0, 1).count(), 0);
        assert_eq!(r.sample(1.0, 1).count(), 10_000);
    }

    #[test]
    #[should_panic(expected = "fraction")]
    fn sample_validates_fraction() {
        let c = ctx();
        c.parallelize(vec![1], 1).sample(1.5, 0);
    }

    #[test]
    fn explain_renders_lineage() {
        let c = ctx();
        let r = c
            .parallelize((0..100).collect(), 4)
            .filter(|x| x % 2 == 0)
            .map(|x| x * 2)
            .partition_by(3, |x| *x as usize)
            .cache();
        let plan = r.explain();
        let lines: Vec<&str> = plan.lines().collect();
        assert_eq!(lines[0], "Cache");
        assert!(lines[1].trim_start().starts_with("Shuffle[3"));
        assert_eq!(lines[2].trim_start(), "Fused[Filter→Map]");
        assert!(lines[3].trim_start().starts_with("ParallelCollection[100"));
    }

    #[test]
    fn fused_chain_renders_single_node() {
        let c = ctx();
        // a single narrow op keeps its plain name
        let single = c.parallelize((0..10).collect(), 2).map(|x| x + 1);
        assert!(single.explain().starts_with("Map\n"), "{}", single.explain());
        // two or more fuse into one node
        let fused = single.filter(|x| x % 2 == 0).flat_map(|x| vec![x]);
        assert!(fused.explain().starts_with("Fused[Map→Filter→FlatMap]\n"), "{}", fused.explain());
        assert_eq!(fused.collect(), vec![2, 4, 6, 8, 10]);
        // a shuffle breaks the chain; later narrow ops start a new one
        let after = fused.partition_by(2, |x| *x as usize).map(|x| x).filter(|_| true);
        assert!(after.explain().starts_with("Fused[Map→Filter]\n"), "{}", after.explain());
    }

    #[test]
    fn fused_chain_with_partition_barrier() {
        let c = ctx();
        let r = c
            .parallelize((0..100).collect(), 5)
            .map(|x| x + 1)
            .map_partitions(|mut v| {
                v.sort_unstable();
                v
            })
            .filter(|x| x % 2 == 0);
        assert!(r.explain().starts_with("Fused[Map→MapPartitions→Filter]"), "{}", r.explain());
        assert_eq!(r.count(), 50);
    }

    #[test]
    fn fused_chain_matches_iterator_reference() {
        let expect: Vec<i32> =
            (0..500).map(|x| x + 1).filter(|x| x % 3 == 0).flat_map(|x| [x, -x]).collect();
        let r = ctx()
            .parallelize((0..500).collect(), 7)
            .map(|x| x + 1)
            .filter(|x| x % 3 == 0)
            .flat_map(|x| [x, -x]);
        assert_eq!(r.collect(), expect);
        assert_eq!(r.num_partitions(), 7);
    }

    #[test]
    fn cache_rereads_share_instead_of_cloning() {
        let c = ctx();
        let r = c.parallelize((0..1000).collect::<Vec<i64>>(), 4).map(|x| x * 2).cache();
        assert_eq!(r.count(), 1000); // populate the cache
        let before = c.metrics();
        assert_eq!(r.count(), 1000);
        assert_eq!(r.count(), 1000);
        let delta = c.metrics().diff(&before);
        assert_eq!(delta.records_cloned, 0, "cache re-reads must not deep-clone");
        let shallow = 1000 * std::mem::size_of::<i64>() as u64;
        assert!(
            delta.clone_bytes_avoided >= 2 * shallow,
            "two re-reads should share ≥ {} bytes, shared {}",
            2 * shallow,
            delta.clone_bytes_avoided
        );
    }

    #[test]
    fn collect_counts_forced_clones_from_shared_storage() {
        let c = ctx();
        let r = c.parallelize((0..100).collect::<Vec<i32>>(), 4).cache();
        r.count(); // populate
        let before = c.metrics();
        assert_eq!(r.collect().len(), 100);
        let delta = c.metrics().diff(&before);
        // collect must hand out owned elements while the cache retains
        // the partitions, so the deep clone is real — and counted.
        assert_eq!(delta.records_cloned, 100);
    }

    #[test]
    fn explain_shows_both_join_parents() {
        let c = ctx();
        let a = c.parallelize(vec![1, 2], 1);
        let b = c.parallelize(vec![3], 1);
        let u = a.union(&b);
        let plan = u.explain();
        assert!(plan.starts_with("Union"));
        assert_eq!(plan.matches("ParallelCollection").count(), 2);

        let j = a.join_partition_pairs(&b, vec![(0, 0)], |x, _y: crate::Partition<i32>| x.to_vec());
        assert!(j.explain().starts_with("PartitionPairJoin[1 pairs"));
    }

    #[test]
    fn explain_reports_pruned_mask() {
        let c = ctx();
        let r =
            c.parallelize((0..8).collect(), 4).with_partition_mask(vec![true, false, false, true]);
        assert!(r.explain().starts_with("PartitionMask[2 of 4 pruned]"), "{}", r.explain());
    }

    #[test]
    fn pair_conveniences() {
        let c = ctx();
        let pairs: Vec<(u32, u32)> = (0..20).map(|i| (i % 4, i)).collect();
        let r = c.parallelize(pairs, 3);
        assert_eq!(r.keys().count(), 20);
        assert_eq!(r.values().collect(), (0..20).collect::<Vec<u32>>());
        let doubled = r.map_values(|v| v * 2);
        assert_eq!(doubled.collect()[3], (3, 6));
        let counts = r.count_by_key();
        assert_eq!(counts.len(), 4);
        assert!(counts.values().all(|&c| c == 5));
    }

    #[test]
    fn zip_with_index_is_sequential() {
        let c = ctx();
        let r = c.parallelize((100..200).collect(), 7).zip_with_index();
        let collected = r.collect();
        for (expected_idx, (idx, val)) in collected.iter().enumerate() {
            assert_eq!(*idx, expected_idx as u64);
            assert_eq!(*val, 100 + expected_idx as i32);
        }
    }

    #[test]
    fn chained_pipeline() {
        let c = ctx();
        let result = c
            .parallelize((0..1000).collect(), 8)
            .filter(|x| x % 3 == 0)
            .map(|x| x * 2)
            .partition_by(4, |x| (*x as usize) / 500)
            .map(|x| x + 1)
            .count();
        assert_eq!(result, 334);
    }

    #[test]
    fn join_partition_pairs_evaluates_selected_pairs() {
        let c = ctx();
        let left = c.parallelize(vec![1, 2, 3, 4], 2).cache(); // [1,2] [3,4]
        let right = c.parallelize(vec![10, 20], 2).cache(); // [10] [20]
        let joined = left.join_partition_pairs(&right, vec![(0, 0), (1, 1)], |xs, ys| {
            xs.into_iter().flat_map(|x| ys.iter().map(move |y| x + y)).collect()
        });
        assert_eq!(joined.num_partitions(), 2);
        assert_eq!(joined.collect(), vec![11, 12, 23, 24]);
    }

    #[test]
    fn matched_pairs_count_without_building_rows() {
        let c = ctx();
        let left = c.parallelize(vec![1, 2, 3, 4], 2).cache(); // [1,2] [3,4]
        let right = c.parallelize(vec![10, 20, 30], 3).cache(); // [10] [20] [30]
        let joined =
            left.match_partition_pairs(&right, vec![(0, 0), (1, 1), (1, 2)], |p, xs, ys, emit| {
                for x in xs.iter() {
                    for y in ys.iter().filter(|y| (**y / 10 + x) % 2 == p % 2) {
                        emit(x, y);
                    }
                }
            });
        let pairs = joined.collect();
        assert_eq!(pairs, vec![(1, 10), (3, 20), (3, 30)]);
        let before = c.metrics();
        assert_eq!(joined.count(), pairs.len());
        let deadline = std::time::Duration::from_secs(10);
        assert_eq!(joined.count_with_deadline(deadline).unwrap(), pairs.len());
        assert_eq!(joined.count_per_partition(), vec![1, 1, 1]);
        let delta = c.metrics().diff(&before);
        assert_eq!(delta.jobs, 3);
        assert_eq!(delta.tasks_launched, 9, "one counting task per partition pair per job");
        // a further transformation counts the rows it is given
        assert_eq!(joined.map(|(x, y)| x + y).count(), 3);
    }

    #[test]
    fn counted_handles_count_through_the_parent_after_a_fault() {
        use crate::fault::{Fault, FaultPlan, FaultRule, Scope};
        // every job's first attempt at partition 1 panics before computing
        let rule = FaultRule::new(Fault::Transient, Scope::Partition(1));
        let chaos = Arc::new(FaultPlan::new(5, vec![rule]));
        let c = Context::with_config(EngineConfig {
            parallelism: 2,
            default_partitions: 2,
            fault_injector: Some(chaos.clone()),
            ..EngineConfig::default()
        });
        let parent_runs = Arc::new(AtomicUsize::new(0));
        let pr = parent_runs.clone();
        let cached = c
            .parallelize((0..8).collect::<Vec<i32>>(), 4)
            .map(move |x| {
                pr.fetch_add(1, Ordering::SeqCst);
                x
            })
            .cache();
        assert_eq!(cached.count(), 8);
        assert_eq!(parent_runs.load(Ordering::SeqCst), 8);

        let (builds, counts) = (Arc::new(AtomicUsize::new(0)), Arc::new(AtomicUsize::new(0)));
        let (b, n) = (builds.clone(), counts.clone());
        let evens = cached.map_partition_handles(
            "Evens",
            move |_, part: Partition<i32>| {
                b.fetch_add(1, Ordering::SeqCst);
                Partition::from_vec(part.iter().copied().filter(|x| x % 2 == 0).collect())
            },
            move |_, part| {
                n.fetch_add(1, Ordering::SeqCst);
                part.iter().filter(|x| *x % 2 == 0).count()
            },
        );
        let before = c.metrics();
        assert_eq!(evens.count(), 4);
        assert_eq!(builds.load(Ordering::SeqCst), 0, "count() never builds the output");
        assert_eq!(counts.load(Ordering::SeqCst), 4, "one counting task per partition");
        // the faulted task evicted cache cell 1 and recomputed it upstream
        let delta = c.metrics().diff(&before);
        assert_eq!(delta.tasks_retried, 1);
        assert_eq!(delta.partitions_recomputed, 1);
        assert_eq!(parent_runs.load(Ordering::SeqCst), 10, "cache cell 1 was evicted");

        assert_eq!(evens.count_per_partition(), vec![1, 1, 1, 1]);
        let deadline = std::time::Duration::from_secs(10);
        assert_eq!(evens.count_with_deadline(deadline).unwrap(), 4);
        assert_eq!(builds.load(Ordering::SeqCst), 0);
        // computing a partition builds it; the counter stays unused
        assert_eq!(evens.collect(), vec![0, 2, 4, 6]);
        assert_eq!(builds.load(Ordering::SeqCst), 4);
        assert_eq!(counts.load(Ordering::SeqCst), 12);
        // a further transformation counts the rows it is given
        assert_eq!(evens.map(|x| x + 1).count(), 4);
        assert_eq!(builds.load(Ordering::SeqCst), 8);
        assert!(chaos.injected() >= 5, "every job faulted partition 1 once");
    }

    #[test]
    fn cache_is_idempotent() {
        let c = ctx();
        let once = c.parallelize((0..100).collect::<Vec<i64>>(), 4).cache();
        let twice = once.cache();
        assert_eq!(twice.explain().matches("Cache").count(), 1, "{}", twice.explain());
        assert!(Arc::ptr_eq(once.lineage(), twice.lineage()));
        assert_eq!(twice.count(), 100);
        assert_eq!(c.metrics().bytes_reserved_peak, 100 * std::mem::size_of::<i64>() as u64);
    }

    #[test]
    fn dropped_caches_do_not_pile_up_victims() {
        let c = ctx();
        assert_eq!(c.memory().budget(), None, "eviction never runs unbounded");
        let base = c.parallelize((0..8).collect::<Vec<i32>>(), 4);
        let kept = base.cache();
        for _ in 0..10_000 {
            drop(base.cache());
        }
        let live = c.memory().victim_count();
        assert!(live < 100, "{live} registrations");
        // the live dataset's cells stay registered
        assert_eq!(kept.count(), 8);
        assert!(live >= kept.num_partitions());
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn join_partition_pairs_validates_ranges() {
        let c = ctx();
        let left = c.parallelize(vec![1], 1);
        let right = c.parallelize(vec![2], 1);
        left.join_partition_pairs(&right, vec![(0, 5)], |a, _b: crate::Partition<i32>| a.to_vec());
    }

    #[test]
    fn metrics_count_tasks_and_records() {
        let c = ctx();
        let before = c.metrics();
        let r = c.parallelize((0..100).collect(), 4);
        r.count();
        let delta = c.metrics().diff(&before);
        assert_eq!(delta.tasks_launched, 4);
        assert_eq!(delta.records_read, 100);
        assert_eq!(delta.jobs, 1);
    }

    // -- fault tolerance ---------------------------------------------------

    use super::{Data, Partition, Rdd, RddImpl, TaskErrorKind};
    use crate::storage::ObjectStore;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

    fn temp_store(tag: &str) -> ObjectStore {
        let dir = std::env::temp_dir().join(format!("stark-rdd-ckpt-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        ObjectStore::open(dir).unwrap()
    }

    #[test]
    fn union_out_of_range_is_typed_task_error() {
        let c = ctx();
        let a = c.parallelize(vec![1, 2], 2);
        let b = c.parallelize(vec![3], 1);
        let u = a.union(&b);

        // A wrapper that over-reports the partition count drives the
        // union's compute past its range — before the fix this was a
        // bare `panic!` with no classification.
        struct Oversized<T: Data>(Arc<dyn RddImpl<T>>);
        impl<T: Data> RddImpl<T> for Oversized<T> {
            fn num_partitions(&self) -> usize {
                self.0.num_partitions() + 1
            }
            fn compute(&self, partition: usize) -> Partition<T> {
                self.0.compute(partition)
            }
        }
        let bad = Rdd {
            ctx: c.clone(),
            inner: Arc::new(Oversized(u.inner.clone())),
            lineage: u.lineage().clone(),
            fused: None,
        };
        let before = c.metrics();
        let err = bad.try_run_partitions(|_, d| d.len()).unwrap_err();
        assert_eq!(err.kind, TaskErrorKind::PartitionOutOfRange);
        assert_eq!(err.partition, 3);
        assert_eq!(err.attempts, 1, "structural errors must not be retried");
        assert!(err.message.contains("out of range"), "{}", err.message);
        let delta = c.metrics().diff(&before);
        assert_eq!(delta.tasks_retried, 0);
        assert_eq!(delta.tasks_failed_permanently, 1);
    }

    #[test]
    fn retry_evicts_cache_and_recomputes_from_lineage() {
        let c = ctx();
        let parent_runs = Arc::new(AtomicUsize::new(0));
        let pr = parent_runs.clone();
        let cached = c
            .parallelize((0..8).collect::<Vec<i32>>(), 4)
            .map(move |x| {
                pr.fetch_add(1, Ordering::SeqCst);
                x
            })
            .cache();
        assert_eq!(cached.count(), 8);
        assert_eq!(parent_runs.load(Ordering::SeqCst), 8);

        // a downstream task fails once; its retry must not replay the
        // cached value but recompute partition 0 (2 records) upstream
        let fails = Arc::new(AtomicUsize::new(0));
        let f2 = fails.clone();
        let downstream = cached.map(move |x| {
            if x == 0 && f2.fetch_add(1, Ordering::SeqCst) == 0 {
                panic!("transient poison");
            }
            x
        });
        let before = c.metrics();
        assert_eq!(downstream.collect(), (0..8).collect::<Vec<_>>());
        assert_eq!(parent_runs.load(Ordering::SeqCst), 10, "cache cell 0 was evicted");
        let delta = c.metrics().diff(&before);
        assert_eq!(delta.tasks_retried, 1);
        assert_eq!(delta.partitions_recomputed, 1);
    }

    #[test]
    fn checkpoint_roundtrips_and_truncates_lineage() {
        let c = ctx();
        let store = temp_store("roundtrip");
        let r = c.parallelize((0..100).collect::<Vec<i64>>(), 4).map(|x| x * 2);
        let cp = r.checkpoint(&store, "ck/double").unwrap();
        assert_eq!(cp.num_partitions(), 4);
        assert_eq!(cp.collect(), r.collect());
        // lineage is truncated to the checkpoint leaf
        let plan = cp.explain();
        assert!(plan.starts_with("Checkpoint["), "{plan}");
        assert_eq!(plan.lines().count(), 1, "{plan}");
        // partitions persisted as addressable blobs
        assert!(store.exists("ck/double/part-00000"));
        assert!(store.exists("ck/double/part-00003"));
        assert!(store.exists("ck/double/manifest"));
        assert!(c.metrics().checkpoint_bytes > 0);
    }

    #[test]
    fn checkpoint_recovery_rereads_blob_after_failure() {
        use crate::fault::{Fault, FaultPlan, FaultRule, Scope};
        let rule = FaultRule::new(Fault::Transient, Scope::Partition(1));
        let chaos = Arc::new(FaultPlan::new(3, vec![rule]));
        let c = Context::with_config(EngineConfig {
            parallelism: 2,
            default_partitions: 2,
            fault_injector: Some(chaos.clone()),
            ..EngineConfig::default()
        });
        let store = temp_store("recover");
        // the checkpoint job itself absorbs a fault on partition 1
        let cp =
            c.parallelize((0..40).collect::<Vec<i32>>(), 4).checkpoint(&store, "ck/rec").unwrap();
        // every later sweep faults partition 1 again: the failed attempt
        // evicts the in-memory cell, so the retry re-reads the blob
        assert_eq!(cp.collect(), (0..40).collect::<Vec<_>>());
        assert!(chaos.injected() >= 2);

        // proof the recovery path really goes to the store: destroy the
        // blob and the post-failure attempt becomes a permanent, typed,
        // non-retryable CheckpointLost error
        store.delete("ck/rec/part-00001").unwrap();
        cp.inner.evict(1);
        let err = cp.try_run_partitions(|_, d| d.len()).unwrap_err();
        assert_eq!(err.partition, 1);
        assert_eq!(err.kind, TaskErrorKind::CheckpointLost);
        // the transient injector burns one attempt first; the lost
        // checkpoint itself must not be retried past that
        assert!(err.attempts <= 2, "CheckpointLost retried: {} attempts", err.attempts);
        assert!(err.message.contains("unreadable"), "{}", err.message);
    }

    #[test]
    fn bit_flipped_checkpoint_fails_typed_and_siblings_complete() {
        let c = ctx();
        let store = temp_store("bitflip");
        let cp =
            c.parallelize((0..40).collect::<Vec<i64>>(), 4).checkpoint(&store, "ck/flip").unwrap();

        // flip one payload bit of partition 2's blob on disk
        let path = store.root().join("ck/flip/part-00002");
        let mut raw = std::fs::read(&path).unwrap();
        let mid = raw.len() / 2;
        raw[mid] ^= 0x10;
        std::fs::write(&path, &raw).unwrap();

        // force the recovery path: the in-memory cell is gone, so the
        // next access re-reads the (now corrupt) blob
        cp.inner.evict(2);
        let err = cp.try_collect().unwrap_err();
        assert_eq!(err.partition, 2);
        assert_eq!(err.kind, TaskErrorKind::CheckpointLost);
        assert_eq!(err.attempts, 1, "corruption is deterministic; retrying is pointless");
        assert_eq!(c.metrics().tasks_retried, 0);

        // sibling partitions are unaffected: masking out the lost one
        // completes and returns exactly their records
        let healthy = cp.with_partition_mask(vec![true, true, false, true]).collect();
        let expected: Vec<i64> = (0..40).filter(|x| !(20..30).contains(x)).collect();
        assert_eq!(healthy, expected);
    }

    #[test]
    fn tight_budget_spills_shuffle_and_output_is_identical() {
        let data: Vec<u64> = (0..4096).collect();
        let unbounded = ctx();
        let baseline =
            unbounded.parallelize(data.clone(), 8).partition_by(8, |x| (*x % 8) as usize);
        let expected = baseline.collect();
        let peak = unbounded.metrics().bytes_reserved_peak;
        assert!(peak > 0, "unbounded runs still account the peak");

        // ~25% of the unbounded peak: map tasks cannot all hold their
        // buckets in memory, so some spill to the store and stream back
        let tight = Context::with_config(EngineConfig {
            parallelism: 4,
            default_partitions: 8,
            memory_budget: Some((peak / 4).max(1)),
            ..EngineConfig::default()
        });
        let shuffled = tight.parallelize(data, 8).partition_by(8, |x| (*x % 8) as usize);
        assert_eq!(shuffled.collect(), expected, "spilling must not change the output");
        let m = tight.metrics();
        assert!(m.bytes_spilled > 0, "tight budget must spill: {m:?}");
        assert!(m.spill_blobs_written > 0);
        // blobs are deleted as they are merged back
        assert_eq!(tight.spill_store().list("spill").unwrap(), Vec::<String>::new());
    }

    #[test]
    fn budget_pressure_evicts_lru_cache_and_recomputes_identically() {
        let data: Vec<u64> = (0..2048).collect();
        let expected: Vec<u64> = data.iter().map(|x| x * 3).collect();

        // budget holds only a fraction of the cached dataset: populating
        // later cells evicts earlier (least-recently-touched) ones
        let c = Context::with_config(EngineConfig {
            parallelism: 2,
            default_partitions: 8,
            memory_budget: Some(2048 * 8 / 4),
            ..EngineConfig::default()
        });
        let cached = c.parallelize(data, 8).map(|x| x * 3).cache();
        assert_eq!(cached.collect(), expected);
        let m = c.metrics();
        assert!(
            m.partitions_evicted_for_pressure > 0,
            "cache cannot fit the budget without evictions: {m:?}"
        );
        // evicted partitions recompute from lineage, byte-identical
        assert_eq!(cached.collect(), expected);
        assert_eq!(cached.collect(), expected);
    }

    #[test]
    fn checkpoint_cells_evicted_for_pressure_reread_their_blob() {
        let store = temp_store("pressure");
        let c = Context::with_config(EngineConfig {
            parallelism: 2,
            default_partitions: 4,
            // holds about one of the four checkpointed partitions
            memory_budget: Some(1024 * 8 / 3),
            ..EngineConfig::default()
        });
        let data: Vec<u64> = (0..1024).collect();
        let cp = c.parallelize(data.clone(), 4).checkpoint(&store, "ck/tight").unwrap();
        // most cells were declined or evicted at populate time; every
        // access still serves the full dataset from the store
        assert_eq!(cp.collect(), data);
        assert_eq!(cp.collect(), data);
        let reserved = c.memory().reserved();
        assert!(
            reserved <= 1024 * 8 / 3,
            "admitted checkpoint bytes must fit the budget, got {reserved}"
        );
    }

    #[test]
    fn unbounded_context_never_spills_or_evicts() {
        let c = ctx();
        let r = c
            .parallelize((0..1024).collect::<Vec<u64>>(), 8)
            .map(|x| x + 1)
            .cache()
            .partition_by(4, |x| (*x % 4) as usize);
        assert_eq!(r.count(), 1024);
        let m = c.metrics();
        assert_eq!(m.bytes_spilled, 0);
        assert_eq!(m.spill_blobs_written, 0);
        assert_eq!(m.partitions_evicted_for_pressure, 0);
        assert!(m.bytes_reserved_peak > 0, "accounting still runs unbounded");
    }
}
