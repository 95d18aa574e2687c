//! # stark-engine — in-process partitioned dataflow engine
//!
//! The reproduction's substitute for Apache Spark. STARK's contributions
//! are partition-level algorithmics — spatial partitioning, partition
//! pruning via bounds, per-partition indexing, partition-aligned joins —
//! so this engine reproduces exactly the Spark machinery those rely on:
//!
//! * a lazy DAG of partitioned datasets ([`Rdd`]) with narrow
//!   transformations, hash/custom shuffles ([`Rdd::partition_by`]),
//!   caching and `zipPartitions`;
//! * a zero-copy partition data path: tasks exchange shared
//!   [`Partition`] handles instead of cloned `Vec`s, and chains of
//!   narrow operators fuse into a single per-partition pass (rendered
//!   as `Fused[Map→Filter]` by [`Rdd::explain`]);
//! * a bounded thread-pool executor where worker threads stand in for
//!   cluster nodes (skewed partitions serialise on a worker, just as on
//!   a real cluster);
//! * task metrics ([`MetricsSnapshot`]) including a pruned-partition
//!   counter driven by [`Rdd::with_partition_mask`] and wall-clock
//!   task/job timing;
//! * lineage-based fault tolerance: failed tasks retry with cache
//!   eviction up to [`EngineConfig::max_task_retries`], a seeded
//!   [`FaultPlan`] makes chaos runs deterministic, and
//!   [`Rdd::checkpoint`] truncates lineage to the object store;
//! * straggler defence: cooperative cancellation via a
//!   [`CancellationToken`] chain, job deadlines
//!   ([`EngineConfig::job_deadline`], [`Rdd::collect_with_deadline`])
//!   surfacing typed [`TaskErrorKind::DeadlineExceeded`] errors, and
//!   optional speculative execution ([`EngineConfig::speculation`])
//!   that relaunches straggling tasks and lets the first result win;
//! * memory governance: an optional context-wide byte budget
//!   ([`EngineConfig::memory_budget`]) tracked by a [`MemoryManager`];
//!   under pressure, shuffles spill buckets to the object store, cache
//!   and checkpoint cells evict LRU-first (recomputing from lineage or
//!   re-reading their blob), and output stays byte-identical;
//! * a directory-backed [`ObjectStore`] standing in for HDFS;
//! * a bounded backpressure [`channel`] used by the streaming layer to
//!   feed micro-batches into the engine without unbounded buffering;
//! * supervised multi-process execution: serializable [`plan`]
//!   fragments ship to forked worker processes over an STK1-framed TCP
//!   [`transport`]; a [`WorkerPool`] heartbeats, detects worker loss
//!   (crash, silence, torn frames), reassigns in-flight work to
//!   survivors and respawns seats with jittered backoff;
//! * fault-tolerant remote shuffle: each worker keeps its map outputs in
//!   memory and serves them over a per-worker [`shuffle`] port to
//!   pooled peer connections (CRC-checked transfers with
//!   bounded timeouts, capped jittered retries and partial-fetch
//!   resume); the driver keeps a map-output registry and, when a
//!   producer dies mid-shuffle, regenerates the lost outputs via
//!   lineage on the survivors at a bumped shuffle epoch
//!   (`WorkerPool::run_shuffle`);
//! * one chaos harness for all of the above: a seeded [`FaultPlan`]
//!   whose rules strike task attempts in the executor, task dispatches
//!   in the pool, and bucket fetches in the workers' shuffle servers, so
//!   every recovery path is tested against deterministic faults.
//!
//! ```
//! use stark_engine::Context;
//!
//! let ctx = Context::with_parallelism(4);
//! let sum = ctx.parallelize((1..=100).collect(), 8)
//!     .filter(|x| x % 2 == 0)
//!     .map(|x| x as i64)
//!     .reduce(|a, b| a + b);
//! assert_eq!(sum, Some(2550));
//! ```

pub mod cancel;
pub mod channel;
pub mod context;
mod executor;
pub mod fault;
pub mod memory;
pub mod metrics;
pub mod partition;
pub mod plan;
pub mod rdd;
pub mod shuffle;
pub mod storage;
pub mod supervisor;
pub mod transport;
pub mod worker;

pub use cancel::{CancelReason, CancelScope, CancellationToken};
pub use context::{Context, EngineConfig};
pub use fault::{Fault, FaultPlan, FaultRule, Scope};
pub use memory::{ChildBudget, ChildReservation, MemoryManager, MemoryReservation};
pub use metrics::{Metrics, MetricsSnapshot};
pub use partition::{Partition, PartitionIntoIter};
pub use plan::{
    ExecEnv, OpRegistry, PlanFragment, PlanInput, PlanOp, PlanSink, TaskOutput, TaskResult,
};
pub use rdd::{abort_invalid_record, Data, Lineage, Rdd, StoreData, TaskError, TaskErrorKind};
pub use shuffle::{FetchConfig, FetchFailure, FetchSource, ShuffleEnv};
pub use storage::{ObjectStore, StorageError};
pub use supervisor::{
    DistTask, PoolError, PoolStats, ShuffleMode, ShuffleSpec, WorkerPool, WorkerPoolConfig,
};
pub use worker::WorkerRuntime;
