//! Serializable plan fragments — tasks as bytes.
//!
//! The executor's native task representation is a boxed closure, which
//! cannot cross a process boundary. A [`PlanFragment`] is the wire-form
//! equivalent: an op-code chain over [`StoreData`] rows (map / filter /
//! flat-map / per-partition ops), a terminal [`PlanSink`] (collect,
//! count, shuffle write, checkpoint), and an input source (rows shipped
//! inline with the task, or shuffle buckets fetched from the peer
//! workers that produced them). A fragment serialises to JSON and ships
//! inside one STK1 frame; the rows themselves never do — they travel as
//! binary [`encode_rows`] blobs in frames of their own.
//!
//! A fragment covers one or more partitions: an inline input one per
//! payload shipped with it, a fetch input one per entry of
//! [`PlanInput::Fetch::parts`]. The ops and the sink are resolved once
//! per fragment and run over each partition's own rows, giving one
//! [`TaskResult`] per partition.
//!
//! Closures do not serialise, so ops are *named*: driver and worker both
//! build an [`OpRegistry`] that maps op names to closure factories, and
//! a fragment references ops by name plus a JSON argument. A worker that
//! receives a fragment for a schema or op it does not know fails the
//! task with a typed [`PlanError`] instead of guessing.
//!
//! The same registry also drives local execution ([`OpRegistry::apply_ops`]
//! builds the identical closure chain onto an [`Rdd`]), so a plan runs
//! byte-identically in-process and on a worker — the invariant the
//! distributed chaos suite pins.

use serde::de::DeserializeOwned;
use serde::{Deserialize, Serialize};
use serde_json::Value;
use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

use crate::rdd::{checkpoint_blob_key, Rdd, StoreData};
use crate::shuffle::{FetchFailure, FetchSource, ShuffleEnv};
use crate::storage::{ObjectStore, StorageError};

// ---------------------------------------------------------------------------
// Wire types
// ---------------------------------------------------------------------------

/// A self-contained task description: input, op chain, sink.
#[derive(Debug, Clone, Serialize, Deserialize, PartialEq)]
pub struct PlanFragment {
    /// Row-schema name; the executing side dispatches to the registry
    /// registered under this name.
    pub schema: String,
    /// Where the input rows come from.
    pub input: PlanInput,
    /// Narrow op chain applied in order (the serialised form of a fused
    /// map/filter stage).
    pub ops: Vec<PlanOp>,
    /// Terminal operation deciding what the task produces.
    pub sink: PlanSink,
}

/// Input source of a plan fragment.
#[derive(Debug, Clone, Serialize, Deserialize, PartialEq)]
pub enum PlanInput {
    /// The input rows travel with the task as raw payload frames (each
    /// an [`encode_rows`] blob), one per partition.
    Inline,
    /// Shuffle read of one or more reduce partitions: `parts[i]` lists
    /// partition i's buckets in map-task order, and its rows are their
    /// concatenation. Every bucket of every part is fetched at once (see
    /// [`ShuffleEnv::fetch_all`]). A fetch that exhausts its retry budget
    /// surfaces as [`PlanError::FetchFailed`], which the driver treats
    /// as a lost-map-output signal.
    Fetch { parts: Vec<Vec<FetchSource>> },
}

impl PlanInput {
    /// Every bucket this input fetches, over all its partitions.
    pub fn sources(&self) -> impl Iterator<Item = &FetchSource> {
        let parts: &[Vec<FetchSource>] = match self {
            PlanInput::Inline => &[],
            PlanInput::Fetch { parts } => parts,
        };
        parts.iter().flatten()
    }
}

/// One narrow operation, referenced by registered name plus argument.
#[derive(Debug, Clone, Serialize, Deserialize, PartialEq)]
pub enum PlanOp {
    Map { op: String, arg: Value },
    Filter { op: String, arg: Value },
    FlatMap { op: String, arg: Value },
    MapPartitions { op: String, arg: Value },
}

/// Terminal operation of a plan fragment.
#[derive(Debug, Clone, Serialize, Deserialize, PartialEq)]
pub enum PlanSink {
    /// Ship the resulting rows back (an [`encode_rows`] payload frame).
    Collect,
    /// Ship only the row count back.
    Count,
    /// Fold the rows through a registered collector op and ship its JSON
    /// value back — for results whose type differs from the row schema
    /// (join pairs, aggregates).
    CollectWith { op: String, arg: Value },
    /// Persist the resulting rows as a checkpoint partition blob —
    /// byte-compatible with [`Rdd::checkpoint`], so a local engine can
    /// recover from blobs written by workers.
    Checkpoint { key: String, partition: usize },
    /// Shuffle write: route each row through the named partitioner and
    /// keep every non-empty bucket in the executing worker's memory
    /// under [`shuffle_bucket_key`]`(prefix, task, bucket)`, registered
    /// under `epoch` and served to reducers over the worker's shuffle
    /// port. Ships per-bucket row counts back, from
    /// which the driver derives the reduce stage's fetch lists. A
    /// fragment over several partitions writes partition `i` as map
    /// task `task + i`.
    ShuffleWriteLocal {
        partitioner: String,
        arg: Value,
        num_partitions: usize,
        prefix: String,
        task: usize,
        /// Shuffle epoch of this output generation; bumped by the driver
        /// when lost outputs are regenerated, so reducers holding stale
        /// source lists are rejected instead of served mixed data.
        epoch: u64,
    },
}

/// What a task produced. Row payloads travel as their own raw frame
/// (never base64'd into the JSON envelope); this enum carries the
/// metadata.
#[derive(Debug, Clone, Serialize, Deserialize, PartialEq)]
pub enum TaskOutput {
    /// `PlanSink::Collect` result: the [`encode_rows`] payload frame
    /// that follows holds `rows` rows in `bytes` bytes.
    Rows { rows: u64, bytes: u64 },
    /// `PlanSink::Count` result.
    Count(u64),
    /// `PlanSink::CollectWith` result.
    Json(Value),
    /// `PlanSink::ShuffleWriteLocal` result: rows routed per bucket.
    BucketCounts(Vec<u64>),
    /// `PlanSink::Checkpoint` result.
    Checkpointed { key: String, rows: u64, bytes: u64 },
}

impl TaskOutput {
    /// Whether a raw payload frame accompanies this output on the wire.
    pub fn has_payload(&self) -> bool {
        matches!(self, TaskOutput::Rows { .. })
    }
}

/// A task's full result: the output metadata plus the raw row payload
/// when the sink was `Collect`.
#[derive(Debug, Clone, PartialEq)]
pub struct TaskResult {
    pub output: TaskOutput,
    pub payload: Option<Vec<u8>>,
}

/// Key of one distributed shuffle bucket on the worker that produced it
/// (mirrors the in-process shuffle's spill layout).
pub fn shuffle_bucket_key(prefix: &str, task: usize, bucket: usize) -> String {
    format!("{prefix}/task-{task:05}/bucket-{bucket:05}")
}

// ---------------------------------------------------------------------------
// Errors
// ---------------------------------------------------------------------------

/// Typed failure of plan resolution or execution.
#[derive(Debug)]
pub enum PlanError {
    /// The fragment names a schema this side has no registry for.
    SchemaMismatch {
        expected: String,
        got: String,
    },
    /// The fragment references an op name the registry does not know.
    UnknownOp {
        kind: &'static str,
        op: String,
    },
    /// An op argument failed to parse.
    BadArg {
        op: String,
        message: String,
    },
    /// `PlanInput::Inline` with no payload frame attached.
    MissingPayload,
    /// The sink needs the shared object store, but none was configured
    /// on this side.
    MissingStore,
    /// The sink or input needs a shuffle environment (remote shuffle),
    /// but this side has none.
    MissingShuffle,
    /// A remote bucket fetch exhausted its retry budget or was rejected
    /// as stale — the driver's cue to regenerate lost map outputs.
    FetchFailed(FetchFailure),
    /// A partitioner routed a row outside `0..num_partitions`.
    BadPartition {
        partition: usize,
        num_partitions: usize,
    },
    Storage(StorageError),
    Serde(String),
}

impl fmt::Display for PlanError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PlanError::SchemaMismatch { expected, got } => {
                write!(f, "plan schema {got:?} does not match registry schema {expected:?}")
            }
            PlanError::UnknownOp { kind, op } => write!(f, "unknown {kind} op {op:?}"),
            PlanError::BadArg { op, message } => write!(f, "bad argument for op {op:?}: {message}"),
            PlanError::MissingPayload => write!(f, "inline plan input without a payload frame"),
            PlanError::MissingStore => write!(f, "plan needs an object store but none is attached"),
            PlanError::MissingShuffle => {
                write!(f, "plan needs a shuffle environment but none is attached")
            }
            PlanError::FetchFailed(failure) => write!(f, "shuffle {failure}"),
            PlanError::BadPartition { partition, num_partitions } => {
                write!(f, "partitioner routed a row to {partition} of {num_partitions}")
            }
            PlanError::Storage(e) => write!(f, "plan storage error: {e}"),
            PlanError::Serde(m) => write!(f, "plan (de)serialisation error: {m}"),
        }
    }
}

impl std::error::Error for PlanError {}

impl From<StorageError> for PlanError {
    fn from(e: StorageError) -> Self {
        PlanError::Storage(e)
    }
}

impl From<serde::Error> for PlanError {
    fn from(e: serde::Error) -> Self {
        PlanError::Serde(e.to_string())
    }
}

/// Whether a failed plan is worth re-running. Resolution errors (unknown
/// op, bad schema, bad argument) are deterministic and fail every
/// attempt; storage and payload errors can be transient or fixed by
/// rerouting to another worker.
pub fn is_retryable(e: &PlanError) -> bool {
    !matches!(
        e,
        PlanError::SchemaMismatch { .. }
            | PlanError::UnknownOp { .. }
            | PlanError::BadArg { .. }
            | PlanError::BadPartition { .. }
            | PlanError::MissingShuffle
    )
}

// ---------------------------------------------------------------------------
// Row codec
// ---------------------------------------------------------------------------

/// Encodes a row slice as the canonical row blob: the shim's binary
/// form (`u32` row count, then each row's fields in declaration order,
/// no names, no `Value` tree). Every row blob uses it — inline task
/// input, shuffle buckets, `Collect` payloads, worker checkpoints, and
/// the in-process shuffle's spill and checkpoint files — so blobs
/// written by a worker are readable by a local engine and vice versa.
pub fn encode_rows<T: Serialize>(rows: &[T]) -> Result<Vec<u8>, PlanError> {
    Ok(serde::bin::to_vec(rows))
}

/// Decodes a row blob written by [`encode_rows`]. Truncated, mangled or
/// over-long input is a [`PlanError::Serde`], never a panic, and a
/// count prefix larger than the blob allocates nothing.
pub fn decode_rows<T: DeserializeOwned>(bytes: &[u8]) -> Result<Vec<T>, PlanError> {
    // The frozen benchmark adapter's `Pool::empty_task`
    // (bench/src/layers.rs) still sends the old JSON empty array as its
    // inline payload; those two bytes, and nothing else, read as zero rows.
    if bytes == b"[]" {
        return Ok(Vec::new());
    }
    Ok(serde::bin::from_slice(bytes)?)
}

// ---------------------------------------------------------------------------
// Registry
// ---------------------------------------------------------------------------

/// A resolved map op: row in, row out.
pub type RowFn<T> = Arc<dyn Fn(T) -> T + Send + Sync>;
/// A resolved filter predicate.
pub type PredFn<T> = Arc<dyn Fn(&T) -> bool + Send + Sync>;
/// A resolved flat-map op.
pub type FlatFn<T> = Arc<dyn Fn(T) -> Vec<T> + Send + Sync>;
/// A resolved whole-partition op.
pub type PartsFn<T> = Arc<dyn Fn(Vec<T>) -> Vec<T> + Send + Sync>;
/// A resolved partitioner: row to bucket index.
pub type KeyFn<T> = Arc<dyn Fn(&T) -> usize + Send + Sync>;
/// A resolved collector: fold a partition's rows to one JSON value.
pub type CollectFn<T> = Arc<dyn Fn(Vec<T>) -> Result<Value, PlanError> + Send + Sync>;

type Factory<F> = Box<dyn Fn(&Value) -> Result<F, PlanError> + Send + Sync>;

/// Maps op names to closure factories for one row schema. Driver and
/// worker construct the same registry; a plan fragment is meaningful on
/// both sides because it only references ops by name.
pub struct OpRegistry<T> {
    schema: String,
    maps: HashMap<String, Factory<RowFn<T>>>,
    filters: HashMap<String, Factory<PredFn<T>>>,
    flat_maps: HashMap<String, Factory<FlatFn<T>>>,
    map_partitions: HashMap<String, Factory<PartsFn<T>>>,
    partitioners: HashMap<String, Factory<KeyFn<T>>>,
    collectors: HashMap<String, Factory<CollectFn<T>>>,
}

impl<T: StoreData> OpRegistry<T> {
    pub fn new(schema: impl Into<String>) -> Self {
        OpRegistry {
            schema: schema.into(),
            maps: HashMap::new(),
            filters: HashMap::new(),
            flat_maps: HashMap::new(),
            map_partitions: HashMap::new(),
            partitioners: HashMap::new(),
            collectors: HashMap::new(),
        }
    }

    /// The row schema this registry executes.
    pub fn schema(&self) -> &str {
        &self.schema
    }

    pub fn register_map(
        &mut self,
        name: impl Into<String>,
        factory: impl Fn(&Value) -> Result<RowFn<T>, PlanError> + Send + Sync + 'static,
    ) {
        self.maps.insert(name.into(), Box::new(factory));
    }

    pub fn register_filter(
        &mut self,
        name: impl Into<String>,
        factory: impl Fn(&Value) -> Result<PredFn<T>, PlanError> + Send + Sync + 'static,
    ) {
        self.filters.insert(name.into(), Box::new(factory));
    }

    pub fn register_flat_map(
        &mut self,
        name: impl Into<String>,
        factory: impl Fn(&Value) -> Result<FlatFn<T>, PlanError> + Send + Sync + 'static,
    ) {
        self.flat_maps.insert(name.into(), Box::new(factory));
    }

    pub fn register_map_partitions(
        &mut self,
        name: impl Into<String>,
        factory: impl Fn(&Value) -> Result<PartsFn<T>, PlanError> + Send + Sync + 'static,
    ) {
        self.map_partitions.insert(name.into(), Box::new(factory));
    }

    pub fn register_partitioner(
        &mut self,
        name: impl Into<String>,
        factory: impl Fn(&Value) -> Result<KeyFn<T>, PlanError> + Send + Sync + 'static,
    ) {
        self.partitioners.insert(name.into(), Box::new(factory));
    }

    pub fn register_collector(
        &mut self,
        name: impl Into<String>,
        factory: impl Fn(&Value) -> Result<CollectFn<T>, PlanError> + Send + Sync + 'static,
    ) {
        self.collectors.insert(name.into(), Box::new(factory));
    }

    fn resolve<F>(
        kind: &'static str,
        table: &HashMap<String, Factory<F>>,
        op: &str,
        arg: &Value,
    ) -> Result<F, PlanError> {
        let factory =
            table.get(op).ok_or_else(|| PlanError::UnknownOp { kind, op: op.to_string() })?;
        factory(arg)
    }

    /// Resolves an op chain to its closures.
    fn resolve_steps(&self, ops: &[PlanOp]) -> Result<Vec<Step<T>>, PlanError> {
        ops.iter()
            .map(|op| {
                Ok(match op {
                    PlanOp::Map { op, arg } => {
                        Step::Map(Self::resolve("map", &self.maps, op, arg)?)
                    }
                    PlanOp::Filter { op, arg } => {
                        Step::Filter(Self::resolve("filter", &self.filters, op, arg)?)
                    }
                    PlanOp::FlatMap { op, arg } => {
                        Step::FlatMap(Self::resolve("flat_map", &self.flat_maps, op, arg)?)
                    }
                    PlanOp::MapPartitions { op, arg } => {
                        Step::Parts(Self::resolve("map_partitions", &self.map_partitions, op, arg)?)
                    }
                })
            })
            .collect()
    }

    /// Resolves a sink's closure, if it names one.
    fn resolve_sink<'a>(&self, sink: &'a PlanSink) -> Result<Sink<'a, T>, PlanError> {
        Ok(match sink {
            PlanSink::Collect => Sink::Collect,
            PlanSink::Count => Sink::Count,
            PlanSink::CollectWith { op, arg } => {
                Sink::CollectWith(Self::resolve("collector", &self.collectors, op, arg)?)
            }
            PlanSink::ShuffleWriteLocal {
                partitioner,
                arg,
                num_partitions,
                prefix,
                task,
                epoch,
            } => Sink::ShuffleWriteLocal {
                key_fn: Self::resolve("partitioner", &self.partitioners, partitioner, arg)?,
                num_partitions: *num_partitions,
                prefix,
                task: *task,
                epoch: *epoch,
            },
            PlanSink::Checkpoint { key, partition } => {
                Sink::Checkpoint { key, partition: *partition }
            }
        })
    }

    /// Runs an inline fragment over `payload` (and `store`, for
    /// checkpoint sinks), returning its one task result — the in-process
    /// half of [`OpRegistry::execute_env`], and the chaos suites'
    /// "single-process mode" reference. Shuffle fragments (`Fetch`
    /// inputs, `ShuffleWriteLocal` sinks) need a [`ShuffleEnv`] and fail
    /// here with [`PlanError::MissingShuffle`].
    pub fn execute(
        &self,
        fragment: &PlanFragment,
        payload: Option<&[u8]>,
        store: Option<&ObjectStore>,
    ) -> Result<TaskResult, PlanError> {
        let payloads: Vec<&[u8]> = payload.into_iter().collect();
        let results = self.execute_env(fragment, &payloads, &ExecEnv { store, shuffle: None })?;
        // without a shuffle environment only an inline input resolves
        results.into_iter().next().ok_or(PlanError::MissingShuffle)
    }

    /// Runs a fragment with the full execution environment: the shared
    /// object store *and* the worker's shuffle half. This is the
    /// worker's entire task execution path. The ops and the sink are
    /// resolved once; the result holds one [`TaskResult`] per partition
    /// — per payload of an inline input, per part of a fetch input — in
    /// order.
    pub fn execute_env(
        &self,
        fragment: &PlanFragment,
        payloads: &[&[u8]],
        env: &ExecEnv<'_>,
    ) -> Result<Vec<TaskResult>, PlanError> {
        if fragment.schema != self.schema {
            return Err(PlanError::SchemaMismatch {
                expected: self.schema.clone(),
                got: fragment.schema.clone(),
            });
        }
        let steps = self.resolve_steps(&fragment.ops)?;
        let sink = self.resolve_sink(&fragment.sink)?;
        let run = |part: usize, rows: Vec<T>| run_part(part, rows, &steps, &sink, env);

        match &fragment.input {
            PlanInput::Inline if payloads.is_empty() => Err(PlanError::MissingPayload),
            PlanInput::Inline => payloads
                .iter()
                .enumerate()
                .map(|(part, payload)| run(part, decode_rows(payload)?))
                .collect(),
            PlanInput::Fetch { parts } => {
                let shuffle = env.shuffle.ok_or(PlanError::MissingShuffle)?;
                let sources: Vec<&FetchSource> = fragment.input.sources().collect();
                let blobs = shuffle.fetch_all(&sources).map_err(PlanError::FetchFailed)?;
                let mut blobs = blobs.into_iter();
                parts
                    .iter()
                    .enumerate()
                    .map(|(part, sources)| {
                        let mut rows = Vec::new();
                        for blob in blobs.by_ref().take(sources.len()) {
                            rows.extend(decode_rows::<T>(&blob)?);
                        }
                        run(part, rows)
                    })
                    .collect()
            }
        }
    }

    /// Applies a fragment's op chain to a local dataset, resolving the
    /// same named closures a worker would run. Local and distributed
    /// execution therefore share one plan — only the transport differs.
    pub fn apply_ops(&self, rdd: &Rdd<T>, ops: &[PlanOp]) -> Result<Rdd<T>, PlanError> {
        let mut cur = rdd.clone();
        for step in self.resolve_steps(ops)? {
            cur = match step {
                Step::Map(f) => cur.map(move |t| f(t)),
                Step::Filter(f) => cur.filter(move |t| f(t)),
                Step::FlatMap(f) => cur.flat_map(move |t| f(t)),
                Step::Parts(f) => cur.map_partitions(move |rows| f(rows)),
            };
        }
        Ok(cur)
    }

    /// Pre-flight check that every op a fragment references resolves
    /// against this registry (with its argument), without running it.
    pub fn validate(&self, fragment: &PlanFragment) -> Result<(), PlanError> {
        if fragment.schema != self.schema {
            return Err(PlanError::SchemaMismatch {
                expected: self.schema.clone(),
                got: fragment.schema.clone(),
            });
        }
        self.resolve_steps(&fragment.ops)?;
        self.resolve_sink(&fragment.sink)?;
        Ok(())
    }
}

/// A resolved narrow op.
enum Step<T> {
    Map(RowFn<T>),
    Filter(PredFn<T>),
    FlatMap(FlatFn<T>),
    Parts(PartsFn<T>),
}

/// A resolved [`PlanSink`]: the same terminal with its closure looked up.
enum Sink<'a, T> {
    Collect,
    Count,
    CollectWith(CollectFn<T>),
    ShuffleWriteLocal {
        key_fn: KeyFn<T>,
        num_partitions: usize,
        prefix: &'a str,
        task: usize,
        epoch: u64,
    },
    Checkpoint {
        key: &'a str,
        partition: usize,
    },
}

/// Runs the rows of a fragment's partition `part` through resolved ops
/// into a resolved sink.
fn run_part<T: StoreData>(
    part: usize,
    mut rows: Vec<T>,
    steps: &[Step<T>],
    sink: &Sink<'_, T>,
    env: &ExecEnv<'_>,
) -> Result<TaskResult, PlanError> {
    for step in steps {
        rows = match step {
            Step::Map(f) => rows.into_iter().map(|t| f(t)).collect(),
            Step::Filter(f) => rows.into_iter().filter(|t| f(t)).collect(),
            Step::FlatMap(f) => rows.into_iter().flat_map(|t| f(t)).collect(),
            Step::Parts(f) => f(rows),
        };
    }
    match sink {
        Sink::Collect => {
            let n = rows.len() as u64;
            let payload = encode_rows(&rows)?;
            let bytes = payload.len() as u64;
            Ok(TaskResult { output: TaskOutput::Rows { rows: n, bytes }, payload: Some(payload) })
        }
        Sink::Count => {
            Ok(TaskResult { output: TaskOutput::Count(rows.len() as u64), payload: None })
        }
        Sink::CollectWith(f) => {
            Ok(TaskResult { output: TaskOutput::Json(f(rows)?), payload: None })
        }
        Sink::ShuffleWriteLocal { key_fn, num_partitions, prefix, task, epoch } => {
            let shuffle = env.shuffle.ok_or(PlanError::MissingShuffle)?;
            let buckets = route_buckets(key_fn, rows, *num_partitions)?;
            let mut counts = Vec::with_capacity(buckets.len());
            for (b, bucket) in buckets.iter().enumerate() {
                counts.push(bucket.len() as u64);
                if !bucket.is_empty() {
                    shuffle.put_bucket(
                        &shuffle_bucket_key(prefix, task + part, b),
                        *epoch,
                        &encode_rows(bucket)?,
                    )?;
                }
            }
            Ok(TaskResult { output: TaskOutput::BucketCounts(counts), payload: None })
        }
        Sink::Checkpoint { key, partition } => {
            let store = env.store.ok_or(PlanError::MissingStore)?;
            let blob_key = checkpoint_blob_key(key, *partition);
            let data = encode_rows(&rows)?;
            store.put_bytes(&blob_key, &data)?;
            Ok(TaskResult {
                output: TaskOutput::Checkpointed {
                    key: blob_key,
                    rows: rows.len() as u64,
                    bytes: data.len() as u64,
                },
                payload: None,
            })
        }
    }
}

/// Routes rows into `num_partitions` buckets via a resolved partitioner,
/// rejecting out-of-range indices.
fn route_buckets<T>(
    key_fn: &KeyFn<T>,
    rows: Vec<T>,
    num_partitions: usize,
) -> Result<Vec<Vec<T>>, PlanError> {
    let mut buckets: Vec<Vec<T>> = (0..num_partitions).map(|_| Vec::new()).collect();
    for row in rows {
        let p = key_fn(&row);
        if p >= num_partitions {
            return Err(PlanError::BadPartition { partition: p, num_partitions });
        }
        buckets[p].push(row);
    }
    Ok(buckets)
}

// ---------------------------------------------------------------------------
// Schema-erased execution (worker-side dispatch)
// ---------------------------------------------------------------------------

/// Everything a task execution may touch beyond its inline payload: the
/// shared object store (checkpoints) and the worker's shuffle
/// environment (bucket fetch/serve).
#[derive(Clone, Copy, Default)]
pub struct ExecEnv<'a> {
    pub store: Option<&'a ObjectStore>,
    pub shuffle: Option<&'a ShuffleEnv>,
}

/// Object-safe executor for one schema — what a worker keeps one of per
/// registered row type and dispatches to by `PlanFragment::schema`.
pub trait SchemaExecutor: Send + Sync {
    fn schema(&self) -> &str;
    fn execute_env(
        &self,
        fragment: &PlanFragment,
        payloads: &[&[u8]],
        env: &ExecEnv<'_>,
    ) -> Result<Vec<TaskResult>, PlanError>;
}

impl<T: StoreData> SchemaExecutor for OpRegistry<T> {
    fn schema(&self) -> &str {
        OpRegistry::schema(self)
    }

    fn execute_env(
        &self,
        fragment: &PlanFragment,
        payloads: &[&[u8]],
        env: &ExecEnv<'_>,
    ) -> Result<Vec<TaskResult>, PlanError> {
        OpRegistry::execute_env(self, fragment, payloads, env)
    }
}

// ---------------------------------------------------------------------------
// Built-in integer schema
// ---------------------------------------------------------------------------

/// Builds a single-integer-field object argument (`{"k": 3}`-style) —
/// the workspace's serde shim has no `json!` macro.
pub fn int_arg(field: &str, v: i64) -> Value {
    Value::Object(vec![(field.to_string(), Value::Int(v))])
}

fn arg_i64(op: &str, arg: &Value, field: &str) -> Result<i64, PlanError> {
    match arg.get_field(field) {
        Some(Value::Int(n)) => Ok(*n),
        Some(Value::UInt(n)) if *n <= i64::MAX as u64 => Ok(*n as i64),
        _ => Err(PlanError::BadArg {
            op: op.to_string(),
            message: format!("missing integer field {field:?} in {}", arg.to_json()),
        }),
    }
}

/// The engine's own `i64` row schema: arithmetic ops used by the engine
/// test suite and registered by every worker binary, so a bare engine
/// (no spatial layer) can exercise the full distributed path.
pub fn int_registry() -> OpRegistry<i64> {
    let mut r = OpRegistry::new("i64");
    r.register_map("add", |arg| {
        let k = arg_i64("add", arg, "k")?;
        Ok(Arc::new(move |x| x + k) as RowFn<i64>)
    });
    r.register_map("mul", |arg| {
        let k = arg_i64("mul", arg, "k")?;
        Ok(Arc::new(move |x| x * k) as RowFn<i64>)
    });
    r.register_filter("ge", |arg| {
        let k = arg_i64("ge", arg, "k")?;
        Ok(Arc::new(move |x: &i64| *x >= k) as PredFn<i64>)
    });
    r.register_filter("even", |_| Ok(Arc::new(|x: &i64| x % 2 == 0) as PredFn<i64>));
    r.register_flat_map("repeat", |arg| {
        let k = arg_i64("repeat", arg, "k")?.max(0) as usize;
        Ok(Arc::new(move |x| vec![x; k]) as FlatFn<i64>)
    });
    r.register_map_partitions("sort", |_| {
        Ok(Arc::new(|mut rows: Vec<i64>| {
            rows.sort_unstable();
            rows
        }) as PartsFn<i64>)
    });
    r.register_partitioner("mod", |arg| {
        let parts = arg_i64("mod", arg, "parts")?.max(1);
        Ok(Arc::new(move |x: &i64| x.rem_euclid(parts) as usize) as KeyFn<i64>)
    });
    r.register_collector("sum", |_| {
        Ok(Arc::new(|rows: Vec<i64>| Ok(Value::Int(rows.iter().sum::<i64>()))) as CollectFn<i64>)
    });
    r
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::Context;

    fn temp_store(tag: &str) -> ObjectStore {
        let dir =
            std::env::temp_dir().join(format!("stark-plan-test-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        ObjectStore::open(dir).unwrap()
    }

    fn frag(input: PlanInput, ops: Vec<PlanOp>, sink: PlanSink) -> PlanFragment {
        PlanFragment { schema: "i64".into(), input, ops, sink }
    }

    fn shuffle_env() -> Arc<ShuffleEnv> {
        ShuffleEnv::with_config(crate::shuffle::FetchConfig::default(), None)
    }

    fn write_local(task: usize, parts: usize) -> PlanSink {
        PlanSink::ShuffleWriteLocal {
            partitioner: "mod".into(),
            arg: int_arg("parts", parts as i64),
            num_partitions: parts,
            prefix: "sh".into(),
            task,
            epoch: 0,
        }
    }

    #[test]
    fn fragment_roundtrips_through_json() {
        let f = frag(
            PlanInput::Fetch {
                parts: vec![
                    vec![FetchSource {
                        addr: "127.0.0.1:4000".into(),
                        key: shuffle_bucket_key("sh", 0, 1),
                        epoch: 2,
                    }],
                    Vec::new(),
                ],
            },
            vec![
                PlanOp::Map { op: "add".into(), arg: int_arg("k", 3) },
                PlanOp::Filter { op: "even".into(), arg: Value::Null },
            ],
            write_local(2, 4),
        );
        let bytes = serde_json::to_vec(&f).unwrap();
        let back: PlanFragment = serde_json::from_slice(&bytes).unwrap();
        assert_eq!(back, f);
    }

    #[test]
    fn inline_chain_collects() {
        let r = int_registry();
        let f = frag(
            PlanInput::Inline,
            vec![
                PlanOp::Map { op: "mul".into(), arg: int_arg("k", 3) },
                PlanOp::Filter { op: "ge".into(), arg: int_arg("k", 10) },
            ],
            PlanSink::Collect,
        );
        let payload = encode_rows(&[1i64, 2, 3, 4, 5]).unwrap();
        let result = r.execute(&f, Some(&payload), None).unwrap();
        let rows: Vec<i64> = decode_rows(result.payload.as_deref().unwrap()).unwrap();
        assert_eq!(rows, vec![12, 15]);
        assert!(matches!(result.output, TaskOutput::Rows { rows: 2, .. }));
    }

    #[test]
    fn count_and_collector_sinks() {
        let r = int_registry();
        let payload = encode_rows(&[1i64, 2, 3]).unwrap();
        let count = r
            .execute(&frag(PlanInput::Inline, vec![], PlanSink::Count), Some(&payload), None)
            .unwrap();
        assert_eq!(count.output, TaskOutput::Count(3));
        let sum = r
            .execute(
                &frag(
                    PlanInput::Inline,
                    vec![],
                    PlanSink::CollectWith { op: "sum".into(), arg: Value::Null },
                ),
                Some(&payload),
                None,
            )
            .unwrap();
        assert_eq!(sum.output, TaskOutput::Json(Value::Int(6)));
    }

    #[test]
    fn shuffle_write_then_fetch_read() {
        let r = int_registry();
        let server = shuffle_env();
        let map_env = ExecEnv { store: None, shuffle: Some(&server) };
        // two map tasks in one fragment (partition i writes as task i), so
        // the reduce side concatenates in task order
        let payloads = [encode_rows(&[9i64, 0, 4]).unwrap(), encode_rows(&[3i64, 6, 7]).unwrap()];
        let out = r
            .execute_env(
                &frag(PlanInput::Inline, vec![], write_local(0, 3)),
                &[&payloads[0], &payloads[1]],
                &map_env,
            )
            .unwrap();
        let counts = TaskResult { output: TaskOutput::BucketCounts(vec![2, 1, 0]), payload: None };
        assert_eq!(out, vec![counts.clone(), counts]);
        let port = server.serve().unwrap();

        // one reduce fragment reads all three partitions from the server;
        // partition 2 got no rows, so it has no buckets to fetch
        let source = |task, bucket| FetchSource {
            addr: format!("127.0.0.1:{port}"),
            key: shuffle_bucket_key("sh", task, bucket),
            epoch: 0,
        };
        let parts =
            vec![vec![source(0, 0), source(1, 0)], vec![source(0, 1), source(1, 1)], vec![]];
        let read = frag(PlanInput::Fetch { parts }, vec![], PlanSink::Collect);
        let client = shuffle_env();
        let results =
            r.execute_env(&read, &[], &ExecEnv { store: None, shuffle: Some(&client) }).unwrap();
        let rows: Vec<Vec<i64>> = results
            .iter()
            .map(|result| decode_rows(result.payload.as_deref().unwrap()).unwrap())
            .collect();
        assert_eq!(
            rows,
            vec![vec![9, 0, 3, 6], vec![4, 7], vec![]],
            "one result per partition: map-task order, then row order within a task"
        );
        assert_eq!(client.take_counters().requests, 1, "every bucket in one request");

        // without a shuffle environment neither side resolves
        assert!(matches!(r.execute(&read, None, None), Err(PlanError::MissingShuffle)));
        assert!(!is_retryable(&PlanError::MissingShuffle));
    }

    #[test]
    fn checkpoint_sink_is_readable_as_a_local_checkpoint_blob() {
        let r = int_registry();
        let store = temp_store("ckpt");
        let payload = encode_rows(&[7i64, 8, 9]).unwrap();
        let f = frag(
            PlanInput::Inline,
            vec![],
            PlanSink::Checkpoint { key: "ck/job".into(), partition: 2 },
        );
        let out = r.execute(&f, Some(&payload), Some(&store)).unwrap();
        match out.output {
            TaskOutput::Checkpointed { key, rows, .. } => {
                assert_eq!(key, "ck/job/part-00002");
                assert_eq!(rows, 3);
                // byte-compatible with Rdd::checkpoint's blob format
                let back: Vec<i64> = decode_rows(&store.get_bytes(&key).unwrap()).unwrap();
                assert_eq!(back, vec![7, 8, 9]);
            }
            other => panic!("expected Checkpointed, got {other:?}"),
        }
    }

    #[test]
    fn unknown_ops_and_schema_mismatch_are_typed() {
        let r = int_registry();
        let payload = encode_rows(&[1i64]).unwrap();
        let bad_op = frag(
            PlanInput::Inline,
            vec![PlanOp::Map { op: "nope".into(), arg: Value::Null }],
            PlanSink::Count,
        );
        assert!(matches!(
            r.execute(&bad_op, Some(&payload), None),
            Err(PlanError::UnknownOp { kind: "map", .. })
        ));
        let mut alien = frag(PlanInput::Inline, vec![], PlanSink::Count);
        alien.schema = "event-v1".into();
        assert!(matches!(
            r.execute(&alien, Some(&payload), None),
            Err(PlanError::SchemaMismatch { .. })
        ));
        assert!(!is_retryable(&PlanError::UnknownOp { kind: "map", op: "nope".into() }));
        assert!(is_retryable(&PlanError::MissingPayload));
    }

    #[test]
    fn validate_resolves_without_running() {
        let r = int_registry();
        let good = frag(
            PlanInput::Inline,
            vec![PlanOp::Filter { op: "even".into(), arg: Value::Null }],
            PlanSink::CollectWith { op: "sum".into(), arg: Value::Null },
        );
        r.validate(&good).unwrap();
        let bad = frag(
            PlanInput::Inline,
            vec![],
            PlanSink::ShuffleWriteLocal {
                partitioner: "missing".into(),
                arg: Value::Null,
                num_partitions: 2,
                prefix: "x".into(),
                task: 0,
                epoch: 0,
            },
        );
        assert!(matches!(r.validate(&bad), Err(PlanError::UnknownOp { kind: "partitioner", .. })));
    }

    #[test]
    fn apply_ops_matches_remote_execution() {
        let r = int_registry();
        let ops = vec![
            PlanOp::Map { op: "add".into(), arg: int_arg("k", 1) },
            PlanOp::Filter { op: "even".into(), arg: Value::Null },
            PlanOp::FlatMap { op: "repeat".into(), arg: int_arg("k", 2) },
        ];
        let data: Vec<i64> = (0..50).collect();

        // local: registry-resolved closures over the engine's Rdd path
        let ctx = Context::with_parallelism(4);
        let local = r.apply_ops(&ctx.parallelize(data.clone(), 4), &ops).unwrap().collect();

        // "remote": the worker-side execute over the same fragment
        let f = frag(PlanInput::Inline, ops, PlanSink::Collect);
        let payload = encode_rows(&data).unwrap();
        let result = r.execute(&f, Some(&payload), None).unwrap();
        let remote: Vec<i64> = decode_rows(result.payload.as_deref().unwrap()).unwrap();
        assert_eq!(local, remote);
    }
}
