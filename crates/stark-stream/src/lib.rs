//! # stark-stream — micro-batch spatio-temporal event stream processing
//!
//! The streaming half of the STARK reproduction, mirroring how the
//! original runs on Spark Streaming: the paper's event pipeline tags
//! documents as they arrive, so queries must run *continuously* over an
//! unbounded event stream, not once over a static dataset.
//!
//! The model is Spark Streaming's discretised stream on top of the
//! reproduction's engine:
//!
//! * a [`Source`] ([`GeneratorSource`], [`ReplaySource`]) is pumped on a
//!   producer thread through a bounded backpressure channel
//!   ([`stark_engine::channel`]) into [`MicroBatch`]es, each of which
//!   becomes an engine `Rdd`;
//! * event-time **windows** ([`WindowSpec::tumbling`] /
//!   [`WindowSpec::sliding`]) with watermarks and a late-event policy
//!   ([`LatePolicy`]); fired panes get counts, per-cell grid aggregation
//!   and DBSCAN hotspot detection via the batch operators;
//! * **continuous queries** ([`StandingQuery`]: range/intersects
//!   filters, withinDistance, kNN monitors) re-evaluated per batch over
//!   the accumulated stream through an incrementally maintained
//!   per-partition STR-tree index ([`stark::IncrementalIndex`]) that
//!   only rebuilds the partitions each batch touches;
//! * per-batch [`BatchMetrics`] (latency, events/sec, late drops, queue
//!   depth, index rebuilds) rolled up into a [`StreamReport`];
//! * batch-level **fault tolerance**: pane aggregations retry as fresh
//!   engine jobs up to [`StreamConfig::max_batch_retries`] so a poisoned
//!   batch no longer stalls the pump, a panicking source ends the stream
//!   cleanly ([`StreamReport::source_disconnected`]), and
//!   [`BatchFailurePolicy`] picks skip-vs-abort on permanent failure;
//! * **graceful degradation** under overload: a [`ShedPolicy`]
//!   (`Block` backpressure by default, `DropOldest`, or
//!   `Sample{keep_1_in_n}`) sheds load when the batch channel saturates
//!   — fully accounted in [`StreamReport::records_shed`] and never
//!   moving the watermark backward — plus optional per-batch deadlines
//!   ([`StreamConfig::batch_deadline`]) riding the engine's
//!   cancellation tokens.
//!
//! ```
//! use stark_engine::Context;
//! use stark_geo::Envelope;
//! use stark_stream::{
//!     GeneratorSource, LatePolicy, MemorySink, StreamContext, StreamJob, WindowSpec,
//! };
//!
//! let space = Envelope::from_bounds(0.0, 0.0, 100.0, 100.0);
//! let sc = StreamContext::new(Context::with_parallelism(2));
//! let sink = MemorySink::new();
//! let job = StreamJob::new()
//!     .with_windows(WindowSpec::tumbling(500), 100, LatePolicy::Drop)
//!     .with_sink(sink.clone());
//! let report = sc.run(GeneratorSource::new(1, space, 3, 500, 50), job);
//! assert_eq!(report.batches.len(), 3);
//! assert!(sink.state().windows.iter().map(|w| w.count).sum::<u64>() > 0);
//! ```

pub mod batch;
pub mod context;
pub mod delta;
pub mod graph;
pub mod query;
pub mod sink;
pub mod source;
pub mod window;

pub use batch::{BatchId, BatchMetrics, MicroBatch, StreamReport};
pub use context::{BatchFailurePolicy, ShedPolicy, StreamConfig, StreamContext, StreamJob};
pub use delta::{apply_ops, Delta, StatelessOp};
pub use graph::{
    DeltaJoin, JoinEmission, JoinPair, JoinSide, JoinSpec, PipelineMode, WindowAggregator,
};
pub use query::{BatchEvaluation, ContinuousQueryEngine, QueryOutput, QueryResult, StandingQuery};
pub use sink::{MemorySink, MemorySinkState, Sink, WindowAggregate, WindowRetraction};
pub use source::{
    DeltaVecSource, EventPayload, GeneratorSource, Quarantine, ReplaySource, Source, VecSource,
    WktSource, QUARANTINE_CAP,
};
pub use window::{
    event_time, LatePolicy, ObserveStats, Watermark, WindowManager, WindowPane, WindowSpec,
    WindowStarts,
};
