//! # stark — spatio-temporal event processing
//!
//! A faithful Rust reproduction of **STARK** (Hagedorn & Räth, EDBT 2017):
//! spatio-temporal data types and operators layered on a partitioned
//! dataflow engine. The Scala original extends Spark RDDs through an
//! implicit conversion; here the [`SpatialRddExt`] trait plays that role.
//!
//! * [`STObject`] — geometry + optional [`Temporal`] component, with the
//!   paper's combined predicate semantics (eqs. 1–3).
//! * Filters with `intersects` / `contains` / `containedBy` /
//!   `withinDistance` predicates, [`SpatialRdd::knn`], spatio-temporal
//!   [`SpatialRdd::join`] and [`cluster::dbscan`] clustering.
//! * Spatial partitioning ([`GridPartitioner`], [`BspPartitioner`]) with
//!   per-partition bounds *and extents*, driving sound partition pruning.
//! * Index modes: none, live ([`SpatialRdd::live_index`]) and persistent
//!   ([`IndexedSpatialRdd::persist`] / [`IndexedSpatialRdd::load`]).
//!
//! ```
//! use stark::{SpatialRddExt, STObject};
//! use stark_engine::Context;
//!
//! let ctx = Context::with_parallelism(4);
//! // (id, category, time, wkt) records, as in the paper's example
//! let raw = vec![
//!     (0u32, "concert", 100i64, "POINT(10 10)"),
//!     (1, "protest", 200, "POINT(50 50)"),
//!     (2, "concert", 300, "POINT(12 11)"),
//! ];
//! let events = ctx.parallelize(raw, 2).map(|(id, ctgry, time, wkt)| {
//!     (STObject::from_wkt_instant(wkt, time).unwrap(), (id, ctgry))
//! });
//! let qry = STObject::from_wkt_interval("POLYGON((0 0, 20 0, 20 20, 0 20, 0 0))", 0, 250)
//!     .unwrap();
//! let contained = events.contained_by(&qry);
//! assert_eq!(contained.count(), 1); // only event 0 is inside in space AND time
//! ```

pub mod aggregate;
pub mod cluster;
pub mod columnar;
pub mod distributed;
pub mod error;
pub mod incremental;
mod indexed;
pub mod join;
mod knn;
mod knn_join;
pub mod partitioner;
pub mod predicate;
pub mod slab;
mod spatial_rdd;
pub mod stobject;
pub mod temporal;

pub use aggregate::CellStats;
pub use columnar::ColumnarBatch;
pub use distributed::{event_registry, EventRow, SelfJoinArg, StFilterArg, EVENT_SCHEMA};
pub use error::StarkError;
pub use incremental::{IncrementalIndex, RefreshStats, RemoveOutcome};
pub use indexed::IndexedSpatialRdd;
pub use join::{JoinConfig, JoinIndexMode};
pub use knn_join::KnnJoinRow;
pub use partitioner::{
    balance_stats, BalanceStats, BspPartitioner, DataSummary, GridPartitioner, PartitionCell,
    SpatialPartitioner, TemporalPartitioner,
};
pub use predicate::STPredicate;
pub use slab::{RecordSlab, SlotId};
pub use spatial_rdd::{PartitioningInfo, SpatialRdd, SpatialRddExt};
pub use stobject::STObject;
pub use temporal::{Temporal, TemporalExtent};
