//! Spatial op registry for multi-process execution.
//!
//! Registers the spatio-temporal operations a `stark-worker` process can
//! execute on the engine's serializable plan fragments
//! ([`stark_engine::plan`]): predicate filters, grid/BSP spatial
//! partitioners (shipped whole inside the fragment — both are plain
//! data once built), and a per-partition self-join collector. Driver and
//! worker build the identical registry, so a plan runs byte-identically
//! in-process and across processes — the invariant the distributed
//! chaos suite pins.

use crate::partitioner::{BspPartitioner, GridPartitioner, SpatialPartitioner};
use crate::predicate::STPredicate;
use crate::stobject::STObject;
use serde::{Deserialize, Serialize};
use serde_json::Value;
use stark_engine::plan::{KeyFn, OpRegistry, PlanError, PredFn};
use std::sync::Arc;

/// The row schema name spatial plan fragments dispatch on.
pub const EVENT_SCHEMA: &str = "event";

/// One spatio-temporal event row: geometry+time plus the paper's
/// `(id, category)` payload — the same shape the benchmarks use.
pub type EventRow = (STObject, (u64, String));

/// Argument of the `st_filter` op: evaluate `predicate(row, query)`.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct StFilterArg {
    pub query: STObject,
    pub predicate: STPredicate,
}

/// Argument of the `self_join_pairs` collector.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SelfJoinArg {
    pub predicate: STPredicate,
}

fn parse_arg<T: serde::de::DeserializeOwned>(op: &str, arg: &Value) -> Result<T, PlanError> {
    T::from_value(arg).map_err(|e| PlanError::BadArg { op: op.to_string(), message: e.to_string() })
}

/// Encodes a typed op argument as a plan-fragment `Value`.
pub fn to_arg<T: Serialize>(value: &T) -> Value {
    value.to_value()
}

/// Builds the spatial registry: every op a worker needs for the
/// distributed filter, shuffle and self-join paths.
///
/// * filter `st_filter` — keep rows where `predicate(obj, query)` holds
///   (the same orientation as `SpatialRdd::filter`);
/// * partitioner `grid` / `bsp` — route by the centroid of the row's
///   geometry through a fully-serialized partitioner;
/// * collector `self_join_pairs` — per-partition self-join under a
///   predicate, returning sorted `(id, id)` pairs.
pub fn event_registry() -> OpRegistry<EventRow> {
    let mut r = OpRegistry::new(EVENT_SCHEMA);

    r.register_filter("st_filter", |arg| {
        let StFilterArg { query, predicate } = parse_arg("st_filter", arg)?;
        Ok(Arc::new(move |row: &EventRow| predicate.eval(&row.0, &query)) as PredFn<EventRow>)
    });

    r.register_partitioner("grid", |arg| {
        let part: GridPartitioner = parse_arg("grid", arg)?;
        Ok(Arc::new(move |row: &EventRow| part.partition_of(&row.0)) as KeyFn<EventRow>)
    });

    r.register_partitioner("bsp", |arg| {
        let part: BspPartitioner = parse_arg("bsp", arg)?;
        Ok(Arc::new(move |row: &EventRow| part.partition_of(&row.0)) as KeyFn<EventRow>)
    });

    r.register_collector("self_join_pairs", |arg| {
        let SelfJoinArg { predicate } = parse_arg("self_join_pairs", arg)?;
        Ok(Arc::new(move |rows: Vec<EventRow>| Ok(self_join_pairs(&rows, predicate).to_value()))
            as stark_engine::plan::CollectFn<EventRow>)
    });

    r
}

/// Per-partition self-join: unordered id pairs (`id_a < id_b`) whose
/// objects satisfy the predicate, sorted — the canonical result order
/// that makes distributed and local runs byte-comparable.
pub fn self_join_pairs(rows: &[EventRow], predicate: STPredicate) -> Vec<(u64, u64)> {
    let mut pairs = Vec::new();
    for (i, (oi, (idi, _))) in rows.iter().enumerate() {
        for (oj, (idj, _)) in rows.iter().skip(i + 1) {
            if predicate.eval(oi, oj) {
                pairs.push((*idi.min(idj), *idi.max(idj)));
            }
        }
    }
    pairs.sort_unstable();
    pairs
}

#[cfg(test)]
mod tests {
    use super::*;
    use stark_engine::plan::{
        decode_rows, encode_rows, shuffle_bucket_key, ExecEnv, PlanFragment, PlanInput, PlanOp,
        PlanSink, TaskOutput, TaskResult,
    };
    use stark_engine::{FetchConfig, ShuffleEnv};

    fn rows() -> Vec<EventRow> {
        vec![
            (STObject::point_at(1.0, 1.0, 10), (1, "bus".into())),
            (STObject::point_at(1.0, 1.0, 10), (2, "bus".into())),
            (STObject::point_at(50.0, 50.0, 30), (3, "taxi".into())),
            (STObject::point_at(90.0, 90.0, 40), (4, "bus".into())),
        ]
    }

    fn query_box() -> STObject {
        // timed rows only match a timed query (paper temporal rule)
        STObject::from_wkt_interval("POLYGON((0 0, 40 0, 40 40, 0 40, 0 0))", 0, 100).unwrap()
    }

    #[test]
    fn st_filter_matches_direct_predicate_eval() {
        let r = event_registry();
        let arg = to_arg(&StFilterArg { query: query_box(), predicate: STPredicate::ContainedBy });
        let fragment = PlanFragment {
            schema: EVENT_SCHEMA.into(),
            input: PlanInput::Inline,
            ops: vec![PlanOp::Filter { op: "st_filter".into(), arg }],
            sink: PlanSink::Count,
        };
        let payload = encode_rows(&rows()).unwrap();
        let out = r.execute(&fragment, Some(&payload), None).unwrap();
        assert_eq!(out.output, TaskOutput::Count(2), "two points fall in the box");
    }

    #[test]
    fn grid_partitioner_ships_whole_and_routes_identically() {
        let space = stark_geo::Envelope::from_bounds(0.0, 0.0, 100.0, 100.0);
        let grid = GridPartitioner::with_space(4, space);
        let r = event_registry();
        let fragment = PlanFragment {
            schema: EVENT_SCHEMA.into(),
            input: PlanInput::Inline,
            ops: vec![],
            sink: PlanSink::ShuffleWriteLocal {
                partitioner: "grid".into(),
                arg: to_arg(&grid),
                num_partitions: grid.num_partitions(),
                prefix: "sh/evt".into(),
                task: 0,
                epoch: 0,
            },
        };
        let shuffle = ShuffleEnv::with_config(FetchConfig::default(), None);
        let env = ExecEnv { store: None, shuffle: Some(&shuffle) };
        let payload = encode_rows(&rows()).unwrap();
        let out = r.execute_env(&fragment, &[&payload], &env).unwrap();
        let [TaskResult { output: TaskOutput::BucketCounts(counts), .. }] = &out[..] else {
            panic!("{out:?}")
        };
        assert_eq!(counts.iter().sum::<u64>(), 4, "every row routed");
        let addr = format!("127.0.0.1:{}", shuffle.serve().unwrap());
        let client = ShuffleEnv::with_config(FetchConfig::default(), None);
        // each bucket holds exactly the rows the driver-side grid routes
        // there, in input order
        for (bucket, &count) in counts.iter().enumerate() {
            let expect: Vec<EventRow> =
                rows().into_iter().filter(|row| grid.partition_of(&row.0) == bucket).collect();
            assert_eq!(count, expect.len() as u64, "bucket {bucket} count");
            if count > 0 {
                let key = shuffle_bucket_key("sh/evt", 0, bucket);
                let bytes = client.fetch(&addr, &key, 0).unwrap();
                assert_eq!(decode_rows::<EventRow>(&bytes).unwrap(), expect, "bucket {bucket}");
            }
        }
    }

    #[test]
    fn self_join_collector_matches_reference_pairs() {
        let r = event_registry();
        let fragment = PlanFragment {
            schema: EVENT_SCHEMA.into(),
            input: PlanInput::Inline,
            ops: vec![],
            sink: PlanSink::CollectWith {
                op: "self_join_pairs".into(),
                arg: to_arg(&SelfJoinArg { predicate: STPredicate::Intersects }),
            },
        };
        let payload = encode_rows(&rows()).unwrap();
        let out = r.execute(&fragment, Some(&payload), None).unwrap();
        let TaskOutput::Json(v) = out.output else { panic!("{out:?}") };
        let got: Vec<(u64, u64)> = serde::Deserialize::from_value(&v).unwrap();
        assert_eq!(got, self_join_pairs(&rows(), STPredicate::Intersects));
        assert_eq!(got, vec![(1, 2)], "only the co-located points intersect");
    }

    #[test]
    fn bsp_partitioner_round_trips_through_serde() {
        let coords: Vec<stark_geo::Coord> = (0..200)
            .map(|i| stark_geo::Coord::new((i % 20) as f64 * 5.0, (i / 20) as f64 * 10.0))
            .collect();
        let summary: crate::partitioner::DataSummary =
            coords.iter().map(|c| (stark_geo::Envelope::from_point(*c), *c)).collect();
        let bsp = BspPartitioner::build(32, 5.0, &summary);
        let v = to_arg(&bsp);
        let back: BspPartitioner = serde::Deserialize::from_value(&v).unwrap();
        for c in &coords {
            assert_eq!(bsp.partition_for_centroid(c), back.partition_for_centroid(c));
        }
    }
}
