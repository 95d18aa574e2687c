//! Columnar-vs-row equivalence and the NaN hardening regressions.
//!
//! `SpatialRdd::filter` chains lower to one columnar pass, which must be
//! **byte-identical** to a row-at-a-time reference on every filter shape
//! of the evaluation (S1 spatial filter, S2 temporal filter, S5
//! withinDistance) — including chained filters, spatially partitioned
//! inputs, and runs under the seeded fault injector. The reference is a
//! plain `Rdd::filter` over the same dataset with no partition mask, so
//! agreement also shows that partition pruning never drops a match.
//! Every count action on the chain (which reads the selection bitmap
//! and gathers no rows) must equal the reference's length.

use proptest::prelude::*;
use stark::{
    GridPartitioner, IndexedSpatialRdd, STObject, STPredicate, SpatialPartitioner, SpatialRddExt,
    StarkError, Temporal,
};
use stark_engine::{Context, EngineConfig, FaultPlan, ObjectStore, TaskErrorKind};
use stark_geo::{Coord, DistanceFn, Geometry};
use std::sync::Arc;
use std::time::Duration;

type Row = (STObject, u32);

fn make_ctx(injector: Option<Arc<FaultPlan>>) -> Context {
    Context::with_config(EngineConfig {
        parallelism: 4,
        default_partitions: 4,
        max_task_retries: 3,
        fault_injector: injector,
        ..EngineConfig::default()
    })
}

/// What one run of a filter chain produced: the collected rows, the
/// row reference over the same dataset, and the chain's three count
/// actions (`count()`, `count_per_partition()` summed,
/// `count_with_deadline(..)`), which never gather rows.
struct ChainRun {
    rows: Vec<Row>,
    reference: Vec<Row>,
    counts: [usize; 3],
}

/// Runs `chain` as successive `filter` calls, then counts and
/// materialises the result, together with the row reference.
fn run_chain(
    injector: Option<Arc<FaultPlan>>,
    data: &[Row],
    chain: &[(STPredicate, STObject)],
    partitioned: bool,
) -> ChainRun {
    let ctx = make_ctx(injector);
    let mut s = ctx.parallelize(data.to_vec(), 4).spatial();
    if partitioned {
        s = s.partition_by(Arc::new(GridPartitioner::build(3, &s.summarize())));
    }
    let reference_chain = chain.to_vec();
    let reference =
        s.rdd().filter(move |(o, _)| reference_chain.iter().all(|(p, q)| p.eval(o, q))).collect();
    for (pred, q) in chain {
        s = s.filter(q, *pred);
    }
    let counts = [
        s.count(),
        s.rdd().count_per_partition().into_iter().sum(),
        s.rdd().count_with_deadline(Duration::from_secs(60)).expect("count within deadline"),
    ];
    ChainRun { rows: s.collect(), reference, counts }
}

fn assert_paths_agree(data: &[Row], chain: &[(STPredicate, STObject)], partitioned: bool) {
    let plain = run_chain(None, data, chain, partitioned);
    let row = &plain.reference;
    assert_eq!(&plain.rows, row, "columnar and row paths diverged (partitioned={partitioned})");
    assert_eq!(plain.counts, [row.len(); 3], "counts diverged (partitioned={partitioned})");
    // and under injected transient faults (PR 3 chaos harness): retries
    // must reproduce the same bytes and counts on both paths
    let chaos = Some(Arc::new(FaultPlan::transient(0xC0_1A12, 0.15)));
    let faulted = run_chain(chaos, data, chain, partitioned);
    assert_eq!(&faulted.reference, row, "row path not fault-transparent");
    assert_eq!(&faulted.rows, row, "columnar path not fault-transparent");
    assert_eq!(faulted.counts, [row.len(); 3], "columnar counts not fault-transparent");
}

fn temporal_strategy() -> impl Strategy<Value = Option<Temporal>> {
    prop_oneof![
        Just(None),
        (-500i64..500).prop_map(|t| Some(Temporal::instant(t))),
        (-500i64..500, 0i64..300).prop_map(|(s, l)| Some(Temporal::interval(s, s + l))),
        (-500i64..500).prop_map(|s| Some(Temporal::from_instant_on(s))),
    ]
}

fn rows_strategy(max: usize) -> impl Strategy<Value = Vec<Row>> {
    let geom = prop_oneof![
        ((-60.0f64..60.0), (-60.0f64..60.0)).prop_map(|(x, y)| Geometry::point(x, y)),
        ((-60.0f64..60.0), (-60.0f64..60.0)).prop_map(|(x, y)| Geometry::point(x, y)),
        ((-60.0f64..60.0), (-60.0f64..60.0)).prop_map(|(x, y)| Geometry::point(x, y)),
        ((-60.0f64..60.0), (-60.0f64..60.0), (0.1f64..25.0), (0.1f64..25.0))
            .prop_map(|(x, y, w, h)| Geometry::rect(x, y, x + w, y + h)),
    ];
    let row = (geom, temporal_strategy()).prop_map(|(g, t)| match t {
        Some(t) => STObject::with_time(g, t),
        None => STObject::new(g),
    });
    proptest::collection::vec(row, 1..max)
        .prop_map(|os| os.into_iter().enumerate().map(|(i, o)| (o, i as u32)).collect())
}

/// An S1/S2-shaped rectangle query (optionally timed) plus an off-grid
/// triangle so non-envelope-decidable queries are exercised too.
fn query_strategy() -> impl Strategy<Value = STObject> {
    let rect = ((-50.0f64..20.0), (-50.0f64..20.0), (5.0f64..60.0), (5.0f64..60.0))
        .prop_map(|(x, y, w, h)| Geometry::rect(x, y, x + w, y + h));
    let tri = ((-50.0f64..20.0), (-50.0f64..20.0), (5.0f64..60.0)).prop_map(|(x, y, s)| {
        Geometry::from_wkt(&format!("POLYGON(({x} {y}, {} {y}, {x} {}, {x} {y}))", x + s, y + s))
            .unwrap()
    });
    let geom = prop_oneof![rect, tri];
    (geom, temporal_strategy()).prop_map(|(g, t)| match t {
        Some(t) => STObject::with_time(g, t),
        None => STObject::new(g),
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// S1/S2 shape: one topological filter, unpartitioned and
    /// grid-partitioned, plain and under chaos.
    #[test]
    fn single_filter_equivalence(
        data in rows_strategy(60),
        q in query_strategy(),
        pred_idx in 0usize..3,
    ) {
        let pred = [STPredicate::Intersects, STPredicate::Contains, STPredicate::ContainedBy]
            [pred_idx];
        let chain = vec![(pred, q)];
        assert_paths_agree(&data, &chain, false);
        assert_paths_agree(&data, &chain, true);
    }

    /// S5 shape: withinDistance under each metric.
    #[test]
    fn within_distance_equivalence(
        data in rows_strategy(60),
        qx in -60.0f64..60.0,
        qy in -60.0f64..60.0,
        d in 0.0f64..80.0,
        dist_idx in 0usize..3,
    ) {
        let dist_fn = [DistanceFn::Euclidean, DistanceFn::Haversine, DistanceFn::Manhattan]
            [dist_idx];
        // Haversine distances are metres; scale the cutoff up so some rows match
        let max_dist = if matches!(dist_fn, DistanceFn::Haversine) { d * 100_000.0 } else { d };
        let chain = vec![(
            STPredicate::WithinDistance { max_dist, dist_fn },
            STObject::point(qx, qy),
        )];
        assert_paths_agree(&data, &chain, false);
    }

    /// Fused chains: filter→filter→withinDistance narrowing one bitmap.
    #[test]
    fn chained_filter_equivalence(
        data in rows_strategy(60),
        wide in query_strategy(),
        narrow in query_strategy(),
        d in 1.0f64..60.0,
    ) {
        let chain = vec![
            (STPredicate::ContainedBy, wide),
            (STPredicate::Intersects, narrow),
            (
                STPredicate::WithinDistance { max_dist: d, dist_fn: DistanceFn::Euclidean },
                STObject::point(0.0, 0.0),
            ),
        ];
        assert_paths_agree(&data, &chain, false);
        assert_paths_agree(&data, &chain, true);
    }

    /// knn sorts must be deterministic with NaN distances in play
    /// (`total_cmp`, not `partial_cmp(..).unwrap_or(Equal)`).
    #[test]
    fn knn_is_deterministic_with_nan_distances(
        pts in proptest::collection::vec(((-20.0f64..20.0), (-20.0f64..20.0)), 5..40),
        n_nan in 1usize..5,
        k in 1usize..10,
    ) {
        let mut data: Vec<Row> = pts
            .iter()
            .enumerate()
            .map(|(i, &(x, y))| (STObject::point(x, y), i as u32))
            .collect();
        for i in 0..n_nan {
            data.push((STObject::point(f64::NAN, i as f64), 1000 + i as u32));
        }
        let ctx = make_ctx(None);
        let s = ctx.parallelize(data, 4).spatial();
        let q = STObject::point(1.0, 1.0);
        let a = s.knn(&q, k, DistanceFn::Euclidean);
        let b = s.knn(&q, k, DistanceFn::Euclidean);
        prop_assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            prop_assert!(x.0.total_cmp(&y.0).is_eq() && x.1 .1 == y.1 .1,
                "knn with NaN distances is not deterministic");
        }
        // finite neighbours sort ascending and ahead of any NaN
        let finite: Vec<f64> = a.iter().map(|e| e.0).take_while(|d| d.is_finite()).collect();
        prop_assert!(finite.windows(2).all(|w| w[0] <= w[1]));
        let n_finite_expected = k.min(pts.len());
        prop_assert!(finite.len() >= n_finite_expected.min(a.len()),
            "NaN distances displaced finite neighbours: {:?}", a.iter().map(|e| e.0).collect::<Vec<_>>());
    }
}

/// Rows whose centroid or envelope is non-finite must flow through the
/// columnar path's refinement lane byte-identically (unpartitioned — the
/// partitioners now reject them, see below).
#[test]
fn non_finite_rows_agree_on_both_paths() {
    let mut data: Vec<Row> =
        (0..20).map(|i| (STObject::point((i % 5) as f64, (i / 5) as f64), i as u32)).collect();
    data.push((STObject::point(f64::NAN, 2.0), 100));
    data.push((STObject::point(1.0, f64::INFINITY), 101));
    let q = STObject::new(Geometry::rect(0.5, -0.5, 3.5, 2.5));
    for pred in [STPredicate::Intersects, STPredicate::Contains, STPredicate::ContainedBy] {
        assert_paths_agree(&data, &[(pred, q.clone())], false);
    }
    for dist_fn in [DistanceFn::Euclidean, DistanceFn::Haversine, DistanceFn::Manhattan] {
        let pred = STPredicate::WithinDistance { max_dist: 2.0, dist_fn };
        assert_paths_agree(&data, &[(pred, STObject::point(1.0, 1.0))], false);
    }
}

/// Dense untimed points in every grid cell, so a partitioned run loses
/// matches against the unmasked row reference if pruning ever drops a
/// partition that holds one.
#[test]
fn pruning_never_drops_a_match() {
    let data: Vec<Row> =
        (0..400).map(|i| (STObject::point((i % 20) as f64, (i / 20) as f64), i as u32)).collect();
    let rects = [(-1.0, -1.0, 20.0, 20.0), (0.5, 0.5, 6.5, 6.5), (12.5, 3.5, 19.5, 15.5)];
    for (x0, y0, x1, y1) in rects {
        let q = STObject::new(Geometry::rect(x0, y0, x1, y1));
        for pred in [STPredicate::Intersects, STPredicate::ContainedBy] {
            assert_paths_agree(&data, &[(pred, q.clone())], true);
        }
    }
    let near = STPredicate::WithinDistance { max_dist: 4.0, dist_fn: DistanceFn::Euclidean };
    assert_paths_agree(&data, &[(near, STObject::point(2.0, 2.0))], true);
}

/// A filter reports the columnar batches it built and the rows it scanned.
#[test]
fn columnar_metrics_report_batches_and_rows() {
    let data: Vec<Row> =
        (0..80).map(|i| (STObject::point((i % 10) as f64, (i / 10) as f64), i as u32)).collect();
    let q = STObject::new(Geometry::rect(1.0, 1.0, 6.0, 6.0));

    let ctx = make_ctx(None);
    let before = ctx.metrics();
    let n = ctx.parallelize(data, 4).spatial().filter(&q, STPredicate::ContainedBy).count();
    let delta = ctx.metrics().diff(&before);
    assert!(n > 0);
    assert!(delta.columnar_batches_built > 0, "no batches built: {delta:?}");
    assert_eq!(delta.rows_scanned_columnar, 80, "every row scanned columnar once");
}

/// `count()` on a filter sums selection bits and clones no row;
/// `collect()` clones exactly the matches. Both run the same chain
/// evaluation, so they scan and prune identically.
#[test]
fn count_clones_no_rows_and_collect_clones_the_matches() {
    let data: Vec<Row> =
        (0..400).map(|i| (STObject::point((i % 20) as f64, (i / 20) as f64), i as u32)).collect();
    let ctx = make_ctx(None);
    let s = ctx.parallelize(data, 4).spatial();
    let s = s.partition_by(Arc::new(GridPartitioner::build(3, &s.summarize())));
    let q = STObject::new(Geometry::rect(0.5, 0.5, 6.5, 6.5));
    let near = STPredicate::WithinDistance { max_dist: 4.0, dist_fn: DistanceFn::Euclidean };
    let filtered = s.filter(&q, STPredicate::ContainedBy).filter(&STObject::point(2.0, 2.0), near);
    filtered.count(); // build every partition's batch before measuring

    let before = ctx.metrics();
    let n = filtered.count();
    let counted = ctx.metrics().diff(&before);
    let before = ctx.metrics();
    let rows = filtered.collect();
    let collected = ctx.metrics().diff(&before);

    assert!(n > 0 && n < 400, "the chain must select a strict subset: {n}");
    assert_eq!(rows.len(), n);
    assert_eq!(counted.records_cloned, 0, "count() cloned rows: {counted:?}");
    assert_eq!(collected.records_cloned, n as u64, "collect() clones each match once");
    assert!(counted.partitions_pruned > 0, "the query must prune: {counted:?}");
    assert_eq!(counted.partitions_pruned, collected.partitions_pruned);
    assert_eq!(counted.rows_scanned_columnar, collected.rows_scanned_columnar);
    assert!(counted.rows_scanned_columnar > 0);
}

/// The live and the persistent index answer `count()` with the length
/// of what they collect, and agree with the columnar filter.
#[test]
fn indexed_filter_count_equals_collect_in_both_index_modes() {
    let data: Vec<Row> = (0..300)
        .map(|i| (STObject::point_at((i % 20) as f64, (i / 20) as f64, i as i64), i as u32))
        .collect();
    let ctx = make_ctx(None);
    let s = ctx.parallelize(data, 4).spatial();
    let s = s.partition_by(Arc::new(GridPartitioner::build(3, &s.summarize())));
    let live = s.live_index(5);
    let dir = std::env::temp_dir().join(format!("stark-count-index-{}", std::process::id()));
    let store = ObjectStore::open(&dir).expect("object store");
    live.persist(&store, "idx").expect("persist index");
    let persistent = IndexedSpatialRdd::<u32>::load(&ctx, &store, "idx").expect("load index");

    let timed = STObject::from_wkt_interval("POLYGON((2 2, 9 2, 9 9, 2 9, 2 2))", 0, 120).unwrap();
    let near = STPredicate::WithinDistance { max_dist: 3.0, dist_fn: DistanceFn::Euclidean };
    let cases = [
        (STPredicate::ContainedBy, timed.clone()),
        (STPredicate::Intersects, timed),
        (near, STObject::point(10.0, 5.0)),
    ];
    for (pred, q) in &cases {
        let expected = s.filter(q, *pred).count();
        assert!(expected > 0, "{pred} must match something");
        for (mode, index) in [("live", &live), ("persistent", &persistent)] {
            let hits = index.filter(q, *pred);
            let before = ctx.metrics();
            assert_eq!(hits.count(), expected, "{mode} {pred}: count");
            assert_eq!(ctx.metrics().diff(&before).records_cloned, 0, "{mode}: count cloned");
            let before = ctx.metrics();
            assert_eq!(hits.collect().len(), expected, "{mode} {pred}: collect");
            assert_eq!(ctx.metrics().diff(&before).records_cloned, expected as u64);
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Satellite regression: NaN / infinite centroids are rejected with a
/// typed error at partition time instead of silently landing in
/// partition 0 and corrupting its extent.
#[test]
fn nan_centroid_is_rejected_by_partitioners() {
    let finite: Vec<Row> =
        (0..20).map(|i| (STObject::point(i as f64, i as f64), i as u32)).collect();
    let grid = Arc::new(GridPartitioner::build(
        3,
        &finite.iter().map(|(o, _)| (o.envelope(), o.centroid())).collect(),
    ));

    // the trait-level fallible assignment is typed
    let nan_obj = STObject::point(f64::NAN, 1.0);
    match grid.try_partition_of(&nan_obj) {
        Err(StarkError::NonFiniteCentroid { x, .. }) => assert!(x.is_nan()),
        other => panic!("expected NonFiniteCentroid, got {other:?}"),
    }
    assert!(grid.try_partition_for_centroid(&Coord::new(1.0, f64::INFINITY)).is_err());
    // finite out-of-space centroids still clamp (unchanged behaviour)
    assert_eq!(
        grid.try_partition_for_centroid(&Coord::new(1e9, 1e9)).unwrap(),
        grid.partition_for_centroid(&Coord::new(1e9, 1e9))
    );

    // the engine surfaces it as a non-retryable InvalidRecord task error
    let ctx = make_ctx(None);
    let mut poisoned = finite.clone();
    poisoned.push((nan_obj, 999));
    let g = grid.clone();
    let shuffled =
        ctx.parallelize(poisoned.clone(), 2).partition_by(grid.num_partitions(), move |(o, _)| {
            match g.try_partition_of(o) {
                Ok(idx) => idx,
                Err(e) => stark_engine::abort_invalid_record(e.to_string()),
            }
        });
    let err = shuffled.try_collect().unwrap_err();
    assert_eq!(err.kind, TaskErrorKind::InvalidRecord);
    assert_eq!(err.attempts, 1, "malformed input must not burn the retry budget");
    assert!(err.message.contains("non-finite centroid"), "{}", err.message);

    // and the user-facing partition_by propagates the failure (panics)
    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        ctx.parallelize(poisoned, 2).spatial().partition_by(grid)
    }));
    assert!(result.is_err(), "partition_by must reject NaN centroids");
}
