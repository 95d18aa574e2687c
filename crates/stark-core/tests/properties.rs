//! Property-based tests for the STARK operator layer: the combined
//! predicate semantics (paper eqs. 1–3), partitioner invariants, and
//! operator-vs-oracle equivalence on randomised datasets.

use proptest::prelude::*;
use stark::{
    BspPartitioner, GridPartitioner, IncrementalIndex, JoinConfig, STObject, STPredicate,
    SpatialPartitioner, SpatialRddExt, Temporal,
};
use stark_engine::Context;
use stark_geo::{Coord, DistanceFn, Envelope, Geometry};
use std::sync::Arc;

fn temporal_strategy() -> impl Strategy<Value = Option<Temporal>> {
    prop_oneof![
        Just(None),
        (-1000i64..1000).prop_map(|t| Some(Temporal::instant(t))),
        (-1000i64..1000, 0i64..500).prop_map(|(s, len)| Some(Temporal::interval(s, s + len))),
        (-1000i64..1000).prop_map(|s| Some(Temporal::from_instant_on(s))),
    ]
}

fn stobject_strategy() -> impl Strategy<Value = STObject> {
    let geom = prop_oneof![
        ((-100.0f64..100.0), (-100.0f64..100.0)).prop_map(|(x, y)| Geometry::point(x, y)),
        ((-100.0f64..100.0), (-100.0f64..100.0), (0.1f64..40.0), (0.1f64..40.0))
            .prop_map(|(x, y, w, h)| Geometry::rect(x, y, x + w, y + h)),
    ];
    (geom, temporal_strategy()).prop_map(|(g, t)| match t {
        Some(t) => STObject::with_time(g, t),
        None => STObject::new(g),
    })
}

fn points_strategy(max: usize) -> impl Strategy<Value = Vec<(f64, f64)>> {
    proptest::collection::vec(((-50.0f64..50.0), (-50.0f64..50.0)), 1..max)
}

/// Lon/lat points clustered in the polar caps (|lat| > 85°), where the
/// old planar Haversine pruning bound over-estimated longitude gaps.
fn polar_points_strategy(max: usize) -> impl Strategy<Value = Vec<(f64, f64)>> {
    proptest::collection::vec(
        ((-180.0f64..180.0), prop_oneof![85.0f64..90.0, -90.0f64..-85.0]),
        1..max,
    )
}

/// Where a generated shape sits in the unit square, and two offsets in
/// `[-1, 1]` that size it.
type Shape = (f64, f64, f64, f64);

fn shape_strategy() -> impl Strategy<Value = Shape> {
    (0.0f64..1.0, 0.0f64..1.0, -1.0f64..1.0, -1.0f64..1.0)
}

/// A point (`kind` 0), a three-vertex linestring (1) or a rectangle with
/// a rectangular hole (2), at times long in x, in frame 0 (planar, within ±50), or in lon/lat
/// within 1° of the north (1) or south (2) pole, straddling ±180°. A
/// shape is moved across the antimeridian whole, by its anchor, so it
/// stays in one piece.
fn shape(frame: u8, kind: usize, (u, v, du, dv): Shape) -> STObject {
    // keep every vertex inside the unit square
    let (u, v) = (0.15 + 0.7 * u, 0.15 + 0.7 * v);
    let place = |pu: f64, pv: f64| -> String {
        let (x, y) = match frame {
            0 => (100.0 * pu - 50.0, 100.0 * pv - 50.0),
            _ => {
                let lon = 179.0 + 2.0 * pu - if u >= 0.5 { 360.0 } else { 0.0 };
                let lat = 89.0 + pv;
                (lon, if frame == 2 { -lat } else { lat })
            }
        };
        format!("{x} {y}")
    };
    let ring = |r: f64| {
        let (w, h) = (r * (0.02 + 0.6 * du.abs()), r * (0.005 + 0.05 * dv.abs()));
        let corners = [(-w, -h), (w, -h), (w, h), (-w, h), (-w, -h)];
        let coords: Vec<String> = corners.iter().map(|(a, b)| place(u + a, v + b)).collect();
        format!("({})", coords.join(", "))
    };
    let wkt = match kind {
        0 => format!("POINT({})", place(u, v)),
        1 => format!(
            "LINESTRING({}, {}, {})",
            place(u, v),
            place(u + 0.6 * du, v + 0.02),
            place(u - 0.05, v + 0.1 * dv)
        ),
        _ => format!("POLYGON({}, {})", ring(1.0), ring(0.5)),
    };
    STObject::from_wkt(&wkt).unwrap()
}

/// `got` agrees with the exhaustive `want`: the same distances, and the
/// same records strictly closer than the k-th distance (records tied at
/// it may differ).
fn assert_same_knn(
    want: &[(f64, (STObject, usize))],
    got: &[(f64, (STObject, usize))],
    case: &str,
) {
    assert_eq!(got.len(), want.len(), "{case}");
    for (g, w) in got.iter().zip(want) {
        assert!((g.0 - w.0).abs() < 1e-9, "{case}: distance {} vs {}", g.0, w.0);
    }
    let closer = |r: &[(f64, (STObject, usize))]| {
        let kth = want.last().map_or(f64::INFINITY, |w| w.0);
        let mut ids: Vec<usize> =
            r.iter().filter(|(d, _)| *d < kth).map(|(_, (_, i))| *i).collect();
        ids.sort_unstable();
        ids
    };
    assert_eq!(closer(got), closer(want), "{case}: records closer than the k-th");
}

/// The paper's formal definition, transcribed literally.
fn formal_predicate(
    spatial: impl Fn(&Geometry, &Geometry) -> bool,
    temporal: impl Fn(&Temporal, &Temporal) -> bool,
    o: &STObject,
    p: &STObject,
) -> bool {
    let clause1 = spatial(o.geo(), p.geo());
    let clause2 = o.time().is_none() && p.time().is_none();
    let clause3 = match (o.time(), p.time()) {
        (Some(a), Some(b)) => temporal(a, b),
        _ => false,
    };
    clause1 && (clause2 || clause3)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn combined_predicates_match_formal_definition(
        o in stobject_strategy(),
        p in stobject_strategy(),
    ) {
        prop_assert_eq!(
            o.intersects(&p),
            formal_predicate(Geometry::intersects, Temporal::intersects, &o, &p)
        );
        prop_assert_eq!(
            o.contains(&p),
            formal_predicate(Geometry::contains, Temporal::contains, &o, &p)
        );
        prop_assert_eq!(o.contained_by(&p), p.contains(&o));
    }

    #[test]
    fn filter_equals_driver_side_scan(
        pts in points_strategy(120),
        (qx, qy, qw, qh) in ((-60.0f64..60.0), (-60.0f64..60.0), (1.0f64..60.0), (1.0f64..60.0)),
    ) {
        let ctx = Context::with_parallelism(3);
        let data: Vec<(STObject, usize)> = pts
            .iter()
            .enumerate()
            .map(|(i, &(x, y))| (STObject::point(x, y), i))
            .collect();
        let rdd = ctx.parallelize(data.clone(), 5).spatial();
        let query = STObject::new(Geometry::rect(qx, qy, qx + qw, qy + qh));

        for pred in [STPredicate::Intersects, STPredicate::ContainedBy,
                     STPredicate::within_distance(5.0)] {
            let mut got: Vec<usize> = rdd
                .filter(&query, pred)
                .collect()
                .into_iter()
                .map(|(_, i)| i)
                .collect();
            got.sort_unstable();
            let mut expect: Vec<usize> = data
                .iter()
                .filter(|(o, _)| pred.eval(o, &query))
                .map(|(_, i)| *i)
                .collect();
            expect.sort_unstable();
            prop_assert_eq!(got, expect, "predicate {}", pred);
        }
    }

    #[test]
    fn partitioners_are_total_and_extent_sound(
        pts in points_strategy(200),
        dims in 1usize..6,
        max_cost in 5usize..50,
    ) {
        let summary: Vec<(Envelope, Coord)> = pts
            .iter()
            .map(|&(x, y)| (Envelope::from_point(Coord::new(x, y)), Coord::new(x, y)))
            .collect();
        let partitioners: Vec<Arc<dyn SpatialPartitioner>> = vec![
            Arc::new(GridPartitioner::build(dims, &summary)),
            Arc::new(BspPartitioner::build(max_cost, 1.0, &summary)),
        ];
        for p in partitioners {
            for (env, c) in &summary {
                let id = p.partition_for_centroid(c);
                prop_assert!(id < p.num_partitions(), "{} out of range", p.name());
                prop_assert!(
                    p.cells()[id].extent.contains_envelope(env),
                    "{} extent must cover member", p.name()
                );
            }
        }
    }

    #[test]
    fn partitioned_filter_equals_unpartitioned(
        pts in points_strategy(150),
        dims in 1usize..5,
        (qx, qy) in ((-60.0f64..60.0), (-60.0f64..60.0)),
    ) {
        let ctx = Context::with_parallelism(3);
        let data: Vec<(STObject, usize)> = pts
            .iter()
            .enumerate()
            .map(|(i, &(x, y))| (STObject::point(x, y), i))
            .collect();
        let rdd = ctx.parallelize(data, 4).spatial();
        let query = STObject::new(Geometry::rect(qx, qy, qx + 30.0, qy + 30.0));

        let baseline = rdd.filter(&query, STPredicate::ContainedBy).count();
        let part = rdd.partition_by(Arc::new(GridPartitioner::build(dims, &rdd.summarize())));
        prop_assert_eq!(part.filter(&query, STPredicate::ContainedBy).count(), baseline);
        prop_assert_eq!(part.live_index(4).contained_by(&query).count(), baseline);
    }

    /// `SpatialRdd::knn` equals a sorted scan, and every indexed kNN
    /// path returns what it does, for point, linestring and
    /// polygon-with-hole foci over mixed data, under all three metrics:
    /// the live index, an `IncrementalIndex` with removed records (before
    /// and after `refresh`), and `knn_join` with the focus as its one
    /// left record.
    #[test]
    fn knn_matches_sorted_scan(
        shapes in proptest::collection::vec(shape_strategy(), 1..200),
        removed in proptest::collection::vec(0u8..4, 200..201),
        focus in shape_strategy(),
        frame in 0u8..3,
        k in 0usize..20,
        (parts, dims) in (1usize..4, 1usize..4),
    ) {
        // few partitions and cells, so trees hold more entries than a
        // search reads
        let ctx = Context::with_parallelism(3);
        let data: Vec<(STObject, usize)> =
            shapes.iter().enumerate().map(|(i, s)| (shape(frame, 2 - i % 3, *s), i)).collect();
        let rdd = ctx.parallelize(data.clone(), parts).spatial();
        let live = rdd.live_index(4);

        // half the records go in before a refresh and half after, so the
        // removals leave tombstones in trees and in the pending slots
        let mut incremental =
            IncrementalIndex::new(Arc::new(GridPartitioner::build(dims, &rdd.summarize())), 4);
        let (first, second) = data.split_at(data.len() / 2);
        incremental.insert_batch(first.to_vec());
        incremental.refresh();
        incremental.insert_batch(second.to_vec());
        let gone: Vec<(STObject, usize)> =
            data.iter().filter(|(_, i)| removed[*i] == 0).cloned().collect();
        prop_assert_eq!(incremental.remove_batch(&gone).removed, gone.len());
        let survivors: Vec<(STObject, usize)> =
            data.iter().filter(|(_, i)| removed[*i] != 0).cloned().collect();
        let survivors = ctx.parallelize(survivors, 4).spatial();

        let metrics = [DistanceFn::Euclidean, DistanceFn::Manhattan, DistanceFn::Haversine];
        for round in ["with pending slots and tombstones", "after refresh"] {
            for (kind, name) in ["point", "line", "polygon"].into_iter().enumerate() {
                let q = shape(frame, kind, focus);
                let left = ctx.parallelize(vec![(q.clone(), 0usize)], 1).spatial();
                for dist_fn in metrics {
                    let case = format!("{name} focus, {dist_fn:?}, k = {k}");
                    let want = rdd.knn(&q, k, dist_fn);
                    let mut scan: Vec<f64> =
                        data.iter().map(|(o, _)| o.distance(&q, dist_fn)).collect();
                    scan.sort_by(f64::total_cmp);
                    scan.truncate(k);
                    prop_assert_eq!(want.iter().map(|w| w.0).collect::<Vec<_>>(), scan);
                    let got = live.knn(&q, k, dist_fn);
                    assert_same_knn(&want, &got, &format!("live index, {case}"));
                    let got = left.knn_join(&rdd, k, dist_fn).collect().remove(0).1;
                    assert_same_knn(&want, &got, &format!("knn_join, {case}"));
                    let want = survivors.knn(&q, k, dist_fn);
                    let got = incremental.knn(&q, k, dist_fn);
                    assert_same_knn(&want, &got, &format!("incremental, {round}, {case}"));
                }
            }
            incremental.refresh();
        }
    }

    #[test]
    fn self_join_equals_reference(
        pts in points_strategy(60),
        dims in 1usize..4,
    ) {
        let ctx = Context::with_parallelism(3);
        let data: Vec<(STObject, usize)> = pts
            .iter()
            .enumerate()
            .map(|(i, &(x, y))| (STObject::point(x, y), i))
            .collect();
        let rdd = ctx.parallelize(data.clone(), 3).spatial();
        let pred = STPredicate::within_distance(10.0);

        let mut expect: Vec<(usize, usize)> = Vec::new();
        for (lo, li) in &data {
            for (ro, ri) in &data {
                if pred.eval(lo, ro) {
                    expect.push((*li, *ri));
                }
            }
        }
        expect.sort_unstable();

        let part = rdd.partition_by(Arc::new(GridPartitioner::build(dims, &rdd.summarize())));
        for cfg in [JoinConfig::nested_loop(), JoinConfig::live_index(4)] {
            let mut got: Vec<(usize, usize)> = part
                .self_join(pred, cfg)
                .collect()
                .into_iter()
                .map(|((_, a), (_, b))| (a, b))
                .collect();
            got.sort_unstable();
            prop_assert_eq!(&got, &expect);
        }
    }

    #[test]
    fn polar_queries_agree_with_pruning_on_and_off(
        pts in polar_points_strategy(100),
        dims in 2usize..6,
        (qlon, qlat) in ((-180.0f64..180.0), 85.0f64..90.0),
        radius_km in 10.0f64..2000.0,
        k in 1usize..8,
    ) {
        // withinDistance and kNN at |lat| > 85° must return the same
        // records whether partition pruning is active (spatially
        // partitioned + masked, live-indexed) or not (plain filter).
        // The old scalar planar bound turned polar longitude-degree
        // gaps into metres and pruned partitions that still matched.
        let ctx = Context::with_parallelism(3);
        let data: Vec<(STObject, usize)> = pts
            .iter()
            .enumerate()
            .map(|(i, &(lon, lat))| (STObject::point(lon, lat), i))
            .collect();
        let rdd = ctx.parallelize(data, 4).spatial();
        let q = STObject::point(qlon, qlat);
        let max_dist = radius_km * 1000.0;

        let ids = |r: stark::SpatialRdd<usize>| {
            let mut v: Vec<usize> = r.collect().into_iter().map(|(_, i)| i).collect();
            v.sort_unstable();
            v
        };
        let unpruned = ids(rdd.within_distance(&q, max_dist, DistanceFn::Haversine));
        let part = rdd.partition_by(Arc::new(GridPartitioner::build(dims, &rdd.summarize())));
        let pruned = ids(part.within_distance(&q, max_dist, DistanceFn::Haversine));
        prop_assert_eq!(&pruned, &unpruned, "mask pruning changed withinDistance results");

        let mut indexed: Vec<usize> = part
            .live_index(4)
            .within_distance(&q, max_dist, DistanceFn::Haversine)
            .collect()
            .into_iter()
            .map(|(_, i)| i)
            .collect();
        indexed.sort_unstable();
        prop_assert_eq!(&indexed, &unpruned, "live index changed withinDistance results");

        let k = k.min(pts.len());
        let plain_knn = rdd.knn(&q, k, DistanceFn::Haversine);
        let part_knn = part.knn(&q, k, DistanceFn::Haversine);
        let index_knn = part.live_index(4).knn(&q, k, DistanceFn::Haversine);
        prop_assert_eq!(plain_knn.len(), k);
        for (a, b) in plain_knn.iter().zip(&part_knn) {
            prop_assert!((a.0 - b.0).abs() < 1e-6, "partitioned kNN distance diverged");
        }
        for (a, b) in plain_knn.iter().zip(&index_knn) {
            prop_assert!((a.0 - b.0).abs() < 1e-6, "indexed kNN distance diverged");
        }
    }

    #[test]
    fn pruning_mask_is_sound(
        pts in points_strategy(150),
        dims in 2usize..6,
        (qx, qy, qs) in ((-60.0f64..60.0), (-60.0f64..60.0), (1.0f64..40.0)),
    ) {
        // Every element matching the predicate must live in an unmasked
        // partition — pruning may only remove non-matching partitions.
        let summary: Vec<(Envelope, Coord)> = pts
            .iter()
            .map(|&(x, y)| (Envelope::from_point(Coord::new(x, y)), Coord::new(x, y)))
            .collect();
        let grid = GridPartitioner::build(dims, &summary);
        let query = STObject::new(Geometry::rect(qx, qy, qx + qs, qy + qs));

        for pred in [STPredicate::Intersects, STPredicate::ContainedBy,
                     STPredicate::Contains, STPredicate::within_distance(3.0)] {
            for &(x, y) in &pts {
                let o = STObject::point(x, y);
                if pred.eval(&o, &query) {
                    let cell = &grid.cells()[grid.partition_of(&o)];
                    prop_assert!(
                        pred.partition_may_match(&cell.extent, &query),
                        "pruned a matching element under {}", pred
                    );
                }
            }
        }
    }
}
