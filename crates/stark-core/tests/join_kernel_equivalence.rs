//! Differential suite for the in-partition join matcher.
//!
//! Under a live index, a Euclidean `withinDistance` join between two
//! all-point partitions runs the ε-grid kernel instead of the STR-tree.
//! The kernel must report exactly the tree's pairs, and both must agree
//! with the nested loop; a counted join (which never builds its pairs)
//! must count what `collect` returns, for every [`JoinConfig`].
//!
//! Coordinates and cutoffs are dyadic (multiples of 1/8, or of a power
//! of two for tiny cutoffs), so every coordinate difference is exact and
//! the nested loop's bare distance test agrees with the tree's
//! box-then-distance test even on pairs sitting exactly at the cutoff.
//! The kernel-vs-tree property additionally runs on arbitrary floats,
//! where only those two are required to agree.

use proptest::prelude::*;
use stark::join::{match_pairs, JoinSide};
use stark::{
    ColumnarBatch, GridPartitioner, JoinConfig, JoinIndexMode, STObject, STPredicate, SpatialRdd,
    SpatialRddExt,
};
use stark_engine::{Context, Partition};
use stark_geo::Geometry;
use stark_index::{Entry, StrTree};
use std::sync::Arc;

type Row = (STObject, u32);

const CONFIGS: [JoinConfig; 4] = [
    JoinConfig { index: JoinIndexMode::NoIndex },
    JoinConfig { index: JoinIndexMode::Live { order: 2 } },
    JoinConfig { index: JoinIndexMode::Live { order: stark_index::DEFAULT_ORDER } },
    JoinConfig { index: JoinIndexMode::Live { order: 16 } },
];

fn rows(objects: Vec<STObject>) -> Vec<Row> {
    objects.into_iter().enumerate().map(|(i, o)| (o, i as u32)).collect()
}

fn points(coords: &[(f64, f64)]) -> Vec<Row> {
    rows(coords.iter().map(|&(x, y)| STObject::point(x, y)).collect())
}

/// Sorted `(left id, right id)` pairs the matcher reports for one
/// partition pair under `index`.
fn matcher_ids(pred: STPredicate, index: JoinIndexMode, l: &[Row], r: &[Row]) -> Vec<(u32, u32)> {
    let (l, r) = (Partition::from_vec(l.to_vec()), Partition::from_vec(r.to_vec()));
    let mut out = Vec::new();
    let (ls, rs) = (JoinSide::new(&l, |x| &x.0), JoinSide::new(&r, |x| &x.0));
    match_pairs(&pred, index, ls, rs, &mut |a, b| out.push((a.1, b.1)));
    out.sort_unstable();
    out
}

/// The STR-tree path, spelled out: bulk-load the right side, probe with
/// each left row's `index_probe`, refine with `eval`.
fn tree_ids(pred: STPredicate, l: &[Row], r: &[Row]) -> Vec<(u32, u32)> {
    let entries: Vec<Entry<usize>> =
        r.iter().enumerate().map(|(i, (o, _))| Entry::new(o.envelope(), i)).collect();
    let tree = StrTree::build(stark_index::DEFAULT_ORDER, entries);
    let mut out = Vec::new();
    for (lo, lid) in l {
        tree.for_each_candidate(&pred.index_probe(lo), &mut |e| {
            let (ro, rid) = &r[e.item];
            if pred.eval(lo, ro) {
                out.push((*lid, *rid));
            }
        });
    }
    out.sort_unstable();
    out
}

/// Grid, tree and nested loop on one partition pair of plain points.
fn assert_paths_agree(pred: STPredicate, l: &[Row], r: &[Row]) {
    prop_assert!(ColumnarBatch::build(l).all_points() && ColumnarBatch::build(r).all_points());
    let live = JoinIndexMode::Live { order: stark_index::DEFAULT_ORDER };
    let grid = matcher_ids(pred, live, l, r);
    prop_assert_eq!(&grid, &tree_ids(pred, l, r), "grid vs tree");
    prop_assert_eq!(&grid, &matcher_ids(pred, JoinIndexMode::NoIndex, l, r), "grid vs nested");
}

/// Every config through the engine: the same sorted pairs as the
/// nested-loop reference over all rows, and a count equal to the
/// collected length.
fn assert_configs_agree(left: &SpatialRdd<u32>, right: &SpatialRdd<u32>, pred: STPredicate) {
    let (all_l, all_r) = (left.collect(), right.collect());
    let mut expect = Vec::new();
    for (lo, lid) in &all_l {
        for (ro, rid) in &all_r {
            if pred.eval(lo, ro) {
                expect.push((*lid, *rid));
            }
        }
    }
    expect.sort_unstable();
    for cfg in CONFIGS {
        let joined = left.join(right, pred, cfg);
        let collected = joined.collect();
        prop_assert_eq!(joined.count(), collected.len(), "count vs collect, {:?}", cfg);
        let mut ids: Vec<(u32, u32)> = collected.iter().map(|((_, a), (_, b))| (*a, *b)).collect();
        ids.sort_unstable();
        prop_assert_eq!(&ids, &expect, "{:?}", cfg);
    }
}

fn grid_partitioned(ctx: &Context, data: Vec<Row>, dims: usize) -> SpatialRdd<u32> {
    let plain = ctx.parallelize(data, 3).spatial();
    plain.partition_by(Arc::new(GridPartitioner::build(dims, &plain.summarize())))
}

/// Dyadic coordinates around `base` (0 or ±1e6), in steps of 1/8.
fn dyadic_points(max: usize) -> impl Strategy<Value = Vec<(f64, f64)>> {
    (
        prop_oneof![Just(0.0), Just(1e6), Just(-1e6)],
        proptest::collection::vec((-48i32..48, -48i32..48), 0..max),
    )
        .prop_map(|(base, v)| {
            v.into_iter().map(|(i, j)| (base + i as f64 / 8.0, base + j as f64 / 8.0)).collect()
        })
}

/// Cutoffs: zero, tiny, on the lattice steps, and beyond the extent.
fn cutoff() -> impl Strategy<Value = f64> {
    prop_oneof![Just(0.0), Just(2f64.powi(-30)), Just(0.125), Just(0.5), Just(1.0), Just(1e9)]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn grid_tree_and_nested_loop_agree(
        l in dyadic_points(80),
        r in dyadic_points(80),
        d in cutoff(),
        dup in 0usize..4,
    ) {
        let (mut l, r) = (points(&l), points(&r));
        // duplicate points
        let copies: Vec<Row> = l.iter().take(dup).cloned().collect();
        l.extend(copies);
        assert_paths_agree(STPredicate::within_distance(d), &l, &r);
        assert_paths_agree(STPredicate::within_distance(d), &l, &l);
    }

    #[test]
    fn grid_matches_tree_on_arbitrary_floats(
        l in proptest::collection::vec((-4.0f64..4.0, -4.0f64..4.0), 0..60),
        r in proptest::collection::vec((-4.0f64..4.0, -4.0f64..4.0), 0..60),
        base in prop_oneof![Just(0.0), -1e6f64..1e6],
        d in 0.0f64..3.0,
    ) {
        let shift = |v: Vec<(f64, f64)>| -> Vec<Row> {
            points(&v.into_iter().map(|(x, y)| (base + x, base - y)).collect::<Vec<_>>())
        };
        let (l, r) = (shift(l), shift(r));
        let pred = STPredicate::within_distance(d);
        let live = JoinIndexMode::Live { order: 4 };
        prop_assert_eq!(matcher_ids(pred, live, &l, &r), tree_ids(pred, &l, &r));
    }

    #[test]
    fn every_config_agrees_and_counts_what_it_collects(
        l in dyadic_points(60),
        r in dyadic_points(60),
        d in cutoff(),
        dims in 1usize..4,
    ) {
        let ctx = Context::with_parallelism(2);
        let pred = STPredicate::within_distance(d);
        let left = grid_partitioned(&ctx, points(&l), dims);
        assert_configs_agree(&left, &left, pred);
        // an unpartitioned right side is repartitioned onto the left's cells
        assert_configs_agree(&left, &ctx.parallelize(points(&r), 2).spatial(), pred);
    }

    #[test]
    fn mixed_point_polygon_partitions_fall_back(
        pts in dyadic_points(50),
        rects in proptest::collection::vec((-40i32..40, -40i32..40, 1i32..16, 1i32..16), 1..10),
        d in cutoff(),
        partitioned in any::<bool>(),
    ) {
        let mut objects: Vec<STObject> =
            pts.iter().map(|&(x, y)| STObject::point(x, y)).collect();
        let base = pts.first().map_or(0.0, |p| (p.0 / 1e6).round() * 1e6);
        for (x, y, w, h) in rects {
            let (x, y) = (base + x as f64 / 8.0, base + y as f64 / 8.0);
            let (w, h) = (w as f64 / 8.0, h as f64 / 8.0);
            objects.push(STObject::new(Geometry::rect(x, y, x + w, y + h)));
        }
        let data = rows(objects);
        prop_assert!(!ColumnarBatch::build(&data).all_points());
        let ctx = Context::with_parallelism(2);
        let srdd = if partitioned {
            grid_partitioned(&ctx, data, 2)
        } else {
            ctx.parallelize(data, 3).spatial()
        };
        assert_configs_agree(&srdd, &srdd, STPredicate::within_distance(d));
    }

    #[test]
    fn nan_centroids_unpartitioned(
        pts in dyadic_points(50),
        nan_at in proptest::collection::vec(0usize..1000, 1..4),
        d in cutoff(),
    ) {
        let mut coords = pts;
        for at in &nan_at {
            let i = at % (coords.len() + 1);
            coords.insert(i, (f64::NAN, 1.0));
        }
        let data = points(&coords);
        prop_assert!(!ColumnarBatch::build(&data).all_points());
        let ctx = Context::with_parallelism(2);
        let srdd = ctx.parallelize(data, 3).spatial();
        assert_configs_agree(&srdd, &srdd, STPredicate::within_distance(d));
    }
}

/// A lattice spaced exactly `d`: every axis neighbour sits at distance
/// `d` and must join, every diagonal neighbour must not.
#[test]
fn lattice_neighbours_at_the_cutoff_join() {
    let d = 0.25;
    let coords: Vec<(f64, f64)> =
        (0..12).flat_map(|i| (0..12).map(move |j| (i as f64 * d, j as f64 * d))).collect();
    let data = points(&coords);
    let ctx = Context::with_parallelism(2);
    let srdd = grid_partitioned(&ctx, data.clone(), 3);
    let pred = STPredicate::within_distance(d);
    // self + 4 neighbours, minus the missing ones on the border
    let expect = 144 + 4 * 12 * 11;
    for cfg in CONFIGS {
        assert_eq!(srdd.self_join(pred, cfg).count(), expect, "{cfg:?}");
    }
    let live = JoinIndexMode::Live { order: 4 };
    assert_eq!(matcher_ids(pred, live, &data, &data), tree_ids(pred, &data, &data));
}
