//! SpatialSpark-style joins (You, Zhang & Gruenwald, ICDEW'15 —
//! "Large-scale spatial join query processing in cloud"), reimplemented
//! on this engine.
//!
//! *Partitioned* join: both inputs are replicated to overlapping grid
//! tiles; each tile joins locally and reports a pair only when the pair's
//! **reference point** (the min-corner of the envelope intersection)
//! falls inside the tile — each pair is thus emitted by exactly one tile
//! and no dedup shuffle is needed.
//!
//! *Broadcast* join ("no partitioning"): the plain all-pairs evaluation
//! one would write directly on the engine, included for the paper's
//! "No Partitioning" bars.

use crate::scheme::RegionScheme;
use stark::join::{match_pairs, JoinSide};
use stark::{JoinIndexMode, STObject, STPredicate};
use stark_engine::{Rdd, StoreData};
use stark_geo::{Coord, Envelope};
use std::sync::Arc;

/// Reference point of a matched pair: the minimum corner of the
/// intersection of the two (probe-buffered) envelopes. Guaranteed to lie
/// in at least one tile both sides were replicated to.
fn reference_point(left_probe: &Envelope, right: &Envelope) -> Option<Coord> {
    left_probe.intersection(right).map(|i| Coord::new(i.min_x(), i.min_y()))
}

/// Tile index of a coordinate within the scheme; points outside every
/// tile map to the overflow partition. O(1) for grid schemes.
fn tile_of(scheme: &RegionScheme, c: &Coord) -> usize {
    scheme.locate(c)
}

/// SpatialSpark-style tile join with reference-point duplicate avoidance.
pub fn spatialspark_join<V: StoreData, W: StoreData>(
    left: &Rdd<(STObject, V)>,
    right: &Rdd<(STObject, W)>,
    scheme: &RegionScheme,
    pred: STPredicate,
    index_order: usize,
) -> Rdd<((STObject, V), (STObject, W))> {
    let scheme = Arc::new(scheme.clone());
    let num = scheme.num_partitions();
    let buffer = match pred {
        STPredicate::WithinDistance { max_dist, .. } => max_dist,
        _ => 0.0,
    };

    let s1 = scheme.clone();
    let left_placed = left
        .flat_map(move |(o, v)| {
            let env = o.envelope().buffered(buffer);
            s1.targets(&env).into_iter().map(|t| (t, (o.clone(), v.clone()))).collect::<Vec<_>>()
        })
        .partition_by(num, |(t, _)| *t)
        .map(|(_, r)| r);
    let s2 = scheme.clone();
    let right_placed = right
        .flat_map(move |(o, w)| {
            let env = o.envelope();
            s2.targets(&env).into_iter().map(|t| (t, (o.clone(), w.clone()))).collect::<Vec<_>>()
        })
        .partition_by(num, |(t, _)| *t)
        .map(|(_, r)| r);

    let s3 = scheme.clone();
    let index = JoinIndexMode::Live { order: index_order };
    let tiles = (0..num).map(|i| (i, i)).collect();
    left_placed.match_partition_pairs(&right_placed, tiles, move |tile, l, r, emit| {
        let (l, r) = (JoinSide::new(l, |x| &x.0), JoinSide::new(r, |x| &x.0));
        match_pairs(&pred, index, l, r, &mut |a, b| {
            // reference-point test: emit only in the owning tile
            let owns = reference_point(&pred.index_probe(&a.0), &b.0.envelope())
                .is_some_and(|rp| tile_of(&s3, &rp) == tile);
            if owns {
                emit(a, b);
            }
        })
    })
}

/// Broadcast/no-partitioning join: all partition pairs, nested loops, no
/// pruning — the baseline a plain engine user would write.
pub fn broadcast_join<V: StoreData, W: StoreData>(
    left: &Rdd<(STObject, V)>,
    right: &Rdd<(STObject, W)>,
    pred: STPredicate,
) -> Rdd<((STObject, V), (STObject, W))> {
    let ln = left.num_partitions();
    let rn = right.num_partitions();
    let mut pairs = Vec::with_capacity(ln * rn);
    for i in 0..ln {
        for j in 0..rn {
            pairs.push((i, j));
        }
    }
    let lc = left.cache();
    let rc = right.cache();
    lc.match_partition_pairs(&rc, pairs, move |_, l, r, emit| {
        let (l, r) = (JoinSide::new(l, |x| &x.0), JoinSide::new(r, |x| &x.0));
        match_pairs(&pred, JoinIndexMode::NoIndex, l, r, emit)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use stark_engine::Context;

    fn points(ctx: &Context, pts: &[(f64, f64)]) -> Rdd<(STObject, u32)> {
        let data: Vec<(STObject, u32)> =
            pts.iter().enumerate().map(|(i, &(x, y))| (STObject::point(x, y), i as u32)).collect();
        ctx.parallelize(data, 4)
    }

    fn ids(joined: Vec<((STObject, u32), (STObject, u32))>) -> Vec<(u32, u32)> {
        let mut out: Vec<(u32, u32)> = joined.into_iter().map(|((_, a), (_, b))| (a, b)).collect();
        out.sort_unstable();
        out
    }

    fn reference(a: &[(f64, f64)], b: &[(f64, f64)], pred: STPredicate) -> Vec<(u32, u32)> {
        let mut out = Vec::new();
        for (i, &(x1, y1)) in a.iter().enumerate() {
            for (j, &(x2, y2)) in b.iter().enumerate() {
                if pred.eval(&STObject::point(x1, y1), &STObject::point(x2, y2)) {
                    out.push((i as u32, j as u32));
                }
            }
        }
        out.sort_unstable();
        out
    }

    #[test]
    fn tile_join_matches_reference_without_dedup_shuffle() {
        let ctx = Context::with_parallelism(4);
        let pts: Vec<(f64, f64)> =
            (0..120).map(|i| (((i * 3) % 17) as f64, ((i * 7) % 13) as f64)).collect();
        let rdd = points(&ctx, &pts);
        let scheme = RegionScheme::grid(4, &Envelope::from_bounds(0.0, 0.0, 17.0, 13.0));
        let joined = spatialspark_join(&rdd, &rdd, &scheme, STPredicate::Intersects, 5);
        assert_eq!(ids(joined.collect()), reference(&pts, &pts, STPredicate::Intersects));
    }

    #[test]
    fn spanning_pairs_reported_exactly_once() {
        let ctx = Context::with_parallelism(2);
        let regions: Vec<(STObject, u32)> =
            vec![(STObject::from_wkt("POLYGON((2 2, 8 2, 8 8, 2 8, 2 2))").unwrap(), 0)];
        let pts: Vec<(STObject, u32)> = vec![(STObject::point(5.0, 5.0), 0)];
        let left = ctx.parallelize(regions, 1);
        let right = ctx.parallelize(pts, 1);
        let scheme = RegionScheme::grid(2, &Envelope::from_bounds(0.0, 0.0, 10.0, 10.0));
        let joined = spatialspark_join(&left, &right, &scheme, STPredicate::Intersects, 5);
        assert_eq!(joined.count(), 1, "reference point dedup must keep one copy");
    }

    #[test]
    fn distance_tile_join() {
        let ctx = Context::with_parallelism(2);
        let a = points(&ctx, &[(4.9, 5.0), (0.0, 0.0)]);
        let b = points(&ctx, &[(5.1, 5.0), (9.0, 9.0)]);
        let scheme = RegionScheme::grid(2, &Envelope::from_bounds(0.0, 0.0, 10.0, 10.0));
        let joined = spatialspark_join(&a, &b, &scheme, STPredicate::within_distance(2.0), 5);
        assert_eq!(ids(joined.collect()), vec![(0, 0)]);
    }

    #[test]
    fn broadcast_join_matches_reference() {
        let ctx = Context::with_parallelism(4);
        let pts: Vec<(f64, f64)> =
            (0..60).map(|i| (((i * 5) % 11) as f64, ((i * 3) % 7) as f64)).collect();
        let rdd = points(&ctx, &pts);
        let joined = broadcast_join(&rdd, &rdd, STPredicate::Intersects);
        assert_eq!(ids(joined.collect()), reference(&pts, &pts, STPredicate::Intersects));
    }

    #[test]
    fn out_of_scheme_points_still_join_via_overflow() {
        let ctx = Context::with_parallelism(2);
        // both points outside the grid → overflow partition joins them
        let a = points(&ctx, &[(100.0, 100.0)]);
        let b = points(&ctx, &[(100.0, 100.0)]);
        let scheme = RegionScheme::grid(2, &Envelope::from_bounds(0.0, 0.0, 10.0, 10.0));
        let joined = spatialspark_join(&a, &b, &scheme, STPredicate::Intersects, 5);
        assert_eq!(joined.count(), 1);
    }
}
