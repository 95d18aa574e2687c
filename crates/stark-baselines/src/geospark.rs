//! GeoSpark-style spatial join (You, Zhang & Gruenwald's and Yu, Wu &
//! Sarwat's published strategy, reimplemented on this engine).
//!
//! Both inputs are *replicated* into every partition whose region their
//! MBR overlaps; partitions are joined pairwise-aligned; because a pair
//! of geometries can co-occur in several partitions, the raw result
//! contains duplicates that must be eliminated with an extra shuffle.
//! The paper's §3 notes GeoSpark returned *varying result counts* across
//! repetitions for two partitioners — the `dedup: false` switch
//! reproduces that buggy behaviour.

use crate::scheme::RegionScheme;
use stark::join::{match_pairs, JoinSide};
use stark::{JoinIndexMode, STObject, STPredicate};
use stark_engine::{Rdd, StoreData};
use std::sync::Arc;

/// Configuration for the GeoSpark-style join.
#[derive(Debug, Clone, Copy)]
pub struct GeoSparkConfig {
    /// STR-tree order for the per-partition index.
    pub index_order: usize,
    /// Whether to run the duplicate-elimination shuffle. `false`
    /// reproduces the duplicate-results bug observed in the paper.
    pub dedup: bool,
}

impl Default for GeoSparkConfig {
    fn default() -> Self {
        GeoSparkConfig { index_order: stark_index::DEFAULT_ORDER, dedup: true }
    }
}

/// A joined pair: `(id, object, value)` from each side, where ids are
/// dataset-wide indexes assigned internally.
pub type GeoSparkPair<V, W> = ((u64, STObject, V), (u64, STObject, W));

/// GeoSpark-style join: returns matched record pairs tagged with their
/// dataset-wide ids.
pub fn geospark_join<V: StoreData, W: StoreData>(
    left: &Rdd<(STObject, V)>,
    right: &Rdd<(STObject, W)>,
    scheme: &RegionScheme,
    pred: STPredicate,
    cfg: GeoSparkConfig,
) -> Rdd<GeoSparkPair<V, W>> {
    let scheme = Arc::new(scheme.clone());
    let num = scheme.num_partitions();

    // 1. Tag with global ids (extra count job — an inherent cost of the
    //    replicate-then-dedup design) and replicate to overlapping
    //    regions. For distance predicates the probe side is buffered.
    let buffer = match pred {
        STPredicate::WithinDistance { max_dist, .. } => max_dist,
        _ => 0.0,
    };
    let s1 = scheme.clone();
    let left_rep = left.zip_with_index().flat_map(move |(id, (o, v))| {
        let env = o.envelope().buffered(buffer);
        s1.targets(&env).into_iter().map(|t| (t, (id, o.clone(), v.clone()))).collect::<Vec<_>>()
    });
    let s2 = scheme.clone();
    let right_rep = right.zip_with_index().flat_map(move |(id, (o, w))| {
        let env = o.envelope();
        s2.targets(&env).into_iter().map(|t| (t, (id, o.clone(), w.clone()))).collect::<Vec<_>>()
    });

    let left_placed = left_rep.partition_by(num, |(t, _)| *t).map(|(_, r)| r);
    let right_placed = right_rep.partition_by(num, |(t, _)| *t).map(|(_, r)| r);

    // 2. Partition-aligned local join with a live index on the right,
    //    through the same in-partition matcher STARK's join runs.
    let index = JoinIndexMode::Live { order: cfg.index_order };
    let aligned = (0..num).map(|i| (i, i)).collect();
    let joined = left_placed.match_partition_pairs(&right_placed, aligned, move |_, l, r, emit| {
        match_pairs(&pred, index, JoinSide::new(l, |x| &x.1), JoinSide::new(r, |x| &x.1), emit)
    });

    if !cfg.dedup {
        return joined;
    }

    // 3. Duplicate elimination: shuffle on the id pair, keep one copy.
    joined.map(|(l, r)| ((l.0, r.0), (l, r))).reduce_by_key(num, |a, _b| a).map(|(_, pair)| pair)
}

/// Result pairs projected to `(left_id, right_id)`, sorted — convenient
/// for correctness comparisons.
pub fn id_pairs<V: StoreData, W: StoreData>(joined: &Rdd<GeoSparkPair<V, W>>) -> Vec<(u64, u64)> {
    let mut out: Vec<(u64, u64)> =
        joined.collect().into_iter().map(|((a, _, _), (b, _, _))| (a, b)).collect();
    out.sort_unstable();
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use stark_engine::Context;
    use stark_geo::{Coord, Envelope};

    fn points(ctx: &Context, pts: &[(f64, f64)]) -> Rdd<(STObject, u32)> {
        let data: Vec<(STObject, u32)> =
            pts.iter().enumerate().map(|(i, &(x, y))| (STObject::point(x, y), i as u32)).collect();
        ctx.parallelize(data, 4)
    }

    fn reference(a: &[(f64, f64)], b: &[(f64, f64)], pred: STPredicate) -> Vec<(u64, u64)> {
        let mut out = Vec::new();
        for (i, &(x1, y1)) in a.iter().enumerate() {
            for (j, &(x2, y2)) in b.iter().enumerate() {
                if pred.eval(&STObject::point(x1, y1), &STObject::point(x2, y2)) {
                    out.push((i as u64, j as u64));
                }
            }
        }
        out.sort_unstable();
        out
    }

    #[test]
    fn join_matches_reference_with_dedup() {
        let ctx = Context::with_parallelism(4);
        let pts: Vec<(f64, f64)> =
            (0..100).map(|i| (((i * 3) % 17) as f64, ((i * 7) % 13) as f64)).collect();
        let rdd = points(&ctx, &pts);
        let scheme = RegionScheme::grid(4, &Envelope::from_bounds(0.0, 0.0, 17.0, 13.0));
        let joined =
            geospark_join(&rdd, &rdd, &scheme, STPredicate::Intersects, GeoSparkConfig::default());
        assert_eq!(id_pairs(&joined), reference(&pts, &pts, STPredicate::Intersects));
    }

    #[test]
    fn voronoi_scheme_join_matches_reference() {
        let ctx = Context::with_parallelism(4);
        let pts: Vec<(f64, f64)> =
            (0..80).map(|i| (((i * 5) % 23) as f64, ((i * 11) % 19) as f64)).collect();
        let rdd = points(&ctx, &pts);
        let sample: Vec<Coord> = pts.iter().map(|&(x, y)| Coord::new(x, y)).collect();
        let scheme = RegionScheme::voronoi(6, &sample, 7);
        let joined =
            geospark_join(&rdd, &rdd, &scheme, STPredicate::Intersects, GeoSparkConfig::default());
        assert_eq!(id_pairs(&joined), reference(&pts, &pts, STPredicate::Intersects));
    }

    #[test]
    fn without_dedup_duplicates_appear_for_spanning_objects() {
        let ctx = Context::with_parallelism(2);
        // a region spanning all four tiles joined with a point inside it
        let regions: Vec<(STObject, u32)> =
            vec![(STObject::from_wkt("POLYGON((2 2, 8 2, 8 8, 2 8, 2 2))").unwrap(), 0)];
        let pts: Vec<(STObject, u32)> = vec![(STObject::point(5.0, 5.0), 0)];
        let left = ctx.parallelize(regions, 1);
        let right = ctx.parallelize(pts, 1);
        let scheme = RegionScheme::grid(2, &Envelope::from_bounds(0.0, 0.0, 10.0, 10.0));

        let buggy = geospark_join(
            &left,
            &right,
            &scheme,
            STPredicate::Intersects,
            GeoSparkConfig { dedup: false, ..Default::default() },
        );
        // the point (5,5) sits on the corner of all 4 tiles, the polygon
        // overlaps all 4 → the pair is reported multiple times
        assert!(buggy.count() > 1, "expected duplicates, got {}", buggy.count());

        let fixed = geospark_join(
            &left,
            &right,
            &scheme,
            STPredicate::Intersects,
            GeoSparkConfig::default(),
        );
        assert_eq!(fixed.count(), 1);
    }

    #[test]
    fn distance_join_buffers_probe_side() {
        let ctx = Context::with_parallelism(2);
        // points in different tiles but within distance 2
        let a = points(&ctx, &[(4.9, 5.0)]);
        let b = points(&ctx, &[(5.1, 5.0)]);
        let scheme = RegionScheme::grid(2, &Envelope::from_bounds(0.0, 0.0, 10.0, 10.0));
        let joined = geospark_join(
            &a,
            &b,
            &scheme,
            STPredicate::within_distance(2.0),
            GeoSparkConfig::default(),
        );
        assert_eq!(id_pairs(&joined), vec![(0, 0)]);
    }
}
