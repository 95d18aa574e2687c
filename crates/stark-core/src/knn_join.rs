//! k-nearest-neighbour join: for every left record, the `k` nearest
//! right records. Rounds out the paper's kNN operator (§2.3) to the join
//! form shipped by later STARK versions.

use crate::knn::{knn, Source};
use crate::spatial_rdd::SpatialRdd;
use crate::stobject::STObject;
use stark_engine::{Data, Rdd, StoreData};
use stark_geo::DistanceFn;
use stark_index::{Entry, StrTree};

/// One kNN-join result row: the left record plus its nearest right
/// records, ascending by distance.
pub type KnnJoinRow<V, W> = ((STObject, V), Vec<(f64, (STObject, W))>);

impl<V: Data> SpatialRdd<V> {
    /// For each left record, finds its `k` nearest right records under
    /// `dist_fn`, as `(left, Vec<(distance, right)>)` rows with the
    /// neighbour list ascending by distance.
    ///
    /// Execution: every left partition is paired with every right
    /// partition (per left record, the crate's one best-first kNN search
    /// over an STR-tree of the right side), then
    /// per-left-record candidate lists are merged with a shuffle on the
    /// left record id. Exact for every geometry kind and metric.
    pub fn knn_join<W: StoreData>(
        &self,
        other: &SpatialRdd<W>,
        k: usize,
        dist_fn: DistanceFn,
    ) -> Rdd<KnnJoinRow<V, W>>
    where
        V: StoreData,
    {
        let left = self.rdd().zip_with_index().map(|(id, r)| (id, r)).cache();
        let right = other.rdd().cache();
        if k == 0 {
            return left.map(|(_, l)| (l, Vec::new()));
        }

        let ln = left.num_partitions();
        let rn = right.num_partitions();
        let mut pairs = Vec::with_capacity(ln * rn);
        for i in 0..ln {
            for j in 0..rn {
                pairs.push((i, j));
            }
        }

        // Per (left partition, right partition): local k nearest per left
        // record, keyed by the left record id for the merge shuffle.
        type Partial<V, W> = (u64, ((STObject, V), Vec<(f64, (STObject, W))>));
        let partials: Rdd<Partial<V, W>> =
            left.join_partition_pairs(&right, pairs, move |ldata, rdata| {
                let entries: Vec<Entry<usize>> = rdata
                    .iter()
                    .enumerate()
                    .map(|(i, (o, _))| Entry::new(o.envelope(), i))
                    .collect();
                let tree = StrTree::build(8, entries);
                ldata
                    .into_iter()
                    .map(|(id, (lo, lv))| {
                        let best = knn(&lo, k, dist_fn, [Source::tree(&tree)], |&i: &usize| {
                            Some((&rdata[i].0, i))
                        });
                        let best = best.into_iter().map(|(d, i)| (d, rdata[i].clone())).collect();
                        (id, ((lo, lv), best))
                    })
                    .collect()
            });

        // Merge the per-pair candidate lists by left id.
        partials.group_by_key((ln).max(1)).map(move |(_, groups)| {
            let mut iter = groups.into_iter();
            let (left_rec, mut merged) = iter.next().expect("at least one partial");
            for (_, more) in iter {
                merged.extend(more);
            }
            merged.sort_by(|a, b| a.0.total_cmp(&b.0));
            merged.truncate(k);
            (left_rec, merged)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spatial_rdd::SpatialRddExt;
    use stark_engine::Context;

    fn pts(ctx: &Context, coords: &[(f64, f64)], parts: usize) -> SpatialRdd<u32> {
        let data: Vec<(STObject, u32)> = coords
            .iter()
            .enumerate()
            .map(|(i, &(x, y))| (STObject::point(x, y), i as u32))
            .collect();
        ctx.parallelize(data, parts).spatial()
    }

    #[test]
    fn knn_join_matches_per_element_knn() {
        let ctx = Context::with_parallelism(4);
        let left_coords: Vec<(f64, f64)> =
            (0..40).map(|i| ((i % 8) as f64 * 3.0, (i / 8) as f64 * 3.0)).collect();
        let right_coords: Vec<(f64, f64)> =
            (0..60).map(|i| ((i % 10) as f64 * 2.5, (i / 10) as f64 * 2.5)).collect();
        let left = pts(&ctx, &left_coords, 5);
        let right = pts(&ctx, &right_coords, 7);

        let joined = left.knn_join(&right, 3, DistanceFn::Euclidean).collect();
        assert_eq!(joined.len(), 40);
        let right_data: Vec<(STObject, u32)> = right.collect();
        for ((lo, _), neighbors) in joined {
            assert_eq!(neighbors.len(), 3);
            assert!(neighbors.windows(2).all(|w| w[0].0 <= w[1].0));
            // compare distances against a scan
            let mut expect: Vec<f64> =
                right_data.iter().map(|(ro, _)| lo.distance(ro, DistanceFn::Euclidean)).collect();
            expect.sort_by(|a, b| a.partial_cmp(b).unwrap());
            for (got, want) in neighbors.iter().zip(expect.iter()) {
                assert!((got.0 - want).abs() < 1e-9, "{} vs {want}", got.0);
            }
        }
    }

    #[test]
    fn knn_join_with_a_polygon_left_record_is_exact() {
        // the polygon's centroid (50, 0.5) is nearest to the 40 points
        // at y = 10, but the polygon itself is nearest to (0, 2)
        let ctx = Context::with_parallelism(2);
        let mut coords: Vec<(f64, f64)> = (0..40).map(|i| (50.0 + i as f64 * 0.01, 10.0)).collect();
        coords.push((0.0, 2.0));
        let right = pts(&ctx, &coords, 1);
        let focus = STObject::from_wkt("POLYGON((0 0, 100 0, 100 1, 0 1, 0 0))").unwrap();
        let left = ctx.parallelize(vec![(focus, 0u32)], 1).spatial();
        let joined = left.knn_join(&right, 1, DistanceFn::Euclidean).collect();
        let ns = &joined[0].1;
        assert_eq!(ns.len(), 1);
        assert_eq!((ns[0].0, ns[0].1 .1), (1.0, 40));
    }

    #[test]
    fn knn_join_with_small_right_side() {
        let ctx = Context::with_parallelism(2);
        let left = pts(&ctx, &[(0.0, 0.0), (10.0, 10.0)], 2);
        let right = pts(&ctx, &[(1.0, 0.0)], 1);
        let joined = left.knn_join(&right, 5, DistanceFn::Euclidean).collect();
        assert_eq!(joined.len(), 2);
        for (_, ns) in joined {
            assert_eq!(ns.len(), 1, "only one right record exists");
        }
    }

    #[test]
    fn knn_join_k_zero() {
        let ctx = Context::with_parallelism(2);
        let left = pts(&ctx, &[(0.0, 0.0)], 1);
        let right = pts(&ctx, &[(1.0, 0.0)], 1);
        let joined = left.knn_join(&right, 0, DistanceFn::Euclidean).collect();
        assert_eq!(joined.len(), 1);
        assert!(joined[0].1.is_empty());
    }

    #[test]
    fn knn_join_manhattan_exhaustive_path() {
        let ctx = Context::with_parallelism(2);
        let left = pts(&ctx, &[(0.0, 0.0)], 1);
        let right = pts(&ctx, &[(1.0, 1.0), (3.0, 0.0), (0.0, 2.5)], 2);
        let joined = left.knn_join(&right, 2, DistanceFn::Manhattan).collect();
        let ns = &joined[0].1;
        assert_eq!(ns.len(), 2);
        assert!((ns[0].0 - 2.0).abs() < 1e-9); // (1,1) at L1 distance 2
        assert!((ns[1].0 - 2.5).abs() < 1e-9); // (0,2.5)
    }
}
