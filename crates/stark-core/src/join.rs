//! Spatio-temporal joins (paper §2.3).
//!
//! The join evaluates a predicate over pairs drawn from two datasets.
//! Execution follows STARK's partition-pair scheme: every pair of
//! partitions whose *extents* could satisfy the predicate becomes one
//! task; each pair is evaluated exactly once, so — unlike replication
//! based approaches — no duplicate elimination is needed.
//!
//! Within a task one matcher, [`match_pairs`], reports the matching
//! element pairs. With a live index it picks the algorithm per pair of
//! partitions: when both partitions' cached columnar sidecars are plain
//! points and the predicate is Euclidean `withinDistance`, an ε-grid
//! kernel over the centroid columns
//! ([`stark_geo::kernels::euclidean_grid_join`]);
//! otherwise an STR-tree over the right side. Both accept exactly the
//! same pairs. The matcher feeds two consumers: computing the joined
//! dataset clones the matched rows, while `count()` only sums matches
//! (see [`Rdd::match_partition_pairs`]).

use crate::columnar::ColumnarBatch;
use crate::predicate::STPredicate;
use crate::spatial_rdd::SpatialRdd;
use crate::stobject::STObject;
use stark_engine::{Data, Partition, Rdd, StoreData};
use stark_geo::kernels::euclidean_grid_join;
use stark_geo::{DistanceFn, Envelope};
use stark_index::{Entry, StrTree};

/// Per-task index mode for the join (paper §2.2's modes; persistent
/// indexes join through [`crate::IndexedSpatialRdd::filter`] instead).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JoinIndexMode {
    /// Nested-loop evaluation of each partition pair.
    NoIndex,
    /// Index the right side of each pair and probe it with every left
    /// element: an STR-tree of the given order, or — for Euclidean
    /// `withinDistance` between two all-point partitions — an ε-grid
    /// over the point columns, which ignores `order`.
    Live { order: usize },
}

/// Join configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JoinConfig {
    pub index: JoinIndexMode,
}

impl Default for JoinConfig {
    fn default() -> Self {
        JoinConfig { index: JoinIndexMode::Live { order: stark_index::DEFAULT_ORDER } }
    }
}

impl JoinConfig {
    pub fn nested_loop() -> Self {
        JoinConfig { index: JoinIndexMode::NoIndex }
    }
    pub fn live_index(order: usize) -> Self {
        JoinConfig { index: JoinIndexMode::Live { order } }
    }
}

/// Whether a partition pair with these extents can contain a matching
/// element pair under `pred`. Sound, possibly not tight.
fn pair_may_match(pred: &STPredicate, left: &Envelope, right: &Envelope) -> bool {
    if left.is_empty() || right.is_empty() {
        return false;
    }
    match pred {
        // intersects / contains / containedBy all require the element
        // MBRs to share a point, hence the extents must share one
        STPredicate::Intersects | STPredicate::Contains | STPredicate::ContainedBy => {
            left.intersects(right)
        }
        STPredicate::WithinDistance { max_dist, dist_fn } => {
            let (dx, dy) = left.axis_distances(right);
            dist_fn.lower_bound_from_axis_gaps(dx, dy) <= *max_dist
        }
    }
}

/// Extents of each engine partition (used when a side carries no spatial
/// partitioning metadata).
fn partition_extents<V: Data>(rdd: &Rdd<(STObject, V)>) -> Vec<Envelope> {
    rdd.run_partitions(|_, data| {
        let mut env = Envelope::empty();
        for (o, _) in &data {
            env.expand_to_include_envelope(&o.envelope());
        }
        env
    })
}

impl<V: Data> SpatialRdd<V> {
    /// Spatio-temporal join: all pairs `(l, r)` with `pred(l, r)` true.
    ///
    /// If this side is spatially partitioned and `other` is not, `other`
    /// is re-partitioned with the same partitioner first, so most
    /// partition pairs are pruned by their extents. Without partitioning
    /// the join degenerates to (pruned) all-pairs partition tasks —
    /// correct, just slower, exactly as in the paper's "No Partitioning"
    /// measurements.
    pub fn join<W: StoreData>(
        &self,
        other: &SpatialRdd<W>,
        pred: STPredicate,
        cfg: JoinConfig,
    ) -> Rdd<((STObject, V), (STObject, W))> {
        // Align the right side with the left's partitioner when possible.
        let aligned_right: SpatialRdd<W> = match (self.partitioning(), other.partitioning()) {
            (Some(info), None) => match &info.partitioner {
                Some(p) => other.partition_by(p.clone()),
                None => other.clone(),
            },
            _ => other.clone(),
        };

        let left_rdd = self.rdd().cache();
        let right_rdd = aligned_right.rdd().cache();

        let left_extents: Vec<Envelope> = match self.partitioning() {
            Some(info) => info.cells.iter().map(|c| c.extent).collect(),
            None => partition_extents(&left_rdd),
        };
        let right_extents: Vec<Envelope> = match aligned_right.partitioning() {
            Some(info) => info.cells.iter().map(|c| c.extent).collect(),
            None => partition_extents(&right_rdd),
        };

        let mut pairs = Vec::new();
        for (i, le) in left_extents.iter().enumerate() {
            for (j, re) in right_extents.iter().enumerate() {
                if pair_may_match(&pred, le, re) {
                    pairs.push((i, j));
                }
            }
        }

        let index = cfg.index;
        left_rdd.match_partition_pairs(&right_rdd, pairs, move |_, ldata, rdata, emit| {
            match_pairs(
                &pred,
                index,
                JoinSide::new(ldata, |r| &r.0),
                JoinSide::new(rdata, |r| &r.0),
                emit,
            )
        })
    }

    /// Self join, the paper's Figure 4 workload: all pairs `(a, b)` of
    /// records of this dataset with `pred(a, b)` true (including `a = b`).
    pub fn self_join(
        &self,
        pred: STPredicate,
        cfg: JoinConfig,
    ) -> Rdd<((STObject, V), (STObject, V))>
    where
        V: StoreData,
    {
        self.join(self, pred, cfg)
    }

    /// Distance join sugar: pairs within `max_dist` under `dist_fn`.
    pub fn distance_join<W: StoreData>(
        &self,
        other: &SpatialRdd<W>,
        max_dist: f64,
        dist_fn: DistanceFn,
        cfg: JoinConfig,
    ) -> Rdd<((STObject, V), (STObject, W))> {
        self.join(other, STPredicate::WithinDistance { max_dist, dist_fn }, cfg)
    }
}

/// One side of an in-partition join: a partition and where its rows
/// keep their [`STObject`] (`|r| &r.0` for `(STObject, V)` rows).
pub struct JoinSide<'a, T, G> {
    rows: &'a Partition<T>,
    geo: G,
}

impl<'a, T, G: Fn(&T) -> &STObject> JoinSide<'a, T, G> {
    /// `rows`, whose objects `geo` reads.
    pub fn new(rows: &'a Partition<T>, geo: G) -> Self {
        JoinSide { rows, geo }
    }

    /// The partition's columnar sidecar — the same cached
    /// [`ColumnarBatch`] the filters use, built on first use.
    fn columns(&self) -> std::sync::Arc<ColumnarBatch> {
        self.rows.to_columns(|rows| ColumnarBatch::from_objects(rows.iter().map(&self.geo)))
    }
}

/// The in-partition join matcher: calls `emit(l, r)` for every pair of
/// a left and a right row with `pred(l, r)`, each pair once.
///
/// * [`JoinIndexMode::NoIndex`]: a nested loop over
///   [`STPredicate::eval`].
/// * [`JoinIndexMode::Live`] with Euclidean `withinDistance` and both
///   sidecars [`all_points`](ColumnarBatch::all_points): the ε-grid
///   kernel over the centroid columns. It accepts a pair iff the right
///   point lies in the left point's `d`-buffered box and the distance
///   test holds — the tree probe's candidate test followed by the
///   predicate's own arithmetic, so both produce the same pairs.
/// * [`JoinIndexMode::Live`] otherwise: an STR-tree over the right
///   side, probed with [`STPredicate::index_probe`] and refined with
///   [`STPredicate::eval`].
pub fn match_pairs<L, R, GL, GR>(
    pred: &STPredicate,
    index: JoinIndexMode,
    left: JoinSide<'_, L, GL>,
    right: JoinSide<'_, R, GR>,
    emit: &mut dyn FnMut(&L, &R),
) where
    GL: Fn(&L) -> &STObject,
    GR: Fn(&R) -> &STObject,
{
    let (lrows, rrows) = (left.rows.as_slice(), right.rows.as_slice());
    if lrows.is_empty() || rrows.is_empty() {
        return;
    }
    let (lgeo, rgeo) = (&left.geo, &right.geo);
    let order = match index {
        JoinIndexMode::NoIndex => {
            for l in lrows {
                let lo = lgeo(l);
                for r in rrows {
                    if pred.eval(lo, rgeo(r)) {
                        emit(l, r);
                    }
                }
            }
            return;
        }
        JoinIndexMode::Live { order } => order,
    };
    if let STPredicate::WithinDistance { max_dist, dist_fn: DistanceFn::Euclidean } = *pred {
        let (lcols, rcols) = (left.columns(), right.columns());
        if lcols.all_points() && rcols.all_points() {
            let (lx, ly, rx, ry) = (lcols.cx(), lcols.cy(), rcols.cx(), rcols.cy());
            euclidean_grid_join(lx, ly, rx, ry, max_dist, |i, j| {
                emit(&lrows[lcols.payload_index(i)], &rrows[rcols.payload_index(j)])
            });
            return;
        }
    }
    let entries: Vec<Entry<usize>> =
        rrows.iter().enumerate().map(|(i, r)| Entry::new(rgeo(r).envelope(), i)).collect();
    let tree = StrTree::build(order, entries);
    for l in lrows {
        let lo = lgeo(l);
        tree.for_each_candidate(&pred.index_probe(lo), &mut |entry| {
            let r = &rrows[entry.item];
            if pred.eval(lo, rgeo(r)) {
                emit(l, r);
            }
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::partitioner::{BspPartitioner, GridPartitioner};
    use crate::spatial_rdd::SpatialRddExt;
    use stark_engine::Context;
    use std::sync::Arc;

    fn points(ctx: &Context, pts: &[(f64, f64)]) -> SpatialRdd<u32> {
        let data: Vec<(STObject, u32)> =
            pts.iter().enumerate().map(|(i, &(x, y))| (STObject::point(x, y), i as u32)).collect();
        ctx.parallelize(data, 4).spatial()
    }

    /// Reference nested-loop join over collected data.
    fn reference_join(
        a: &[(STObject, u32)],
        b: &[(STObject, u32)],
        pred: STPredicate,
    ) -> Vec<(u32, u32)> {
        let mut out = Vec::new();
        for (lo, lv) in a {
            for (ro, rv) in b {
                if pred.eval(lo, ro) {
                    out.push((*lv, *rv));
                }
            }
        }
        out.sort_unstable();
        out
    }

    fn ids(result: Vec<((STObject, u32), (STObject, u32))>) -> Vec<(u32, u32)> {
        let mut out: Vec<(u32, u32)> = result.into_iter().map(|((_, a), (_, b))| (a, b)).collect();
        out.sort_unstable();
        out
    }

    #[test]
    fn self_join_no_partitioning_matches_reference() {
        let ctx = Context::with_parallelism(4);
        // duplicated coordinates → non-trivial intersects self-join
        let pts = [(0.0, 0.0), (1.0, 1.0), (0.0, 0.0), (2.0, 2.0), (1.0, 1.0), (1.0, 1.0)];
        let rdd = points(&ctx, &pts);
        let expect = reference_join(&rdd.collect(), &rdd.collect(), STPredicate::Intersects);
        for cfg in [JoinConfig::nested_loop(), JoinConfig::live_index(4)] {
            let got = ids(rdd.self_join(STPredicate::Intersects, cfg).collect());
            assert_eq!(got, expect, "cfg {cfg:?}");
        }
    }

    #[test]
    fn partitioned_self_join_matches_unpartitioned() {
        let ctx = Context::with_parallelism(4);
        let pts: Vec<(f64, f64)> =
            (0..200).map(|i| (((i * 7) % 50) as f64 / 5.0, ((i * 13) % 50) as f64 / 5.0)).collect();
        let rdd = points(&ctx, &pts);
        let plain = ids(rdd.self_join(STPredicate::Intersects, JoinConfig::default()).collect());

        let grid = rdd.partition_by(Arc::new(GridPartitioner::build(4, &rdd.summarize())));
        let got_grid =
            ids(grid.self_join(STPredicate::Intersects, JoinConfig::default()).collect());
        assert_eq!(got_grid, plain);

        let bsp = rdd.partition_by(Arc::new(BspPartitioner::build(20, 0.5, &rdd.summarize())));
        let got_bsp = ids(bsp.self_join(STPredicate::Intersects, JoinConfig::default()).collect());
        assert_eq!(got_bsp, plain);
    }

    #[test]
    fn join_repartitions_unpartitioned_right_side() {
        let ctx = Context::with_parallelism(4);
        let left_pts: Vec<(f64, f64)> = (0..50).map(|i| (i as f64, i as f64)).collect();
        let right_pts: Vec<(f64, f64)> = (0..50).map(|i| (i as f64, i as f64)).collect();
        let left = points(&ctx, &left_pts).partition_by(Arc::new(GridPartitioner::build(
            3,
            &points(&ctx, &left_pts).summarize(),
        )));
        let right = points(&ctx, &right_pts);
        let got = ids(left.join(&right, STPredicate::Intersects, JoinConfig::default()).collect());
        // diagonal: each point matches exactly its twin
        let expect: Vec<(u32, u32)> = (0..50).map(|i| (i, i)).collect();
        assert_eq!(got, expect);
    }

    #[test]
    fn distance_join() {
        let ctx = Context::with_parallelism(4);
        let a = points(&ctx, &[(0.0, 0.0), (10.0, 0.0)]);
        let b = points(&ctx, &[(0.5, 0.0), (20.0, 0.0)]);
        let got =
            ids(a.distance_join(&b, 1.0, DistanceFn::Euclidean, JoinConfig::default()).collect());
        assert_eq!(got, vec![(0, 0)]);
    }

    #[test]
    fn contains_join_directional() {
        let ctx = Context::with_parallelism(2);
        let regions: Vec<(STObject, u32)> = vec![
            (STObject::from_wkt("POLYGON((0 0, 10 0, 10 10, 0 10, 0 0))").unwrap(), 0),
            (STObject::from_wkt("POLYGON((20 20, 30 20, 30 30, 20 30, 20 20))").unwrap(), 1),
        ];
        let pts: Vec<(STObject, u32)> = vec![
            (STObject::point(5.0, 5.0), 0),
            (STObject::point(25.0, 25.0), 1),
            (STObject::point(50.0, 50.0), 2),
        ];
        let regions = ctx.parallelize(regions, 2).spatial();
        let pts = ctx.parallelize(pts, 2).spatial();
        let got = ids(regions.join(&pts, STPredicate::Contains, JoinConfig::default()).collect());
        assert_eq!(got, vec![(0, 0), (1, 1)]);
        let rev =
            ids(pts.join(&regions, STPredicate::ContainedBy, JoinConfig::default()).collect());
        assert_eq!(rev, vec![(0, 0), (1, 1)]);
    }

    #[test]
    fn temporal_join_respects_time_rule() {
        let ctx = Context::with_parallelism(2);
        let a: Vec<(STObject, u32)> =
            vec![(STObject::point_at(0.0, 0.0, 10), 0), (STObject::point_at(0.0, 0.0, 99), 1)];
        let b: Vec<(STObject, u32)> = vec![(STObject::point_at(0.0, 0.0, 10), 0)];
        let a = ctx.parallelize(a, 1).spatial();
        let b = ctx.parallelize(b, 1).spatial();
        let got = ids(a.join(&b, STPredicate::Intersects, JoinConfig::default()).collect());
        assert_eq!(got, vec![(0, 0)], "same place, different instant must not join");
    }

    #[test]
    fn self_join_over_cached_data_reserves_it_once() {
        use stark_engine::EngineConfig;
        let ctx = Context::with_config(EngineConfig {
            parallelism: 2,
            memory_budget: Some(1 << 30),
            ..EngineConfig::default()
        });
        let data: Vec<(STObject, u32)> =
            (0..200).map(|i| (STObject::point((i % 20) as f64, (i / 20) as f64), i)).collect();
        let bytes = (data.len() * std::mem::size_of::<(STObject, u32)>()) as u64;
        let cached = ctx.parallelize(data, 4).cache();
        cached.count();
        assert_eq!(ctx.metrics().bytes_reserved_peak, bytes);
        let pred = STPredicate::within_distance(1.0);
        let n = cached.spatial().self_join(pred, JoinConfig::default()).count();
        assert_eq!(n, 200 + 2 * (19 * 10 + 9 * 20), "itself plus its lattice neighbours");
        assert_eq!(ctx.metrics().bytes_reserved_peak, bytes, "join must not re-cache its input");
    }

    #[test]
    fn partition_pair_pruning_reduces_tasks() {
        let ctx = Context::with_parallelism(4);
        // two well-separated clusters
        let mut pts = Vec::new();
        for i in 0..100 {
            pts.push(((i % 10) as f64 * 0.1, (i / 10) as f64 * 0.1));
        }
        for i in 0..100 {
            pts.push((1000.0 + (i % 10) as f64 * 0.1, 1000.0 + (i / 10) as f64 * 0.1));
        }
        let rdd = points(&ctx, &pts);
        let part = rdd.partition_by(Arc::new(GridPartitioner::build(4, &rdd.summarize())));
        let joined = part.self_join(STPredicate::Intersects, JoinConfig::default());
        // far fewer than 16×16 candidate pairs survive extent pruning
        assert!(joined.num_partitions() < 50, "pairs: {}", joined.num_partitions());
        assert_eq!(joined.count(), 200, "each point matches only itself");
    }
}
