//! Spatio-temporal operations on pair datasets keyed by [`STObject`].
//!
//! This is the reproduction of STARK's `SpatialRDDFunctions` (paper §2.3):
//! in Scala an implicit conversion adds the operators to any
//! `RDD[(STObject, V)]`; here the [`SpatialRddExt`] extension trait plays
//! that role — `use stark::SpatialRddExt` and every `Rdd<(STObject, V)>`
//! gains `.intersects(..)`, `.contained_by(..)`, `.knn(..)` and friends.

use crate::columnar::ColumnarBatch;
use crate::partitioner::{PartitionCell, SpatialPartitioner};
use crate::predicate::STPredicate;
use crate::stobject::STObject;
use crate::temporal::TemporalExtent;
use stark_engine::{Context, Data, Partition, Rdd, StoreData};
use stark_geo::kernels::SelectionBitmap;
use stark_geo::{DistanceFn, Envelope};
use std::sync::{Arc, OnceLock};

/// Partitioning metadata carried alongside a spatially partitioned
/// dataset: the partitioner (when available) plus the *fitted* cells —
/// bounds from the partitioner, extents recomputed from the actual
/// partition contents so pruning is always sound.
pub struct PartitioningInfo {
    /// The partitioner used to place records, when known. Loaded
    /// persistent indexes carry cells but no partitioner.
    pub partitioner: Option<Arc<dyn SpatialPartitioner>>,
    /// One cell per partition, extents fitted to the real contents.
    pub cells: Vec<PartitionCell>,
    /// Per-partition temporal extents (same order as `cells`). The
    /// temporal extension of §2.1's extent mechanism: filters with timed
    /// queries also prune on the time axis.
    pub time_extents: Vec<TemporalExtent>,
}

impl PartitioningInfo {
    /// Builds the partition mask for a filter with the given predicate:
    /// `true` = partition must be scanned. Combines the spatial extent
    /// test with the temporal one when temporal extents are available.
    pub fn mask_for(&self, pred: &STPredicate, query: &STObject) -> Vec<bool> {
        self.cells
            .iter()
            .enumerate()
            .map(|(i, c)| {
                if !pred.partition_may_match(&c.extent, query) {
                    return false;
                }
                match self.time_extents.get(i) {
                    Some(te) => pred.partition_may_match_temporal(te, query),
                    None => true,
                }
            })
            .collect()
    }
}

/// A dataset of `(STObject, V)` pairs with optional spatial partitioning.
///
/// [`filter`](SpatialRdd::filter) does not lower to a row-at-a-time
/// `Rdd::filter`: predicates queue in `pending` and the whole chain
/// lowers lazily into **one** `ColumnarFilter[..]` operator that builds
/// (or reuses) the partition's [`ColumnarBatch`] and narrows a single
/// [`SelectionBitmap`] across all predicates — filter→filter chains
/// evaluate without re-materialising rows in between, with results
/// byte-identical to evaluating each predicate row by row. The node has
/// two consumers of that one evaluation: `count()` sums the bitmap's
/// bits per task and clones no row, and computing a partition gathers
/// the selected rows.
pub struct SpatialRdd<V: Data> {
    base: Rdd<(STObject, V)>,
    partitioning: Option<Arc<PartitioningInfo>>,
    /// Filter predicates queued for fused columnar evaluation.
    pending: Vec<(STPredicate, STObject)>,
    /// AND of the partition-pruning masks of all pending filters.
    pending_mask: Option<Vec<bool>>,
    /// Lazily lowered dataset (`base` + pending chain), built at most once.
    resolved: OnceLock<Rdd<(STObject, V)>>,
}

impl<V: Data> Clone for SpatialRdd<V> {
    fn clone(&self) -> Self {
        SpatialRdd {
            base: self.base.clone(),
            partitioning: self.partitioning.clone(),
            pending: self.pending.clone(),
            pending_mask: self.pending_mask.clone(),
            resolved: self.resolved.clone(),
        }
    }
}

/// Adds the spatio-temporal operators to any `Rdd<(STObject, V)>`,
/// mirroring STARK's implicit conversion.
pub trait SpatialRddExt<V: Data> {
    /// Wraps the dataset for spatio-temporal processing (no shuffle).
    fn spatial(&self) -> SpatialRdd<V>;

    /// Shorthand: `spatial().filter(query, Intersects)`.
    fn intersects(&self, query: &STObject) -> SpatialRdd<V>;
    /// Shorthand: `spatial().filter(query, Contains)`.
    fn contains(&self, query: &STObject) -> SpatialRdd<V>;
    /// Shorthand: `spatial().filter(query, ContainedBy)`.
    fn contained_by(&self, query: &STObject) -> SpatialRdd<V>;
}

impl<V: Data> SpatialRddExt<V> for Rdd<(STObject, V)> {
    fn spatial(&self) -> SpatialRdd<V> {
        SpatialRdd::with_info(self.clone(), None)
    }
    fn intersects(&self, query: &STObject) -> SpatialRdd<V> {
        self.spatial().filter(query, STPredicate::Intersects)
    }
    fn contains(&self, query: &STObject) -> SpatialRdd<V> {
        self.spatial().filter(query, STPredicate::Contains)
    }
    fn contained_by(&self, query: &STObject) -> SpatialRdd<V> {
        self.spatial().filter(query, STPredicate::ContainedBy)
    }
}

/// The one evaluation of a lowered filter chain over one partition:
/// builds (or reuses) the partition's [`ColumnarBatch`] and narrows one
/// [`SelectionBitmap`] across every predicate, refining undecided lanes
/// row by row. Both consumers of the `ColumnarFilter[..]` node call it.
fn select_chain<V: Data>(
    ctx: &Context,
    chain: &[(STPredicate, STObject)],
    part: &Partition<(STObject, V)>,
) -> (Arc<ColumnarBatch>, SelectionBitmap) {
    let rows = part.as_slice();
    let batch = part.to_columns(|rows| {
        ctx.note_columnar_batch_built();
        ColumnarBatch::build(rows)
    });
    let mut sel = SelectionBitmap::all_set(batch.len());
    for (pred, query) in chain {
        let live = sel.count();
        if live == 0 {
            break;
        }
        ctx.note_rows_scanned_columnar(live as u64);
        batch.apply_filter(pred, query, &mut sel, |i| pred.eval(&rows[i].0, query));
    }
    (batch, sel)
}

impl<V: Data> SpatialRdd<V> {
    /// Internal constructor preserving partitioning metadata across
    /// structure-preserving transformations.
    pub(crate) fn with_info(
        rdd: Rdd<(STObject, V)>,
        partitioning: Option<Arc<PartitioningInfo>>,
    ) -> Self {
        SpatialRdd {
            base: rdd,
            partitioning,
            pending: Vec::new(),
            pending_mask: None,
            resolved: OnceLock::new(),
        }
    }

    /// The underlying engine dataset. Lowers any pending columnar filter
    /// chain first (lazily, at most once per handle).
    pub fn rdd(&self) -> &Rdd<(STObject, V)> {
        self.resolved.get_or_init(|| self.lower())
    }

    /// Lowers `base` + the pending predicate chain into an engine
    /// dataset: one partition-mask stage (pruning metric included) and
    /// one counted `ColumnarFilter[..]` operator evaluating the whole
    /// chain over the partition's cached [`ColumnarBatch`].
    fn lower(&self) -> Rdd<(STObject, V)> {
        if self.pending.is_empty() {
            return self.base.clone();
        }
        let masked = match &self.pending_mask {
            Some(mask) => self.base.with_partition_mask(mask.clone()),
            None => self.base.clone(),
        };
        let ctx = self.base.context().clone();
        let chain: Arc<[(STPredicate, STObject)]> = self.pending.clone().into();
        let label = format!(
            "ColumnarFilter[{}]",
            chain.iter().map(|(p, _)| p.to_string()).collect::<Vec<_>>().join("→")
        );
        let (count_ctx, count_chain) = (ctx.clone(), chain.clone());
        masked.map_partition_handles(
            label,
            move |_, part: Partition<(STObject, V)>| {
                let (batch, sel) = select_chain(&ctx, &chain, &part);
                let rows = part.as_slice();
                let mut out = Vec::with_capacity(sel.count());
                sel.for_each_set(|lane| out.push(rows[batch.payload_index(lane)].clone()));
                ctx.note_records_cloned(out.len() as u64);
                Partition::from_vec(out)
            },
            move |_, part| select_chain(&count_ctx, &count_chain, &part).1.count(),
        )
    }

    /// Partitioning metadata, when spatially partitioned.
    pub fn partitioning(&self) -> Option<&Arc<PartitioningInfo>> {
        self.partitioning.as_ref()
    }

    /// Number of engine partitions.
    pub fn num_partitions(&self) -> usize {
        self.rdd().num_partitions()
    }

    /// Materialises all `(STObject, V)` pairs.
    pub fn collect(&self) -> Vec<(STObject, V)> {
        self.rdd().collect()
    }

    /// Number of records.
    pub fn count(&self) -> usize {
        self.rdd().count()
    }

    /// Gathers the `(mbr, centroid)` summary a partitioner is built from
    /// (a single narrow pass, computed in parallel).
    pub fn summarize(&self) -> crate::partitioner::DataSummary {
        self.rdd()
            .run_partitions(|_, data| {
                data.iter().map(|(o, _)| (o.envelope(), o.centroid())).collect::<Vec<_>>()
            })
            .into_iter()
            .flatten()
            .collect()
    }

    /// Spatially re-partitions the dataset with `partitioner` (a shuffle,
    /// mirroring `RDD.partitionBy(new SpatialPartitioner(...))`), then
    /// fits each partition's extent from its actual contents.
    pub fn partition_by(&self, partitioner: Arc<dyn SpatialPartitioner>) -> SpatialRdd<V>
    where
        V: StoreData,
    {
        let p = partitioner.clone();
        let shuffled = self
            .rdd()
            .partition_by(partitioner.num_partitions(), move |(o, _)| {
                match p.try_partition_of(o) {
                    Ok(idx) => idx,
                    // typed, non-retryable task failure: a NaN/infinite
                    // centroid is deterministic malformed input
                    Err(e) => stark_engine::abort_invalid_record(e.to_string()),
                }
            })
            .cache();

        // Fit spatial and temporal extents from what actually landed in
        // each partition.
        let extents: Vec<(Envelope, TemporalExtent)> = shuffled.run_partitions(|_, data| {
            let mut env = Envelope::empty();
            let mut te = TemporalExtent::empty();
            for (o, _) in &data {
                env.expand_to_include_envelope(&o.envelope());
                te.expand(o.time());
            }
            (env, te)
        });
        let mut cells = Vec::with_capacity(extents.len());
        let mut time_extents = Vec::with_capacity(extents.len());
        for (c, (extent, te)) in partitioner.cells().iter().zip(extents) {
            cells.push(PartitionCell { id: c.id, bounds: c.bounds, extent });
            time_extents.push(te);
        }

        SpatialRdd::with_info(
            shuffled,
            Some(Arc::new(PartitioningInfo {
                partitioner: Some(partitioner),
                cells,
                time_extents,
            })),
        )
    }

    /// Filters to elements `e` with `pred(e, query) == true`, pruning
    /// partitions whose extent cannot contain a match (paper §2.1).
    ///
    /// The predicate only queues: consecutive filters fuse into one
    /// columnar chain that is lowered lazily (see [`SpatialRdd`] docs).
    pub fn filter(&self, query: &STObject, pred: STPredicate) -> SpatialRdd<V> {
        let mask = self.partitioning.as_ref().map(|info| info.mask_for(&pred, query));
        let pending_mask = match (&self.pending_mask, mask) {
            (Some(prev), Some(m)) => Some(prev.iter().zip(&m).map(|(a, b)| *a && *b).collect()),
            (Some(prev), None) => Some(prev.clone()),
            (None, m) => m,
        };
        let mut pending = self.pending.clone();
        pending.push((pred, query.clone()));
        SpatialRdd {
            base: self.base.clone(),
            partitioning: self.partitioning.clone(),
            pending,
            pending_mask,
            resolved: OnceLock::new(),
        }
    }

    /// `withinDistance`: all elements within `max_dist` of `query` under
    /// `dist_fn` (paper §2.3).
    pub fn within_distance(
        &self,
        query: &STObject,
        max_dist: f64,
        dist_fn: DistanceFn,
    ) -> SpatialRdd<V> {
        self.filter(query, STPredicate::WithinDistance { max_dist, dist_fn })
    }

    /// k-nearest-neighbour search (paper §2.3): the `k` records closest
    /// to `query` under `dist_fn`, ascending by distance. Each partition
    /// computes a local top-k in parallel; the driver merges.
    pub fn knn(
        &self,
        query: &STObject,
        k: usize,
        dist_fn: DistanceFn,
    ) -> Vec<(f64, (STObject, V))> {
        if k == 0 {
            return Vec::new();
        }
        let q = query.clone();
        let partials = self.rdd().run_partitions(move |_, data| {
            let mut local: Vec<(f64, (STObject, V))> =
                data.into_iter().map(|(o, v)| (o.distance(&q, dist_fn), (o, v))).collect();
            // total_cmp: NaN distances sort last deterministically instead
            // of destabilising the comparator
            local.sort_by(|a, b| a.0.total_cmp(&b.0));
            local.truncate(k);
            local
        });
        let mut merged: Vec<(f64, (STObject, V))> = partials.into_iter().flatten().collect();
        merged.sort_by(|a, b| a.0.total_cmp(&b.0));
        merged.truncate(k);
        merged
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::partitioner::GridPartitioner;
    use stark_engine::Context;

    fn events(ctx: &Context) -> Rdd<(STObject, u32)> {
        // a 10×10 lattice of timed point events
        let data: Vec<(STObject, u32)> = (0..100)
            .map(|i| {
                let x = (i % 10) as f64;
                let y = (i / 10) as f64;
                (STObject::point_at(x, y, i as i64), i)
            })
            .collect();
        ctx.parallelize(data, 8)
    }

    #[test]
    fn ext_trait_adds_operators() {
        let ctx = Context::with_parallelism(4);
        let rdd = events(&ctx);
        let qry = STObject::from_wkt("POLYGON((0 0, 3.5 0, 3.5 3.5, 0 3.5, 0 0))").unwrap();
        // timeless query never matches timed events (paper clause 2/3)
        assert_eq!(rdd.contained_by(&qry).count(), 0);

        let qry_timed =
            STObject::from_wkt_interval("POLYGON((0 0, 3.5 0, 3.5 3.5, 0 3.5, 0 0))", 0, 1000)
                .unwrap();
        // 4×4 lattice points inside
        assert_eq!(rdd.contained_by(&qry_timed).count(), 16);
        assert_eq!(rdd.intersects(&qry_timed).count(), 16);
    }

    #[test]
    fn filter_after_partitioning_prunes() {
        let ctx = Context::with_parallelism(4);
        let rdd = events(&ctx).spatial();
        let part = rdd.partition_by(Arc::new(GridPartitioner::build(4, &rdd.summarize())));
        assert_eq!(part.num_partitions(), 16);

        let qry_timed =
            STObject::from_wkt_interval("POLYGON((0 0, 2.5 0, 2.5 2.5, 0 2.5, 0 0))", 0, 1000)
                .unwrap();
        let before = ctx.metrics();
        let hits = part.filter(&qry_timed, STPredicate::ContainedBy);
        assert_eq!(hits.count(), 9);
        let delta = ctx.metrics().diff(&before);
        assert!(delta.partitions_pruned > 0, "expected pruning, got {delta:?}");
    }

    #[test]
    fn partitioning_preserves_data() {
        let ctx = Context::with_parallelism(4);
        let rdd = events(&ctx).spatial();
        let part = rdd.partition_by(Arc::new(GridPartitioner::build(3, &rdd.summarize())));
        assert_eq!(part.count(), 100);
        let mut vals: Vec<u32> = part.collect().into_iter().map(|(_, v)| v).collect();
        vals.sort_unstable();
        assert_eq!(vals, (0..100).collect::<Vec<u32>>());
    }

    #[test]
    fn extents_fitted_from_contents() {
        let ctx = Context::with_parallelism(2);
        let rdd = events(&ctx).spatial();
        let part = rdd.partition_by(Arc::new(GridPartitioner::build(2, &rdd.summarize())));
        let info = part.partitioning().unwrap();
        let glommed = part.rdd().glom();
        for (cell, data) in info.cells.iter().zip(glommed) {
            for (o, _) in data {
                assert!(cell.extent.contains_envelope(&o.envelope()));
            }
        }
    }

    #[test]
    fn within_distance_filter() {
        let ctx = Context::with_parallelism(4);
        let rdd = events(&ctx).spatial();
        let q = STObject::point_at(5.0, 5.0, 55);
        // distance <= 1 covers the cross around (5,5): but the temporal
        // instants differ, so with timed query nothing matches except t=55
        let got = rdd.within_distance(&q, 1.0, DistanceFn::Euclidean);
        // withinDistance is spatial-only: 5 points (centre + 4 neighbours)
        assert_eq!(got.count(), 5);
    }

    #[test]
    fn knn_returns_sorted_nearest() {
        let ctx = Context::with_parallelism(4);
        let rdd = events(&ctx).spatial();
        let q = STObject::point(4.9, 5.0);
        let nn = rdd.knn(&q, 3, DistanceFn::Euclidean);
        assert_eq!(nn.len(), 3);
        assert_eq!(nn[0].1 .1, 55); // (5, 5) at distance 0.1
        assert_eq!(nn[1].1 .1, 54); // (4, 5) at distance 0.9
        assert!(nn.windows(2).all(|w| w[0].0 <= w[1].0));
    }

    #[test]
    fn knn_with_k_zero_or_large() {
        let ctx = Context::with_parallelism(2);
        let rdd = events(&ctx).spatial();
        assert!(rdd.knn(&STObject::point(0.0, 0.0), 0, DistanceFn::Euclidean).is_empty());
        assert_eq!(rdd.knn(&STObject::point(0.0, 0.0), 1000, DistanceFn::Euclidean).len(), 100);
    }

    #[test]
    fn filter_chains_compose() {
        let ctx = Context::with_parallelism(4);
        let rdd = events(&ctx).spatial();
        let wide =
            STObject::from_wkt_interval("POLYGON((0 0, 9 0, 9 9, 0 9, 0 0))", 0, 1000).unwrap();
        let narrow =
            STObject::from_wkt_interval("POLYGON((0 0, 2 0, 2 2, 0 2, 0 0))", 0, 50).unwrap();
        let result =
            rdd.filter(&wide, STPredicate::ContainedBy).filter(&narrow, STPredicate::ContainedBy);
        // lattice points in [0,2]^2 with t < 50: (x,y) with i = y*10+x <= 22
        let got = result.count();
        assert_eq!(got, 9);
    }
}
