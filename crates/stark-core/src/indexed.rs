//! Index modes (paper §2.2): live indexing and persistent indexing.
//!
//! *Live indexing* builds an STR-tree over each partition's content the
//! first time the partition is processed; queries probe the tree and then
//! refine the candidates with the exact spatio-temporal predicate —
//! including the temporal component, exactly as the paper describes the
//! candidate-pruning step.
//!
//! *Persistent indexing* additionally serialises the per-partition trees
//! (plus the partitioning metadata) to an [`ObjectStore`], so subsequent
//! programs can reload them without re-building.

use crate::error::StarkError;
use crate::knn::{knn, Source};
use crate::partitioner::{PartitionCell, SpatialPartitioner};
use crate::predicate::STPredicate;
use crate::spatial_rdd::{PartitioningInfo, SpatialRdd};
use crate::stobject::STObject;
use serde::de::DeserializeOwned;
use serde::Serialize;
use stark_engine::{Context, Data, ObjectStore, Partition, Rdd, StoreData};
use stark_geo::{DistanceFn, Envelope};
use stark_index::{Entry, StrTree};
use std::sync::Arc;

/// A spatially (optionally) partitioned dataset whose partitions are
/// materialised as STR-trees.
pub struct IndexedSpatialRdd<V: Data> {
    trees: Rdd<Arc<StrTree<(STObject, V)>>>,
    partitioning: Option<Arc<PartitioningInfo>>,
    order: usize,
}

impl<V: Data> Clone for IndexedSpatialRdd<V> {
    fn clone(&self) -> Self {
        IndexedSpatialRdd {
            trees: self.trees.clone(),
            partitioning: self.partitioning.clone(),
            order: self.order,
        }
    }
}

impl<V: Data> SpatialRdd<V> {
    /// Live indexing (paper: `liveIndex(order)`): builds one STR-tree per
    /// partition. The returned handle answers the same queries as the
    /// un-indexed dataset; trees are cached so repeated queries reuse
    /// them.
    pub fn live_index(&self, order: usize) -> IndexedSpatialRdd<V> {
        let trees = self
            .rdd()
            .map_partitions(move |data| {
                let entries: Vec<Entry<(STObject, V)>> =
                    data.into_iter().map(|(o, v)| Entry::new(o.envelope(), (o, v))).collect();
                vec![Arc::new(StrTree::build(order, entries))]
            })
            .cache();
        IndexedSpatialRdd { trees, partitioning: self.partitioning().cloned(), order }
    }

    /// Live indexing with re-partitioning first (paper: the optional
    /// partitioner argument of `liveIndex`).
    pub fn live_index_with(
        &self,
        order: usize,
        partitioner: Arc<dyn SpatialPartitioner>,
    ) -> IndexedSpatialRdd<V>
    where
        V: StoreData,
    {
        self.partition_by(partitioner).live_index(order)
    }
}

/// One index-accelerated filter: the tree probe and the exact predicate
/// that refines its candidates.
struct IndexHits {
    probe: Envelope,
    pred: STPredicate,
    query: STObject,
}

impl IndexHits {
    /// Calls `f` on every record of `trees` the filter selects.
    fn for_each<V>(
        &self,
        trees: &[Arc<StrTree<(STObject, V)>>],
        mut f: impl FnMut(&(STObject, V)),
    ) {
        for tree in trees {
            tree.for_each_candidate(&self.probe, &mut |entry| {
                if self.pred.eval(&entry.item.0, &self.query) {
                    f(&entry.item);
                }
            });
        }
    }
}

impl<V: Data> IndexedSpatialRdd<V> {
    /// The per-partition trees as an engine dataset.
    pub fn trees(&self) -> &Rdd<Arc<StrTree<(STObject, V)>>> {
        &self.trees
    }

    /// Partitioning metadata, when spatially partitioned.
    pub fn partitioning(&self) -> Option<&Arc<PartitioningInfo>> {
        self.partitioning.as_ref()
    }

    /// The tree order the index was built with.
    pub fn order(&self) -> usize {
        self.order
    }

    /// Number of partitions (= number of trees).
    pub fn num_partitions(&self) -> usize {
        self.trees.num_partitions()
    }

    /// Total number of indexed records.
    pub fn count(&self) -> usize {
        self.trees
            .run_partitions(|_, trees| trees.iter().map(|t| t.len()).sum::<usize>())
            .into_iter()
            .sum()
    }

    /// Index-accelerated filter: prunes partitions by extent, probes each
    /// surviving tree for MBR candidates, then refines with the exact
    /// spatio-temporal predicate (temporal check included — the paper's
    /// candidate-pruning step). `count()` on the result only counts the
    /// hits per task; computing a partition clones them.
    pub fn filter(&self, query: &STObject, pred: STPredicate) -> Rdd<(STObject, V)> {
        let masked = match &self.partitioning {
            Some(info) => self.trees.with_partition_mask(info.mask_for(&pred, query)),
            None => self.trees.clone(),
        };
        let hits =
            Arc::new(IndexHits { probe: pred.index_probe(query), pred, query: query.clone() });
        let count_hits = hits.clone();
        let ctx = self.trees.context().clone();
        masked.map_partition_handles(
            format!("IndexFilter[{pred}]"),
            move |_, trees| {
                let mut out = Vec::new();
                hits.for_each(&trees, |(o, v)| out.push((o.clone(), v.clone())));
                ctx.note_records_cloned(out.len() as u64);
                Partition::from_vec(out)
            },
            move |_, trees| {
                let mut n = 0usize;
                count_hits.for_each(&trees, |_| n += 1);
                n
            },
        )
    }

    /// Convenience: `filter(query, Intersects)` — the paper's
    /// `liveIndex(order = 5).intersect(qry)` example.
    pub fn intersects(&self, query: &STObject) -> Rdd<(STObject, V)> {
        self.filter(query, STPredicate::Intersects)
    }

    /// Convenience: `filter(query, Contains)`.
    pub fn contains(&self, query: &STObject) -> Rdd<(STObject, V)> {
        self.filter(query, STPredicate::Contains)
    }

    /// Convenience: `filter(query, ContainedBy)`.
    pub fn contained_by(&self, query: &STObject) -> Rdd<(STObject, V)> {
        self.filter(query, STPredicate::ContainedBy)
    }

    /// Convenience: `filter` with a `WithinDistance` predicate.
    pub fn within_distance(
        &self,
        query: &STObject,
        max_dist: f64,
        dist_fn: DistanceFn,
    ) -> Rdd<(STObject, V)> {
        self.filter(query, STPredicate::WithinDistance { max_dist, dist_fn })
    }

    /// Exact k-nearest-neighbour search through the index, for every
    /// geometry kind and every [`DistanceFn`]. Each partition runs the
    /// crate's one best-first kNN search over its trees: entries leave a
    /// tree in ascending order of a lower bound on their exact distance
    /// (`dist_fn`'s bound from the per-axis gaps between the query's
    /// envelope and theirs, which no geometry inside the envelopes can
    /// beat), are scored exactly, and the k-th exact distance ends the
    /// search. The driver merges the per-partition top-k.
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
        let partials = self.trees.run_partitions(move |_, trees| {
            let sources = trees.iter().map(|t| Source::tree(t.as_ref()));
            knn(&q, k, dist_fn, sources, |item: &(STObject, V)| Some((&item.0, item)))
                .into_iter()
                .map(|(d, item)| (d, item.clone()))
                .collect::<Vec<_>>()
        });
        let mut merged: Vec<(f64, (STObject, V))> = partials.into_iter().flatten().collect();
        merged.sort_by(|a, b| a.0.total_cmp(&b.0));
        merged.truncate(k);
        merged
    }
}

/// Serialised form of the persisted-index metadata.
#[derive(serde::Serialize, serde::Deserialize)]
struct PersistedMeta {
    num_partitions: usize,
    order: usize,
    cells: Option<Vec<PartitionCell>>,
    #[serde(default)]
    time_extents: Option<Vec<crate::temporal::TemporalExtent>>,
}

impl<V: Data + Serialize + DeserializeOwned> IndexedSpatialRdd<V> {
    /// Persists the index under `name` in the object store (paper:
    /// `index(order, partitioner)` followed by saving to HDFS). The same
    /// in-memory index remains usable — no extra pass is needed.
    pub fn persist(&self, store: &ObjectStore, name: &str) -> Result<(), StarkError> {
        let meta = PersistedMeta {
            num_partitions: self.num_partitions(),
            order: self.order,
            cells: self.partitioning.as_ref().map(|p| p.cells.clone()),
            time_extents: self.partitioning.as_ref().map(|p| p.time_extents.clone()),
        };
        store.put_json(&format!("{name}/meta.json"), &meta)?;

        // Serialise each partition's tree in parallel, then write.
        let blobs: Vec<Vec<u8>> = self.trees.run_partitions(|_, trees| {
            trees
                .first()
                .map(|t| serde_json::to_vec(t.as_ref()).expect("tree serialisation"))
                .unwrap_or_default()
        });
        for (i, blob) in blobs.iter().enumerate() {
            store.put_bytes(&format!("{name}/part-{i:05}.json"), blob)?;
        }
        Ok(())
    }

    /// Loads a previously persisted index. The loaded handle supports all
    /// queries including extent-based pruning; re-partitioning requires a
    /// live partitioner and is not restored.
    pub fn load(
        ctx: &Context,
        store: &ObjectStore,
        name: &str,
    ) -> Result<IndexedSpatialRdd<V>, StarkError> {
        let meta: PersistedMeta = store.get_json(&format!("{name}/meta.json"))?;
        let mut trees: Vec<Arc<StrTree<(STObject, V)>>> = Vec::with_capacity(meta.num_partitions);
        for i in 0..meta.num_partitions {
            let blob = store.get_bytes(&format!("{name}/part-{i:05}.json"))?;
            let tree: StrTree<(STObject, V)> =
                serde_json::from_slice(&blob).map_err(stark_engine::StorageError::from)?;
            trees.push(Arc::new(tree));
        }
        let n = trees.len().max(1);
        let trees = ctx.parallelize(trees, n);
        let time_extents = meta.time_extents.unwrap_or_default();
        let partitioning = meta
            .cells
            .map(|cells| Arc::new(PartitioningInfo { partitioner: None, cells, time_extents }));
        Ok(IndexedSpatialRdd { trees, partitioning, order: meta.order })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::partitioner::GridPartitioner;
    use crate::spatial_rdd::SpatialRddExt;
    use stark_engine::Context;

    fn events(ctx: &Context) -> SpatialRdd<u32> {
        let data: Vec<(STObject, u32)> = (0..200)
            .map(|i| {
                let x = (i % 20) as f64;
                let y = (i / 20) as f64;
                (STObject::point_at(x, y, i as i64), i)
            })
            .collect();
        ctx.parallelize(data, 6).spatial()
    }

    fn qry() -> STObject {
        STObject::from_wkt_interval("POLYGON((2 2, 6 2, 6 6, 2 6, 2 2))", 0, 10_000).unwrap()
    }

    #[test]
    fn live_index_filter_matches_unindexed() {
        let ctx = Context::with_parallelism(4);
        let rdd = events(&ctx);
        let plain: usize = rdd.filter(&qry(), STPredicate::ContainedBy).count();
        let indexed = rdd.live_index(5).contained_by(&qry()).count();
        assert_eq!(plain, indexed);
        assert!(plain > 0);
    }

    #[test]
    fn live_index_with_partitioner_matches_too() {
        let ctx = Context::with_parallelism(4);
        let rdd = events(&ctx);
        let part = Arc::new(GridPartitioner::build(4, &rdd.summarize()));
        let indexed = rdd.live_index_with(5, part);
        assert_eq!(indexed.num_partitions(), 16);
        let got = indexed.intersects(&qry()).count();
        let expect = rdd.filter(&qry(), STPredicate::Intersects).count();
        assert_eq!(got, expect);
        // pruning active through the index path as well
        let before = ctx.metrics();
        indexed.contained_by(&qry()).count();
        assert!(ctx.metrics().diff(&before).partitions_pruned > 0);
    }

    #[test]
    fn indexed_knn_matches_plain_knn() {
        let ctx = Context::with_parallelism(4);
        let rdd = events(&ctx);
        let q = STObject::point(7.3, 4.1);
        let plain = rdd.knn(&q, 7, DistanceFn::Euclidean);
        let indexed = rdd.live_index(4).knn(&q, 7, DistanceFn::Euclidean);
        assert_eq!(plain.len(), indexed.len());
        for (a, b) in plain.iter().zip(indexed.iter()) {
            assert!((a.0 - b.0).abs() < 1e-9);
        }
    }

    #[test]
    fn indexed_knn_of_a_polygon_focus_is_exact() {
        // 40 points at (50 … 50.39, 10) and one at (0, 2), all in one
        // tree. The thin polygon's centroid (50, 0.5) is nearest to the
        // 40, but the polygon itself is nearest to (0, 2), at distance 1.
        let ctx = Context::with_parallelism(2);
        let mut data: Vec<(STObject, u32)> =
            (0..40).map(|i| (STObject::point(50.0 + i as f64 * 0.01, 10.0), i)).collect();
        data.push((STObject::point(0.0, 2.0), 40));
        let rdd = ctx.parallelize(data, 1).spatial();
        let focus = STObject::from_wkt("POLYGON((0 0, 100 0, 100 1, 0 1, 0 0))").unwrap();
        let got = rdd.live_index(16).knn(&focus, 1, DistanceFn::Euclidean);
        assert_eq!(got.len(), 1);
        assert_eq!((got[0].0, got[0].1 .1), (1.0, 40));
        assert_eq!(got[0].0, rdd.knn(&focus, 1, DistanceFn::Euclidean)[0].0);
    }

    #[test]
    fn indexed_within_distance() {
        let ctx = Context::with_parallelism(4);
        let rdd = events(&ctx);
        let q = STObject::point(10.0, 5.0);
        let got = rdd.live_index(5).within_distance(&q, 1.5, DistanceFn::Euclidean).count();
        let expect = rdd.within_distance(&q, 1.5, DistanceFn::Euclidean).count();
        assert_eq!(got, expect);
    }

    #[test]
    fn index_count() {
        let ctx = Context::with_parallelism(4);
        let rdd = events(&ctx);
        assert_eq!(rdd.live_index(5).count(), 200);
    }

    #[test]
    fn persist_and_load_roundtrip() {
        let ctx = Context::with_parallelism(4);
        let dir = std::env::temp_dir().join(format!("stark-core-persist-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = ObjectStore::open(&dir).unwrap();

        let rdd = events(&ctx);
        let part = Arc::new(GridPartitioner::build(3, &rdd.summarize()));
        let indexed = rdd.live_index_with(5, part);
        indexed.persist(&store, "events-idx").unwrap();

        // the index is usable in the same "program" after persisting
        let here = indexed.contained_by(&qry()).count();

        // ... and in a fresh context, as another program would
        let ctx2 = Context::with_parallelism(2);
        let loaded: IndexedSpatialRdd<u32> =
            IndexedSpatialRdd::load(&ctx2, &store, "events-idx").unwrap();
        assert_eq!(loaded.count(), 200);
        assert_eq!(loaded.order(), 5);
        let there = loaded.contained_by(&qry()).count();
        assert_eq!(here, there);
        // pruning metadata survived persistence
        assert!(loaded.partitioning().is_some());
        let before = ctx2.metrics();
        loaded.contained_by(&qry()).count();
        assert!(ctx2.metrics().diff(&before).partitions_pruned > 0);
    }

    #[test]
    fn load_missing_index_fails() {
        let ctx = Context::new();
        let dir = std::env::temp_dir().join(format!("stark-core-missing-{}", std::process::id()));
        let store = ObjectStore::open(&dir).unwrap();
        let r: Result<IndexedSpatialRdd<u32>, _> =
            IndexedSpatialRdd::load(&ctx, &store, "no-such-index");
        assert!(r.is_err());
    }
}
