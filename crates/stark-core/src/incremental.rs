//! Incrementally maintained per-partition STR-tree index.
//!
//! The batch-oriented [`crate::indexed::IndexedSpatialRdd`] rebuilds every
//! partition tree when the data changes. A micro-batch stream cannot
//! afford that: each batch touches only the partitions its events fall
//! into, so only those trees need rebuilding. [`IncrementalIndex`] keeps
//! its records in one [`RecordSlab`] and, per partitioner cell, an
//! STR-tree over the slot ids of that cell's records plus a list of the
//! slots inserted since the tree was built. The streaming layer calls
//! [`IncrementalIndex::refresh`] once per micro-batch.
//!
//! **Removal** ([`IncrementalIndex::remove_batch`]) lets the streaming
//! IVM layer retract records when a window expires or an upstream
//! correction arrives. A remove finds one record equal to the requested
//! `(object, value)` pair through the slab's key lookup and frees its
//! slot: O(1) expected, with no search of the partition and no change
//! to its tree. The tree entry stays behind as a *tombstone*: its slot
//! id no longer resolves (the slot's generation moved on), so probes
//! skip it. Removing a record that was never inserted (or was already
//! removed) is a counted no-op, so retractions of shed or quarantined
//! records are safe. A record with a NaN coordinate equals nothing and
//! so can never be removed.
//!
//! Queries are exact whatever the refresh schedule: a partition is
//! probed through its tree (skipping tombstones) and its not-yet-indexed
//! slots are scanned linearly. Partition pruning reuses the batch path's
//! bounds/extent machinery ([`STPredicate`]'s `partition_may_match`
//! tests), with extents fitted to the records actually inserted — sound
//! even for records outside the partitioner's build sample. An insert
//! widens its partition's extents at once; a remove leaves them as an
//! upper bound (still sound) until the next refresh re-fits them.
//!
//! [`IncrementalIndex::refresh`] rebuilds a partition's tree only if
//! the partition gained records since its tree was built, or if more
//! than [`MAX_DEAD_FRACTION`] of its entries are tombstones. A partition
//! whose records are all gone drops its tree without a rebuild. Every
//! partition that lost records gets its extents re-fitted, once, so
//! after a refresh pruning is as tight as on a fresh build.

use crate::knn::{knn, Source};
use crate::partitioner::SpatialPartitioner;
use crate::predicate::STPredicate;
use crate::slab::{RecordSlab, SlotId};
use crate::stobject::STObject;
use crate::temporal::TemporalExtent;
use stark_engine::Data;
use stark_geo::{DistanceFn, Envelope};
use stark_index::{Entry, StrTree};
use std::borrow::Borrow;
use std::sync::Arc;

/// Share of a partition's indexed entries that may be tombstones before
/// [`IncrementalIndex::refresh`] rebuilds its tree to drop them.
pub const MAX_DEAD_FRACTION: f64 = 0.5;

/// Counters describing the work an [`IncrementalIndex`] has done.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RefreshStats {
    /// Tree rebuilds performed over the index lifetime.
    pub rebuilds: u64,
    /// Tree rebuilds skipped because the partition was untouched.
    pub rebuilds_skipped: u64,
    /// Records currently indexed.
    pub records: usize,
}

/// Outcome of an [`IncrementalIndex::remove_batch`] call.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RemoveOutcome {
    /// Records actually taken out of the index.
    pub removed: usize,
    /// Requested removals with no matching record (already removed,
    /// never inserted, or shed upstream) — no-ops.
    pub missing: usize,
    /// Distinct partitions that lost a record.
    pub partitions_touched: usize,
}

/// One partitioner cell's share of the index.
struct Part {
    /// Tree over the slots live when it was built; `None` until the
    /// partition's first rebuild. Its entries may be tombstones.
    tree: Option<StrTree<SlotId>>,
    /// Slots inserted since the tree was built, not yet in it.
    pending: Vec<Entry<SlotId>>,
    /// Entries of `tree` and `pending` whose record was removed.
    dead: usize,
    /// Lost records since its extents were last fitted.
    shrunk: bool,
    /// Spatial extent: fitted to the live records at the last refresh,
    /// widened by every insert since.
    extent: Envelope,
    /// Temporal extent, maintained like `extent`.
    time_extent: TemporalExtent,
}

impl Part {
    fn new() -> Self {
        Part {
            tree: None,
            pending: Vec::new(),
            dead: 0,
            shrunk: false,
            extent: Envelope::empty(),
            time_extent: TemporalExtent::empty(),
        }
    }

    fn entries(&self) -> usize {
        self.tree.as_ref().map_or(0, |t| t.len()) + self.pending.len()
    }

    fn live(&self) -> usize {
        self.entries() - self.dead
    }

    /// Whether the next refresh builds this partition's tree.
    fn needs_build(&self) -> bool {
        self.live() > 0
            && (!self.pending.is_empty()
                || self.dead as f64 > MAX_DEAD_FRACTION * self.entries() as f64)
    }

    /// Every entry, tombstones included: the tree's, then the pending ones.
    fn all_entries(&self) -> impl Iterator<Item = &Entry<SlotId>> {
        self.tree.iter().flat_map(|t| t.iter()).chain(&self.pending)
    }
}

/// Per-partition STR-trees over a slab of records, for streaming updates.
pub struct IncrementalIndex<V: Data> {
    partitioner: Arc<dyn SpatialPartitioner>,
    order: usize,
    records: RecordSlab<V>,
    parts: Vec<Part>,
    stats: RefreshStats,
}

impl<V: Data> IncrementalIndex<V> {
    /// Creates an empty index over the partitioner's cells.
    pub fn new(partitioner: Arc<dyn SpatialPartitioner>, order: usize) -> Self {
        let n = partitioner.num_partitions().max(1);
        IncrementalIndex {
            partitioner,
            order,
            records: RecordSlab::new(),
            parts: (0..n).map(|_| Part::new()).collect(),
            stats: RefreshStats::default(),
        }
    }

    /// Number of partitions (= partitioner cells).
    pub fn num_partitions(&self) -> usize {
        self.parts.len()
    }

    /// Total records indexed.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Whether the index holds no records.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// The STR-tree order used for rebuilt partitions.
    pub fn order(&self) -> usize {
        self.order
    }

    /// Lifetime work counters.
    pub fn stats(&self) -> RefreshStats {
        RefreshStats { records: self.records.len(), ..self.stats }
    }

    /// Indices of partitions whose tree the next refresh rebuilds.
    pub fn dirty_partitions(&self) -> Vec<usize> {
        (0..self.parts.len()).filter(|&p| self.parts[p].needs_build()).collect()
    }

    fn partition_of(&self, obj: &STObject) -> usize {
        self.partitioner.partition_for_centroid(&obj.centroid()).min(self.parts.len() - 1)
    }

    /// Routes each record to its partition, widening the partition's
    /// extents. Returns the number of distinct partitions touched.
    pub fn insert_batch(&mut self, batch: impl IntoIterator<Item = (STObject, V)>) -> usize {
        let mut touched = vec![false; self.parts.len()];
        for (obj, value) in batch {
            let p = self.partition_of(&obj);
            touched[p] = true;
            let envelope = obj.envelope();
            let part = &mut self.parts[p];
            part.extent.expand_to_include_envelope(&envelope);
            part.time_extent.expand(obj.time());
            let id = self.records.insert(obj, value);
            part.pending.push(Entry::new(envelope, id));
        }
        touched.into_iter().filter(|t| *t).count()
    }

    /// Removes one record equal to `(obj, value)`; returns whether one
    /// was found. O(1) expected: the record's slot is freed and its tree
    /// entry becomes a tombstone. Extents are re-fitted by the next
    /// [`Self::refresh`].
    pub fn remove(&mut self, obj: &STObject, value: &V) -> bool
    where
        V: PartialEq,
    {
        self.take(obj, value).is_some()
    }

    /// [`Self::remove`], returning the partition the record left.
    fn take(&mut self, obj: &STObject, value: &V) -> Option<usize>
    where
        V: PartialEq,
    {
        // routed by the stored object, exactly as its insert was
        let (stored, _) = self.records.take(obj, value)?;
        let p = self.partition_of(&stored);
        let part = &mut self.parts[p];
        part.dead += 1;
        part.shrunk = true;
        Some(p)
    }

    /// Removes one record equal to each requested `(object, value)`
    /// pair (see [`Self::remove`]). A request with no matching record —
    /// a duplicate remove, or a retraction of a record that was shed
    /// before insertion — is a counted no-op.
    pub fn remove_batch<R: Borrow<(STObject, V)>>(
        &mut self,
        batch: impl IntoIterator<Item = R>,
    ) -> RemoveOutcome
    where
        V: PartialEq,
    {
        let mut outcome = RemoveOutcome::default();
        let mut touched = vec![false; self.parts.len()];
        for request in batch {
            let (obj, value) = request.borrow();
            match self.take(obj, value) {
                Some(p) => {
                    outcome.removed += 1;
                    touched[p] = true;
                }
                None => outcome.missing += 1,
            }
        }
        outcome.partitions_touched = touched.into_iter().filter(|t| *t).count();
        outcome
    }

    /// Brings every partition up to date: rebuilds the tree of each one
    /// that gained records or passed [`MAX_DEAD_FRACTION`] tombstones,
    /// drops the tree of each one left empty, and re-fits the extents of
    /// each one that lost records. Returns the number of trees rebuilt.
    pub fn refresh(&mut self) -> usize {
        let mut rebuilt = 0usize;
        let records = &self.records;
        for part in &mut self.parts {
            if part.live() == 0 {
                if part.entries() > 0 {
                    *part = Part::new();
                }
                continue;
            }
            if part.shrunk {
                let (extent, time_extent) = fit(part.all_entries(), records);
                part.extent = extent;
                part.time_extent = time_extent;
                part.shrunk = false;
            }
            if !part.needs_build() {
                self.stats.rebuilds_skipped += u64::from(part.tree.is_some());
                continue;
            }
            let live: Vec<Entry<SlotId>> =
                part.all_entries().filter(|e| records.contains(e.item)).cloned().collect();
            part.tree = Some(StrTree::build(self.order, live));
            part.pending.clear();
            part.dead = 0;
            rebuilt += 1;
        }
        self.stats.rebuilds += rebuilt as u64;
        rebuilt
    }

    /// Partition mask for `pred(e, query)`: `true` = must be scanned.
    /// A match's envelope meets the index probe (the trees rely on that
    /// too), so the cheap extent-vs-probe test runs first.
    fn mask_for<'a>(
        &'a self,
        pred: &'a STPredicate,
        query: &'a STObject,
    ) -> impl Iterator<Item = bool> + 'a {
        let probe = pred.index_probe(query);
        self.parts.iter().map(move |part| {
            part.extent.intersects(&probe)
                && pred.partition_may_match(&part.extent, query)
                && pred.partition_may_match_temporal(&part.time_extent, query)
        })
    }

    /// Exact filter: extent-pruned, tree-probed for indexed slots,
    /// linear over slots inserted since the last rebuild. Returns
    /// matching records in partition order.
    pub fn filter(&self, query: &STObject, pred: STPredicate) -> Vec<(STObject, V)> {
        let probe = pred.index_probe(query);
        let mut out = Vec::new();
        let mut keep = |id: SlotId| {
            if let Some((o, v)) = self.records.get(id) {
                if pred.eval(o, query) {
                    out.push((o.clone(), v.clone()));
                }
            }
        };
        for (part, scan) in self.parts.iter().zip(self.mask_for(&pred, query)) {
            if !scan {
                continue;
            }
            if let Some(tree) = &part.tree {
                tree.for_each_candidate(&probe, &mut |entry| keep(entry.item));
            }
            for entry in &part.pending {
                keep(entry.item);
            }
        }
        out
    }

    /// Number of partitions the filter for `query` would scan.
    pub fn partitions_scanned(&self, query: &STObject, pred: &STPredicate) -> usize {
        self.mask_for(pred, query).filter(|m| *m).count()
    }

    /// Exact k-nearest-neighbour search, for every geometry kind and
    /// every [`DistanceFn`]: the crate's one best-first kNN search over
    /// the partitions, each one its extent, its tree and its slots not
    /// yet in the tree. Every step is keyed by `dist_fn`'s bound from
    /// the per-axis gaps between the query's envelope and the step's, a
    /// lower bound on the exact distance of any record inside, so the
    /// k-th exact distance ends the search and a partition whose extent
    /// is farther than it is never opened. Tombstones score nothing.
    pub fn knn(
        &self,
        query: &STObject,
        k: usize,
        dist_fn: DistanceFn,
    ) -> Vec<(f64, (STObject, V))> {
        let sources = self.parts.iter().map(|part| Source {
            extent: part.extent,
            tree: part.tree.as_ref(),
            loose: &part.pending,
        });
        knn(query, k, dist_fn, sources, |id: &SlotId| {
            self.records.get(*id).map(|record| (&record.0, record))
        })
        .into_iter()
        .map(|(d, record)| (d, record.clone()))
        .collect()
    }

    /// Convenience: filter with a `WithinDistance` predicate.
    pub fn within_distance(
        &self,
        query: &STObject,
        max_dist: f64,
        dist_fn: DistanceFn,
    ) -> Vec<(STObject, V)> {
        self.filter(query, STPredicate::WithinDistance { max_dist, dist_fn })
    }
}

/// Extents of the live records among `entries`.
fn fit<'a, V: 'a>(
    entries: impl Iterator<Item = &'a Entry<SlotId>>,
    records: &RecordSlab<V>,
) -> (Envelope, TemporalExtent) {
    let mut extent = Envelope::empty();
    let mut time_extent = TemporalExtent::empty();
    for e in entries {
        if let Some((o, _)) = records.get(e.item) {
            extent.expand_to_include_envelope(&e.envelope);
            time_extent.expand(o.time());
        }
    }
    (extent, time_extent)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::partitioner::GridPartitioner;
    use stark_geo::Coord;

    fn grid_over_unit_square(dims: usize) -> Arc<dyn SpatialPartitioner> {
        let corners = [(0.0, 0.0), (100.0, 100.0)];
        let summary: Vec<(Envelope, Coord)> = corners
            .iter()
            .map(|&(x, y)| (Envelope::from_point(Coord::new(x, y)), Coord::new(x, y)))
            .collect();
        Arc::new(GridPartitioner::build(dims, &summary))
    }

    fn points(n: usize) -> Vec<(STObject, usize)> {
        (0..n)
            .map(|i| {
                let x = (i % 10) as f64 * 10.0 + 1.0;
                let y = (i / 10) as f64 + 1.0;
                (STObject::point_at(x, y, i as i64), i)
            })
            .collect()
    }

    fn naive_filter(data: &[(STObject, usize)], query: &STObject, pred: STPredicate) -> Vec<usize> {
        let mut ids: Vec<usize> =
            data.iter().filter(|(o, _)| pred.eval(o, query)).map(|(_, i)| *i).collect();
        ids.sort_unstable();
        ids
    }

    fn query() -> STObject {
        STObject::from_wkt_interval("POLYGON((5 0, 35 0, 35 8, 5 8, 5 0))", 0, 10_000).unwrap()
    }

    #[test]
    fn filter_matches_naive_before_and_after_refresh() {
        let data = points(100);
        let mut idx = IncrementalIndex::new(grid_over_unit_square(4), 5);
        idx.insert_batch(data.clone());

        let expect = naive_filter(&data, &query(), STPredicate::Intersects);
        // dirty path (no refresh yet)
        let mut got: Vec<usize> =
            idx.filter(&query(), STPredicate::Intersects).into_iter().map(|(_, i)| i).collect();
        got.sort_unstable();
        assert_eq!(got, expect);

        // clean path
        idx.refresh();
        let mut got: Vec<usize> =
            idx.filter(&query(), STPredicate::Intersects).into_iter().map(|(_, i)| i).collect();
        got.sort_unstable();
        assert_eq!(got, expect);
        assert!(!expect.is_empty());
    }

    #[test]
    fn refresh_rebuilds_only_touched_partitions() {
        let mut idx = IncrementalIndex::new(grid_over_unit_square(4), 5);
        idx.insert_batch(points(100));
        let first = idx.refresh();
        assert!(first > 0);

        // a batch confined to one corner touches few partitions
        let corner: Vec<(STObject, usize)> =
            (0..20).map(|i| (STObject::point_at(2.0, 2.0, i as i64), 1000 + i as usize)).collect();
        let touched = idx.insert_batch(corner);
        assert_eq!(touched, 1);
        assert_eq!(idx.dirty_partitions().len(), 1);
        let rebuilt = idx.refresh();
        assert_eq!(rebuilt, 1);
        assert!(idx.stats().rebuilds_skipped > 0);
        assert_eq!(idx.len(), 120);
    }

    #[test]
    fn extent_pruning_scans_few_partitions() {
        let mut idx = IncrementalIndex::new(grid_over_unit_square(4), 5);
        idx.insert_batch(points(100));
        idx.refresh();
        let tiny = STObject::point(1.0, 1.0);
        let scanned = idx.partitions_scanned(&tiny, &STPredicate::Intersects);
        assert!(scanned < idx.num_partitions(), "{scanned} of {}", idx.num_partitions());
    }

    #[test]
    fn records_outside_build_sample_are_still_found() {
        // partitioner fitted to [0,100]^2 but records land outside it
        let mut idx = IncrementalIndex::new(grid_over_unit_square(3), 4);
        let stray = STObject::point(250.0, -40.0);
        idx.insert_batch(vec![(stray.clone(), 7usize)]);
        idx.refresh();
        let got = idx.filter(&stray, STPredicate::Intersects);
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].1, 7);
    }

    #[test]
    fn knn_matches_linear_scan() {
        let data = points(100);
        let mut idx = IncrementalIndex::new(grid_over_unit_square(4), 5);
        idx.insert_batch(data.clone());
        idx.refresh();
        let q = STObject::point(23.0, 4.5);
        let got = idx.knn(&q, 7, DistanceFn::Euclidean);
        let mut expect: Vec<f64> =
            data.iter().map(|(o, _)| o.distance(&q, DistanceFn::Euclidean)).collect();
        expect.sort_by(|a, b| a.partial_cmp(b).unwrap());
        assert_eq!(got.len(), 7);
        for (g, e) in got.iter().zip(expect.iter()) {
            assert!((g.0 - e).abs() < 1e-9);
        }
    }

    #[test]
    fn knn_opens_no_partition_farther_than_the_kth_distance() {
        // the 5 nearest records sit in the cell at the query; six far
        // cells are full
        let mut data: Vec<(STObject, usize)> =
            (0..20).map(|i| (STObject::point(10.0 + (i % 5) as f64 * 0.5, 10.0), i)).collect();
        data.extend((0..300).map(|i| {
            let (x, y) = (55.0 + (i % 20) as f64 * 2.0, 30.0 + (i / 20) as f64 * 4.0);
            (STObject::point(x, y), 100 + i)
        }));
        let mut idx = IncrementalIndex::new(grid_over_unit_square(4), 5);
        idx.insert_batch(data.clone());
        let q = STObject::point(10.0, 10.0);
        let occupied = idx.parts.iter().filter(|p| p.live() > 0).count();
        assert!(occupied > 6, "{occupied} partitions hold records");
        let mut expect: Vec<f64> =
            data.iter().map(|(o, _)| o.distance(&q, DistanceFn::Euclidean)).collect();
        expect.sort_by(f64::total_cmp);
        expect.truncate(5);
        // pending slots first, then trees
        for refreshed in [false, true] {
            if refreshed {
                idx.refresh();
            }
            crate::knn::take_opened_sources();
            let got: Vec<f64> =
                idx.knn(&q, 5, DistanceFn::Euclidean).into_iter().map(|(d, _)| d).collect();
            assert_eq!(got, expect);
            assert_eq!(crate::knn::take_opened_sources(), 1, "refreshed: {refreshed}");
        }
    }

    #[test]
    fn within_distance_convenience() {
        let data = points(100);
        let mut idx = IncrementalIndex::new(grid_over_unit_square(4), 5);
        idx.insert_batch(data.clone());
        idx.refresh();
        let q = STObject::point(50.0, 5.0);
        let got = idx.within_distance(&q, 3.0, DistanceFn::Euclidean).len();
        let expect =
            data.iter().filter(|(o, _)| o.distance(&q, DistanceFn::Euclidean) <= 3.0).count();
        assert_eq!(got, expect);
    }

    #[test]
    fn remove_round_trip_leaves_index_equivalent_to_fresh_build() {
        let data = points(100);
        let mut idx = IncrementalIndex::new(grid_over_unit_square(4), 5);
        idx.insert_batch(data.clone());
        idx.refresh();

        // remove a scattered subset, including one duplicate and one
        // record that was never inserted
        let removed_ids: Vec<usize> = (0..100).filter(|i| i % 3 == 0).collect();
        let mut to_remove: Vec<(STObject, usize)> =
            data.iter().filter(|(_, i)| removed_ids.contains(i)).cloned().collect();
        to_remove.push(data[0].clone()); // duplicate remove: no-op
        to_remove.push((STObject::point_at(999.0, 999.0, 7), 4242)); // never inserted
        let dup_and_missing = 2;
        let outcome = idx.remove_batch(to_remove);
        assert_eq!(outcome.removed, removed_ids.len());
        assert_eq!(outcome.missing, dup_and_missing);
        assert!(outcome.partitions_touched > 0);
        idx.refresh();

        // fresh index over the surviving records only
        let survivors: Vec<(STObject, usize)> =
            data.iter().filter(|(_, i)| !removed_ids.contains(i)).cloned().collect();
        let mut fresh = IncrementalIndex::new(grid_over_unit_square(4), 5);
        fresh.insert_batch(survivors.clone());
        fresh.refresh();

        assert_eq!(idx.len(), fresh.len());
        // query equivalence: filter and knn agree with the fresh build
        let collect_ids = |got: Vec<(STObject, usize)>| {
            let mut v: Vec<usize> = got.into_iter().map(|(_, i)| i).collect();
            v.sort_unstable();
            v
        };
        assert_eq!(
            collect_ids(idx.filter(&query(), STPredicate::Intersects)),
            collect_ids(fresh.filter(&query(), STPredicate::Intersects)),
        );
        let q = STObject::point(23.0, 4.5);
        let got = idx.knn(&q, 9, DistanceFn::Euclidean);
        let want = fresh.knn(&q, 9, DistanceFn::Euclidean);
        assert_eq!(got.len(), want.len());
        for (g, w) in got.iter().zip(&want) {
            assert!((g.0 - w.0).abs() < 1e-12);
        }
        // pruning stays sound and tight: the same partitions scan
        assert_eq!(
            idx.partitions_scanned(&query(), &STPredicate::Intersects),
            fresh.partitions_scanned(&query(), &STPredicate::Intersects),
        );
    }

    #[test]
    fn remove_everything_empties_the_index_and_its_extents() {
        let data = points(40);
        let mut idx = IncrementalIndex::new(grid_over_unit_square(3), 4);
        idx.insert_batch(data.clone());
        idx.refresh();
        let outcome = idx.remove_batch(data);
        assert_eq!(outcome.removed, 40);
        assert_eq!(outcome.missing, 0);
        assert!(idx.is_empty());
        idx.refresh();
        // re-fitted extents prune every partition for any query
        let anywhere =
            STObject::from_wkt_interval("POLYGON((0 0, 100 0, 100 100, 0 100, 0 0))", 0, 1 << 40)
                .unwrap();
        assert_eq!(idx.partitions_scanned(&anywhere, &STPredicate::Intersects), 0);
        assert!(idx.filter(&anywhere, STPredicate::Intersects).is_empty());
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(24))]

        /// Random insert/remove interleavings (with duplicate and
        /// missing-key removes drawn in) leave the index
        /// query-equivalent to a fresh build over the survivors, on
        /// both the dirty (pre-refresh) and clean (refreshed) paths.
        #[test]
        fn random_insert_remove_round_trips_match_fresh_build(
            coords in proptest::collection::vec((0.0..100.0f64, 0.0..100.0f64, 0i64..5_000), 1..120),
            remove_mask in proptest::collection::vec(proptest::prelude::any::<bool>(), 120..121),
            double_remove in proptest::prelude::any::<bool>(),
            refresh_between in proptest::prelude::any::<bool>(),
        ) {
            use proptest::prelude::prop_assert_eq;
            let data: Vec<(STObject, usize)> = coords
                .iter()
                .enumerate()
                .map(|(i, (x, y, t))| (STObject::point_at(*x, *y, *t), i))
                .collect();
            let mut idx = IncrementalIndex::new(grid_over_unit_square(4), 4);
            idx.insert_batch(data.clone());
            if refresh_between {
                idx.refresh();
            }
            let removals: Vec<(STObject, usize)> = data
                .iter()
                .zip(&remove_mask)
                .filter(|(_, m)| **m)
                .map(|(r, _)| r.clone())
                .collect();
            let mut requests = removals.clone();
            if double_remove && !removals.is_empty() {
                requests.push(removals[0].clone()); // duplicate: no-op
            }
            requests.push((STObject::point_at(-7.0, 212.0, 99), usize::MAX)); // missing key
            let outcome = idx.remove_batch(requests);
            prop_assert_eq!(outcome.removed, removals.len());
            prop_assert_eq!(
                outcome.missing,
                1 + usize::from(double_remove && !removals.is_empty())
            );

            let survivors: Vec<(STObject, usize)> = data
                .iter()
                .zip(&remove_mask)
                .filter(|(_, m)| !**m)
                .map(|(r, _)| r.clone())
                .collect();
            let mut fresh = IncrementalIndex::new(grid_over_unit_square(4), 4);
            fresh.insert_batch(survivors);
            fresh.refresh();

            let ids = |got: Vec<(STObject, usize)>| {
                let mut v: Vec<usize> = got.into_iter().map(|(_, i)| i).collect();
                v.sort_unstable();
                v
            };
            let probe = query();
            // dirty path first, then the clean path after refresh
            prop_assert_eq!(
                ids(idx.filter(&probe, STPredicate::Intersects)),
                ids(fresh.filter(&probe, STPredicate::Intersects))
            );
            idx.refresh();
            prop_assert_eq!(idx.len(), fresh.len());
            prop_assert_eq!(
                ids(idx.filter(&probe, STPredicate::Intersects)),
                ids(fresh.filter(&probe, STPredicate::Intersects))
            );
            prop_assert_eq!(
                ids(idx.within_distance(&STObject::point(50.0, 5.0), 12.0, DistanceFn::Euclidean)),
                ids(fresh.within_distance(&STObject::point(50.0, 5.0), 12.0, DistanceFn::Euclidean))
            );
        }
    }

    #[test]
    fn temporal_pruning_is_exercised() {
        let mut idx = IncrementalIndex::new(grid_over_unit_square(2), 4);
        idx.insert_batch(points(50));
        idx.refresh();
        // query far in the future of every record timestamp
        let future = STObject::from_wkt_interval(
            "POLYGON((0 0, 100 0, 100 100, 0 100, 0 0))",
            1_000_000,
            2_000_000,
        )
        .unwrap();
        assert_eq!(idx.partitions_scanned(&future, &STPredicate::Intersects), 0);
        assert!(idx.filter(&future, STPredicate::Intersects).is_empty());
    }

    #[test]
    fn tombstones_are_rebuilt_away_only_past_the_dead_fraction() {
        let mut idx = IncrementalIndex::new(grid_over_unit_square(2), 4);
        let data: Vec<(STObject, usize)> =
            (0..10).map(|i| (STObject::point_at(1.0 + i as f64, 1.0, 0), i)).collect();
        idx.insert_batch(data.clone());
        assert_eq!(idx.refresh(), 1);
        // half the entries dead is not past the fraction: no rebuild
        assert_eq!(idx.remove_batch(&data[..5]).removed, 5);
        assert!(idx.dirty_partitions().is_empty());
        assert_eq!(idx.refresh(), 0);
        assert_eq!(
            idx.within_distance(&STObject::point(0.0, 1.0), 100.0, DistanceFn::Euclidean).len(),
            5
        );
        // one more is: the tree is rebuilt over the four survivors
        idx.remove_batch(&data[5..6]);
        assert_eq!(idx.dirty_partitions(), vec![0]);
        assert_eq!(idx.refresh(), 1);
        // the last four leave the partition empty: its tree is dropped,
        // not rebuilt
        idx.remove_batch(&data[6..]);
        assert_eq!(idx.refresh(), 0);
        assert!(idx.is_empty());
        assert_eq!(idx.stats().rebuilds, 2);
    }

    /// A small record vocabulary, so scripts repeat records, mix `-0.0`
    /// with `0.0`, and carry NaN coordinates.
    fn vocabulary_record(code: (u8, u8, u8, u8)) -> (STObject, u8) {
        const COORDS: [f64; 8] = [0.0, -0.0, 10.0, 33.0, 50.0, 71.0, 99.0, f64::NAN];
        let (x, y, t, v) = code;
        (STObject::point_at(COORDS[x as usize % 8], COORDS[y as usize % 8], t as i64 % 3), v % 4)
    }

    /// What the index must agree on with a fresh build over the same
    /// records: filter and withinDistance results as multisets (with
    /// `-0.0` folded into `0.0`, since either twin may survive), kNN
    /// distances, and, after a refresh, the partitions a query scans.
    fn observable(idx: &IncrementalIndex<u8>) -> Vec<Vec<(u64, u64, u8)>> {
        let key = |(o, v): &(STObject, u8)| {
            let c = o.centroid();
            ((c.x + 0.0).to_bits(), (c.y + 0.0).to_bits(), *v)
        };
        let sorted = |recs: Vec<(STObject, u8)>| {
            let mut keys: Vec<(u64, u64, u8)> = recs.iter().map(key).collect();
            keys.sort_unstable();
            keys
        };
        let region =
            STObject::from_wkt_interval("POLYGON((-1 -1, 40 -1, 40 60, -1 60, -1 -1))", 0, 2)
                .unwrap();
        let distances = |k: usize| {
            let knn = idx.knn(&STObject::point_at(20.0, 20.0, 1), k, DistanceFn::Euclidean);
            knn.iter()
                .map(|(d, _)| if d.is_nan() { (u64::MAX, 0, 0) } else { (d.to_bits(), 0, 0) })
                .collect::<Vec<_>>()
        };
        vec![
            sorted(idx.filter(&region, STPredicate::Intersects)),
            sorted(idx.within_distance(
                &STObject::point_at(0.0, 0.0, 1),
                40.0,
                DistanceFn::Euclidean,
            )),
            distances(3),
            distances(64),
            vec![(idx.len() as u64, 0, 0)],
        ]
    }

    fn fresh(records: &[(STObject, u8)]) -> IncrementalIndex<u8> {
        let mut idx = IncrementalIndex::new(grid_over_unit_square(2), 4);
        idx.insert_batch(records.to_vec());
        idx.refresh();
        idx
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(48))]

        /// Random insert/remove scripts against a plain-`Vec` model of
        /// removal by `==` (first match): `removed`/`missing` agree with
        /// the model, and before and after every refresh the index
        /// answers like a fresh build over the model's records.
        #[test]
        fn keyed_removal_matches_a_vec_model(
            script in proptest::collection::vec(
                (
                    0u8..5,
                    proptest::collection::vec(
                        (0u8..8, 0u8..8, 0u8..3, 0u8..4), 0..24),
                ),
                1..14,
            ),
        ) {
            use proptest::prelude::{prop_assert, prop_assert_eq};
            let mut idx = IncrementalIndex::new(grid_over_unit_square(2), 4);
            let mut model: Vec<(STObject, u8)> = Vec::new();
            for (kind, codes) in script {
                let batch: Vec<(STObject, u8)> =
                    codes.into_iter().map(vocabulary_record).collect();
                match kind {
                    // inserts, often of records already present
                    0 | 1 => {
                        idx.insert_batch(batch.clone());
                        model.extend(batch);
                    }
                    // removes: present, absent, twins, NaN
                    2 | 3 => {
                        let (mut removed, mut missing) = (0, 0);
                        for r in &batch {
                            match model.iter().position(|m| m.0 == r.0 && m.1 == r.1) {
                                Some(i) => {
                                    model.remove(i);
                                    removed += 1;
                                }
                                None => missing += 1,
                            }
                        }
                        let outcome = idx.remove_batch(&batch);
                        prop_assert_eq!((outcome.removed, outcome.missing), (removed, missing));
                    }
                    // remove everything the model holds
                    _ => {
                        let all = model.clone();
                        let nan = all.iter().filter(|(o, _)| o.centroid().x.is_nan()
                            || o.centroid().y.is_nan()).count();
                        let outcome = idx.remove_batch(&all);
                        prop_assert_eq!(outcome.removed, all.len() - nan);
                        prop_assert_eq!(outcome.missing, nan);
                        model.retain(|(o, _)| o.centroid().x.is_nan() || o.centroid().y.is_nan());
                    }
                }
                let want = fresh(&model);
                prop_assert_eq!(observable(&idx), observable(&want));
                idx.refresh();
                prop_assert_eq!(observable(&idx), observable(&want));
                prop_assert!(idx.dirty_partitions().is_empty());
                let region = STObject::from_wkt_interval(
                    "POLYGON((-1 -1, 40 -1, 40 60, -1 60, -1 -1))", 0, 2).unwrap();
                prop_assert_eq!(
                    idx.partitions_scanned(&region, &STPredicate::Intersects),
                    want.partitions_scanned(&region, &STPredicate::Intersects)
                );
            }
        }
    }
}
