//! Continuous spatio-temporal queries over the accumulated stream.
//!
//! A [`StandingQuery`] is registered once and re-evaluated on every
//! micro-batch against everything the stream has delivered so far. The
//! indexed engine keeps that state in an
//! [`IncrementalIndex`]: each batch dirties only the partitions its
//! records land in, `refresh` rebuilds just those STR-trees, and every
//! query then probes through partition pruning + the trees. The
//! unindexed engine keeps a flat record list and linear-scans it per
//! query — the baseline the S6 experiment compares against.

use crate::delta::Delta;
use stark::{IncrementalIndex, STObject, STPredicate, SpatialPartitioner};
use stark_engine::Data;
use stark_geo::DistanceFn;
use std::sync::Arc;

/// A query evaluated on every batch.
#[derive(Debug, Clone)]
pub enum StandingQuery {
    /// All stream records matching `pred` against `query`
    /// (range/intersects/contains filters).
    Filter { name: String, query: STObject, pred: STPredicate },
    /// All stream records within `max_dist` of a reference object.
    WithinDistance { name: String, reference: STObject, max_dist: f64, dist_fn: DistanceFn },
    /// The `k` stream records nearest to a focal object.
    Knn { name: String, focus: STObject, k: usize, dist_fn: DistanceFn },
}

impl StandingQuery {
    pub fn filter(name: impl Into<String>, query: STObject, pred: STPredicate) -> Self {
        StandingQuery::Filter { name: name.into(), query, pred }
    }

    pub fn within_distance(name: impl Into<String>, reference: STObject, max_dist: f64) -> Self {
        StandingQuery::WithinDistance {
            name: name.into(),
            reference,
            max_dist,
            dist_fn: DistanceFn::Euclidean,
        }
    }

    pub fn knn(name: impl Into<String>, focus: STObject, k: usize) -> Self {
        StandingQuery::Knn { name: name.into(), focus, k, dist_fn: DistanceFn::Euclidean }
    }

    pub fn name(&self) -> &str {
        match self {
            StandingQuery::Filter { name, .. }
            | StandingQuery::WithinDistance { name, .. }
            | StandingQuery::Knn { name, .. } => name,
        }
    }
}

/// What one standing query produced for one batch.
#[derive(Debug, Clone)]
pub enum QueryOutput<V> {
    /// Filter / withinDistance matches.
    Matches(Vec<(STObject, V)>),
    /// kNN neighbours with exact distances, nearest first.
    Neighbors(Vec<(f64, (STObject, V))>),
}

impl<V> QueryOutput<V> {
    pub fn len(&self) -> usize {
        match self {
            QueryOutput::Matches(m) => m.len(),
            QueryOutput::Neighbors(n) => n.len(),
        }
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// One standing query's result for one batch.
#[derive(Debug, Clone)]
pub struct QueryResult<V> {
    pub name: String,
    pub output: QueryOutput<V>,
}

/// Index maintenance + query results for one batch.
#[derive(Debug, Clone)]
pub struct BatchEvaluation<V> {
    /// Index partitions the batch's records landed in (0 when unindexed).
    pub partitions_touched: usize,
    /// Partition trees rebuilt for this batch (0 when unindexed).
    pub partitions_rebuilt: usize,
    pub results: Vec<QueryResult<V>>,
}

enum QueryState<V: Data> {
    Indexed(IncrementalIndex<V>),
    Unindexed(Vec<(STObject, V)>),
}

/// Evaluates registered standing queries on every micro-batch.
pub struct ContinuousQueryEngine<V: Data> {
    state: QueryState<V>,
    queries: Vec<StandingQuery>,
}

impl<V: Data> ContinuousQueryEngine<V> {
    /// Engine backed by an incrementally maintained per-partition index.
    pub fn indexed(partitioner: Arc<dyn SpatialPartitioner>, order: usize) -> Self {
        ContinuousQueryEngine {
            state: QueryState::Indexed(IncrementalIndex::new(partitioner, order)),
            queries: Vec::new(),
        }
    }

    /// Baseline engine that linear-scans all records per query.
    pub fn unindexed() -> Self {
        ContinuousQueryEngine { state: QueryState::Unindexed(Vec::new()), queries: Vec::new() }
    }

    /// Registers a standing query (builder style).
    pub fn with_query(mut self, query: StandingQuery) -> Self {
        self.queries.push(query);
        self
    }

    pub fn queries(&self) -> &[StandingQuery] {
        &self.queries
    }

    /// Records accumulated so far.
    pub fn len(&self) -> usize {
        match &self.state {
            QueryState::Indexed(idx) => idx.len(),
            QueryState::Unindexed(all) => all.len(),
        }
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Absorbs a batch, maintains the index, evaluates every query.
    pub fn on_batch(&mut self, batch: &[(STObject, V)]) -> BatchEvaluation<V> {
        let (touched, rebuilt) = match &mut self.state {
            QueryState::Indexed(idx) => {
                let touched = idx.insert_batch(batch.iter().cloned());
                let rebuilt = idx.refresh();
                (touched, rebuilt)
            }
            QueryState::Unindexed(all) => {
                all.extend(batch.iter().cloned());
                (0, 0)
            }
        };
        self.evaluation(touched, rebuilt)
    }

    /// Absorbs a full delta: retractions take their record back out of
    /// the accumulated stream (a membership-checked no-op if it never
    /// arrived — shed or quarantined upstream), then inserts land as in
    /// [`Self::on_batch`]. Every query re-evaluates against the
    /// corrected stream, so a standing result reflects retractions the
    /// batch they arrive.
    pub fn on_delta(&mut self, delta: &Delta<V>) -> BatchEvaluation<V>
    where
        V: PartialEq,
    {
        let (touched, rebuilt) = match &mut self.state {
            QueryState::Indexed(idx) => {
                let removed = idx.remove_batch(delta.retracts.iter().cloned());
                let touched = idx.insert_batch(delta.inserts.iter().cloned());
                let rebuilt = idx.refresh();
                (touched.max(removed.partitions_touched), rebuilt)
            }
            QueryState::Unindexed(all) => {
                for (obj, value) in &delta.retracts {
                    if let Some(i) = all.iter().position(|(o, v)| o == obj && v == value) {
                        all.remove(i);
                    }
                }
                all.extend(delta.inserts.iter().cloned());
                (0, 0)
            }
        };
        self.evaluation(touched, rebuilt)
    }

    fn evaluation(&self, touched: usize, rebuilt: usize) -> BatchEvaluation<V> {
        let results = self
            .queries
            .iter()
            .map(|q| QueryResult { name: q.name().to_string(), output: self.evaluate(q) })
            .collect();
        BatchEvaluation { partitions_touched: touched, partitions_rebuilt: rebuilt, results }
    }

    fn evaluate(&self, q: &StandingQuery) -> QueryOutput<V> {
        match (&self.state, q) {
            (QueryState::Indexed(idx), StandingQuery::Filter { query, pred, .. }) => {
                QueryOutput::Matches(idx.filter(query, *pred))
            }
            (
                QueryState::Indexed(idx),
                StandingQuery::WithinDistance { reference, max_dist, dist_fn, .. },
            ) => QueryOutput::Matches(idx.within_distance(reference, *max_dist, *dist_fn)),
            (QueryState::Indexed(idx), StandingQuery::Knn { focus, k, dist_fn, .. }) => {
                QueryOutput::Neighbors(idx.knn(focus, *k, *dist_fn))
            }
            (QueryState::Unindexed(all), StandingQuery::Filter { query, pred, .. }) => {
                QueryOutput::Matches(
                    all.iter().filter(|(o, _)| pred.eval(o, query)).cloned().collect(),
                )
            }
            (
                QueryState::Unindexed(all),
                StandingQuery::WithinDistance { reference, max_dist, dist_fn, .. },
            ) => QueryOutput::Matches(
                all.iter()
                    .filter(|(o, _)| o.distance(reference, *dist_fn) <= *max_dist)
                    .cloned()
                    .collect(),
            ),
            (QueryState::Unindexed(all), StandingQuery::Knn { focus, k, dist_fn, .. }) => {
                let mut scored: Vec<(f64, (STObject, V))> =
                    all.iter().map(|r| (r.0.distance(focus, *dist_fn), r.clone())).collect();
                scored.sort_by(|a, b| a.0.total_cmp(&b.0));
                scored.truncate(*k);
                QueryOutput::Neighbors(scored)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stark::{DataSummary, GridPartitioner};
    use stark_geo::{Coord, Envelope};

    fn partitioner() -> Arc<dyn SpatialPartitioner> {
        let summary: DataSummary = [(0.0, 0.0), (100.0, 100.0)]
            .iter()
            .map(|&(x, y)| (Envelope::from_point(Coord::new(x, y)), Coord::new(x, y)))
            .collect();
        Arc::new(GridPartitioner::build(4, &summary))
    }

    fn engines() -> (ContinuousQueryEngine<u64>, ContinuousQueryEngine<u64>) {
        let region =
            STObject::from_wkt_interval("POLYGON((10 10, 40 10, 40 40, 10 40, 10 10))", 0, 1 << 40)
                .unwrap();
        let build = |e: ContinuousQueryEngine<u64>| {
            e.with_query(StandingQuery::filter("region", region.clone(), STPredicate::Intersects))
                .with_query(StandingQuery::within_distance(
                    "near-center",
                    STObject::point(50.0, 50.0),
                    15.0,
                ))
                .with_query(StandingQuery::knn("closest", STObject::point(25.0, 25.0), 5))
        };
        (
            build(ContinuousQueryEngine::indexed(partitioner(), 8)),
            build(ContinuousQueryEngine::unindexed()),
        )
    }

    fn batch(seed: u64, n: usize) -> Vec<(STObject, u64)> {
        (0..n)
            .map(|i| {
                let k = seed * 1000 + i as u64;
                let x = ((k * 37) % 101) as f64;
                let y = ((k * 61) % 97) as f64;
                (STObject::point_at(x, y, k as i64), k)
            })
            .collect()
    }

    fn ids(out: &QueryOutput<u64>) -> Vec<u64> {
        let mut v: Vec<u64> = match out {
            QueryOutput::Matches(m) => m.iter().map(|(_, v)| *v).collect(),
            QueryOutput::Neighbors(n) => n.iter().map(|(_, (_, v))| *v).collect(),
        };
        v.sort_unstable();
        v
    }

    #[test]
    fn indexed_and_unindexed_agree_across_batches() {
        let (mut indexed, mut baseline) = engines();
        for b in 0..4 {
            let records = batch(b, 120);
            let fast = indexed.on_batch(&records);
            let slow = baseline.on_batch(&records);
            assert_eq!(fast.results.len(), slow.results.len());
            for (f, s) in fast.results.iter().zip(&slow.results) {
                assert_eq!(f.name, s.name);
                assert_eq!(ids(&f.output), ids(&s.output), "query {} batch {b}", f.name);
            }
            assert!(fast.partitions_touched > 0);
            assert!(fast.partitions_rebuilt > 0);
            assert!(fast.partitions_rebuilt <= indexed_partitions());
        }
        assert_eq!(indexed.len(), baseline.len());
        assert_eq!(indexed.len(), 480);
    }

    fn indexed_partitions() -> usize {
        16
    }

    #[test]
    fn rebuilds_shrink_for_localised_batches() {
        let (mut indexed, _) = engines();
        indexed.on_batch(&batch(0, 200));
        // a batch confined to one corner rebuilds few partitions
        let corner: Vec<(STObject, u64)> =
            (0..50).map(|i| (STObject::point_at(2.0, 3.0, i), 9000 + i as u64)).collect();
        let eval = indexed.on_batch(&corner);
        assert_eq!(eval.partitions_touched, 1);
        assert_eq!(eval.partitions_rebuilt, 1);
    }

    proptest::proptest! {
        /// The unindexed kNN sort must be deterministic with NaN
        /// distances in play (`total_cmp`, not
        /// `partial_cmp(..).unwrap_or(Equal)`).
        #[test]
        fn unindexed_knn_is_deterministic_with_nan_distances(
            pts in proptest::collection::vec(((-20.0f64..20.0), (-20.0f64..20.0)), 5..40),
            nan_at in proptest::collection::vec(0usize..40, 1..5),
            k in 1usize..10,
        ) {
            let mut data: Vec<(STObject, u64)> = pts
                .iter()
                .enumerate()
                .map(|(i, &(x, y))| (STObject::point(x, y), i as u64))
                .collect();
            // NaN rows go among the finite ones: at the tail, a sort that
            // calls NaN equal to everything would leave them in place
            for (i, at) in nan_at.iter().enumerate() {
                let row = (STObject::point(f64::NAN, i as f64), 1000 + i as u64);
                data.insert(at % (data.len() + 1), row);
            }
            let knn = || {
                let mut engine = ContinuousQueryEngine::unindexed()
                    .with_query(StandingQuery::knn("closest", STObject::point(1.0, 1.0), k));
                match engine.on_batch(&data).results.remove(0).output {
                    QueryOutput::Neighbors(n) => n,
                    other => panic!("expected neighbours, got {} matches", other.len()),
                }
            };
            let (a, b) = (knn(), knn());
            proptest::prop_assert_eq!(a.len(), b.len());
            for (x, y) in a.iter().zip(&b) {
                proptest::prop_assert!(x.0.total_cmp(&y.0).is_eq() && x.1 .1 == y.1 .1,
                    "knn with NaN distances is not deterministic");
            }
            // finite neighbours sort ascending and ahead of any NaN
            let finite: Vec<f64> = a.iter().map(|e| e.0).take_while(|d| d.is_finite()).collect();
            proptest::prop_assert!(finite.windows(2).all(|w| w[0] <= w[1]));
            proptest::prop_assert!(finite.len() >= k.min(pts.len()),
                "NaN distances displaced finite neighbours: {:?}",
                a.iter().map(|e| e.0).collect::<Vec<_>>());
        }
    }

    #[test]
    fn knn_is_sorted_and_bounded() {
        let (mut indexed, _) = engines();
        let eval = indexed.on_batch(&batch(1, 50));
        let knn = eval.results.iter().find(|r| r.name == "closest").unwrap();
        match &knn.output {
            QueryOutput::Neighbors(n) => {
                assert_eq!(n.len(), 5);
                assert!(n.windows(2).all(|w| w[0].0 <= w[1].0));
            }
            other => panic!("expected neighbours, got {} matches", other.len()),
        }
    }
}
