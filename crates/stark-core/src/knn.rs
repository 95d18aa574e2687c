//! The one exact k-nearest-neighbour search behind every indexed kNN
//! path: [`crate::IndexedSpatialRdd::knn`], [`crate::IncrementalIndex::knn`]
//! and `knn_join`.
//!
//! One best-first queue holds four kinds of step, keyed by a lower bound
//! on the exact distance of every record the step can still produce:
//!
//! * a *source* (a partition: its extent, an optional STR-tree, and
//!   records not in the tree), keyed by the bound of its extent;
//! * an open tree walk, keyed by its source's bound and then by the
//!   bound of the entry it yielded last ([`StrTree::nearest`] yields
//!   entries in ascending bound order, so that bound also bounds the
//!   rest of the walk);
//! * a candidate record outside any tree, keyed by its envelope's bound;
//! * a scored record, keyed by its exact distance.
//!
//! The bound of an envelope is `dist_fn`'s
//! [`DistanceFn::lower_bound_from_axis_gaps`] of the per-axis gaps
//! between it and the query's envelope, the same bound that
//! `withinDistance` pruning relies on. For Euclidean distance it
//! lower-bounds the distance between any two geometries inside the two
//! envelopes, whatever their kind; Manhattan and Haversine distances are
//! taken between centroids, and a centroid lies inside its envelope. So
//! when a scored record pops, nothing left in the queue can be closer:
//! the k-th scored pop ends the search, and a source whose extent is
//! already farther than that is never opened.

use crate::stobject::STObject;
use stark_geo::{DistanceFn, Envelope};
use stark_index::{BestFirst, Entry, StrTree};

/// One place the search may find records.
pub(crate) struct Source<'a, I> {
    /// Covers the envelope of every record in `tree` and `loose`.
    pub extent: Envelope,
    pub tree: Option<&'a StrTree<I>>,
    /// Records outside the tree.
    pub loose: &'a [Entry<I>],
}

impl<'a, I> Source<'a, I> {
    /// A source that is one tree.
    pub fn tree(tree: &'a StrTree<I>) -> Self {
        Source { extent: tree.bounds(), tree: Some(tree), loose: &[] }
    }
}

#[cfg(test)]
thread_local! {
    static OPENED: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
}

/// Sources this thread has opened since the last call.
#[cfg(test)]
pub(crate) fn take_opened_sources() -> usize {
    OPENED.with(|n| n.replace(0))
}

/// The `k` records nearest to `query` under `dist_fn`, ascending, with
/// their exact distances. `resolve` maps an item to its record and what
/// to return for it, or to `None` for an item that is no longer a record
/// (a tombstone), which the search passes over. Equal distances come out
/// in the order the search reached them.
pub(crate) fn knn<'a, I: 'a, R>(
    query: &STObject,
    k: usize,
    dist_fn: DistanceFn,
    sources: impl IntoIterator<Item = Source<'a, I>>,
    resolve: impl Fn(&'a I) -> Option<(&'a STObject, R)>,
) -> Vec<(f64, R)> {
    enum Step<'a, I, T, R> {
        Source(Source<'a, I>),
        Tree(T),
        Candidate(&'a I),
        Scored(R),
    }

    let q = query.envelope();
    let bound = |env: &Envelope| {
        let (dx, dy) = q.axis_distances(env);
        dist_fn.lower_bound_from_axis_gaps(dx, dy)
    };
    let mut queue = BestFirst::default();
    for source in sources {
        queue.push(bound(&source.extent), Step::Source(source));
    }
    let score = |queue: &mut BestFirst<_>, item: &'a I| {
        if let Some((obj, r)) = resolve(item) {
            queue.push(obj.distance(query, dist_fn), Step::Scored(r));
        }
    };
    let mut out = Vec::with_capacity(k);
    while out.len() < k {
        let Some((key, step)) = queue.pop() else { break };
        match step {
            Step::Source(source) => {
                #[cfg(test)]
                OPENED.with(|n| n.set(n.get() + 1));
                if let Some(tree) = source.tree {
                    queue.push(key, Step::Tree(tree.nearest(&bound)));
                }
                for e in source.loose {
                    queue.push(bound(&e.envelope), Step::Candidate(&e.item));
                }
            }
            Step::Tree(mut walk) => {
                if let Some((next, e)) = walk.next() {
                    score(&mut queue, &e.item);
                    queue.push(next, Step::Tree(walk));
                }
            }
            Step::Candidate(item) => score(&mut queue, item),
            Step::Scored(r) => out.push((key, r)),
        }
    }
    out
}
