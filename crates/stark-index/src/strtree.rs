//! A Sort-Tile-Recursive packed R-tree.
//!
//! This is the reproduction's equivalent of the JTS `STRtree` that STARK
//! uses for live and persistent indexing (paper §2.2). The tree is built
//! once from a batch of `(Envelope, item)` entries — exactly the shape of
//! "index the content of a partition" — and then serves:
//!
//! * envelope range queries ([`StrTree::query`]), returning *candidates*
//!   whose MBRs intersect the query MBR (callers refine with the exact
//!   predicate, mirroring STARK's candidate-pruning step);
//! * best-first search ([`StrTree::nearest`]): entries in ascending
//!   order of a caller-supplied lower bound on node and entry envelopes,
//!   lazily, so a kNN caller reads only as far as its exact refine needs.
//!   [`StrTree::nearest_k`] is the point-target case of it.

use serde::{Deserialize, Serialize};
use stark_geo::{Coord, Envelope};
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// Default node capacity ("order of the tree"); the paper's running
/// example uses `liveIndex(order = 5)`.
pub const DEFAULT_ORDER: usize = 5;

/// One indexed item: its minimum bounding rectangle plus the payload.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Entry<T> {
    pub envelope: Envelope,
    pub item: T,
}

impl<T> Entry<T> {
    pub fn new(envelope: Envelope, item: T) -> Self {
        Entry { envelope, item }
    }
}

#[derive(Debug, Clone, Serialize, Deserialize)]
enum Node<T> {
    Leaf { bounds: Envelope, entries: Vec<Entry<T>> },
    Inner { bounds: Envelope, children: Vec<Node<T>> },
}

impl<T> Node<T> {
    fn bounds(&self) -> &Envelope {
        match self {
            Node::Leaf { bounds, .. } | Node::Inner { bounds, .. } => bounds,
        }
    }
}

/// A bulk-loaded, immutable R-tree packed with the STR algorithm.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct StrTree<T> {
    root: Option<Node<T>>,
    order: usize,
    len: usize,
}

impl<T> StrTree<T> {
    /// Bulk-loads a tree with the given node capacity (`order >= 2`).
    ///
    /// Sort-Tile-Recursive packing: entries are sorted by MBR-centre x and
    /// cut into vertical slices of ~`sqrt(n/order)` columns; each slice is
    /// sorted by centre y and cut into runs of `order` entries, producing
    /// leaves with near-unit fill factor. The process repeats on the node
    /// MBRs until a single root remains.
    pub fn build(order: usize, entries: Vec<Entry<T>>) -> Self {
        let order = order.max(2);
        let len = entries.len();
        if entries.is_empty() {
            return StrTree { root: None, order, len: 0 };
        }

        // Pack the leaf level.
        let mut level: Vec<Node<T>> = str_pack(entries, order, |e| e.envelope)
            .into_iter()
            .map(|group| {
                let mut bounds = Envelope::empty();
                for e in &group {
                    bounds.expand_to_include_envelope(&e.envelope);
                }
                Node::Leaf { bounds, entries: group }
            })
            .collect();

        // Pack upper levels until one node remains.
        while level.len() > 1 {
            level = str_pack(level, order, |n| *n.bounds())
                .into_iter()
                .map(|group| {
                    let mut bounds = Envelope::empty();
                    for n in &group {
                        bounds.expand_to_include_envelope(n.bounds());
                    }
                    Node::Inner { bounds, children: group }
                })
                .collect();
        }

        StrTree { root: level.pop(), order, len }
    }

    /// Number of indexed entries.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the tree holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The node capacity this tree was built with.
    pub fn order(&self) -> usize {
        self.order
    }

    /// MBR of everything in the tree; empty envelope when empty.
    pub fn bounds(&self) -> Envelope {
        self.root.as_ref().map_or_else(Envelope::empty, |r| *r.bounds())
    }

    /// Returns references to all entries whose MBR intersects `query`.
    ///
    /// These are candidates in the R-tree sense: the caller must re-check
    /// the exact geometry predicate.
    pub fn query<'a>(&'a self, query: &Envelope, out: &mut Vec<&'a Entry<T>>) {
        if let Some(root) = &self.root {
            query_node(root, query, out);
        }
    }

    /// Convenience wrapper over [`StrTree::query`] allocating the result.
    pub fn query_vec(&self, query: &Envelope) -> Vec<&Entry<T>> {
        let mut out = Vec::new();
        self.query(query, &mut out);
        out
    }

    /// Visits every entry whose MBR intersects `query`.
    pub fn for_each_candidate<'a>(&'a self, query: &Envelope, f: &mut impl FnMut(&'a Entry<T>)) {
        fn walk<'a, T>(node: &'a Node<T>, query: &Envelope, f: &mut impl FnMut(&'a Entry<T>)) {
            match node {
                Node::Leaf { bounds, entries } => {
                    if bounds.intersects(query) {
                        for e in entries {
                            if e.envelope.intersects(query) {
                                f(e);
                            }
                        }
                    }
                }
                Node::Inner { bounds, children } => {
                    if bounds.intersects(query) {
                        for c in children {
                            walk(c, query, f);
                        }
                    }
                }
            }
        }
        if let Some(root) = &self.root {
            walk(root, query, f);
        }
    }

    /// Entries in ascending order of `bound`, which is applied to node
    /// and entry envelopes alike, paired with their bound. `bound` must
    /// not grow as an envelope shrinks: a node's bound may not exceed
    /// that of any envelope inside it, as any distance from a fixed
    /// target to a rectangle satisfies. Lazy: only the nodes needed for
    /// the entries read so far are opened. Ties come out in the order
    /// they were reached, so the order depends on the tree and `bound`
    /// alone.
    pub fn nearest<B: Fn(&Envelope) -> f64>(&self, bound: B) -> Nearest<'_, T, B> {
        let mut heap = BestFirst::default();
        if let Some(root) = &self.root {
            heap.push(bound(root.bounds()), Step::Node(root));
        }
        Nearest { bound, heap }
    }

    /// The `k` entries nearest to `target` by envelope distance,
    /// ascending: [`StrTree::nearest`] with the point-to-rectangle
    /// distance. That is the exact Euclidean distance for point entries
    /// and a lower bound for extended ones.
    pub fn nearest_k(&self, target: &Coord, k: usize) -> Vec<(f64, &Entry<T>)> {
        self.nearest(|e| e.distance_to_coord(target)).take(k).collect()
    }

    /// Iterates over every entry in the tree (arbitrary order).
    pub fn iter(&self) -> impl Iterator<Item = &Entry<T>> {
        let mut node_stack: Vec<&Node<T>> = self.root.iter().collect();
        let mut leaf: std::slice::Iter<'_, Entry<T>> = [].iter();
        std::iter::from_fn(move || loop {
            if let Some(e) = leaf.next() {
                return Some(e);
            }
            match node_stack.pop()? {
                Node::Leaf { entries, .. } => leaf = entries.iter(),
                Node::Inner { children, .. } => node_stack.extend(children.iter()),
            }
        })
    }

    /// Depth of the tree (0 when empty, 1 for a single leaf).
    pub fn depth(&self) -> usize {
        fn d<T>(n: &Node<T>) -> usize {
            match n {
                Node::Leaf { .. } => 1,
                Node::Inner { children, .. } => 1 + children.iter().map(d).max().unwrap_or(0),
            }
        }
        self.root.as_ref().map_or(0, d)
    }

    /// Collects references to all entries.
    pub fn entries(&self) -> Vec<&Entry<T>> {
        let mut out = Vec::with_capacity(self.len);
        fn walk<'a, T>(n: &'a Node<T>, out: &mut Vec<&'a Entry<T>>) {
            match n {
                Node::Leaf { entries, .. } => out.extend(entries.iter()),
                Node::Inner { children, .. } => children.iter().for_each(|c| walk(c, out)),
            }
        }
        if let Some(root) = &self.root {
            walk(root, &mut out);
        }
        out
    }
}

fn query_node<'a, T>(node: &'a Node<T>, query: &Envelope, out: &mut Vec<&'a Entry<T>>) {
    match node {
        Node::Leaf { bounds, entries } => {
            if bounds.intersects(query) {
                for e in entries {
                    if e.envelope.intersects(query) {
                        out.push(e);
                    }
                }
            }
        }
        Node::Inner { bounds, children } => {
            if bounds.intersects(query) {
                for c in children {
                    query_node(c, query, out);
                }
            }
        }
    }
}

/// Groups `items` into runs of at most `order` using STR tiling.
fn str_pack<I>(mut items: Vec<I>, order: usize, env_of: impl Fn(&I) -> Envelope) -> Vec<Vec<I>> {
    let n = items.len();
    let num_groups = n.div_ceil(order);
    if num_groups <= 1 {
        return vec![items];
    }
    let num_slices = (num_groups as f64).sqrt().ceil() as usize;
    let slice_cap = num_groups.div_ceil(num_slices) * order;

    items.sort_by(|a, b| {
        let ca = env_of(a).center().x;
        let cb = env_of(b).center().x;
        ca.total_cmp(&cb)
    });

    let mut groups = Vec::with_capacity(num_groups);
    let mut rest = items;
    while !rest.is_empty() {
        let take = slice_cap.min(rest.len());
        let mut slice: Vec<I> = rest.drain(..take).collect();
        slice.sort_by(|a, b| {
            let ca = env_of(a).center().y;
            let cb = env_of(b).center().y;
            ca.total_cmp(&cb)
        });
        while !slice.is_empty() {
            let take = order.min(slice.len());
            groups.push(slice.drain(..take).collect());
        }
    }
    groups
}

/// The lazy best-first walk returned by [`StrTree::nearest`].
pub struct Nearest<'a, T, B> {
    bound: B,
    heap: BestFirst<Step<'a, T>>,
}

enum Step<'a, T> {
    Node(&'a Node<T>),
    Entry(&'a Entry<T>),
}

impl<'a, T, B: Fn(&Envelope) -> f64> Iterator for Nearest<'a, T, B> {
    type Item = (f64, &'a Entry<T>);

    fn next(&mut self) -> Option<Self::Item> {
        loop {
            match self.heap.pop()? {
                (key, Step::Entry(e)) => return Some((key, e)),
                (_, Step::Node(Node::Leaf { entries, .. })) => {
                    for e in entries {
                        self.heap.push((self.bound)(&e.envelope), Step::Entry(e));
                    }
                }
                (_, Step::Node(Node::Inner { children, .. })) => {
                    for c in children {
                        self.heap.push((self.bound)(c.bounds()), Step::Node(c));
                    }
                }
            }
        }
    }
}

/// A min-queue of items keyed by `f64`. Keys compare by
/// [`f64::total_cmp`], a total order, so a NaN key has a fixed place
/// instead of scrambling the heap; equal keys pop in push order.
pub struct BestFirst<I> {
    heap: BinaryHeap<Keyed<I>>,
    pushed: u64,
}

struct Keyed<I> {
    key: f64,
    seq: u64,
    item: I,
}

impl<I> BestFirst<I> {
    pub fn push(&mut self, key: f64, item: I) {
        self.heap.push(Keyed { key, seq: self.pushed, item });
        self.pushed += 1;
    }

    /// The smallest key and its item.
    pub fn pop(&mut self) -> Option<(f64, I)> {
        self.heap.pop().map(|k| (k.key, k.item))
    }
}

impl<I> Default for BestFirst<I> {
    fn default() -> Self {
        BestFirst { heap: BinaryHeap::new(), pushed: 0 }
    }
}

impl<I> Ord for Keyed<I> {
    /// Reversed, so the max-heap pops the smallest `(key, seq)` first.
    fn cmp(&self, other: &Self) -> Ordering {
        other.key.total_cmp(&self.key).then(other.seq.cmp(&self.seq))
    }
}

impl<I> PartialOrd for Keyed<I> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<I> PartialEq for Keyed<I> {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl<I> Eq for Keyed<I> {}

#[cfg(test)]
mod tests {
    use super::*;

    fn point_entries(pts: &[(f64, f64)]) -> Vec<Entry<usize>> {
        pts.iter()
            .enumerate()
            .map(|(i, &(x, y))| Entry::new(Envelope::from_point(Coord::new(x, y)), i))
            .collect()
    }

    #[test]
    fn empty_tree() {
        let t: StrTree<usize> = StrTree::build(5, vec![]);
        assert!(t.is_empty());
        assert_eq!(t.len(), 0);
        assert_eq!(t.depth(), 0);
        assert!(t.bounds().is_empty());
        assert!(t.query_vec(&Envelope::from_bounds(0.0, 0.0, 1.0, 1.0)).is_empty());
        assert!(t.nearest_k(&Coord::new(0.0, 0.0), 3).is_empty());
    }

    #[test]
    fn single_entry() {
        let t = StrTree::build(5, point_entries(&[(1.0, 1.0)]));
        assert_eq!(t.len(), 1);
        assert_eq!(t.depth(), 1);
        assert_eq!(t.query_vec(&Envelope::from_bounds(0.0, 0.0, 2.0, 2.0)).len(), 1);
        assert!(t.query_vec(&Envelope::from_bounds(2.0, 2.0, 3.0, 3.0)).is_empty());
    }

    #[test]
    fn query_matches_linear_scan() {
        let pts: Vec<(f64, f64)> = (0..100).map(|i| ((i % 10) as f64, (i / 10) as f64)).collect();
        let t = StrTree::build(4, point_entries(&pts));
        assert_eq!(t.len(), 100);
        let q = Envelope::from_bounds(2.5, 2.5, 6.5, 4.5);
        let mut got: Vec<usize> = t.query_vec(&q).into_iter().map(|e| e.item).collect();
        got.sort_unstable();
        let mut expect: Vec<usize> = pts
            .iter()
            .enumerate()
            .filter(|(_, &(x, y))| q.contains_coord(&Coord::new(x, y)))
            .map(|(i, _)| i)
            .collect();
        expect.sort_unstable();
        assert_eq!(got, expect);
    }

    #[test]
    fn nearest_k_ordering() {
        let pts: Vec<(f64, f64)> = (0..50).map(|i| (i as f64, 0.0)).collect();
        let t = StrTree::build(5, point_entries(&pts));
        let nn = t.nearest_k(&Coord::new(10.2, 0.0), 3);
        let items: Vec<usize> = nn.iter().map(|(_, e)| e.item).collect();
        assert_eq!(items, vec![10, 11, 9]);
        // distances ascend
        assert!(nn.windows(2).all(|w| w[0].0 <= w[1].0));
    }

    #[test]
    fn nearest_follows_any_bound_in_total_order() {
        let mut pts: Vec<(f64, f64)> = (0..40).map(|i| (i as f64, (i % 3) as f64)).collect();
        pts.push((f64::NAN, 0.0));
        let t = StrTree::build(4, point_entries(&pts));
        // the x-gap to the line x = 7, NaN for the NaN entry
        let gap = |e: &Envelope| {
            let gap = (e.min_x() - 7.0).max(7.0 - e.max_x());
            if gap < 0.0 {
                0.0
            } else {
                gap
            }
        };
        let walk: Vec<(f64, usize)> = t.nearest(gap).map(|(b, e)| (b, e.item)).collect();
        assert_eq!(walk.len(), 41);
        assert!(walk.windows(2).all(|w| w[0].0.total_cmp(&w[1].0).is_le()), "{walk:?}");
        assert_eq!(&walk[..1], &[(0.0, 7)]);
        assert_eq!(walk[40].1, 40, "the NaN bound sorts after every number");
    }

    #[test]
    fn nearest_k_larger_than_len_returns_all() {
        let t = StrTree::build(3, point_entries(&[(0.0, 0.0), (1.0, 0.0), (2.0, 0.0)]));
        assert_eq!(t.nearest_k(&Coord::new(0.0, 0.0), 10).len(), 3);
        assert!(t.nearest_k(&Coord::new(0.0, 0.0), 0).is_empty());
    }

    #[test]
    fn deep_tree_structure() {
        let pts: Vec<(f64, f64)> = (0..1000).map(|i| ((i % 33) as f64, (i / 33) as f64)).collect();
        let t = StrTree::build(4, point_entries(&pts));
        assert!(t.depth() >= 4, "depth {}", t.depth());
        assert_eq!(t.entries().len(), 1000);
        // full-space query returns everything
        assert_eq!(t.query_vec(&t.bounds()).len(), 1000);
    }

    #[test]
    fn rect_entries_candidates_are_superset() {
        // two rectangles whose MBRs intersect the query but whose exact
        // geometry may not — the tree must return them as candidates.
        let entries = vec![
            Entry::new(Envelope::from_bounds(0.0, 0.0, 4.0, 4.0), "a"),
            Entry::new(Envelope::from_bounds(10.0, 10.0, 14.0, 14.0), "b"),
        ];
        let t = StrTree::build(5, entries);
        let q = Envelope::from_bounds(3.0, 3.0, 5.0, 5.0);
        let got = t.query_vec(&q);
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].item, "a");
    }

    #[test]
    fn order_is_clamped() {
        let t = StrTree::build(0, point_entries(&[(0.0, 0.0), (1.0, 1.0), (2.0, 2.0)]));
        assert_eq!(t.order(), 2);
        assert_eq!(t.len(), 3);
    }

    #[test]
    fn all_identical_coordinates() {
        // mass of coincident points must not break packing or queries
        let entries: Vec<Entry<usize>> =
            (0..500).map(|i| Entry::new(Envelope::from_point(Coord::new(3.0, 3.0)), i)).collect();
        let t = StrTree::build(4, entries);
        assert_eq!(t.len(), 500);
        assert_eq!(t.query_vec(&Envelope::from_point(Coord::new(3.0, 3.0))).len(), 500);
        assert!(t.query_vec(&Envelope::from_point(Coord::new(3.1, 3.0))).is_empty());
        let nn = t.nearest_k(&Coord::new(0.0, 0.0), 7);
        assert_eq!(nn.len(), 7);
        assert!(nn.iter().all(|(d, _)| (*d - 18.0f64.sqrt()).abs() < 1e-9));
    }

    #[test]
    fn huge_order_single_leaf() {
        let entries = point_entries(&[(0.0, 0.0), (1.0, 1.0), (2.0, 2.0)]);
        let t = StrTree::build(1000, entries);
        assert_eq!(t.depth(), 1);
        assert_eq!(t.query_vec(&t.bounds()).len(), 3);
    }

    #[test]
    fn negative_and_mixed_coordinates() {
        let t = StrTree::build(
            3,
            point_entries(&[(-10.0, -10.0), (0.0, 0.0), (10.0, 10.0), (-5.0, 5.0)]),
        );
        let q = Envelope::from_bounds(-11.0, -11.0, -4.0, 6.0);
        let mut got: Vec<usize> = t.query_vec(&q).into_iter().map(|e| e.item).collect();
        got.sort_unstable();
        assert_eq!(got, vec![0, 3]);
    }

    #[test]
    fn serde_roundtrip() {
        let pts: Vec<(f64, f64)> = (0..64).map(|i| (i as f64, (i * 7 % 13) as f64)).collect();
        let t = StrTree::build(5, point_entries(&pts));
        let json = serde_json::to_string(&t).unwrap();
        let back: StrTree<usize> = serde_json::from_str(&json).unwrap();
        assert_eq!(back.len(), t.len());
        let q = Envelope::from_bounds(3.0, 0.0, 20.0, 9.0);
        let mut a: Vec<usize> = t.query_vec(&q).into_iter().map(|e| e.item).collect();
        let mut b: Vec<usize> = back.query_vec(&q).into_iter().map(|e| e.item).collect();
        a.sort_unstable();
        b.sort_unstable();
        assert_eq!(a, b);
    }

    #[test]
    fn for_each_candidate_agrees_with_query() {
        let pts: Vec<(f64, f64)> = (0..200).map(|i| ((i % 20) as f64, (i / 20) as f64)).collect();
        let t = StrTree::build(6, point_entries(&pts));
        let q = Envelope::from_bounds(1.0, 1.0, 7.0, 5.0);
        let mut via_cb = Vec::new();
        t.for_each_candidate(&q, &mut |e| via_cb.push(e.item));
        let mut via_q: Vec<usize> = t.query_vec(&q).into_iter().map(|e| e.item).collect();
        via_cb.sort_unstable();
        via_q.sort_unstable();
        assert_eq!(via_cb, via_q);
    }
}
