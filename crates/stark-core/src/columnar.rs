//! Columnar partition layout for the hot filter predicates.
//!
//! A [`ColumnarBatch`] is the struct-of-arrays sidecar of one partition
//! of `(STObject, V)` rows: contiguous centroid (`cx`/`cy`) and envelope
//! (`min/max`) coordinate columns, `t_start`/`t_end` temporal columns
//! with companion bitmaps, a geometry-offsets + payload-index layout,
//! and lane-classification bitmaps. It is built once per partition via
//! [`Partition::to_columns`](stark_engine::Partition) and cached on the
//! shared allocation, so repeated filters over a cached dataset reuse
//! the same columns.
//!
//! [`ColumnarBatch::apply_filter`] evaluates one [`STPredicate`] against
//! the columns, consuming and producing a [`SelectionBitmap`]: chained
//! filters narrow the same bitmap and only the final survivors are
//! gathered back into rows.
//!
//! # Equivalence contract
//!
//! The columnar path must be **byte-identical** to the row path
//! ([`STPredicate::eval`] per row). That holds by construction:
//!
//! * every coarse envelope kernel mirrors an *exact* envelope
//!   short-circuit the row predicate itself performs first, so a lane
//!   the kernel clears is a lane the row path rejects;
//! * a lane is **decided** without refinement only in cases where the
//!   row path's outcome is forced: point rows against point or
//!   exact-rectangle queries (where the envelope test *is* the
//!   predicate), Haversine/Manhattan `withinDistance` (the row path
//!   measures centroids with the same arithmetic), and the temporal
//!   algebra (re-run exactly from the columns);
//! * every undecided lane is refined by calling the row predicate on
//!   the original row, so disagreement is impossible there;
//! * non-regular lanes (non-finite centroid or envelope) bypass the
//!   coarse kernels entirely and go straight to refinement.

use crate::predicate::STPredicate;
use crate::stobject::STObject;
use crate::temporal::Temporal;
use stark_geo::kernels::{
    retain_env_contains, retain_env_intersects, retain_env_within, retain_euclidean_gap,
    retain_haversine_within, retain_manhattan_within, SelectionBitmap,
};
use stark_geo::{Coord, DistanceFn, Geometry};

/// Struct-of-arrays view of one partition's `(STObject, V)` rows.
#[derive(Debug, Clone)]
pub struct ColumnarBatch {
    len: usize,
    /// Centroid columns — the operands of the distance kernels.
    cx: Vec<f64>,
    cy: Vec<f64>,
    /// Envelope columns — the operands of the coarse spatial kernels.
    /// `NaN` for non-regular lanes so no coarse kernel can select them.
    min_x: Vec<f64>,
    min_y: Vec<f64>,
    max_x: Vec<f64>,
    max_y: Vec<f64>,
    /// Temporal columns; meaningful only where `timed` is set.
    t_start: Vec<i64>,
    t_end: Vec<i64>,
    /// Lane has a temporal component at all.
    timed: SelectionBitmap,
    /// Timed lane is an instant (`t_start`) rather than an interval.
    is_instant: SelectionBitmap,
    /// Timed interval lane is right-open (`[t_start, ∞)`).
    open_end: SelectionBitmap,
    /// Lane has a finite centroid and a finite, non-empty envelope —
    /// eligible for the coarse spatial kernels.
    regular: SelectionBitmap,
    /// Lane's geometry is exactly a `Point` (not merely point-like) —
    /// eligible for envelope-decided predicates.
    exact_point: SelectionBitmap,
    /// Prefix sums of per-row coordinate counts: row `i`'s geometry
    /// owns coordinate slots `geom_offsets[i]..geom_offsets[i + 1]` of
    /// a flattened coordinate store.
    geom_offsets: Vec<u32>,
    /// Lane → index of the backing row in the source partition.
    payload_idx: Vec<u32>,
    /// Every lane is `regular` and an `exact_point`: the batch is plain
    /// finite points, eligible for the point × point join kernel.
    all_points: bool,
}

impl ColumnarBatch {
    /// Builds the columns from one partition's rows (one pass).
    pub fn build<V>(rows: &[(STObject, V)]) -> ColumnarBatch {
        ColumnarBatch::from_objects(rows.iter().map(|(o, _)| o))
    }

    /// Builds the columns from the rows' objects, in row order — for row
    /// types that keep their [`STObject`] somewhere other than `.0`.
    pub fn from_objects<'a>(objects: impl ExactSizeIterator<Item = &'a STObject>) -> ColumnarBatch {
        let n = objects.len();
        let mut b = ColumnarBatch {
            len: n,
            cx: Vec::with_capacity(n),
            cy: Vec::with_capacity(n),
            min_x: Vec::with_capacity(n),
            min_y: Vec::with_capacity(n),
            max_x: Vec::with_capacity(n),
            max_y: Vec::with_capacity(n),
            t_start: Vec::with_capacity(n),
            t_end: Vec::with_capacity(n),
            timed: SelectionBitmap::none_set(n),
            is_instant: SelectionBitmap::none_set(n),
            open_end: SelectionBitmap::none_set(n),
            regular: SelectionBitmap::none_set(n),
            exact_point: SelectionBitmap::none_set(n),
            geom_offsets: Vec::with_capacity(n + 1),
            payload_idx: Vec::with_capacity(n),
            all_points: true,
        };
        b.geom_offsets.push(0);
        let mut coords = 0u32;
        for (i, obj) in objects.enumerate() {
            let c = obj.centroid();
            b.cx.push(c.x);
            b.cy.push(c.y);
            let env = obj.envelope();
            let env_regular = env.min_x().is_finite()
                && env.min_y().is_finite()
                && env.max_x().is_finite()
                && env.max_y().is_finite()
                && !env.is_empty();
            if env_regular && c.is_finite() {
                b.regular.set(i);
                b.min_x.push(env.min_x());
                b.min_y.push(env.min_y());
                b.max_x.push(env.max_x());
                b.max_y.push(env.max_y());
            } else {
                // poison the envelope columns: NaN fails every coarse
                // comparison, so only the refinement path sees the lane
                b.min_x.push(f64::NAN);
                b.min_y.push(f64::NAN);
                b.max_x.push(f64::NAN);
                b.max_y.push(f64::NAN);
            }
            if matches!(obj.geo(), Geometry::Point(_)) {
                b.exact_point.set(i);
            }
            b.all_points &= b.regular.get(i) && b.exact_point.get(i);
            match obj.time() {
                None => {
                    b.t_start.push(0);
                    b.t_end.push(0);
                }
                Some(Temporal::Instant(t)) => {
                    b.timed.set(i);
                    b.is_instant.set(i);
                    b.t_start.push(*t);
                    b.t_end.push(*t);
                }
                Some(Temporal::Interval { start, end }) => {
                    b.timed.set(i);
                    b.t_start.push(*start);
                    match end {
                        Some(e) => b.t_end.push(*e),
                        None => {
                            b.open_end.set(i);
                            b.t_end.push(i64::MAX);
                        }
                    }
                }
            }
            coords += obj.geo().num_coords() as u32;
            b.geom_offsets.push(coords);
            b.payload_idx.push(i as u32);
        }
        b
    }

    /// Number of lanes (rows) in the batch.
    pub fn len(&self) -> usize {
        self.len
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Whether every lane is a finite exact `Point` (see the field).
    pub fn all_points(&self) -> bool {
        self.all_points
    }

    /// Centroid x column (for exact points: the point's x).
    pub fn cx(&self) -> &[f64] {
        &self.cx
    }

    /// Centroid y column (for exact points: the point's y).
    pub fn cy(&self) -> &[f64] {
        &self.cy
    }

    /// Index of the backing row for lane `i`.
    pub fn payload_index(&self, i: usize) -> usize {
        self.payload_idx[i] as usize
    }

    /// Coordinate-slot range row `i`'s geometry occupies in a flattened
    /// coordinate store.
    pub fn geom_range(&self, i: usize) -> std::ops::Range<usize> {
        self.geom_offsets[i] as usize..self.geom_offsets[i + 1] as usize
    }

    /// Reconstructs the exact temporal component of lane `i`.
    fn temporal_at(&self, i: usize) -> Option<Temporal> {
        if !self.timed.get(i) {
            None
        } else if self.is_instant.get(i) {
            Some(Temporal::Instant(self.t_start[i]))
        } else if self.open_end.get(i) {
            Some(Temporal::Interval { start: self.t_start[i], end: None })
        } else {
            Some(Temporal::Interval { start: self.t_start[i], end: Some(self.t_end[i]) })
        }
    }

    /// Clears the lanes whose temporal component fails `pred` against
    /// `query` — exact (it re-runs the `Temporal` algebra on the
    /// columns), so it never needs refinement. Mirrors the paper's
    /// combination rule: an untimed query matches only untimed lanes,
    /// a timed query only timed ones.
    fn apply_temporal(&self, pred: &STPredicate, query: &STObject, sel: &mut SelectionBitmap) {
        match query.time() {
            None => sel.retain(|i| !self.timed.get(i)),
            Some(qt) => sel.retain(|i| match self.temporal_at(i) {
                None => false,
                Some(rt) => match pred {
                    STPredicate::Intersects => rt.intersects(qt),
                    STPredicate::Contains => rt.contains(qt),
                    STPredicate::ContainedBy => qt.contains(&rt),
                    STPredicate::WithinDistance { .. } => true,
                },
            }),
        }
    }

    /// Evaluates `pred(row, query)` over the batch, narrowing `sel` to
    /// the lanes where it holds. `refine` must be the row predicate
    /// (`|i| pred.eval(&rows[i].0, query)`); it is called exactly for
    /// the lanes the kernels cannot decide, which keeps the result
    /// byte-identical to the row path.
    pub fn apply_filter(
        &self,
        pred: &STPredicate,
        query: &STObject,
        sel: &mut SelectionBitmap,
        mut refine: impl FnMut(usize) -> bool,
    ) {
        assert_eq!(sel.len(), self.len, "selection bitmap length mismatch");
        match pred {
            STPredicate::Intersects | STPredicate::Contains | STPredicate::ContainedBy => {
                // 1. temporal kernel — exact, drops lanes outright
                self.apply_temporal(pred, query, sel);

                // 2. coarse spatial kernel over the envelope columns
                let q_env = query.envelope();
                if q_env.is_empty() {
                    // the row path's envelope short-circuits reject every
                    // row against an empty query envelope
                    sel.retain(|_| false);
                    return;
                }
                let mut cand = sel.clone();
                match pred {
                    STPredicate::Intersects => retain_env_intersects(
                        &mut cand,
                        &self.min_x,
                        &self.min_y,
                        &self.max_x,
                        &self.max_y,
                        &q_env,
                    ),
                    STPredicate::ContainedBy => retain_env_within(
                        &mut cand,
                        &self.min_x,
                        &self.min_y,
                        &self.max_x,
                        &self.max_y,
                        &q_env,
                    ),
                    STPredicate::Contains => retain_env_contains(
                        &mut cand,
                        &self.min_x,
                        &self.min_y,
                        &self.max_x,
                        &self.max_y,
                        &q_env,
                    ),
                    STPredicate::WithinDistance { .. } => unreachable!(),
                }

                // 3. decide or refine. For point rows the envelope test
                //    *is* the predicate when the query is a point or an
                //    exact axis-parallel rectangle (intersects /
                //    containedBy) or a point/multipoint (contains).
                let decide_points = match pred {
                    STPredicate::Intersects | STPredicate::ContainedBy => {
                        query_is_exact_rect(query.geo())
                    }
                    STPredicate::Contains => {
                        matches!(query.geo(), Geometry::Point(_) | Geometry::MultiPoint(_))
                    }
                    STPredicate::WithinDistance { .. } => unreachable!(),
                };
                sel.retain(|i| {
                    if !self.regular.get(i) {
                        // non-finite lanes never consult the kernels
                        return refine(i);
                    }
                    if !cand.get(i) {
                        // the row path rejects on the same exact envelope test
                        return false;
                    }
                    if decide_points && self.exact_point.get(i) {
                        true
                    } else {
                        refine(i)
                    }
                });
            }
            STPredicate::WithinDistance { max_dist, dist_fn } => match dist_fn {
                // Haversine and Manhattan measure centroids on the row
                // path too — same arithmetic, so the kernel decides every
                // lane (NaN centroids fail on both paths).
                DistanceFn::Haversine => {
                    let qc = query.centroid();
                    retain_haversine_within(sel, &self.cx, &self.cy, &qc, *max_dist);
                }
                DistanceFn::Manhattan => {
                    let qc = query.centroid();
                    retain_manhattan_within(sel, &self.cx, &self.cy, &qc, *max_dist);
                }
                // Euclidean measures exact geometry distance, which the
                // columns cannot reproduce: prune with a padded envelope
                // lower bound, then refine every survivor.
                DistanceFn::Euclidean => {
                    let q_env = query.envelope();
                    if !q_env.is_empty() {
                        // pad above the cutoff: the row path rounds
                        // sqrt(dx²+dy²) differently from hypot
                        let limit = max_dist + 1e-9 * (1.0 + max_dist.abs());
                        retain_euclidean_gap(
                            sel,
                            &self.min_x,
                            &self.min_y,
                            &self.max_x,
                            &self.max_y,
                            &q_env,
                            limit,
                        );
                    }
                    sel.retain(&mut refine);
                }
            },
        }
    }
}

/// Whether `geo` is a point, or a hole-free axis-parallel rectangle
/// whose four corners are exactly its envelope corners — the query
/// shapes for which "point in envelope" *exactly* decides
/// intersects/containedBy (the rectangle's closed region *is* its
/// envelope, and the ray-cast classifies every envelope point as
/// boundary or interior).
fn query_is_exact_rect(geo: &Geometry) -> bool {
    match geo {
        Geometry::Point(_) => true,
        Geometry::Polygon(pg) => {
            if !pg.holes().is_empty() {
                return false;
            }
            let c = pg.exterior().coords_open();
            if c.len() != 4 {
                return false;
            }
            let env = geo.envelope();
            if !(env.min_x() < env.max_x() && env.min_y() < env.max_y()) {
                return false;
            }
            let on_corner = |p: &Coord| {
                (p.x == env.min_x() || p.x == env.max_x())
                    && (p.y == env.min_y() || p.y == env.max_y())
            };
            if !c.iter().all(on_corner) {
                return false;
            }
            // pairwise distinct corners: degenerate revisits would trace
            // a zero-area path, not the rectangle
            for i in 0..4 {
                for j in (i + 1)..4 {
                    if c[i].x == c[j].x && c[i].y == c[j].y {
                        return false;
                    }
                }
            }
            // closed ring must move axis-parallel between corners; with
            // the conditions above the only such cycles are the two
            // rectangle traversals
            (0..4).all(|i| {
                let a = &c[i];
                let b = &c[(i + 1) % 4];
                a.x == b.x || a.y == b.y
            })
        }
        _ => false,
    }
}

/// Convenience used by tests and the engine integration: evaluates a
/// whole predicate chain over one slice of rows columnar-ly, returning
/// the surviving row indices. The production path in
/// [`SpatialRdd`](crate::spatial_rdd::SpatialRdd) does the same but
/// reuses the partition-cached batch.
pub fn columnar_filter_indices<V>(
    rows: &[(STObject, V)],
    chain: &[(STPredicate, STObject)],
) -> Vec<usize> {
    let batch = ColumnarBatch::build(rows);
    let mut sel = SelectionBitmap::all_set(rows.len());
    for (pred, query) in chain {
        if sel.count() == 0 {
            break;
        }
        batch.apply_filter(pred, query, &mut sel, |i| pred.eval(&rows[i].0, query));
    }
    sel.to_indices().into_iter().map(|i| batch.payload_index(i)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pt(x: f64, y: f64) -> (STObject, u64) {
        (STObject::point(x, y), (x * 1000.0 + y) as u64)
    }

    fn rows_vs_columns(rows: &[(STObject, u64)], chain: &[(STPredicate, STObject)]) {
        let columnar = columnar_filter_indices(rows, chain);
        let row_path: Vec<usize> =
            (0..rows.len()).filter(|&i| chain.iter().all(|(p, q)| p.eval(&rows[i].0, q))).collect();
        assert_eq!(columnar, row_path, "columnar and row paths disagree");
    }

    #[test]
    fn layout_records_offsets_and_payload_indices() {
        let rows = vec![
            (STObject::point(1.0, 2.0), 0u64),
            (STObject::new(Geometry::from_wkt("POLYGON((0 0, 4 0, 4 4, 0 4, 0 0))").unwrap()), 1),
        ];
        let b = ColumnarBatch::build(&rows);
        assert_eq!(b.len(), 2);
        assert_eq!(b.geom_range(0), 0..1);
        assert_eq!(b.geom_range(1), 1..6, "closed polygon ring has 5 coords");
        assert_eq!(b.payload_index(0), 0);
        assert_eq!(b.payload_index(1), 1);
        assert!(!b.all_points(), "a polygon lane");
    }

    #[test]
    fn all_points_needs_finite_exact_points() {
        let pts = vec![pt(1.0, 2.0), pt(3.0, -4.0)];
        let b = ColumnarBatch::build(&pts);
        assert!(b.all_points());
        assert_eq!((b.cx(), b.cy()), (&[1.0, 3.0][..], &[2.0, -4.0][..]));
        assert!(ColumnarBatch::build::<u64>(&[]).all_points());
        assert!(!ColumnarBatch::build(&[pt(1.0, 2.0), pt(f64::NAN, 0.0)]).all_points());
        let multi = STObject::new(Geometry::from_wkt("MULTIPOINT((1 1))").unwrap());
        assert!(!ColumnarBatch::build(&[(multi, 0u64)]).all_points(), "point-like is not a point");
    }

    #[test]
    fn rect_query_chain_matches_row_path() {
        let mut rows = Vec::new();
        for i in 0..40 {
            rows.push(pt(i as f64 * 0.5, (i % 7) as f64));
        }
        // the boundary cases the exact-rectangle decision must honour
        rows.push(pt(2.0, 0.0)); // on the query's corner
        rows.push(pt(2.0, 3.5)); // on an edge
        let q = STObject::new(Geometry::from_wkt("POLYGON((2 0, 9 0, 9 6, 2 6, 2 0))").unwrap());
        rows_vs_columns(&rows, &[(STPredicate::Intersects, q.clone())]);
        rows_vs_columns(&rows, &[(STPredicate::ContainedBy, q.clone())]);
        rows_vs_columns(&rows, &[(STPredicate::Contains, q)]);
    }

    #[test]
    fn non_rect_queries_fall_back_to_refinement() {
        let rows: Vec<_> = (0..30).map(|i| pt(i as f64, i as f64 * 0.3)).collect();
        // a triangle is never envelope-decided
        let tri = STObject::new(Geometry::from_wkt("POLYGON((0 0, 10 0, 0 10, 0 0))").unwrap());
        assert!(!query_is_exact_rect(tri.geo()));
        rows_vs_columns(&rows, &[(STPredicate::Intersects, tri.clone())]);
        rows_vs_columns(&rows, &[(STPredicate::ContainedBy, tri)]);
    }

    #[test]
    fn degenerate_rectangles_are_not_exact() {
        // a zero-area "rectangle" revisiting corners must not be decided
        let degen = Geometry::from_wkt("POLYGON((0 0, 5 0, 0 0, 0 5, 0 0))")
            .map(|g| query_is_exact_rect(&g));
        if let Ok(flag) = degen {
            assert!(!flag);
        }
        let line_env = Geometry::from_wkt("POLYGON((0 0, 5 0, 5 0, 0 0, 0 0))")
            .map(|g| query_is_exact_rect(&g));
        if let Ok(flag) = line_env {
            assert!(!flag);
        }
    }

    #[test]
    fn temporal_kernel_is_exact() {
        let timed = |x: f64, s: i64, e: i64| {
            (STObject::with_time(Geometry::point(x, 0.0), Temporal::interval(s, e)), x as u64)
        };
        let rows = vec![
            (STObject::point(1.0, 0.0), 100u64), // untimed
            timed(2.0, 0, 10),
            timed(3.0, 5, 25),
            timed(4.0, 30, 40),
            (STObject::with_time(Geometry::point(5.0, 0.0), Temporal::instant(7)), 101),
            (STObject::with_time(Geometry::point(6.0, 0.0), Temporal::from_instant_on(20)), 102),
            (STObject::with_time(Geometry::point(7.0, 0.0), Temporal::instant(35)), 103),
        ];
        let q_rect = "POLYGON((0 0, 10 0, 10 1, 0 1, 0 0))";
        let q_timed = STObject::from_wkt_interval(q_rect, 5, 20).unwrap();
        let q_untimed = STObject::new(Geometry::from_wkt(q_rect).unwrap());
        for pred in [STPredicate::Intersects, STPredicate::Contains, STPredicate::ContainedBy] {
            rows_vs_columns(&rows, &[(pred, q_timed.clone())]);
            rows_vs_columns(&rows, &[(pred, q_untimed.clone())]);
        }
    }

    #[test]
    fn within_distance_kernels_match_row_path() {
        let rows: Vec<_> = (0..50).map(|i| pt((i % 10) as f64, (i / 10) as f64)).collect();
        let q = STObject::point(4.5, 2.5);
        for dist_fn in [DistanceFn::Euclidean, DistanceFn::Haversine, DistanceFn::Manhattan] {
            let pred = STPredicate::WithinDistance { max_dist: 250_000.0, dist_fn };
            rows_vs_columns(&rows, &[(pred, q.clone())]);
            let tight = STPredicate::WithinDistance { max_dist: 2.0, dist_fn };
            rows_vs_columns(&rows, &[(tight, q.clone())]);
        }
    }

    #[test]
    fn nan_rows_match_row_path_on_every_predicate() {
        let mut rows: Vec<_> = (0..10).map(|i| pt(i as f64, 1.0)).collect();
        rows.push(pt(f64::NAN, 3.0));
        rows.push(pt(2.0, f64::INFINITY));
        let q = STObject::new(Geometry::from_wkt("POLYGON((0 0, 5 0, 5 5, 0 5, 0 0))").unwrap());
        rows_vs_columns(&rows, &[(STPredicate::Intersects, q.clone())]);
        rows_vs_columns(&rows, &[(STPredicate::ContainedBy, q.clone())]);
        rows_vs_columns(&rows, &[(STPredicate::Contains, q.clone())]);
        for dist_fn in [DistanceFn::Euclidean, DistanceFn::Haversine, DistanceFn::Manhattan] {
            let pred = STPredicate::WithinDistance { max_dist: 3.0, dist_fn };
            rows_vs_columns(&rows, &[(pred, STObject::point(2.0, 2.0))]);
        }
    }

    #[test]
    fn chained_filters_narrow_one_bitmap() {
        let rows: Vec<_> = (0..100).map(|i| pt((i % 20) as f64, (i / 20) as f64)).collect();
        let big =
            STObject::new(Geometry::from_wkt("POLYGON((1 0, 15 0, 15 4, 1 4, 1 0))").unwrap());
        let near = STPredicate::within_distance(4.0);
        let chain = vec![(STPredicate::ContainedBy, big), (near, STObject::point(8.0, 2.0))];
        rows_vs_columns(&rows, &chain);
    }
}
