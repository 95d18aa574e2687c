//! Columnar predicate kernels over struct-of-arrays coordinate columns.
//!
//! The row-at-a-time predicates in [`algorithms::relate`](crate::algorithms)
//! dispatch on geometry kind per record; the hot filter paths of the
//! engine instead evaluate one predicate over *columns* of envelope and
//! centroid coordinates, keeping a [`SelectionBitmap`] of surviving
//! lanes. Each kernel consumes the bitmap and clears the lanes that fail
//! its test, so a chain of kernels evaluates filter→filter without
//! re-materialising rows in between.
//!
//! Soundness contract: every comparison here is *exact* (`<=` / `<` on
//! `f64`, no epsilon), mirroring the envelope short-circuits the row
//! predicates themselves perform first. A lane cleared by a coarse
//! kernel is a lane the row path would also reject; lanes the kernels
//! cannot decide stay set and must be refined row-at-a-time by the
//! caller. `NaN` coordinates fail every comparison, so callers must
//! route non-finite lanes around the coarse kernels (see the `finite`
//! bitmap kept by the engine's columnar batches).

use crate::coord::Coord;
use crate::distance::{haversine, EARTH_RADIUS_M};
use crate::envelope::Envelope;

/// A dense bitmap of selected row lanes, one bit per row.
///
/// Kernels treat a set bit as "still a candidate" and clear bits as
/// they rule lanes out; the bitmap is the only state flowing between
/// the stages of a fused columnar filter chain.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SelectionBitmap {
    words: Vec<u64>,
    len: usize,
}

impl SelectionBitmap {
    /// A bitmap of `len` lanes, all selected.
    pub fn all_set(len: usize) -> Self {
        let full_words = len / 64;
        let tail = len % 64;
        let mut words = vec![u64::MAX; full_words + usize::from(tail > 0)];
        if tail > 0 {
            words[full_words] = (1u64 << tail) - 1;
        }
        SelectionBitmap { words, len }
    }

    /// A bitmap of `len` lanes, none selected.
    pub fn none_set(len: usize) -> Self {
        SelectionBitmap { words: vec![0; len.div_ceil(64)], len }
    }

    /// Number of lanes (selected or not).
    pub fn len(&self) -> usize {
        self.len
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Whether lane `i` is selected.
    pub fn get(&self, i: usize) -> bool {
        debug_assert!(i < self.len);
        self.words[i / 64] & (1u64 << (i % 64)) != 0
    }

    /// Selects lane `i`.
    pub fn set(&mut self, i: usize) {
        debug_assert!(i < self.len);
        self.words[i / 64] |= 1u64 << (i % 64);
    }

    /// Deselects lane `i`.
    pub fn clear(&mut self, i: usize) {
        debug_assert!(i < self.len);
        self.words[i / 64] &= !(1u64 << (i % 64));
    }

    /// Number of selected lanes.
    pub fn count(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Intersects with another bitmap of the same length.
    pub fn and(&mut self, other: &SelectionBitmap) {
        assert_eq!(self.len, other.len, "bitmap length mismatch");
        for (w, o) in self.words.iter_mut().zip(&other.words) {
            *w &= o;
        }
    }

    /// Calls `f` with the index of every selected lane, ascending.
    pub fn for_each_set(&self, mut f: impl FnMut(usize)) {
        for (wi, &word) in self.words.iter().enumerate() {
            let mut w = word;
            while w != 0 {
                let bit = w.trailing_zeros() as usize;
                f(wi * 64 + bit);
                w &= w - 1;
            }
        }
    }

    /// Indices of the selected lanes, ascending.
    pub fn to_indices(&self) -> Vec<usize> {
        let mut out = Vec::with_capacity(self.count());
        self.for_each_set(|i| out.push(i));
        out
    }

    /// Clears every selected lane for which `keep` returns false. The
    /// word-at-a-time loop builds a branch-free mask per word, which is
    /// the shape the columnar kernels below rely on to auto-vectorise.
    pub fn retain(&mut self, mut keep: impl FnMut(usize) -> bool) {
        for (wi, word) in self.words.iter_mut().enumerate() {
            if *word == 0 {
                continue;
            }
            let base = wi * 64;
            let top = (self.len - base).min(64);
            let mut mask = 0u64;
            for b in 0..top {
                mask |= u64::from(keep(base + b)) << b;
            }
            *word &= mask;
        }
    }
}

/// Clears lanes whose envelope (`min/max` columns) does not intersect
/// `q`. Exact closed-interval comparisons, matching
/// [`Envelope::intersects`]; `q` must be non-empty. Lanes with `NaN`
/// envelope columns are cleared — route those around this kernel.
pub fn retain_env_intersects(
    sel: &mut SelectionBitmap,
    min_x: &[f64],
    min_y: &[f64],
    max_x: &[f64],
    max_y: &[f64],
    q: &Envelope,
) {
    debug_assert!(!q.is_empty());
    let (q_min_x, q_min_y, q_max_x, q_max_y) = (q.min_x(), q.min_y(), q.max_x(), q.max_y());
    sel.retain(|i| {
        min_x[i] <= q_max_x && q_min_x <= max_x[i] && min_y[i] <= q_max_y && q_min_y <= max_y[i]
    });
}

/// Clears lanes whose envelope is not fully inside `q` (the coarse test
/// for `containedBy`). Exact, matching [`Envelope::contains_envelope`].
pub fn retain_env_within(
    sel: &mut SelectionBitmap,
    min_x: &[f64],
    min_y: &[f64],
    max_x: &[f64],
    max_y: &[f64],
    q: &Envelope,
) {
    debug_assert!(!q.is_empty());
    let (q_min_x, q_min_y, q_max_x, q_max_y) = (q.min_x(), q.min_y(), q.max_x(), q.max_y());
    sel.retain(|i| {
        q_min_x <= min_x[i] && max_x[i] <= q_max_x && q_min_y <= min_y[i] && max_y[i] <= q_max_y
    });
}

/// Clears lanes whose envelope does not fully contain `q` (the coarse
/// test for `contains`). Exact, matching [`Envelope::contains_envelope`].
pub fn retain_env_contains(
    sel: &mut SelectionBitmap,
    min_x: &[f64],
    min_y: &[f64],
    max_x: &[f64],
    max_y: &[f64],
    q: &Envelope,
) {
    debug_assert!(!q.is_empty());
    let (q_min_x, q_min_y, q_max_x, q_max_y) = (q.min_x(), q.min_y(), q.max_x(), q.max_y());
    sel.retain(|i| {
        min_x[i] <= q_min_x && q_max_x <= max_x[i] && min_y[i] <= q_min_y && q_max_y <= max_y[i]
    });
}

/// Clears lanes whose centroid is farther than `max_dist` metres from
/// `q` under the Haversine formula. This is *exact*, not coarse: every
/// lane is decided identically to the row path
/// ([`DistanceFn::Haversine`](crate::DistanceFn) measures centroids),
/// `NaN` centroids included (`NaN <= d` is false on both paths).
///
/// Rather than evaluating the full formula per lane, the kernel works
/// in the space of the haversine parameter
/// `h = sin²(Δφ/2) + cosφ₁·cosφ₂·sin²(Δλ/2)`: the distance
/// `d(h) = 2R·asin(√h)` is monotone in `h`, so the cutoff
/// `d(h) <= max_dist` is located once by bisection *on the computed
/// function* and each lane then pays only the `h` arithmetic (with the
/// query-side `cos φ₂` hoisted) plus a comparison — no `sqrt`/`asin`.
/// Because libm's `asin` is only ulp-accurate (not proven monotone), a
/// `±1e-12` guard band around the located cutoff falls back to the
/// verbatim [`haversine`] formula, keeping the result bit-identical to
/// the row path for every input.
pub fn retain_haversine_within(
    sel: &mut SelectionBitmap,
    cx: &[f64],
    cy: &[f64],
    q: &Coord,
    max_dist: f64,
) {
    // Zero, negative and NaN cutoffs sit exactly on (or outside) the
    // h = 0 boundary where the band trick buys nothing; evaluate those
    // rare shapes verbatim.
    if max_dist.is_nan() || max_dist <= 0.0 || !q.is_finite() {
        sel.retain(|i| haversine(&Coord::new(cx[i], cy[i]), q) <= max_dist);
        return;
    }
    // Query-side terms, bit-identical to what `haversine` derives from
    // its second argument alone.
    let lat2 = q.y.to_radians();
    let cos_lat2 = lat2.cos();
    let d_of = |h: f64| 2.0 * EARTH_RADIUS_M * h.clamp(0.0, 1.0).sqrt().asin();
    let (h_lo, h_hi) = if d_of(1.0) <= max_dist {
        // cutoff beyond the antipode: every finite lane qualifies
        (f64::INFINITY, f64::INFINITY)
    } else {
        // bisect the crossing of the *computed* d(h); 80 halvings land
        // well below one ulp of h
        let (mut lo, mut hi) = (0.0f64, 1.0f64);
        for _ in 0..80 {
            let mid = 0.5 * (lo + hi);
            if d_of(mid) <= max_dist {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        // pad by far more than the ~1e-15 non-monotonicity window that
        // ulp-level asin error can induce around the crossing
        let pad = 1e-12 + 1e-12 * lo;
        (lo - pad, hi + pad)
    };
    sel.retain(|i| {
        let lat1 = cy[i].to_radians();
        let dlat = (q.y - cy[i]).to_radians();
        let dlon = (q.x - cx[i]).to_radians();
        let h = (dlat / 2.0).sin().powi(2) + lat1.cos() * cos_lat2 * (dlon / 2.0).sin().powi(2);
        let hc = h.clamp(0.0, 1.0);
        if hc <= h_lo {
            true
        } else if hc >= h_hi {
            false
        } else {
            // inside the guard band (or NaN): decide with the verbatim
            // row formula
            haversine(&Coord::new(cx[i], cy[i]), q) <= max_dist
        }
    });
}

/// Clears lanes whose centroid Manhattan distance to `q` exceeds
/// `max_dist`. Exact for the same reason as the Haversine kernel:
/// [`DistanceFn::Manhattan`](crate::DistanceFn) measures centroids with
/// this very expression.
pub fn retain_manhattan_within(
    sel: &mut SelectionBitmap,
    cx: &[f64],
    cy: &[f64],
    q: &Coord,
    max_dist: f64,
) {
    sel.retain(|i| (cx[i] - q.x).abs() + (cy[i] - q.y).abs() <= max_dist);
}

/// Coarse Euclidean prune: clears lanes whose envelope axis-gap lower
/// bound to `q_env` *provably* exceeds `limit`. The caller must pass a
/// `limit` padded above the true cutoff (the row path measures exact
/// geometry distance with `sqrt(dx²+dy²)`, this bound uses the same
/// gaps but different rounding), and must refine every surviving lane.
/// `NaN` gaps never exceed `limit`, so non-finite lanes survive to the
/// refinement step.
pub fn retain_euclidean_gap(
    sel: &mut SelectionBitmap,
    min_x: &[f64],
    min_y: &[f64],
    max_x: &[f64],
    max_y: &[f64],
    q_env: &Envelope,
    limit: f64,
) {
    debug_assert!(!q_env.is_empty());
    let (q_min_x, q_min_y, q_max_x, q_max_y) =
        (q_env.min_x(), q_env.min_y(), q_env.max_x(), q_env.max_y());
    sel.retain(|i| {
        let dx = (min_x[i] - q_max_x).max(q_min_x - max_x[i]).max(0.0);
        let dy = (min_y[i] - q_max_y).max(q_min_y - max_y[i]).max(0.0);
        // NaN gaps must survive to refinement, hence not plain `d <= limit`
        let d = dx.hypot(dy);
        d.is_nan() || d <= limit
    });
}

/// Euclidean point × point distance join over centroid columns: calls
/// `emit(i, j)` for every left lane `i` and right lane `j` with
/// `sqrt(dx² + dy²) <= d`, without building a tree.
///
/// The right side is counting-sorted into a row-major grid of cells at
/// least `d` wide (coarser when `d` is tiny relative to the extent: the
/// grid never has more than two cells per right point), and each left
/// point scans the cells its buffered box `[x ± d] × [y ± d]` covers —
/// one contiguous run of sorted points per grid row. A pair is accepted
/// iff the right point lies in that box *and* the distance test holds:
/// the STR-tree probe's candidate test followed by `Coord::distance`'s
/// own arithmetic, so the pair set is exactly the one a tree probe with
/// a `d`-buffered envelope produces. The coordinate → cell mapping is
/// monotone, so every point inside a box lies in a cell the box's
/// corners span: sound without an epsilon.
///
/// Callers must pass finite coordinates (non-finite lanes belong on the
/// tree path). Negative and `NaN` cutoffs match nothing, as the
/// distance test itself would reject every pair. Pairs are emitted in
/// ascending left lane; the order within one left lane is deterministic.
pub fn euclidean_grid_join(
    lx: &[f64],
    ly: &[f64],
    rx: &[f64],
    ry: &[f64],
    d: f64,
    mut emit: impl FnMut(usize, usize),
) {
    debug_assert_eq!(lx.len(), ly.len());
    debug_assert_eq!(rx.len(), ry.len());
    if lx.is_empty() || rx.is_empty() || d.is_nan() || d < 0.0 {
        return;
    }
    assert!(rx.len() <= u32::MAX as usize, "right side too large for u32 lanes");
    let (min_x, max_x) =
        rx.iter().fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), &v| (lo.min(v), hi.max(v)));
    let (min_y, max_y) =
        ry.iter().fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), &v| (lo.min(v), hi.max(v)));
    let (nx, ny) = grid_dims(max_x - min_x, max_y - min_y, d, rx.len());
    let cols = GridAxis::new(min_x, max_x, nx);
    let rows = GridAxis::new(min_y, max_y, ny);

    // Counting sort by cell id. After the reverse scatter `start[c]` is
    // where cell `c` begins (and `start[cells]` the end), and every cell
    // keeps its points in ascending lane order.
    let cells = nx * ny;
    let cell: Vec<u32> =
        rx.iter().zip(ry).map(|(&x, &y)| (rows.cell(y) * nx + cols.cell(x)) as u32).collect();
    let mut start = vec![0u32; cells + 1];
    for &c in &cell {
        start[c as usize] += 1;
    }
    for c in 1..cells {
        start[c] += start[c - 1];
    }
    start[cells] = rx.len() as u32;
    let (mut sx, mut sy, mut lane) =
        (vec![0.0; rx.len()], vec![0.0; rx.len()], vec![0u32; rx.len()]);
    for j in (0..rx.len()).rev() {
        let c = cell[j] as usize;
        start[c] -= 1;
        let slot = start[c] as usize;
        (sx[slot], sy[slot], lane[slot]) = (rx[j], ry[j], j as u32);
    }

    let mut hits = vec![0u32; rx.len()];
    for (i, (&x, &y)) in lx.iter().zip(ly).enumerate() {
        let (x0, x1, y0, y1) = (x - d, x + d, y - d, y + d);
        if x1 < min_x || x0 > max_x || y1 < min_y || y0 > max_y {
            continue; // the box misses every right point
        }
        let (c0, c1) = (cols.cell(x0), cols.cell(x1));
        for row in rows.cell(y0)..=rows.cell(y1) {
            let run = start[row * nx + c0] as usize..start[row * nx + c1 + 1] as usize;
            // branch-free test, compacting the hits of this run
            let mut found = 0;
            for k in run {
                let (px, py) = (sx[k], sy[k]);
                let (dx, dy) = (x - px, y - py);
                let hit = (x0 <= px) & (px <= x1) & (y0 <= py) & (py <= y1);
                hits[found] = lane[k];
                found += usize::from(hit & ((dx * dx + dy * dy).sqrt() <= d));
            }
            for &j in &hits[..found] {
                emit(i, j as usize);
            }
        }
    }
}

/// Cells per axis for [`euclidean_grid_join`]: as many cells of side
/// `≥ d` as fit the extent, scaled down so the grid has at most two
/// cells per right point when `d` is tiny or zero.
fn grid_dims(w: f64, h: f64, d: f64, n: usize) -> (usize, usize) {
    let limit = (2 * n.max(1)) as f64;
    let per_axis = |extent: f64| {
        if !extent.is_finite() || extent <= 0.0 {
            1.0
        } else if d > 0.0 {
            (extent / d).floor().clamp(1.0, limit)
        } else {
            limit
        }
    };
    let (mut fx, mut fy) = (per_axis(w), per_axis(h));
    if fx * fy > limit {
        let s = (limit / (fx * fy)).sqrt();
        fx = (fx * s).floor().max(1.0);
        fy = (fy * s).floor().max(1.0);
    }
    (fx as usize, fy as usize)
}

/// One axis of the join grid: a monotone map from a coordinate to one
/// of `n` cells over `[min, max]`, clamping outside values to the ends.
struct GridAxis {
    min: f64,
    inv: f64,
    last: f64,
}

impl GridAxis {
    fn new(min: f64, max: f64, n: usize) -> GridAxis {
        // a subnormal extent can overflow the scale: one cell then
        let inv = n as f64 / (max - min);
        let inv = if n > 1 && inv.is_finite() { inv } else { 0.0 };
        GridAxis { min, inv, last: (n - 1) as f64 }
    }

    /// Monotone non-decreasing in `v`: subtraction and scaling by a
    /// finite positive factor preserve order, and so does truncation
    /// of the clamped, non-negative result (no `floor` call needed).
    #[inline]
    fn cell(&self, v: f64) -> usize {
        let t = (v - self.min) * self.inv;
        if t >= self.last {
            self.last as usize
        } else if t > 0.0 {
            t as usize
        } else {
            0 // also the one-cell case, where `inv` is 0
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bitmap_basics() {
        let mut s = SelectionBitmap::all_set(70);
        assert_eq!(s.len(), 70);
        assert_eq!(s.count(), 70);
        assert!(s.get(69));
        s.clear(69);
        s.clear(0);
        assert_eq!(s.count(), 68);
        assert!(!s.get(0));
        s.set(0);
        assert!(s.get(0));
        assert_eq!(SelectionBitmap::none_set(70).count(), 0);
        assert_eq!(SelectionBitmap::all_set(0).count(), 0);
        assert_eq!(SelectionBitmap::all_set(64).count(), 64);
    }

    #[test]
    fn bitmap_retain_and_iterate() {
        let mut s = SelectionBitmap::all_set(130);
        s.retain(|i| i % 3 == 0);
        let idx = s.to_indices();
        assert!(idx.iter().all(|i| i % 3 == 0));
        assert_eq!(idx.len(), s.count());
        assert_eq!(idx.len(), (0..130).filter(|i| i % 3 == 0).count());

        let mut other = SelectionBitmap::all_set(130);
        other.retain(|i| i % 2 == 0);
        s.and(&other);
        assert!(s.to_indices().iter().all(|i| i % 6 == 0));
    }

    #[test]
    fn retain_only_touches_set_lanes() {
        let mut s = SelectionBitmap::none_set(64);
        s.set(7);
        // retain predicate true everywhere must not resurrect cleared lanes
        s.retain(|_| true);
        assert_eq!(s.to_indices(), vec![7]);
    }

    #[test]
    fn envelope_kernels_match_envelope_methods() {
        let rows = [
            Envelope::from_bounds(0.0, 0.0, 1.0, 1.0),
            Envelope::from_bounds(5.0, 5.0, 6.0, 6.0),
            Envelope::from_bounds(2.0, 2.0, 9.0, 9.0),
            Envelope::from_bounds(4.0, 4.0, 4.5, 4.5),
        ];
        let min_x: Vec<f64> = rows.iter().map(|e| e.min_x()).collect();
        let min_y: Vec<f64> = rows.iter().map(|e| e.min_y()).collect();
        let max_x: Vec<f64> = rows.iter().map(|e| e.max_x()).collect();
        let max_y: Vec<f64> = rows.iter().map(|e| e.max_y()).collect();
        let q = Envelope::from_bounds(3.0, 3.0, 7.0, 7.0);

        let mut s = SelectionBitmap::all_set(rows.len());
        retain_env_intersects(&mut s, &min_x, &min_y, &max_x, &max_y, &q);
        for (i, e) in rows.iter().enumerate() {
            assert_eq!(s.get(i), e.intersects(&q), "intersects lane {i}");
        }

        let mut s = SelectionBitmap::all_set(rows.len());
        retain_env_within(&mut s, &min_x, &min_y, &max_x, &max_y, &q);
        for (i, e) in rows.iter().enumerate() {
            assert_eq!(s.get(i), q.contains_envelope(e), "within lane {i}");
        }

        let mut s = SelectionBitmap::all_set(rows.len());
        retain_env_contains(&mut s, &min_x, &min_y, &max_x, &max_y, &q);
        for (i, e) in rows.iter().enumerate() {
            assert_eq!(s.get(i), e.contains_envelope(&q), "contains lane {i}");
        }
    }

    #[test]
    fn haversine_kernel_matches_scalar_and_handles_nan() {
        let cx = [13.4, 2.35, f64::NAN];
        let cy = [52.5, 48.85, 1.0];
        let q = Coord::new(2.35, 48.85);
        let mut s = SelectionBitmap::all_set(3);
        retain_haversine_within(&mut s, &cx, &cy, &q, 1_000_000.0);
        // the kernel is the same arithmetic as the scalar helper
        let d = haversine(&Coord::new(13.4, 52.5), &q);
        assert_eq!(s.get(0), d <= 1_000_000.0);
        assert!(s.get(0), "Berlin–Paris is ~880 km, within 1000 km");
        assert!(s.get(1), "zero distance survives");
        assert!(!s.get(2), "NaN centroid must fail the kernel, like the row path");
    }

    /// The tree probe's semantics, pair by pair: in the `d`-buffered box,
    /// then `Coord::distance`.
    fn brute_force(lx: &[f64], ly: &[f64], rx: &[f64], ry: &[f64], d: f64) -> Vec<(usize, usize)> {
        let mut out = Vec::new();
        for i in 0..lx.len() {
            let probe = Envelope::from_point(Coord::new(lx[i], ly[i])).buffered(d);
            for j in 0..rx.len() {
                let r = Coord::new(rx[j], ry[j]);
                if Envelope::from_point(r).intersects(&probe)
                    && Coord::new(lx[i], ly[i]).distance(&r) <= d
                {
                    out.push((i, j));
                }
            }
        }
        out
    }

    fn grid(lx: &[f64], ly: &[f64], rx: &[f64], ry: &[f64], d: f64) -> Vec<(usize, usize)> {
        let mut out = Vec::new();
        euclidean_grid_join(lx, ly, rx, ry, d, |i, j| out.push((i, j)));
        out.sort_unstable();
        out
    }

    #[test]
    fn grid_join_matches_buffered_probe_semantics() {
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = |scale: f64| {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            ((state >> 11) as f64 / (1u64 << 53) as f64 - 0.5) * scale
        };
        let lx: Vec<f64> = (0..300).map(|_| next(40.0)).collect();
        let ly: Vec<f64> = (0..300).map(|_| next(40.0)).collect();
        let rx: Vec<f64> = (0..250).map(|_| next(40.0) + 3.0).collect();
        let ry: Vec<f64> = (0..250).map(|_| next(40.0)).collect();
        for d in [0.0, 1e-9, 0.5, 2.0, 7.5, 100.0, f64::INFINITY] {
            assert_eq!(grid(&lx, &ly, &rx, &ry, d), brute_force(&lx, &ly, &rx, &ry, d), "d = {d}");
        }
        // a lattice spaced exactly d: every neighbour sits on the cutoff
        let lat: Vec<f64> = (0..20).map(|i| i as f64 * 0.25).collect();
        let (xs, ys): (Vec<f64>, Vec<f64>) =
            lat.iter().flat_map(|&x| lat.iter().map(move |&y| (x, y))).unzip();
        assert_eq!(grid(&xs, &ys, &xs, &ys, 0.25), brute_force(&xs, &ys, &xs, &ys, 0.25));
    }

    #[test]
    fn grid_join_degenerate_extents_and_cutoffs() {
        // all right points coincide: a zero-width extent is one cell
        let r = [1.0, 1.0, 1.0];
        assert_eq!(grid(&[1.0, 2.0], &[1.0, 1.0], &r, &r, 0.0), vec![(0, 0), (0, 1), (0, 2)]);
        // a subnormal extent must not overflow the cell scale
        let tiny = [0.0, 5e-324];
        assert_eq!(grid(&tiny, &tiny, &tiny, &tiny, 0.0), vec![(0, 0), (1, 1)]);
        // huge coordinates whose box bounds overflow to infinity
        let big = [f64::MAX, -f64::MAX];
        assert_eq!(
            grid(&big, &[0.0, 0.0], &big, &[0.0, 0.0], f64::MAX),
            brute_force(&big, &[0.0, 0.0], &big, &[0.0, 0.0], f64::MAX)
        );
        // negative and NaN cutoffs match nothing; empty sides are fine
        assert!(grid(&[0.0], &[0.0], &[0.0], &[0.0], -1.0).is_empty());
        assert!(grid(&[0.0], &[0.0], &[0.0], &[0.0], f64::NAN).is_empty());
        assert!(grid(&[], &[], &[0.0], &[0.0], 1.0).is_empty());
    }

    #[test]
    fn grid_dims_stay_bounded_by_the_right_side() {
        // tiny or zero cutoffs: at most two cells per right point
        assert_eq!(grid_dims(1e6, 1e6, 1e-9, 100), (14, 14));
        assert_eq!(grid_dims(10.0, 10.0, 0.0, 16), (5, 5));
        assert_eq!(grid_dims(10.0, 10.0, 2.5, 1000), (4, 4));
        assert_eq!(grid_dims(10.0, 0.0, 1.0, 1000), (10, 1));
        assert_eq!(grid_dims(f64::INFINITY, 10.0, 1.0, 1000), (1, 10));
    }

    #[test]
    fn euclidean_gap_never_prunes_reachable_or_nan_lanes() {
        let min_x = [0.0, 100.0, f64::NAN];
        let min_y = [0.0, 100.0, f64::NAN];
        let max_x = [1.0, 101.0, f64::NAN];
        let max_y = [1.0, 101.0, f64::NAN];
        let q = Envelope::from_bounds(2.0, 0.0, 3.0, 1.0);
        let mut s = SelectionBitmap::all_set(3);
        retain_euclidean_gap(&mut s, &min_x, &min_y, &max_x, &max_y, &q, 5.0);
        assert!(s.get(0), "gap 1.0 <= 5.0 survives");
        assert!(!s.get(1), "gap ~97 is provably beyond the limit");
        assert!(s.get(2), "NaN lanes must survive coarse pruning for refinement");
    }
}
