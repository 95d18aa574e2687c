//! The incremental operator graph: delta-based view maintenance for
//! standing joins and windowed aggregations.
//!
//! The recompute path (the paper's model, and this crate's default)
//! re-evaluates state-bearing operators from scratch whenever output is
//! due: a fired pane re-aggregates all its records through engine jobs,
//! a standing join rebuilds the right side's index and re-probes every
//! left record. The incremental path instead applies each micro-batch
//! as a [`Delta`] against maintained state:
//!
//! * [`DeltaJoin`] keeps *both* join sides in per-partition incremental
//!   STR-trees ([`IncrementalIndex`]) and probes only the delta against
//!   the opposite side's index, emitting the exact change
//!   ([`JoinEmission::Delta`]) to the standing result — O(Δ·probe)
//!   instead of O(|L|·probe) per batch.
//! * [`WindowAggregator`] maintains running per-window aggregates
//!   (count + grid cells) under inserts *and retractions*, emits each
//!   window's final aggregate the moment the watermark expires it, and
//!   emits exactly one [`WindowRetraction`] per expired window so
//!   downstream state can evict the window's contribution.
//!
//! The correctness contract is differential: for any input stream —
//! out-of-order, late, shed, retracted mid-stream — the incremental
//! path must produce byte-identical per-window results and an
//! accumulated join state identical to the recompute path
//! (`tests/ivm_differential.rs` pins this property).

use crate::delta::Delta;
use crate::sink::{WindowAggregate, WindowRetraction};
use crate::window::{event_time, LatePolicy, ObserveStats, Watermark, WindowSpec};
use stark::{CellStats, IncrementalIndex, STObject, STPredicate, SpatialPartitioner};
use stark_engine::Data;
use stark_geo::Envelope;
use std::collections::BTreeMap;
use std::sync::Arc;

/// How the stream driver executes state-bearing operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PipelineMode {
    /// Recompute from scratch whenever output is due (pane re-aggregation
    /// through engine jobs, full join re-probe). The paper's model.
    #[default]
    Recompute,
    /// Apply each batch as a delta against maintained operator state.
    Incremental,
}

/// Selects which records belong to one side of a [`DeltaJoin`].
pub type JoinSide<V> = Arc<dyn Fn(&STObject, &V) -> bool + Send + Sync>;

/// One joined pair: `(left record, right record)`.
pub type JoinPair<V> = ((STObject, V), (STObject, V));

/// Declares a standing stream-stream join. The predicate must be
/// symmetric ([`STPredicate::Intersects`] or
/// [`STPredicate::WithinDistance`]) because both execution paths probe
/// an index of one side with records of the other, evaluating
/// `pred(indexed, probe)`.
pub struct JoinSpec<V> {
    name: String,
    left: JoinSide<V>,
    right: JoinSide<V>,
    pred: STPredicate,
    partitioner: Arc<dyn SpatialPartitioner>,
    order: usize,
}

impl<V> std::fmt::Debug for JoinSpec<V> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("JoinSpec").field("name", &self.name).field("pred", &self.pred).finish()
    }
}

impl<V> JoinSpec<V> {
    pub fn new(
        name: impl Into<String>,
        left: JoinSide<V>,
        right: JoinSide<V>,
        pred: STPredicate,
        partitioner: Arc<dyn SpatialPartitioner>,
        order: usize,
    ) -> Self {
        assert!(
            matches!(pred, STPredicate::Intersects | STPredicate::WithinDistance { .. }),
            "stream-stream joins need a symmetric predicate (Intersects or WithinDistance)"
        );
        JoinSpec { name: name.into(), left, right, pred, partitioner, order }
    }

    pub fn name(&self) -> &str {
        &self.name
    }

    pub fn predicate(&self) -> STPredicate {
        self.pred
    }
}

/// What a [`DeltaJoin`] emitted for one batch.
#[derive(Debug, Clone)]
pub enum JoinEmission<V> {
    /// The full standing result, re-emitted (recompute path).
    Full(Vec<JoinPair<V>>),
    /// The exact change to the standing result (incremental path).
    Delta { inserts: Vec<JoinPair<V>>, retracts: Vec<JoinPair<V>> },
}

impl<V> JoinEmission<V> {
    /// Pairs newly asserted this batch (the full result counts whole).
    pub fn inserted(&self) -> usize {
        match self {
            JoinEmission::Full(pairs) => pairs.len(),
            JoinEmission::Delta { inserts, .. } => inserts.len(),
        }
    }

    /// Pairs retracted this batch (always 0 for a full re-emission).
    pub fn retracted(&self) -> usize {
        match self {
            JoinEmission::Full(_) => 0,
            JoinEmission::Delta { retracts, .. } => retracts.len(),
        }
    }
}

enum JoinState<V: Data> {
    /// Per-side incremental indexes; the delta probes the opposite side.
    /// Boxed: the index carries its partitioner + per-partition trees and
    /// dwarfs the recompute variant's two Vec headers.
    Incremental { left: Box<IncrementalIndex<V>>, right: Box<IncrementalIndex<V>> },
    /// Flat per-side buffers; every batch rebuilds the right index from
    /// scratch and re-probes every left record.
    Recompute { left: Vec<(STObject, V)>, right: Vec<(STObject, V)> },
}

/// A standing spatio-temporal stream-stream join with pluggable
/// execution: recompute-from-scratch or delta-incremental. Both paths
/// apply retractions membership-checked (retracting a record a side
/// never held is a no-op), so they stay equivalent under shed or
/// quarantined upstream data.
pub struct DeltaJoin<V: Data> {
    spec: JoinSpec<V>,
    state: JoinState<V>,
}

impl<V: Data> DeltaJoin<V> {
    pub fn new(spec: JoinSpec<V>, mode: PipelineMode) -> Self {
        let state = match mode {
            PipelineMode::Incremental => JoinState::Incremental {
                left: Box::new(IncrementalIndex::new(Arc::clone(&spec.partitioner), spec.order)),
                right: Box::new(IncrementalIndex::new(Arc::clone(&spec.partitioner), spec.order)),
            },
            PipelineMode::Recompute => JoinState::Recompute { left: Vec::new(), right: Vec::new() },
        };
        DeltaJoin { spec, state }
    }

    pub fn name(&self) -> &str {
        self.spec.name()
    }

    /// Applies one batch's delta and returns what changed.
    ///
    /// The incremental path emits the *exact* difference of the standing
    /// join result by applying the delta in a fixed serialization —
    /// left retracts (probing the untouched right side), right retracts
    /// (probing the already-shrunk left side), left inserts (probing
    /// right before its own inserts land), right inserts (probing left
    /// including this batch's left inserts) — so a pair is asserted and
    /// retracted exactly once however its two halves are interleaved
    /// across sides and batches.
    pub fn on_delta(&mut self, delta: &Delta<V>) -> JoinEmission<V>
    where
        V: PartialEq,
    {
        let spec = &self.spec;
        let pred = spec.pred;
        match &mut self.state {
            JoinState::Incremental { left, right } => {
                let mut retracts = Vec::new();
                for (o, v) in delta.retracts.iter().filter(|(o, v)| (spec.left)(o, v)) {
                    if left.remove_batch([(o.clone(), v.clone())]).removed == 1 {
                        for m in right.filter(o, pred) {
                            retracts.push(((o.clone(), v.clone()), m));
                        }
                    }
                }
                for (o, v) in delta.retracts.iter().filter(|(o, v)| (spec.right)(o, v)) {
                    if right.remove_batch([(o.clone(), v.clone())]).removed == 1 {
                        for m in left.filter(o, pred) {
                            retracts.push((m, (o.clone(), v.clone())));
                        }
                    }
                }
                // retract probes fell back to linear scans on dirtied
                // partitions (still exact); rebuild before insert probes
                left.refresh();
                right.refresh();

                let mut inserts = Vec::new();
                let left_ins: Vec<(STObject, V)> =
                    delta.inserts.iter().filter(|(o, v)| (spec.left)(o, v)).cloned().collect();
                for (o, v) in &left_ins {
                    for m in right.filter(o, pred) {
                        inserts.push(((o.clone(), v.clone()), m));
                    }
                }
                left.insert_batch(left_ins);
                left.refresh();
                let right_ins: Vec<(STObject, V)> =
                    delta.inserts.iter().filter(|(o, v)| (spec.right)(o, v)).cloned().collect();
                for (o, v) in &right_ins {
                    for m in left.filter(o, pred) {
                        inserts.push((m, (o.clone(), v.clone())));
                    }
                }
                right.insert_batch(right_ins);
                right.refresh();
                JoinEmission::Delta { inserts, retracts }
            }
            JoinState::Recompute { left, right } => {
                for (o, v) in &delta.retracts {
                    if (spec.left)(o, v) {
                        if let Some(i) = left.iter().position(|(lo, lv)| lo == o && lv == v) {
                            left.remove(i);
                        }
                    }
                    if (spec.right)(o, v) {
                        if let Some(i) = right.iter().position(|(ro, rv)| ro == o && rv == v) {
                            right.remove(i);
                        }
                    }
                }
                left.extend(delta.inserts.iter().filter(|(o, v)| (spec.left)(o, v)).cloned());
                right.extend(delta.inserts.iter().filter(|(o, v)| (spec.right)(o, v)).cloned());

                // recompute from scratch: index the right side, re-probe
                // every left record — the cost the incremental path avoids
                let mut idx = IncrementalIndex::new(Arc::clone(&spec.partitioner), spec.order);
                idx.insert_batch(right.iter().cloned());
                idx.refresh();
                let mut pairs = Vec::new();
                for (o, v) in left.iter() {
                    for m in idx.filter(o, pred) {
                        pairs.push(((o.clone(), v.clone()), m));
                    }
                }
                JoinEmission::Full(pairs)
            }
        }
    }
}

/// Precomputed grid geometry, mirroring `aggregate_by_grid` exactly so
/// incrementally maintained cells are byte-identical to a recompute.
struct GridGeometry {
    dims: usize,
    sx: f64,
    sy: f64,
    cell_w: f64,
    cell_h: f64,
}

impl GridGeometry {
    fn new(dims: usize, space: &Envelope) -> Self {
        let dims = dims.max(1);
        assert!(!space.is_empty(), "aggregation space must be non-empty");
        GridGeometry {
            dims,
            sx: space.min_x(),
            sy: space.min_y(),
            cell_w: (space.width() / dims as f64).max(f64::MIN_POSITIVE),
            cell_h: (space.height() / dims as f64).max(f64::MIN_POSITIVE),
        }
    }

    fn cell_of(&self, o: &STObject) -> usize {
        let c = o.centroid();
        let col = (((c.x - self.sx) / self.cell_w).floor() as i64).clamp(0, self.dims as i64 - 1)
            as usize;
        let row = (((c.y - self.sy) / self.cell_h).floor() as i64).clamp(0, self.dims as i64 - 1)
            as usize;
        row * self.dims + col
    }

    fn stats_for(&self, i: usize, cell: &CellState) -> CellStats {
        let col = i % self.dims;
        let row = i / self.dims;
        let min_x = self.sx + col as f64 * self.cell_w;
        let min_y = self.sy + row as f64 * self.cell_h;
        let time_range = match (cell.times.keys().next(), cell.times.keys().next_back()) {
            (Some(&lo), Some(&hi)) => Some((lo, hi)),
            _ => None,
        };
        CellStats {
            col,
            row,
            bounds: Envelope::from_bounds(min_x, min_y, min_x + self.cell_w, min_y + self.cell_h),
            count: cell.count,
            time_range,
        }
    }
}

/// Running state of one grid cell. Event times are a multiset so the
/// min/max time range stays exact when a retraction removes one of
/// several records sharing a timestamp.
#[derive(Clone, Default)]
struct CellState {
    count: u64,
    times: BTreeMap<i64, u32>,
}

impl CellState {
    fn insert(&mut self, o: &STObject) {
        self.count += 1;
        if let Some(t) = o.time() {
            *self.times.entry(t.start()).or_insert(0) += 1;
        }
    }

    fn remove(&mut self, o: &STObject) {
        self.count -= 1;
        if let Some(t) = o.time() {
            let s = t.start();
            if let Some(n) = self.times.get_mut(&s) {
                *n -= 1;
                if *n == 0 {
                    self.times.remove(&s);
                }
            }
        }
    }
}

/// Running state of one open window.
struct WindowState<V> {
    /// The window's records, kept for membership-checked retraction: a
    /// retraction only adjusts aggregates if the record is actually
    /// present, exactly like removing it from a recompute pane buffer.
    members: Vec<(STObject, V)>,
    /// Per-cell aggregates; allocated on first insert when a grid is
    /// configured.
    cells: Option<Vec<CellState>>,
}

impl<V> WindowState<V> {
    fn new() -> Self {
        WindowState { members: Vec::new(), cells: None }
    }
}

/// Incrementally maintained windowed aggregation (count + per-cell
/// grid) with retraction on watermark expiry.
///
/// Routing, lateness, and the watermark behave exactly like
/// [`crate::WindowManager`] — same pre-batch watermark capture, same
/// [`LatePolicy`] handling, retractions never advance the watermark —
/// but instead of buffering records for a fire-time recompute, each
/// delta updates running aggregates in O(Δ). When the watermark expires
/// a window the final [`WindowAggregate`] is emitted without touching
/// the window's records again, together with exactly one
/// [`WindowRetraction`] evicting the window downstream.
pub struct WindowAggregator<V> {
    spec: WindowSpec,
    policy: LatePolicy,
    watermark: Watermark,
    grid: Option<GridGeometry>,
    windows: BTreeMap<i64, WindowState<V>>,
    side: Vec<(STObject, V)>,
    dropped_total: u64,
}

impl<V: Data> WindowAggregator<V> {
    pub fn new(
        spec: WindowSpec,
        allowed_lateness: i64,
        policy: LatePolicy,
        grid: Option<(usize, Envelope)>,
    ) -> Self {
        WindowAggregator {
            spec,
            policy,
            watermark: Watermark::new(allowed_lateness),
            grid: grid.map(|(dims, space)| GridGeometry::new(dims, &space)),
            windows: BTreeMap::new(),
            side: Vec::new(),
            dropped_total: 0,
        }
    }

    pub fn spec(&self) -> WindowSpec {
        self.spec
    }

    pub fn watermark(&self) -> Option<i64> {
        self.watermark.current()
    }

    /// Late records discarded over the aggregator's lifetime.
    pub fn dropped(&self) -> u64 {
        self.dropped_total
    }

    /// Drains the side output (only fills under [`LatePolicy::SideOutput`]).
    pub fn take_side_output(&mut self) -> Vec<(STObject, V)> {
        std::mem::take(&mut self.side)
    }

    fn add(&mut self, t: i64, obj: &STObject, value: &V) {
        for start in self.spec.windows_for(t) {
            let state = self.windows.entry(start).or_insert_with(WindowState::new);
            state.members.push((obj.clone(), value.clone()));
            if let Some(geo) = &self.grid {
                let cells = state
                    .cells
                    .get_or_insert_with(|| vec![CellState::default(); geo.dims * geo.dims]);
                cells[geo.cell_of(obj)].insert(obj);
            }
        }
    }

    fn retract(&mut self, t: i64, obj: &STObject, value: &V)
    where
        V: PartialEq,
    {
        for start in self.spec.windows_for(t) {
            let Some(state) = self.windows.get_mut(&start) else { continue };
            let Some(i) = state.members.iter().position(|(o, v)| o == obj && v == value) else {
                continue;
            };
            state.members.remove(i);
            if let Some(geo) = &self.grid {
                if let Some(cells) = &mut state.cells {
                    cells[geo.cell_of(obj)].remove(obj);
                }
            }
        }
    }

    /// Applies one batch's delta to the running aggregates. Identical
    /// routing semantics to [`crate::WindowManager::observe_delta`]:
    /// lateness is judged against the watermark *as of the previous
    /// batch*, retracts apply before inserts, timely retractions are
    /// membership-checked no-ops when the record was never delivered,
    /// late retractions are always discarded, and only inserts advance
    /// the watermark.
    pub fn observe_delta(&mut self, delta: &Delta<V>) -> ObserveStats
    where
        V: PartialEq,
    {
        let mut stats = ObserveStats::default();
        let pre = self.watermark();
        for (obj, value) in &delta.retracts {
            let t = match event_time(obj) {
                Some(t) => t,
                None => {
                    stats.untimed += 1;
                    continue;
                }
            };
            if pre.is_some_and(|w| t < w) {
                stats.late_retracts += 1;
                continue;
            }
            stats.retracted += 1;
            self.retract(t, obj, value);
        }
        for (obj, value) in &delta.inserts {
            let t = match event_time(obj) {
                Some(t) => t,
                None => {
                    stats.untimed += 1;
                    continue;
                }
            };
            if pre.is_some_and(|w| t < w) {
                match self.policy {
                    LatePolicy::Drop => {
                        self.dropped_total += 1;
                        stats.dropped += 1;
                    }
                    LatePolicy::SideOutput => {
                        self.side.push((obj.clone(), value.clone()));
                        stats.side_output += 1;
                    }
                }
                continue;
            }
            self.watermark.observe(t);
            stats.accepted += 1;
            self.add(t, obj, value);
        }
        stats
    }

    /// Builds the final aggregate for one window without re-scanning its
    /// records — the running state *is* the aggregate.
    fn finalize(&self, start: i64, state: &WindowState<V>) -> WindowAggregate {
        let grid = match (&self.grid, &state.cells) {
            (Some(geo), Some(cells)) => cells
                .iter()
                .enumerate()
                .filter(|(_, c)| c.count > 0)
                .map(|(i, c)| geo.stats_for(i, c))
                .collect(),
            _ => Vec::new(),
        };
        WindowAggregate {
            start,
            end: start + self.spec.size(),
            count: state.members.len() as u64,
            grid,
            hotspot_clusters: 0,
        }
    }

    /// Finalizes and evicts every window the watermark has expired,
    /// ascending by start. Each expired window yields its final
    /// aggregate plus exactly one [`WindowRetraction`]; once expired, a
    /// window can never re-open (anything addressed to it is necessarily
    /// late from now on).
    pub fn expire(&mut self) -> Vec<(WindowAggregate, WindowRetraction)> {
        let Some(watermark) = self.watermark() else { return Vec::new() };
        let ready: Vec<i64> = self
            .windows
            .keys()
            .copied()
            .take_while(|start| start + self.spec.size() <= watermark)
            .collect();
        ready
            .into_iter()
            .map(|start| {
                let state = self.windows.remove(&start).expect("expired window present");
                let agg = self.finalize(start, &state);
                let retraction = WindowRetraction {
                    start,
                    end: start + self.spec.size(),
                    count: state.members.len() as u64,
                };
                (agg, retraction)
            })
            .collect()
    }

    /// End-of-stream: emits every remaining window's aggregate
    /// regardless of the watermark. No retractions — the stream is over,
    /// nothing downstream outlives it.
    pub fn flush(&mut self) -> Vec<WindowAggregate> {
        let windows = std::mem::take(&mut self.windows);
        windows.iter().map(|(start, state)| self.finalize(*start, state)).collect()
    }
}
