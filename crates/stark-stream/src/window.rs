//! Event-time windowing with watermarks.
//!
//! Windows are aligned to event time (the `Temporal` component of each
//! [`STObject`]), not arrival time, so out-of-order arrivals land in the
//! right pane. A watermark trails the maximum event time seen by
//! `allowed_lateness`; a pane fires once the watermark passes its end,
//! and records arriving behind the watermark are late — dropped or
//! diverted to a side output according to [`LatePolicy`].

use crate::delta::Delta;
use stark::STObject;
use stark_engine::Data;
use std::collections::BTreeMap;

/// Extracts a record's event time (start of its temporal component).
pub fn event_time(o: &STObject) -> Option<i64> {
    o.time().map(|t| t.start())
}

/// A monotone event-time watermark: the maximum observed event time
/// minus the allowed lateness. Monotone *by construction* — the only
/// mutation is [`Watermark::observe`], which takes a max — so every
/// consumer (the pane-recompute [`WindowManager`] and the incremental
/// [`crate::WindowAggregator`]) inherits the cannot-regress guarantee,
/// no matter how batches are retried, skipped, or shed around it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Watermark {
    allowed_lateness: i64,
    max_event_time: Option<i64>,
}

impl Watermark {
    pub fn new(allowed_lateness: i64) -> Self {
        assert!(allowed_lateness >= 0, "allowed lateness must be non-negative");
        Watermark { allowed_lateness, max_event_time: None }
    }

    /// Raises the maximum observed event time (never lowers it).
    pub fn observe(&mut self, t: i64) {
        self.max_event_time = Some(self.max_event_time.map_or(t, |m| m.max(t)));
    }

    /// Current watermark; `None` until the first timed record arrives.
    pub fn current(&self) -> Option<i64> {
        self.max_event_time.map(|t| t - self.allowed_lateness)
    }

    pub fn allowed_lateness(&self) -> i64 {
        self.allowed_lateness
    }
}

/// Tumbling or sliding event-time window geometry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WindowSpec {
    size: i64,
    slide: i64,
}

impl WindowSpec {
    /// Non-overlapping windows of `size` event-time units.
    pub fn tumbling(size: i64) -> Self {
        assert!(size > 0, "window size must be positive");
        WindowSpec { size, slide: size }
    }

    /// Overlapping windows of `size` units, advancing by `slide`.
    pub fn sliding(size: i64, slide: i64) -> Self {
        assert!(size > 0 && slide > 0, "window size/slide must be positive");
        assert!(slide <= size, "slide larger than size leaves gaps");
        WindowSpec { size, slide }
    }

    pub fn size(&self) -> i64 {
        self.size
    }

    pub fn slide(&self) -> i64 {
        self.slide
    }

    /// Start times of every window containing event time `t`, ascending.
    pub fn windows_for(&self, t: i64) -> Vec<i64> {
        let mut starts = Vec::new();
        let mut s = t.div_euclid(self.slide) * self.slide; // greatest start <= t
        while s + self.size > t {
            starts.push(s);
            s -= self.slide;
        }
        starts.reverse();
        starts
    }
}

/// What happens to records arriving behind the watermark.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum LatePolicy {
    /// Count and discard.
    #[default]
    Drop,
    /// Divert to a side output the caller can drain.
    SideOutput,
}

/// One fired window pane.
#[derive(Debug, Clone)]
pub struct WindowPane<V> {
    pub start: i64,
    pub end: i64,
    pub records: Vec<(STObject, V)>,
}

/// Per-batch accounting from [`WindowManager::observe`] /
/// [`WindowManager::observe_delta`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ObserveStats {
    /// Records assigned to at least one open pane.
    pub accepted: u64,
    /// Late records discarded under [`LatePolicy::Drop`].
    pub dropped: u64,
    /// Late records diverted under [`LatePolicy::SideOutput`].
    pub side_output: u64,
    /// Records without a temporal component (never windowed).
    pub untimed: u64,
    /// Retractions applied to open panes (timely, membership-checked).
    pub retracted: u64,
    /// Retractions arriving behind the watermark. Always discarded —
    /// the pane they would correct has already fired — regardless of
    /// [`LatePolicy`], so both execution paths agree byte-for-byte.
    pub late_retracts: u64,
}

/// Accumulates events into panes and fires them as the watermark passes.
pub struct WindowManager<V> {
    spec: WindowSpec,
    policy: LatePolicy,
    watermark: Watermark,
    /// Open panes keyed by window start.
    panes: BTreeMap<i64, Vec<(STObject, V)>>,
    side: Vec<(STObject, V)>,
    dropped_total: u64,
}

impl<V: Data> WindowManager<V> {
    pub fn new(spec: WindowSpec, allowed_lateness: i64, policy: LatePolicy) -> Self {
        WindowManager {
            spec,
            policy,
            watermark: Watermark::new(allowed_lateness),
            panes: BTreeMap::new(),
            side: Vec::new(),
            dropped_total: 0,
        }
    }

    pub fn spec(&self) -> WindowSpec {
        self.spec
    }

    pub fn allowed_lateness(&self) -> i64 {
        self.watermark.allowed_lateness()
    }

    pub fn policy(&self) -> LatePolicy {
        self.policy
    }

    /// Current watermark: max event time minus allowed lateness.
    /// `None` until the first timed record arrives.
    pub fn watermark(&self) -> Option<i64> {
        self.watermark.current()
    }

    /// Late records discarded over the manager's lifetime.
    pub fn dropped(&self) -> u64 {
        self.dropped_total
    }

    /// Drains the side output (only fills under [`LatePolicy::SideOutput`]).
    pub fn take_side_output(&mut self) -> Vec<(STObject, V)> {
        std::mem::take(&mut self.side)
    }

    fn route_insert(
        &mut self,
        obj: STObject,
        value: V,
        pre: Option<i64>,
        stats: &mut ObserveStats,
    ) {
        let t = match event_time(&obj) {
            Some(t) => t,
            None => {
                stats.untimed += 1;
                return;
            }
        };
        if let Some(w) = pre {
            if t < w {
                match self.policy {
                    LatePolicy::Drop => {
                        self.dropped_total += 1;
                        stats.dropped += 1;
                    }
                    LatePolicy::SideOutput => {
                        self.side.push((obj, value));
                        stats.side_output += 1;
                    }
                }
                return;
            }
        }
        self.watermark.observe(t);
        stats.accepted += 1;
        for start in self.spec.windows_for(t) {
            self.panes.entry(start).or_default().push((obj.clone(), value.clone()));
        }
    }

    /// Routes a batch of records into panes. Records behind the
    /// watermark *as of the previous batch* are late; the watermark then
    /// advances to cover this batch. Untimed records are not windowed.
    pub fn observe(&mut self, records: impl IntoIterator<Item = (STObject, V)>) -> ObserveStats {
        let mut stats = ObserveStats::default();
        let pre = self.watermark();
        for (obj, value) in records {
            self.route_insert(obj, value, pre, &mut stats);
        }
        stats
    }

    /// Routes a full delta: retracts first, then inserts exactly as
    /// [`WindowManager::observe`] — a delta corrects *earlier* batches,
    /// so it can never retract its own inserts. A timely retraction
    /// removes one matching `(object, value)` occurrence from every pane
    /// its event time maps to; retracting a record no pane holds (it was
    /// shed, filtered, or already retracted) is a counted no-op.
    /// Retractions never advance the watermark — only genuinely new
    /// events testify to stream progress — and late retractions are
    /// always discarded.
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
            for start in self.spec.windows_for(t) {
                if let Some(pane) = self.panes.get_mut(&start) {
                    if let Some(i) = pane.iter().position(|(o, v)| o == obj && v == value) {
                        pane.remove(i);
                    }
                }
            }
        }
        for (obj, value) in &delta.inserts {
            self.route_insert(obj.clone(), value.clone(), pre, &mut stats);
        }
        stats
    }

    /// Removes and returns every pane whose end the watermark has passed,
    /// ascending by start.
    pub fn fire_ready(&mut self) -> Vec<WindowPane<V>> {
        let Some(watermark) = self.watermark() else { return Vec::new() };
        let ready: Vec<i64> = self
            .panes
            .keys()
            .copied()
            .take_while(|start| start + self.spec.size <= watermark)
            .collect();
        ready
            .into_iter()
            .map(|start| WindowPane {
                start,
                end: start + self.spec.size,
                records: self.panes.remove(&start).unwrap_or_default(),
            })
            .collect()
    }

    /// End-of-stream: fires every remaining pane regardless of watermark.
    pub fn flush(&mut self) -> Vec<WindowPane<V>> {
        let panes = std::mem::take(&mut self.panes);
        panes
            .into_iter()
            .map(|(start, records)| WindowPane { start, end: start + self.spec.size, records })
            .collect()
    }

    /// Number of panes still open.
    pub fn open_panes(&self) -> usize {
        self.panes.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(t: i64) -> (STObject, i64) {
        (STObject::point_at(t as f64, 0.0, t), t)
    }

    #[test]
    fn tumbling_assignment_is_unique() {
        let spec = WindowSpec::tumbling(10);
        assert_eq!(spec.windows_for(0), vec![0]);
        assert_eq!(spec.windows_for(9), vec![0]);
        assert_eq!(spec.windows_for(10), vec![10]);
        assert_eq!(spec.windows_for(-1), vec![-10]);
    }

    #[test]
    fn sliding_assignment_overlaps() {
        let spec = WindowSpec::sliding(10, 5);
        assert_eq!(spec.windows_for(7), vec![0, 5]);
        assert_eq!(spec.windows_for(12), vec![5, 10]);
        assert_eq!(spec.windows_for(4), vec![-5, 0]);
    }

    #[test]
    fn panes_fire_when_watermark_passes() {
        let mut wm = WindowManager::new(WindowSpec::tumbling(10), 0, LatePolicy::Drop);
        wm.observe(vec![rec(1), rec(5), rec(12)]);
        // watermark = 12: window [0,10) is complete
        let fired = wm.fire_ready();
        assert_eq!(fired.len(), 1);
        assert_eq!((fired[0].start, fired[0].end), (0, 10));
        assert_eq!(fired[0].records.len(), 2);
        // [10,20) still open until the watermark passes 20
        assert_eq!(wm.open_panes(), 1);
        wm.observe(vec![rec(21)]);
        assert_eq!(wm.fire_ready().len(), 1);
    }

    #[test]
    fn late_records_drop_or_divert() {
        let mut wm = WindowManager::new(WindowSpec::tumbling(10), 2, LatePolicy::Drop);
        wm.observe(vec![rec(20)]); // watermark becomes 18
        let stats = wm.observe(vec![rec(17), rec(19)]);
        assert_eq!(stats.dropped, 1); // 17 < 18
        assert_eq!(stats.accepted, 1);
        assert_eq!(wm.dropped(), 1);

        let mut wm = WindowManager::new(WindowSpec::tumbling(10), 2, LatePolicy::SideOutput);
        wm.observe(vec![rec(20)]);
        let stats = wm.observe(vec![rec(3)]);
        assert_eq!(stats.side_output, 1);
        assert_eq!(wm.take_side_output().len(), 1);
        assert!(wm.take_side_output().is_empty());
    }

    #[test]
    fn in_order_lateness_is_tolerated() {
        // jitter within allowed lateness never drops
        let mut wm = WindowManager::new(WindowSpec::tumbling(10), 5, LatePolicy::Drop);
        wm.observe(vec![rec(10)]); // watermark 5
        let stats = wm.observe(vec![rec(6), rec(8)]);
        assert_eq!(stats.accepted, 2);
        assert_eq!(wm.dropped(), 0);
    }

    #[test]
    fn flush_fires_all_open_panes() {
        let mut wm = WindowManager::new(WindowSpec::sliding(10, 5), 0, LatePolicy::Drop);
        wm.observe(vec![rec(2), rec(7)]);
        let flushed = wm.flush();
        // record 2 → windows [-5,5),[0,10); record 7 → [0,10),[5,15)
        assert_eq!(flushed.len(), 3);
        assert_eq!(wm.open_panes(), 0);
        let total: usize = flushed.iter().map(|p| p.records.len()).sum();
        assert_eq!(total, 4);
    }

    #[test]
    fn untimed_records_are_counted_not_windowed() {
        let mut wm: WindowManager<i64> =
            WindowManager::new(WindowSpec::tumbling(10), 0, LatePolicy::Drop);
        let stats = wm.observe(vec![(STObject::point(1.0, 1.0), 0i64)]);
        assert_eq!(stats.untimed, 1);
        assert_eq!(wm.open_panes(), 0);
    }
}
