//! Context-wide memory governance.
//!
//! Spark runs every executor under a unified memory manager: execution
//! and storage draw from one budget, storage gives pages back under
//! execution pressure, and tasks spill to disk instead of dying when the
//! budget is exhausted. This module is the reproduction's equivalent: a
//! [`MemoryManager`] attached to each [`Context`](crate::Context) tracks
//! *accounted* bytes (shallow partition payloads — see
//! [`Partition::shallow_bytes`](crate::Partition::shallow_bytes)) against
//! an optional byte budget
//! ([`EngineConfig::memory_budget`](crate::EngineConfig)).
//!
//! Three degradation paths keep jobs correct under pressure instead of
//! aborting them:
//!
//! * **Spill** — the shuffle write path asks for a [`MemoryReservation`]
//!   per map task; when it cannot be granted, the task's buckets are
//!   serialised to the context's spill [`ObjectStore`](crate::ObjectStore)
//!   as STK1-framed blobs and streamed back at merge time
//!   ([`MetricsSnapshot::bytes_spilled`](crate::MetricsSnapshot)).
//! * **Eviction** — cache and checkpoint cells register themselves as
//!   LRU *victims*; a reservation that does not fit evicts the
//!   least-recently-touched cells first
//!   ([`MetricsSnapshot::partitions_evicted_for_pressure`](crate::MetricsSnapshot)).
//!   Evicted cache entries recompute from lineage; evicted checkpoint
//!   cells re-read their blob — byte-identical either way.
//! * **Decline** — a cache populate whose reservation still does not fit
//!   after eviction simply does not cache (later accesses recompute);
//!   no task ever fails because of the budget.
//!
//! Accounting is *partition-granular*: reservations happen at task and
//! cell boundaries, never inside the fused per-record hot loop, so an
//! unbounded context pays two relaxed atomic ops per partition and takes
//! no locks on the fast path.

use crate::metrics::Metrics;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Outcome of asking one registered victim to give its bytes back.
pub(crate) enum VictimState {
    /// The victim released this many accounted bytes (> 0).
    Evicted(u64),
    /// Nothing to release right now (cell empty, or its lock is held by
    /// a running task — skipped to stay deadlock-free).
    Empty,
    /// The owning dataset is gone; the registration can be dropped.
    Gone,
}

/// One evictable storage site (a cache or checkpoint cell).
struct Victim {
    /// LRU clock value of the last access, shared with the owning cell
    /// so touches are lock-free.
    last_touch: Arc<AtomicU64>,
    /// Asks the cell to drop its value, returning what happened.
    evict: Box<dyn Fn() -> VictimState + Send + Sync>,
}

/// Tracks accounted bytes against the context budget and drives
/// pressure eviction. Shared by every task of a context.
pub struct MemoryManager {
    /// Budget from [`EngineConfig::memory_budget`](crate::EngineConfig);
    /// `u64::MAX` means unbounded.
    configured: u64,
    /// Effective budget — starts at `configured`, shrunk (sticky) by
    /// [`Fault::MemoryPressure`](crate::Fault) strikes.
    effective: AtomicU64,
    /// Accounted bytes currently reserved.
    reserved: AtomicU64,
    /// LRU clock: bumped on every victim touch.
    clock: AtomicU64,
    victims: Mutex<Victims>,
    metrics: Arc<Metrics>,
}

/// The victim registry, swept of dead registrations as it grows.
struct Victims {
    list: Vec<Victim>,
    /// Length at which the next registration sweeps `list`: twice the
    /// survivors of the last sweep (at least [`MIN_SWEEP`]), so sweeping
    /// costs amortised O(1) per registration.
    sweep_at: usize,
}

/// Smallest registry length worth sweeping.
const MIN_SWEEP: usize = 64;

impl std::fmt::Debug for MemoryManager {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MemoryManager")
            .field("budget", &self.budget())
            .field("reserved", &self.reserved())
            .finish()
    }
}

/// RAII grant of accounted bytes; gives them back on drop. This is what
/// makes speculation-safe accounting possible: a losing duplicate's
/// discarded result drops its reservation with it.
pub struct MemoryReservation {
    manager: Arc<MemoryManager>,
    bytes: u64,
}

impl MemoryReservation {
    /// Accounted bytes held by this reservation.
    pub fn bytes(&self) -> u64 {
        self.bytes
    }
}

impl Drop for MemoryReservation {
    fn drop(&mut self) {
        self.manager.release(self.bytes);
    }
}

impl std::fmt::Debug for MemoryReservation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "MemoryReservation({} bytes)", self.bytes)
    }
}

impl MemoryManager {
    pub(crate) fn new(budget: Option<u64>, metrics: Arc<Metrics>) -> Arc<Self> {
        let configured = budget.unwrap_or(u64::MAX);
        Arc::new(MemoryManager {
            configured,
            effective: AtomicU64::new(configured),
            reserved: AtomicU64::new(0),
            clock: AtomicU64::new(0),
            victims: Mutex::new(Victims { list: Vec::new(), sweep_at: MIN_SWEEP }),
            metrics,
        })
    }

    /// The effective byte budget; `None` when unbounded.
    pub fn budget(&self) -> Option<u64> {
        match self.effective.load(Ordering::Relaxed) {
            u64::MAX => None,
            b => Some(b),
        }
    }

    /// Accounted bytes currently reserved.
    pub fn reserved(&self) -> u64 {
        self.reserved.load(Ordering::Relaxed)
    }

    /// Shrinks the effective budget to at most `bytes` (sticky for the
    /// manager's lifetime) and evicts victims until the ledger fits —
    /// the [`Fault::MemoryPressure`](crate::Fault) strike
    /// path, modelling an external actor (OOM killer, co-tenant)
    /// clawing memory back mid-job.
    pub fn restrict(&self, bytes: u64) {
        self.effective.fetch_min(bytes, Ordering::Relaxed);
        self.evict_to_fit(0);
    }

    /// Restores the effective budget to the configured value, undoing
    /// any [`MemoryManager::restrict`] strikes.
    pub fn lift_restriction(&self) {
        self.effective.store(self.configured, Ordering::Relaxed);
    }

    fn record_reservation(self: &Arc<Self>, bytes: u64) -> MemoryReservation {
        let now = self.reserved.fetch_add(bytes, Ordering::Relaxed) + bytes;
        self.metrics.record_bytes_reserved_peak(now);
        MemoryReservation { manager: Arc::clone(self), bytes }
    }

    /// Reserves `bytes` if the budget can absorb them, evicting LRU
    /// victims as needed. `None` means the caller must degrade (spill,
    /// or skip caching) — it never means the task should fail.
    pub fn try_reserve(self: &Arc<Self>, bytes: u64) -> Option<MemoryReservation> {
        let budget = self.effective.load(Ordering::Relaxed);
        if budget == u64::MAX {
            return Some(self.record_reservation(bytes));
        }
        if self.evict_to_fit(bytes) {
            return Some(self.record_reservation(bytes));
        }
        None
    }

    /// Reserves `bytes` unconditionally, evicting what it can first.
    /// Used where dropping data is not an option (e.g. stream batches
    /// already pulled off the wire): the ledger may overshoot the budget
    /// and the overshoot shows up in the reserved-bytes peak.
    pub fn reserve(self: &Arc<Self>, bytes: u64) -> MemoryReservation {
        if self.effective.load(Ordering::Relaxed) != u64::MAX {
            self.evict_to_fit(bytes);
        }
        self.record_reservation(bytes)
    }

    fn release(&self, bytes: u64) {
        self.reserved.fetch_sub(bytes, Ordering::Relaxed);
    }

    /// Registers an evictable storage cell. Returns the shared LRU
    /// touch cell: the owner stores the current clock into it on every
    /// access ([`MemoryManager::touch`]), lock-free, and drops it with
    /// the cell — a registration whose touch cell nobody else holds is
    /// dead. Dead registrations are swept here as the registry grows,
    /// so datasets cached and dropped on an unbounded context (where
    /// eviction never runs) do not pile up.
    pub(crate) fn register_victim(
        &self,
        evict: Box<dyn Fn() -> VictimState + Send + Sync>,
    ) -> Arc<AtomicU64> {
        let last_touch = Arc::new(AtomicU64::new(self.clock.fetch_add(1, Ordering::Relaxed)));
        let handle = Arc::clone(&last_touch);
        let mut victims = self.victims.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        if victims.list.len() >= victims.sweep_at {
            victims.list.retain(|v| Arc::strong_count(&v.last_touch) > 1);
            victims.sweep_at = (2 * victims.list.len()).max(MIN_SWEEP);
        }
        victims.list.push(Victim { last_touch, evict });
        handle
    }

    /// Marks a victim as just-used for LRU ordering.
    pub(crate) fn touch(&self, last_touch: &AtomicU64) {
        last_touch.store(self.clock.fetch_add(1, Ordering::Relaxed), Ordering::Relaxed);
    }

    /// Evicts least-recently-touched victims until `reserved + incoming`
    /// fits the effective budget (or no evictable bytes remain). Returns
    /// whether it fits. Victim hooks use `try_lock` on their cells, so a
    /// cell whose lock is held by a running task is skipped — eviction
    /// never deadlocks against a populate in progress.
    fn evict_to_fit(&self, incoming: u64) -> bool {
        let fits = |m: &Self| {
            let budget = m.effective.load(Ordering::Relaxed);
            m.reserved.load(Ordering::Relaxed).saturating_add(incoming) <= budget
        };
        if fits(self) {
            return true;
        }
        let mut guard = self.victims.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        let victims = &mut guard.list;
        // Oldest-touch-first scan. The list is small (one entry per
        // cached/checkpointed partition cell constructed on the context),
        // and eviction is already the slow path. Touch stamps are
        // snapshotted before sorting: other threads keep touching cells,
        // and a key that changes mid-sort breaks the total order the
        // sort requires (it panics on detecting that).
        let mut order: Vec<(u64, usize)> = victims
            .iter()
            .enumerate()
            .map(|(i, v)| (v.last_touch.load(Ordering::Relaxed), i))
            .collect();
        order.sort_unstable();
        let mut gone: Vec<usize> = Vec::new();
        for (_, i) in order {
            if fits(self) {
                break;
            }
            match (victims[i].evict)() {
                VictimState::Evicted(bytes) => {
                    debug_assert!(bytes > 0);
                    self.metrics.inc_partitions_evicted_for_pressure(1);
                }
                VictimState::Empty => {}
                VictimState::Gone => gone.push(i),
            }
        }
        // Lazily drop registrations whose owner died.
        gone.sort_unstable_by(|a, b| b.cmp(a));
        for i in gone {
            victims.swap_remove(i);
        }
        fits(self)
    }

    #[cfg(test)]
    pub(crate) fn victim_count(&self) -> usize {
        self.victims.lock().unwrap_or_else(std::sync::PoisonError::into_inner).list.len()
    }

    /// Creates a child budget capped at `cap` bytes (`None` = bounded
    /// only by this manager). Child reservations count against both the
    /// child's cap and this context-wide ledger, so a multi-tenant
    /// service can give each tenant a slice of the context budget while
    /// the sum still respects [`EngineConfig::memory_budget`](crate::EngineConfig).
    pub fn child(self: &Arc<Self>, cap: Option<u64>) -> Arc<ChildBudget> {
        Arc::new(ChildBudget {
            parent: Arc::clone(self),
            cap: cap.unwrap_or(u64::MAX),
            reserved: AtomicU64::new(0),
        })
    }
}

/// A hierarchical slice of a [`MemoryManager`] budget: reservations must
/// fit the child's own cap *and* are accounted against the parent (which
/// may evict LRU victims to make room). Tenants of a shared context each
/// get one, so one tenant exhausting its slice cannot starve the others.
pub struct ChildBudget {
    parent: Arc<MemoryManager>,
    /// `u64::MAX` means no child-local cap.
    cap: u64,
    reserved: AtomicU64,
}

impl std::fmt::Debug for ChildBudget {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ChildBudget")
            .field("cap", &self.cap())
            .field("reserved", &self.reserved())
            .finish()
    }
}

impl ChildBudget {
    /// The child-local cap; `None` when only the parent bounds it.
    pub fn cap(&self) -> Option<u64> {
        match self.cap {
            u64::MAX => None,
            c => Some(c),
        }
    }

    /// Bytes currently reserved through this child.
    pub fn reserved(&self) -> u64 {
        self.reserved.load(Ordering::Relaxed)
    }

    /// The parent manager this child draws from.
    pub fn parent(&self) -> &Arc<MemoryManager> {
        &self.parent
    }

    /// Reserves `bytes` if they fit the child cap and the parent grants
    /// them (evicting parent-level LRU victims as needed). `None` means
    /// this child is out of budget — the caller degrades or reports a
    /// typed error; other children of the same parent are unaffected.
    pub fn try_reserve(self: &Arc<Self>, bytes: u64) -> Option<ChildReservation> {
        // Claim against the child cap first with a CAS loop, so two
        // concurrent requests cannot jointly overshoot it.
        let mut held = self.reserved.load(Ordering::Relaxed);
        loop {
            if held.saturating_add(bytes) > self.cap {
                return None;
            }
            match self.reserved.compare_exchange_weak(
                held,
                held + bytes,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => break,
                Err(now) => held = now,
            }
        }
        match self.parent.try_reserve(bytes) {
            Some(parent) => {
                Some(ChildReservation { child: Arc::clone(self), bytes, _parent: parent })
            }
            None => {
                // Roll the child claim back: the context-wide budget, not
                // this child's cap, refused the bytes.
                self.reserved.fetch_sub(bytes, Ordering::Relaxed);
                None
            }
        }
    }
}

/// RAII grant from a [`ChildBudget`]; releases the child claim and the
/// nested parent reservation on drop.
pub struct ChildReservation {
    child: Arc<ChildBudget>,
    bytes: u64,
    _parent: MemoryReservation,
}

impl ChildReservation {
    /// Accounted bytes held by this reservation.
    pub fn bytes(&self) -> u64 {
        self.bytes
    }
}

impl Drop for ChildReservation {
    fn drop(&mut self) {
        self.child.reserved.fetch_sub(self.bytes, Ordering::Relaxed);
    }
}

impl std::fmt::Debug for ChildReservation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "ChildReservation({} bytes)", self.bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn manager(budget: Option<u64>) -> Arc<MemoryManager> {
        MemoryManager::new(budget, Arc::new(Metrics::default()))
    }

    #[test]
    fn unbounded_reserves_and_tracks_peak() {
        let m = manager(None);
        assert_eq!(m.budget(), None);
        let a = m.try_reserve(1 << 30).expect("unbounded always grants");
        let b = m.try_reserve(1 << 30).expect("unbounded always grants");
        assert_eq!(m.reserved(), 2 << 30);
        assert_eq!(m.metrics.snapshot().bytes_reserved_peak, 2 << 30);
        drop(a);
        drop(b);
        assert_eq!(m.reserved(), 0);
        // the peak is a high-water mark, not a live gauge
        assert_eq!(m.metrics.snapshot().bytes_reserved_peak, 2 << 30);
    }

    #[test]
    fn bounded_refuses_past_budget_without_victims() {
        let m = manager(Some(100));
        let r = m.try_reserve(60).expect("fits");
        assert!(m.try_reserve(60).is_none(), "would exceed 100");
        drop(r);
        assert!(m.try_reserve(60).is_some(), "fits after release");
    }

    #[test]
    fn forced_reserve_overshoots_and_records_peak() {
        let m = manager(Some(100));
        let r = m.reserve(250);
        assert_eq!(m.reserved(), 250);
        assert_eq!(m.metrics.snapshot().bytes_reserved_peak, 250);
        drop(r);
        assert_eq!(m.reserved(), 0);
    }

    #[test]
    fn eviction_frees_lru_victims_first() {
        let m = manager(Some(100));
        // two evictable "cells" of 40 bytes each
        let cells: Vec<Arc<Mutex<Option<MemoryReservation>>>> =
            (0..2).map(|_| Arc::new(Mutex::new(None))).collect();
        let mut touches = Vec::new();
        for cell in &cells {
            let weak = Arc::downgrade(cell);
            touches.push(m.register_victim(Box::new(move || {
                let Some(cell) = weak.upgrade() else { return VictimState::Gone };
                let Ok(mut slot) = cell.try_lock() else { return VictimState::Empty };
                match slot.take() {
                    Some(r) => VictimState::Evicted(r.bytes()),
                    None => VictimState::Empty,
                }
            })));
        }
        *cells[0].lock().unwrap() = Some(m.try_reserve(40).unwrap());
        *cells[1].lock().unwrap() = Some(m.try_reserve(40).unwrap());
        // cell 1 is fresher than cell 0
        m.touch(&touches[0]);
        m.touch(&touches[1]);
        let r = m.try_reserve(50).expect("evicting one victim makes room");
        assert_eq!(r.bytes(), 50);
        assert!(cells[0].lock().unwrap().is_none(), "LRU cell evicted");
        assert!(cells[1].lock().unwrap().is_some(), "fresh cell kept");
        assert_eq!(m.metrics.snapshot().partitions_evicted_for_pressure, 1);
    }

    #[test]
    fn eviction_scan_tolerates_concurrent_touches() {
        use std::sync::atomic::AtomicBool;
        /// Stops the toucher even when the scan panics, so a failure
        /// surfaces instead of hanging the scope's join.
        struct StopOnDrop<'a>(&'a AtomicBool);
        impl Drop for StopOnDrop<'_> {
            fn drop(&mut self) {
                self.0.store(true, Ordering::Relaxed);
            }
        }
        let m = manager(Some(10));
        let touches: Vec<Arc<AtomicU64>> =
            (0..32).map(|_| m.register_victim(Box::new(|| VictimState::Empty))).collect();
        let stop = AtomicBool::new(false);
        std::thread::scope(|s| {
            let _stop = StopOnDrop(&stop);
            // another task keeps re-touching cells while eviction sorts
            // them by touch stamp
            s.spawn(|| {
                let mut i = 0usize;
                while !stop.load(Ordering::Relaxed) {
                    m.touch(&touches[i % touches.len()]);
                    i += 1;
                }
            });
            for _ in 0..20_000 {
                assert!(m.try_reserve(20).is_none(), "nothing is evictable");
            }
        });
    }

    #[test]
    fn dead_victims_are_dropped_lazily() {
        let m = manager(Some(10));
        let cell = Arc::new(Mutex::new(Option::<MemoryReservation>::None));
        let weak = Arc::downgrade(&cell);
        m.register_victim(Box::new(move || match weak.upgrade() {
            Some(_) => VictimState::Empty,
            None => VictimState::Gone,
        }));
        assert_eq!(m.victim_count(), 1);
        drop(cell);
        assert!(m.try_reserve(20).is_none(), "nothing evictable");
        assert_eq!(m.victim_count(), 0, "dead registration removed");
    }

    #[test]
    fn restrict_is_sticky_and_lift_restores() {
        let m = manager(Some(1000));
        m.restrict(100);
        assert_eq!(m.budget(), Some(100));
        m.restrict(500); // cannot grow the restriction
        assert_eq!(m.budget(), Some(100));
        assert!(m.try_reserve(200).is_none());
        m.lift_restriction();
        assert_eq!(m.budget(), Some(1000));
        assert!(m.try_reserve(200).is_some());
    }

    #[test]
    fn restrict_applies_to_unbounded_managers() {
        let m = manager(None);
        m.restrict(64);
        assert_eq!(m.budget(), Some(64));
        assert!(m.try_reserve(100).is_none());
        m.lift_restriction();
        assert_eq!(m.budget(), None);
    }

    #[test]
    fn child_budget_enforces_its_own_cap() {
        let m = manager(None);
        let child = m.child(Some(100));
        let r = child.try_reserve(60).expect("fits the child cap");
        assert_eq!(child.reserved(), 60);
        assert_eq!(m.reserved(), 60, "child bytes count against the parent ledger");
        assert!(child.try_reserve(60).is_none(), "would exceed the child cap");
        drop(r);
        assert_eq!(child.reserved(), 0);
        assert_eq!(m.reserved(), 0);
        assert!(child.try_reserve(60).is_some(), "fits after release");
    }

    #[test]
    fn child_budget_rolls_back_when_parent_refuses() {
        let m = manager(Some(50));
        let child = m.child(Some(1000));
        assert!(child.try_reserve(80).is_none(), "parent budget refuses");
        assert_eq!(child.reserved(), 0, "failed claim must roll back");
        assert_eq!(m.reserved(), 0);
    }

    #[test]
    fn sibling_budgets_are_isolated() {
        let m = manager(None);
        let a = m.child(Some(100));
        let b = m.child(Some(100));
        let _hog = a.try_reserve(100).expect("a takes its whole slice");
        assert!(a.try_reserve(1).is_none(), "a is exhausted");
        assert!(b.try_reserve(100).is_some(), "b is unaffected by a's exhaustion");
    }

    #[test]
    fn uncapped_child_is_bounded_only_by_parent() {
        let m = manager(Some(100));
        let child = m.child(None);
        assert_eq!(child.cap(), None);
        let _held = child.try_reserve(80).expect("fits the parent budget");
        assert!(child.try_reserve(80).is_none(), "parent budget still applies");
    }

    #[test]
    fn contended_cells_are_skipped_not_deadlocked() {
        let m = manager(Some(100));
        let cell = Arc::new(Mutex::new(Option::<MemoryReservation>::None));
        let weak = Arc::downgrade(&cell);
        m.register_victim(Box::new(move || {
            let Some(cell) = weak.upgrade() else { return VictimState::Gone };
            let Ok(mut slot) = cell.try_lock() else { return VictimState::Empty };
            match slot.take() {
                Some(r) => VictimState::Evicted(r.bytes()),
                None => VictimState::Empty,
            }
        }));
        *cell.lock().unwrap() = Some(m.try_reserve(80).unwrap());
        let guard = cell.lock().unwrap(); // simulate a task holding the cell
        assert!(m.try_reserve(80).is_none(), "held cell must be skipped, not evicted");
        drop(guard);
        assert!(m.try_reserve(80).is_some(), "released cell is evictable again");
    }
}
