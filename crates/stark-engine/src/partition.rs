//! Shared, immutable partition payloads.
//!
//! Every [`RddImpl::compute`](crate::rdd) returns a [`Partition<T>`]: an
//! `Arc`-backed handle to an immutable `Vec<T>`. Sources that retain
//! partition data across jobs (parallelized collections, caches, shuffle
//! buckets) hand out cheap clones of the same allocation instead of
//! deep-copying the payload on every access; consumers that need owned
//! elements convert explicitly — zero-cost when the handle is unique,
//! a counted per-element clone when it is shared.
//!
//! The handle dereferences to `&[T]`, so read-only consumers (`len`,
//! `iter`, indexing, slice patterns) work unchanged, and it implements
//! `IntoIterator` by value, cloning elements lazily only when the
//! underlying allocation is still shared.
//!
//! Alongside the rows, each partition carries a lazily built, shared
//! columnar sidecar: [`Partition::to_columns`] runs a caller-supplied
//! builder once per allocation and caches the result, so every handle
//! to a cached partition sees the same column arrays without rebuilding
//! them per job.

use crate::metrics::Metrics;
use std::any::Any;
use std::ops::Deref;
use std::sync::{Arc, OnceLock};

/// The shared backing of a [`Partition`]: the row payload plus the
/// lazily built columnar sidecar. Private — all access goes through
/// `Partition`.
struct PartitionRepr<T> {
    data: Vec<T>,
    columns: OnceLock<Arc<dyn Any + Send + Sync>>,
}

impl<T> PartitionRepr<T> {
    fn new(data: Vec<T>) -> Self {
        PartitionRepr { data, columns: OnceLock::new() }
    }
}

/// An immutable, shareable partition payload. Cheap to clone: clones
/// share the same allocation.
pub struct Partition<T> {
    repr: Arc<PartitionRepr<T>>,
}

impl<T> Partition<T> {
    /// Wraps freshly computed data; the returned handle is unique, so a
    /// later [`Partition::into_vec`] is zero-cost.
    pub fn from_vec(data: Vec<T>) -> Self {
        Partition { repr: Arc::new(PartitionRepr::new(data)) }
    }

    /// An empty partition.
    pub fn empty() -> Self {
        Partition::from_vec(Vec::new())
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.repr.data.len()
    }

    pub fn is_empty(&self) -> bool {
        self.repr.data.is_empty()
    }

    /// Borrowed view of the payload.
    pub fn as_slice(&self) -> &[T] {
        &self.repr.data
    }

    /// Borrowing iterator over the payload.
    pub fn iter(&self) -> std::slice::Iter<'_, T> {
        self.repr.data.iter()
    }

    /// Whether other handles to the same allocation exist right now —
    /// i.e. whether converting to owned data would have to deep-clone.
    pub fn is_shared(&self) -> bool {
        Arc::strong_count(&self.repr) > 1
    }

    /// Shallow payload size in bytes (`len · size_of::<T>()`): the copy
    /// that sharing this handle avoids, and the unit of account the
    /// [`MemoryManager`](crate::MemoryManager) reserves against the
    /// context's memory budget.
    pub fn shallow_bytes(&self) -> u64 {
        (self.repr.data.len() * std::mem::size_of::<T>()) as u64
    }

    /// The columnar sidecar of this partition, built on first use and
    /// cached on the shared allocation: every clone of this handle (and
    /// every later job reading a cached partition) gets the same
    /// `Arc<C>` back without re-running `build`.
    ///
    /// The cache holds one sidecar type per allocation. A second call
    /// with a *different* `C` falls back to building an uncached value
    /// rather than evicting the first — in practice each dataset has
    /// one column layout, so this path only exists for safety.
    pub fn to_columns<C: Send + Sync + 'static>(&self, build: impl FnOnce(&[T]) -> C) -> Arc<C> {
        if let Some(cached) = self.repr.columns.get() {
            if let Ok(cols) = cached.clone().downcast::<C>() {
                return cols;
            }
            return Arc::new(build(&self.repr.data));
        }
        let built = Arc::new(build(&self.repr.data));
        // A concurrent builder may have won the race; both values are
        // built from the same immutable rows, so ours stays valid.
        let _ = self.repr.columns.set(built.clone() as Arc<dyn Any + Send + Sync>);
        built
    }
}

impl<T: Clone> Partition<T> {
    /// Owned copy of the payload, always cloning.
    pub fn to_vec(&self) -> Vec<T> {
        self.repr.data.clone()
    }

    /// Converts into an owned `Vec`, zero-cost when this is the only
    /// handle to the allocation and a deep clone otherwise.
    pub fn into_vec(self) -> Vec<T> {
        match Arc::try_unwrap(self.repr) {
            Ok(repr) => repr.data,
            Err(shared) => shared.data.clone(),
        }
    }

    /// [`Partition::into_vec`] that records a forced deep clone in
    /// `metrics.records_cloned`.
    pub(crate) fn into_vec_counted(self, metrics: &Metrics) -> Vec<T> {
        match Arc::try_unwrap(self.repr) {
            Ok(repr) => repr.data,
            Err(shared) => {
                metrics.inc_records_cloned(shared.data.len() as u64);
                shared.data.clone()
            }
        }
    }

    /// By-value iterator that records in `metrics.records_cloned` when
    /// shared storage forces the elements to be cloned out.
    pub(crate) fn into_iter_counted(self, metrics: &Metrics) -> PartitionIntoIter<T> {
        match Arc::try_unwrap(self.repr) {
            Ok(repr) => PartitionIntoIter::Owned(repr.data.into_iter()),
            Err(shared) => {
                metrics.inc_records_cloned(shared.data.len() as u64);
                PartitionIntoIter::Shared { data: Partition { repr: shared }, next: 0 }
            }
        }
    }
}

impl<T> Clone for Partition<T> {
    fn clone(&self) -> Self {
        Partition { repr: self.repr.clone() }
    }
}

impl<T> Deref for Partition<T> {
    type Target = [T];
    fn deref(&self) -> &[T] {
        &self.repr.data
    }
}

impl<T> From<Vec<T>> for Partition<T> {
    fn from(data: Vec<T>) -> Self {
        Partition::from_vec(data)
    }
}

impl<T> Default for Partition<T> {
    fn default() -> Self {
        Partition::empty()
    }
}

impl<T: std::fmt::Debug> std::fmt::Debug for Partition<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_list().entries(self.repr.data.iter()).finish()
    }
}

impl<T: PartialEq> PartialEq for Partition<T> {
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}

/// Serialises exactly as the `Vec<T>` of its rows, in both the `Value`
/// and the binary form, so a partition blob is interchangeable with an
/// encoded row vector ([`encode_rows`](crate::plan::encode_rows)). The
/// columnar sidecar is never persisted; a deserialised partition
/// rebuilds it on first use.
impl<T: serde::Serialize> serde::Serialize for Partition<T> {
    fn to_value(&self) -> serde::Value {
        self.as_slice().to_value()
    }
    fn write_bin(&self, out: &mut Vec<u8>) {
        self.as_slice().write_bin(out)
    }
}

impl<T: serde::Deserialize> serde::Deserialize for Partition<T> {
    fn from_value(v: &serde::Value) -> Result<Self, serde::Error> {
        Ok(Partition::from_vec(Vec::<T>::from_value(v)?))
    }
    fn read_bin(r: &mut serde::BinReader<'_>) -> Result<Self, serde::Error> {
        Ok(Partition::from_vec(r.seq()?))
    }
}

/// By-value iterator over a [`Partition`]: moves elements out when the
/// allocation is unique, clones them lazily when it is shared.
pub enum PartitionIntoIter<T> {
    Owned(std::vec::IntoIter<T>),
    Shared { data: Partition<T>, next: usize },
}

impl<T: Clone> Iterator for PartitionIntoIter<T> {
    type Item = T;

    fn next(&mut self) -> Option<T> {
        match self {
            PartitionIntoIter::Owned(it) => it.next(),
            PartitionIntoIter::Shared { data, next } => {
                let item = data.as_slice().get(*next).cloned()?;
                *next += 1;
                Some(item)
            }
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let n = match self {
            PartitionIntoIter::Owned(it) => it.len(),
            PartitionIntoIter::Shared { data, next } => data.len() - *next,
        };
        (n, Some(n))
    }
}

impl<T: Clone> ExactSizeIterator for PartitionIntoIter<T> {}

impl<T: Clone> IntoIterator for Partition<T> {
    type Item = T;
    type IntoIter = PartitionIntoIter<T>;

    fn into_iter(self) -> PartitionIntoIter<T> {
        match Arc::try_unwrap(self.repr) {
            Ok(repr) => PartitionIntoIter::Owned(repr.data.into_iter()),
            Err(shared) => PartitionIntoIter::Shared { data: Partition { repr: shared }, next: 0 },
        }
    }
}

impl<'a, T> IntoIterator for &'a Partition<T> {
    type Item = &'a T;
    type IntoIter = std::slice::Iter<'a, T>;

    fn into_iter(self) -> std::slice::Iter<'a, T> {
        self.repr.data.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deref_and_iter() {
        let p = Partition::from_vec(vec![1, 2, 3]);
        assert_eq!(p.len(), 3);
        assert_eq!(p[1], 2);
        assert_eq!(p.iter().sum::<i32>(), 6);
        assert_eq!(p.first(), Some(&1));
        assert!(!Partition::from_vec(vec![0]).is_empty());
        assert!(Partition::<i32>::empty().is_empty());
    }

    #[test]
    fn clones_share_the_allocation() {
        let p = Partition::from_vec(vec![1, 2, 3]);
        assert!(!p.is_shared());
        let q = p.clone();
        assert!(p.is_shared());
        assert!(q.is_shared());
        assert_eq!(p.as_slice().as_ptr(), q.as_slice().as_ptr());
        drop(q);
        assert!(!p.is_shared());
    }

    #[test]
    fn into_vec_is_zero_cost_when_unique() {
        let p = Partition::from_vec(vec![1, 2, 3]);
        let ptr = p.as_slice().as_ptr();
        let v = p.into_vec();
        assert_eq!(v.as_ptr(), ptr, "unique handle must not reallocate");
    }

    #[test]
    fn into_vec_clones_when_shared() {
        let p = Partition::from_vec(vec![1, 2, 3]);
        let q = p.clone();
        let ptr = q.as_slice().as_ptr();
        let v = p.into_vec();
        assert_ne!(v.as_ptr(), ptr, "shared handle must deep-clone");
        assert_eq!(v, q.to_vec());
    }

    #[test]
    fn counted_conversions_track_forced_clones() {
        let m = Metrics::default();
        let unique = Partition::from_vec(vec![1, 2, 3]);
        let _ = unique.into_vec_counted(&m);
        assert_eq!(m.snapshot().records_cloned, 0);

        let shared = Partition::from_vec(vec![1, 2, 3]);
        let _keep = shared.clone();
        let _ = shared.into_vec_counted(&m);
        assert_eq!(m.snapshot().records_cloned, 3);

        let shared = Partition::from_vec(vec![4, 5]);
        let _keep = shared.clone();
        let collected: Vec<i32> = shared.into_iter_counted(&m).collect();
        assert_eq!(collected, vec![4, 5]);
        assert_eq!(m.snapshot().records_cloned, 5);
    }

    #[test]
    fn by_value_iteration_owned_and_shared() {
        let p = Partition::from_vec(vec![1, 2, 3]);
        let owned: Vec<i32> = p.into_iter().collect();
        assert_eq!(owned, vec![1, 2, 3]);

        let p = Partition::from_vec(vec![1, 2, 3]);
        let _keep = p.clone();
        let it = p.into_iter();
        assert_eq!(it.len(), 3);
        assert_eq!(it.collect::<Vec<_>>(), vec![1, 2, 3]);

        let p = Partition::from_vec(vec![1, 2, 3]);
        let borrowed: Vec<i32> = (&p).into_iter().copied().collect();
        assert_eq!(borrowed, vec![1, 2, 3]);
    }

    #[test]
    fn to_columns_builds_once_and_shares_across_handles() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let builds = AtomicUsize::new(0);
        let p = Partition::from_vec(vec![1i64, 2, 3]);
        let q = p.clone();

        let build = |rows: &[i64]| {
            builds.fetch_add(1, Ordering::SeqCst);
            rows.iter().map(|v| *v as f64).collect::<Vec<f64>>()
        };
        let a = p.to_columns(build);
        let b = q.to_columns(build);
        assert_eq!(builds.load(Ordering::SeqCst), 1, "sidecar must be built once");
        assert!(Arc::ptr_eq(&a, &b), "handles must share the cached sidecar");
        assert_eq!(a.as_slice(), &[1.0, 2.0, 3.0]);
    }

    #[test]
    fn to_columns_type_mismatch_builds_uncached() {
        let p = Partition::from_vec(vec![1i64, 2, 3]);
        let floats = p.to_columns(|rows| rows.iter().map(|v| *v as f64).collect::<Vec<f64>>());
        assert_eq!(floats.len(), 3);
        // a second sidecar type does not evict the first, it just builds fresh
        let sums = p.to_columns(|rows| rows.iter().sum::<i64>());
        assert_eq!(*sums, 6);
        let again = p.to_columns(|rows| rows.iter().map(|v| *v as f64).collect::<Vec<f64>>());
        assert!(Arc::ptr_eq(&floats, &again), "original sidecar stays cached");
    }

    #[test]
    fn to_columns_survives_serde_roundtrip_rebuild() {
        use serde::{Deserialize, Serialize};
        let p = Partition::from_vec(vec![1i64, 2, 3]);
        let _ = p.to_columns(|rows| rows.len());
        let v = p.to_value();
        let back = Partition::<i64>::from_value(&v).expect("roundtrip");
        assert_eq!(back, p);
        let blob = serde::bin::to_vec(&p);
        assert_eq!(blob, crate::plan::encode_rows(p.as_slice()).unwrap());
        assert_eq!(serde::bin::from_slice::<Partition<i64>>(&blob).unwrap(), p);
        let n = back.to_columns(|rows| rows.len());
        assert_eq!(*n, 3);
    }
}
