//! Spatial partitioners (paper §2.1).
//!
//! A spatial partitioner assigns every record to exactly one partition by
//! the *centroid* of its geometry. Because non-point geometries can stick
//! out of their partition's rectangular bounds, each partition carries an
//! additional **extent** — the union of the MBRs of everything assigned
//! to it — and query execution prunes partitions using the extent, never
//! the bounds. This is STARK's no-replication alternative to the
//! duplicate-and-prune scheme used by other systems.

mod bsp;
mod grid;
mod temporal;

pub use bsp::BspPartitioner;
pub use grid::GridPartitioner;
pub use temporal::TemporalPartitioner;

use crate::stobject::STObject;
use serde::{Deserialize, Serialize};
use stark_geo::{Coord, Envelope};

/// One spatial partition: its nominal rectangular `bounds` and the
/// `extent` actually covered by assigned records' MBRs.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PartitionCell {
    pub id: usize,
    /// The region of space whose centroids map to this partition.
    pub bounds: Envelope,
    /// Union of member MBRs; pruning decisions use this. Empty when the
    /// partition received no records.
    pub extent: Envelope,
}

impl PartitionCell {
    pub fn new(id: usize, bounds: Envelope) -> Self {
        PartitionCell { id, bounds, extent: Envelope::empty() }
    }
}

/// A centroid-based spatial partitioner with per-partition extents.
pub trait SpatialPartitioner: Send + Sync {
    /// Number of partitions produced.
    fn num_partitions(&self) -> usize;

    /// Target partition for a centroid. Total: out-of-bounds centroids
    /// clamp to the nearest cell.
    fn partition_for_centroid(&self, c: &Coord) -> usize;

    /// Partition metadata (bounds and extents).
    fn cells(&self) -> &[PartitionCell];

    /// Short human-readable partitioner name (for benchmark tables).
    fn name(&self) -> &'static str;

    /// Target partition for a record (assignment by centroid, §2.1).
    fn partition_of(&self, obj: &STObject) -> usize {
        self.partition_for_centroid(&obj.centroid())
    }

    /// Fallible assignment: rejects NaN/infinite centroids with a typed
    /// error instead of silently routing them (a NaN coordinate fails
    /// every cell comparison and used to fall through to partition 0,
    /// corrupting that partition's extent). Finite out-of-space centroids
    /// still clamp to the nearest cell, as before.
    fn try_partition_for_centroid(&self, c: &Coord) -> Result<usize, crate::error::StarkError> {
        if !c.is_finite() {
            return Err(crate::error::StarkError::NonFiniteCentroid { x: c.x, y: c.y });
        }
        Ok(self.partition_for_centroid(c))
    }

    /// Fallible record assignment; see
    /// [`try_partition_for_centroid`](SpatialPartitioner::try_partition_for_centroid).
    fn try_partition_of(&self, obj: &STObject) -> Result<usize, crate::error::StarkError> {
        self.try_partition_for_centroid(&obj.centroid())
    }
}

/// Summary statistics a partitioner is built from: one `(mbr, centroid)`
/// pair per record. Gathering this is a single narrow pass over the data.
pub type DataSummary = Vec<(Envelope, Coord)>;

/// Folds every record's MBR into the extent of its assigned cell.
/// Shared post-construction step for all partitioners.
pub(crate) fn fit_extents(
    cells: &mut [PartitionCell],
    assign: impl Fn(&Coord) -> usize,
    data: &[(Envelope, Coord)],
) {
    for (env, centroid) in data {
        let id = assign(centroid);
        cells[id].extent.expand_to_include_envelope(env);
    }
}

/// Load-balance statistics over the non-empty partitions of a
/// partitioning; used by the skew/balance experiment (A2).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BalanceStats {
    pub partitions: usize,
    pub non_empty: usize,
    pub min: usize,
    pub max: usize,
    pub mean: f64,
    /// Population standard deviation of per-partition record counts
    /// (all partitions, including empty ones).
    pub std_dev: f64,
}

/// Computes balance statistics from per-partition record counts.
pub fn balance_stats(counts: &[usize]) -> BalanceStats {
    let n = counts.len();
    if n == 0 {
        return BalanceStats {
            partitions: 0,
            non_empty: 0,
            min: 0,
            max: 0,
            mean: 0.0,
            std_dev: 0.0,
        };
    }
    let total: usize = counts.iter().sum();
    let mean = total as f64 / n as f64;
    let var = counts.iter().map(|&c| (c as f64 - mean).powi(2)).sum::<f64>() / n as f64;
    BalanceStats {
        partitions: n,
        non_empty: counts.iter().filter(|&&c| c > 0).count(),
        min: counts.iter().copied().min().unwrap_or(0),
        max: counts.iter().copied().max().unwrap_or(0),
        mean,
        std_dev: var.sqrt(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn balance_stats_basics() {
        let s = balance_stats(&[10, 0, 20, 10]);
        assert_eq!(s.partitions, 4);
        assert_eq!(s.non_empty, 3);
        assert_eq!(s.min, 0);
        assert_eq!(s.max, 20);
        assert!((s.mean - 10.0).abs() < 1e-9);
        assert!(s.std_dev > 0.0);
    }

    #[test]
    fn balance_stats_empty() {
        let s = balance_stats(&[]);
        assert_eq!(s.partitions, 0);
        assert_eq!(s.std_dev, 0.0);
    }

    #[test]
    fn uniform_counts_have_zero_deviation() {
        let s = balance_stats(&[5, 5, 5, 5]);
        assert_eq!(s.std_dev, 0.0);
        assert_eq!(s.min, s.max);
    }
}
