//! # stark-bench — the paper's evaluation, regenerated
//!
//! One experiment per table/figure of the STARK paper plus the
//! `spatialbm` suite its Section 3 references, ablations for the design
//! decisions of §2 (extent pruning, BSP-vs-grid, index modes), the
//! streaming experiment S6, and the engine ablations S8–S10 (retry,
//! speculation, memory budget). The `repro` binary prints the tables;
//! criterion benches (`benches/figure4.rs`, `benches/spatialbm.rs`)
//! track the same operations at micro scale. The query service, the
//! columnar filter, the incremental stream and the remote shuffle are
//! measured by the repo benchmark in `bench/` instead.

pub mod experiments;
pub mod table;
pub mod workloads;

pub use table::{secs, timed, Table};
