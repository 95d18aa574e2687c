//! # stark-index — STR-tree spatial indexing
//!
//! The reproduction's substitute for the R-tree (an STR-tree, to be
//! precise) that STARK borrows from JTS (paper §2.2). The tree is bulk
//! loaded from a partition's content, answers envelope range queries with
//! *candidates* that the caller refines with the exact predicate, and
//! walks its entries best-first under any envelope lower bound, which
//! is what an exact k-nearest-neighbour search refines. Trees are `serde`
//! serialisable, which is what makes STARK's *persistent indexing* mode
//! possible.
//!
//! ```
//! use stark_index::{Entry, StrTree};
//! use stark_geo::{Coord, Envelope};
//!
//! let entries = (0..100)
//!     .map(|i| Entry::new(Envelope::from_point(Coord::new(i as f64, 0.0)), i))
//!     .collect();
//! let tree = StrTree::build(5, entries);
//! let hits = tree.query_vec(&Envelope::from_bounds(10.5, -1.0, 13.5, 1.0));
//! assert_eq!(hits.len(), 3);
//! ```

pub mod naive;
pub mod strtree;

pub use naive::NaiveIndex;
pub use strtree::{BestFirst, Entry, StrTree, DEFAULT_ORDER};
