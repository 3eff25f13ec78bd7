//! Spatial indexes for the matching problem of content-based pub-sub.
//!
//! The matching problem (paper §3): given a published event — a point `ω` in
//! the `N`-dimensional event space — find every subscription rectangle that
//! contains it (a spatial-database *point query*), and by extension every
//! subscription intersecting a query rectangle (a *region query*).
//!
//! This crate provides:
//!
//! * [`STree`] — the paper's index of choice: an unbalanced R-tree variant
//!   (Aggarwal, Wolf, Yu, Epelman, *Knowledge and Information Systems*
//!   1999) packed in two stages, top-down *binarization* controlled by a
//!   skew factor `p`, then *compression* to fanout `M`;
//! * [`PackedRTree`] — a bottom-up packed R-tree using either a generalized
//!   N-dimensional Hilbert curve ([`CurveKind::Hilbert`], the
//!   Kamel–Faloutsos baseline the paper cites) or a Morton/Z-order curve
//!   ([`CurveKind::Morton`]);
//! * [`CountingIndex`] — the counting matching algorithm the paper cites
//!   (per-dimension segment-tree stabbing + hit counting), which accepts
//!   unbounded predicates without clamping;
//! * [`GryphonIndex`] — a Gryphon-style parallel search tree for
//!   equality/wild-card subscriptions, the predicate class the paper says
//!   Gryphon's algorithms are optimized for (and which cannot express
//!   ranges);
//! * [`LinearScan`] — the brute-force correctness oracle.
//!
//! Every range index implements the [`SpatialIndex`] trait;
//! [`GryphonIndex`] matches equality subscriptions through its own
//! interface. [`simd`] reports the host's SIMD level for benchmark
//! headers; no index dispatches on it.
//!
//! # Example
//!
//! ```
//! use pubsub_geom::{Point, Rect};
//! use pubsub_stree::{Entry, EntryId, STree, STreeConfig, SpatialIndex};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let entries = vec![
//!     Entry::new(Rect::from_corners(&[0.0, 0.0], &[5.0, 5.0])?, EntryId(0)),
//!     Entry::new(Rect::from_corners(&[3.0, 3.0], &[9.0, 9.0])?, EntryId(1)),
//! ];
//! let tree = STree::build(entries, STreeConfig::default())?;
//! let mut hits = tree.query_point(&Point::new(vec![4.0, 4.0])?);
//! hits.sort();
//! assert_eq!(hits, vec![EntryId(0), EntryId(1)]);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]
#![deny(missing_debug_implementations)]

mod counting;
mod entry;
mod error;
mod gryphon;
mod hilbert;
mod index;
mod linear;
mod packed;
pub mod simd;
mod stree;

pub use counting::CountingIndex;
pub use entry::{Entry, EntryId};
pub use error::{IndexError, InvariantViolation};
pub use gryphon::{EqualitySubscription, GryphonIndex};
pub use hilbert::{hilbert_index, morton_index, CurveKind};
pub use index::SpatialIndex;
pub use linear::LinearScan;
pub use packed::{PackedConfig, PackedRTree};
pub use simd::SimdLevel;
pub use stree::{STree, STreeConfig, STreeStats};
