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
//! * [`CompactSTree`] — a compressed baseline for representative sets:
//!   `u16`-quantized bounds with conservative outward rounding,
//!   Hilbert-packed and built streaming from a bounds accessor (no O(N)
//!   `f64` intermediate), reporting boundary-ambiguous hits for the
//!   caller's exact re-check. The packed shape visits fewer nodes per
//!   point query than the S-tree on the paper's testbed (EXPERIMENTS.md
//!   §3); `pubsub_core`'s matcher has since replaced it with slab
//!   bitmaps, which walk no tree at all;
//! * [`simd`] — explicit SIMD interval-containment kernels (AVX2/SSE2
//!   with runtime dispatch and a portable scalar fallback) over
//!   quantized 8-event [`QuantBlock`]s, the batches behind
//!   [`CompactSTree::query_point_block`];
//! * [`LinearScan`] — the brute-force correctness oracle.
//!
//! Every index but [`CompactSTree`] implements the [`SpatialIndex`]
//! trait.
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

#![deny(missing_docs)]
#![deny(missing_debug_implementations)]

mod compact;
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

pub use compact::{CompactConfig, CompactSTree};
pub use counting::CountingIndex;
pub use entry::{Entry, EntryId};
pub use error::{IndexError, InvariantViolation};
pub use gryphon::{EqualitySubscription, GryphonIndex};
pub use hilbert::{hilbert_index, morton_index, CurveKind};
pub use index::SpatialIndex;
pub use linear::LinearScan;
pub use packed::{PackedConfig, PackedRTree};
pub use simd::{QuantBlock, SimdLevel, LANES};
pub use stree::{STree, STreeConfig, STreeStats};
