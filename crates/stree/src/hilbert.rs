//! Space-filling curves used by the packed R-tree baselines.
//!
//! The paper cites Hilbert-packed R-trees (Kamel & Faloutsos, VLDB 1994) as
//! the bottom-up packing alternative to the S-tree. The original work is
//! two-dimensional; for the paper's 4-dimensional event space we use the
//! standard N-dimensional generalization ([`hilbert_index`], from
//! `pubsub-geom`), plus the simpler Morton / Z-order interleaving
//! ([`morton_index`]) as a second baseline.

pub use pubsub_geom::{hilbert_index, morton_index};

/// Which space-filling curve a [`crate::PackedRTree`] sorts by.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum CurveKind {
    /// N-dimensional Hilbert curve — better locality, slightly costlier keys.
    Hilbert,
    /// Morton (Z-order) interleaving — cheaper keys, worse locality.
    Morton,
}

/// Computes the curve key selected by `kind`.
pub(crate) fn curve_index(kind: CurveKind, coords: &[u32], bits: u32) -> u128 {
    match kind {
        CurveKind::Hilbert => hilbert_index(coords, bits),
        CurveKind::Morton => morton_index(coords, bits),
    }
}
