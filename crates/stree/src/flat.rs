//! Flat, cache-friendly compilation of a built tree index.
//!
//! The node-based [`STree`]/[`PackedRTree`] walks chase pointers: every
//! node holds a heap-allocated [`Rect`] (itself a `Vec<Interval>`), and
//! S-tree internal nodes hold a `Vec<u32>` child list. A point query
//! therefore takes several dependent loads per visited node, which is what
//! dominates matching time once the tree is memory-resident.
//!
//! [`FlatSTree`] recompiles any built tree into four contiguous arrays:
//!
//! * per-node `lo`/`hi` bound arrays laid out **dimension-major**
//!   (`lo[d * node_count + v]`), so scanning a run of sibling nodes along
//!   one dimension is a sequential read;
//! * one `(u32, u32)` child span per node — nodes are renumbered
//!   breadth-first during compilation, which makes every node's children
//!   (and every leaf's entries) a contiguous range;
//! * per-entry `lo`/`hi` bound arrays in the same dimension-major layout,
//!   with leaf entry runs level-contiguous;
//! * the entry id array.
//!
//! Queries are iterative (explicit stack, no recursion) and the
//! containment loop is monomorphized per dimensionality for the common
//! cases, so the inner loop is branch-predictable straight-line code.
//! [`FlatSTree::count_point`] never materializes result ids.
//!
//! # Example
//!
//! ```
//! use pubsub_geom::{Point, Rect};
//! use pubsub_stree::{Entry, EntryId, FlatSTree, STree, STreeConfig, SpatialIndex};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let entries = vec![
//!     Entry::new(Rect::from_corners(&[0.0, 0.0], &[5.0, 5.0])?, EntryId(0)),
//!     Entry::new(Rect::from_corners(&[3.0, 3.0], &[9.0, 9.0])?, EntryId(1)),
//! ];
//! let tree = STree::build(entries, STreeConfig::default())?;
//! let flat = FlatSTree::from_stree(&tree);
//! let p = Point::new(vec![4.0, 4.0])?;
//! let mut hits = flat.query_point(&p);
//! hits.sort();
//! assert_eq!(hits, vec![EntryId(0), EntryId(1)]);
//! assert_eq!(flat.count_point(&p), 2);
//! # Ok(())
//! # }
//! ```

use std::cell::RefCell;

use pubsub_geom::{Point, Rect};

use crate::packed::PackedRTree;
use crate::stree::{Children, STree};
use crate::{EntryId, SpatialIndex};

/// How one source node refers to its children during compilation.
enum Kids<'a> {
    /// Leaf: a contiguous range of the source entry array.
    Entries { start: u32, len: u32 },
    /// Internal node with an explicit child list (S-tree).
    List(&'a [u32]),
    /// Internal node with a contiguous child range (packed R-tree).
    Range { first: u32, len: u32 },
}

/// A flat, query-only compilation of a built [`STree`] or
/// [`PackedRTree`]: structure-of-arrays bounds, breadth-first node
/// numbering, span-encoded children. See the module docs for the layout.
#[derive(Debug, Clone)]
pub struct FlatSTree {
    dims: usize,
    /// Node bounds, dimension-major: `node_lo[d * node_count + v]`.
    node_lo: Vec<f64>,
    node_hi: Vec<f64>,
    /// Per node: child node span (internal) or entry span (leaf).
    spans: Vec<(u32, u32)>,
    leaf: Vec<bool>,
    /// Entry bounds, dimension-major: `entry_lo[d * entry_count + i]`.
    entry_lo: Vec<f64>,
    entry_hi: Vec<f64>,
    ids: Vec<EntryId>,
}

thread_local! {
    /// Traversal stack for the scratch-free [`SpatialIndex`] entry points;
    /// reused across queries so the trait path is allocation-free after
    /// warm-up.
    static TRAVERSAL_STACK: RefCell<Vec<u32>> = const { RefCell::new(Vec::new()) };
}

impl FlatSTree {
    /// Compiles a built [`STree`] into the flat layout. Queries on the
    /// result return exactly the same id sets.
    pub fn from_stree(tree: &STree) -> Self {
        Self::compile(
            tree.dims(),
            tree.entries.len(),
            tree.root,
            |v| &tree.nodes[v as usize].mbr,
            |v| match &tree.nodes[v as usize].children {
                Children::Leaf { start, len } => Kids::Entries {
                    start: *start,
                    len: *len,
                },
                Children::Internal(children) => Kids::List(children),
            },
            |i| {
                let e = &tree.entries[i as usize];
                (&e.rect, e.id)
            },
        )
    }

    /// Compiles a built [`PackedRTree`] into the flat layout.
    pub fn from_packed(tree: &PackedRTree) -> Self {
        Self::compile(
            tree.dims(),
            tree.entries.len(),
            tree.root,
            |v| &tree.nodes[v as usize].mbr,
            |v| {
                let n = &tree.nodes[v as usize];
                if n.leaf {
                    Kids::Entries {
                        start: n.first,
                        len: n.len,
                    }
                } else {
                    Kids::Range {
                        first: n.first,
                        len: n.len,
                    }
                }
            },
            |i| {
                let e = &tree.entries[i as usize];
                (&e.rect, e.id)
            },
        )
    }

    fn compile<'a>(
        dims: usize,
        entry_total: usize,
        root: Option<u32>,
        mbr: impl Fn(u32) -> &'a Rect,
        kids: impl Fn(u32) -> Kids<'a>,
        entry: impl Fn(u32) -> (&'a Rect, EntryId),
    ) -> Self {
        let Some(root) = root else {
            return FlatSTree {
                dims,
                node_lo: Vec::new(),
                node_hi: Vec::new(),
                spans: Vec::new(),
                leaf: Vec::new(),
                entry_lo: Vec::new(),
                entry_hi: Vec::new(),
                ids: Vec::new(),
            };
        };

        // Pass 1: breadth-first renumbering. `order[new_id] = source_id`;
        // a node's children are appended together, so every internal node
        // owns a contiguous span of new ids, and leaf entry runs are
        // assigned in the same level order.
        let mut order: Vec<u32> = vec![root];
        let mut spans: Vec<(u32, u32)> = Vec::new();
        let mut leaf: Vec<bool> = Vec::new();
        // (source entry start, flat entry start, len) per leaf, for pass 2.
        let mut copies: Vec<(u32, u32, u32)> = Vec::new();
        let mut entry_cursor = 0u32;
        let mut head = 0usize;
        while head < order.len() {
            let sv = order[head];
            head += 1;
            match kids(sv) {
                Kids::Entries { start, len } => {
                    spans.push((entry_cursor, len));
                    leaf.push(true);
                    copies.push((start, entry_cursor, len));
                    entry_cursor += len;
                }
                Kids::List(children) => {
                    spans.push((order.len() as u32, children.len() as u32));
                    leaf.push(false);
                    order.extend_from_slice(children);
                }
                Kids::Range { first, len } => {
                    spans.push((order.len() as u32, len));
                    leaf.push(false);
                    order.extend(first..first + len);
                }
            }
        }
        debug_assert_eq!(entry_cursor as usize, entry_total);

        // Pass 2: fill the dimension-major bound arrays.
        let n = order.len();
        let mut node_lo = vec![0.0f64; dims * n];
        let mut node_hi = vec![0.0f64; dims * n];
        for (nv, &sv) in order.iter().enumerate() {
            let r = mbr(sv);
            for d in 0..dims {
                let side = r.side(d);
                node_lo[d * n + nv] = side.lo();
                node_hi[d * n + nv] = side.hi();
            }
        }
        let mut entry_lo = vec![0.0f64; dims * entry_total];
        let mut entry_hi = vec![0.0f64; dims * entry_total];
        let mut ids = vec![EntryId(0); entry_total];
        for &(src, dst, len) in &copies {
            for k in 0..len {
                let (r, id) = entry(src + k);
                let i = (dst + k) as usize;
                ids[i] = id;
                for d in 0..dims {
                    let side = r.side(d);
                    entry_lo[d * entry_total + i] = side.lo();
                    entry_hi[d * entry_total + i] = side.hi();
                }
            }
        }

        FlatSTree {
            dims,
            node_lo,
            node_hi,
            spans,
            leaf,
            entry_lo,
            entry_hi,
            ids,
        }
    }

    /// Number of nodes in the compiled tree.
    pub fn node_count(&self) -> usize {
        self.spans.len()
    }

    /// Point query with caller-provided traversal scratch: no allocation
    /// at all once `stack` and `out` have grown to their working sizes.
    /// Matching ids are appended to `out` (not cleared first).
    pub fn query_point_with(&self, p: &Point, stack: &mut Vec<u32>, out: &mut Vec<EntryId>) {
        if self.spans.is_empty() {
            return;
        }
        debug_assert_eq!(p.dims(), self.dims);
        match self.dims {
            1 => self.point_query::<1, false>(p.as_slice(), stack, Some(out)),
            2 => self.point_query::<2, false>(p.as_slice(), stack, Some(out)),
            3 => self.point_query::<3, false>(p.as_slice(), stack, Some(out)),
            4 => self.point_query::<4, false>(p.as_slice(), stack, Some(out)),
            _ => self.point_query::<0, false>(p.as_slice(), stack, Some(out)),
        };
    }

    /// Count-only point query with caller-provided scratch: traverses the
    /// same nodes as [`FlatSTree::query_point_with`] but never
    /// materializes ids.
    pub fn count_point_with(&self, p: &Point, stack: &mut Vec<u32>) -> usize {
        if self.spans.is_empty() {
            return 0;
        }
        debug_assert_eq!(p.dims(), self.dims);
        match self.dims {
            1 => self.point_query::<1, true>(p.as_slice(), stack, None),
            2 => self.point_query::<2, true>(p.as_slice(), stack, None),
            3 => self.point_query::<3, true>(p.as_slice(), stack, None),
            4 => self.point_query::<4, true>(p.as_slice(), stack, None),
            _ => self.point_query::<0, true>(p.as_slice(), stack, None),
        }
    }

    /// Region query with caller-provided traversal scratch.
    pub fn query_region_with(&self, r: &Rect, stack: &mut Vec<u32>, out: &mut Vec<EntryId>) {
        if self.spans.is_empty() {
            return;
        }
        debug_assert_eq!(r.dims(), self.dims);
        let n = self.node_count();
        let en = self.ids.len();
        stack.clear();
        if self.node_intersects(0, r, n) {
            stack.push(0);
        }
        while let Some(v) = stack.pop() {
            let (start, len) = self.spans[v as usize];
            if self.leaf[v as usize] {
                for i in start as usize..(start + len) as usize {
                    let mut hit = true;
                    for d in 0..self.dims {
                        let lo = self.entry_lo[d * en + i].max(r.side(d).lo());
                        let hi = self.entry_hi[d * en + i].min(r.side(d).hi());
                        if lo >= hi {
                            hit = false;
                            break;
                        }
                    }
                    if hit {
                        out.push(self.ids[i]);
                    }
                }
            } else {
                for c in start..start + len {
                    if self.node_intersects(c as usize, r, n) {
                        stack.push(c);
                    }
                }
            }
        }
    }

    #[inline]
    fn node_intersects(&self, v: usize, r: &Rect, n: usize) -> bool {
        for d in 0..self.dims {
            let lo = self.node_lo[d * n + v].max(r.side(d).lo());
            let hi = self.node_hi[d * n + v].min(r.side(d).hi());
            if lo >= hi {
                return false;
            }
        }
        true
    }

    /// The shared point traversal, monomorphized per dimensionality
    /// (`D == 0` is the dynamic fallback) and per mode (`COUNT` skips id
    /// materialization). Returns the match count.
    ///
    /// Spans (a node's children, a leaf's entries) are tested in chunks
    /// of up to 64 with a survivor bitmask built one dimension at a time:
    /// each dimension is a sequential, branchless sweep over the
    /// dimension-major bound arrays, which is the access pattern the
    /// layout exists for.
    fn point_query<const D: usize, const COUNT: bool>(
        &self,
        coords: &[f64],
        stack: &mut Vec<u32>,
        mut out: Option<&mut Vec<EntryId>>,
    ) -> usize {
        if self.spans.is_empty() {
            return 0;
        }
        let n = self.node_count();
        let en = self.ids.len();
        let dims = if D == 0 { self.dims } else { D };
        let mut count = 0usize;
        stack.clear();
        if contains_one::<D>(&self.node_lo, &self.node_hi, n, 0, coords, dims) {
            stack.push(0);
        }
        while let Some(v) = stack.pop() {
            let span = self.spans[v as usize];
            if self.leaf[v as usize] {
                span_masks::<D>(
                    &self.entry_lo,
                    &self.entry_hi,
                    en,
                    span,
                    coords,
                    dims,
                    |base, mut mask| {
                        count += mask.count_ones() as usize;
                        if !COUNT {
                            let out = out.as_deref_mut().expect("query mode provides out");
                            while mask != 0 {
                                let j = mask.trailing_zeros() as usize;
                                out.push(self.ids[base + j]);
                                mask &= mask - 1;
                            }
                        }
                    },
                );
            } else {
                span_masks::<D>(
                    &self.node_lo,
                    &self.node_hi,
                    n,
                    span,
                    coords,
                    dims,
                    |base, mut mask| {
                        while mask != 0 {
                            let j = mask.trailing_zeros() as usize;
                            stack.push((base + j) as u32);
                            mask &= mask - 1;
                        }
                    },
                );
            }
        }
        count
    }
}

/// Half-open containment test (`lo < x ≤ hi` per dimension, matching
/// [`pubsub_geom::Interval::contains`]) for a single element of a
/// dimension-major bound array. Used for the root; spans go through
/// [`span_masks`].
#[inline(always)]
fn contains_one<const D: usize>(
    lo: &[f64],
    hi: &[f64],
    stride: usize,
    v: usize,
    coords: &[f64],
    dims: usize,
) -> bool {
    let dims = if D == 0 { dims } else { D };
    for (d, &x) in coords.iter().enumerate().take(dims) {
        let i = d * stride + v;
        if !(lo[i] < x && x <= hi[i]) {
            return false;
        }
    }
    true
}

/// Tests the elements `[start, start + len)` of a dimension-major bound
/// array against `coords` and hands the caller one survivor bitmask per
/// chunk of 64 (bit `j` set ⇔ element `base + j` contains the point).
/// Each dimension is one branchless sequential sweep; a chunk whose mask
/// empties skips its remaining dimensions.
#[inline(always)]
fn span_masks<const D: usize>(
    lo: &[f64],
    hi: &[f64],
    stride: usize,
    (start, len): (u32, u32),
    coords: &[f64],
    dims: usize,
    mut emit: impl FnMut(usize, u64),
) {
    let dims = if D == 0 { dims } else { D };
    let mut k = 0usize;
    let len = len as usize;
    let start = start as usize;
    while k < len {
        let chunk = (len - k).min(64);
        let base = start + k;
        let mut mask: u64 = if chunk == 64 { !0 } else { (1u64 << chunk) - 1 };
        for (d, &x) in coords.iter().enumerate().take(dims) {
            let row = d * stride + base;
            let lo_d = &lo[row..row + chunk];
            let hi_d = &hi[row..row + chunk];
            let mut m = 0u64;
            for j in 0..chunk {
                m |= u64::from((lo_d[j] < x) & (x <= hi_d[j])) << j;
            }
            mask &= m;
            if mask == 0 {
                break;
            }
        }
        if mask != 0 {
            emit(base, mask);
        }
        k += chunk;
    }
}

impl SpatialIndex for FlatSTree {
    fn len(&self) -> usize {
        self.ids.len()
    }

    fn dims(&self) -> usize {
        self.dims
    }

    fn query_point_into(&self, p: &Point, out: &mut Vec<EntryId>) {
        TRAVERSAL_STACK.with_borrow_mut(|stack| self.query_point_with(p, stack, out));
    }

    fn query_region_into(&self, r: &Rect, out: &mut Vec<EntryId>) {
        TRAVERSAL_STACK.with_borrow_mut(|stack| self.query_region_with(r, stack, out));
    }

    fn count_point(&self, p: &Point) -> usize {
        TRAVERSAL_STACK.with_borrow_mut(|stack| self.count_point_with(p, stack))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Entry, PackedConfig, STreeConfig};

    fn entries_grid(n: u32) -> Vec<Entry> {
        (0..n)
            .map(|i| {
                let x = f64::from(i % 25) * 4.0;
                let y = f64::from(i / 25) * 4.0;
                Entry::new(
                    Rect::from_corners(&[x, y], &[x + 6.0, y + 6.0]).unwrap(),
                    EntryId(i),
                )
            })
            .collect()
    }

    fn sorted(mut v: Vec<EntryId>) -> Vec<EntryId> {
        v.sort();
        v
    }

    #[test]
    fn empty_tree_compiles_and_answers() {
        let tree = STree::build(vec![], STreeConfig::default()).unwrap();
        let flat = FlatSTree::from_stree(&tree);
        assert!(flat.is_empty());
        assert_eq!(flat.node_count(), 0);
        let p = Point::new(vec![1.0]).unwrap();
        assert!(flat.query_point(&p).is_empty());
        assert_eq!(flat.count_point(&p), 0);
    }

    #[test]
    fn matches_source_stree_on_grid() {
        let entries = entries_grid(400);
        let tree = STree::build(entries, STreeConfig::new(8, 0.3).unwrap()).unwrap();
        let flat = FlatSTree::from_stree(&tree);
        assert_eq!(flat.len(), tree.len());
        assert_eq!(flat.dims(), 2);
        for i in 0..60 {
            let p =
                Point::new(vec![f64::from(i) * 2.3 % 100.0, f64::from(i) * 3.7 % 64.0]).unwrap();
            assert_eq!(sorted(flat.query_point(&p)), sorted(tree.query_point(&p)));
            assert_eq!(flat.count_point(&p), tree.count_point(&p));
        }
        let r = Rect::from_corners(&[10.0, 10.0], &[30.0, 30.0]).unwrap();
        assert_eq!(sorted(flat.query_region(&r)), sorted(tree.query_region(&r)));
    }

    #[test]
    fn matches_source_packed_tree() {
        let entries = entries_grid(500);
        let tree = PackedRTree::build(entries, PackedConfig::hilbert()).unwrap();
        let flat = FlatSTree::from_packed(&tree);
        for i in 0..40 {
            let p =
                Point::new(vec![f64::from(i) * 3.1 % 100.0, f64::from(i) * 5.3 % 80.0]).unwrap();
            assert_eq!(sorted(flat.query_point(&p)), sorted(tree.query_point(&p)));
            assert_eq!(flat.count_point(&p), tree.count_point(&p));
        }
    }

    #[test]
    fn scratch_path_accumulates_without_clearing() {
        let entries = entries_grid(100);
        let tree = STree::build(entries, STreeConfig::new(4, 0.3).unwrap()).unwrap();
        let flat = FlatSTree::from_stree(&tree);
        let mut stack = Vec::new();
        let mut out = Vec::new();
        let p = Point::new(vec![12.0, 12.0]).unwrap();
        flat.query_point_with(&p, &mut stack, &mut out);
        let first = out.len();
        assert!(first > 0);
        flat.query_point_with(&p, &mut stack, &mut out);
        assert_eq!(out.len(), 2 * first, "out must accumulate, not clear");
        assert_eq!(flat.count_point_with(&p, &mut stack), first);
    }

    #[test]
    fn duplicate_rects_all_found() {
        let r = Rect::from_corners(&[0.0, 0.0], &[1.0, 1.0]).unwrap();
        let entries: Vec<Entry> = (0..100)
            .map(|i| Entry::new(r.clone(), EntryId(i)))
            .collect();
        let tree = STree::build(entries, STreeConfig::new(4, 0.3).unwrap()).unwrap();
        let flat = FlatSTree::from_stree(&tree);
        let p = Point::new(vec![0.5, 0.5]).unwrap();
        assert_eq!(flat.query_point(&p).len(), 100);
        assert_eq!(flat.count_point(&p), 100);
    }

    #[test]
    fn high_dimensional_fallback_path() {
        // 6-D exercises the dynamic (`D == 0`) monomorphization.
        let entries: Vec<Entry> = (0..50)
            .map(|i| {
                let base = f64::from(i % 10);
                let lo = vec![base; 6];
                let hi = vec![base + 3.0; 6];
                Entry::new(Rect::from_corners(&lo, &hi).unwrap(), EntryId(i))
            })
            .collect();
        let tree = STree::build(entries, STreeConfig::new(4, 0.3).unwrap()).unwrap();
        let flat = FlatSTree::from_stree(&tree);
        let p = Point::new(vec![2.5; 6]).unwrap();
        assert_eq!(sorted(flat.query_point(&p)), sorted(tree.query_point(&p)));
        assert_eq!(flat.count_point(&p), tree.count_point(&p));
    }
}
