//! Bottom-up packed R-tree (the Kamel–Faloutsos baseline).
//!
//! Entries are sorted by the position of their rectangle's center along a
//! space-filling curve, chunked into leaves of `fanout` entries, and upper
//! levels are built by chunking consecutive nodes — the classic
//! "Hilbert-packed" construction the paper contrasts with the top-down
//! S-tree packing.

use pubsub_geom::{Point, Rect};

use crate::hilbert::{curve_index, CurveKind};
use crate::{Entry, EntryId, IndexError, InvariantViolation, SpatialIndex};

/// Construction parameters of a [`PackedRTree`].
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct PackedConfig {
    fanout: usize,
    curve: CurveKind,
    bits: u32,
}

impl PackedConfig {
    /// Creates a configuration.
    ///
    /// `bits` is the per-dimension quantization used for curve keys.
    ///
    /// # Errors
    ///
    /// Returns [`IndexError::InvalidConfig`] unless `fanout ≥ 2` and
    /// `1 ≤ bits ≤ 16`.
    pub fn new(fanout: usize, curve: CurveKind, bits: u32) -> Result<Self, IndexError> {
        if fanout < 2 {
            return Err(IndexError::InvalidConfig {
                parameter: "fanout",
                constraint: "fanout >= 2",
            });
        }
        if !(1..=16).contains(&bits) {
            return Err(IndexError::InvalidConfig {
                parameter: "bits",
                constraint: "1 <= bits <= 16",
            });
        }
        Ok(PackedConfig {
            fanout,
            curve,
            bits,
        })
    }

    /// Hilbert packing with the paper's typical fanout of 40 and 10-bit
    /// quantization.
    pub fn hilbert() -> Self {
        PackedConfig {
            fanout: 40,
            curve: CurveKind::Hilbert,
            bits: 10,
        }
    }

    /// Morton packing with the same defaults as [`PackedConfig::hilbert`].
    pub fn morton() -> Self {
        PackedConfig {
            fanout: 40,
            curve: CurveKind::Morton,
            bits: 10,
        }
    }

    /// The branch factor.
    pub fn fanout(&self) -> usize {
        self.fanout
    }

    /// The curve used for sorting.
    pub fn curve(&self) -> CurveKind {
        self.curve
    }

    /// Per-dimension quantization bits.
    pub fn bits(&self) -> u32 {
        self.bits
    }
}

impl Default for PackedConfig {
    fn default() -> Self {
        PackedConfig::hilbert()
    }
}

#[derive(Debug, Clone)]
struct Node {
    mbr: Rect,
    /// Children: leaf nodes store an entry range, internal nodes a node
    /// range (packed trees have contiguous children by construction).
    first: u32,
    len: u32,
    leaf: bool,
}

/// A packed R-tree built bottom-up over a space-filling-curve ordering.
///
/// # Example
///
/// ```
/// use pubsub_geom::{Point, Rect};
/// use pubsub_stree::{Entry, EntryId, PackedConfig, PackedRTree, SpatialIndex};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let entries = vec![
///     Entry::new(Rect::from_corners(&[0.0, 0.0], &[2.0, 2.0])?, EntryId(0)),
///     Entry::new(Rect::from_corners(&[5.0, 5.0], &[9.0, 9.0])?, EntryId(1)),
/// ];
/// let tree = PackedRTree::build(entries, PackedConfig::hilbert())?;
/// assert_eq!(tree.query_point(&Point::new(vec![1.0, 1.0])?), vec![EntryId(0)]);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct PackedRTree {
    config: PackedConfig,
    dims: usize,
    entries: Vec<Entry>,
    nodes: Vec<Node>,
    root: Option<u32>,
}

impl PackedRTree {
    /// Builds a packed R-tree over the given entries.
    ///
    /// # Errors
    ///
    /// Same conditions as [`crate::STree::build`]: consistent
    /// dimensionality and finite rectangles.
    pub fn build(mut entries: Vec<Entry>, config: PackedConfig) -> Result<Self, IndexError> {
        let dims = entries.first().map_or(0, |e| e.rect.dims());
        for (index, e) in entries.iter().enumerate() {
            if e.rect.dims() != dims {
                return Err(IndexError::DimensionMismatch {
                    expected: dims,
                    got: e.rect.dims(),
                    index,
                });
            }
            if !e.rect.is_finite() {
                return Err(IndexError::UnboundedRect { index });
            }
        }
        if entries.is_empty() {
            return Ok(PackedRTree {
                config,
                dims,
                entries,
                nodes: Vec::new(),
                root: None,
            });
        }

        // Quantize centers into the curve grid spanned by the global MBR.
        let world = Rect::bounding(entries.iter().map(|e| &e.rect)).expect("non-empty");
        let side = (1u64 << config.bits) as f64;
        let keys: Vec<u128> = entries
            .iter()
            .map(|e| {
                let c = e.rect.center();
                let coords: Vec<u32> = (0..dims)
                    .map(|d| {
                        let s = world.side(d);
                        let w = s.length();
                        let t = if w > 0.0 {
                            ((c.coord(d) - s.lo()) / w * side).floor()
                        } else {
                            0.0
                        };
                        (t.max(0.0) as u64).min((1u64 << config.bits) - 1) as u32
                    })
                    .collect();
                curve_index(config.curve, &coords, config.bits)
            })
            .collect();
        let mut order: Vec<usize> = (0..entries.len()).collect();
        order.sort_by_key(|&i| keys[i]);
        let mut sorted = Vec::with_capacity(entries.len());
        for &i in &order {
            sorted.push(entries[i].clone());
        }
        entries = sorted;

        // Leaf level.
        let mut nodes: Vec<Node> = Vec::new();
        let mut level: Vec<u32> = Vec::new();
        let mut i = 0usize;
        while i < entries.len() {
            let len = config.fanout.min(entries.len() - i);
            let mbr = Rect::bounding(entries[i..i + len].iter().map(|e| &e.rect))
                .expect("non-empty chunk");
            level.push(nodes.len() as u32);
            nodes.push(Node {
                mbr,
                first: i as u32,
                len: len as u32,
                leaf: true,
            });
            i += len;
        }
        // Upper levels: chunk consecutive nodes. Node children are
        // contiguous by construction, so each internal node stores a range.
        while level.len() > 1 {
            let mut next: Vec<u32> = Vec::new();
            let mut j = 0usize;
            while j < level.len() {
                let len = config.fanout.min(level.len() - j);
                let mbr = level[j..j + len]
                    .iter()
                    .map(|&id| nodes[id as usize].mbr.clone())
                    .reduce(|a, b| a.mbr_with(&b))
                    .expect("non-empty chunk");
                next.push(nodes.len() as u32);
                nodes.push(Node {
                    mbr,
                    first: level[j],
                    len: len as u32,
                    leaf: false,
                });
                j += len;
            }
            level = next;
        }

        Ok(PackedRTree {
            config,
            dims,
            entries,
            nodes,
            root: Some(level[0]),
        })
    }

    /// The configuration the tree was built with.
    pub fn config(&self) -> &PackedConfig {
        &self.config
    }

    /// Point query that also reports how many tree nodes were visited.
    pub fn query_point_counting(&self, p: &Point) -> (Vec<EntryId>, usize) {
        let mut out = Vec::new();
        let mut visited = 0usize;
        let Some(root) = self.root else {
            return (out, 0);
        };
        let mut stack = vec![root];
        while let Some(v) = stack.pop() {
            visited += 1;
            let node = &self.nodes[v as usize];
            if !node.mbr.contains_point(p) {
                continue;
            }
            if node.leaf {
                for e in &self.entries[node.first as usize..(node.first + node.len) as usize] {
                    if e.rect.contains_point(p) {
                        out.push(e.id);
                    }
                }
            } else {
                stack.extend(node.first..node.first + node.len);
            }
        }
        (out, visited)
    }

    /// Verifies structural invariants (MBR coverage, fanout bounds, entry
    /// partition).
    ///
    /// # Errors
    ///
    /// Returns the first violated invariant.
    pub fn validate(&self) -> Result<(), InvariantViolation> {
        let Some(root) = self.root else {
            return Ok(());
        };
        let mut covered = vec![false; self.entries.len()];
        let mut reachable = 0usize;
        let mut stack = vec![root];
        while let Some(v) = stack.pop() {
            let node = self
                .nodes
                .get(v as usize)
                .ok_or(InvariantViolation::DanglingNode { node: v as usize })?;
            if node.len as usize > self.config.fanout {
                return Err(InvariantViolation::FanoutExceeded {
                    node: v as usize,
                    got: node.len as usize,
                    max: self.config.fanout,
                });
            }
            if node.leaf {
                // Indexes entries and covered in lockstep.
                #[allow(clippy::needless_range_loop)]
                for i in node.first as usize..(node.first + node.len) as usize {
                    if !node.mbr.contains_rect(&self.entries[i].rect) {
                        return Err(InvariantViolation::MbrNotCovering { node: v as usize });
                    }
                    if covered[i] {
                        return Err(InvariantViolation::EntriesNotPartitioned {
                            reachable,
                            stored: self.entries.len(),
                        });
                    }
                    covered[i] = true;
                    reachable += 1;
                }
            } else {
                for c in node.first..node.first + node.len {
                    let child = self
                        .nodes
                        .get(c as usize)
                        .ok_or(InvariantViolation::DanglingNode { node: c as usize })?;
                    if !node.mbr.contains_rect(&child.mbr) {
                        return Err(InvariantViolation::MbrNotCovering { node: v as usize });
                    }
                    stack.push(c);
                }
            }
        }
        if reachable != self.entries.len() {
            return Err(InvariantViolation::EntriesNotPartitioned {
                reachable,
                stored: self.entries.len(),
            });
        }
        Ok(())
    }
}

impl SpatialIndex for PackedRTree {
    fn len(&self) -> usize {
        self.entries.len()
    }

    fn dims(&self) -> usize {
        self.dims
    }

    fn query_point_into(&self, p: &Point, out: &mut Vec<EntryId>) {
        let Some(root) = self.root else { return };
        let mut stack = vec![root];
        while let Some(v) = stack.pop() {
            let node = &self.nodes[v as usize];
            if !node.mbr.contains_point(p) {
                continue;
            }
            if node.leaf {
                for e in &self.entries[node.first as usize..(node.first + node.len) as usize] {
                    if e.rect.contains_point(p) {
                        out.push(e.id);
                    }
                }
            } else {
                stack.extend(node.first..node.first + node.len);
            }
        }
    }

    fn query_region_into(&self, r: &Rect, out: &mut Vec<EntryId>) {
        let Some(root) = self.root else { return };
        let mut stack = vec![root];
        while let Some(v) = stack.pop() {
            let node = &self.nodes[v as usize];
            if !node.mbr.intersects(r) {
                continue;
            }
            if node.leaf {
                for e in &self.entries[node.first as usize..(node.first + node.len) as usize] {
                    if e.rect.intersects(r) {
                        out.push(e.id);
                    }
                }
            } else {
                stack.extend(node.first..node.first + node.len);
            }
        }
    }

    fn count_point(&self, p: &Point) -> usize {
        let Some(root) = self.root else { return 0 };
        let mut count = 0usize;
        let mut stack = vec![root];
        while let Some(v) = stack.pop() {
            let node = &self.nodes[v as usize];
            if !node.mbr.contains_point(p) {
                continue;
            }
            if node.leaf {
                count += self.entries[node.first as usize..(node.first + node.len) as usize]
                    .iter()
                    .filter(|e| e.rect.contains_point(p))
                    .count();
            } else {
                stack.extend(node.first..node.first + node.len);
            }
        }
        count
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::LinearScan;

    fn entries_grid(n: u32) -> Vec<Entry> {
        (0..n)
            .map(|i| {
                let x = f64::from(i % 23) * 5.0;
                let y = f64::from(i / 23) * 5.0;
                Entry::new(
                    Rect::from_corners(&[x, y], &[x + 8.0, y + 8.0]).unwrap(),
                    EntryId(i),
                )
            })
            .collect()
    }

    #[test]
    fn config_validation() {
        assert!(PackedConfig::new(1, CurveKind::Hilbert, 8).is_err());
        assert!(PackedConfig::new(4, CurveKind::Hilbert, 0).is_err());
        assert!(PackedConfig::new(4, CurveKind::Hilbert, 17).is_err());
        assert_eq!(PackedConfig::hilbert().curve(), CurveKind::Hilbert);
        assert_eq!(PackedConfig::morton().curve(), CurveKind::Morton);
        assert_eq!(PackedConfig::default().fanout(), 40);
        assert_eq!(PackedConfig::default().bits(), 10);
    }

    #[test]
    fn empty_tree() {
        let t = PackedRTree::build(vec![], PackedConfig::default()).unwrap();
        assert!(t.is_empty());
        assert!(t.validate().is_ok());
    }

    #[test]
    fn queries_match_linear_scan_for_both_curves() {
        let entries = entries_grid(500);
        let oracle = LinearScan::new(entries.clone()).unwrap();
        for config in [
            PackedConfig::new(8, CurveKind::Hilbert, 10).unwrap(),
            PackedConfig::new(8, CurveKind::Morton, 10).unwrap(),
        ] {
            let tree = PackedRTree::build(entries.clone(), config).unwrap();
            tree.validate().unwrap();
            for i in 0..40 {
                let p = Point::new(vec![f64::from(i) * 3.1 % 120.0, f64::from(i) * 5.3 % 110.0])
                    .unwrap();
                let mut a = tree.query_point(&p);
                let mut b = oracle.query_point(&p);
                a.sort();
                b.sort();
                assert_eq!(a, b, "{:?} point {p:?}", config.curve());
            }
            let r = Rect::from_corners(&[20.0, 20.0], &[60.0, 45.0]).unwrap();
            let mut a = tree.query_region(&r);
            let mut b = oracle.query_region(&r);
            a.sort();
            b.sort();
            assert_eq!(a, b);
        }
    }

    #[test]
    fn tree_is_height_balanced() {
        // Unlike the S-tree, packed trees are perfectly balanced; verify by
        // walking depths.
        let tree = PackedRTree::build(
            entries_grid(777),
            PackedConfig::new(4, CurveKind::Hilbert, 8).unwrap(),
        )
        .unwrap();
        let root = tree.root.unwrap();
        let mut depths = Vec::new();
        let mut stack = vec![(root, 0usize)];
        while let Some((v, d)) = stack.pop() {
            let node = &tree.nodes[v as usize];
            if node.leaf {
                depths.push(d);
            } else {
                stack.extend((node.first..node.first + node.len).map(|c| (c, d + 1)));
            }
        }
        let min = depths.iter().min().unwrap();
        let max = depths.iter().max().unwrap();
        assert_eq!(min, max, "packed tree must be height-balanced");
    }

    #[test]
    fn counting_query_consistent() {
        let tree = PackedRTree::build(entries_grid(600), PackedConfig::default()).unwrap();
        let p = Point::new(vec![40.0, 40.0]).unwrap();
        let (mut hits, visited) = tree.query_point_counting(&p);
        let mut plain = tree.query_point(&p);
        hits.sort();
        plain.sort();
        assert_eq!(hits, plain);
        assert!(visited >= 1);
    }
}
