//! The S-tree index (paper §3).

mod binarize;
mod compress;

use pubsub_geom::{Point, Rect};

use crate::{Entry, EntryId, IndexError, InvariantViolation, SpatialIndex};

/// Construction parameters of an [`STree`].
///
/// * `fanout` — the branch factor `M`; "typically chosen to be about 40"
///   so that a node fits on a page.
/// * `skew` — the skew factor `p ∈ (0, 1/2]`; low values allow greater
///   imbalance but more design flexibility; "typically p is chosen to be
///   about 0.3".
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct STreeConfig {
    fanout: usize,
    skew: f64,
}

impl STreeConfig {
    /// Creates a configuration.
    ///
    /// # Errors
    ///
    /// Returns [`IndexError::InvalidConfig`] unless `fanout ≥ 2` and
    /// `0 < skew ≤ 0.5`.
    pub fn new(fanout: usize, skew: f64) -> Result<Self, IndexError> {
        if fanout < 2 {
            return Err(IndexError::InvalidConfig {
                parameter: "fanout",
                constraint: "fanout >= 2",
            });
        }
        if !(skew > 0.0 && skew <= 0.5) {
            return Err(IndexError::InvalidConfig {
                parameter: "skew",
                constraint: "0 < skew <= 0.5",
            });
        }
        Ok(STreeConfig { fanout, skew })
    }

    /// The branch factor `M`.
    pub fn fanout(&self) -> usize {
        self.fanout
    }

    /// The skew factor `p`.
    pub fn skew(&self) -> f64 {
        self.skew
    }
}

impl Default for STreeConfig {
    /// The paper's typical values: `M = 40`, `p = 0.3`.
    fn default() -> Self {
        STreeConfig {
            fanout: 40,
            skew: 0.3,
        }
    }
}

#[derive(Debug, Clone)]
enum Children {
    /// Leaf: a contiguous range of the (permuted) entry array.
    Leaf { start: u32, len: u32 },
    /// Internal node: arena indices of the children.
    Internal(Vec<u32>),
}

#[derive(Debug, Clone)]
struct Node {
    mbr: Rect,
    children: Children,
}

/// The S-tree: an unbalanced packed spatial index for point and region
/// queries over subscription rectangles.
///
/// Built bulk-style in two stages (binarization, then compression); see the
/// module documentation of the build stages for details. Query cost is
/// output-sensitive: subtrees whose bounding rectangle misses the query are
/// pruned.
///
/// # Example
///
/// ```
/// use pubsub_geom::{Point, Rect};
/// use pubsub_stree::{Entry, EntryId, STree, STreeConfig, SpatialIndex};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let entries: Vec<Entry> = (0..100)
///     .map(|i| {
///         let x = f64::from(i % 10) * 10.0;
///         let y = f64::from(i / 10) * 10.0;
///         Ok(Entry::new(
///             Rect::from_corners(&[x, y], &[x + 15.0, y + 15.0])?,
///             EntryId(i),
///         ))
///     })
///     .collect::<Result<_, pubsub_geom::GeomError>>()?;
/// let tree = STree::build(entries, STreeConfig::new(8, 0.3)?)?;
/// let hits = tree.query_point(&Point::new(vec![12.0, 12.0])?);
/// assert!(!hits.is_empty());
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct STree {
    config: STreeConfig,
    dims: usize,
    entries: Vec<Entry>,
    nodes: Vec<Node>,
    root: Option<u32>,
}

impl STree {
    /// Builds an S-tree over the given entries.
    ///
    /// # Errors
    ///
    /// * [`IndexError::DimensionMismatch`] if entries disagree on
    ///   dimensionality;
    /// * [`IndexError::UnboundedRect`] if any rectangle has an infinite
    ///   side — clamp subscriptions to a finite [`pubsub_geom::Space`]
    ///   first, because the packing sweep compares MBR volumes.
    pub fn build(mut entries: Vec<Entry>, config: STreeConfig) -> Result<Self, IndexError> {
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
            return Ok(STree {
                config,
                dims,
                entries,
                nodes: Vec::new(),
                root: None,
            });
        }

        let bin = binarize::binarize(&mut entries, config.fanout, config.skew);
        let cnodes = compress::compress(&bin, config.fanout);

        // Renumber the surviving nodes into the final arena.
        let mut remap: Vec<Option<u32>> = vec![None; cnodes.len()];
        let mut nodes: Vec<Node> = Vec::new();
        // DFS so children are allocated after their parent; resolve child
        // indices in a second pass.
        let mut dfs = vec![0usize];
        let mut order = Vec::new();
        while let Some(v) = dfs.pop() {
            remap[v] = Some(order.len() as u32);
            order.push(v);
            if !cnodes[v].is_leaf() {
                dfs.extend(cnodes[v].children.iter().copied());
            }
        }
        for &v in &order {
            let c = &cnodes[v];
            let children = match c.entry_range {
                Some((s, e)) => Children::Leaf {
                    start: s as u32,
                    len: (e - s) as u32,
                },
                None => Children::Internal(
                    c.children
                        .iter()
                        .map(|&ch| remap[ch].expect("child visited in DFS"))
                        .collect(),
                ),
            };
            nodes.push(Node {
                mbr: bin[v].mbr.clone(),
                children,
            });
        }

        Ok(STree {
            config,
            dims,
            entries,
            nodes,
            root: Some(0),
        })
    }

    /// The configuration the tree was built with.
    pub fn config(&self) -> &STreeConfig {
        &self.config
    }

    /// The entries in leaf order (permuted relative to the build input).
    pub fn entries(&self) -> &[Entry] {
        &self.entries
    }

    /// Point query that also reports how many tree nodes were visited — the
    /// in-memory analogue of the spatial-database "page accesses" metric.
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
            match &node.children {
                Children::Leaf { start, len } => {
                    for e in &self.entries[*start as usize..(*start + *len) as usize] {
                        if e.rect.contains_point(p) {
                            out.push(e.id);
                        }
                    }
                }
                Children::Internal(children) => stack.extend(children.iter().copied()),
            }
        }
        (out, visited)
    }

    /// Computes structural statistics (see [`STreeStats`]).
    pub fn stats(&self) -> STreeStats {
        let mut stats = STreeStats {
            entry_count: self.entries.len(),
            node_count: self.nodes.len(),
            ..STreeStats::default()
        };
        let Some(root) = self.root else {
            return stats;
        };
        let mut min_depth = usize::MAX;
        let mut max_depth = 0usize;
        let mut depth_sum = 0usize;
        let mut fanout_sum = 0usize;
        let mut stack = vec![(root, 0usize)];
        while let Some((v, depth)) = stack.pop() {
            match &self.nodes[v as usize].children {
                Children::Leaf { .. } => {
                    stats.leaf_count += 1;
                    min_depth = min_depth.min(depth);
                    max_depth = max_depth.max(depth);
                    depth_sum += depth;
                }
                Children::Internal(children) => {
                    stats.internal_count += 1;
                    fanout_sum += children.len();
                    for &c in children {
                        stack.push((c, depth + 1));
                    }
                }
            }
        }
        stats.min_leaf_depth = min_depth;
        stats.max_leaf_depth = max_depth;
        stats.avg_leaf_depth = depth_sum as f64 / stats.leaf_count.max(1) as f64;
        stats.avg_internal_fanout = fanout_sum as f64 / stats.internal_count.max(1) as f64;
        // Packing quality: how much sibling MBRs overlap (a point query
        // must descend into every overlapping sibling, so lower is
        // better — the classic R-tree quality metric).
        let mut overlap = 0.0;
        let mut child_volume = 0.0;
        for node in &self.nodes {
            if let Children::Internal(children) = &node.children {
                for (i, &a) in children.iter().enumerate() {
                    let mbr_a = &self.nodes[a as usize].mbr;
                    child_volume += mbr_a.volume();
                    for &b in &children[i + 1..] {
                        if let Some(common) = mbr_a.intersection(&self.nodes[b as usize].mbr) {
                            overlap += common.volume();
                        }
                    }
                }
            }
        }
        stats.sibling_overlap_volume = overlap;
        stats.sibling_overlap_fraction = if child_volume > 0.0 {
            overlap / child_volume
        } else {
            0.0
        };
        stats
    }

    /// Verifies the structural invariants of the tree. Used by tests; a
    /// correctly built tree always passes.
    ///
    /// # Errors
    ///
    /// Returns the first violated invariant.
    pub fn validate(&self) -> Result<(), InvariantViolation> {
        let Some(root) = self.root else {
            return if self.entries.is_empty() && self.nodes.is_empty() {
                Ok(())
            } else {
                Err(InvariantViolation::DanglingNode { node: 0 })
            };
        };
        let mut covered = vec![false; self.entries.len()];
        let mut reachable = 0usize;
        let mut stack = vec![root];
        while let Some(v) = stack.pop() {
            let node = self
                .nodes
                .get(v as usize)
                .ok_or(InvariantViolation::DanglingNode { node: v as usize })?;
            match &node.children {
                Children::Leaf { start, len } => {
                    if *len as usize > self.config.fanout {
                        return Err(InvariantViolation::FanoutExceeded {
                            node: v as usize,
                            got: *len as usize,
                            max: self.config.fanout,
                        });
                    }
                    // Indexes entries and covered in lockstep.
                    #[allow(clippy::needless_range_loop)]
                    for i in *start as usize..(*start + *len) as usize {
                        let e = self
                            .entries
                            .get(i)
                            .ok_or(InvariantViolation::DanglingNode { node: v as usize })?;
                        if !node.mbr.contains_rect(&e.rect) {
                            return Err(InvariantViolation::MbrNotCovering { node: v as usize });
                        }
                        if covered[i] {
                            return Err(InvariantViolation::EntriesNotPartitioned {
                                reachable: reachable + 1,
                                stored: self.entries.len(),
                            });
                        }
                        covered[i] = true;
                        reachable += 1;
                    }
                }
                Children::Internal(children) => {
                    if children.len() > self.config.fanout {
                        return Err(InvariantViolation::FanoutExceeded {
                            node: v as usize,
                            got: children.len(),
                            max: self.config.fanout,
                        });
                    }
                    for &c in children {
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

impl SpatialIndex for STree {
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
            match &node.children {
                Children::Leaf { start, len } => {
                    for e in &self.entries[*start as usize..(*start + *len) as usize] {
                        if e.rect.contains_point(p) {
                            out.push(e.id);
                        }
                    }
                }
                Children::Internal(children) => stack.extend(children.iter().copied()),
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
            match &node.children {
                Children::Leaf { start, len } => {
                    for e in &self.entries[*start as usize..(*start + *len) as usize] {
                        if e.rect.intersects(r) {
                            out.push(e.id);
                        }
                    }
                }
                Children::Internal(children) => stack.extend(children.iter().copied()),
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
            match &node.children {
                Children::Leaf { start, len } => {
                    count += self.entries[*start as usize..(*start + *len) as usize]
                        .iter()
                        .filter(|e| e.rect.contains_point(p))
                        .count();
                }
                Children::Internal(children) => stack.extend(children.iter().copied()),
            }
        }
        count
    }
}

/// Structural statistics of a built [`STree`].
#[derive(Debug, Clone, Default, PartialEq)]
pub struct STreeStats {
    /// Total entries indexed.
    pub entry_count: usize,
    /// Total nodes in the arena.
    pub node_count: usize,
    /// Number of leaf nodes.
    pub leaf_count: usize,
    /// Number of internal nodes.
    pub internal_count: usize,
    /// Depth of the shallowest leaf (root = depth 0).
    pub min_leaf_depth: usize,
    /// Depth of the deepest leaf. S-trees are deliberately unbalanced, so
    /// this may exceed `min_leaf_depth`.
    pub max_leaf_depth: usize,
    /// Mean leaf depth.
    pub avg_leaf_depth: f64,
    /// Mean branch factor over internal nodes.
    pub avg_internal_fanout: f64,
    /// Total pairwise overlap volume among sibling MBRs — the packing
    /// quality metric the binarization sweep implicitly minimizes.
    pub sibling_overlap_volume: f64,
    /// `sibling_overlap_volume` normalized by the summed child-MBR
    /// volumes (`0` = perfectly disjoint siblings).
    pub sibling_overlap_fraction: f64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use pubsub_geom::Interval;

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

    #[test]
    fn config_validation() {
        assert!(STreeConfig::new(1, 0.3).is_err());
        assert!(STreeConfig::new(4, 0.0).is_err());
        assert!(STreeConfig::new(4, 0.6).is_err());
        let c = STreeConfig::new(4, 0.5).unwrap();
        assert_eq!(c.fanout(), 4);
        assert_eq!(c.skew(), 0.5);
        assert_eq!(STreeConfig::default().fanout(), 40);
    }

    #[test]
    fn empty_tree() {
        let t = STree::build(vec![], STreeConfig::default()).unwrap();
        assert!(t.is_empty());
        assert!(t.validate().is_ok());
        assert!(t.query_point(&Point::new(vec![1.0]).unwrap()).is_empty());
        let (hits, visited) = t.query_point_counting(&Point::new(vec![1.0]).unwrap());
        assert!(hits.is_empty());
        assert_eq!(visited, 0);
    }

    #[test]
    fn rejects_unbounded_rects() {
        let e = vec![Entry::new(
            Rect::new(vec![Interval::at_least(0.0)]).unwrap(),
            EntryId(0),
        )];
        assert!(matches!(
            STree::build(e, STreeConfig::default()),
            Err(IndexError::UnboundedRect { index: 0 })
        ));
    }

    #[test]
    fn rejects_mixed_dimensions() {
        let e = vec![
            Entry::new(Rect::from_corners(&[0.0], &[1.0]).unwrap(), EntryId(0)),
            Entry::new(
                Rect::from_corners(&[0.0, 0.0], &[1.0, 1.0]).unwrap(),
                EntryId(1),
            ),
        ];
        assert!(matches!(
            STree::build(e, STreeConfig::default()),
            Err(IndexError::DimensionMismatch { index: 1, .. })
        ));
    }

    #[test]
    fn queries_match_linear_scan() {
        let entries = entries_grid(400);
        let oracle = crate::LinearScan::new(entries.clone()).unwrap();
        let tree = STree::build(entries, STreeConfig::new(8, 0.3).unwrap()).unwrap();
        tree.validate().unwrap();
        for i in 0..50 {
            let p =
                Point::new(vec![f64::from(i) * 2.3 % 100.0, f64::from(i) * 3.7 % 64.0]).unwrap();
            let mut a = tree.query_point(&p);
            let mut b = oracle.query_point(&p);
            a.sort();
            b.sort();
            assert_eq!(a, b, "point {p:?}");
        }
        let r = Rect::from_corners(&[10.0, 10.0], &[30.0, 30.0]).unwrap();
        let mut a = tree.query_region(&r);
        let mut b = oracle.query_region(&r);
        a.sort();
        b.sort();
        assert_eq!(a, b);
    }

    #[test]
    fn counting_query_matches_plain_query_and_prunes() {
        let entries = entries_grid(625);
        let tree = STree::build(entries, STreeConfig::new(8, 0.3).unwrap()).unwrap();
        let p = Point::new(vec![50.0, 50.0]).unwrap();
        let (hits, visited) = tree.query_point_counting(&p);
        let mut hits2 = tree.query_point(&p);
        let mut hits = hits;
        hits.sort();
        hits2.sort();
        assert_eq!(hits, hits2);
        assert!(visited > 0);
        assert!(
            visited < tree.stats().node_count,
            "a point query should prune some of the tree"
        );
    }

    #[test]
    fn stats_are_consistent() {
        let entries = entries_grid(500);
        let tree = STree::build(entries, STreeConfig::new(10, 0.3).unwrap()).unwrap();
        let s = tree.stats();
        assert_eq!(s.entry_count, 500);
        assert_eq!(s.leaf_count + s.internal_count, s.node_count);
        assert!(s.min_leaf_depth <= s.max_leaf_depth);
        assert!(s.avg_leaf_depth >= s.min_leaf_depth as f64);
        assert!(s.avg_leaf_depth <= s.max_leaf_depth as f64);
        assert!(s.avg_internal_fanout <= 10.0);
    }

    #[test]
    fn overlap_stats_detect_packing_quality() {
        // Disjoint unit squares on a coarse grid: siblings can overlap
        // only marginally.
        let disjoint: Vec<Entry> = (0..100u32)
            .map(|i| {
                let x = f64::from(i % 10) * 10.0;
                let y = f64::from(i / 10) * 10.0;
                Entry::new(
                    Rect::from_corners(&[x, y], &[x + 1.0, y + 1.0]).unwrap(),
                    EntryId(i),
                )
            })
            .collect();
        let t1 = STree::build(disjoint, STreeConfig::new(4, 0.3).unwrap()).unwrap();
        let s1 = t1.stats();
        assert!(s1.sibling_overlap_fraction < 0.05, "{s1:?}");

        // Heavily overlapping rects: siblings must overlap a lot.
        let overlapping: Vec<Entry> = (0..100u32)
            .map(|i| {
                let x = f64::from(i % 10);
                let y = f64::from(i / 10);
                Entry::new(
                    Rect::from_corners(&[x, y], &[x + 50.0, y + 50.0]).unwrap(),
                    EntryId(i),
                )
            })
            .collect();
        let t2 = STree::build(overlapping, STreeConfig::new(4, 0.3).unwrap()).unwrap();
        let s2 = t2.stats();
        assert!(s2.sibling_overlap_fraction > s1.sibling_overlap_fraction);
        assert!(s2.sibling_overlap_volume > 0.0);
    }

    #[test]
    fn validate_passes_across_configs() {
        for &(m, p) in &[(2usize, 0.5f64), (4, 0.25), (8, 0.3), (40, 0.3), (3, 0.1)] {
            for n in [1u32, 2, 3, 7, 39, 40, 41, 160, 643] {
                let tree = STree::build(entries_grid(n), STreeConfig::new(m, p).unwrap()).unwrap();
                tree.validate()
                    .unwrap_or_else(|e| panic!("n={n} m={m} p={p}: {e}"));
            }
        }
    }

    #[test]
    fn duplicate_rects_are_all_found() {
        let r = Rect::from_corners(&[0.0, 0.0], &[1.0, 1.0]).unwrap();
        let entries: Vec<Entry> = (0..100)
            .map(|i| Entry::new(r.clone(), EntryId(i)))
            .collect();
        let tree = STree::build(entries, STreeConfig::new(4, 0.3).unwrap()).unwrap();
        tree.validate().unwrap();
        let hits = tree.query_point(&Point::new(vec![0.5, 0.5]).unwrap());
        assert_eq!(hits.len(), 100);
    }
}
