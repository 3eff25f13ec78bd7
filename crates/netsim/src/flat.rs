//! The compiled, immutable network representation: CSR adjacency +
//! precomputed shortest-path-tree tables.
//!
//! [`Graph`] is the *construction* representation — `Vec<Vec<(NodeId,
//! u32)>>` adjacency whose neighbor iteration chases an extra pointer into
//! the edge array per hop. [`FlatNet`] is the *query* representation, in
//! the same spirit as the matching side's compiled slab bitmaps: one
//! compilation pass packs the adjacency into three flat arrays (classic
//! compressed sparse row), so Dijkstra's inner loop reads each node's
//! neighbors and weights as two contiguous runs.
//!
//! On top of the CSR graph sit two precompute layers:
//!
//! * [`DijkstraScratch`] — a reusable indexed-binary-heap Dijkstra whose
//!   buffers persist across runs, so repeated single-source computations
//!   allocate nothing after warm-up;
//! * [`SptTable`] — dense `dist`/`parent`/`up_cost` rows for a set of
//!   sources (the broker's publishers and rendezvous points), built in
//!   parallel and borrowed per event as a zero-cost [`SptView`].
//!
//! Ties break by smallest distance, then smallest node id, relaxing on
//! strict improvement in adjacency order, so distances **and** parent
//! trees are a pure function of the graph — the property the broker's
//! byte-identical-costs guarantee rests on. The node-based textbook walk
//! the root `tests/` hold as an oracle reproduces them bit for bit.

use crate::{Graph, NodeId};

/// Sentinel parent index: the source itself and unreachable nodes.
pub const NO_PARENT: u32 = u32::MAX;

/// `pos` sentinel: node never entered the heap.
const NOT_IN_HEAP: u32 = u32::MAX;
/// `pos` sentinel: node was popped (settled).
const SETTLED: u32 = u32::MAX - 1;

/// An immutable compressed-sparse-row compilation of a [`Graph`].
///
/// Each undirected edge occupies one slot in each endpoint's row;
/// per-node slot order equals [`Graph::neighbors`] order (insertion
/// order), including parallel edges.
///
/// # Example
///
/// ```
/// use pubsub_netsim::{DijkstraScratch, FlatNet, Graph, NodeId, NO_PARENT};
///
/// # fn main() -> Result<(), pubsub_netsim::NetError> {
/// let mut g = Graph::new(3);
/// g.add_edge(NodeId(0), NodeId(1), 2.0)?;
/// g.add_edge(NodeId(1), NodeId(2), 3.0)?;
/// let net = FlatNet::compile(&g);
/// let (mut dist, mut parent, mut up_cost) = (vec![0.0; 3], vec![0; 3], vec![0.0; 3]);
/// net.sssp_into(NodeId(0), &mut DijkstraScratch::new(), &mut dist, &mut parent, &mut up_cost);
/// assert_eq!(dist, [0.0, 2.0, 5.0]);
/// assert_eq!(parent, [NO_PARENT, 0, 1]);
/// assert_eq!(up_cost, [0.0, 2.0, 3.0]);
/// # Ok(())
/// # }
/// ```
#[derive(Clone, Debug)]
pub struct FlatNet {
    nodes: usize,
    /// `row_offsets[v]..row_offsets[v + 1]` indexes `col_indices`/`weights`.
    row_offsets: Vec<u32>,
    col_indices: Vec<u32>,
    weights: Vec<f64>,
}

impl FlatNet {
    /// Compiles a graph into CSR form. `O(V + E)`.
    ///
    /// # Panics
    ///
    /// Panics if the graph has ≥ `u32::MAX` nodes or edge slots (far
    /// beyond every topology this crate generates).
    pub fn compile(graph: &Graph) -> FlatNet {
        let n = graph.node_count();
        assert!(n < u32::MAX as usize, "node count exceeds u32 index space");
        let slots = 2 * graph.edge_count();
        assert!(
            slots < u32::MAX as usize,
            "edge count exceeds u32 index space"
        );
        let mut row_offsets = Vec::with_capacity(n + 1);
        let mut col_indices = Vec::with_capacity(slots);
        let mut weights = Vec::with_capacity(slots);
        row_offsets.push(0);
        for v in graph.node_ids() {
            for (nbr, cost) in graph.neighbors(v) {
                col_indices.push(nbr.0);
                weights.push(cost);
            }
            row_offsets.push(col_indices.len() as u32);
        }
        FlatNet {
            nodes: n,
            row_offsets,
            col_indices,
            weights,
        }
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.nodes
    }

    /// Number of directed edge slots (twice the undirected edge count).
    pub fn edge_slot_count(&self) -> usize {
        self.col_indices.len()
    }

    /// Neighbors of `node` with edge costs, in [`Graph::neighbors`] order.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    pub fn neighbors(&self, node: NodeId) -> impl Iterator<Item = (NodeId, f64)> + '_ {
        let (lo, hi) = self.row(node.0 as usize);
        self.col_indices[lo..hi]
            .iter()
            .zip(&self.weights[lo..hi])
            .map(|(&c, &w)| (NodeId(c), w))
    }

    #[inline]
    pub(crate) fn row(&self, v: usize) -> (usize, usize) {
        (
            self.row_offsets[v] as usize,
            self.row_offsets[v + 1] as usize,
        )
    }

    /// The raw CSR column array (one entry per directed edge slot).
    pub(crate) fn cols(&self) -> &[u32] {
        &self.col_indices
    }

    /// The raw CSR weight array, parallel to [`FlatNet::cols`].
    pub(crate) fn slot_weights(&self) -> &[f64] {
        &self.weights
    }

    /// Single-source shortest paths into caller-owned dense rows:
    /// `dist[v]` (`+∞` if unreachable), `parent[v]` ([`NO_PARENT`] for the
    /// source and unreachable nodes) and `up_cost[v]`, the cost of `v`'s
    /// SPT parent edge computed as `dist[v] - dist[parent[v]]` — the exact
    /// subtraction the tree-cost walk performs, precomputed once.
    ///
    /// # Panics
    ///
    /// Panics if `source` is out of range or a row slice is not exactly
    /// `node_count` long.
    pub fn sssp_into(
        &self,
        source: NodeId,
        scratch: &mut DijkstraScratch,
        dist: &mut [f64],
        parent: &mut [u32],
        up_cost: &mut [f64],
    ) {
        self.sssp_with(source, scratch, dist, parent, up_cost, |slot, _| {
            Some(self.weights[slot])
        });
    }

    /// The one Dijkstra relaxation loop: [`FlatNet::sssp_into`] with edge
    /// slot `slot` into node `nbr` costing `weight(slot, nbr)`, or
    /// skipped where that is `None`. The fault overlay relaxes through
    /// here with its per-slot factors and down nodes.
    pub(crate) fn sssp_with(
        &self,
        source: NodeId,
        scratch: &mut DijkstraScratch,
        dist: &mut [f64],
        parent: &mut [u32],
        up_cost: &mut [f64],
        weight: impl Fn(usize, usize) -> Option<f64>,
    ) {
        let n = self.nodes;
        assert!((source.0 as usize) < n, "source out of range");
        assert!(dist.len() == n && parent.len() == n && up_cost.len() == n);
        dist.fill(f64::INFINITY);
        parent.fill(NO_PARENT);
        scratch.reset(n);

        dist[source.0 as usize] = 0.0;
        scratch.push(source.0, dist);
        while let Some(v) = scratch.pop(dist) {
            let (lo, hi) = self.row(v as usize);
            let d = dist[v as usize];
            for slot in lo..hi {
                let nbr = self.col_indices[slot] as usize;
                let Some(w) = weight(slot, nbr) else { continue };
                let nd = d + w;
                if nd < dist[nbr] {
                    dist[nbr] = nd;
                    parent[nbr] = v;
                    scratch.push_or_decrease(nbr as u32, dist);
                }
            }
        }

        for v in 0..n {
            let p = parent[v];
            up_cost[v] = if p == NO_PARENT {
                0.0
            } else {
                dist[v] - dist[p as usize]
            };
        }
    }
}

/// Reusable state for CSR Dijkstra: an indexed binary heap (decrease-key
/// instead of lazy deletion) whose buffers persist across runs — after
/// the first run on a given graph size, a shortest-path computation
/// allocates nothing.
///
/// The heap orders nodes by `(dist, node id)` ascending, which fixes the
/// tie-breaking.
#[derive(Clone, Debug, Default)]
pub struct DijkstraScratch {
    /// Heap of node ids, ordered by `(dist[id], id)`.
    heap: Vec<u32>,
    /// Node → heap slot, [`NOT_IN_HEAP`] or [`SETTLED`].
    pos: Vec<u32>,
}

impl DijkstraScratch {
    /// Creates an empty scratch; buffers grow on first use.
    pub fn new() -> Self {
        Self::default()
    }

    pub(crate) fn reset(&mut self, n: usize) {
        self.heap.clear();
        self.pos.clear();
        self.pos.resize(n, NOT_IN_HEAP);
    }

    #[inline]
    fn less(&self, a: u32, b: u32, dist: &[f64]) -> bool {
        let (da, db) = (dist[a as usize], dist[b as usize]);
        da < db || (da == db && a < b)
    }

    #[inline]
    pub(crate) fn push(&mut self, v: u32, dist: &[f64]) {
        let slot = self.heap.len();
        self.heap.push(v);
        self.pos[v as usize] = slot as u32;
        self.sift_up(slot, dist);
    }

    /// Inserts `v` or restores heap order after its key decreased.
    #[inline]
    pub(crate) fn push_or_decrease(&mut self, v: u32, dist: &[f64]) {
        match self.pos[v as usize] {
            NOT_IN_HEAP => self.push(v, dist),
            // With positive edge costs a settled node never improves.
            SETTLED => debug_assert!(false, "decrease-key on a settled node"),
            slot => self.sift_up(slot as usize, dist),
        }
    }

    #[inline]
    pub(crate) fn pop(&mut self, dist: &[f64]) -> Option<u32> {
        if self.heap.is_empty() {
            return None;
        }
        let top = self.heap[0];
        self.pos[top as usize] = SETTLED;
        let last = self.heap.pop().expect("non-empty");
        if !self.heap.is_empty() {
            self.heap[0] = last;
            self.pos[last as usize] = 0;
            self.sift_down(0, dist);
        }
        Some(top)
    }

    fn sift_up(&mut self, mut slot: usize, dist: &[f64]) {
        while slot > 0 {
            let up = (slot - 1) / 2;
            if self.less(self.heap[slot], self.heap[up], dist) {
                self.swap(slot, up);
                slot = up;
            } else {
                break;
            }
        }
    }

    fn sift_down(&mut self, mut slot: usize, dist: &[f64]) {
        loop {
            let mut best = slot;
            for child in [2 * slot + 1, 2 * slot + 2] {
                if child < self.heap.len() && self.less(self.heap[child], self.heap[best], dist) {
                    best = child;
                }
            }
            if best == slot {
                break;
            }
            self.swap(slot, best);
            slot = best;
        }
    }

    #[inline]
    fn swap(&mut self, a: usize, b: usize) {
        self.heap.swap(a, b);
        self.pos[self.heap[a] as usize] = a as u32;
        self.pos[self.heap[b] as usize] = b as u32;
    }
}

/// Precomputed shortest-path-tree rows for a set of sources: for each
/// source, dense `dist` / `parent` / `up_cost` arrays over all nodes, all
/// rows stored contiguously. Replaces the broker's lazy
/// `HashMap<NodeId, ShortestPaths>` cache — lookup is one dense-array
/// load, and the per-event cost walks borrow a [`SptView`] with zero
/// indirection.
#[derive(Clone, Debug)]
pub struct SptTable {
    nodes: usize,
    sources: Vec<NodeId>,
    /// Node → row index, `u32::MAX` when the node is not a source.
    row_of: Vec<u32>,
    dist: Vec<f64>,
    parent: Vec<u32>,
    up_cost: Vec<f64>,
}

impl SptTable {
    /// Builds the table for `sources` (duplicates collapse), computing
    /// rows in parallel on the scoped `pubsub-parallel` pool (`None` =
    /// available parallelism). Each worker owns one [`DijkstraScratch`].
    ///
    /// # Panics
    ///
    /// Panics if a source is out of range for `net`.
    pub fn build(net: &FlatNet, sources: &[NodeId], threads: Option<usize>) -> SptTable {
        let mut table = SptTable::empty(net.node_count());
        let mut todo: Vec<NodeId> = Vec::new();
        for &s in sources {
            assert!((s.0 as usize) < net.node_count(), "source out of range");
            if !todo.contains(&s) {
                todo.push(s);
            }
        }
        let workers = pubsub_parallel::effective_threads(threads);
        let rows = pubsub_parallel::map_with_scratch(
            &todo,
            workers,
            DijkstraScratch::new,
            |&source, scratch| {
                let n = net.node_count();
                let mut dist = vec![f64::INFINITY; n];
                let mut parent = vec![NO_PARENT; n];
                let mut up_cost = vec![0.0; n];
                net.sssp_into(source, scratch, &mut dist, &mut parent, &mut up_cost);
                (dist, parent, up_cost)
            },
        );
        for (source, (dist, parent, up_cost)) in todo.into_iter().zip(rows) {
            table.insert_row(source, dist, parent, up_cost);
        }
        table
    }

    fn empty(nodes: usize) -> SptTable {
        SptTable {
            nodes,
            sources: Vec::new(),
            row_of: vec![u32::MAX; nodes],
            dist: Vec::new(),
            parent: Vec::new(),
            up_cost: Vec::new(),
        }
    }

    pub(crate) fn insert_row(
        &mut self,
        source: NodeId,
        dist: Vec<f64>,
        parent: Vec<u32>,
        up_cost: Vec<f64>,
    ) {
        debug_assert_eq!(dist.len(), self.nodes);
        self.row_of[source.0 as usize] = self.sources.len() as u32;
        self.sources.push(source);
        self.dist.extend(dist);
        self.parent.extend(parent);
        self.up_cost.extend(up_cost);
    }

    /// Ensures `source` has a row, computing it with `scratch` if absent
    /// (the broker's `publish_from` path for a publisher not seen at
    /// build time).
    ///
    /// # Panics
    ///
    /// Panics if `source` is out of range.
    pub fn ensure(&mut self, net: &FlatNet, source: NodeId, scratch: &mut DijkstraScratch) {
        assert!((source.0 as usize) < self.nodes, "source out of range");
        if self.contains(source) {
            return;
        }
        let n = self.nodes;
        let mut dist = vec![f64::INFINITY; n];
        let mut parent = vec![NO_PARENT; n];
        let mut up_cost = vec![0.0; n];
        net.sssp_into(source, scratch, &mut dist, &mut parent, &mut up_cost);
        self.insert_row(source, dist, parent, up_cost);
    }

    /// `true` if the table has a row for `source`.
    pub fn contains(&self, source: NodeId) -> bool {
        (source.0 as usize) < self.nodes && self.row_of[source.0 as usize] != u32::MAX
    }

    /// The row index of `source`, if present. Rows are append-only, so
    /// the index is stable for the table's lifetime.
    pub(crate) fn row_index(&self, source: NodeId) -> Option<usize> {
        if !self.contains(source) {
            return None;
        }
        Some(self.row_of[source.0 as usize] as usize)
    }

    /// Mutable access to one row's `dist`/`parent`/`up_cost` slices — the
    /// in-place rebuild path of the self-healing fault layer.
    pub(crate) fn row_slices_mut(
        &mut self,
        source: NodeId,
    ) -> Option<(&mut [f64], &mut [u32], &mut [f64])> {
        let row = self.row_index(source)?;
        let (lo, hi) = (row * self.nodes, (row + 1) * self.nodes);
        Some((
            &mut self.dist[lo..hi],
            &mut self.parent[lo..hi],
            &mut self.up_cost[lo..hi],
        ))
    }

    /// Borrows the SPT rooted at `source`, or `None` if absent.
    pub fn view(&self, source: NodeId) -> Option<SptView<'_>> {
        if !self.contains(source) {
            return None;
        }
        let row = self.row_of[source.0 as usize] as usize;
        let (lo, hi) = (row * self.nodes, (row + 1) * self.nodes);
        Some(SptView {
            source,
            dist: &self.dist[lo..hi],
            parent: &self.parent[lo..hi],
            up_cost: &self.up_cost[lo..hi],
        })
    }

    /// The sources with precomputed rows, in insertion order.
    pub fn sources(&self) -> &[NodeId] {
        &self.sources
    }

    /// Number of precomputed rows.
    pub fn len(&self) -> usize {
        self.sources.len()
    }

    /// `true` if no rows have been computed.
    pub fn is_empty(&self) -> bool {
        self.sources.is_empty()
    }

    /// Number of nodes each row covers.
    pub fn node_count(&self) -> usize {
        self.nodes
    }
}

/// A borrowed shortest-path tree: one [`SptTable`] row. `Copy` — pass it
/// by value into the cost walks.
#[derive(Clone, Copy, Debug)]
pub struct SptView<'a> {
    source: NodeId,
    dist: &'a [f64],
    parent: &'a [u32],
    up_cost: &'a [f64],
}

impl<'a> SptView<'a> {
    /// The source node of this tree.
    pub fn source(&self) -> NodeId {
        self.source
    }

    /// Distance from the source to `node` (`+∞` if unreachable).
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    #[inline]
    pub fn dist(&self, node: NodeId) -> f64 {
        self.dist[node.0 as usize]
    }

    /// The parent of `node` in the SPT (`None` for the source and for
    /// unreachable nodes).
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    #[inline]
    pub fn parent(&self, node: NodeId) -> Option<NodeId> {
        let p = self.parent[node.0 as usize];
        (p != NO_PARENT).then_some(NodeId(p))
    }

    /// Cost of `node`'s parent edge (`dist(node) - dist(parent)`,
    /// precomputed; `0` for the source and unreachable nodes).
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    #[inline]
    pub fn up_cost(&self, node: NodeId) -> f64 {
        self.up_cost[node.0 as usize]
    }

    /// `true` if `node` is reachable from the source.
    #[inline]
    pub fn reachable(&self, node: NodeId) -> bool {
        self.dist[node.0 as usize].is_finite()
    }

    /// Number of nodes the row covers.
    pub fn node_count(&self) -> usize {
        self.dist.len()
    }

    pub(crate) fn raw_parent(&self) -> &'a [u32] {
        self.parent
    }

    pub(crate) fn raw_dist(&self) -> &'a [f64] {
        self.dist
    }

    pub(crate) fn raw_up_cost(&self) -> &'a [f64] {
        self.up_cost
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diamond() -> Graph {
        // Two equal-cost routes 0→3 (via 1 and via 2): a distance tie, so
        // the parent tree depends on tie-breaking.
        let mut g = Graph::new(4);
        g.add_edge(NodeId(0), NodeId(1), 1.0).unwrap();
        g.add_edge(NodeId(0), NodeId(2), 1.0).unwrap();
        g.add_edge(NodeId(1), NodeId(3), 1.0).unwrap();
        g.add_edge(NodeId(2), NodeId(3), 1.0).unwrap();
        g
    }

    /// One single-source run into fresh rows.
    fn sssp(net: &FlatNet, source: NodeId, scratch: &mut DijkstraScratch) -> (Vec<f64>, Vec<u32>) {
        let n = net.node_count();
        let (mut dist, mut parent, mut up_cost) = (vec![0.0; n], vec![0; n], vec![0.0; n]);
        net.sssp_into(source, scratch, &mut dist, &mut parent, &mut up_cost);
        (dist, parent)
    }

    #[test]
    fn csr_preserves_adjacency_order_and_weights() {
        let g = diamond();
        let net = FlatNet::compile(&g);
        assert_eq!(net.node_count(), 4);
        assert_eq!(net.edge_slot_count(), 8);
        for v in g.node_ids() {
            let flat: Vec<_> = net.neighbors(v).collect();
            let node: Vec<_> = g.neighbors(v).collect();
            assert_eq!(flat, node);
        }
    }

    #[test]
    fn scratch_is_reusable_across_runs_and_graphs() {
        let g1 = diamond();
        let mut g2 = Graph::new(6);
        for i in 0..5u32 {
            g2.add_edge(NodeId(i), NodeId(i + 1), f64::from(i) + 0.5)
                .unwrap();
        }
        let n1 = FlatNet::compile(&g1);
        let n2 = FlatNet::compile(&g2);
        let mut scratch = DijkstraScratch::new();
        let first = (
            sssp(&n1, NodeId(1), &mut scratch),
            sssp(&n2, NodeId(5), &mut scratch),
        );
        assert_eq!(first.0 .0[3], 1.0);
        assert_eq!(first.1 .0[0], 0.5 + 1.5 + 2.5 + 3.5 + 4.5);
        for _ in 0..3 {
            let again = (
                sssp(&n1, NodeId(1), &mut scratch),
                sssp(&n2, NodeId(5), &mut scratch),
            );
            assert_eq!(again, first);
        }
    }

    #[test]
    fn unreachable_nodes_have_no_parent_and_zero_up_cost() {
        let mut g = Graph::new(3);
        g.add_edge(NodeId(0), NodeId(1), 1.0).unwrap();
        let net = FlatNet::compile(&g);
        let table = SptTable::build(&net, &[NodeId(0)], Some(1));
        let view = table.view(NodeId(0)).unwrap();
        assert!(!view.reachable(NodeId(2)));
        assert_eq!(view.parent(NodeId(2)), None);
        assert_eq!(view.up_cost(NodeId(2)), 0.0);
        assert_eq!(view.parent(NodeId(0)), None);
        assert_eq!(view.up_cost(NodeId(1)), 1.0);
    }

    #[test]
    fn table_build_dedups_and_matches_individual_runs() {
        let g = diamond();
        let net = FlatNet::compile(&g);
        let sources = [NodeId(0), NodeId(2), NodeId(0)];
        for threads in [Some(1), Some(3), None] {
            let table = SptTable::build(&net, &sources, threads);
            assert_eq!(table.len(), 2);
            assert_eq!(table.sources(), &[NodeId(0), NodeId(2)]);
            assert_eq!(table.node_count(), 4);
            assert!(!table.is_empty());
            for &s in table.sources() {
                let view = table.view(s).unwrap();
                let (dist, parent) = sssp(&net, s, &mut DijkstraScratch::new());
                for v in g.node_ids() {
                    assert_eq!(view.dist(v).to_bits(), dist[v.0 as usize].to_bits());
                    assert_eq!(view.raw_parent()[v.0 as usize], parent[v.0 as usize]);
                }
            }
            assert!(table.view(NodeId(3)).is_none());
        }
    }

    #[test]
    fn ensure_extends_the_table_lazily() {
        let g = diamond();
        let net = FlatNet::compile(&g);
        let mut table = SptTable::build(&net, &[NodeId(0)], Some(1));
        let mut scratch = DijkstraScratch::new();
        assert!(!table.contains(NodeId(3)));
        table.ensure(&net, NodeId(3), &mut scratch);
        table.ensure(&net, NodeId(3), &mut scratch); // idempotent
        assert_eq!(table.len(), 2);
        let view = table.view(NodeId(3)).unwrap();
        assert_eq!(view.source(), NodeId(3));
        assert_eq!(view.dist(NodeId(0)), 2.0);
    }
}
