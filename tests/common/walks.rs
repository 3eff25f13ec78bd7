//! The network-cost oracle: textbook node-based walks over a `Graph`,
//! written for clarity rather than speed. The product's compiled engine
//! (`FlatNet`, `SptTable` and the `CostScratch` walks) must reproduce
//! every distance, SPT parent and cost here bit for bit: both relax edges
//! in adjacency order on strict improvement and settle ties by the
//! smaller node id, and each cost walk adds the same terms in the same
//! order.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use pubsub::netsim::{Graph, NodeId};

/// Single-source shortest paths: distances and the shortest-path tree
/// (SPT) rooted at the source — the routing tree of dense-mode multicast.
pub struct ShortestPaths {
    source: NodeId,
    dist: Vec<f64>,
    parent: Vec<Option<NodeId>>,
}

impl ShortestPaths {
    /// Distance from the source to `node` (`+∞` if unreachable).
    pub fn dist(&self, node: NodeId) -> f64 {
        self.dist[node.0 as usize]
    }

    /// The parent of `node` in the SPT (`None` for the source and for
    /// unreachable nodes).
    pub fn parent(&self, node: NodeId) -> Option<NodeId> {
        self.parent[node.0 as usize]
    }

    fn reachable(&self, node: NodeId) -> bool {
        self.dist(node).is_finite()
    }
}

#[derive(PartialEq)]
struct HeapItem {
    dist: f64,
    node: NodeId,
}

impl Eq for HeapItem {}

impl Ord for HeapItem {
    fn cmp(&self, other: &Self) -> Ordering {
        // Min-heap on (distance, node id) via reversed comparison.
        other
            .dist
            .total_cmp(&self.dist)
            .then_with(|| other.node.0.cmp(&self.node.0))
    }
}

impl PartialOrd for HeapItem {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// Dijkstra with a lazy-deletion binary heap.
pub fn dijkstra(graph: &Graph, source: NodeId) -> ShortestPaths {
    let n = graph.node_count();
    let mut dist = vec![f64::INFINITY; n];
    let mut parent = vec![None; n];
    let mut done = vec![false; n];
    let mut heap = BinaryHeap::new();
    dist[source.0 as usize] = 0.0;
    heap.push(HeapItem {
        dist: 0.0,
        node: source,
    });
    while let Some(HeapItem { dist: d, node }) = heap.pop() {
        let ni = node.0 as usize;
        if done[ni] {
            continue;
        }
        done[ni] = true;
        for (nbr, cost) in graph.neighbors(node) {
            let nd = d + cost;
            if nd < dist[nbr.0 as usize] {
                dist[nbr.0 as usize] = nd;
                parent[nbr.0 as usize] = Some(node);
                heap.push(HeapItem {
                    dist: nd,
                    node: nbr,
                });
            }
        }
    }
    ShortestPaths {
        source,
        dist,
        parent,
    }
}

/// `Σ_r dist(source, r)` over the distinct receivers other than the
/// source; `+∞` if one is unreachable.
pub fn unicast_cost(spt: &ShortestPaths, receivers: &[NodeId]) -> f64 {
    let mut seen = vec![false; spt.dist.len()];
    let mut total = 0.0;
    for &r in receivers {
        if r == spt.source || seen[r.0 as usize] {
            continue;
        }
        seen[r.0 as usize] = true;
        total += spt.dist(r);
    }
    total
}

/// Dense-mode multicast: each link of the union of the receivers' SPT
/// paths, paid once as `dist(child) - dist(parent)`; `+∞` if a receiver
/// is unreachable.
pub fn multicast_tree_cost(spt: &ShortestPaths, receivers: &[NodeId]) -> f64 {
    let mut in_tree = vec![false; spt.dist.len()];
    in_tree[spt.source.0 as usize] = true;
    let mut total = 0.0;
    for &r in receivers {
        if !spt.reachable(r) {
            return f64::INFINITY;
        }
        let mut cur = r;
        while !in_tree[cur.0 as usize] {
            in_tree[cur.0 as usize] = true;
            let Some(p) = spt.parent(cur) else { break };
            total += spt.dist(cur) - spt.dist(p);
            cur = p;
        }
    }
    total
}

/// Sparse mode: the tunnel to the rendezvous point plus dense-mode
/// multicast down the RP's tree; free for an empty receiver set.
pub fn sparse_mode_cost(rp_spt: &ShortestPaths, publisher_to_rp: f64, receivers: &[NodeId]) -> f64 {
    if receivers.is_empty() {
        return 0.0;
    }
    publisher_to_rp + multicast_tree_cost(rp_spt, receivers)
}

/// Application-level multicast: Prim's greedy overlay over `{source} ∪
/// members`, each overlay edge one shortest-path unicast, with a fresh
/// Dijkstra per member; `+∞` if a member is unreachable.
pub fn alm_tree_cost(graph: &Graph, source: NodeId, members: &[NodeId]) -> f64 {
    let mut uniq: Vec<NodeId> = Vec::new();
    for &m in members {
        if m != source && !uniq.contains(&m) {
            uniq.push(m);
        }
    }
    let from_source = dijkstra(graph, source);
    if uniq.iter().any(|&m| !from_source.reachable(m)) {
        return f64::INFINITY;
    }
    let from_member: Vec<_> = uniq.iter().map(|&m| dijkstra(graph, m)).collect();
    let n = uniq.len();
    let mut in_tree = vec![false; n];
    let mut best: Vec<f64> = uniq.iter().map(|&m| from_source.dist(m)).collect();
    let mut total = 0.0;
    for _ in 0..n {
        let mut pick = usize::MAX;
        let mut pick_d = f64::INFINITY;
        for i in 0..n {
            if !in_tree[i] && best[i] < pick_d {
                pick_d = best[i];
                pick = i;
            }
        }
        in_tree[pick] = true;
        total += pick_d;
        for i in 0..n {
            if !in_tree[i] {
                let d = from_member[pick].dist(uniq[i]);
                if d < best[i] {
                    best[i] = d;
                }
            }
        }
    }
    total
}
