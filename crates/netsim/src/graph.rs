use std::fmt;

use crate::NetError;

/// Identifier of a network node.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct NodeId(pub u32);

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// Identifier of an undirected edge (its index in insertion order).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct EdgeId(pub u32);

#[derive(Clone, Debug)]
struct Edge {
    a: NodeId,
    b: NodeId,
    cost: f64,
}

/// An undirected graph with positive edge costs: the paper's network
/// `G = (V, E)` with communication costs `c_e ≥ 0` (we require strictly
/// positive costs so shortest paths are well defined without zero-cycles).
///
/// # Example
///
/// ```
/// use pubsub_netsim::{Graph, NodeId};
///
/// # fn main() -> Result<(), pubsub_netsim::NetError> {
/// let mut g = Graph::new(3);
/// g.add_edge(NodeId(0), NodeId(1), 2.0)?;
/// g.add_edge(NodeId(1), NodeId(2), 3.0)?;
/// assert_eq!(g.edge_count(), 2);
/// assert!(g.is_connected());
/// # Ok(())
/// # }
/// ```
#[derive(Clone, Debug)]
pub struct Graph {
    nodes: usize,
    edges: Vec<Edge>,
    /// adjacency: per node, (neighbor, edge index)
    adj: Vec<Vec<(NodeId, u32)>>,
}

impl Graph {
    /// Creates a graph with `nodes` nodes and no edges.
    pub fn new(nodes: usize) -> Self {
        Graph {
            nodes,
            edges: Vec::new(),
            adj: vec![Vec::new(); nodes],
        }
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.nodes
    }

    /// Number of undirected edges.
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    /// All node ids.
    pub fn node_ids(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.nodes as u32).map(NodeId)
    }

    /// Adds an undirected edge, returning its id. Parallel edges are
    /// permitted (shortest paths simply ignore the costlier one).
    ///
    /// # Errors
    ///
    /// * [`NetError::NodeOutOfRange`] if either endpoint is invalid;
    /// * [`NetError::SelfLoop`] if the endpoints coincide;
    /// * [`NetError::InvalidCost`] unless `cost` is positive and finite.
    pub fn add_edge(&mut self, a: NodeId, b: NodeId, cost: f64) -> Result<EdgeId, NetError> {
        for n in [a, b] {
            if n.0 as usize >= self.nodes {
                return Err(NetError::NodeOutOfRange {
                    node: n.0,
                    nodes: self.nodes,
                });
            }
        }
        if a == b {
            return Err(NetError::SelfLoop { node: a.0 });
        }
        if !(cost > 0.0 && cost.is_finite()) {
            return Err(NetError::InvalidCost {
                cost: cost.to_string(),
            });
        }
        let id = self.edges.len() as u32;
        self.edges.push(Edge { a, b, cost });
        self.adj[a.0 as usize].push((b, id));
        self.adj[b.0 as usize].push((a, id));
        Ok(EdgeId(id))
    }

    /// Neighbors of `node` with the connecting edge's cost.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    pub fn neighbors(&self, node: NodeId) -> impl Iterator<Item = (NodeId, f64)> + '_ {
        self.adj[node.0 as usize]
            .iter()
            .map(move |&(n, e)| (n, self.edges[e as usize].cost))
    }

    /// Degree of `node`.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    pub fn degree(&self, node: NodeId) -> usize {
        self.adj[node.0 as usize].len()
    }

    /// The endpoints and cost of an edge.
    ///
    /// # Panics
    ///
    /// Panics if the id is out of range.
    pub fn edge(&self, id: EdgeId) -> (NodeId, NodeId, f64) {
        let e = &self.edges[id.0 as usize];
        (e.a, e.b, e.cost)
    }

    /// Sum of all edge costs.
    pub fn total_cost(&self) -> f64 {
        self.edges.iter().map(|e| e.cost).sum()
    }

    /// `true` if every node is reachable from node 0 (vacuously true for
    /// empty graphs).
    pub fn is_connected(&self) -> bool {
        if self.nodes == 0 {
            return true;
        }
        let mut seen = vec![false; self.nodes];
        let mut stack = vec![NodeId(0)];
        seen[0] = true;
        let mut count = 1;
        while let Some(v) = stack.pop() {
            for &(n, _) in &self.adj[v.0 as usize] {
                if !seen[n.0 as usize] {
                    seen[n.0 as usize] = true;
                    count += 1;
                    stack.push(n);
                }
            }
        }
        count == self.nodes
    }

    /// Mean node degree (`0` for an empty graph).
    pub fn avg_degree(&self) -> f64 {
        if self.nodes == 0 {
            0.0
        } else {
            2.0 * self.edges.len() as f64 / self.nodes as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_and_inspect() {
        let mut g = Graph::new(4);
        let e = g.add_edge(NodeId(0), NodeId(1), 1.5).unwrap();
        g.add_edge(NodeId(1), NodeId(2), 2.5).unwrap();
        assert_eq!(g.node_count(), 4);
        assert_eq!(g.edge_count(), 2);
        assert_eq!(g.edge(e), (NodeId(0), NodeId(1), 1.5));
        assert_eq!(g.degree(NodeId(1)), 2);
        assert_eq!(g.degree(NodeId(3)), 0);
        assert_eq!(g.total_cost(), 4.0);
        assert_eq!(g.avg_degree(), 1.0);
        let nbrs: Vec<_> = g.neighbors(NodeId(1)).collect();
        assert_eq!(nbrs, vec![(NodeId(0), 1.5), (NodeId(2), 2.5)]);
    }

    #[test]
    fn edge_validation() {
        let mut g = Graph::new(2);
        assert!(matches!(
            g.add_edge(NodeId(0), NodeId(5), 1.0),
            Err(NetError::NodeOutOfRange { node: 5, nodes: 2 })
        ));
        assert!(matches!(
            g.add_edge(NodeId(1), NodeId(1), 1.0),
            Err(NetError::SelfLoop { node: 1 })
        ));
        assert!(matches!(
            g.add_edge(NodeId(0), NodeId(1), 0.0),
            Err(NetError::InvalidCost { .. })
        ));
        assert!(matches!(
            g.add_edge(NodeId(0), NodeId(1), f64::NAN),
            Err(NetError::InvalidCost { .. })
        ));
    }

    #[test]
    fn connectivity() {
        let mut g = Graph::new(3);
        assert!(!g.is_connected());
        g.add_edge(NodeId(0), NodeId(1), 1.0).unwrap();
        assert!(!g.is_connected());
        g.add_edge(NodeId(2), NodeId(1), 1.0).unwrap();
        assert!(g.is_connected());
        assert!(Graph::new(0).is_connected());
        assert!(Graph::new(1).is_connected());
    }
}
