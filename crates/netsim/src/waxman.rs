//! Waxman flat random topologies (extension).
//!
//! Zegura, Calvert and Bhattacharjee's "How to model an internetwork"
//! (the paper's topology reference \[17\]) contrasts *hierarchical*
//! transit-stub graphs with *flat* random graphs, of which Waxman's is
//! the canonical model: nodes scattered uniformly in the unit square,
//! edge probability decaying with distance,
//! `P(u,v) = α·exp(−d(u,v)/(β·L))`. A flat topology has no shared trunk
//! links for multicast to exploit, which makes it the natural control
//! for the evaluation's hierarchical testbed (see the
//! `ablation_topology` harness).

use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

use crate::{Graph, NetError, NodeId, NodeRole, StubInfo, Topology};

/// Configuration of the Waxman generator. Passive data: public fields.
#[derive(Clone, Debug, PartialEq)]
pub struct WaxmanConfig {
    /// Number of nodes.
    pub nodes: usize,
    /// Waxman `α` — overall edge density, in `(0, 1]`.
    pub alpha: f64,
    /// Waxman `β` — how slowly probability decays with distance, in
    /// `(0, 1]`.
    pub beta: f64,
    /// Edge cost per unit of Euclidean distance (plus a small floor so
    /// costs stay positive).
    pub cost_scale: f64,
}

impl WaxmanConfig {
    /// A flat topology sized like the paper's testbed (~600 nodes) with
    /// classic Waxman parameters.
    pub fn riabov_sized() -> Self {
        WaxmanConfig {
            nodes: 615,
            alpha: 0.05,
            beta: 0.3,
            cost_scale: 40.0,
        }
    }

    fn validate(&self) -> Result<(), NetError> {
        if self.nodes == 0 {
            return Err(NetError::InvalidConfig {
                parameter: "nodes",
                constraint: ">= 1",
            });
        }
        for (name, v) in [("alpha", self.alpha), ("beta", self.beta)] {
            if !(v > 0.0 && v <= 1.0) {
                return Err(NetError::InvalidConfig {
                    parameter: if name == "alpha" { "alpha" } else { "beta" },
                    constraint: "0 < value <= 1",
                });
            }
        }
        if !(self.cost_scale > 0.0 && self.cost_scale.is_finite()) {
            return Err(NetError::InvalidConfig {
                parameter: "cost_scale",
                constraint: "positive and finite",
            });
        }
        Ok(())
    }

    /// Generates a connected flat topology deterministically from `seed`.
    ///
    /// Connectivity is guaranteed by first linking every node to its
    /// nearest already-placed neighbor (a geometric spanning tree), then
    /// adding Waxman edges on top.
    ///
    /// # Errors
    ///
    /// Returns [`NetError::InvalidConfig`] for out-of-range parameters.
    pub fn generate(&self, seed: u64) -> Result<Topology, NetError> {
        self.validate()?;
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let positions: Vec<(f64, f64)> = (0..self.nodes)
            .map(|_| (rng.gen::<f64>(), rng.gen::<f64>()))
            .collect();
        let dist = |a: usize, b: usize| -> f64 {
            let (ax, ay) = positions[a];
            let (bx, by) = positions[b];
            ((ax - bx).powi(2) + (ay - by).powi(2)).sqrt()
        };
        let cost = |d: f64| (d * self.cost_scale).max(0.1);

        let mut graph = Graph::new(self.nodes);
        // Geometric spanning tree: node i links to its nearest j < i.
        for i in 1..self.nodes {
            let mut best = 0usize;
            let mut best_d = f64::INFINITY;
            for j in 0..i {
                let d = dist(i, j);
                if d < best_d {
                    best_d = d;
                    best = j;
                }
            }
            graph.add_edge(NodeId(i as u32), NodeId(best as u32), cost(best_d))?;
        }
        // Waxman edges. L = sqrt(2) is the unit-square diameter.
        let l = std::f64::consts::SQRT_2;
        for i in 0..self.nodes {
            for j in (i + 1)..self.nodes {
                let d = dist(i, j);
                let p = self.alpha * (-d / (self.beta * l)).exp();
                if rng.gen::<f64>() < p {
                    graph.add_edge(NodeId(i as u32), NodeId(j as u32), cost(d))?;
                }
            }
        }
        Ok(Topology::flat(graph))
    }
}

impl Topology {
    /// Wraps a raw graph as a *flat* topology: every node is a member of
    /// one all-encompassing stub network in block 0 (there is no
    /// backbone). Subscription generators that spread load over blocks
    /// and stubs see a single block with a single stub.
    pub fn flat(graph: Graph) -> Topology {
        let nodes: Vec<NodeId> = graph.node_ids().collect();
        let roles = vec![NodeRole::Stub { block: 0, stub: 0 }; graph.node_count()];
        let stubs = if nodes.is_empty() {
            Vec::new()
        } else {
            vec![StubInfo {
                block: 0,
                transit: nodes[0],
                nodes: nodes.clone(),
            }]
        };
        Topology::from_parts(graph, roles, Vec::new(), nodes, stubs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{multicast_tree_cost_flat, unicast_cost_flat, CostScratch, FlatNet, SptTable};

    #[test]
    fn generates_connected_deterministic_topologies() {
        let cfg = WaxmanConfig {
            nodes: 80,
            alpha: 0.1,
            beta: 0.3,
            cost_scale: 10.0,
        };
        let a = cfg.generate(3).unwrap();
        assert!(a.graph().is_connected());
        assert_eq!(a.graph().node_count(), 80);
        let b = cfg.generate(3).unwrap();
        assert_eq!(a.graph().total_cost(), b.graph().total_cost());
        let c = cfg.generate(4).unwrap();
        assert_ne!(a.graph().total_cost(), c.graph().total_cost());
    }

    #[test]
    fn flat_topology_has_single_stub_and_no_backbone() {
        let topo = WaxmanConfig {
            nodes: 30,
            alpha: 0.2,
            beta: 0.3,
            cost_scale: 5.0,
        }
        .generate(1)
        .unwrap();
        assert!(topo.transit_nodes().is_empty());
        assert_eq!(topo.stubs().len(), 1);
        assert_eq!(topo.stub_nodes().len(), 30);
        assert_eq!(topo.stubs_of_block(0), vec![0]);
        for n in topo.graph().node_ids() {
            assert_eq!(topo.block_of(n), 0);
            assert!(matches!(topo.role(n), NodeRole::Stub { block: 0, stub: 0 }));
        }
        let stats = topo.stats();
        assert_eq!(stats.blocks, 1);
        assert!(stats.connected);
    }

    #[test]
    fn waxman_edges_grow_with_alpha() {
        let base = WaxmanConfig {
            nodes: 100,
            alpha: 0.05,
            beta: 0.3,
            cost_scale: 10.0,
        };
        let dense = WaxmanConfig {
            alpha: 0.5,
            ..base.clone()
        };
        let sparse_edges = base.generate(7).unwrap().graph().edge_count();
        let dense_edges = dense.generate(7).unwrap().graph().edge_count();
        assert!(dense_edges > sparse_edges);
    }

    #[test]
    fn multicast_still_beats_unicast_on_flat_graphs() {
        let topo = WaxmanConfig::riabov_sized().generate(11).unwrap();
        let table = SptTable::build(&FlatNet::compile(topo.graph()), &[NodeId(0)], Some(1));
        let spt = table.view(NodeId(0)).unwrap();
        let receivers: Vec<NodeId> = (1..60).map(NodeId).collect();
        let mut scratch = CostScratch::new();
        assert!(
            multicast_tree_cost_flat(spt, &receivers, &mut scratch)
                <= unicast_cost_flat(spt, &receivers, &mut scratch)
        );
    }

    #[test]
    fn validation() {
        let mut cfg = WaxmanConfig::riabov_sized();
        cfg.nodes = 0;
        assert!(cfg.generate(0).is_err());
        let mut cfg = WaxmanConfig::riabov_sized();
        cfg.alpha = 0.0;
        assert!(cfg.generate(0).is_err());
        let mut cfg = WaxmanConfig::riabov_sized();
        cfg.beta = 1.5;
        assert!(cfg.generate(0).is_err());
        let mut cfg = WaxmanConfig::riabov_sized();
        cfg.cost_scale = f64::INFINITY;
        assert!(cfg.generate(0).is_err());
    }

    #[test]
    fn empty_flat_topology() {
        let topo = Topology::flat(Graph::new(0));
        assert_eq!(topo.stubs().len(), 0);
        assert_eq!(topo.stats().nodes, 0);
    }
}
