//! GT-ITM-style transit-stub topology generation (paper §5, Figure 3).
//!
//! The paper generated its 600-node evaluation network with the GT-ITM
//! package: "three transit blocks ... with an average of five transit nodes
//! in each block. Each transit node was connected to two stubs on average,
//! each stub having an average of twenty nodes." This module reimplements
//! that hierarchical model (Zegura, Calvert, Bhattacharjee, INFOCOM 1996):
//! random connected graphs inside each transit block and each stub, a
//! complete top-level graph between blocks, and one gateway link per stub.

use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

use crate::{Graph, NetError, NodeId};

/// Role of a node in a transit-stub topology.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum NodeRole {
    /// A backbone router inside transit block `block`.
    Transit {
        /// Index of the transit block.
        block: usize,
    },
    /// A node of stub network `stub` (index into [`Topology::stubs`]).
    Stub {
        /// Index of the transit block the stub hangs off.
        block: usize,
        /// Index of the stub in [`Topology::stubs`].
        stub: usize,
    },
}

/// A stub network: a leaf domain attached to one transit node.
#[derive(Clone, Debug)]
pub struct StubInfo {
    /// Transit block this stub belongs to.
    pub block: usize,
    /// The transit node the stub's gateway link attaches to.
    pub transit: NodeId,
    /// Member nodes of the stub.
    pub nodes: Vec<NodeId>,
}

/// Configuration of the transit-stub generator. Passive data: all fields
/// are public.
#[derive(Clone, Debug, PartialEq)]
pub struct TransitStubConfig {
    /// Number of transit blocks (the paper uses 3).
    pub transit_blocks: usize,
    /// Mean transit nodes per block (the paper uses 5).
    pub transit_nodes_per_block: usize,
    /// Mean stubs per transit node (the paper uses 2).
    pub stubs_per_transit: usize,
    /// Mean nodes per stub (the paper uses 20).
    pub stub_size: usize,
    /// Relative jitter applied to every mean count, in `[0, 1)`: an actual
    /// count is drawn uniformly from `mean·(1±jitter)` (at least 1).
    pub size_jitter: f64,
    /// Probability of each extra (non-spanning-tree) edge inside a transit
    /// block, per node pair.
    pub extra_transit_edge_prob: f64,
    /// Probability of each extra edge inside a stub, per node pair.
    pub extra_stub_edge_prob: f64,
    /// Cost range (lo, hi) of intra-stub links.
    pub intra_stub_cost: (f64, f64),
    /// Cost range of stub-gateway-to-transit links.
    pub transit_stub_cost: (f64, f64),
    /// Cost range of links inside a transit block.
    pub intra_transit_cost: (f64, f64),
    /// Cost range of links between transit blocks.
    pub inter_block_cost: (f64, f64),
}

impl TransitStubConfig {
    /// The paper's evaluation network: 3 transit blocks × ~5 transit nodes,
    /// 2 stubs per transit node, ~20 nodes per stub — about 600 nodes.
    /// GT-ITM routing-policy edge weights are modeled as uniform costs with
    /// stub links cheapest and inter-block links most expensive.
    pub fn riabov() -> Self {
        TransitStubConfig {
            transit_blocks: 3,
            transit_nodes_per_block: 5,
            stubs_per_transit: 2,
            stub_size: 20,
            size_jitter: 0.3,
            extra_transit_edge_prob: 0.4,
            extra_stub_edge_prob: 0.05,
            intra_stub_cost: (1.0, 5.0),
            transit_stub_cost: (5.0, 10.0),
            intra_transit_cost: (10.0, 20.0),
            inter_block_cost: (20.0, 40.0),
        }
    }

    /// A miniature topology (one block, small stubs) for fast tests.
    pub fn tiny() -> Self {
        TransitStubConfig {
            transit_blocks: 1,
            transit_nodes_per_block: 2,
            stubs_per_transit: 1,
            stub_size: 4,
            size_jitter: 0.0,
            extra_transit_edge_prob: 0.0,
            extra_stub_edge_prob: 0.0,
            intra_stub_cost: (1.0, 2.0),
            transit_stub_cost: (2.0, 4.0),
            intra_transit_cost: (4.0, 8.0),
            inter_block_cost: (8.0, 16.0),
        }
    }

    fn validate(&self) -> Result<(), NetError> {
        fn check(
            ok: bool,
            parameter: &'static str,
            constraint: &'static str,
        ) -> Result<(), NetError> {
            if ok {
                Ok(())
            } else {
                Err(NetError::InvalidConfig {
                    parameter,
                    constraint,
                })
            }
        }
        check(self.transit_blocks >= 1, "transit_blocks", ">= 1")?;
        check(
            self.transit_nodes_per_block >= 1,
            "transit_nodes_per_block",
            ">= 1",
        )?;
        check(self.stubs_per_transit >= 1, "stubs_per_transit", ">= 1")?;
        check(self.stub_size >= 1, "stub_size", ">= 1")?;
        check(
            (0.0..1.0).contains(&self.size_jitter),
            "size_jitter",
            "0 <= jitter < 1",
        )?;
        check(
            (0.0..=1.0).contains(&self.extra_transit_edge_prob),
            "extra_transit_edge_prob",
            "0 <= p <= 1",
        )?;
        check(
            (0.0..=1.0).contains(&self.extra_stub_edge_prob),
            "extra_stub_edge_prob",
            "0 <= p <= 1",
        )?;
        for (name, &(lo, hi)) in [
            ("intra_stub_cost", &self.intra_stub_cost),
            ("transit_stub_cost", &self.transit_stub_cost),
            ("intra_transit_cost", &self.intra_transit_cost),
            ("inter_block_cost", &self.inter_block_cost),
        ] {
            check(
                lo > 0.0 && hi >= lo && hi.is_finite(),
                name,
                "0 < lo <= hi < inf",
            )?;
        }
        Ok(())
    }

    /// Generates a topology deterministically from `seed`.
    ///
    /// # Errors
    ///
    /// Returns [`NetError::InvalidConfig`] for out-of-range parameters.
    pub fn generate(&self, seed: u64) -> Result<Topology, NetError> {
        self.validate()?;
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let mut builder = Builder {
            nodes: Vec::new(),
            edges: Vec::new(),
        };
        let mut transit_by_block: Vec<Vec<NodeId>> = Vec::new();
        let mut stubs: Vec<StubInfo> = Vec::new();

        // Transit blocks: connected random graphs of transit nodes.
        for block in 0..self.transit_blocks {
            let count = jittered(self.transit_nodes_per_block, self.size_jitter, &mut rng);
            let ids: Vec<NodeId> = (0..count)
                .map(|_| builder.add_node(NodeRole::Transit { block }))
                .collect();
            builder.connect_randomly(
                &ids,
                self.extra_transit_edge_prob,
                self.intra_transit_cost,
                &mut rng,
            );
            transit_by_block.push(ids);
        }
        // Top level: complete graph over blocks, one link per block pair.
        for b1 in 0..self.transit_blocks {
            for b2 in (b1 + 1)..self.transit_blocks {
                let a = *pick(&transit_by_block[b1], &mut rng);
                let b = *pick(&transit_by_block[b2], &mut rng);
                builder
                    .edges
                    .push((a, b, sample(self.inter_block_cost, &mut rng)));
            }
        }
        // Stubs.
        for (block, transit_ids) in transit_by_block.iter().enumerate() {
            for &transit in transit_ids {
                let n_stubs = jittered(self.stubs_per_transit, self.size_jitter, &mut rng);
                for _ in 0..n_stubs {
                    let stub_idx = stubs.len();
                    let count = jittered(self.stub_size, self.size_jitter, &mut rng);
                    let ids: Vec<NodeId> = (0..count)
                        .map(|_| {
                            builder.add_node(NodeRole::Stub {
                                block,
                                stub: stub_idx,
                            })
                        })
                        .collect();
                    builder.connect_randomly(
                        &ids,
                        self.extra_stub_edge_prob,
                        self.intra_stub_cost,
                        &mut rng,
                    );
                    let gateway = *pick(&ids, &mut rng);
                    builder.edges.push((
                        gateway,
                        transit,
                        sample(self.transit_stub_cost, &mut rng),
                    ));
                    stubs.push(StubInfo {
                        block,
                        transit,
                        nodes: ids,
                    });
                }
            }
        }

        let mut graph = Graph::new(builder.nodes.len());
        for (a, b, c) in &builder.edges {
            graph.add_edge(*a, *b, *c)?;
        }
        let transit_nodes = transit_by_block.into_iter().flatten().collect();
        let stub_nodes = stubs.iter().flat_map(|s| s.nodes.iter().copied()).collect();
        Ok(Topology {
            graph,
            roles: builder.nodes,
            transit_nodes,
            stub_nodes,
            stubs,
        })
    }
}

struct Builder {
    nodes: Vec<NodeRole>,
    edges: Vec<(NodeId, NodeId, f64)>,
}

impl Builder {
    fn add_node(&mut self, role: NodeRole) -> NodeId {
        let id = NodeId(self.nodes.len() as u32);
        self.nodes.push(role);
        id
    }

    /// Random spanning tree plus Bernoulli extra edges over `ids`.
    fn connect_randomly(
        &mut self,
        ids: &[NodeId],
        extra_prob: f64,
        cost: (f64, f64),
        rng: &mut ChaCha8Rng,
    ) {
        for i in 1..ids.len() {
            let j = rng.gen_range(0..i);
            self.edges.push((ids[i], ids[j], sample(cost, rng)));
        }
        for i in 0..ids.len() {
            for j in (i + 1)..ids.len() {
                if rng.gen::<f64>() < extra_prob {
                    self.edges.push((ids[i], ids[j], sample(cost, rng)));
                }
            }
        }
    }
}

fn jittered(mean: usize, jitter: f64, rng: &mut ChaCha8Rng) -> usize {
    if jitter == 0.0 {
        return mean.max(1);
    }
    let lo = (mean as f64 * (1.0 - jitter)).round() as usize;
    let hi = (mean as f64 * (1.0 + jitter)).round() as usize;
    rng.gen_range(lo..=hi.max(lo)).max(1)
}

fn sample((lo, hi): (f64, f64), rng: &mut ChaCha8Rng) -> f64 {
    if hi > lo {
        rng.gen_range(lo..hi)
    } else {
        lo
    }
}

fn pick<'a, T>(items: &'a [T], rng: &mut ChaCha8Rng) -> &'a T {
    &items[rng.gen_range(0..items.len())]
}

/// A generated transit-stub topology.
#[derive(Clone, Debug)]
pub struct Topology {
    graph: Graph,
    roles: Vec<NodeRole>,
    transit_nodes: Vec<NodeId>,
    stub_nodes: Vec<NodeId>,
    stubs: Vec<StubInfo>,
}

impl Topology {
    /// Assembles a topology from parts (used by the flat/Waxman
    /// constructors; invariants are the caller's responsibility).
    pub(crate) fn from_parts(
        graph: Graph,
        roles: Vec<NodeRole>,
        transit_nodes: Vec<NodeId>,
        stub_nodes: Vec<NodeId>,
        stubs: Vec<StubInfo>,
    ) -> Topology {
        Topology {
            graph,
            roles,
            transit_nodes,
            stub_nodes,
            stubs,
        }
    }

    /// The underlying weighted graph.
    pub fn graph(&self) -> &Graph {
        &self.graph
    }

    /// The role of a node.
    ///
    /// # Panics
    ///
    /// Panics if the id is out of range.
    pub fn role(&self, node: NodeId) -> NodeRole {
        self.roles[node.0 as usize]
    }

    /// All transit (backbone) nodes, grouped by block in id order.
    pub fn transit_nodes(&self) -> &[NodeId] {
        &self.transit_nodes
    }

    /// All stub (leaf-domain) nodes.
    pub fn stub_nodes(&self) -> &[NodeId] {
        &self.stub_nodes
    }

    /// All stub networks.
    pub fn stubs(&self) -> &[StubInfo] {
        &self.stubs
    }

    /// The transit block a node belongs to.
    pub fn block_of(&self, node: NodeId) -> usize {
        match self.role(node) {
            NodeRole::Transit { block } | NodeRole::Stub { block, .. } => block,
        }
    }

    /// Transit nodes of one block.
    pub fn transit_nodes_of_block(&self, block: usize) -> Vec<NodeId> {
        self.transit_nodes
            .iter()
            .copied()
            .filter(|&n| self.block_of(n) == block)
            .collect()
    }

    /// Stub networks hanging off one block.
    pub fn stubs_of_block(&self, block: usize) -> Vec<usize> {
        (0..self.stubs.len())
            .filter(|&i| self.stubs[i].block == block)
            .collect()
    }

    /// Renders the topology in Graphviz DOT format (what the paper's
    /// Figure 3 shows as a picture). Transit nodes are boxes grouped in
    /// per-block clusters; stub nodes are small circles; edge lengths are
    /// not to scale but costs are attached as labels on backbone links.
    pub fn to_dot(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::from("graph topology {\n  overlap=false;\n  splines=true;\n");
        let blocks = self
            .stubs
            .iter()
            .map(|s| s.block)
            .max()
            .map_or(0, |b| b + 1);
        for b in 0..blocks {
            let _ = writeln!(out, "  subgraph cluster_block{b} {{");
            let _ = writeln!(out, "    label=\"transit block {b}\";");
            for &t in &self.transit_nodes {
                if self.block_of(t) == b {
                    let _ = writeln!(
                        out,
                        "    {} [shape=box, style=filled, fillcolor=lightblue];",
                        t.0
                    );
                }
            }
            let _ = writeln!(out, "  }}");
        }
        for n in self.graph.node_ids() {
            if matches!(self.role(n), NodeRole::Stub { .. }) {
                let _ = writeln!(out, "  {} [shape=point];", n.0);
            }
        }
        for e in 0..self.graph.edge_count() {
            let (a, b, cost) = self.graph.edge(crate::EdgeId(e as u32));
            let backbone = matches!(self.role(a), NodeRole::Transit { .. })
                && matches!(self.role(b), NodeRole::Transit { .. });
            if backbone {
                let _ = writeln!(
                    out,
                    "  {} -- {} [label=\"{:.0}\", penwidth=2];",
                    a.0, b.0, cost
                );
            } else {
                let _ = writeln!(out, "  {} -- {};", a.0, b.0);
            }
        }
        out.push_str("}\n");
        out
    }

    /// Summary statistics (what Figure 3 conveys visually).
    pub fn stats(&self) -> TopologyStats {
        TopologyStats {
            nodes: self.graph.node_count(),
            edges: self.graph.edge_count(),
            transit_nodes: self.transit_nodes.len(),
            stub_nodes: self.stub_nodes.len(),
            stubs: self.stubs.len(),
            blocks: self
                .stubs
                .iter()
                .map(|s| s.block)
                .max()
                .map_or(0, |b| b + 1),
            avg_degree: self.graph.avg_degree(),
            avg_stub_size: if self.stubs.is_empty() {
                0.0
            } else {
                self.stub_nodes.len() as f64 / self.stubs.len() as f64
            },
            connected: self.graph.is_connected(),
        }
    }
}

/// Summary statistics of a [`Topology`].
#[derive(Clone, Debug, PartialEq)]
pub struct TopologyStats {
    /// Total nodes.
    pub nodes: usize,
    /// Total edges.
    pub edges: usize,
    /// Number of transit nodes.
    pub transit_nodes: usize,
    /// Number of stub nodes.
    pub stub_nodes: usize,
    /// Number of stub networks.
    pub stubs: usize,
    /// Number of transit blocks.
    pub blocks: usize,
    /// Mean node degree.
    pub avg_degree: f64,
    /// Mean stub network size.
    pub avg_stub_size: f64,
    /// Whether the topology is one connected component (always true for
    /// generated topologies).
    pub connected: bool,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn riabov_topology_matches_paper_scale() {
        let topo = TransitStubConfig::riabov().generate(7).unwrap();
        let s = topo.stats();
        assert!(s.connected, "topology must be connected");
        assert_eq!(s.blocks, 3);
        // ~600 nodes: 3 blocks x ~5 transit x ~2 stubs x ~20 nodes.
        assert!(
            (350..=950).contains(&s.nodes),
            "unexpected node count {}",
            s.nodes
        );
        assert!((8..=25).contains(&s.transit_nodes));
        assert!(s.avg_stub_size > 10.0 && s.avg_stub_size < 30.0);
        assert_eq!(s.nodes, s.transit_nodes + s.stub_nodes);
    }

    #[test]
    fn generation_is_deterministic_per_seed() {
        let cfg = TransitStubConfig::riabov();
        let a = cfg.generate(123).unwrap();
        let b = cfg.generate(123).unwrap();
        assert_eq!(a.stats(), b.stats());
        assert_eq!(a.graph().total_cost(), b.graph().total_cost());
        let c = cfg.generate(124).unwrap();
        // Different seeds produce different networks (total cost collision
        // is essentially impossible).
        assert_ne!(a.graph().total_cost(), c.graph().total_cost());
    }

    #[test]
    fn roles_are_consistent() {
        let topo = TransitStubConfig::riabov().generate(5).unwrap();
        for &t in topo.transit_nodes() {
            assert!(matches!(topo.role(t), NodeRole::Transit { .. }));
        }
        for (i, stub) in topo.stubs().iter().enumerate() {
            assert!(
                matches!(topo.role(stub.transit), NodeRole::Transit { block } if block == stub.block)
            );
            for &n in &stub.nodes {
                match topo.role(n) {
                    NodeRole::Stub { block, stub: s } => {
                        assert_eq!(block, stub.block);
                        assert_eq!(s, i);
                    }
                    other => panic!("stub member has role {other:?}"),
                }
            }
        }
    }

    #[test]
    fn block_queries() {
        let topo = TransitStubConfig::riabov().generate(11).unwrap();
        let t0 = topo.transit_nodes_of_block(0);
        assert!(!t0.is_empty());
        assert!(t0.iter().all(|&n| topo.block_of(n) == 0));
        let s0 = topo.stubs_of_block(0);
        assert!(!s0.is_empty());
        assert!(s0.iter().all(|&i| topo.stubs()[i].block == 0));
    }

    #[test]
    fn tiny_config_is_exact() {
        let topo = TransitStubConfig::tiny().generate(1).unwrap();
        let s = topo.stats();
        assert_eq!(s.blocks, 1);
        assert_eq!(s.transit_nodes, 2);
        assert_eq!(s.stubs, 2);
        assert_eq!(s.stub_nodes, 8);
        assert!(s.connected);
    }

    #[test]
    fn invalid_configs_rejected() {
        let mut cfg = TransitStubConfig::riabov();
        cfg.transit_blocks = 0;
        assert!(cfg.generate(0).is_err());
        let mut cfg = TransitStubConfig::riabov();
        cfg.size_jitter = 1.5;
        assert!(cfg.generate(0).is_err());
        let mut cfg = TransitStubConfig::riabov();
        cfg.intra_stub_cost = (5.0, 1.0);
        assert!(cfg.generate(0).is_err());
        let mut cfg = TransitStubConfig::riabov();
        cfg.extra_stub_edge_prob = -0.1;
        assert!(cfg.generate(0).is_err());
    }

    #[test]
    fn dot_export_mentions_every_node_and_edge() {
        let topo = TransitStubConfig::tiny().generate(2).unwrap();
        let dot = topo.to_dot();
        assert!(dot.starts_with("graph topology {"));
        assert!(dot.trim_end().ends_with('}'));
        assert!(dot.contains("cluster_block0"));
        // Every edge appears as "a -- b".
        let edge_lines = dot.matches(" -- ").count();
        assert_eq!(edge_lines, topo.graph().edge_count());
        // Transit nodes are boxes.
        assert_eq!(dot.matches("shape=box").count(), topo.transit_nodes().len());
        assert_eq!(dot.matches("shape=point").count(), topo.stub_nodes().len());
    }

    #[test]
    fn stub_links_cheaper_than_backbone_links() {
        // Sanity-check the cost hierarchy on the preset.
        let cfg = TransitStubConfig::riabov();
        assert!(cfg.intra_stub_cost.1 <= cfg.transit_stub_cost.1);
        assert!(cfg.transit_stub_cost.1 <= cfg.intra_transit_cost.1);
        assert!(cfg.intra_transit_cost.1 <= cfg.inter_block_cost.1);
    }
}
