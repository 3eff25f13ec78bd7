//! Network simulation substrate for the ICDCS 2003 pub-sub evaluation.
//!
//! The paper measures communication cost on a ~600-node hierarchical
//! topology produced by Georgia Tech's GT-ITM package: three *transit
//! blocks* of about five *transit nodes* each, every transit node attached
//! to two *stubs* of about twenty nodes. This crate reimplements that
//! transit-stub model and the cost machinery the experiments need:
//!
//! * [`Graph`] — an undirected weighted graph;
//! * [`dijkstra`] / [`ShortestPaths`] — single-source shortest paths and
//!   the shortest-path tree (SPT) rooted at a publisher;
//! * [`TransitStubConfig`] / [`Topology`] — the GT-ITM-style generator,
//!   with [`TransitStubConfig::riabov`] reproducing the paper's parameters;
//! * [`unicast_cost`] / [`multicast_tree_cost`] — the two delivery cost
//!   models: per-receiver unicast along shortest paths, and *dense-mode*
//!   multicast over the SPT (the paper's router model);
//! * [`alm_tree_cost`] — an application-level multicast overlay variant
//!   (extension; the paper notes its results apply to both flavors);
//! * [`FlatNet`] / [`SptTable`] / [`CostScratch`] — the compiled network
//!   engine: CSR adjacency, precomputed shortest-path-tree tables built
//!   in parallel, and epoch-stamped allocation-free cost walks
//!   ([`unicast_cost_flat`], [`multicast_tree_cost_flat`],
//!   [`unicast_and_tree_cost`], [`cost_events`]) that are bit-identical
//!   to the node-based functions.
//!
//! # Example
//!
//! ```
//! use pubsub_netsim::{dijkstra, multicast_tree_cost, unicast_cost, NodeId, TransitStubConfig};
//!
//! # fn main() -> Result<(), pubsub_netsim::NetError> {
//! let topo = TransitStubConfig::riabov().generate(42)?;
//! let publisher = topo.transit_nodes()[0];
//! let spt = dijkstra(topo.graph(), publisher);
//! let receivers: Vec<NodeId> = topo.stub_nodes().iter().take(10).copied().collect();
//! let uni = unicast_cost(&spt, &receivers);
//! let multi = multicast_tree_cost(&spt, &receivers);
//! assert!(multi <= uni); // sharing links never costs more
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]
#![deny(missing_debug_implementations)]

mod alm;
mod error;
mod fault;
mod flat;
mod graph;
mod multicast;
mod shortest;
mod transit_stub;
mod waxman;

pub use alm::alm_tree_cost;
pub use error::NetError;
pub use fault::{FaultEvent, FaultPlan, FaultPlanConfig, FaultyRouting, ScheduledFault};
pub use flat::{DijkstraScratch, FlatNet, SptTable, SptView, NO_PARENT};
pub use graph::{EdgeId, Graph, NodeId};
pub use multicast::{
    cost_events, cost_events_into, multicast_tree_cost, multicast_tree_cost_flat, sparse_mode_cost,
    sparse_mode_cost_flat, unicast_and_tree_cost, unicast_cost, unicast_cost_flat, CostScratch,
    PairCost,
};
pub use shortest::{all_pairs_dists, dijkstra, ShortestPaths};
pub use transit_stub::{NodeRole, StubInfo, Topology, TopologyStats, TransitStubConfig};
pub use waxman::WaxmanConfig;
