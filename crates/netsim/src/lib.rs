//! Network simulation substrate for the ICDCS 2003 pub-sub evaluation.
//!
//! The paper measures communication cost on a ~600-node hierarchical
//! topology produced by Georgia Tech's GT-ITM package: three *transit
//! blocks* of about five *transit nodes* each, every transit node attached
//! to two *stubs* of about twenty nodes. This crate reimplements that
//! transit-stub model and the cost machinery the experiments need:
//!
//! * [`Graph`] — an undirected weighted graph;
//! * [`TransitStubConfig`] / [`Topology`] — the GT-ITM-style generator,
//!   with [`TransitStubConfig::riabov`] reproducing the paper's parameters;
//! * [`FlatNet`] / [`SptTable`] — the compiled network engine: CSR
//!   adjacency and its one Dijkstra ([`FlatNet::sssp_into`]), with dense
//!   shortest-path-tree (SPT) rows for the publishers and rendezvous
//!   points built in parallel;
//! * [`unicast_cost_flat`] / [`multicast_tree_cost_flat`] /
//!   [`sparse_mode_cost_flat`] — the delivery cost models as
//!   allocation-free walks over an [`SptView`] with a reusable
//!   [`CostScratch`]: per-receiver unicast along shortest paths,
//!   *dense-mode* multicast over the publisher's SPT (the paper's router
//!   model) and sparse mode over a rendezvous point's; the publish
//!   pipeline costs whole batches with [`cost_events_into`];
//! * [`all_pairs_dists`] / [`alm_tree_cost`] — an application-level
//!   multicast overlay over the all-pairs distance table (extension; the
//!   paper notes its results apply to both flavors);
//! * [`FaultyRouting`] — link and node faults over an [`SptTable`], with
//!   lazily healed rows.
//!
//! The node-based textbook walks these reproduce bit for bit live in the
//! workspace's root `tests/` as the oracle, not here.
//!
//! # Example
//!
//! ```
//! use pubsub_netsim::{unicast_and_tree_cost, CostScratch, FlatNet, NodeId, SptTable, TransitStubConfig};
//!
//! # fn main() -> Result<(), pubsub_netsim::NetError> {
//! let topo = TransitStubConfig::riabov().generate(42)?;
//! let publisher = topo.transit_nodes()[0];
//! let table = SptTable::build(&FlatNet::compile(topo.graph()), &[publisher], None);
//! let spt = table.view(publisher).expect("built for the publisher");
//! let receivers: Vec<NodeId> = topo.stub_nodes().iter().take(10).copied().collect();
//! let cost = unicast_and_tree_cost(spt, &receivers, &mut CostScratch::new());
//! assert!(cost.tree <= cost.unicast); // sharing links never costs more
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
    cost_events_into, multicast_tree_cost_flat, sparse_mode_cost_flat, unicast_and_tree_cost,
    unicast_cost_flat, CostScratch, PairCost,
};
pub use shortest::all_pairs_dists;
pub use transit_stub::{NodeRole, StubInfo, Topology, TopologyStats, TransitStubConfig};
pub use waxman::WaxmanConfig;
