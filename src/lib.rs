//! Facade crate for the ICDCS 2003 content-based pub-sub reproduction.
//!
//! Re-exports the public API of every workspace crate so applications can
//! depend on a single crate:
//!
//! * [`geom`] — event-space geometry (points, half-open rectangles, grids);
//! * [`stree`] — the S-tree spatial index and the baseline indexes
//!   (packed R-tree, counting, Gryphon-style equality, linear scan);
//! * [`netsim`] — transit-stub network simulation and multicast cost models;
//! * [`workload`] — stock-market subscription/publication generators;
//! * [`clustering`] — grid-based subscription clustering (Forgy k-means,
//!   pairwise grouping, minimum spanning tree);
//! * [`parallel`] — the persistent worker pool and deterministic
//!   block-cyclic fan-out behind batched matching and publishing;
//! * [`core`] — the matcher, the dynamic distribution-method scheme and the
//!   end-to-end [`core::Broker`];
//! * [`server`] — the staged serving front-end (transport-in / pipeline /
//!   transport-out) with admission control and a TCP wire protocol.
//!
//! # Quickstart
//!
//! See `examples/quickstart.rs` for the ten-line happy path: generate a
//! topology and a workload, cluster subscriptions into multicast groups,
//! then publish events and let the broker decide unicast vs multicast.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub use pubsub_clustering as clustering;
pub use pubsub_core as core;
pub use pubsub_geom as geom;
pub use pubsub_netsim as netsim;
pub use pubsub_parallel as parallel;
pub use pubsub_server as server;
pub use pubsub_stree as stree;
pub use pubsub_workload as workload;

/// The types most applications touch, importable in one line:
/// `use pubsub::prelude::*;`.
pub mod prelude {
    pub use pubsub_clustering::{ClusteringAlgorithm, ClusteringConfig};
    pub use pubsub_core::{
        Broker, Decision, DeliveryMode, EventBuilder, Predicate, SubscriptionSpec,
    };
    pub use pubsub_geom::{Interval, Point, Rect, Space};
    pub use pubsub_netsim::{NodeId, TransitStubConfig};
    pub use pubsub_server::{ServingConfig, StagedServer};
    pub use pubsub_workload::{stock_space, Modes, SubscriptionConfig};
}
