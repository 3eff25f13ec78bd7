//! The content-based pub-sub core: everything the paper's two dynamic
//! problems need, glued into an end-to-end [`Broker`].
//!
//! * **Matching** (§3) — [`Matcher`] answers "which subscribers are
//!   interested in event `ω`?" by ANDing per-dimension slab bitmaps
//!   over the covering layer's representatives and deciding each
//!   candidate exactly (the paper's S-tree stays in `pubsub_stree`,
//!   measured beside it), deduplicating subscriptions into subscriber
//!   nodes.
//! * **Multicast groups** (§4) — [`MulticastGroups`] materializes
//!   `M_q = {v : ∃ b ∩ S_q ≠ ∅}` from a clustering
//!   [`pubsub_clustering::SpacePartition`].
//! * **Distribution method** (§4) — [`DistributionPolicy`] makes the
//!   per-message decision: drop when nobody matched, unicast when the
//!   event falls in the catch-all region `S_0` or when the interested
//!   fraction `|s|/|M_q|` is below the threshold `t`, multicast to `M_q`
//!   otherwise; [`DistributionPolicy::cost_exact`] instead multicasts iff
//!   the group send costs less than unicasting the interested set.
//! * **Cost accounting** (§5.2) — every publication is costed three ways
//!   (scheme / pure unicast / ideal per-message multicast) so the paper's
//!   "improvement percentage" scale (0% = unicast, 100% = ideal) can be
//!   reported directly from a [`CostReport`].
//! * **Live churn** — the broker is split into a mutable
//!   [`SubscriptionRegistry`] (stable [`SubscriptionHandle`]s) and an
//!   epoch-versioned [`EngineSnapshot`]; `subscribe` / `unsubscribe`
//!   edit the snapshot's matcher in place, copy-on-write, until drift
//!   triggers a full recompile. See [`Broker::subscribe`].
//!
//! # Example
//!
//! ```
//! use pubsub_core::Broker;
//! use pubsub_clustering::{ClusteringAlgorithm, ClusteringConfig};
//! use pubsub_geom::{Point, Rect, Space};
//! use pubsub_netsim::TransitStubConfig;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let topo = TransitStubConfig::tiny().generate(1)?;
//! let space = Space::anonymous(Rect::from_corners(&[0.0, 0.0], &[10.0, 10.0])?)?;
//! let node = topo.stub_nodes()[0];
//! let mut broker = Broker::builder(topo, space)
//!     .subscription(node, Rect::from_corners(&[0.0, 0.0], &[5.0, 5.0])?)
//!     .clustering(ClusteringConfig::new(ClusteringAlgorithm::ForgyKMeans, 2))
//!     .threshold(0.15)
//!     .build()?;
//! let outcome = broker.publish(&Point::new(vec![2.0, 2.0])?)?;
//! assert_eq!(outcome.interested, vec![node]);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]
#![deny(missing_debug_implementations)]

mod broker;
mod churn;
mod covering;
mod distribution;
mod error;
mod event;
mod groups;
mod journal;
mod matcher;
mod metrics;
mod pipeline;
mod registry;
mod slab;
mod snapshot;
mod spec;

pub use broker::{Broker, BrokerBuilder, DeliveryMode, GroupHealth, PublishOutcome};
pub use covering::{CoveringConfig, CoveringStats, CoveringTable, MatchedSet, SubscriptionStream};
pub use distribution::{Decision, DistributionPolicy, UnicastReason};
pub use error::BrokerError;
pub use event::EventBuilder;
pub use groups::MulticastGroups;
pub use journal::{
    crc32, DurableJournal, JournalConfig, JournalOp, JournalReplay, JournalStats, RegistryImage,
};
pub use matcher::{MatchScratch, Matcher, SubscriptionId};
pub use metrics::{
    ChurnCounters, CostReport, Delivery, MessageCosts, MetricsSnapshot, PipelineCounters,
    RecoveryCounters,
};
pub use pipeline::{BatchMatches, MatchArena, PublishScratch};
pub use registry::{SubscriptionHandle, SubscriptionRegistry};
pub use snapshot::EngineSnapshot;
pub use spec::{Predicate, SubscriptionSpec};
