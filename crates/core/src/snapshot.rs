//! The engine half of the two-layer broker core: one compiled engine
//! snapshot.
//!
//! An [`EngineSnapshot`] bundles everything the publish path reads —
//! the compiled [`Matcher`] (covering table + slab bitmaps), the clustering
//! [`GridModel`], the [`SpacePartition`] and the materialized
//! [`MulticastGroups`] — behind one epoch number. The [`crate::Broker`]
//! swaps the bundle (`Arc` replacement) whenever the clustering side
//! changes: a full recompile bumps the epoch and replaces everything; a
//! churn-driven group update bumps the epoch and replaces only the
//! groups `Arc`, sharing the rest. Subscribe and unsubscribe
//! edit the matcher and the id → handle map in place under the same
//! epoch, copy-on-write (`Arc::make_mut`), so a snapshot or outcome
//! someone else holds never changes. Epoch-keyed caches (the scheme-cost
//! memo) invalidate themselves by comparing epochs instead of being
//! told: nothing they cache depends on the matcher.

use std::sync::Arc;

use pubsub_clustering::{GridModel, SpacePartition};

use crate::{Matcher, MulticastGroups, SubscriptionHandle, SubscriptionId};

/// One epoch-versioned compilation of the engine state the publish path
/// reads. Obtained from [`crate::Broker::snapshot`]; all fields are
/// shared (`Arc`), so cloning a snapshot is cheap, and the broker edits
/// copy-on-write, so a clone stays valid (if stale) across later broker
/// mutations.
#[derive(Debug, Clone)]
pub struct EngineSnapshot {
    pub(crate) epoch: u64,
    pub(crate) matcher: Arc<Matcher>,
    pub(crate) grid_model: Arc<GridModel>,
    pub(crate) partition: Arc<SpacePartition>,
    pub(crate) groups: Arc<MulticastGroups>,
    /// [`SubscriptionId`] → registry handle, in id order: the compiled
    /// ids, then one per subscribe since. Removed ids keep their entry.
    pub(crate) id_to_handle: Arc<Vec<SubscriptionHandle>>,
}

impl EngineSnapshot {
    /// The snapshot's version. Strictly increases on every swap; two
    /// snapshots with the same epoch share their partition, groups and
    /// grid model, while churn edits the matcher copy-on-write under
    /// one epoch.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The matcher: the last compile plus the churn since.
    pub fn matcher(&self) -> &Matcher {
        &self.matcher
    }

    /// The grid model the partition was clustered from. Between full
    /// recompiles this is the model of the *last compile*: churn-driven
    /// group updates keep the groups exact but do not rebuild the model.
    pub fn grid_model(&self) -> &GridModel {
        &self.grid_model
    }

    /// The event-space partition `S_1..S_n` (+ implicit `S_0`).
    pub fn partition(&self) -> &SpacePartition {
        &self.partition
    }

    /// The multicast groups `M_1..M_n`.
    pub fn groups(&self) -> &MulticastGroups {
        &self.groups
    }

    /// The registry handle subscription id `id` was bound to (`None` for
    /// an id never handed out). A removed subscription keeps its entry;
    /// [`crate::Broker::handle_of`] filters those.
    pub fn handle_of(&self, id: SubscriptionId) -> Option<SubscriptionHandle> {
        self.id_to_handle.get(id.0 as usize).copied()
    }

    /// Number of subscriptions the last compile numbered; ids at or past
    /// it were subscribed since.
    pub fn compiled_count(&self) -> usize {
        self.matcher.covering_stats().concrete
    }
}
