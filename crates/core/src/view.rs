//! The shared read path of the concurrent pipeline stage.
//!
//! The broker's publish path splits into two halves with very different
//! concurrency needs:
//!
//! * the **fused pass** (match → cost → decide) only *reads*: the
//!   epoch-versioned [`EngineSnapshot`], the distribution policy, the
//!   churn overlay, and the publisher's shortest-path-tree rows;
//! * the **fold** *mutates*: the scheme-cost memo, the cumulative f64
//!   cost report, fault health/clock state.
//!
//! [`PublishView`] materializes the first half as an owned, immutable
//! value: `Broker::publish_view` snapshots everything the pass reads
//! (Arc-sharing the engine snapshot, cloning the small mutable bits —
//! overlay, SPT rows, policy) so any number of serving executor threads
//! can run `PublishView::process_into` concurrently without touching
//! the broker, while the broker-owning fold thread consumes their
//! scratches in submission order via `Broker::fold_staged`. The view is
//! epoch-stamped; the staged server republishes it through a
//! `pubsub_parallel::VersionedCell` exactly when a control operation
//! (subscribe / unsubscribe / recompile) lands — the epoch barrier that
//! keeps in-flight batches on their submission-time engine state.
//!
//! Memoized scheme costs and fault health deliberately stay on the fold
//! side rather than being sharded into the view: the fused pass only
//! ever computes per-event unicast/ideal costs (pure functions of the
//! SPT rows), and every state the fallback ladder reads — memo rows,
//! hysteresis counters, the fault step clock — is keyed by publisher
//! and mutated in publish order, which the in-order fold preserves and
//! concurrent executors could not.

use std::fmt;
use std::sync::Arc;

use pubsub_geom::{EventSoA, Point};
use pubsub_netsim::{NodeId, SptTable};
use pubsub_stree::{DeltaOverlay, Tombstones};

use crate::broker::{DeliveryMode, FusedPass};
use crate::matcher::MatchOverlay;
use crate::pipeline::PublishScratch;
use crate::{BrokerError, DistributionPolicy, EngineSnapshot};

/// An owned clone of the broker's churn overlay, so a [`PublishView`]
/// can outlive the broker borrow it was built from. Rebuilt on every
/// view publication (i.e. per control operation, not per batch).
#[derive(Clone, Debug)]
pub(crate) struct OwnedOverlay {
    pub(crate) overlay: DeltaOverlay,
    pub(crate) tombstones: Tombstones,
    pub(crate) owners: Vec<NodeId>,
    pub(crate) base_count: u32,
    pub(crate) max_node: u32,
}

/// Everything the fused match → cost → decide pass reads, owned and
/// immutable — the shared read path of the concurrent pipeline stage.
/// Built by `Broker::publish_view`; see the module docs for the
/// read/write split.
pub struct PublishView {
    pub(crate) snapshot: Arc<EngineSnapshot>,
    pub(crate) policy: DistributionPolicy,
    pub(crate) delivery: DeliveryMode,
    pub(crate) publisher: NodeId,
    pub(crate) alm_dist: Option<Vec<Vec<f64>>>,
    pub(crate) overlay: Option<OwnedOverlay>,
    /// Cloned SPT rows; always contains the publisher's row (and the
    /// rendezvous point's in sparse mode) — `publish_view` ensures them
    /// before cloning.
    pub(crate) spt: SptTable,
    pub(crate) epoch: u64,
    pub(crate) dims: usize,
    pub(crate) faults_active: bool,
}

impl fmt::Debug for PublishView {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("PublishView")
            .field("epoch", &self.epoch)
            .field("publisher", &self.publisher)
            .field("delivery", &self.delivery)
            .field("dims", &self.dims)
            .field("overlaid", &self.overlay.is_some())
            .field("faults_active", &self.faults_active)
            .finish_non_exhaustive()
    }
}

impl PublishView {
    /// The engine-snapshot epoch this view was built at — the epoch
    /// every batch processed through it must be folded under.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Dimensionality of the event space.
    pub fn dims(&self) -> usize {
        self.dims
    }

    /// Whether a fault plan was installed on the source broker. The
    /// fused pass is fault-oblivious (the fault clock is fold-side,
    /// per-event state); a staged server must route batches through the
    /// broker's own segmented fault path instead of this view while a
    /// plan is active.
    pub fn faults_active(&self) -> bool {
        self.faults_active
    }

    /// Runs the fused match → cost → decide pass over `events` into
    /// `scratch` (reset first) — the read half of the broker's publish
    /// core, the very pass a synchronous single-worker
    /// `Broker::publish_batch` runs. When `soa` is given it must
    /// mirror `events` (same coordinates in append order); the SIMD
    /// blocks then fill from its columns without transposing.
    ///
    /// Read-only and reentrant: any number of threads may process
    /// batches through the same view concurrently, each with its own
    /// scratch. Fold the scratch into the broker with
    /// `Broker::fold_staged` in submission order, under this view's
    /// [`PublishView::epoch`] — the scratch holds covering-run indices
    /// of this view's snapshot, and the fold's epoch check is what
    /// guarantees they are resolved against the same covering table.
    ///
    /// # Errors
    ///
    /// [`BrokerError::DimensionMismatch`] if any event's dimensionality
    /// differs from the event space's — the whole batch rejects before
    /// anything is processed, matching `Broker::publish_batch`.
    pub fn process_into(
        &self,
        events: &[Point],
        soa: Option<&EventSoA>,
        scratch: &mut PublishScratch,
    ) -> Result<(), BrokerError> {
        for event in events {
            if event.dims() != self.dims {
                return Err(BrokerError::DimensionMismatch {
                    expected: self.dims,
                    got: event.dims(),
                });
            }
        }
        debug_assert!(soa.is_none_or(|s| s.len() == events.len() && s.dims() == self.dims));
        let overlay = self.overlay.as_ref().map(|o| MatchOverlay {
            overlay: &o.overlay,
            owners: &o.owners,
            tombstones: &o.tombstones,
            base_count: o.base_count,
            max_node: o.max_node,
        });
        let pass = FusedPass::bind(
            &self.snapshot,
            &self.policy,
            self.delivery,
            self.publisher,
            self.alm_dist.as_deref(),
            overlay,
            &self.spt,
            false,
            events,
            soa,
        );
        pubsub_parallel::pipeline_inline(scratch, events.len(), |_w, state, ranges| {
            pass.run(state, ranges)
        });
        Ok(())
    }
}
