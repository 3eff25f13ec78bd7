//! The churn path: what [`crate::Broker::subscribe`] and
//! [`crate::Broker::unsubscribe`] do to the multicast groups between two
//! compiles.
//!
//! The partition is the one the last compile produced; churn never moves
//! a cell between groups. Each live subscription is stored once, in the
//! broker's [`SubscriptionRegistry`], and the churn path keeps only
//! `group_rc`, the (subscription, cell) incidences per (group, node): a
//! node is in `M_q` iff its count is positive, which keeps the groups
//! exact under the compiled partition. The first operation after a build
//! or recompile seeds the counts with one walk over the registry; each
//! operation then walks its own rectangle's cells once.

use pubsub_geom::{CellId, CellWalkBuf, Rect};
use pubsub_netsim::NodeId;

use crate::{EngineSnapshot, MulticastGroups, SubscriptionRegistry};

/// What the broker installs after one churn operation.
#[derive(Debug)]
pub(crate) enum ChurnStep {
    /// Group membership is unchanged.
    Unchanged,
    /// New groups under the same partition.
    Regroup(MulticastGroups),
    /// The drift threshold tripped: recompile the engine.
    Recompile,
}

/// The broker's churn counts since the last compile, created by the
/// first subscribe/unsubscribe after it; see the module docs.
#[derive(Debug)]
pub(crate) struct ChurnState {
    /// The builder's drift threshold: recompile once the operations
    /// since the compile exceed this fraction of the live subscriptions.
    recluster_fraction: f64,
    /// Per group: a dense node-indexed count of (subscription, cell)
    /// incidences in the group's region. Dense indexing keeps the per-op
    /// update O(cells intersected) with no hashing.
    group_rc: Vec<Vec<u32>>,
    /// Scratch of the per-operation cell walk.
    walk: CellWalkBuf,
    ops_since_compile: usize,
}

impl ChurnState {
    /// Counts every live subscription of `registry` under `snapshot`'s
    /// partition, with no churn counted yet.
    pub(crate) fn seed(
        registry: &SubscriptionRegistry,
        snapshot: &EngineSnapshot,
        recluster_fraction: f64,
    ) -> Self {
        let partition = &snapshot.partition;
        let mut group_rc = vec![vec![0u32; registry.node_capacity()]; partition.group_count()];
        let mut walk = CellWalkBuf::default();
        for (_, node, rect) in registry.live() {
            for cell in partition.grid().cell_runs(rect, &mut walk).flatten() {
                if let Some(q) = partition.group_of_cell(CellId(cell)) {
                    group_rc[q][node.0 as usize] += 1;
                }
            }
        }
        debug_assert_eq!(
            group_rc
                .iter()
                .map(|c| dense_members(c))
                .collect::<Vec<_>>(),
            (0..snapshot.groups.len())
                .map(|q| snapshot.groups.members(q).to_vec())
                .collect::<Vec<_>>(),
            "refcount-derived groups must equal compiled groups"
        );
        ChurnState {
            recluster_fraction,
            group_rc,
            walk,
            ops_since_compile: 0,
        }
    }

    /// Folds in one operation: `node`'s subscription `clamped` was just
    /// added (`added`) or removed, leaving `live` subscriptions. One walk
    /// of its cells updates the counts; then the drift threshold
    /// (operations since the compile > `recluster_fraction` × `live`)
    /// decides what the broker installs.
    ///
    /// # Panics
    ///
    /// Panics if a removal meets a group where `node` has no counted
    /// incidence: the subscription was never counted.
    pub(crate) fn apply(
        &mut self,
        node: NodeId,
        clamped: &Rect,
        added: bool,
        live: usize,
        snapshot: &EngineSnapshot,
    ) -> ChurnStep {
        let n = node.0 as usize;
        let partition = &snapshot.partition;
        let mut dirty: Vec<usize> = Vec::new();
        for cell in partition
            .grid()
            .cell_runs(clamped, &mut self.walk)
            .flatten()
        {
            let Some(q) = partition.group_of_cell(CellId(cell)) else {
                continue;
            };
            let rc = &mut self.group_rc[q][n];
            *rc = if added {
                *rc + 1
            } else {
                rc.checked_sub(1)
                    .unwrap_or_else(|| panic!("node {n} is not counted in group {q}"))
            };
            // The node joined `M_q` (count now 1) or left it (now 0).
            if *rc == u32::from(added) && !dirty.contains(&q) {
                dirty.push(q);
            }
        }
        self.ops_since_compile += 1;
        if self.ops_since_compile as f64 > self.recluster_fraction * live.max(1) as f64 {
            ChurnStep::Recompile
        } else if dirty.is_empty() {
            ChurnStep::Unchanged
        } else {
            ChurnStep::Regroup(self.regroup(&snapshot.groups, &dirty))
        }
    }

    /// `groups` with every `dirty` group re-derived from its counts.
    fn regroup(&self, groups: &MulticastGroups, dirty: &[usize]) -> MulticastGroups {
        MulticastGroups::from_members(
            (0..groups.len())
                .map(|q| {
                    if dirty.contains(&q) {
                        dense_members(&self.group_rc[q])
                    } else {
                        groups.members(q).to_vec()
                    }
                })
                .collect(),
        )
    }
}

/// The nodes with a positive count, ascending.
fn dense_members(counts: &[u32]) -> Vec<NodeId> {
    counts
        .iter()
        .enumerate()
        .filter(|&(_, &c)| c > 0)
        .map(|(n, _)| NodeId(n as u32))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Broker;
    use pubsub_geom::Space;
    use pubsub_netsim::TransitStubConfig;

    #[test]
    #[should_panic(expected = "not counted")]
    fn removing_an_uncounted_subscription_panics() {
        let topo = TransitStubConfig::tiny().generate(3).unwrap();
        let (subscriber, other) = (topo.stub_nodes()[0], topo.stub_nodes()[1]);
        let corner = Rect::from_corners(&[0.0, 0.0], &[2.0, 2.0]).unwrap();
        let space =
            Space::anonymous(Rect::from_corners(&[0.0, 0.0], &[10.0, 10.0]).unwrap()).unwrap();
        let broker = Broker::builder(topo, space)
            .subscription(subscriber, corner.clone())
            .build()
            .unwrap();
        let snapshot = broker.snapshot();
        let mut state = ChurnState::seed(broker.registry(), &snapshot, 0.5);
        state.apply(other, &corner, false, 0, &snapshot);
    }
}
