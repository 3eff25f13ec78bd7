//! The churn path: what [`crate::Broker::subscribe`] and
//! [`crate::Broker::unsubscribe`] do to the multicast groups between two
//! compiles.
//!
//! The partition is the one the last compile produced; churn never moves
//! a cell between groups. Each live subscription is stored once, in the
//! broker's [`crate::SubscriptionRegistry`], and the churn path keeps only
//! `group_rc`, the (subscription, cell) incidences per (group, node): a
//! node is in `M_q` iff its count is positive, which keeps the groups
//! exact under the compiled partition. The first operation after a build
//! or recompile seeds the counts with one walk per distinct compiled
//! rectangle; each operation then walks its own rectangle's cells once.

use pubsub_geom::{CellId, CellWalkBuf, Rect};
use pubsub_netsim::NodeId;

use crate::{EngineSnapshot, MulticastGroups, SubscriptionId};

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
    /// Counts every live subscription under `snapshot`'s partition, with
    /// no churn counted yet; `node_capacity` is the registry's.
    ///
    /// The counts come from the compiled covering table, which equals the
    /// registry until the first churn operation edits the matcher — and
    /// the broker seeds before that edit. Each group (one distinct
    /// rectangle) is walked once: its number of cells in partition group
    /// `q` is added to `group_rc[q]` for every member, the same integer a
    /// walk per subscription would reach.
    pub(crate) fn seed(
        snapshot: &EngineSnapshot,
        node_capacity: usize,
        recluster_fraction: f64,
    ) -> Self {
        let partition = &snapshot.partition;
        let grid = partition.grid();
        let mut group_rc = vec![vec![0u32; node_capacity]; partition.group_count()];
        let mut walk = CellWalkBuf::default();
        // Reused per group: its rectangle and its cell count per
        // partition group.
        let mut rect = grid.bounds().clone();
        let mut cells_in = vec![0u32; partition.group_count()];
        for (run, sides) in snapshot.matcher.covering().groups() {
            for (d, side) in sides.enumerate() {
                rect.set_side(d, side);
            }
            for cell in grid.cell_runs(&rect, &mut walk).flatten() {
                if let Some(q) = partition.group_of_cell(CellId(cell)) {
                    cells_in[q] += 1;
                }
            }
            for (counts, cells) in group_rc.iter_mut().zip(&mut cells_in) {
                if *cells > 0 {
                    for &id in run {
                        counts[snapshot.matcher.owner(SubscriptionId(id)).0 as usize] += *cells;
                    }
                    *cells = 0;
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
    use crate::{Broker, CoveringConfig, SubscriptionRegistry};
    use pubsub_geom::{Interval, Space};
    use pubsub_netsim::TransitStubConfig;

    /// The seed as one walk per live subscription of the registry: the
    /// oracle of the per-group seed.
    fn seed_per_subscription(
        registry: &SubscriptionRegistry,
        snapshot: &EngineSnapshot,
    ) -> Vec<Vec<u32>> {
        let partition = &snapshot.partition;
        let mut group_rc = vec![vec![0u32; registry.node_capacity()]; partition.group_count()];
        let mut walk = CellWalkBuf::default();
        for (_, node, sides) in registry.live() {
            let rect = Rect::new(sides.to_vec()).unwrap();
            for cell in partition.grid().cell_runs(&rect, &mut walk).flatten() {
                if let Some(q) = partition.group_of_cell(CellId(cell)) {
                    group_rc[q][node.0 as usize] += 1;
                }
            }
        }
        group_rc
    }

    #[test]
    fn per_group_seed_equals_the_per_subscription_walk() {
        let topo = TransitStubConfig::tiny().generate(5).unwrap();
        let nodes = topo.stub_nodes().to_vec();
        let space =
            Space::anonymous(Rect::from_corners(&[0.0, 0.0], &[10.0, 10.0]).unwrap()).unwrap();
        let rect = |lo: [f64; 2], hi: [f64; 2]| Rect::from_corners(&lo, &hi).unwrap();
        // Duplicated rectangles on nodes 0..4 (cover candidates, one
        // unbounded), and one-off rectangles on nodes 4..8: nested ones
        // (subsumed), a near-identical pair (merged under `merge_cells`)
        // and one wholly outside the space.
        let heavy = [
            rect([1.0, 1.0], [6.0, 6.0]),
            Rect::new(vec![Interval::at_least(7.5), Interval::unbounded()]).unwrap(),
            rect([-3.0, 4.0], [0.5, 9.5]),
        ];
        let light = [
            rect([2.0, 2.0], [3.0, 3.0]),
            rect([2.5, 1.5], [5.5, 3.05]),
            rect([0.6, 8.5], [0.9, 9.5]),
            rect([0.6, 8.5], [0.92, 9.52]),
            rect([12.0, -5.0], [20.0, -1.0]),
        ];
        let subs: Vec<(NodeId, Rect)> = (0..90)
            .map(|i| (nodes[i % 4], heavy[i % heavy.len()].clone()))
            .chain((0..light.len()).map(|i| (nodes[4 + i % 4], light[i].clone())))
            .collect();
        for merge_cells in [0, 8] {
            let broker = Broker::builder(topo.clone(), space.clone())
                .covering(CoveringConfig {
                    merge_cells,
                    ..CoveringConfig::default()
                })
                .grid_cells(6)
                .subscriptions(subs.clone())
                .build()
                .unwrap();
            let stats = broker.covering_stats().unwrap();
            assert!(stats.subsumed > 0 && (merge_cells == 0 || stats.merged > 0));
            let snapshot = broker.snapshot();
            let state = ChurnState::seed(&snapshot, broker.registry().node_capacity(), 0.5);
            assert_eq!(
                state.group_rc,
                seed_per_subscription(broker.registry(), &snapshot),
                "merge_cells {merge_cells}"
            );
        }
    }

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
        let mut state = ChurnState::seed(&snapshot, broker.topology().graph().node_count(), 0.5);
        state.apply(other, &corner, false, 0, &snapshot);
    }
}
