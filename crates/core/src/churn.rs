//! The churn path: what [`crate::Broker::subscribe`] and
//! [`crate::Broker::unsubscribe`] do to the multicast groups and the
//! partition between two compiles.
//!
//! Each live subscription is stored once, in the broker's
//! [`SubscriptionRegistry`]; the churn path seeds two count tables from
//! it on the first operation and keeps nothing else:
//!
//! * an [`IncrementalClusterer`]'s `cells × nodes` table of live
//!   subscriptions per (cell, node), read by the local partition refresh
//!   every `local_refresh_every` operations;
//! * `group_rc`, the (subscription, cell) incidences per (group, node): a
//!   node is in `M_q` iff its count is positive, which keeps the groups
//!   exact under the current partition.
//!
//! One walk of an operation's rectangle over the grid updates both.

use pubsub_clustering::{ClusterError, ClusteringConfig, IncrementalClusterer, SpacePartition};
use pubsub_geom::{CellId, Rect};
use pubsub_netsim::NodeId;

use crate::{EngineSnapshot, MulticastGroups, SubscriptionRegistry};

/// When churn recompiles and when it refreshes the partition: the
/// builder's `recluster_fraction` and `local_refresh_every`.
#[derive(Clone, Copy, Debug)]
pub(crate) struct ChurnPolicy {
    pub(crate) recluster_fraction: f64,
    pub(crate) local_refresh_every: usize,
}

/// What the broker installs after one churn operation.
#[derive(Debug)]
pub(crate) enum ChurnStep {
    /// Group membership is unchanged.
    Unchanged,
    /// New groups, and after a local refresh a new partition.
    Regroup {
        partition: Option<SpacePartition>,
        groups: MulticastGroups,
    },
    /// The drift threshold tripped: recompile the engine.
    Recompile,
}

/// The broker's churn machinery, created on the first
/// subscribe/unsubscribe; see the module docs.
#[derive(Debug)]
pub(crate) struct ChurnState {
    policy: ChurnPolicy,
    clusterer: IncrementalClusterer,
    /// Per group: a dense node-indexed count of (subscription, cell)
    /// incidences in the group's region. Dense indexing keeps the per-op
    /// update O(cells intersected) with no hashing.
    group_rc: Vec<Vec<u32>>,
    ops_since_compile: usize,
    ops_since_refresh: usize,
}

impl ChurnState {
    /// Counts every live subscription of `registry` and syncs to
    /// `snapshot`'s partition, with no churn counted yet.
    pub(crate) fn seed(
        registry: &SubscriptionRegistry,
        snapshot: &EngineSnapshot,
        clustering: &ClusteringConfig,
        policy: ChurnPolicy,
    ) -> Self {
        let mut clusterer =
            IncrementalClusterer::new(&snapshot.partition, registry.node_capacity(), clustering);
        for (_, node, rect) in registry.live() {
            clusterer.insert(node.0 as usize, rect, |_| {});
        }
        let mut state = ChurnState {
            clusterer,
            policy,
            group_rc: Vec::new(),
            ops_since_compile: 0,
            ops_since_refresh: 0,
        };
        state.adopt(snapshot);
        state
    }

    /// Folds in one operation: `node`'s subscription `clamped` was just
    /// added (`added`) or removed, leaving `live` subscriptions. One walk
    /// of its cells updates both count tables; then the drift threshold
    /// (operations since the compile > `recluster_fraction` × `live`)
    /// and the refresh cadence decide what the broker installs.
    ///
    /// # Errors
    ///
    /// Propagates a failed local refresh.
    pub(crate) fn apply(
        &mut self,
        node: NodeId,
        clamped: &Rect,
        added: bool,
        live: usize,
        snapshot: &EngineSnapshot,
    ) -> Result<ChurnStep, ClusterError> {
        let n = node.0 as usize;
        let partition = &snapshot.partition;
        let group_rc = &mut self.group_rc;
        let mut dirty: Vec<usize> = Vec::new();
        let on_cell = |cell| {
            let Some(q) = partition.group_of_cell(cell) else {
                return;
            };
            let rc = &mut group_rc[q][n];
            if added {
                *rc += 1;
            } else {
                *rc -= 1;
            }
            // The node joined `M_q` (count now 1) or left it (now 0).
            if *rc == u32::from(added) {
                mark(&mut dirty, q);
            }
        };
        if added {
            self.clusterer.insert(n, clamped, on_cell);
        } else {
            self.clusterer.remove(n, clamped, on_cell);
        }
        self.ops_since_compile += 1;
        if self.ops_since_compile as f64 > self.policy.recluster_fraction * live.max(1) as f64 {
            return Ok(ChurnStep::Recompile);
        }
        self.ops_since_refresh += 1;
        if self.ops_since_refresh >= self.policy.local_refresh_every {
            // The counts already include this op; its dirty set rides
            // along so its membership delta lands even when no cell
            // moves between groups.
            return self.local_refresh(dirty, snapshot);
        }
        if dirty.is_empty() {
            return Ok(ChurnStep::Unchanged);
        }
        Ok(ChurnStep::Regroup {
            partition: None,
            groups: self.regroup(&snapshot.groups, &dirty),
        })
    }

    /// Re-bases on a freshly compiled snapshot: adopts its partition,
    /// rebuilds the group counts under it and zeroes the churn since the
    /// compile.
    pub(crate) fn adopt(&mut self, snapshot: &EngineSnapshot) {
        self.ops_since_compile = 0;
        self.ops_since_refresh = 0;
        self.clusterer
            .adopt_partition(&snapshot.partition)
            .expect("clusterer grid matches the compiled grid");
        self.group_rc = rebuild_group_rc(&self.clusterer, &snapshot.partition);
        debug_assert_eq!(
            self.group_rc
                .iter()
                .map(|c| dense_members(c))
                .collect::<Vec<_>>(),
            (0..snapshot.groups.len())
                .map(|q| snapshot.groups.members(q).to_vec())
                .collect::<Vec<_>>(),
            "refcount-derived groups must equal compiled groups"
        );
    }

    /// Runs the clusterer's local update and re-derives the groups under
    /// the refreshed partition. A local update keeps the group count and
    /// the group of every surviving cell, so per-group threshold
    /// overrides stay valid. `dirty` holds the groups whose members must
    /// be re-derived — the caller's pending membership delta — and is
    /// extended with every group a cell moved into or out of.
    ///
    /// The counts are updated by *diffing* the partitions — only cells
    /// that changed groups move their counts — so the refresh costs
    /// O(cells + moved-cell incidences), not a full rebuild.
    fn local_refresh(
        &mut self,
        mut dirty: Vec<usize>,
        snapshot: &EngineSnapshot,
    ) -> Result<ChurnStep, ClusterError> {
        let old = &snapshot.partition;
        let partition = self.clusterer.partition(&snapshot.grid_model)?;
        for i in 0..partition.grid().cell_count() {
            let cell = CellId(i);
            let (old_q, new_q) = (old.group_of_cell(cell), partition.group_of_cell(cell));
            if old_q == new_q {
                continue;
            }
            let counts: Vec<(usize, u32)> = self.clusterer.cell_refcounts(cell).collect();
            if let Some(q) = old_q {
                mark(&mut dirty, q);
                for &(s, c) in &counts {
                    self.group_rc[q][s] -= c;
                }
            }
            if let Some(q) = new_q {
                mark(&mut dirty, q);
                for &(s, c) in &counts {
                    self.group_rc[q][s] += c;
                }
            }
        }
        debug_assert_eq!(
            self.group_rc,
            rebuild_group_rc(&self.clusterer, &partition),
            "diffed refcounts must equal a full rebuild"
        );
        self.ops_since_refresh = 0;
        Ok(ChurnStep::Regroup {
            partition: Some(partition),
            groups: self.regroup(&snapshot.groups, &dirty),
        })
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

/// Adds group `q` to the dirty list once.
fn mark(dirty: &mut Vec<usize>, q: usize) {
    if !dirty.contains(&q) {
        dirty.push(q);
    }
}

/// Derives per-(group, node) incidence counts from the clusterer's
/// per-cell counts under `partition`. Each group's counts are dense,
/// indexed by node id (the clusterer's subscriber index).
fn rebuild_group_rc(clusterer: &IncrementalClusterer, partition: &SpacePartition) -> Vec<Vec<u32>> {
    let width = clusterer.subscriber_count();
    let mut rc: Vec<Vec<u32>> = vec![vec![0; width]; partition.group_count()];
    for (q, counts) in rc.iter_mut().enumerate() {
        for cell in partition.cells_of_group(q) {
            for (subscriber, count) in clusterer.cell_refcounts(cell) {
                counts[subscriber] += count;
            }
        }
    }
    rc
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
