//! Incremental group maintenance under subscription churn (extension).
//!
//! The paper takes the clustering as a static preprocessing step; its
//! related work (Wong/Katz/McCanne) stresses that production systems need
//! *initial + incremental* algorithms "to retain high quality in the
//! presence of ongoing and inevitable changes". This module provides that
//! incremental half:
//!
//! * subscription inserts/removals update per-cell membership
//!   *refcounts* (a subscriber leaves a cell's list `l(g)` only when its
//!   last covering subscription goes away);
//! * the partition is refreshed *locally*: surviving working-set cells
//!   keep their group, newly-hot cells join their closest group by the
//!   expected-waste distance, cooled-off cells drop to `S_0`;
//! * after enough churn accumulates, a full re-clustering runs to undo
//!   drift (threshold configurable).
//!
//! This is no longer an unwired island: `pubsub_core::Broker` drives an
//! `IncrementalClusterer` from its `subscribe`/`unsubscribe` path — every
//! registry change is mirrored here, periodic local refreshes rebuild the
//! broker's multicast groups from the refcounted memberships
//! ([`IncrementalClusterer::cell_refcounts`]), and
//! [`IncrementalClusterer::needs_full_recluster`] is the drift trigger for
//! a full engine-snapshot recompile (after which the broker hands the
//! freshly compiled partition back via
//! [`IncrementalClusterer::adopt_partition`]).

use std::collections::HashMap;
use std::fmt;

use pubsub_geom::{CellId, CellWalkBuf, Grid, Rect};
use serde::{Deserialize, Serialize};

use crate::ew::GroupState;
use crate::{cluster, ClusterError, ClusteringConfig, GridModel, SpacePartition, SubscriberSet};

/// Handle identifying one inserted subscription (for later removal).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Serialize, Deserialize)]
pub struct SubscriptionHandle(u64);

impl fmt::Display for SubscriptionHandle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "handle#{}", self.0)
    }
}

/// Counters describing how the clusterer has been maintaining itself.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default, Serialize, Deserialize)]
pub struct MaintenanceStats {
    /// Full re-clusterings performed.
    pub full_reclusters: usize,
    /// Local (assign-new-cells-only) refreshes performed.
    pub local_updates: usize,
    /// Inserts since construction.
    pub inserts: u64,
    /// Removals since construction.
    pub removals: u64,
}

/// Maintains a [`SpacePartition`] under subscription churn.
///
/// # Example
///
/// ```
/// use pubsub_clustering::{
///     ClusteringAlgorithm, ClusteringConfig, IncrementalClusterer,
/// };
/// use pubsub_geom::{Grid, Rect};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let grid = Grid::uniform(Rect::from_corners(&[0.0], &[10.0])?, 10)?;
/// let mut inc = IncrementalClusterer::new(
///     grid,
///     4, // subscribers
///     |_r| 0.1,
///     ClusteringConfig::new(ClusteringAlgorithm::ForgyKMeans, 2),
///     0.5, // full re-cluster after 50% churn
/// )?;
/// let h = inc.insert(0, Rect::from_corners(&[0.0], &[3.0])?)?;
/// inc.insert(1, Rect::from_corners(&[6.0], &[10.0])?)?;
/// let partition = inc.partition()?;
/// assert!(partition.group_count() >= 1);
/// inc.remove(h)?;
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct IncrementalClusterer {
    grid: Grid,
    subscriber_count: usize,
    masses: Vec<f64>,
    /// Per cell: subscriber -> number of covering live subscriptions.
    refcounts: Vec<HashMap<usize, u32>>,
    subscriptions: HashMap<SubscriptionHandle, (usize, Rect)>,
    /// Scratch of the per-subscription cell walk in `insert`/`remove`.
    walk: CellWalkBuf,
    next_handle: u64,
    config: ClusteringConfig,
    /// Current clusters as cell lists (empty until first `partition()`).
    clusters: Vec<Vec<CellId>>,
    have_clustered: bool,
    /// Churn since the last full re-cluster, as a count of subscription
    /// changes.
    churn: usize,
    /// Full re-cluster when `churn > recluster_fraction * live_subs`.
    recluster_fraction: f64,
    stats: MaintenanceStats,
}

impl IncrementalClusterer {
    /// Creates an empty incremental clusterer.
    ///
    /// `density` is evaluated once per cell (publication behaviour is
    /// assumed stationary; re-create the clusterer if it changes).
    ///
    /// # Errors
    ///
    /// Returns [`ClusterError::InvalidDensity`] for negative/non-finite
    /// masses and [`ClusterError::InvalidConfig`] for a non-positive
    /// `recluster_fraction`.
    pub fn new<F>(
        grid: Grid,
        subscriber_count: usize,
        density: F,
        config: ClusteringConfig,
        recluster_fraction: f64,
    ) -> Result<Self, ClusterError>
    where
        F: Fn(&Rect) -> f64,
    {
        if !(recluster_fraction > 0.0 && recluster_fraction.is_finite()) {
            return Err(ClusterError::InvalidConfig {
                parameter: "recluster_fraction",
                constraint: "0 < fraction < inf",
            });
        }
        let mut masses = Vec::with_capacity(grid.cell_count());
        for i in 0..grid.cell_count() {
            let m = density(&grid.cell_rect(CellId(i)));
            if !(m >= 0.0 && m.is_finite()) {
                return Err(ClusterError::InvalidDensity {
                    value: m.to_string(),
                });
            }
            masses.push(m);
        }
        Ok(IncrementalClusterer {
            refcounts: vec![HashMap::new(); grid.cell_count()],
            grid,
            subscriber_count,
            masses,
            subscriptions: HashMap::new(),
            walk: CellWalkBuf::default(),
            next_handle: 0,
            config,
            clusters: Vec::new(),
            have_clustered: false,
            churn: 0,
            recluster_fraction,
            stats: MaintenanceStats::default(),
        })
    }

    /// The subscriber-index capacity the clusterer was created with.
    pub fn subscriber_count(&self) -> usize {
        self.subscriber_count
    }

    /// Registers a subscription; returns the handle used to remove it.
    ///
    /// # Errors
    ///
    /// * [`ClusterError::SubscriberOutOfRange`] for a bad subscriber
    ///   index;
    /// * [`ClusterError::DimensionMismatch`] for a rectangle of the wrong
    ///   dimensionality.
    pub fn insert(
        &mut self,
        subscriber: usize,
        rect: Rect,
    ) -> Result<SubscriptionHandle, ClusterError> {
        if subscriber >= self.subscriber_count {
            return Err(ClusterError::SubscriberOutOfRange {
                subscriber,
                count: self.subscriber_count,
            });
        }
        if rect.dims() != self.grid.dims() {
            return Err(ClusterError::DimensionMismatch {
                expected: self.grid.dims(),
                got: rect.dims(),
            });
        }
        let clamped = rect.clamp_to(self.grid.bounds());
        for cell in self.grid.cell_runs(&clamped, &mut self.walk).flatten() {
            *self.refcounts[cell].entry(subscriber).or_insert(0) += 1;
        }
        let handle = SubscriptionHandle(self.next_handle);
        self.next_handle += 1;
        self.subscriptions.insert(handle, (subscriber, clamped));
        self.churn += 1;
        self.stats.inserts += 1;
        Ok(handle)
    }

    /// Removes a previously inserted subscription.
    ///
    /// # Errors
    ///
    /// Returns [`ClusterError::InvalidConfig`] for an unknown handle.
    pub fn remove(&mut self, handle: SubscriptionHandle) -> Result<(), ClusterError> {
        let (subscriber, rect) =
            self.subscriptions
                .remove(&handle)
                .ok_or(ClusterError::InvalidConfig {
                    parameter: "handle",
                    constraint: "handle must refer to a live subscription",
                })?;
        for cell in self.grid.cell_runs(&rect, &mut self.walk).flatten() {
            if let Some(count) = self.refcounts[cell].get_mut(&subscriber) {
                *count -= 1;
                if *count == 0 {
                    self.refcounts[cell].remove(&subscriber);
                }
            }
        }
        self.churn += 1;
        self.stats.removals += 1;
        Ok(())
    }

    /// Number of live subscriptions.
    pub fn len(&self) -> usize {
        self.subscriptions.len()
    }

    /// `true` if no subscriptions are registered.
    pub fn is_empty(&self) -> bool {
        self.subscriptions.is_empty()
    }

    /// Maintenance counters.
    pub fn stats(&self) -> MaintenanceStats {
        self.stats
    }

    /// `true` if the next [`IncrementalClusterer::partition`] call would
    /// run a full re-cluster (drift threshold exceeded, or never
    /// clustered).
    ///
    /// Owners that rebuild the whole engine on re-cluster (the core
    /// broker) use this as their recompile trigger instead of calling
    /// `partition` and discovering the rebuild after the fact.
    pub fn needs_full_recluster(&self) -> bool {
        let live = self.subscriptions.len().max(1);
        !self.have_clustered || self.churn as f64 > self.recluster_fraction * live as f64
    }

    /// Churn accumulated since the last full re-cluster (or adoption).
    pub fn churn(&self) -> usize {
        self.churn
    }

    /// Adopts an externally computed partition as the current clustering
    /// state, resetting accumulated churn.
    ///
    /// The core broker calls this after a full engine recompile: the
    /// freshly compiled [`SpacePartition`] becomes the baseline that
    /// subsequent local updates refine, so the clusterer and the compiled
    /// engine agree on the group layout.
    ///
    /// # Errors
    ///
    /// Returns [`ClusterError::InvalidConfig`] if the partition's grid
    /// does not match this clusterer's grid.
    pub fn adopt_partition(&mut self, partition: &SpacePartition) -> Result<(), ClusterError> {
        if partition.grid().cell_count() != self.grid.cell_count()
            || partition.grid().dims() != self.grid.dims()
        {
            return Err(ClusterError::InvalidConfig {
                parameter: "partition",
                constraint: "partition grid must match the clusterer grid",
            });
        }
        self.clusters = (0..partition.group_count())
            .map(|q| partition.cells_of_group(q))
            .collect();
        self.have_clustered = true;
        self.churn = 0;
        Ok(())
    }

    /// Iterates `(subscriber, live-subscription count)` pairs for one
    /// cell's refcounted membership (arbitrary order).
    ///
    /// This is the raw form of what [`IncrementalClusterer::model`]
    /// aggregates into [`SubscriberSet`]s; the core broker reads it to
    /// rebuild per-group member lists without materializing a full model.
    pub fn cell_refcounts(&self, cell: CellId) -> impl Iterator<Item = (usize, u32)> + '_ {
        self.refcounts[cell.0].iter().map(|(&s, &c)| (s, c))
    }

    /// The `t` heaviest non-empty cells by `mass · |members|`, decreasing,
    /// ties toward lower ids — identical selection to
    /// [`GridModel::top_cells`], computed from the refcounts without
    /// materializing membership sets.
    fn top_cells_from_refcounts(&self, t: usize) -> Vec<CellId> {
        let weight = |c: CellId| self.masses[c.0] * self.refcounts[c.0].len() as f64;
        let cmp =
            |&a: &CellId, &b: &CellId| weight(b).total_cmp(&weight(a)).then_with(|| a.cmp(&b));
        let mut cells: Vec<CellId> = (0..self.grid.cell_count())
            .map(CellId)
            .filter(|&c| !self.refcounts[c.0].is_empty())
            .collect();
        // The comparator is a total order, so selecting the top `t` and
        // sorting just those yields the same prefix as a full sort.
        if t == 0 {
            return Vec::new();
        }
        if cells.len() > t {
            cells.select_nth_unstable_by(t - 1, cmp);
            cells.truncate(t);
        }
        cells.sort_unstable_by(cmp);
        cells
    }

    /// A [`GridModel`] whose membership sets are materialized only for
    /// `cells`; every other cell reads as empty. Sound only when the
    /// consumer inspects no cell outside `cells` (the local-update path).
    fn sparse_model(&self, cells: &[CellId]) -> GridModel {
        // Untouched cells get zero-capacity sets: no per-cell bitset
        // allocation, and `is_empty()` still reads correctly. Only the
        // listed cells materialize full-width membership.
        let mut members: Vec<SubscriberSet> = (0..self.grid.cell_count())
            .map(|_| SubscriberSet::new(0))
            .collect();
        for &c in cells {
            let mut set = SubscriberSet::new(self.subscriber_count);
            for &s in self.refcounts[c.0].keys() {
                set.insert(s);
            }
            members[c.0] = set;
        }
        GridModel::from_parts_sparse(
            self.grid.clone(),
            self.subscriber_count,
            self.masses.clone(),
            members,
        )
    }

    /// Builds the current [`GridModel`] from the refcounted memberships.
    pub fn model(&self) -> GridModel {
        let members: Vec<SubscriberSet> = self
            .refcounts
            .iter()
            .map(|counts| {
                let mut set = SubscriberSet::new(self.subscriber_count);
                for &s in counts.keys() {
                    set.insert(s);
                }
                set
            })
            .collect();
        GridModel::from_parts(
            self.grid.clone(),
            self.subscriber_count,
            self.masses.clone(),
            members,
        )
        .expect("parts are constructed consistently")
    }

    /// Returns the current partition, refreshing it first:
    ///
    /// * a **full re-cluster** on the first call and whenever accumulated
    ///   churn exceeds `recluster_fraction · live_subscriptions`;
    /// * otherwise a **local update** — surviving working-set cells keep
    ///   their groups, new cells join the group with the smallest
    ///   expected-waste increase, departed cells fall back to `S_0`.
    ///
    /// # Errors
    ///
    /// Propagates clustering configuration errors.
    pub fn partition(&mut self) -> Result<SpacePartition, ClusterError> {
        let live = self.subscriptions.len().max(1);
        let need_full =
            !self.have_clustered || self.churn as f64 > self.recluster_fraction * live as f64;
        if need_full {
            let model = self.model();
            let partition = cluster(&model, &self.config)?;
            self.clusters = (0..partition.group_count())
                .map(|q| partition.cells_of_group(q))
                .collect();
            self.have_clustered = true;
            self.churn = 0;
            self.stats.full_reclusters += 1;
            return Ok(partition);
        }

        // Local update. The working set is selected straight from the
        // refcounts (same weight, same ordering as `GridModel::top_cells`)
        // and the model materializes membership sets only for the cells
        // the update actually inspects — the working set plus the current
        // cluster cells — instead of filling every grid cell. This keeps
        // the refresh cost proportional to the working set, not to the
        // total (cell, subscriber) incidence count.
        let working: Vec<CellId> = self.top_cells_from_refcounts(self.config.max_cells());
        let touched: Vec<CellId> = working
            .iter()
            .copied()
            .chain(self.clusters.iter().flatten().copied())
            .collect();
        let model = self.sparse_model(&touched);
        let mut working_sorted = working.clone();
        working_sorted.sort_unstable();
        let in_working = |c: CellId| working_sorted.binary_search(&c).is_ok();

        // Keep surviving cells; drop departed ones.
        let mut assigned: Vec<CellId> = Vec::new();
        for cells in &mut self.clusters {
            cells.retain(|&c| in_working(c) && !model.members(c).is_empty());
            assigned.extend_from_slice(cells);
        }
        assigned.sort_unstable();
        // Assign new working-set cells to the closest group.
        let mut groups: Vec<GroupState> = self
            .clusters
            .iter()
            .map(|cells| GroupState::from_cells(&model, cells))
            .collect();
        for &cell in &working {
            if assigned.binary_search(&cell).is_ok() {
                continue;
            }
            // Prefer non-empty groups; an empty group adopts the cell only
            // when every group is empty.
            let mut best: Option<(usize, f64)> = None;
            for (q, g) in groups.iter().enumerate() {
                if g.is_empty() {
                    continue;
                }
                let d = g.distance_to(&model, cell);
                if best.is_none_or(|(_, bd)| d < bd) {
                    best = Some((q, d));
                }
            }
            let q = best
                .map(|(q, _)| q)
                .or_else(|| (!groups.is_empty()).then_some(0));
            if let Some(q) = q {
                groups[q].add(&model, cell);
                self.clusters[q].push(cell);
            }
        }
        self.stats.local_updates += 1;
        SpacePartition::from_clusters(self.grid.clone(), &self.clusters)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ClusteringAlgorithm;
    use pubsub_geom::Point;

    fn clusterer(n: usize) -> IncrementalClusterer {
        let grid = Grid::uniform(Rect::from_corners(&[0.0], &[10.0]).unwrap(), 10).unwrap();
        IncrementalClusterer::new(
            grid,
            8,
            |_| 0.1,
            ClusteringConfig::new(ClusteringAlgorithm::ForgyKMeans, n),
            0.5,
        )
        .unwrap()
    }

    fn rect(lo: f64, hi: f64) -> Rect {
        Rect::from_corners(&[lo], &[hi]).unwrap()
    }

    #[test]
    fn insert_remove_roundtrip_restores_model() {
        let mut inc = clusterer(2);
        let baseline = inc.model();
        let h = inc.insert(3, rect(2.0, 5.0)).unwrap();
        assert_eq!(inc.len(), 1);
        let with = inc.model();
        assert!(with
            .members(
                with.grid()
                    .cell_of_point(&Point::new(vec![3.0]).unwrap())
                    .unwrap()
            )
            .contains(3));
        inc.remove(h).unwrap();
        assert!(inc.is_empty());
        // Memberships return to the baseline (all empty).
        for i in 0..baseline.grid().cell_count() {
            assert!(inc.model().members(CellId(i)).is_empty());
        }
    }

    #[test]
    fn refcounts_keep_overlapping_subscriptions_alive() {
        let mut inc = clusterer(2);
        let h1 = inc.insert(0, rect(0.0, 5.0)).unwrap();
        let _h2 = inc.insert(0, rect(3.0, 6.0)).unwrap();
        inc.remove(h1).unwrap();
        // Cells in (3,5] are still covered by the second subscription.
        let model = inc.model();
        let cell = model
            .grid()
            .cell_of_point(&Point::new(vec![4.0]).unwrap())
            .unwrap();
        assert!(model.members(cell).contains(0));
        // Cells only under the removed one are now empty.
        let cell2 = model
            .grid()
            .cell_of_point(&Point::new(vec![1.0]).unwrap())
            .unwrap();
        assert!(!model.members(cell2).contains(0));
    }

    #[test]
    fn first_partition_is_full_then_local() {
        let mut inc = clusterer(2);
        for s in 0..4usize {
            inc.insert(s, rect(0.0, 4.0)).unwrap();
        }
        for s in 4..8usize {
            inc.insert(s, rect(6.0, 10.0)).unwrap();
        }
        let p1 = inc.partition().unwrap();
        assert_eq!(inc.stats().full_reclusters, 1);
        assert!(p1.group_count() >= 1);

        // One small change: refresh is local.
        inc.insert(0, rect(1.0, 2.0)).unwrap();
        let _ = inc.partition().unwrap();
        assert_eq!(inc.stats().full_reclusters, 1);
        assert_eq!(inc.stats().local_updates, 1);
    }

    #[test]
    fn heavy_churn_triggers_full_recluster() {
        let mut inc = clusterer(2);
        let handles: Vec<_> = (0..8usize)
            .map(|s| inc.insert(s, rect(0.0, 10.0)).unwrap())
            .collect();
        inc.partition().unwrap();
        // Replace most of the population.
        for h in handles.into_iter().take(6) {
            inc.remove(h).unwrap();
        }
        for s in 0..6usize {
            inc.insert(s, rect(5.0, 10.0)).unwrap();
        }
        inc.partition().unwrap();
        assert!(inc.stats().full_reclusters >= 2, "{:?}", inc.stats());
    }

    #[test]
    fn new_hot_cells_join_existing_groups_locally() {
        let mut inc = clusterer(2);
        for s in 0..3usize {
            inc.insert(s, rect(0.0, 3.0)).unwrap();
        }
        for s in 3..6usize {
            inc.insert(s, rect(7.0, 10.0)).unwrap();
        }
        let p1 = inc.partition().unwrap();
        let before = p1.assigned_cell_count();
        // A new subscriber lights up fresh cells near the first camp.
        inc.insert(6, rect(3.0, 4.0)).unwrap();
        let p2 = inc.partition().unwrap();
        assert_eq!(inc.stats().local_updates, 1);
        assert!(p2.assigned_cell_count() >= before);
        // The new cell (3,4] is assigned to some group, not S0.
        let cell = inc
            .grid
            .cell_of_point(&Point::new(vec![3.5]).unwrap())
            .unwrap();
        assert!(p2.group_of_cell(cell).is_some());
    }

    #[test]
    fn errors() {
        let mut inc = clusterer(2);
        assert!(matches!(
            inc.insert(99, rect(0.0, 1.0)),
            Err(ClusterError::SubscriberOutOfRange { .. })
        ));
        assert!(matches!(
            inc.insert(0, Rect::from_corners(&[0.0, 0.0], &[1.0, 1.0]).unwrap()),
            Err(ClusterError::DimensionMismatch { .. })
        ));
        assert!(inc.remove(SubscriptionHandle(123)).is_err());
        let grid = Grid::uniform(Rect::from_corners(&[0.0], &[1.0]).unwrap(), 2).unwrap();
        assert!(IncrementalClusterer::new(
            grid.clone(),
            1,
            |_| 0.1,
            ClusteringConfig::new(ClusteringAlgorithm::ForgyKMeans, 1),
            0.0
        )
        .is_err());
        assert!(IncrementalClusterer::new(
            grid,
            1,
            |_| -1.0,
            ClusteringConfig::new(ClusteringAlgorithm::ForgyKMeans, 1),
            0.5
        )
        .is_err());
    }

    #[test]
    fn adopt_partition_resets_drift_and_seeds_local_updates() {
        let mut inc = clusterer(2);
        assert!(inc.needs_full_recluster(), "fresh clusterer must recluster");
        for s in 0..4usize {
            inc.insert(s, rect(0.0, 4.0)).unwrap();
        }
        // Adopt an externally computed partition over the same grid.
        let external = {
            let mut other = clusterer(2);
            for s in 0..4usize {
                other.insert(s, rect(0.0, 4.0)).unwrap();
            }
            other.partition().unwrap()
        };
        inc.adopt_partition(&external).unwrap();
        assert!(!inc.needs_full_recluster());
        assert_eq!(inc.churn(), 0);

        // The next refresh is local and starts from the adopted clusters.
        inc.insert(0, rect(1.0, 2.0)).unwrap();
        let p = inc.partition().unwrap();
        assert_eq!(inc.stats().full_reclusters, 0);
        assert_eq!(inc.stats().local_updates, 1);
        assert_eq!(p.group_count(), external.group_count());

        // Mismatched grid is rejected.
        let other_grid = Grid::uniform(Rect::from_corners(&[0.0], &[10.0]).unwrap(), 3).unwrap();
        let bad = SpacePartition::from_clusters(other_grid, &[vec![CellId(0)]]).unwrap();
        assert!(inc.adopt_partition(&bad).is_err());
    }

    #[test]
    fn cell_refcounts_expose_live_membership() {
        let mut inc = clusterer(2);
        let h = inc.insert(3, rect(2.0, 5.0)).unwrap();
        inc.insert(3, rect(2.0, 3.0)).unwrap();
        let cell = inc
            .grid
            .cell_of_point(&Point::new(vec![2.5]).unwrap())
            .unwrap();
        let counts: Vec<(usize, u32)> = inc.cell_refcounts(cell).collect();
        assert_eq!(counts, vec![(3, 2)], "two covering subscriptions");
        inc.remove(h).unwrap();
        let counts: Vec<(usize, u32)> = inc.cell_refcounts(cell).collect();
        assert_eq!(counts, vec![(3, 1)]);
    }

    #[test]
    fn local_partition_matches_full_cluster_membership_semantics() {
        // After a local update the partition must still be a valid
        // disjoint assignment of working-set cells.
        let mut inc = clusterer(3);
        for s in 0..8usize {
            inc.insert(s, rect(s as f64, s as f64 + 2.0)).unwrap();
        }
        inc.partition().unwrap();
        inc.insert(0, rect(8.0, 9.0)).unwrap();
        let p = inc.partition().unwrap();
        let mut seen = std::collections::HashSet::new();
        for q in 0..p.group_count() {
            for c in p.cells_of_group(q) {
                assert!(seen.insert(c), "cell {c:?} in two groups");
            }
        }
    }
}
