//! Incremental group maintenance under subscription churn (extension).
//!
//! The paper takes the clustering as a static preprocessing step; its
//! related work (Wong/Katz/McCanne) stresses that production systems need
//! *initial + incremental* algorithms "to retain high quality in the
//! presence of ongoing and inevitable changes". This module provides that
//! incremental half:
//!
//! * subscription inserts/removals update per-(cell, subscriber)
//!   incidence counts (a subscriber leaves a cell's list `l(g)` only
//!   when its last covering subscription goes away);
//! * the partition is refreshed *locally*: surviving working-set cells
//!   keep their group, newly-hot cells join their closest group by the
//!   expected-waste distance, cooled-off cells drop to `S_0`.
//!
//! The clusterer stores no subscription: its owner keeps them and passes
//! each rectangle in on insert and again on remove. Nor does it
//! re-cluster from scratch: it starts from a partition computed by
//! [`crate::cluster`], takes the next one through
//! [`IncrementalClusterer::adopt_partition`], and leaves the decision
//! when to recompute to its owner. `pubsub_core::Broker` drives one from
//! its `subscribe`/`unsubscribe` path, folding its own per-group counts
//! into the same cell walk.

use pubsub_geom::{CellId, CellWalkBuf, Grid, Rect};

use crate::ew::GroupState;
use crate::{ClusterError, ClusteringConfig, GridModel, SpacePartition, SubscriberSet};

/// Maintains a [`SpacePartition`] under subscription churn.
///
/// # Example
///
/// ```
/// use pubsub_clustering::{
///     cluster, ClusteringAlgorithm, ClusteringConfig, GridModel, IncrementalClusterer,
/// };
/// use pubsub_geom::{Grid, Rect};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let grid = Grid::uniform(Rect::from_corners(&[0.0], &[10.0])?, 10)?;
/// let config = ClusteringConfig::new(ClusteringAlgorithm::ForgyKMeans, 2);
/// let subs = vec![
///     (0usize, Rect::from_corners(&[0.0], &[3.0])?),
///     (1usize, Rect::from_corners(&[6.0], &[10.0])?),
/// ];
/// // The static half: a model and a full clustering (4 subscribers).
/// let model = GridModel::build(grid, 4, &subs, |_r| 0.1)?;
/// let mut inc = IncrementalClusterer::new(&cluster(&model, &config)?, 4, &config);
/// for (s, r) in &subs {
///     inc.insert(*s, r, |_cell| {});
/// }
/// // Churn, then a local update that reads the masses from the model.
/// inc.insert(2, &Rect::from_corners(&[3.0], &[4.0])?, |_cell| {});
/// inc.remove(0, &subs[0].1, |_cell| {});
/// let partition = inc.partition(&model)?;
/// assert_eq!(partition.group_count(), 2);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct IncrementalClusterer {
    grid: Grid,
    subscriber_count: usize,
    /// Live subscriptions covering each (cell, subscriber) pair, laid out
    /// like [`GridModel::build_iter`]'s membership planes with a count in
    /// place of each bit: `counts[subscriber · cells + cell]`, so a run
    /// of cells is one contiguous slice.
    counts: Vec<u32>,
    /// Which counts are positive: the membership bits themselves, in the
    /// same planes (bit `s % 64` of `members[s / 64 · cells + cell]`), so
    /// a cell's list `l(g)` reads as ⌈subscribers / 64⌉ words.
    members: Vec<u64>,
    /// Per cell: how many subscribers have a positive count, `|l(g)|`.
    distinct: Vec<u32>,
    /// Scratch of the per-subscription cell walk in `insert`/`remove`.
    walk: CellWalkBuf,
    /// The working-set size `T` of the local update.
    max_cells: usize,
    /// Current clusters as cell lists.
    clusters: Vec<Vec<CellId>>,
}

impl IncrementalClusterer {
    /// Starts from `partition` with nothing counted, over subscriber
    /// indices `0..subscriber_count`. `config` supplies the working-set
    /// size of the local update.
    ///
    /// The count table is `cells × subscriber_count` `u32`s (plus one bit
    /// each) whatever the number of subscriptions.
    pub fn new(
        partition: &SpacePartition,
        subscriber_count: usize,
        config: &ClusteringConfig,
    ) -> Self {
        let grid = partition.grid().clone();
        let cells = grid.cell_count();
        IncrementalClusterer {
            counts: vec![0; cells * subscriber_count],
            members: vec![0; cells * subscriber_count.div_ceil(64)],
            distinct: vec![0; cells],
            grid,
            subscriber_count,
            walk: CellWalkBuf::default(),
            max_cells: config.max_cells(),
            clusters: clusters_of(partition),
        }
    }

    /// The subscriber-index capacity the clusterer was created with.
    pub fn subscriber_count(&self) -> usize {
        self.subscriber_count
    }

    /// Counts one subscription of `subscriber` in every cell its
    /// rectangle meets (clamped to the grid bounds), calling `on_cell`
    /// once per such cell: an owner with per-cell state of its own folds
    /// it into the same walk.
    ///
    /// # Panics
    ///
    /// Panics if `subscriber >= subscriber_count`. The rectangle must
    /// have the grid's dimensionality.
    pub fn insert(&mut self, subscriber: usize, rect: &Rect, mut on_cell: impl FnMut(CellId)) {
        let cells = self.grid.cell_count();
        let plane = &mut self.counts[subscriber * cells..][..cells];
        let bits = &mut self.members[subscriber / 64 * cells..][..cells];
        let bit = 1u64 << (subscriber % 64);
        for cell in self.grid.cell_runs(rect, &mut self.walk).flatten() {
            if plane[cell] == 0 {
                self.distinct[cell] += 1;
                bits[cell] |= bit;
            }
            plane[cell] += 1;
            on_cell(CellId(cell));
        }
    }

    /// Uncounts one subscription of `subscriber` from every cell its
    /// rectangle meets, calling `on_cell` once per such cell, as
    /// [`IncrementalClusterer::insert`] does.
    ///
    /// # Panics
    ///
    /// Panics if `subscriber >= subscriber_count`, or if the rectangle
    /// meets a cell where `subscriber` has no live subscription (it was
    /// never inserted, or was removed already).
    pub fn remove(&mut self, subscriber: usize, rect: &Rect, mut on_cell: impl FnMut(CellId)) {
        let cells = self.grid.cell_count();
        let plane = &mut self.counts[subscriber * cells..][..cells];
        let bits = &mut self.members[subscriber / 64 * cells..][..cells];
        let bit = 1u64 << (subscriber % 64);
        for cell in self.grid.cell_runs(rect, &mut self.walk).flatten() {
            let count = &mut plane[cell];
            assert!(
                *count > 0,
                "subscriber {subscriber} is not counted in cell {cell}"
            );
            *count -= 1;
            if *count == 0 {
                self.distinct[cell] -= 1;
                bits[cell] &= !bit;
            }
            on_cell(CellId(cell));
        }
    }

    /// Adopts an externally computed partition as the current clustering,
    /// the baseline later local updates refine. The core broker calls
    /// this after each full engine recompile, so the clusterer and the
    /// compiled engine agree on the group layout.
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
        self.clusters = clusters_of(partition);
        Ok(())
    }

    /// Iterates `(subscriber, live-subscription count)` pairs of one
    /// cell, ascending by subscriber, skipping zero counts.
    pub fn cell_refcounts(&self, cell: CellId) -> impl Iterator<Item = (usize, u32)> + '_ {
        let cells = self.grid.cell_count();
        self.cell_members(cell)
            .enumerate()
            .flat_map(|(w, word)| {
                (0..64)
                    .filter(move |b| word & (1 << b) != 0)
                    .map(move |b| w * 64 + b)
            })
            .map(move |s| (s, self.counts[s * cells + cell.0]))
    }

    /// The membership words of one cell, one per 64 subscribers.
    fn cell_members(&self, cell: CellId) -> impl Iterator<Item = u64> + '_ {
        self.members
            .iter()
            .skip(cell.0)
            .step_by(self.grid.cell_count())
            .copied()
    }

    /// The `t` heaviest non-empty cells by `mass · |members|`, decreasing,
    /// ties toward lower ids — identical selection to
    /// [`GridModel::top_cells`], computed from the distinct-subscriber
    /// counts without materializing membership sets.
    fn top_cells(&self, masses: &GridModel, t: usize) -> Vec<CellId> {
        let weight = |c: CellId| masses.mass(c) * self.distinct[c.0] as f64;
        let cmp =
            |&a: &CellId, &b: &CellId| weight(b).total_cmp(&weight(a)).then_with(|| a.cmp(&b));
        let mut cells: Vec<CellId> = (0..self.grid.cell_count())
            .map(CellId)
            .filter(|&c| self.distinct[c.0] > 0)
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

    /// `masses`' grid and masses with membership sets materialized only
    /// for `cells`; every other cell reads as empty. Sound only when the
    /// consumer inspects no cell outside `cells` (the local update).
    fn sparse_model(&self, masses: &GridModel, cells: &[CellId]) -> GridModel {
        // Untouched cells get zero-capacity sets: no per-cell bitset
        // allocation, and `is_empty()` still reads correctly.
        let mut members: Vec<SubscriberSet> = (0..self.grid.cell_count())
            .map(|_| SubscriberSet::new(0))
            .collect();
        for &c in cells {
            let words = self.cell_members(c).collect();
            members[c.0] = SubscriberSet::from_words(words, self.subscriber_count);
        }
        masses.with_sparse_members(self.subscriber_count, members)
    }

    /// Refreshes the partition locally and returns it: surviving
    /// working-set cells keep their groups, new cells join the group with
    /// the smallest expected-waste increase, departed cells fall back to
    /// `S_0`. The group count never changes.
    ///
    /// `masses` supplies the publication mass `p_p(g)` of each cell: a
    /// model over the same grid and density, such as the one the current
    /// partition was clustered from (its memberships are not read).
    ///
    /// # Errors
    ///
    /// Returns [`ClusterError::InvalidConfig`] if `masses`' grid does not
    /// match this clusterer's grid.
    pub fn partition(&mut self, masses: &GridModel) -> Result<SpacePartition, ClusterError> {
        if masses.grid().cell_count() != self.grid.cell_count() {
            return Err(ClusterError::InvalidConfig {
                parameter: "masses",
                constraint: "model grid must match the clusterer grid",
            });
        }
        // The working set is selected straight from the counts (same
        // weight, same ordering as `GridModel::top_cells`) and the model
        // materializes membership sets only for the cells the update
        // inspects — the working set plus the current cluster cells — so
        // the refresh costs O(cells + working set × subscribers), not
        // the total incidence count.
        let working: Vec<CellId> = self.top_cells(masses, self.max_cells);
        let touched: Vec<CellId> = working
            .iter()
            .copied()
            .chain(self.clusters.iter().flatten().copied())
            .collect();
        let model = self.sparse_model(masses, &touched);
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
        SpacePartition::from_clusters(self.grid.clone(), &self.clusters)
    }
}

/// A partition's groups as cell lists.
fn clusters_of(partition: &SpacePartition) -> Vec<Vec<CellId>> {
    (0..partition.group_count())
        .map(|q| partition.cells_of_group(q))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{cluster, ClusteringAlgorithm};
    use pubsub_geom::Point;

    fn rect(lo: f64, hi: f64) -> Rect {
        Rect::from_corners(&[lo], &[hi]).unwrap()
    }

    fn grid() -> Grid {
        Grid::uniform(rect(0.0, 10.0), 10).unwrap()
    }

    /// A clusterer over 8 subscribers, started from a full `n`-group
    /// clustering of `subs` with every one of them counted, and the
    /// model that clustering ran on (uniform mass 0.1 per cell).
    fn clustered(subs: &[(usize, Rect)], n: usize) -> (IncrementalClusterer, GridModel) {
        let config = ClusteringConfig::new(ClusteringAlgorithm::ForgyKMeans, n);
        let model = GridModel::build(grid(), 8, subs, |_| 0.1).unwrap();
        let mut inc = IncrementalClusterer::new(&cluster(&model, &config).unwrap(), 8, &config);
        for (s, r) in subs {
            inc.insert(*s, r, |_| {});
        }
        (inc, model)
    }

    fn cell_at(x: f64) -> CellId {
        grid().cell_of_point(&Point::new(vec![x]).unwrap()).unwrap()
    }

    fn counts(inc: &IncrementalClusterer, x: f64) -> Vec<(usize, u32)> {
        inc.cell_refcounts(cell_at(x)).collect()
    }

    #[test]
    fn insert_remove_roundtrip_restores_model() {
        let (mut inc, _) = clustered(&[], 2);
        let mut walked = Vec::new();
        inc.insert(3, &rect(2.0, 5.0), |c| walked.push(c));
        assert_eq!(walked, (2..5).map(CellId).collect::<Vec<_>>());
        assert_eq!(counts(&inc, 3.0), vec![(3, 1)]);
        assert_eq!(inc.distinct[cell_at(3.0).0], 1);
        walked.clear();
        inc.remove(3, &rect(2.0, 5.0), |c| walked.push(c));
        assert_eq!(walked.len(), 3, "remove walks the same cells");
        // Every count returns to zero.
        assert!(inc.counts.iter().all(|&c| c == 0));
        assert!(inc.members.iter().all(|&w| w == 0));
        assert!(inc.distinct.iter().all(|&d| d == 0));
    }

    #[test]
    fn refcounts_keep_overlapping_subscriptions_alive() {
        let (mut inc, _) = clustered(&[(0, rect(0.0, 5.0)), (0, rect(3.0, 6.0))], 2);
        inc.remove(0, &rect(0.0, 5.0), |_| {});
        // Cells in (3,5] are still covered by the second subscription.
        assert_eq!(counts(&inc, 4.0), vec![(0, 1)]);
        // Cells only under the removed one are now empty.
        assert!(counts(&inc, 1.0).is_empty());
        assert_eq!(inc.distinct[cell_at(1.0).0], 0);
    }

    #[test]
    #[should_panic(expected = "not counted")]
    fn removing_an_uncounted_subscription_panics() {
        let (mut inc, _) = clustered(&[(0, rect(0.0, 2.0))], 2);
        inc.remove(0, &rect(0.0, 5.0), |_| {});
    }

    #[test]
    fn new_hot_cells_join_existing_groups_locally() {
        let mut subs: Vec<(usize, Rect)> = (0..3).map(|s| (s, rect(0.0, 3.0))).collect();
        subs.extend((3..6).map(|s| (s, rect(7.0, 10.0))));
        let (mut inc, model) = clustered(&subs, 2);
        let before = cluster(
            &model,
            &ClusteringConfig::new(ClusteringAlgorithm::ForgyKMeans, 2),
        )
        .unwrap();
        // A new subscriber lights up fresh cells near the first camp.
        inc.insert(6, &rect(3.0, 4.0), |_| {});
        let after = inc.partition(&model).unwrap();
        assert_eq!(after.group_count(), before.group_count());
        assert!(after.assigned_cell_count() > before.assigned_cell_count());
        // The new cell (3,4] is assigned to some group, not S0.
        assert!(after.group_of_cell(cell_at(3.5)).is_some());
        // Surviving cells keep their group.
        for x in [0.5, 1.5, 2.5, 7.5, 8.5, 9.5] {
            let c = cell_at(x);
            assert_eq!(after.group_of_cell(c), before.group_of_cell(c));
        }
    }

    #[test]
    fn errors() {
        let (mut inc, model) = clustered(&[(0, rect(0.0, 4.0))], 2);
        let other_grid = Grid::uniform(rect(0.0, 10.0), 3).unwrap();
        let bad = SpacePartition::from_clusters(other_grid.clone(), &[vec![CellId(0)]]).unwrap();
        assert!(inc.adopt_partition(&bad).is_err());
        let bad_masses = GridModel::build(other_grid, 8, &[], |_| 0.1).unwrap();
        assert!(inc.partition(&bad_masses).is_err());
        assert!(inc.partition(&model).is_ok());
    }

    #[test]
    fn adopt_partition_seeds_local_updates() {
        let subs: Vec<(usize, Rect)> = (0..4).map(|s| (s, rect(0.0, 4.0))).collect();
        let (mut inc, model) = clustered(&subs, 2);
        // Adopt a partition of a different population over the same grid.
        let mut others = subs.clone();
        others.extend((4..8).map(|s| (s, rect(6.0, 10.0))));
        let external = cluster(
            &GridModel::build(grid(), 8, &others, |_| 0.1).unwrap(),
            &ClusteringConfig::new(ClusteringAlgorithm::ForgyKMeans, 2),
        )
        .unwrap();
        inc.adopt_partition(&external).unwrap();
        // The next refresh starts from the adopted clusters: cells this
        // clusterer never counted fall back to S0, counted ones keep the
        // adopted group.
        inc.insert(0, &rect(1.0, 2.0), |_| {});
        let p = inc.partition(&model).unwrap();
        assert_eq!(p.group_count(), external.group_count());
        assert_eq!(p.group_of_cell(cell_at(8.5)), None);
        for x in [0.5, 1.5, 2.5, 3.5] {
            let c = cell_at(x);
            assert_eq!(p.group_of_cell(c), external.group_of_cell(c));
        }
    }

    #[test]
    fn cell_refcounts_expose_live_membership() {
        let (mut inc, _) = clustered(&[(3, rect(2.0, 5.0)), (3, rect(2.0, 3.0))], 2);
        inc.insert(5, &rect(2.0, 3.0), |_| {});
        assert_eq!(
            counts(&inc, 2.5),
            vec![(3, 2), (5, 1)],
            "ascending by subscriber"
        );
        inc.remove(3, &rect(2.0, 5.0), |_| {});
        assert_eq!(counts(&inc, 2.5), vec![(3, 1), (5, 1)]);
        assert_eq!(inc.distinct[cell_at(2.5).0], 2);
    }

    #[test]
    fn local_partition_matches_full_cluster_membership_semantics() {
        // After a local update the partition must still be a valid
        // disjoint assignment of working-set cells.
        let subs: Vec<(usize, Rect)> = (0..8)
            .map(|s| (s, rect(s as f64, s as f64 + 2.0)))
            .collect();
        let (mut inc, model) = clustered(&subs, 3);
        inc.insert(0, &rect(8.0, 9.0), |_| {});
        let p = inc.partition(&model).unwrap();
        let mut seen = std::collections::HashSet::new();
        for q in 0..p.group_count() {
            for c in p.cells_of_group(q) {
                assert!(seen.insert(c), "cell {c:?} in two groups");
                assert!(inc.distinct[c.0] > 0, "cell {c:?} has no subscriber");
            }
        }
    }
}
