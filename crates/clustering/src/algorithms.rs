//! The clustering algorithms (Appendix A.2–A.3) and the top-level driver.

use pubsub_geom::CellId;

use crate::ew::{fold_from, merge_distance, GroupState};
use crate::{ClusterError, GridModel, SpacePartition};

/// Which subscription clustering algorithm to run.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum ClusteringAlgorithm {
    /// The appendix's k-means on grid cells with immediate reassignment —
    /// the paper's best performer in both quality and running time.
    ForgyKMeans,
    /// Classic batch (Lloyd-style) k-means: assignments computed against
    /// frozen group state, one update per sweep. The "K-means" companion
    /// algorithm of \[15\].
    BatchKMeans,
    /// Agglomerative pairwise grouping: repeatedly merge the closest pair
    /// of clusters until `n` remain. Best quality in some settings, worst
    /// running time.
    PairwiseGrouping,
    /// Single-linkage via a minimum spanning tree: all pairwise distances
    /// computed once, edges added in increasing order until exactly `n`
    /// connected components remain.
    MinimumSpanningTree,
}

impl ClusteringAlgorithm {
    /// All algorithms, in paper order.
    pub const ALL: [ClusteringAlgorithm; 4] = [
        ClusteringAlgorithm::ForgyKMeans,
        ClusteringAlgorithm::BatchKMeans,
        ClusteringAlgorithm::PairwiseGrouping,
        ClusteringAlgorithm::MinimumSpanningTree,
    ];
}

impl std::fmt::Display for ClusteringAlgorithm {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let name = match self {
            ClusteringAlgorithm::ForgyKMeans => "forgy-kmeans",
            ClusteringAlgorithm::BatchKMeans => "batch-kmeans",
            ClusteringAlgorithm::PairwiseGrouping => "pairwise-grouping",
            ClusteringAlgorithm::MinimumSpanningTree => "minimum-spanning-tree",
        };
        f.write_str(name)
    }
}

/// Configuration of a clustering run. The paper caps both the working set
/// and the k-means iterations at `T = 200`.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct ClusteringConfig {
    algorithm: ClusteringAlgorithm,
    groups: usize,
    max_cells: usize,
    max_iterations: usize,
}

impl ClusteringConfig {
    /// Creates a configuration with the paper's defaults (`T = 200` cells,
    /// 200 iterations).
    pub fn new(algorithm: ClusteringAlgorithm, groups: usize) -> Self {
        ClusteringConfig {
            algorithm,
            groups,
            max_cells: 200,
            max_iterations: 200,
        }
    }

    /// Overrides the working-set size `T`.
    pub fn with_max_cells(mut self, max_cells: usize) -> Self {
        self.max_cells = max_cells;
        self
    }

    /// Overrides the k-means iteration cap.
    pub fn with_max_iterations(mut self, max_iterations: usize) -> Self {
        self.max_iterations = max_iterations;
        self
    }

    /// The algorithm to run.
    pub fn algorithm(&self) -> ClusteringAlgorithm {
        self.algorithm
    }

    /// The requested number of groups `n`.
    pub fn groups(&self) -> usize {
        self.groups
    }

    /// The iteration cap.
    pub fn max_iterations(&self) -> usize {
        self.max_iterations
    }

    fn validate(&self) -> Result<(), ClusterError> {
        if self.groups == 0 {
            return Err(ClusterError::InvalidConfig {
                parameter: "groups",
                constraint: ">= 1",
            });
        }
        if self.max_cells == 0 {
            return Err(ClusterError::InvalidConfig {
                parameter: "max_cells",
                constraint: ">= 1",
            });
        }
        if self.max_iterations == 0 {
            return Err(ClusterError::InvalidConfig {
                parameter: "max_iterations",
                constraint: ">= 1",
            });
        }
        Ok(())
    }
}

/// Runs the configured clustering algorithm over the model's `T` heaviest
/// cells and returns the resulting space partition.
///
/// If fewer than `n` populated cells exist, the partition has one group
/// per populated cell (possibly zero groups for an empty model).
///
/// # Errors
///
/// Returns [`ClusterError::InvalidConfig`] for zero groups, cells or
/// iterations.
pub fn cluster(
    model: &GridModel,
    config: &ClusteringConfig,
) -> Result<SpacePartition, ClusterError> {
    config.validate()?;
    let h = model.top_cells(config.max_cells);
    let n = config.groups.min(h.len());
    let clusters: Vec<Vec<CellId>> = if n == 0 {
        Vec::new()
    } else {
        match config.algorithm {
            ClusteringAlgorithm::ForgyKMeans => kmeans(model, &h, n, config.max_iterations, true),
            ClusteringAlgorithm::BatchKMeans => kmeans(model, &h, n, config.max_iterations, false),
            ClusteringAlgorithm::PairwiseGrouping => pairwise(model, &h, n),
            ClusteringAlgorithm::MinimumSpanningTree => mst(model, &h, n),
        }
    };
    SpacePartition::from_clusters(model.grid().clone(), &clusters)
}

/// The clustering objective, computed *exactly*: the expected number of
/// wasted deliveries per published message under static multicast,
///
/// ```text
/// Σ_q Σ_{g ∈ S_q} p(g) · ( |l(S_q)| − |l(g)| )
/// ```
///
/// — an event landing in cell `g` of group `q` is delivered to all of
/// `M_q`, wasting one delivery per member not interested in `g`. Events
/// in `S_0` are unicast and waste nothing.
///
/// Note this is the quantity the paper's recursive EW *approximates* as a
/// greedy merge distance; the recursion's `(1 + |l(x)\l(G)|)` multiplier
/// compounds across insertions, so recursive EW values of large groups
/// grow without bound and are not comparable across partitions — use this
/// exact form to evaluate clustering quality.
pub fn expected_waste(model: &GridModel, partition: &SpacePartition) -> f64 {
    let mut total = 0.0;
    let mut words = Vec::new();
    for q in 0..partition.group_count() {
        let cells = partition.cells_of_group(q);
        let sized = cells.iter().map(|&c| (c, model.members(c).len()));
        let group_size = fold_from(model, None, sized, &mut words).count() as f64;
        for cell in cells {
            total += model.mass(cell) * (group_size - model.members(cell).len() as f64);
        }
    }
    total
}

/// K-means on cells (Appendix A.2). `immediate` selects the paper's Forgy
/// variant (groups updated after every move); otherwise assignments are
/// computed against frozen group state and applied once per sweep.
fn kmeans(
    model: &GridModel,
    h: &[CellId],
    n: usize,
    max_iterations: usize,
    immediate: bool,
) -> Vec<Vec<CellId>> {
    // Step 1: the first n cells of h seed the groups; the rest join their
    // closest group.
    let mut groups: Vec<GroupState> = h[..n]
        .iter()
        .map(|&c| GroupState::singleton(model, c))
        .collect();
    let mut assignment: Vec<usize> = (0..n).collect();
    for &cell in &h[n..] {
        let q = closest(n, |q| groups[q].distance_to(model, cell));
        groups[q].add(model, cell);
        assignment.push(q);
    }
    // Steps 2-3: reassign until stable or the iteration cap.
    if immediate {
        forgy_sweeps(model, h, &mut groups, assignment, max_iterations);
    } else {
        batch_sweeps(model, h, &mut groups, assignment, max_iterations);
    }
    groups.iter().map(|g| g.cells().to_vec()).collect()
}

/// Forgy's sweeps: each cell in turn moves to its closest group at once.
///
/// The distance from cell `i` to group `q` is memoized at `memo[i·n + q]`
/// with the group's version then; a group's version changes whenever its
/// cells do. After the first sweep few cells move, so most distances of a
/// sweep are reused.
fn forgy_sweeps(
    model: &GridModel,
    h: &[CellId],
    groups: &mut [GroupState],
    mut assignment: Vec<usize>,
    max_iterations: usize,
) {
    let n = groups.len();
    let mut versions = vec![0u64; n];
    let mut memo = vec![(u64::MAX, 0.0); h.len() * n];
    let mut scratch = Vec::new();
    for _ in 0..max_iterations {
        let mut changed = false;
        for (i, &cell) in h.iter().enumerate() {
            let current = assignment[i];
            if groups[current].len() <= 1 {
                continue; // never orphan a group
            }
            let memo = &mut memo[i * n..][..n];
            let q = closest(n, |q| {
                if memo[q].0 != versions[q] {
                    let g = &groups[q];
                    // The cell is measured against its own group as if it
                    // had left: the EW increase of re-joining.
                    let d = if q == current {
                        g.ew() - g.ew_without(model, cell, &mut scratch)
                    } else {
                        g.distance_to(model, cell)
                    };
                    memo[q] = (versions[q], d);
                }
                memo[q].1
            });
            if q != current {
                groups[current].remove(model, cell);
                groups[q].add(model, cell);
                versions[current] += 1;
                versions[q] += 1;
                changed = true;
                assignment[i] = q;
            }
        }
        if !changed {
            break;
        }
    }
}

/// Batch sweeps: every assignment against the frozen groups, then the
/// groups rebuilt once.
///
/// Distances are memoized as in [`forgy_sweeps`]. A group's state
/// depends only on its set of cells, so a group whose rebuilt cells are
/// the ones it had keeps its state and its version, and every distance
/// to it is reused.
///
/// A sweep depends only on the assignment it starts from, so once an
/// assignment recurs two sweeps later the sweeps alternate between the
/// last two until the cap; the loop stops there and keeps whichever of
/// the two the cap lands on.
fn batch_sweeps(
    model: &GridModel,
    h: &[CellId],
    groups: &mut [GroupState],
    mut assignment: Vec<usize>,
    max_iterations: usize,
) {
    let n = groups.len();
    let mut versions = vec![0u64; n];
    let mut memo = vec![(u64::MAX, 0.0); h.len() * n];
    // The assignment one sweep back and two sweeps back.
    let (mut last, mut before_last) = (Vec::new(), Vec::new());
    for sweep in 1..=max_iterations {
        let mut next: Vec<usize> = Vec::with_capacity(h.len());
        for (i, &cell) in h.iter().enumerate() {
            let current = assignment[i];
            if groups[current].len() <= 1 {
                next.push(current);
                continue;
            }
            let memo = &mut memo[i * n..][..n];
            next.push(closest(n, |q| {
                if memo[q].0 != versions[q] {
                    memo[q] = (versions[q], groups[q].distance_to(model, cell));
                }
                memo[q].1
            }));
        }
        if next == assignment {
            break;
        }
        std::mem::swap(&mut before_last, &mut last);
        last = std::mem::replace(&mut assignment, next);
        reseed_emptied(&mut assignment, n);
        rebuild(model, h, &assignment, groups, &mut versions);
        if assignment == before_last {
            if (max_iterations - sweep) % 2 == 1 {
                rebuild(model, h, &last, groups, &mut versions);
            }
            break;
        }
    }
}

/// Gives each group left without a cell the worst-fitting cell of the
/// largest group (the last of its cells in `h` order).
fn reseed_emptied(assignment: &mut [usize], n: usize) {
    let mut sizes = vec![0usize; n];
    for &q in assignment.iter() {
        sizes[q] += 1;
    }
    for q in 0..n {
        if sizes[q] == 0 {
            let donor = (0..n).max_by_key(|&g| sizes[g]).expect("n >= 1");
            let i = assignment
                .iter()
                .rposition(|&g| g == donor)
                .expect("donor non-empty");
            assignment[i] = q;
            sizes[donor] -= 1;
            sizes[q] = 1;
        }
    }
}

/// Makes each group the cells `assignment` gives it, rebuilding (and
/// bumping the version of) only the groups whose cells changed.
fn rebuild(
    model: &GridModel,
    h: &[CellId],
    assignment: &[usize],
    groups: &mut [GroupState],
    versions: &mut [u64],
) {
    let mut cells: Vec<Vec<CellId>> = vec![Vec::new(); groups.len()];
    for (&cell, &q) in h.iter().zip(assignment) {
        cells[q].push(cell);
    }
    for (q, cells) in cells.iter_mut().enumerate() {
        cells.sort_unstable();
        if groups[q].cells() != cells.as_slice() {
            groups[q] = GroupState::from_cells(model, cells);
            versions[q] += 1;
        }
    }
}

/// The group `q < n` of least `distance(q)`, the first on a tie.
fn closest(n: usize, mut distance: impl FnMut(usize) -> f64) -> usize {
    let mut best = 0usize;
    let mut best_d = f64::INFINITY;
    for q in 0..n {
        let d = distance(q);
        if d < best_d {
            best_d = d;
            best = q;
        }
    }
    best
}

/// Pairwise grouping (Appendix A.3): merge the closest pair until `n`
/// clusters remain. Distances to a merged cluster are recomputed; all
/// others are cached.
fn pairwise(model: &GridModel, h: &[CellId], n: usize) -> Vec<Vec<CellId>> {
    let mut groups: Vec<Option<GroupState>> = h
        .iter()
        .map(|&c| Some(GroupState::singleton(model, c)))
        .collect();
    let t = groups.len();
    let (mut tail, mut words) = (Vec::new(), Vec::new());
    let mut dist = vec![f64::INFINITY; t * t];
    for i in 0..t {
        for j in (i + 1)..t {
            let d = merge_distance(
                model,
                groups[i].as_ref().expect("alive"),
                groups[j].as_ref().expect("alive"),
                &mut tail,
                &mut words,
            );
            dist[i * t + j] = d;
        }
    }
    let mut alive = t;
    while alive > n {
        // Find the closest alive pair.
        let (mut bi, mut bj, mut bd) = (usize::MAX, usize::MAX, f64::INFINITY);
        for i in 0..t {
            if groups[i].is_none() {
                continue;
            }
            for j in (i + 1)..t {
                if groups[j].is_none() {
                    continue;
                }
                if dist[i * t + j] < bd {
                    bd = dist[i * t + j];
                    bi = i;
                    bj = j;
                }
            }
        }
        let other = groups[bj].take().expect("alive");
        groups[bi].as_mut().expect("alive").merge(model, &other);
        alive -= 1;
        // Refresh distances involving the merged cluster.
        for k in 0..t {
            if k == bi || groups[k].is_none() {
                continue;
            }
            let d = merge_distance(
                model,
                groups[bi].as_ref().expect("alive"),
                groups[k].as_ref().expect("alive"),
                &mut tail,
                &mut words,
            );
            let (a, b) = if k < bi { (k, bi) } else { (bi, k) };
            dist[a * t + b] = d;
        }
    }
    groups
        .into_iter()
        .flatten()
        .map(|g| g.cells().to_vec())
        .collect()
}

/// Minimum-spanning-tree clustering (Appendix A.3): distances computed
/// once between the singleton cells, edges added in increasing order until
/// exactly `n` components remain (single linkage with union-find).
fn mst(model: &GridModel, h: &[CellId], n: usize) -> Vec<Vec<CellId>> {
    let t = h.len();
    let singletons: Vec<GroupState> = h.iter().map(|&c| GroupState::singleton(model, c)).collect();
    let (mut tail, mut words) = (Vec::new(), Vec::new());
    let mut edges: Vec<(f64, usize, usize)> = Vec::with_capacity(t * (t - 1) / 2);
    for i in 0..t {
        for j in (i + 1)..t {
            let d = merge_distance(model, &singletons[i], &singletons[j], &mut tail, &mut words);
            edges.push((d, i, j));
        }
    }
    edges.sort_by(|a, b| a.0.total_cmp(&b.0));

    let mut parent: Vec<usize> = (0..t).collect();
    fn find(parent: &mut Vec<usize>, x: usize) -> usize {
        if parent[x] != x {
            let root = find(parent, parent[x]);
            parent[x] = root;
        }
        parent[x]
    }
    let mut components = t;
    for (_, i, j) in edges {
        if components == n {
            break;
        }
        let (ri, rj) = (find(&mut parent, i), find(&mut parent, j));
        if ri != rj {
            parent[ri] = rj;
            components -= 1;
        }
    }
    let mut clusters: Vec<Vec<CellId>> = Vec::new();
    let mut root_to_cluster: Vec<Option<usize>> = vec![None; t];
    for (i, &cell) in h.iter().enumerate().take(t) {
        let r = find(&mut parent, i);
        let idx = match root_to_cluster[r] {
            Some(idx) => idx,
            None => {
                clusters.push(Vec::new());
                root_to_cluster[r] = Some(clusters.len() - 1);
                clusters.len() - 1
            }
        };
        clusters[idx].push(cell);
    }
    clusters
}

#[cfg(test)]
mod tests {
    use super::*;
    use pubsub_geom::{Grid, Rect};

    /// Two subscriber populations interested in opposite halves of a 1-D
    /// space, with a publication hot spot in each half (so the top-2 cells
    /// seed both camps — with perfectly uniform weights the paper's
    /// first-n-cells seeding can start k-means with both seeds in one camp
    /// and the EW greedy cannot escape). A good 2-clustering separates the
    /// halves.
    fn two_camp_model() -> GridModel {
        let grid = Grid::uniform(Rect::from_corners(&[0.0], &[8.0]).unwrap(), 8).unwrap();
        let mut subs = Vec::new();
        for s in 0..4usize {
            subs.push((s, Rect::from_corners(&[0.0], &[4.0]).unwrap()));
        }
        for s in 4..8usize {
            subs.push((s, Rect::from_corners(&[4.0], &[8.0]).unwrap()));
        }
        GridModel::build(grid, 8, &subs, |r| {
            let c = r.side(0).center();
            if !(1.0..=7.0).contains(&c) {
                0.3 // hot spots at both ends
            } else {
                0.05
            }
        })
        .unwrap()
    }

    fn camps_separated(model: &GridModel, part: &SpacePartition) -> bool {
        // Every group's cells must lie entirely in one half.
        (0..part.group_count()).all(|q| {
            let cells = part.cells_of_group(q);
            let halves: Vec<bool> = cells
                .iter()
                .map(|&c| model.grid().cell_rect(c).side(0).hi() <= 4.0)
                .collect();
            halves.iter().all(|&h| h) || halves.iter().all(|&h| !h)
        })
    }

    #[test]
    fn all_algorithms_separate_two_camps() {
        let model = two_camp_model();
        for alg in ClusteringAlgorithm::ALL {
            let part = cluster(&model, &ClusteringConfig::new(alg, 2)).unwrap();
            assert_eq!(part.group_count(), 2, "{alg}");
            assert_eq!(part.assigned_cell_count(), 8, "{alg}");
            assert!(camps_separated(&model, &part), "{alg} mixed the camps");
        }
    }

    #[test]
    fn partitions_cover_top_cells_disjointly() {
        let model = two_camp_model();
        for alg in ClusteringAlgorithm::ALL {
            let part = cluster(&model, &ClusteringConfig::new(alg, 3)).unwrap();
            let mut seen = std::collections::HashSet::new();
            let mut total = 0;
            for q in 0..part.group_count() {
                for c in part.cells_of_group(q) {
                    assert!(seen.insert(c), "{alg}: cell in two groups");
                    total += 1;
                }
            }
            assert_eq!(total, 8, "{alg}");
        }
    }

    /// Batch k-means as it reads: every sweep against groups rebuilt
    /// from scratch, no memo, and all `max_iterations` sweeps unless one
    /// changes nothing. Returns the partition each cap `1..=max_iterations`
    /// ends with.
    fn plain_batch(model: &GridModel, n: usize, max_iterations: usize) -> Vec<SpacePartition> {
        let h = model.top_cells(200);
        let n = n.min(h.len());
        let mut groups: Vec<GroupState> = h[..n]
            .iter()
            .map(|&c| GroupState::singleton(model, c))
            .collect();
        let mut assignment: Vec<usize> = (0..n).collect();
        for &cell in &h[n..] {
            let q = closest(n, |q| groups[q].distance_to(model, cell));
            groups[q].add(model, cell);
            assignment.push(q);
        }
        let partition = |groups: &[GroupState]| {
            let clusters: Vec<Vec<CellId>> = groups.iter().map(|g| g.cells().to_vec()).collect();
            SpacePartition::from_clusters(model.grid().clone(), &clusters).unwrap()
        };
        let mut by_cap = Vec::new();
        for _ in 0..max_iterations {
            let next: Vec<usize> = h
                .iter()
                .zip(&assignment)
                .map(|(&cell, &current)| match groups[current].len() {
                    0 | 1 => current,
                    _ => closest(n, |q| groups[q].distance_to(model, cell)),
                })
                .collect();
            if next != assignment {
                assignment = next;
                reseed_emptied(&mut assignment, n);
                groups = (0..n)
                    .map(|q| {
                        let cells: Vec<CellId> = h
                            .iter()
                            .zip(&assignment)
                            .filter(|&(_, &g)| g == q)
                            .map(|(&c, _)| c)
                            .collect();
                        GroupState::from_cells(model, &cells)
                    })
                    .collect();
            }
            by_cap.push(partition(&groups));
        }
        by_cap
    }

    /// Random overlapping rectangles on a 6 × 6 grid, with mass skewed
    /// toward the origin.
    fn random_model(seed: u64) -> GridModel {
        let mut state = seed;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 11) as f64 / (1u64 << 53) as f64
        };
        let grid = Grid::uniform(Rect::from_corners(&[0.0, 0.0], &[6.0, 6.0]).unwrap(), 6).unwrap();
        let subs: Vec<(usize, Rect)> = (0..60usize)
            .map(|i| {
                let (x, y) = (next() * 6.0, next() * 6.0);
                let (w, h) = (next() * 3.0, next() * 3.0);
                (
                    i % 24,
                    Rect::from_corners(&[x, y], &[x + w, y + h]).unwrap(),
                )
            })
            .collect();
        GridModel::build(grid, 24, &subs, |r| {
            let c = r.center();
            (12.0 - c.coord(0) - c.coord(1)) / 432.0
        })
        .unwrap()
    }

    /// The memo and the stop at a two-sweep cycle change no partition,
    /// at any iteration cap, including caps that end a cycle on either
    /// of its two states.
    #[test]
    fn batch_kmeans_equals_the_plain_sweeps_at_every_cap() {
        let mut cycling = 0;
        for seed in 1..=24u64 {
            let model = random_model(seed.wrapping_mul(0x9e37_79b9_7f4a_7c15));
            for n in [2usize, 3, 5] {
                let plain = plain_batch(&model, n, 30);
                for (cap, want) in (1..=30).zip(&plain) {
                    let config = ClusteringConfig::new(ClusteringAlgorithm::BatchKMeans, n)
                        .with_max_iterations(cap);
                    let got = cluster(&model, &config).unwrap();
                    assert_eq!(&got, want, "seed {seed} n {n} cap {cap}");
                }
                if plain[27] != plain[28] && plain[27] == plain[29] {
                    cycling += 1;
                }
            }
        }
        assert!(cycling > 0, "no case alternates, so the stop is untested");
    }

    #[test]
    fn more_groups_than_cells_collapses_to_cell_count() {
        let model = two_camp_model();
        let part = cluster(
            &model,
            &ClusteringConfig::new(ClusteringAlgorithm::ForgyKMeans, 100),
        )
        .unwrap();
        assert_eq!(part.group_count(), 8);
    }

    #[test]
    fn empty_model_yields_no_groups() {
        let grid = Grid::uniform(Rect::from_corners(&[0.0], &[1.0]).unwrap(), 4).unwrap();
        let model = GridModel::build(grid, 0, &[], |_| 1.0).unwrap();
        let part = cluster(
            &model,
            &ClusteringConfig::new(ClusteringAlgorithm::PairwiseGrouping, 5),
        )
        .unwrap();
        assert_eq!(part.group_count(), 0);
        assert_eq!(part.assigned_cell_count(), 0);
    }

    #[test]
    fn max_cells_limits_working_set() {
        let model = two_camp_model();
        let part = cluster(
            &model,
            &ClusteringConfig::new(ClusteringAlgorithm::MinimumSpanningTree, 2).with_max_cells(4),
        )
        .unwrap();
        assert_eq!(part.assigned_cell_count(), 4);
    }

    #[test]
    fn config_validation() {
        let model = two_camp_model();
        let bad = [
            ClusteringConfig::new(ClusteringAlgorithm::ForgyKMeans, 0),
            ClusteringConfig::new(ClusteringAlgorithm::ForgyKMeans, 2).with_max_cells(0),
            ClusteringConfig::new(ClusteringAlgorithm::ForgyKMeans, 2).with_max_iterations(0),
        ];
        for cfg in bad {
            assert!(cluster(&model, &cfg).is_err());
        }
        let cfg = ClusteringConfig::new(ClusteringAlgorithm::BatchKMeans, 3)
            .with_max_cells(50)
            .with_max_iterations(10);
        assert_eq!(cfg.algorithm(), ClusteringAlgorithm::BatchKMeans);
        assert_eq!(cfg.groups(), 3);
        assert_eq!(cfg.max_cells, 50);
        assert_eq!(cfg.max_iterations(), 10);
    }

    #[test]
    fn expected_waste_objective_behaviour() {
        let model = two_camp_model();
        // The perfect 2-clustering separates the camps: zero waste.
        let perfect = cluster(
            &model,
            &ClusteringConfig::new(ClusteringAlgorithm::ForgyKMeans, 2),
        )
        .unwrap();
        assert!(expected_waste(&model, &perfect) < 1e-12);
        // Forcing everything into one group mixes the camps: positive
        // waste.
        let one = cluster(
            &model,
            &ClusteringConfig::new(ClusteringAlgorithm::ForgyKMeans, 1),
        )
        .unwrap();
        assert!(expected_waste(&model, &one) > 0.0);
        // More groups can only reduce (or preserve) the best objective
        // found here: 8 singleton groups also waste nothing.
        let singletons = cluster(
            &model,
            &ClusteringConfig::new(ClusteringAlgorithm::ForgyKMeans, 8),
        )
        .unwrap();
        assert!(expected_waste(&model, &singletons) < 1e-12);
    }

    #[test]
    fn clustering_is_deterministic() {
        let model = two_camp_model();
        for alg in ClusteringAlgorithm::ALL {
            let a = cluster(&model, &ClusteringConfig::new(alg, 3)).unwrap();
            let b = cluster(&model, &ClusteringConfig::new(alg, 3)).unwrap();
            assert_eq!(a, b, "{alg}");
        }
    }

    #[test]
    fn display_names() {
        assert_eq!(ClusteringAlgorithm::ForgyKMeans.to_string(), "forgy-kmeans");
        assert_eq!(
            ClusteringAlgorithm::MinimumSpanningTree.to_string(),
            "minimum-spanning-tree"
        );
    }
}
