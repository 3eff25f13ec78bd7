//! The reference clustering: every EW value re-folded from the group's
//! first cell, on every query and after every change, exactly as the
//! paper's recursion reads. The product resumes the same fold from cached
//! prefix states and memoizes distances; the parity properties check it
//! against this module bit for bit.

use pubsub_clustering::{ClusteringAlgorithm, GridModel, SpacePartition, SubscriberSet};
use pubsub_geom::CellId;

/// Folds the EW recursion over `cells` (sorted ascending). Returns
/// `(ew, total_mass, union_members)`.
pub fn fold_ew(model: &GridModel, cells: &[CellId]) -> (f64, f64, SubscriberSet) {
    let Some((&first, rest)) = cells.split_first() else {
        return (0.0, 0.0, SubscriberSet::new(model.subscriber_count()));
    };
    let mut members = model.members(first).clone();
    let mut mass = model.mass(first);
    let mut ew = 0.0;
    for &cell in rest {
        let l_x = model.members(cell);
        let p_x = model.mass(cell);
        let denom = p_x + mass;
        if denom > 0.0 {
            let new_minus_old = l_x.diff_count(&members) as f64;
            let old_minus_new = members.diff_count(l_x) as f64;
            ew = (ew * mass * (1.0 + new_minus_old) + p_x * old_minus_new) / denom;
        }
        members.union_with(l_x);
        mass += p_x;
    }
    (ew, mass, members)
}

/// One cluster: sorted cells plus the full fold over them.
#[derive(Debug, Clone)]
pub struct RefGroup {
    cells: Vec<CellId>,
    members: SubscriberSet,
    mass: f64,
    ew: f64,
}

impl RefGroup {
    pub fn from_cells(model: &GridModel, cells: &[CellId]) -> Self {
        let mut sorted = cells.to_vec();
        sorted.sort_unstable();
        sorted.dedup();
        let (ew, mass, members) = fold_ew(model, &sorted);
        RefGroup {
            cells: sorted,
            members,
            mass,
            ew,
        }
    }

    pub fn cells(&self) -> &[CellId] {
        &self.cells
    }

    pub fn members(&self) -> &SubscriberSet {
        &self.members
    }

    pub fn mass(&self) -> f64 {
        self.mass
    }

    pub fn ew(&self) -> f64 {
        self.ew
    }

    pub fn distance_to(&self, model: &GridModel, cell: CellId) -> f64 {
        if self.cells.is_empty() || self.cells.contains(&cell) {
            return 0.0;
        }
        let mut with = self.cells.clone();
        with.push(cell);
        with.sort_unstable();
        fold_ew(model, &with).0 - self.ew
    }

    pub fn add(&mut self, model: &GridModel, cell: CellId) {
        *self = RefGroup::from_cells(model, &[&self.cells[..], &[cell]].concat());
    }

    pub fn remove(&mut self, model: &GridModel, cell: CellId) {
        self.cells.retain(|&c| c != cell);
        *self = RefGroup::from_cells(model, &self.cells);
    }

    pub fn merge(&mut self, model: &GridModel, other: &RefGroup) {
        *self = RefGroup::from_cells(model, &[&self.cells[..], &other.cells[..]].concat());
    }
}

fn merge_distance(model: &GridModel, a: &RefGroup, b: &RefGroup) -> f64 {
    let merged = RefGroup::from_cells(model, &[a.cells(), b.cells()].concat());
    merged.ew - a.ew - b.ew
}

/// The `t` heaviest populated cells, weight recomputed in every
/// comparison.
pub fn top_cells(model: &GridModel, t: usize) -> Vec<CellId> {
    let mut cells: Vec<CellId> = (0..model.grid().cell_count())
        .map(CellId)
        .filter(|&c| !model.members(c).is_empty())
        .collect();
    cells.sort_by(|&a, &b| {
        model
            .weight(b)
            .total_cmp(&model.weight(a))
            .then_with(|| a.cmp(&b))
    });
    cells.truncate(t);
    cells
}

/// `cluster()` with the paper's iteration cap and a `t`-cell working set.
pub fn cluster(
    model: &GridModel,
    algorithm: ClusteringAlgorithm,
    groups: usize,
    t: usize,
) -> SpacePartition {
    let h = top_cells(model, t);
    let n = groups.min(h.len());
    let clusters = if n == 0 {
        Vec::new()
    } else {
        match algorithm {
            ClusteringAlgorithm::ForgyKMeans => kmeans(model, &h, n, 200, true),
            ClusteringAlgorithm::BatchKMeans => kmeans(model, &h, n, 200, false),
            ClusteringAlgorithm::PairwiseGrouping => pairwise(model, &h, n),
            ClusteringAlgorithm::MinimumSpanningTree => mst(model, &h, n),
        }
    };
    SpacePartition::from_clusters(model.grid().clone(), &clusters).unwrap()
}

/// The exact waste objective, the group's union from the full fold.
pub fn expected_waste(model: &GridModel, partition: &SpacePartition) -> f64 {
    let mut total = 0.0;
    for q in 0..partition.group_count() {
        let cells = partition.cells_of_group(q);
        let group_size = RefGroup::from_cells(model, &cells).members().len() as f64;
        for cell in cells {
            total += model.mass(cell) * (group_size - model.members(cell).len() as f64);
        }
    }
    total
}

fn closest_group(model: &GridModel, groups: &[RefGroup], cell: CellId) -> usize {
    let mut best = 0usize;
    let mut best_d = f64::INFINITY;
    for (q, g) in groups.iter().enumerate() {
        let d = g.distance_to(model, cell);
        if d < best_d {
            best_d = d;
            best = q;
        }
    }
    best
}

/// K-means as Appendix A.2 reads: the visited cell leaves its group,
/// every distance is re-folded, and the cell joins the closest group.
fn kmeans(
    model: &GridModel,
    h: &[CellId],
    n: usize,
    max_iterations: usize,
    immediate: bool,
) -> Vec<Vec<CellId>> {
    let mut groups: Vec<RefGroup> = h[..n]
        .iter()
        .map(|&c| RefGroup::from_cells(model, &[c]))
        .collect();
    let mut assignment: Vec<usize> = (0..n).collect();
    for &cell in &h[n..] {
        let q = closest_group(model, &groups, cell);
        groups[q].add(model, cell);
        assignment.push(q);
    }
    for _ in 0..max_iterations {
        let mut changed = false;
        if immediate {
            for (i, &cell) in h.iter().enumerate() {
                let current = assignment[i];
                if groups[current].cells().len() <= 1 {
                    continue;
                }
                groups[current].remove(model, cell);
                let q = closest_group(model, &groups, cell);
                groups[q].add(model, cell);
                if q != current {
                    changed = true;
                    assignment[i] = q;
                }
            }
        } else {
            let mut next: Vec<usize> = Vec::with_capacity(h.len());
            for (i, &cell) in h.iter().enumerate() {
                let current = assignment[i];
                if groups[current].cells().len() <= 1 {
                    next.push(current);
                    continue;
                }
                next.push(closest_group(model, &groups, cell));
            }
            if next != assignment {
                changed = true;
                assignment = next;
                let mut rebuilt: Vec<Vec<CellId>> = vec![Vec::new(); n];
                for (i, &cell) in h.iter().enumerate() {
                    rebuilt[assignment[i]].push(cell);
                }
                for q in 0..n {
                    if rebuilt[q].is_empty() {
                        let donor = (0..n).max_by_key(|&g| rebuilt[g].len()).unwrap();
                        let cell = rebuilt[donor].pop().unwrap();
                        rebuilt[q].push(cell);
                        let i = h.iter().position(|&c| c == cell).unwrap();
                        assignment[i] = q;
                    }
                }
                groups = rebuilt
                    .iter()
                    .map(|cells| RefGroup::from_cells(model, cells))
                    .collect();
            }
        }
        if !changed {
            break;
        }
    }
    groups.iter().map(|g| g.cells().to_vec()).collect()
}

/// Pairwise grouping with every merge distance re-folded in full.
fn pairwise(model: &GridModel, h: &[CellId], n: usize) -> Vec<Vec<CellId>> {
    let mut groups: Vec<Option<RefGroup>> = h
        .iter()
        .map(|&c| Some(RefGroup::from_cells(model, &[c])))
        .collect();
    let t = groups.len();
    let mut dist = vec![f64::INFINITY; t * t];
    for i in 0..t {
        for j in (i + 1)..t {
            dist[i * t + j] = merge_distance(
                model,
                groups[i].as_ref().unwrap(),
                groups[j].as_ref().unwrap(),
            );
        }
    }
    let mut alive = t;
    while alive > n {
        let (mut bi, mut bj, mut bd) = (usize::MAX, usize::MAX, f64::INFINITY);
        for i in 0..t {
            if groups[i].is_none() {
                continue;
            }
            for j in (i + 1)..t {
                if groups[j].is_some() && dist[i * t + j] < bd {
                    bd = dist[i * t + j];
                    bi = i;
                    bj = j;
                }
            }
        }
        let other = groups[bj].take().unwrap();
        groups[bi].as_mut().unwrap().merge(model, &other);
        alive -= 1;
        for k in 0..t {
            if k == bi || groups[k].is_none() {
                continue;
            }
            let d = merge_distance(
                model,
                groups[bi].as_ref().unwrap(),
                groups[k].as_ref().unwrap(),
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

/// Single linkage over the re-folded singleton pair distances.
fn mst(model: &GridModel, h: &[CellId], n: usize) -> Vec<Vec<CellId>> {
    let t = h.len();
    let singletons: Vec<RefGroup> = h
        .iter()
        .map(|&c| RefGroup::from_cells(model, &[c]))
        .collect();
    let mut edges: Vec<(f64, usize, usize)> = Vec::new();
    for i in 0..t {
        for j in (i + 1)..t {
            edges.push((merge_distance(model, &singletons[i], &singletons[j]), i, j));
        }
    }
    edges.sort_by(|a, b| a.0.total_cmp(&b.0));
    fn find(parent: &mut Vec<usize>, x: usize) -> usize {
        if parent[x] != x {
            let root = find(parent, parent[x]);
            parent[x] = root;
        }
        parent[x]
    }
    let mut parent: Vec<usize> = (0..t).collect();
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
    for (i, &cell) in h.iter().enumerate() {
        let r = find(&mut parent, i);
        let idx = *root_to_cluster[r].get_or_insert_with(|| {
            clusters.push(Vec::new());
            clusters.len() - 1
        });
        clusters[idx].push(cell);
    }
    clusters
}
