//! The expected-waste (EW) distance (Appendix A.2).
//!
//! EW measures the expected number of *wasted* deliveries a multicast
//! group causes: members who receive a message they did not subscribe to.
//! The paper defines it recursively over cell insertions:
//!
//! ```text
//! EW({g}) = 0
//! EW(G ∪ {x}) = [ EW(G)·p(G)·(1 + |l(x)\l(G)|) + p(x)·|l(G)\l(x)| ]
//!               / (p(x) + p(G))
//! ```
//!
//! The recursion is insertion-order dependent; to make group state
//! well-defined under k-means removals every EW value is the fold of the
//! member cells in ascending cell-id order (DESIGN.md choice 4). The
//! *distance* from a cell to a group is the EW increase caused by adding
//! the cell.
//!
//! A group keeps the fold's state after each of its cells, so a cell
//! joining, leaving or only asked about at position `i` refolds from
//! position `i` on, never from the first cell: the same operations in the
//! same order as the full fold, hence the same bits. The set differences
//! come from one intersection count per word and cached sizes:
//! `|l(x)\l(G)| = |l(x)| − |l(x) ∩ l(G)|`, and likewise for `l(G)\l(x)`.

use pubsub_geom::CellId;

use crate::GridModel;

/// The canonical fold's state after some cells: the EW value, the total
/// mass `p(G)` and the union size `|l(G)|`.
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct Fold {
    ew: f64,
    mass: f64,
    count: usize,
}

impl Fold {
    /// The fold of a single cell of `size` members (EW = 0 by definition).
    fn first(model: &GridModel, cell: CellId, size: usize) -> Fold {
        Fold {
            ew: 0.0,
            mass: model.mass(cell),
            count: size,
        }
    }

    /// One step of the recursion: inserts `cell`, of `size` members,
    /// `shared` of which are already in `l(G)`.
    fn step(self, model: &GridModel, cell: CellId, size: usize, shared: usize) -> Fold {
        let p_x = model.mass(cell);
        let denom = p_x + self.mass;
        let mut ew = self.ew;
        if denom > 0.0 {
            let new_minus_old = (size - shared) as f64;
            let old_minus_new = (self.count - shared) as f64;
            ew = (self.ew * self.mass * (1.0 + new_minus_old) + p_x * old_minus_new) / denom;
        }
        // Zero total mass: no publications land here, waste stays as-is.
        Fold {
            ew,
            mass: self.mass + p_x,
            count: self.count + size - shared,
        }
    }

    /// The union size `|l(G)|`.
    pub(crate) fn count(&self) -> usize {
        self.count
    }
}

/// `|a ∩ b|` over packed subscriber words.
fn overlap(a: &[u64], b: &[u64]) -> usize {
    a.iter()
        .zip(b)
        .map(|(&a, &b)| (a & b).count_ones() as usize)
        .sum()
}

/// `union |= b`; returns `|union ∩ b|` before the update.
fn absorb(union: &mut [u64], b: &[u64]) -> usize {
    let mut shared = 0;
    for (u, &b) in union.iter_mut().zip(b) {
        shared += (*u & b).count_ones() as usize;
        *u |= b;
    }
    shared
}

/// Folds `cells`, given with their sizes (ascending, each after every
/// cell folded so far) onto `start`, the state and union words so far, or
/// onto nothing. The union grows in `scratch`, and only while a later step
/// needs it: the last step just counts.
pub(crate) fn fold_from(
    model: &GridModel,
    start: Option<(Fold, &[u64])>,
    cells: impl IntoIterator<Item = (CellId, usize)>,
    scratch: &mut Vec<u64>,
) -> Fold {
    let mut cells = cells.into_iter();
    let (mut fold, union) = match start {
        Some(start) => start,
        None => match cells.next() {
            Some((cell, size)) => (Fold::first(model, cell, size), model.members(cell).words()),
            None => return Fold::default(),
        },
    };
    let mut in_scratch = false;
    let mut next = cells.next();
    while let Some((cell, size)) = next {
        next = cells.next();
        let l_x = model.members(cell).words();
        let shared = if next.is_none() {
            overlap(if in_scratch { scratch } else { union }, l_x)
        } else {
            if !in_scratch {
                scratch.clear();
                scratch.extend_from_slice(union);
                in_scratch = true;
            }
            absorb(scratch, l_x)
        };
        fold = fold.step(model, cell, size, shared);
    }
    fold
}

/// Mutable state of one cluster: its cells (kept sorted by id) and the
/// canonical fold after each of them.
#[derive(Debug, Clone)]
pub struct GroupState {
    cells: Vec<CellId>,
    /// `sizes[i]`: `|l(cells[i])|`.
    sizes: Vec<usize>,
    /// `folds[i]`: the fold of `cells[..=i]`.
    folds: Vec<Fold>,
    /// Row `i`, `words` long: the union `l(·)` of `cells[..=i]`.
    unions: Vec<u64>,
    words: usize,
}

impl GroupState {
    /// A group holding a single cell (EW = 0 by definition).
    pub fn singleton(model: &GridModel, cell: CellId) -> Self {
        Self::from_cells(model, &[cell])
    }

    /// Builds a group from arbitrary cells (deduplicated, sorted, folded
    /// canonically). Returns an empty group for an empty slice.
    pub fn from_cells(model: &GridModel, cells: &[CellId]) -> Self {
        let mut cells: Vec<CellId> = cells.to_vec();
        cells.sort_unstable();
        cells.dedup();
        let mut group = GroupState {
            cells,
            sizes: Vec::new(),
            folds: Vec::new(),
            unions: Vec::new(),
            words: model.subscriber_count().div_ceil(64),
        };
        group.refold_from(model, 0);
        group
    }

    /// The member cells in ascending id order.
    pub fn cells(&self) -> &[CellId] {
        &self.cells
    }

    /// Number of member cells.
    pub fn len(&self) -> usize {
        self.cells.len()
    }

    /// `true` if the group has no cells.
    pub fn is_empty(&self) -> bool {
        self.cells.is_empty()
    }

    /// The size of the union membership `|l(G)|`.
    pub fn member_count(&self) -> usize {
        self.whole().count
    }

    /// The total publication mass `p(G)`.
    pub fn mass(&self) -> f64 {
        self.whole().mass
    }

    /// The canonical EW value.
    pub fn ew(&self) -> f64 {
        self.whole().ew
    }

    /// `true` if `cell` is a member.
    pub fn contains(&self, cell: CellId) -> bool {
        self.cells.binary_search(&cell).is_ok()
    }

    /// The distance from `cell` to this group: the EW increase if the cell
    /// joined (computed against the canonical fold). Joining an empty
    /// group is free, and so is re-joining.
    pub fn distance_to(&self, model: &GridModel, cell: CellId) -> f64 {
        let pos = self.cells.partition_point(|&c| c < cell);
        if self.is_empty() || self.cells.get(pos) == Some(&cell) {
            return 0.0;
        }
        let l_x = model.members(cell);
        let size_x = l_x.len();
        let l_x = l_x.words();
        let mut fold = match self.before(pos) {
            None => Fold::first(model, cell, size_x),
            Some((fold, union)) => fold.step(model, cell, size_x, overlap(union, l_x)),
        };
        // The union before `cells[i]` is then row `i − 1` plus `l(x)`: the
        // fold resumes at the insertion point and writes nothing.
        let w = self.words;
        for (i, &c) in self.cells.iter().enumerate().skip(pos) {
            let l_c = model.members(c).words();
            let shared = match i.checked_sub(1) {
                None => overlap(l_x, l_c),
                Some(prev) => self.unions[prev * w..i * w]
                    .iter()
                    .zip(l_x)
                    .zip(l_c)
                    .map(|((&u, &x), &c)| ((u | x) & c).count_ones() as usize)
                    .sum(),
            };
            fold = fold.step(model, c, self.sizes[i], shared);
        }
        fold.ew - self.ew()
    }

    /// The canonical EW of the group without `cell` (the group's own EW if
    /// the cell is not a member). `scratch` holds the union as it grows.
    pub(crate) fn ew_without(
        &self,
        model: &GridModel,
        cell: CellId,
        scratch: &mut Vec<u64>,
    ) -> f64 {
        let Ok(pos) = self.cells.binary_search(&cell) else {
            return self.ew();
        };
        fold_from(model, self.before(pos), self.members_from(pos + 1), scratch).ew
    }

    /// Adds a cell (no-op if already present) and refolds from its
    /// position.
    pub fn add(&mut self, model: &GridModel, cell: CellId) {
        let pos = self.cells.partition_point(|&c| c < cell);
        if self.cells.get(pos) == Some(&cell) {
            return;
        }
        self.cells.insert(pos, cell);
        self.refold_from(model, pos);
    }

    /// Removes a cell (no-op if absent) and refolds from its position.
    pub fn remove(&mut self, model: &GridModel, cell: CellId) {
        if let Ok(pos) = self.cells.binary_search(&cell) {
            self.cells.remove(pos);
            self.refold_from(model, pos);
        }
    }

    /// Merges another group into this one and refolds from the first
    /// position that changed.
    pub fn merge(&mut self, model: &GridModel, other: &GroupState) {
        let Some(&first) = other.cells.first() else {
            return;
        };
        let start = self.cells.partition_point(|&c| c < first);
        self.cells.extend_from_slice(&other.cells);
        self.cells.sort_unstable();
        self.cells.dedup();
        self.refold_from(model, start);
    }

    /// The cells from position `pos` on, with their sizes.
    fn members_from(&self, pos: usize) -> impl Iterator<Item = (CellId, usize)> + '_ {
        self.cells[pos..]
            .iter()
            .copied()
            .zip(self.sizes[pos..].iter().copied())
    }

    /// The fold of the whole group (all zero when empty).
    fn whole(&self) -> Fold {
        self.folds.last().copied().unwrap_or_default()
    }

    /// The fold and union of `cells[..pos]`, or `None` at position 0.
    fn before(&self, pos: usize) -> Option<(Fold, &[u64])> {
        let i = pos.checked_sub(1)?;
        Some((self.folds[i], &self.unions[i * self.words..][..self.words]))
    }

    /// Recomputes the fold after each of `cells[start..]`; the states of
    /// `cells[..start]` are still valid.
    fn refold_from(&mut self, model: &GridModel, start: usize) {
        let w = self.words;
        self.sizes.truncate(start);
        self.folds.truncate(start);
        self.unions.resize(self.cells.len() * w, 0);
        for (i, &cell) in self.cells.iter().enumerate().skip(start) {
            let l_x = model.members(cell);
            let size = l_x.len();
            let (done, row) = self.unions.split_at_mut(i * w);
            let row = &mut row[..w];
            let fold = match i.checked_sub(1) {
                None => {
                    row.copy_from_slice(l_x.words());
                    Fold::first(model, cell, size)
                }
                Some(prev) => {
                    row.copy_from_slice(&done[prev * w..]);
                    self.folds[prev].step(model, cell, size, absorb(row, l_x.words()))
                }
            };
            self.sizes.push(size);
            self.folds.push(fold);
        }
    }
}

/// The symmetric merge distance used by pairwise grouping and the MST
/// algorithm: the EW increase from merging two groups,
/// `EW(A ∪ B) − EW(A) − EW(B)` (DESIGN.md choice 5). For singleton cells
/// this is simply `EW({a, b})`. The merged fold resumes where the group
/// holding the lowest cell stops leading; `tail` and `words` are scratch.
pub(crate) fn merge_distance(
    model: &GridModel,
    a: &GroupState,
    b: &GroupState,
    tail: &mut Vec<(CellId, usize)>,
    words: &mut Vec<u64>,
) -> f64 {
    let ew = match (a.cells.first(), b.cells.first()) {
        (None, _) => b.ew(),
        (_, None) => a.ew(),
        (Some(first_a), Some(first_b)) => {
            let (lead, other) = if first_a <= first_b { (a, b) } else { (b, a) };
            let pos = lead.cells.partition_point(|&c| c < other.cells[0]);
            tail.clear();
            tail.extend(lead.members_from(pos));
            tail.extend(other.members_from(0));
            tail.sort_unstable();
            tail.dedup();
            fold_from(model, lead.before(pos), tail.iter().copied(), words).ew
        }
    };
    ew - a.ew() - b.ew()
}

#[cfg(test)]
mod tests {
    use super::*;
    use pubsub_geom::{Grid, Rect};

    /// A 4-cell 1-D model with controllable membership and mass.
    fn model(masses: [f64; 4], member_lists: [&[usize]; 4]) -> GridModel {
        let grid = Grid::uniform(Rect::from_corners(&[0.0], &[4.0]).unwrap(), 4).unwrap();
        let mut subs: Vec<(usize, Rect)> = Vec::new();
        for (i, list) in member_lists.iter().enumerate() {
            for &s in *list {
                subs.push((
                    s,
                    Rect::from_corners(&[i as f64 + 0.25], &[i as f64 + 0.75]).unwrap(),
                ));
            }
        }
        GridModel::build(grid, 8, &subs, move |r| {
            let i = (r.side(0).lo() + 0.01).floor().max(0.0) as usize;
            masses[i.min(3)]
        })
        .unwrap()
    }

    #[test]
    fn singleton_has_zero_ew() {
        let m = model([0.25; 4], [&[0], &[1], &[2], &[3]]);
        let g = GroupState::singleton(&m, CellId(0));
        assert_eq!(g.ew(), 0.0);
        assert_eq!(g.len(), 1);
        assert_eq!(g.mass(), 0.25);
        assert!(g.contains(CellId(0)));
    }

    #[test]
    fn pair_ew_matches_hand_computation() {
        // Cells 0 and 1, equal mass 0.5, disjoint singleton memberships.
        // Formula: EW = (0 + 0.5 * |l(0)\l(1)|) / 1.0 = 0.5 when adding
        // cell 1 to {0}: |l(G)\l(x)| = 1.
        let m = model([0.5, 0.5, 0.0, 0.0], [&[0], &[1], &[], &[]]);
        let g = GroupState::from_cells(&m, &[CellId(0), CellId(1)]);
        assert!((g.ew() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn identical_memberships_waste_nothing() {
        let m = model([0.25; 4], [&[0, 1], &[0, 1], &[0, 1], &[0, 1]]);
        let g = GroupState::from_cells(&m, &[CellId(0), CellId(1), CellId(2), CellId(3)]);
        assert_eq!(g.ew(), 0.0);
        assert_eq!(g.member_count(), 2);
    }

    #[test]
    fn disjoint_memberships_accumulate_waste() {
        let m = model([0.25; 4], [&[0], &[1], &[2], &[3]]);
        let g12 = GroupState::from_cells(&m, &[CellId(0), CellId(1)]);
        let g123 = GroupState::from_cells(&m, &[CellId(0), CellId(1), CellId(2)]);
        assert!(g123.ew() > g12.ew());
        assert!(g12.ew() > 0.0);
    }

    #[test]
    fn distance_is_ew_increase_and_add_matches() {
        let m = model([0.3, 0.3, 0.2, 0.2], [&[0, 1], &[1, 2], &[3], &[0, 3]]);
        let mut g = GroupState::from_cells(&m, &[CellId(0), CellId(1)]);
        let d = g.distance_to(&m, CellId(2));
        let before = g.ew();
        g.add(&m, CellId(2));
        assert!((g.ew() - before - d).abs() < 1e-12);
        // Adding an existing cell is free and a no-op.
        assert_eq!(g.distance_to(&m, CellId(2)), 0.0);
        let snapshot = g.ew();
        g.add(&m, CellId(2));
        assert_eq!(g.ew(), snapshot);
    }

    #[test]
    fn remove_restores_previous_state() {
        let m = model([0.25; 4], [&[0], &[1], &[0, 1], &[2]]);
        let mut g = GroupState::from_cells(&m, &[CellId(0), CellId(1)]);
        let (ew0, mass0, len0) = (g.ew(), g.mass(), g.member_count());
        g.add(&m, CellId(3));
        g.remove(&m, CellId(3));
        assert!((g.ew() - ew0).abs() < 1e-12);
        assert!((g.mass() - mass0).abs() < 1e-12);
        assert_eq!(g.member_count(), len0);
        // Removing an absent cell is a no-op.
        g.remove(&m, CellId(3));
        assert_eq!(g.len(), 2);
    }

    #[test]
    fn merge_matches_from_cells() {
        let m = model([0.3, 0.3, 0.2, 0.2], [&[0], &[1], &[0, 2], &[3]]);
        let mut a = GroupState::from_cells(&m, &[CellId(0), CellId(2)]);
        let b = GroupState::from_cells(&m, &[CellId(1), CellId(3)]);
        let d = merge_distance(&m, &a, &b, &mut Vec::new(), &mut Vec::new());
        let (ew_a, ew_b) = (a.ew(), b.ew());
        a.merge(&m, &b);
        assert!((a.ew() - (ew_a + ew_b + d)).abs() < 1e-12);
        assert_eq!(a.len(), 4);
    }

    #[test]
    fn zero_mass_groups_have_zero_ew() {
        let m = model([0.0; 4], [&[0], &[1], &[2], &[3]]);
        let g = GroupState::from_cells(&m, &[CellId(0), CellId(1), CellId(2)]);
        assert_eq!(g.ew(), 0.0);
        assert_eq!(g.mass(), 0.0);
        assert_eq!(g.distance_to(&m, CellId(3)), 0.0);
    }

    #[test]
    fn empty_group_behaviour() {
        let m = model([0.25; 4], [&[0], &[1], &[2], &[3]]);
        let g = GroupState::from_cells(&m, &[]);
        assert!(g.is_empty());
        assert_eq!(g.ew(), 0.0);
        assert_eq!(g.distance_to(&m, CellId(0)), 0.0);
    }
}
