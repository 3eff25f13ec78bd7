//! The grid model: per-cell subscriber membership and publication mass
//! (Appendix A, step 0).

use pubsub_geom::{CellId, CellWalkBuf, Grid, Interval, Point, Rect};

use crate::{ClusterError, SubscriberSet};

/// The precomputed grid statistics the clustering algorithms work on:
/// for every cell `g`, the membership list `l(g)` (subscribers whose
/// rectangle intersects the cell) and the publication mass `p_p(g)`.
///
/// The model records only *which* subscribers touch each cell, so a
/// rectangle shared by many subscriptions adds nothing after its first
/// walk. [`GridModel::build_grouped`] therefore takes items of (subscriber
/// set, rectangle) and walks each item's cells once, whatever the size of
/// its set; [`GridModel::build`] is the same accumulation with one
/// subscriber per item. Both yield the same model for the same
/// (subscriber, cell) incidences, however they are grouped.
///
/// Each distinct membership list is stored once, and each cell holds
/// the index of its own: the model's size follows the number of distinct
/// lists, not the number of cells (on the paper testbed 54% of the
/// 10,000 cells are empty and 1,887 distinct lists remain).
#[derive(Debug, Clone)]
pub struct GridModel {
    grid: Grid,
    subscriber_count: usize,
    masses: Vec<f64>,
    /// The distinct membership lists; `sets[0]` is the empty list.
    sets: Vec<SubscriberSet>,
    /// Per cell, the index in `sets` of its membership list.
    set_of: Vec<u32>,
}

impl GridModel {
    /// Builds the model.
    ///
    /// * `subscriber_count` — how many distinct subscriber indices exist;
    /// * `subscriptions` — `(subscriber, rectangle)` pairs; rectangles are
    ///   clamped to the grid bounds, so unbounded predicates are fine;
    /// * `density` — the publication density `p_p(·)`: returns the
    ///   probability mass of a rectangle (e.g.
    ///   `|r| publication_model.mass(r)`).
    ///
    /// # Errors
    ///
    /// * [`ClusterError::SubscriberOutOfRange`] for a subscriber index
    ///   `>= subscriber_count`;
    /// * [`ClusterError::DimensionMismatch`] for a rectangle of the wrong
    ///   dimensionality;
    /// * [`ClusterError::InvalidDensity`] if the density callback returns
    ///   a negative or non-finite value.
    pub fn build<F>(
        grid: Grid,
        subscriber_count: usize,
        subscriptions: &[(usize, Rect)],
        density: F,
    ) -> Result<Self, ClusterError>
    where
        F: Fn(&Rect) -> f64,
    {
        Self::build_grouped(
            grid,
            subscriber_count,
            subscriptions
                .iter()
                .map(|(s, r)| (std::iter::once(*s), r.sides().iter().copied())),
            density,
        )
    }

    /// [`GridModel::build`] over items that each name a set of
    /// subscribers sharing one rectangle, given by its sides — e.g. the
    /// groups of identical rectangles a covering pass interned, so the
    /// caller never materializes a rectangle per subscription.
    ///
    /// Membership accumulates in one flat word array, word-major: word
    /// `w` of every cell's set is contiguous (`planes[w·cells + cell]`).
    /// An item's subscribers are first set in one reused set-sized word
    /// buffer; its rectangle is then walked once with [`Grid::cell_runs`]
    /// — clamped to the grid bounds there, so a rectangle and its
    /// clamped form give the same cells — and each run of consecutive
    /// cells becomes one contiguous `|=` per non-zero buffer word. The
    /// words are then interned once, cell by cell: each distinct
    /// non-empty list becomes one [`SubscriberSet`], and an empty cell
    /// points at the shared empty set without being hashed. OR is
    /// commutative and idempotent, so the model depends only on which
    /// `(subscriber, cell)` pairs the items cover, not on how they are
    /// grouped or ordered. Nothing is allocated per item or per cell.
    ///
    /// # Errors
    ///
    /// As [`GridModel::build`]; an item with a number of sides other than
    /// the grid's dimensionality is a
    /// [`ClusterError::DimensionMismatch`].
    pub fn build_grouped<I, S, R, F>(
        grid: Grid,
        subscriber_count: usize,
        items: I,
        density: F,
    ) -> Result<Self, ClusterError>
    where
        I: IntoIterator<Item = (S, R)>,
        S: IntoIterator<Item = usize>,
        R: IntoIterator<Item = Interval>,
        F: Fn(&Rect) -> f64,
    {
        let cell_count = grid.cell_count();
        let dims = grid.dims();
        let words_per_set = subscriber_count.div_ceil(64);
        let mut planes = vec![0u64; words_per_set * cell_count];
        let mut walk = CellWalkBuf::default();
        // The item's rectangle, its subscriber words and the indices of
        // the non-zero ones: reused by every item.
        let mut rect = grid.bounds().clone();
        let mut words = vec![0u64; words_per_set];
        let mut nonzero: Vec<usize> = Vec::new();
        for (subscribers, sides) in items {
            let mut got = 0;
            for side in sides {
                if got < dims {
                    rect.set_side(got, side);
                }
                got += 1;
            }
            if got != dims {
                return Err(ClusterError::DimensionMismatch {
                    expected: dims,
                    got,
                });
            }
            for subscriber in subscribers {
                if subscriber >= subscriber_count {
                    return Err(ClusterError::SubscriberOutOfRange {
                        subscriber,
                        count: subscriber_count,
                    });
                }
                let w = subscriber / 64;
                if words[w] == 0 {
                    nonzero.push(w);
                }
                words[w] |= 1 << (subscriber % 64);
            }
            if nonzero.is_empty() {
                continue;
            }
            for run in grid.cell_runs(&rect, &mut walk) {
                for &w in &nonzero {
                    let bits = words[w];
                    for word in &mut planes[w * cell_count..][run.clone()] {
                        *word |= bits;
                    }
                }
            }
            for w in nonzero.drain(..) {
                words[w] = 0;
            }
        }
        let (sets, set_of) = intern_cells(&planes, cell_count, subscriber_count);
        // `rect` now holds each cell in turn.
        let mut masses = Vec::with_capacity(cell_count);
        for i in 0..cell_count {
            grid.cell_rect_into(CellId(i), &mut rect);
            let m = density(&rect);
            if !(m >= 0.0 && m.is_finite()) {
                return Err(ClusterError::InvalidDensity {
                    value: m.to_string(),
                });
            }
            masses.push(m);
        }
        Ok(GridModel {
            grid,
            subscriber_count,
            masses,
            sets,
            set_of,
        })
    }

    /// The underlying grid.
    pub fn grid(&self) -> &Grid {
        &self.grid
    }

    /// Number of distinct subscriber indices.
    pub fn subscriber_count(&self) -> usize {
        self.subscriber_count
    }

    /// The publication mass `p_p(g)` of a cell.
    ///
    /// # Panics
    ///
    /// Panics if the cell id is out of range.
    pub fn mass(&self, cell: CellId) -> f64 {
        self.masses[cell.0]
    }

    /// The membership list `l(g)` of a cell.
    ///
    /// # Panics
    ///
    /// Panics if the cell id is out of range.
    pub fn members(&self, cell: CellId) -> &SubscriberSet {
        &self.sets[self.set_of[cell.0] as usize]
    }

    /// The cell weight `p_p(g)·|l(g)|` used to select the working set.
    pub fn weight(&self, cell: CellId) -> f64 {
        self.masses[cell.0] * self.members(cell).len() as f64
    }

    /// The `t` heaviest cells with non-empty membership, by decreasing
    /// weight (ties broken toward lower cell ids). This is the list `h` of
    /// Appendix A; fewer than `t` cells are returned when the grid has
    /// fewer populated cells.
    pub fn top_cells(&self, t: usize) -> Vec<CellId> {
        let mut cells: Vec<(f64, CellId)> = (0..self.grid.cell_count())
            .map(CellId)
            .filter(|&c| self.set_of[c.0] != 0)
            .map(|c| (self.weight(c), c))
            .collect();
        // Ids are distinct, so the order is total and an unstable sort
        // gives the one answer.
        cells.sort_unstable_by(|a, b| b.0.total_cmp(&a.0).then_with(|| a.1.cmp(&b.1)));
        cells.into_iter().take(t).map(|(_, c)| c).collect()
    }

    /// The cell containing an event, if inside the grid.
    pub fn cell_of_point(&self, p: &Point) -> Option<CellId> {
        self.grid.cell_of_point(p)
    }
}

/// Cuts word-major `planes` (word `w` of cell `c` at `w·cells + c`)
/// into membership lists, each distinct list stored once: returns the
/// lists, the empty one first, and each cell's index into them.
///
/// An all-zero cell takes index 0 without being hashed. Any other cell's
/// words are hashed where they lie in `planes` and looked up in an
/// open-addressing table of list indices, comparing against the stored
/// lists; only a list seen for the first time is copied out. The table's
/// vacant slot is 0, the empty list's index, which it never holds.
fn intern_cells(
    planes: &[u64],
    cells: usize,
    subscriber_count: usize,
) -> (Vec<SubscriberSet>, Vec<u32>) {
    let words = subscriber_count.div_ceil(64);
    let word = |cell: usize, w: usize| planes[w * cells + cell];
    let mut sets = vec![SubscriberSet::new(subscriber_count)];
    let mut set_of = vec![0u32; cells];
    // At least two slots per cell, so the table is at most half full.
    let table_bits = (2 * cells).next_power_of_two().trailing_zeros();
    let mut table = vec![0u32; 1 << table_bits];
    let mask = table.len() - 1;
    for (cell, set) in set_of.iter_mut().enumerate() {
        if (0..words).all(|w| word(cell, w) == 0) {
            continue;
        }
        let hash = (0..words).fold(0u64, |h, w| {
            (h.rotate_left(5) ^ word(cell, w)).wrapping_mul(0x517c_c1b7_2722_0a95)
        });
        let mut slot = (hash >> (64 - table_bits)) as usize;
        loop {
            let id = table[slot];
            if id == 0 {
                let id = u32::try_from(sets.len()).expect("fewer than 2^32 distinct lists");
                let copy = (0..words).map(|w| word(cell, w)).collect();
                sets.push(SubscriberSet::from_words(copy, subscriber_count));
                table[slot] = id;
                *set = id;
                break;
            }
            let stored = sets[id as usize].words();
            if stored.iter().enumerate().all(|(w, &x)| x == word(cell, w)) {
                *set = id;
                break;
            }
            slot = (slot + 1) & mask;
        }
    }
    // The model keeps the lists for the broker's life.
    sets.shrink_to_fit();
    (sets, set_of)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn grid() -> Grid {
        Grid::uniform(Rect::from_corners(&[0.0, 0.0], &[10.0, 10.0]).unwrap(), 5).unwrap()
    }

    #[test]
    fn membership_via_intersection() {
        let subs = vec![
            (
                0usize,
                Rect::from_corners(&[0.0, 0.0], &[4.0, 4.0]).unwrap(),
            ),
            (
                1usize,
                Rect::from_corners(&[3.0, 3.0], &[5.0, 5.0]).unwrap(),
            ),
        ];
        let model = GridModel::build(grid(), 2, &subs, |_| 0.0).unwrap();
        let g = model.grid().clone();
        // Cell (0,0) covers (0,2]x(0,2]: only subscriber 0.
        let c00 = g.id_of_coords(&[0, 0]);
        assert!(model.members(c00).contains(0));
        assert!(!model.members(c00).contains(1));
        // Cell (1,1) covers (2,4]x(2,4]: both.
        let c11 = g.id_of_coords(&[1, 1]);
        assert_eq!(model.members(c11).len(), 2);
        // Far corner: nobody.
        let c44 = g.id_of_coords(&[4, 4]);
        assert!(model.members(c44).is_empty());
    }

    #[test]
    fn unbounded_subscriptions_are_clamped() {
        let subs = vec![(
            0usize,
            Rect::new(vec![Interval::at_least(6.0), Interval::unbounded()]).unwrap(),
        )];
        let model = GridModel::build(grid(), 1, &subs, |_| 0.0).unwrap();
        // Columns 3..5 (x > 6) of every row contain subscriber 0.
        let g = model.grid().clone();
        for y in 0..5 {
            assert!(model.members(g.id_of_coords(&[4, y])).contains(0));
            assert!(model.members(g.id_of_coords(&[3, y])).contains(0));
            assert!(!model.members(g.id_of_coords(&[2, y])).contains(0));
        }
    }

    #[test]
    fn masses_come_from_density_callback() {
        let subs = vec![(
            0usize,
            Rect::from_corners(&[0.0, 0.0], &[10.0, 10.0]).unwrap(),
        )];
        let model = GridModel::build(grid(), 1, &subs, |r| r.volume()).unwrap();
        let g = model.grid().clone();
        let c = g.id_of_coords(&[2, 2]);
        assert!((model.mass(c) - 4.0).abs() < 1e-9);
        assert!((model.weight(c) - 4.0).abs() < 1e-9); // 1 member * 4.0
    }

    #[test]
    fn top_cells_ordering_and_filtering() {
        // Subscriber 0 everywhere; subscriber 1 adds weight in one cell.
        let subs = vec![
            (
                0usize,
                Rect::from_corners(&[0.0, 0.0], &[10.0, 10.0]).unwrap(),
            ),
            (
                1usize,
                Rect::from_corners(&[0.5, 0.5], &[1.0, 1.0]).unwrap(),
            ),
        ];
        let model = GridModel::build(grid(), 2, &subs, |_| 0.5).unwrap();
        let top = model.top_cells(3);
        assert_eq!(top.len(), 3);
        // The doubly-subscribed cell (0,0) must rank first.
        assert_eq!(top[0], model.grid().id_of_coords(&[0, 0]));
        // Weights are non-increasing.
        assert!(model.weight(top[0]) >= model.weight(top[1]));
        assert!(model.weight(top[1]) >= model.weight(top[2]));
        // Requesting more cells than exist returns all populated cells.
        let all = model.top_cells(10_000);
        assert_eq!(all.len(), 25);
    }

    #[test]
    fn empty_cells_excluded_from_top() {
        let subs = vec![(
            0usize,
            Rect::from_corners(&[0.0, 0.0], &[2.0, 2.0]).unwrap(),
        )];
        let model = GridModel::build(grid(), 1, &subs, |_| 1.0).unwrap();
        let top = model.top_cells(100);
        assert_eq!(top.len(), 1);
    }

    #[test]
    fn build_errors() {
        let subs = vec![(
            5usize,
            Rect::from_corners(&[0.0, 0.0], &[1.0, 1.0]).unwrap(),
        )];
        assert!(matches!(
            GridModel::build(grid(), 2, &subs, |_| 0.0),
            Err(ClusterError::SubscriberOutOfRange { subscriber: 5, .. })
        ));
        let subs = vec![(0usize, Rect::from_corners(&[0.0], &[1.0]).unwrap())];
        assert!(matches!(
            GridModel::build(grid(), 1, &subs, |_| 0.0),
            Err(ClusterError::DimensionMismatch { .. })
        ));
        let subs = vec![(
            0usize,
            Rect::from_corners(&[0.0, 0.0], &[1.0, 1.0]).unwrap(),
        )];
        assert!(matches!(
            GridModel::build(grid(), 1, &subs, |_| -1.0),
            Err(ClusterError::InvalidDensity { .. })
        ));
    }

    #[test]
    fn equal_member_lists_are_stored_once() {
        // 70 subscribers, two words per list. The first 64 take one of
        // three full-width bands, so every cell of a row has the same
        // first word and some rows are empty; the last six take one
        // short column strip each, so lists in the striped rows differ
        // only in their second word.
        let subs: Vec<(usize, Rect)> = (0..70usize)
            .map(|s| {
                let r = if s < 64 {
                    let y = (s % 3) as f64 * 2.5;
                    Rect::from_corners(&[0.0, y], &[10.0, y + 2.0])
                } else {
                    let x = (s - 64) as f64 * 1.5;
                    Rect::from_corners(&[x, 0.0], &[x + 1.0, 5.0])
                };
                (s, r.unwrap())
            })
            .collect();
        let model = GridModel::build(grid(), 70, &subs, |_| 0.0).unwrap();
        let g = model.grid().clone();
        let cells: Vec<CellId> = (0..g.cell_count()).map(CellId).collect();
        for &c in &cells {
            let mut want = SubscriberSet::new(70);
            for (s, r) in &subs {
                if g.cell_rect(c).intersects(r) {
                    want.insert(*s);
                }
            }
            assert_eq!(model.members(c), &want, "{c}");
        }
        let mut distinct: Vec<&SubscriberSet> = Vec::new();
        for &a in &cells {
            for &b in &cells {
                let shared = std::ptr::eq(model.members(a), model.members(b));
                assert_eq!(shared, model.members(a) == model.members(b), "{a} {b}");
            }
            if !distinct.contains(&model.members(a)) {
                distinct.push(model.members(a));
            }
        }
        assert!(distinct.iter().any(|s| s.is_empty()));
        assert!(distinct.len() < cells.len());
        assert_eq!(model.sets.len(), distinct.len());
    }

    #[test]
    fn cell_of_point_delegates_to_grid() {
        let model = GridModel::build(grid(), 0, &[], |_| 0.0).unwrap();
        let p = Point::new(vec![1.0, 1.0]).unwrap();
        assert_eq!(model.cell_of_point(&p), model.grid().cell_of_point(&p));
    }
}
