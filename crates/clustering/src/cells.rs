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
#[derive(Debug, Clone)]
pub struct GridModel {
    grid: Grid,
    subscriber_count: usize,
    masses: Vec<f64>,
    members: Vec<SubscriberSet>,
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
    /// words are cut into per-cell [`SubscriberSet`]s once at the end.
    /// OR is commutative and idempotent, so the model depends only on
    /// which `(subscriber, cell)` pairs the items cover, not on how they
    /// are grouped or ordered. Nothing is allocated per item.
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
        let members = (0..cell_count)
            .map(|cell| {
                let words = (0..words_per_set)
                    .map(|w| planes[w * cell_count + cell])
                    .collect();
                SubscriberSet::from_words(words, subscriber_count)
            })
            .collect();
        let mut masses = Vec::with_capacity(cell_count);
        for i in 0..cell_count {
            let m = density(&grid.cell_rect(CellId(i)));
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
            members,
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
        &self.members[cell.0]
    }

    /// The cell weight `p_p(g)·|l(g)|` used to select the working set.
    pub fn weight(&self, cell: CellId) -> f64 {
        self.masses[cell.0] * self.members[cell.0].len() as f64
    }

    /// The `t` heaviest cells with non-empty membership, by decreasing
    /// weight (ties broken toward lower cell ids). This is the list `h` of
    /// Appendix A; fewer than `t` cells are returned when the grid has
    /// fewer populated cells.
    pub fn top_cells(&self, t: usize) -> Vec<CellId> {
        let mut cells: Vec<(f64, CellId)> = (0..self.grid.cell_count())
            .map(CellId)
            .filter(|&c| !self.members[c.0].is_empty())
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
    fn cell_of_point_delegates_to_grid() {
        let model = GridModel::build(grid(), 0, &[], |_| 0.0).unwrap();
        let p = Point::new(vec![1.0, 1.0]).unwrap();
        assert_eq!(model.cell_of_point(&p), model.grid().cell_of_point(&p));
    }
}
