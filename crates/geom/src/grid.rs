use std::fmt;
use std::ops::Range;

use crate::{GeomError, Interval, Point, Rect};

/// Identifier of a grid cell: the linearized (row-major) cell index.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct CellId(pub usize);

impl fmt::Display for CellId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "cell#{}", self.0)
    }
}

/// Per-dimension integer coordinates of a grid cell.
pub type CellCoords = Vec<usize>;

/// A regular grid over a finite bounding rectangle.
///
/// The subscription-clustering framework (paper §4 / Appendix A) partitions
/// the event space into at most `C` equal-width half-open cells per
/// dimension. Cell `i` along a dimension with bounds `(lo, hi]` and width
/// `w = (hi-lo)/C` covers `(lo + i·w, lo + (i+1)·w]`, so the cells tile the
/// bounds exactly.
///
/// # Example
///
/// ```
/// use pubsub_geom::{Grid, Point, Rect};
///
/// # fn main() -> Result<(), pubsub_geom::GeomError> {
/// let bounds = Rect::from_corners(&[0.0, 0.0], &[10.0, 10.0])?;
/// let grid = Grid::new(bounds, vec![5, 5])?;
/// let cell = grid.cell_of_point(&Point::new(vec![3.0, 7.5])?).unwrap();
/// assert!(grid.cell_rect(cell).contains_point(&Point::new(vec![3.0, 7.5])?));
/// # Ok(())
/// # }
/// ```
#[derive(Clone, PartialEq, Debug)]
pub struct Grid {
    bounds: Rect,
    cells_per_dim: Vec<usize>,
    /// Row-major strides; `strides[d]` is the linear-index step of one cell
    /// along dimension `d`.
    strides: Vec<usize>,
    widths: Vec<f64>,
}

impl Grid {
    /// Creates a grid over `bounds` with `cells_per_dim[d]` cells along
    /// dimension `d`.
    ///
    /// # Errors
    ///
    /// * [`GeomError::DimensionMismatch`] if `cells_per_dim.len()` differs
    ///   from `bounds.dims()`;
    /// * [`GeomError::EmptyGridAxis`] if any cell count is zero;
    /// * [`GeomError::UnboundedGrid`] if any side of `bounds` is not finite.
    pub fn new(bounds: Rect, cells_per_dim: Vec<usize>) -> Result<Self, GeomError> {
        if cells_per_dim.len() != bounds.dims() {
            return Err(GeomError::DimensionMismatch {
                expected: bounds.dims(),
                got: cells_per_dim.len(),
            });
        }
        for (d, side) in bounds.sides().iter().enumerate() {
            if !side.is_finite() {
                return Err(GeomError::UnboundedGrid { dim: d });
            }
        }
        if let Some(dim) = cells_per_dim.iter().position(|&c| c == 0) {
            return Err(GeomError::EmptyGridAxis { dim });
        }
        let mut strides = vec![0usize; cells_per_dim.len()];
        let mut acc = 1usize;
        for d in (0..cells_per_dim.len()).rev() {
            strides[d] = acc;
            acc = acc
                .checked_mul(cells_per_dim[d])
                .expect("grid cell count overflows usize");
        }
        let widths = bounds
            .sides()
            .iter()
            .zip(&cells_per_dim)
            .map(|(side, &c)| side.length() / c as f64)
            .collect();
        Ok(Grid {
            bounds,
            cells_per_dim,
            strides,
            widths,
        })
    }

    /// Creates a grid with the same number of cells along every dimension.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Grid::new`].
    pub fn uniform(bounds: Rect, cells: usize) -> Result<Self, GeomError> {
        let dims = bounds.dims();
        Grid::new(bounds, vec![cells; dims])
    }

    /// The grid's bounding rectangle.
    pub fn bounds(&self) -> &Rect {
        &self.bounds
    }

    /// Number of dimensions.
    pub fn dims(&self) -> usize {
        self.cells_per_dim.len()
    }

    /// Total number of cells.
    pub fn cell_count(&self) -> usize {
        self.cells_per_dim.iter().product()
    }

    /// Converts per-dimension coordinates to the linear cell id.
    ///
    /// # Panics
    ///
    /// Panics (debug) if a coordinate is out of range.
    pub fn id_of_coords(&self, coords: &[usize]) -> CellId {
        debug_assert_eq!(coords.len(), self.dims());
        let mut id = 0usize;
        for (d, &c) in coords.iter().enumerate() {
            debug_assert!(c < self.cells_per_dim[d]);
            id += c * self.strides[d];
        }
        CellId(id)
    }

    /// Converts a linear cell id back to per-dimension coordinates.
    pub fn coords_of_id(&self, id: CellId) -> CellCoords {
        let mut rem = id.0;
        let mut coords = Vec::with_capacity(self.dims());
        for d in 0..self.dims() {
            coords.push(rem / self.strides[d]);
            rem %= self.strides[d];
        }
        coords
    }

    /// Index along dimension `d` of the cell containing coordinate `x`, or
    /// `None` if `x` lies outside the grid bounds on that dimension.
    fn axis_cell(&self, d: usize, x: f64) -> Option<usize> {
        let side = self.bounds.side(d);
        if !side.contains(x) {
            return None;
        }
        let w = self.widths[d];
        let mut i = ((x - side.lo()) / w).floor() as isize;
        // Half-open cells: a coordinate exactly on an internal boundary
        // `lo + i·w` belongs to cell `i-1`; floating error can also push the
        // quotient one cell too far in either direction, so fix up locally.
        while i > 0 && x <= side.lo() + i as f64 * w {
            i -= 1;
        }
        while ((i + 1) as f64) * w + side.lo() < x {
            i += 1;
        }
        Some((i.max(0) as usize).min(self.cells_per_dim[d] - 1))
    }

    /// The cell containing `p`, or `None` if `p` is outside the grid.
    pub fn cell_of_point(&self, p: &Point) -> Option<CellId> {
        debug_assert_eq!(p.dims(), self.dims());
        let mut id = 0usize;
        for d in 0..self.dims() {
            id += self.axis_cell(d, p.coord(d))? * self.strides[d];
        }
        Some(CellId(id))
    }

    /// The rectangle covered by a cell.
    ///
    /// # Panics
    ///
    /// Panics if the id is out of range.
    pub fn cell_rect(&self, id: CellId) -> Rect {
        let mut rect = self.bounds.clone();
        self.cell_rect_into(id, &mut rect);
        rect
    }

    /// Writes the rectangle covered by a cell into `out`, side by side:
    /// [`Grid::cell_rect`] without allocating, so a loop over many cells
    /// can reuse one rectangle.
    ///
    /// # Panics
    ///
    /// Panics if the id is out of range or `out` has other than
    /// [`Grid::dims`] dimensions.
    pub fn cell_rect_into(&self, id: CellId, out: &mut Rect) {
        assert!(id.0 < self.cell_count(), "cell id out of range");
        assert_eq!(out.dims(), self.dims(), "cell rectangle dimensionality");
        let mut rem = id.0;
        for d in 0..self.dims() {
            let c = rem / self.strides[d];
            rem %= self.strides[d];
            let side = self.bounds.side(d);
            let w = self.widths[d];
            let lo = side.lo() + c as f64 * w;
            // Use the exact grid bound for the last cell so the cells
            // tile the bounds without floating gaps.
            let hi = if c + 1 == self.cells_per_dim[d] {
                side.hi()
            } else {
                side.lo() + (c as f64 + 1.0) * w
            };
            out.set_side(d, Interval::new(lo, hi).expect("cell bounds are ordered"));
        }
    }

    /// Walks the cells whose rectangles meet `r` clamped to the grid
    /// bounds, as runs of consecutive cell ids in ascending order: one
    /// run per combination of outer-dimension indices, spanning the
    /// intersected cells of the last dimension (whose stride is 1).
    ///
    /// `buf` holds the per-dimension index ranges; with a buffer reused
    /// across calls the walk allocates nothing. An empty or fully-outside
    /// rectangle yields no run.
    pub fn cell_runs<'a>(&'a self, r: &Rect, buf: &'a mut CellWalkBuf) -> CellRuns<'a> {
        debug_assert_eq!(r.dims(), self.dims());
        let empty = CellRuns {
            strides: &[],
            outer: &mut [],
            next: None,
            run: 0,
        };
        buf.axes.clear();
        for d in 0..self.dims() {
            let side = self.bounds.side(d);
            let Some(q) = r.side(d).intersection(side) else {
                return empty;
            };
            let w = self.widths[d];
            // First cell i with lo + (i+1)w > q.lo.
            let mut i_min = ((q.lo() - side.lo()) / w).floor().max(0.0) as usize;
            while side.lo() + (i_min as f64 + 1.0) * w <= q.lo() {
                i_min += 1;
            }
            // Last cell i with lo + i·w < q.hi.
            let mut i_max = (((q.hi() - side.lo()) / w).ceil() as isize - 1)
                .clamp(0, self.cells_per_dim[d] as isize - 1) as usize;
            while i_max > 0 && side.lo() + i_max as f64 * w >= q.hi() {
                i_max -= 1;
            }
            i_min = i_min.min(self.cells_per_dim[d] - 1);
            if i_min > i_max {
                return empty;
            }
            buf.axes.push(AxisRange {
                lo: i_min,
                hi: i_max,
                at: i_min,
            });
        }
        let (outer, last) = buf.axes.split_at_mut(self.dims() - 1);
        let first: usize = outer
            .iter()
            .zip(&self.strides)
            .map(|(axis, stride)| axis.lo * stride)
            .sum();
        CellRuns {
            strides: &self.strides[..outer.len()],
            outer,
            next: Some(first + last[0].lo),
            run: last[0].hi - last[0].lo + 1,
        }
    }

    /// All cell ids whose rectangles intersect `r` (in ascending id
    /// order), collected from [`Grid::cell_runs`] — the allocating form
    /// for one-off queries and tests; per-subscription loops hold a
    /// [`CellWalkBuf`] and walk the runs directly.
    ///
    /// An empty or fully-outside rectangle yields an empty vector.
    pub fn cells_intersecting(&self, r: &Rect) -> Vec<CellId> {
        self.cell_runs(r, &mut CellWalkBuf::default())
            .flatten()
            .map(CellId)
            .collect()
    }
}

/// Inclusive cell-index range of one dimension, with the odometer's
/// current position in it.
#[derive(Clone, Copy, Debug)]
struct AxisRange {
    lo: usize,
    hi: usize,
    at: usize,
}

/// Caller-held scratch of [`Grid::cell_runs`]: the per-dimension index
/// ranges of the rectangle being walked. Keep one per loop so every walk
/// after the first reuses its storage.
#[derive(Clone, Debug, Default)]
pub struct CellWalkBuf {
    axes: Vec<AxisRange>,
}

/// The walk [`Grid::cell_runs`] returns: ranges of consecutive cell ids,
/// ascending and disjoint.
#[derive(Debug)]
pub struct CellRuns<'a> {
    /// Strides and ranges of every dimension but the last.
    strides: &'a [usize],
    outer: &'a mut [AxisRange],
    /// First cell id of the run `next()` yields, `None` once exhausted.
    next: Option<usize>,
    /// Cells per run: the last dimension's range length.
    run: usize,
}

impl Iterator for CellRuns<'_> {
    type Item = Range<usize>;

    fn next(&mut self) -> Option<Range<usize>> {
        let start = self.next?;
        // Odometer step over the outer dimensions, innermost first.
        let mut id = start;
        self.next = None;
        for (axis, &stride) in self.outer.iter_mut().zip(self.strides).rev() {
            if axis.at < axis.hi {
                axis.at += 1;
                self.next = Some(id + stride);
                break;
            }
            id -= (axis.at - axis.lo) * stride;
            axis.at = axis.lo;
        }
        Some(start..start + self.run)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn grid_2d() -> Grid {
        let bounds = Rect::from_corners(&[0.0, 0.0], &[10.0, 10.0]).unwrap();
        Grid::new(bounds, vec![5, 2]).unwrap()
    }

    #[test]
    fn construction_errors() {
        let bounds = Rect::from_corners(&[0.0, 0.0], &[1.0, 1.0]).unwrap();
        assert!(matches!(
            Grid::new(bounds.clone(), vec![2]),
            Err(GeomError::DimensionMismatch { .. })
        ));
        assert!(matches!(
            Grid::new(bounds, vec![2, 0]),
            Err(GeomError::EmptyGridAxis { dim: 1 })
        ));
        let unbounded = Rect::new(vec![Interval::at_least(0.0)]).unwrap();
        assert!(matches!(
            Grid::new(unbounded, vec![4]),
            Err(GeomError::UnboundedGrid { dim: 0 })
        ));
    }

    #[test]
    fn counts_and_coords_roundtrip() {
        let g = grid_2d();
        assert_eq!(g.cell_count(), 10);
        assert_eq!(g.dims(), 2);
        for id in 0..g.cell_count() {
            let coords = g.coords_of_id(CellId(id));
            assert_eq!(g.id_of_coords(&coords), CellId(id));
        }
    }

    #[test]
    fn point_to_cell_respects_half_open_boundaries() {
        let g = grid_2d(); // widths: 2.0 and 5.0
        let cell = |x: f64, y: f64| g.cell_of_point(&Point::new(vec![x, y]).unwrap());

        // Interior point.
        assert_eq!(cell(1.0, 1.0), Some(g.id_of_coords(&[0, 0])));
        // Exactly on an internal boundary -> belongs to the lower cell.
        assert_eq!(cell(2.0, 5.0), Some(g.id_of_coords(&[0, 0])));
        assert_eq!(cell(2.0001, 5.0001), Some(g.id_of_coords(&[1, 1])));
        // Upper-right corner belongs to the last cell.
        assert_eq!(cell(10.0, 10.0), Some(g.id_of_coords(&[4, 1])));
        // The lower-left corner is *outside* (open on the left).
        assert_eq!(cell(0.0, 1.0), None);
        // Fully outside.
        assert_eq!(cell(11.0, 1.0), None);
    }

    #[test]
    fn cell_rects_tile_the_bounds() {
        let g = grid_2d();
        let total: f64 = (0..g.cell_count())
            .map(|i| g.cell_rect(CellId(i)).volume())
            .sum();
        assert!((total - g.bounds().volume()).abs() < 1e-9);
        // No two cells intersect (half-open tiling).
        for i in 0..g.cell_count() {
            for j in (i + 1)..g.cell_count() {
                assert!(!g.cell_rect(CellId(i)).intersects(&g.cell_rect(CellId(j))));
            }
        }
    }

    #[test]
    fn cells_intersecting_rect() {
        let g = grid_2d();
        // A rect inside cell (1,0) only: (2,4] x (0,5].
        let r = Rect::from_corners(&[2.5, 1.0], &[3.5, 2.0]).unwrap();
        assert_eq!(g.cells_intersecting(&r), vec![g.id_of_coords(&[1, 0])]);

        // A rect touching cells (0..=2, 0..=1).
        let r2 = Rect::from_corners(&[1.0, 4.0], &[4.5, 6.0]).unwrap();
        let got = g.cells_intersecting(&r2);
        let want: Vec<CellId> = [(0, 0), (0, 1), (1, 0), (1, 1), (2, 0), (2, 1)]
            .iter()
            .map(|&(a, b)| g.id_of_coords(&[a, b]))
            .collect();
        let mut want = want;
        want.sort();
        assert_eq!(got, want);

        // A rect whose low edge sits exactly on a cell boundary does NOT
        // intersect the lower cell (half-open).
        let r3 = Rect::from_corners(&[2.0, 0.0], &[4.0, 5.0]).unwrap();
        assert_eq!(g.cells_intersecting(&r3), vec![g.id_of_coords(&[1, 0])]);

        // Disjoint from the grid.
        let r4 = Rect::from_corners(&[20.0, 20.0], &[30.0, 30.0]).unwrap();
        assert!(g.cells_intersecting(&r4).is_empty());
    }

    #[test]
    fn cells_intersecting_agrees_with_geometry() {
        let g = grid_2d();
        let r = Rect::from_corners(&[1.5, 2.5], &[8.0, 9.0]).unwrap();
        let got = g.cells_intersecting(&r);
        let brute: Vec<CellId> = (0..g.cell_count())
            .map(CellId)
            .filter(|&id| g.cell_rect(id).intersects(&r))
            .collect();
        assert_eq!(got, brute);
    }

    #[test]
    fn unbounded_query_rect_covers_everything() {
        let g = grid_2d();
        let all = g.cells_intersecting(&Rect::unbounded(2));
        assert_eq!(all.len(), g.cell_count());
    }

    #[test]
    fn uniform_constructor() {
        let bounds = Rect::from_corners(&[0.0, 0.0, 0.0], &[1.0, 1.0, 1.0]).unwrap();
        let g = Grid::uniform(bounds, 3).unwrap();
        assert_eq!(g.cell_count(), 27);
    }
}
