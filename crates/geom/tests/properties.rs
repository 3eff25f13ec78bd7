//! Property-based tests for the geometric substrate.

use proptest::prelude::*;
use pubsub_geom::{CellId, CellWalkBuf, Grid, Interval, Point, Rect};

fn interval_strategy() -> impl Strategy<Value = Interval> {
    (-100.0f64..100.0, 0.0f64..50.0)
        .prop_map(|(lo, len)| Interval::new(lo, lo + len).expect("ordered bounds"))
}

fn rect_strategy(dims: usize) -> impl Strategy<Value = Rect> {
    prop::collection::vec(interval_strategy(), dims)
        .prop_map(|sides| Rect::new(sides).expect("non-empty dims"))
}

fn point_strategy(dims: usize) -> impl Strategy<Value = Point> {
    prop::collection::vec(-120.0f64..120.0, dims)
        .prop_map(|coords| Point::new(coords).expect("finite coords"))
}

/// One side of a walked rectangle over grid bounds `(-50, 50]` cut into
/// `cells` cells: `kind` picks bounded, half-unbounded, wild-card, empty,
/// fully outside, or with both ends on cell boundaries (computed as the
/// grid computes them); `a`/`b` in `0..1` place it.
fn walked_side(kind: usize, a: f64, b: f64, cells: usize) -> Interval {
    let edge = |t: f64| -50.0 + (t * cells as f64).floor() * (100.0 / cells as f64);
    let (lo, hi) = (a.min(b), a.max(b));
    match kind {
        0 => Interval::at_least(-60.0 + 120.0 * a),
        1 => Interval::at_most(-60.0 + 120.0 * a),
        2 => Interval::unbounded(),
        3 => Interval::empty_at(-60.0 + 120.0 * a),
        4 => Interval::new(50.0 + 10.0 * lo, 51.0 + 10.0 * hi).unwrap(),
        5..=7 => Interval::new(edge(lo), edge(hi)).unwrap(),
        _ => Interval::new(-60.0 + 120.0 * lo, -60.0 + 120.0 * hi).unwrap(),
    }
}

/// A grid of 1..=4 dimensions with its own cell count per dimension, and
/// a rectangle to walk over it. Sides are mostly bounded so that most
/// rectangles meet some cells.
fn walk_case() -> impl Strategy<Value = (Grid, Rect)> {
    let side = (0usize..14, 0.0f64..1.0, 0.0f64..1.0, 1usize..6);
    prop::collection::vec(side, 1..5).prop_map(|sides| {
        let dims = sides.len();
        let bounds = Rect::from_corners(&vec![-50.0; dims], &vec![50.0; dims]).unwrap();
        let cells = sides.iter().map(|s| s.3).collect();
        let rect = sides
            .iter()
            .map(|&(kind, a, b, cells)| walked_side(kind, a, b, cells))
            .collect();
        (Grid::new(bounds, cells).unwrap(), Rect::new(rect).unwrap())
    })
}

/// A grid of 1..=4 dimensions, each with its own bounds and cell count,
/// and those counts.
fn grid_shape() -> impl Strategy<Value = (Grid, Vec<usize>)> {
    let side = (-100.0f64..100.0, 0.001f64..200.0, 1usize..8);
    prop::collection::vec(side, 1..5).prop_map(|sides| {
        let bounds = sides
            .iter()
            .map(|&(lo, len, _)| Interval::new(lo, lo + len).unwrap())
            .collect();
        let cells: Vec<usize> = sides.iter().map(|s| s.2).collect();
        (
            Grid::new(Rect::new(bounds).unwrap(), cells.clone()).unwrap(),
            cells,
        )
    })
}

fn side_bits(r: &Rect) -> Vec<(u64, u64)> {
    r.sides()
        .iter()
        .map(|s| (s.lo().to_bits(), s.hi().to_bits()))
        .collect()
}

proptest! {
    #[test]
    fn grid_cell_rect_into_writes_cell_rect_bit_for_bit((grid, cells) in grid_shape()) {
        // One rectangle reused across every cell, as the mass pass does:
        // what the previous cell left in it must not matter.
        let mut reused = Rect::unbounded(grid.dims());
        for id in (0..grid.cell_count()).map(CellId) {
            grid.cell_rect_into(id, &mut reused);
            let fresh = grid.cell_rect(id);
            prop_assert_eq!(side_bits(&reused), side_bits(&fresh), "{}", id);
            for (d, &c) in grid.coords_of_id(id).iter().enumerate() {
                let bound = grid.bounds().side(d);
                let w = bound.length() / cells[d] as f64;
                let side = fresh.side(d);
                prop_assert_eq!(side.lo().to_bits(), (bound.lo() + c as f64 * w).to_bits());
                if c + 1 == cells[d] {
                    // The last cell ends exactly on the grid bound.
                    prop_assert_eq!(side.hi().to_bits(), bound.hi().to_bits());
                } else {
                    let hi = bound.lo() + (c as f64 + 1.0) * w;
                    prop_assert_eq!(side.hi().to_bits(), hi.to_bits());
                }
            }
        }
    }

    #[test]
    fn grid_cell_runs_walk_the_bruteforce_set_in_order((grid, r) in walk_case()) {
        let clamped = r.clamp_to(grid.bounds());
        let brute: Vec<CellId> = (0..grid.cell_count())
            .map(CellId)
            .filter(|&id| grid.cell_rect(id).intersects(&clamped))
            .collect();
        // What an earlier walk left in the buffer must not matter.
        let mut buf = CellWalkBuf::default();
        let _ = grid.cell_runs(&Rect::unbounded(grid.dims()), &mut buf).count();
        let mut walked = Vec::new();
        for run in grid.cell_runs(&r, &mut buf) {
            prop_assert!(run.start < run.end, "empty run {:?}", run);
            prop_assert!(walked.last().is_none_or(|&CellId(last)| last < run.start));
            walked.extend(run.map(CellId));
        }
        prop_assert_eq!(&walked, &brute);
        prop_assert_eq!(grid.cells_intersecting(&r), brute);
    }

    #[test]
    fn interval_intersection_is_commutative_and_contained(
        a in interval_strategy(),
        b in interval_strategy(),
    ) {
        prop_assert_eq!(a.intersection(&b), b.intersection(&a));
        if let Some(i) = a.intersection(&b) {
            prop_assert!(a.contains_interval(&i));
            prop_assert!(b.contains_interval(&i));
            prop_assert!(i.length() <= a.length() + 1e-12);
        }
    }

    #[test]
    fn interval_hull_contains_both(a in interval_strategy(), b in interval_strategy()) {
        let h = a.hull(&b);
        prop_assert!(h.contains_interval(&a));
        prop_assert!(h.contains_interval(&b));
    }

    #[test]
    fn interval_membership_matches_intersection(
        a in interval_strategy(),
        b in interval_strategy(),
        samples in prop::collection::vec(-150.0f64..150.0, 20),
    ) {
        for x in samples {
            let in_both = a.contains(x) && b.contains(x);
            let in_intersection = a.intersection(&b).is_some_and(|i| i.contains(x));
            prop_assert_eq!(in_both, in_intersection);
        }
    }

    #[test]
    fn rect_intersects_iff_common_point_found(
        a in rect_strategy(3),
        b in rect_strategy(3),
    ) {
        // intersects() must agree with intersection() being non-empty.
        prop_assert_eq!(a.intersects(&b), a.intersection(&b).is_some());
        if let Some(i) = a.intersection(&b) {
            prop_assert!(!i.is_empty());
            prop_assert!(a.contains_rect(&i));
            prop_assert!(b.contains_rect(&i));
            // The closed corner of a non-empty half-open rect is a member.
            let corner = Point::new(i.sides().iter().map(|s| s.hi()).collect()).unwrap();
            prop_assert!(a.contains_point(&corner));
            prop_assert!(b.contains_point(&corner));
        }
    }

    #[test]
    fn rect_mbr_contains_operands_and_is_monotone_in_volume(
        a in rect_strategy(2),
        b in rect_strategy(2),
    ) {
        let m = a.mbr_with(&b);
        prop_assert!(m.contains_rect(&a));
        prop_assert!(m.contains_rect(&b));
        prop_assert!(m.volume() + 1e-9 >= a.volume().max(b.volume()));
    }

    #[test]
    fn rect_point_membership_implies_mbr_membership(
        a in rect_strategy(3),
        b in rect_strategy(3),
        p in point_strategy(3),
    ) {
        if a.contains_point(&p) || b.contains_point(&p) {
            prop_assert!(a.mbr_with(&b).contains_point(&p));
        }
    }

    #[test]
    fn clamp_always_contained_in_bounds(r in rect_strategy(3)) {
        let bounds = Rect::from_corners(&[-20.0, -20.0, -20.0], &[20.0, 20.0, 20.0]).unwrap();
        let c = r.clamp_to(&bounds);
        prop_assert!(bounds.contains_rect(&c));
    }

    #[test]
    fn grid_point_cell_roundtrip(
        coords in prop::collection::vec(0.0001f64..10.0, 3),
        cells in 1usize..7,
    ) {
        let bounds = Rect::from_corners(&[0.0, 0.0, 0.0], &[10.0, 10.0, 10.0]).unwrap();
        let grid = Grid::uniform(bounds, cells).unwrap();
        let p = Point::new(coords).unwrap();
        let id = grid.cell_of_point(&p).expect("interior point");
        prop_assert!(grid.cell_rect(id).contains_point(&p));
        // And no *other* cell contains it (half-open tiling is a partition).
        for other in 0..grid.cell_count() {
            if other != id.0 {
                prop_assert!(!grid.cell_rect(pubsub_geom::CellId(other)).contains_point(&p));
            }
        }
    }

    #[test]
    fn grid_cells_intersecting_matches_bruteforce(
        r in rect_strategy(2),
        cells in 1usize..9,
    ) {
        let bounds = Rect::from_corners(&[-50.0, -50.0], &[50.0, 50.0]).unwrap();
        let grid = Grid::uniform(bounds, cells).unwrap();
        let got = grid.cells_intersecting(&r);
        let brute: Vec<_> = (0..grid.cell_count())
            .map(pubsub_geom::CellId)
            .filter(|&id| grid.cell_rect(id).intersects(&r))
            .collect();
        prop_assert_eq!(got, brute);
    }

    #[test]
    fn grid_cell_of_point_matches_geometry(
        coords in prop::collection::vec(-49.9f64..49.9, 2),
        cells in 1usize..9,
    ) {
        let bounds = Rect::from_corners(&[-50.0, -50.0], &[50.0, 50.0]).unwrap();
        let grid = Grid::uniform(bounds, cells).unwrap();
        let p = Point::new(coords).unwrap();
        let by_lookup = grid.cell_of_point(&p);
        let by_geometry = (0..grid.cell_count())
            .map(pubsub_geom::CellId)
            .find(|&id| grid.cell_rect(id).contains_point(&p));
        prop_assert_eq!(by_lookup, by_geometry);
    }
}
