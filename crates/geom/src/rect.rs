use std::fmt;

use crate::{GeomError, Interval, Point};

/// An axis-aligned rectangle in `R^N`: the geometric form of a subscription.
///
/// Each dimension is a half-open [`Interval`] `(lo, hi]`. A rectangle is
/// *empty* if any of its projections is empty.
///
/// # Example
///
/// ```
/// use pubsub_geom::{Interval, Point, Rect};
///
/// # fn main() -> Result<(), pubsub_geom::GeomError> {
/// let sub = Rect::new(vec![
///     Interval::new(75.0, 80.0)?,   // price
///     Interval::at_least(999.0),    // volume >= 1000
/// ])?;
/// assert!(sub.contains_point(&Point::new(vec![78.0, 2000.0])?));
/// assert!(!sub.contains_point(&Point::new(vec![78.0, 500.0])?));
/// # Ok(())
/// # }
/// ```
#[derive(Clone, PartialEq)]
pub struct Rect {
    sides: Vec<Interval>,
}

impl Rect {
    /// Creates a rectangle from its per-dimension intervals.
    ///
    /// # Errors
    ///
    /// Returns [`GeomError::ZeroDimensional`] if `sides` is empty.
    pub fn new(sides: Vec<Interval>) -> Result<Self, GeomError> {
        if sides.is_empty() {
            return Err(GeomError::ZeroDimensional);
        }
        Ok(Rect { sides })
    }

    /// The rectangle covering all of `R^N` (a fully wild-card subscription).
    ///
    /// # Panics
    ///
    /// Panics if `dims == 0`.
    pub fn unbounded(dims: usize) -> Self {
        assert!(dims > 0, "rectangle must have at least one dimension");
        Rect {
            sides: vec![Interval::unbounded(); dims],
        }
    }

    /// Builds the rectangle `(lo, hi]` per dimension from two corner slices.
    ///
    /// # Errors
    ///
    /// Propagates interval construction errors and returns
    /// [`GeomError::DimensionMismatch`] if the slices differ in length.
    pub fn from_corners(lo: &[f64], hi: &[f64]) -> Result<Self, GeomError> {
        if lo.len() != hi.len() {
            return Err(GeomError::DimensionMismatch {
                expected: lo.len(),
                got: hi.len(),
            });
        }
        let sides = lo
            .iter()
            .zip(hi)
            .map(|(&l, &h)| Interval::new(l, h))
            .collect::<Result<Vec<_>, _>>()?;
        Rect::new(sides)
    }

    /// Number of dimensions.
    pub fn dims(&self) -> usize {
        self.sides.len()
    }

    /// The projection of the rectangle onto dimension `d`.
    ///
    /// # Panics
    ///
    /// Panics if `d >= self.dims()`.
    pub fn side(&self, d: usize) -> &Interval {
        &self.sides[d]
    }

    /// Replaces the projection onto dimension `d`, so one rectangle can
    /// serve as reused scratch for a loop over many bounds.
    ///
    /// # Panics
    ///
    /// Panics if `d >= self.dims()`.
    pub fn set_side(&mut self, d: usize, side: Interval) {
        self.sides[d] = side;
    }

    /// All per-dimension intervals.
    pub fn sides(&self) -> &[Interval] {
        &self.sides
    }

    /// `true` if any projection is empty (the rectangle contains no point).
    pub fn is_empty(&self) -> bool {
        self.sides.iter().any(Interval::is_empty)
    }

    /// `true` if every projection is finite.
    pub fn is_finite(&self) -> bool {
        self.sides.iter().all(Interval::is_finite)
    }

    /// Point-membership test (the *matching* predicate of the paper):
    /// `p ∈ rect ⇔ ∀d: lo_d < p_d ≤ hi_d`.
    ///
    /// # Panics
    ///
    /// Panics if dimensionalities differ; indexes in hot query paths are
    /// validated once at index-build time instead of per query.
    pub fn contains_point(&self, p: &Point) -> bool {
        debug_assert_eq!(self.dims(), p.dims());
        self.sides
            .iter()
            .zip(p.as_slice())
            .all(|(side, &x)| side.contains(x))
    }

    /// `true` if `other` is fully contained in `self`.
    pub fn contains_rect(&self, other: &Rect) -> bool {
        debug_assert_eq!(self.dims(), other.dims());
        other.is_empty()
            || self
                .sides
                .iter()
                .zip(&other.sides)
                .all(|(a, b)| a.contains_interval(b))
    }

    /// `true` if the rectangles share at least one point.
    pub fn intersects(&self, other: &Rect) -> bool {
        debug_assert_eq!(self.dims(), other.dims());
        self.sides
            .iter()
            .zip(&other.sides)
            .all(|(a, b)| a.intersects(b))
    }

    /// The intersection, or `None` if the rectangles are disjoint.
    pub fn intersection(&self, other: &Rect) -> Option<Rect> {
        debug_assert_eq!(self.dims(), other.dims());
        let mut sides = Vec::with_capacity(self.dims());
        for (a, b) in self.sides.iter().zip(&other.sides) {
            sides.push(a.intersection(b)?);
        }
        Some(Rect { sides })
    }

    /// The minimum bounding rectangle of the two operands.
    pub fn mbr_with(&self, other: &Rect) -> Rect {
        debug_assert_eq!(self.dims(), other.dims());
        Rect {
            sides: self
                .sides
                .iter()
                .zip(&other.sides)
                .map(|(a, b)| a.hull(b))
                .collect(),
        }
    }

    /// The minimum bounding rectangle of a non-empty collection.
    ///
    /// Returns `None` for an empty iterator.
    pub fn bounding<'a, I>(rects: I) -> Option<Rect>
    where
        I: IntoIterator<Item = &'a Rect>,
    {
        let mut it = rects.into_iter();
        let first = it.next()?.clone();
        Some(it.fold(first, |acc, r| acc.mbr_with(r)))
    }

    /// The volume `V(I) = Π_d (hi_d − lo_d)`; `+∞` if any side is unbounded,
    /// `0` if any side is degenerate.
    pub fn volume(&self) -> f64 {
        self.sides.iter().map(Interval::length).product()
    }

    /// The *margin*: the sum of the side lengths. The paper breaks sweep
    /// ties by "total perimeter", which in `N` dimensions is proportional to
    /// this quantity, so minimizing margin minimizes perimeter.
    pub fn margin(&self) -> f64 {
        self.sides.iter().map(Interval::length).sum()
    }

    /// The geometric center (used to order objects during binarization).
    pub fn center(&self) -> Point {
        // Interval::center is always finite, so this cannot fail.
        Point::new(self.sides.iter().map(Interval::center).collect())
            .expect("rect has >= 1 dimension and finite centers")
    }

    /// The dimension along which the rectangle is longest, breaking ties in
    /// favor of the lowest index. Infinite sides win over finite ones.
    pub fn longest_dim(&self) -> usize {
        let mut best = 0usize;
        let mut best_len = self.sides[0].length();
        for (d, side) in self.sides.iter().enumerate().skip(1) {
            let len = side.length();
            if len > best_len {
                best = d;
                best_len = len;
            }
        }
        best
    }

    /// Clamps every side into the corresponding side of `bounds`.
    ///
    /// Disjoint sides collapse to an empty interval on the boundary, so the
    /// result is always contained in `bounds`.
    pub fn clamp_to(&self, bounds: &Rect) -> Rect {
        debug_assert_eq!(self.dims(), bounds.dims());
        Rect {
            sides: self
                .sides
                .iter()
                .zip(&bounds.sides)
                .map(|(s, b)| s.clamp_to(b))
                .collect(),
        }
    }
}

impl fmt::Debug for Rect {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Rect[")?;
        for (i, s) in self.sides.iter().enumerate() {
            if i > 0 {
                write!(f, " × ")?;
            }
            write!(f, "{s}")?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rect(lo: &[f64], hi: &[f64]) -> Rect {
        Rect::from_corners(lo, hi).unwrap()
    }

    #[test]
    fn construction_errors() {
        assert_eq!(Rect::new(vec![]), Err(GeomError::ZeroDimensional));
        assert!(matches!(
            Rect::from_corners(&[0.0], &[1.0, 2.0]),
            Err(GeomError::DimensionMismatch { .. })
        ));
        assert!(matches!(
            Rect::from_corners(&[2.0], &[1.0]),
            Err(GeomError::InvertedInterval { .. })
        ));
    }

    #[test]
    fn containment_is_half_open_per_dimension() {
        let r = rect(&[0.0, 0.0], &[10.0, 5.0]);
        assert!(r.contains_point(&Point::new(vec![10.0, 5.0]).unwrap()));
        assert!(!r.contains_point(&Point::new(vec![0.0, 2.0]).unwrap()));
        assert!(!r.contains_point(&Point::new(vec![5.0, 0.0]).unwrap()));
    }

    #[test]
    fn intersection_behaviour() {
        let a = rect(&[0.0, 0.0], &[10.0, 10.0]);
        let b = rect(&[5.0, 5.0], &[15.0, 15.0]);
        assert!(a.intersects(&b));
        let i = a.intersection(&b).unwrap();
        assert_eq!(i, rect(&[5.0, 5.0], &[10.0, 10.0]));

        // Touching along a shared boundary: half-open means disjoint.
        let c = rect(&[10.0, 0.0], &[20.0, 10.0]);
        assert!(!a.intersects(&c));
        assert!(a.intersection(&c).is_none());
    }

    #[test]
    fn mbr_and_bounding() {
        let a = rect(&[0.0, 0.0], &[1.0, 1.0]);
        let b = rect(&[5.0, -2.0], &[6.0, 0.5]);
        let m = a.mbr_with(&b);
        assert_eq!(m, rect(&[0.0, -2.0], &[6.0, 1.0]));
        assert!(m.contains_rect(&a) && m.contains_rect(&b));

        let all = Rect::bounding([&a, &b]).unwrap();
        assert_eq!(all, m);
        assert!(Rect::bounding(std::iter::empty()).is_none());
    }

    #[test]
    fn volume_margin_center() {
        let r = rect(&[0.0, 0.0, 0.0], &[2.0, 3.0, 4.0]);
        assert_eq!(r.volume(), 24.0);
        assert_eq!(r.margin(), 9.0);
        assert_eq!(r.center().as_slice(), &[1.0, 1.5, 2.0]);

        let unbounded = Rect::new(vec![
            Interval::new(0.0, 1.0).unwrap(),
            Interval::at_least(5.0),
        ])
        .unwrap();
        assert_eq!(unbounded.volume(), f64::INFINITY);
        assert!(!unbounded.is_finite());
    }

    #[test]
    fn longest_dim_prefers_first_on_ties_and_infinite_sides() {
        let r = rect(&[0.0, 0.0], &[3.0, 3.0]);
        assert_eq!(r.longest_dim(), 0);
        let r2 = rect(&[0.0, 0.0], &[3.0, 4.0]);
        assert_eq!(r2.longest_dim(), 1);
        let r3 = Rect::new(vec![
            Interval::new(0.0, 100.0).unwrap(),
            Interval::at_least(0.0),
        ])
        .unwrap();
        assert_eq!(r3.longest_dim(), 1);
    }

    #[test]
    fn clamp_produces_contained_rect() {
        let bounds = rect(&[0.0, 0.0], &[20.0, 20.0]);
        let sub = Rect::new(vec![Interval::at_least(15.0), Interval::unbounded()]).unwrap();
        let clamped = sub.clamp_to(&bounds);
        assert!(bounds.contains_rect(&clamped));
        assert_eq!(clamped, rect(&[15.0, 0.0], &[20.0, 20.0]));

        // Fully outside the bounds: collapses to an empty rect on the edge.
        let out = rect(&[30.0, 30.0], &[40.0, 40.0]);
        let c = out.clamp_to(&bounds);
        assert!(c.is_empty());
        assert!(bounds.contains_rect(&c));
    }

    #[test]
    fn empty_rect_is_contained_everywhere_and_intersects_nothing() {
        let bounds = rect(&[0.0], &[10.0]);
        let empty = Rect::new(vec![Interval::empty_at(5.0)]).unwrap();
        assert!(empty.is_empty());
        assert!(bounds.contains_rect(&empty));
        assert!(!empty.intersects(&bounds));
    }

    #[test]
    fn debug_rendering() {
        let r = rect(&[0.0, 1.0], &[2.0, 3.0]);
        assert_eq!(format!("{r:?}"), "Rect[(0, 2] × (1, 3]]");
    }
}
