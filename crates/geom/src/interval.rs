use std::fmt;

use crate::GeomError;

/// A half-open interval `(lo, hi]` on the real line.
///
/// Following the paper (§1), all predicate ranges are *open on the left and
/// closed on the right*, so that adjacent ranges such as `(0, 5]` and
/// `(5, 10]` tile the line without overlap. Unbounded predicates are
/// represented with infinite endpoints: `volume ≥ 1000` becomes
/// `(999, +∞)` via [`Interval::at_least`].
///
/// An interval with `lo == hi` is *empty* — it contains no point. Empty
/// intervals arise naturally from intersections and are legal values.
///
/// # Example
///
/// ```
/// use pubsub_geom::Interval;
///
/// # fn main() -> Result<(), pubsub_geom::GeomError> {
/// let price = Interval::new(75.0, 80.0)?;
/// assert!(price.contains(80.0));
/// assert!(!price.contains(75.0)); // open on the left
/// # Ok(())
/// # }
/// ```
#[derive(Clone, Copy, PartialEq)]
pub struct Interval {
    lo: f64,
    hi: f64,
}

impl Interval {
    /// Creates the interval `(lo, hi]`.
    ///
    /// # Errors
    ///
    /// Returns [`GeomError::NotANumber`] if either bound is NaN and
    /// [`GeomError::InvertedInterval`] if `lo > hi`. `lo == hi` is allowed
    /// and yields the empty interval.
    pub fn new(lo: f64, hi: f64) -> Result<Self, GeomError> {
        if lo.is_nan() || hi.is_nan() {
            return Err(GeomError::NotANumber);
        }
        if lo > hi {
            return Err(GeomError::InvertedInterval {
                lo: lo.to_string(),
                hi: hi.to_string(),
            });
        }
        Ok(Interval { lo, hi })
    }

    /// The whole real line `(-∞, +∞)` — a wild-card predicate.
    pub fn unbounded() -> Self {
        Interval {
            lo: f64::NEG_INFINITY,
            hi: f64::INFINITY,
        }
    }

    /// The interval `(lo, +∞)`, i.e. the predicate `x > lo`.
    pub fn greater_than(lo: f64) -> Self {
        Interval {
            lo,
            hi: f64::INFINITY,
        }
    }

    /// The interval `(lo, +∞)` expressed as `x ≥ v` over a discrete domain:
    /// equivalent to [`Interval::greater_than`]`(v - 1.0)` is *not* implied;
    /// this is simply `greater_than(lo)` kept for readability at call sites
    /// that think in "at least" terms (`at_least(999.0)` ⇔ `volume ≥ 1000`
    /// for integer volumes).
    pub fn at_least(lo: f64) -> Self {
        Self::greater_than(lo)
    }

    /// The interval `(-∞, hi]`, i.e. the predicate `x ≤ hi`.
    pub fn at_most(hi: f64) -> Self {
        Interval {
            lo: f64::NEG_INFINITY,
            hi,
        }
    }

    /// An empty interval anchored at `v` (`(v, v]`).
    pub fn empty_at(v: f64) -> Self {
        Interval { lo: v, hi: v }
    }

    /// The lower (open) bound.
    pub fn lo(&self) -> f64 {
        self.lo
    }

    /// The upper (closed) bound.
    pub fn hi(&self) -> f64 {
        self.hi
    }

    /// `true` if the interval contains no points (`lo == hi`).
    pub fn is_empty(&self) -> bool {
        self.lo >= self.hi
    }

    /// `true` if both bounds are finite.
    pub fn is_finite(&self) -> bool {
        self.lo.is_finite() && self.hi.is_finite()
    }

    /// The length `hi - lo` (may be `+∞`).
    pub fn length(&self) -> f64 {
        self.hi - self.lo
    }

    /// Membership test: `lo < x ≤ hi`.
    pub fn contains(&self, x: f64) -> bool {
        self.lo < x && x <= self.hi
    }

    /// `true` if `other` is a subset of `self` (the empty interval is a
    /// subset of everything).
    pub fn contains_interval(&self, other: &Interval) -> bool {
        other.is_empty() || (self.lo <= other.lo && other.hi <= self.hi)
    }

    /// `true` if the two half-open intervals share at least one point.
    pub fn intersects(&self, other: &Interval) -> bool {
        self.lo.max(other.lo) < self.hi.min(other.hi)
    }

    /// The intersection, or `None` if the intervals are disjoint.
    pub fn intersection(&self, other: &Interval) -> Option<Interval> {
        let lo = self.lo.max(other.lo);
        let hi = self.hi.min(other.hi);
        if lo < hi {
            Some(Interval { lo, hi })
        } else {
            None
        }
    }

    /// The smallest interval containing both operands (the convex hull).
    pub fn hull(&self, other: &Interval) -> Interval {
        if self.is_empty() {
            return *other;
        }
        if other.is_empty() {
            return *self;
        }
        Interval {
            lo: self.lo.min(other.lo),
            hi: self.hi.max(other.hi),
        }
    }

    /// Clamps this interval into `bounds`, producing an empty interval
    /// anchored at the boundary when the two are disjoint.
    pub fn clamp_to(&self, bounds: &Interval) -> Interval {
        self.intersection(bounds)
            .unwrap_or_else(|| Interval::empty_at(self.lo.max(bounds.lo).min(bounds.hi)))
    }

    /// The midpoint, with infinite endpoints treated as the finite one (or
    /// `0.0` when both are infinite). Used to order objects during S-tree
    /// binarization; exact semantics for unbounded predicates only need to
    /// be deterministic, not meaningful.
    pub fn center(&self) -> f64 {
        match (self.lo.is_finite(), self.hi.is_finite()) {
            (true, true) => 0.5 * (self.lo + self.hi),
            (true, false) => self.lo,
            (false, true) => self.hi,
            (false, false) => 0.0,
        }
    }
}

impl fmt::Debug for Interval {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({}, {}]", self.lo, self.hi)
    }
}

impl fmt::Display for Interval {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({}, {}]", self.lo, self.hi)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_rejects_nan_and_inversion() {
        assert_eq!(Interval::new(f64::NAN, 1.0), Err(GeomError::NotANumber));
        assert_eq!(Interval::new(0.0, f64::NAN), Err(GeomError::NotANumber));
        assert!(matches!(
            Interval::new(2.0, 1.0),
            Err(GeomError::InvertedInterval { .. })
        ));
    }

    #[test]
    fn half_open_semantics() {
        let i = Interval::new(0.0, 10.0).unwrap();
        assert!(!i.contains(0.0));
        assert!(i.contains(10.0));
        assert!(i.contains(0.0001));
        assert!(!i.contains(10.0001));
    }

    #[test]
    fn adjacent_intervals_tile_without_overlap() {
        let a = Interval::new(0.0, 5.0).unwrap();
        let b = Interval::new(5.0, 10.0).unwrap();
        assert!(!a.intersects(&b));
        assert!(a.contains(5.0));
        assert!(!b.contains(5.0));
    }

    #[test]
    fn empty_interval_contains_nothing() {
        let e = Interval::empty_at(3.0);
        assert!(e.is_empty());
        assert!(!e.contains(3.0));
        assert_eq!(e.length(), 0.0);
    }

    #[test]
    fn unbounded_predicates() {
        let wild = Interval::unbounded();
        assert!(wild.contains(1e300));
        assert!(wild.contains(-1e300));
        assert!(!wild.is_finite());

        let volume = Interval::at_least(999.0);
        assert!(volume.contains(1000.0));
        assert!(!volume.contains(999.0));

        let price = Interval::at_most(80.0);
        assert!(price.contains(80.0));
        assert!(!price.contains(80.5));
    }

    #[test]
    fn intersection_and_hull() {
        let a = Interval::new(0.0, 6.0).unwrap();
        let b = Interval::new(4.0, 10.0).unwrap();
        let i = a.intersection(&b).unwrap();
        assert_eq!((i.lo(), i.hi()), (4.0, 6.0));
        let h = a.hull(&b);
        assert_eq!((h.lo(), h.hi()), (0.0, 10.0));
        let c = Interval::new(20.0, 30.0).unwrap();
        assert_eq!(a.intersection(&c), None);
        assert!(!a.intersects(&c));
    }

    #[test]
    fn hull_with_empty_is_identity() {
        let a = Interval::new(1.0, 2.0).unwrap();
        let e = Interval::empty_at(100.0);
        assert_eq!(a.hull(&e), a);
        assert_eq!(e.hull(&a), a);
    }

    #[test]
    fn containment_of_intervals() {
        let outer = Interval::new(0.0, 10.0).unwrap();
        let inner = Interval::new(2.0, 8.0).unwrap();
        assert!(outer.contains_interval(&inner));
        assert!(!inner.contains_interval(&outer));
        assert!(outer.contains_interval(&Interval::empty_at(500.0)));
        assert!(Interval::unbounded().contains_interval(&outer));
    }

    #[test]
    fn clamp_to_bounds() {
        let bounds = Interval::new(0.0, 20.0).unwrap();
        let wild = Interval::unbounded();
        let clamped = wild.clamp_to(&bounds);
        assert_eq!((clamped.lo(), clamped.hi()), (0.0, 20.0));

        let disjoint = Interval::new(30.0, 40.0).unwrap();
        let c = disjoint.clamp_to(&bounds);
        assert!(c.is_empty());
        assert!(bounds.contains_interval(&c));
    }

    #[test]
    fn centers() {
        assert_eq!(Interval::new(2.0, 4.0).unwrap().center(), 3.0);
        assert_eq!(Interval::at_least(5.0).center(), 5.0);
        assert_eq!(Interval::at_most(7.0).center(), 7.0);
        assert_eq!(Interval::unbounded().center(), 0.0);
    }

    #[test]
    fn display_shows_half_open_notation() {
        let i = Interval::new(1.0, 2.0).unwrap();
        assert_eq!(i.to_string(), "(1, 2]");
        assert_eq!(format!("{i:?}"), "(1, 2]");
    }
}
