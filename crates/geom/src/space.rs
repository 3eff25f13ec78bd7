use crate::{GeomError, Interval, Point, Rect};

/// A named, bounded event space `Ω`.
///
/// Subscriptions may carry unbounded predicates (`volume ≥ 1000` is the
/// half-open rectangle side `(999, +∞)`), but spatial indexes and grids need
/// finite geometry. A `Space` couples human-readable attribute names with a
/// finite bounding rectangle used to clamp subscriptions before indexing.
///
/// # Example
///
/// ```
/// use pubsub_geom::{Interval, Rect, Space};
///
/// # fn main() -> Result<(), pubsub_geom::GeomError> {
/// let space = Space::new(
///     vec!["bst".into(), "name".into(), "quote".into(), "volume".into()],
///     Rect::from_corners(&[-1.0, 0.0, 0.0, 0.0], &[3.0, 20.0, 20.0, 20.0])?,
/// )?;
/// assert_eq!(space.dims(), 4);
/// assert_eq!(space.attribute(3), "volume");
/// # Ok(())
/// # }
/// ```
#[derive(Clone, PartialEq, Debug)]
pub struct Space {
    attributes: Vec<String>,
    bounds: Rect,
}

impl Space {
    /// Creates a space with one name per dimension.
    ///
    /// # Errors
    ///
    /// Returns [`GeomError::DimensionMismatch`] if the name count differs
    /// from the bounds' dimensionality and [`GeomError::UnboundedGrid`] if
    /// the bounds are not finite (spaces exist precisely to provide finite
    /// clamping bounds).
    pub fn new(attributes: Vec<String>, bounds: Rect) -> Result<Self, GeomError> {
        if attributes.len() != bounds.dims() {
            return Err(GeomError::DimensionMismatch {
                expected: bounds.dims(),
                got: attributes.len(),
            });
        }
        if let Some(d) = bounds.sides().iter().position(|s| !s.is_finite()) {
            return Err(GeomError::UnboundedGrid { dim: d });
        }
        Ok(Space { attributes, bounds })
    }

    /// Creates a space with synthetic attribute names `x0..xN`.
    ///
    /// # Errors
    ///
    /// Returns [`GeomError::UnboundedGrid`] if the bounds are not finite.
    pub fn anonymous(bounds: Rect) -> Result<Self, GeomError> {
        let names = (0..bounds.dims()).map(|d| format!("x{d}")).collect();
        Space::new(names, bounds)
    }

    /// Number of dimensions.
    pub fn dims(&self) -> usize {
        self.bounds.dims()
    }

    /// The attribute name of dimension `d`.
    ///
    /// # Panics
    ///
    /// Panics if `d >= self.dims()`.
    pub fn attribute(&self, d: usize) -> &str {
        &self.attributes[d]
    }

    /// All attribute names in dimension order.
    pub fn attributes(&self) -> &[String] {
        &self.attributes
    }

    /// The finite bounding rectangle of the space.
    pub fn bounds(&self) -> &Rect {
        &self.bounds
    }

    /// The dimension index of a named attribute.
    pub fn dim_of(&self, attribute: &str) -> Option<usize> {
        self.attributes.iter().position(|a| a == attribute)
    }

    /// Clamps a subscription rectangle into the space bounds.
    pub fn clamp(&self, r: &Rect) -> Rect {
        r.clamp_to(&self.bounds)
    }

    /// Clamps the sides of a subscription rectangle into the space
    /// bounds, writing them into `out` — a rectangle of the space's
    /// dimensionality reused as scratch — instead of allocating one.
    ///
    /// # Panics
    ///
    /// Panics if `sides` or `out` is not of the space's dimensionality.
    pub fn clamp_into(&self, sides: &[Interval], out: &mut Rect) {
        assert_eq!(sides.len(), self.dims(), "rectangle dimensionality");
        for (d, (side, bound)) in sides.iter().zip(self.bounds.sides()).enumerate() {
            out.set_side(d, side.clamp_to(bound));
        }
    }

    /// `true` if the event lies inside the space.
    pub fn contains(&self, p: &Point) -> bool {
        self.bounds.contains_point(p)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn space() -> Space {
        Space::new(
            vec!["price".into(), "volume".into()],
            Rect::from_corners(&[0.0, 0.0], &[20.0, 20.0]).unwrap(),
        )
        .unwrap()
    }

    #[test]
    fn construction_errors() {
        let bounds = Rect::from_corners(&[0.0], &[1.0]).unwrap();
        assert!(matches!(
            Space::new(vec!["a".into(), "b".into()], bounds),
            Err(GeomError::DimensionMismatch { .. })
        ));
        let unbounded = Rect::new(vec![Interval::unbounded()]).unwrap();
        assert!(matches!(
            Space::new(vec!["a".into()], unbounded),
            Err(GeomError::UnboundedGrid { dim: 0 })
        ));
    }

    #[test]
    fn attribute_lookup() {
        let s = space();
        assert_eq!(s.dim_of("volume"), Some(1));
        assert_eq!(s.dim_of("nope"), None);
        assert_eq!(s.attribute(0), "price");
        assert_eq!(s.attributes().len(), 2);
    }

    #[test]
    fn anonymous_names() {
        let s = Space::anonymous(Rect::from_corners(&[0.0, 0.0], &[1.0, 1.0]).unwrap()).unwrap();
        assert_eq!(s.attribute(1), "x1");
    }

    #[test]
    fn clamping_unbounded_subscription() {
        let s = space();
        let sub = Rect::new(vec![Interval::at_least(15.0), Interval::unbounded()]).unwrap();
        let clamped = s.clamp(&sub);
        assert!(s.bounds().contains_rect(&clamped));
        assert!(clamped.is_finite());
        let mut scratch = s.bounds().clone();
        s.clamp_into(sub.sides(), &mut scratch);
        assert_eq!(scratch, clamped);
    }

    #[test]
    fn membership() {
        let s = space();
        assert!(s.contains(&Point::new(vec![5.0, 5.0]).unwrap()));
        assert!(!s.contains(&Point::new(vec![25.0, 5.0]).unwrap()));
    }
}
