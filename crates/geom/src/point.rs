use std::fmt;
use std::ops::Index;

use crate::GeomError;

/// A published event: a point in the `N`-dimensional event space `Ω ⊆ R^N`.
///
/// # Example
///
/// ```
/// use pubsub_geom::Point;
///
/// # fn main() -> Result<(), pubsub_geom::GeomError> {
/// // {bst, name, quote, volume}
/// let event = Point::new(vec![0.0, 10.0, 9.25, 12.0])?;
/// assert_eq!(event.dims(), 4);
/// assert_eq!(event[2], 9.25);
/// # Ok(())
/// # }
/// ```
#[derive(Clone, PartialEq)]
pub struct Point {
    coords: Vec<f64>,
}

impl Point {
    /// Creates a point from its coordinates.
    ///
    /// # Errors
    ///
    /// Returns [`GeomError::ZeroDimensional`] for an empty coordinate vector
    /// and [`GeomError::NotANumber`] if any coordinate is NaN or infinite
    /// (events are always finite; only *subscriptions* may be unbounded).
    pub fn new(coords: Vec<f64>) -> Result<Self, GeomError> {
        if coords.is_empty() {
            return Err(GeomError::ZeroDimensional);
        }
        if coords.iter().any(|c| !c.is_finite()) {
            return Err(GeomError::NotANumber);
        }
        Ok(Point { coords })
    }

    /// Number of dimensions.
    pub fn dims(&self) -> usize {
        self.coords.len()
    }

    /// The coordinate along dimension `d`.
    ///
    /// # Panics
    ///
    /// Panics if `d >= self.dims()`.
    pub fn coord(&self, d: usize) -> f64 {
        self.coords[d]
    }

    /// All coordinates as a slice.
    pub fn as_slice(&self) -> &[f64] {
        &self.coords
    }
}

impl Index<usize> for Point {
    type Output = f64;

    fn index(&self, d: usize) -> &f64 {
        &self.coords[d]
    }
}

impl fmt::Debug for Point {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Point{:?}", self.coords)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rejects_empty_nan_and_infinite() {
        assert_eq!(Point::new(vec![]), Err(GeomError::ZeroDimensional));
        assert_eq!(Point::new(vec![f64::NAN]), Err(GeomError::NotANumber));
        assert_eq!(Point::new(vec![f64::INFINITY]), Err(GeomError::NotANumber));
    }

    #[test]
    fn accessors() {
        let p = Point::new(vec![1.0, 2.0, 3.0]).unwrap();
        assert_eq!(p.dims(), 3);
        assert_eq!(p.coord(1), 2.0);
        assert_eq!(p[2], 3.0);
        assert_eq!(p.as_slice(), &[1.0, 2.0, 3.0]);
    }

    #[test]
    fn debug_is_nonempty() {
        let p = Point::new(vec![1.5]).unwrap();
        assert_eq!(format!("{p:?}"), "Point[1.5]");
    }
}
