//! A high-level subscription language (paper §1).
//!
//! Users think in predicates — `name = IBM`, `75 < price ≤ 80`,
//! `volume ≥ 1000` — not rectangles. A [`SubscriptionSpec`] is a
//! conjunction of per-attribute [`Predicate`]s; attributes left out are
//! wild-cards. Following §1's observation, a predicate whose domain is a
//! *union* of ranges (`price in (10,20] or (40,50]`) is decomposed by
//! taking the cross product of the per-attribute range lists: one
//! rectangle per combination, "albeit at a cost of more subscriptions".
//!
//! # Example
//!
//! ```
//! use pubsub_core::{Predicate, SubscriptionSpec};
//! use pubsub_geom::{Rect, Space};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let space = Space::new(
//!     vec!["name".into(), "price".into(), "volume".into()],
//!     Rect::from_corners(&[0.0, 0.0, 0.0], &[100.0, 200.0, 1e6])?,
//! )?;
//! // The Gryphon subscription of the paper's introduction.
//! let spec = SubscriptionSpec::new()
//!     .attr("name", Predicate::equals(42.0))        // name=IBM, indexed
//!     .attr("price", Predicate::range(75.0, 80.0))  // 75 < price <= 80
//!     .attr("volume", Predicate::at_least(1000.0)); // volume >= 1000
//! let rects = spec.compile(&space)?;
//! assert_eq!(rects.len(), 1);
//! # Ok(())
//! # }
//! ```

use std::collections::BTreeMap;

use pubsub_geom::{Interval, Rect, Space};

use crate::BrokerError;

/// A single-attribute predicate: one or more half-open ranges of the
/// attribute's (linearized) domain.
#[derive(Clone, PartialEq, Debug)]
pub struct Predicate {
    /// The admissible ranges (at least one; a union is decomposed at
    /// compile time).
    ranges: Vec<Interval>,
}

impl Predicate {
    /// `attr = v` over a discretized/indexed domain: the half-open unit
    /// interval `(v-1, v]`, the paper's convention for equality on
    /// linearized attributes such as stock names.
    pub fn equals(v: f64) -> Self {
        Predicate {
            ranges: vec![Interval::new(v - 1.0, v).expect("unit width")],
        }
    }

    /// `lo < attr ≤ hi`.
    ///
    /// # Panics
    ///
    /// Panics if `lo > hi` or either is NaN (predicates are program
    /// constants; a malformed one is a programming error).
    pub fn range(lo: f64, hi: f64) -> Self {
        Predicate {
            ranges: vec![Interval::new(lo, hi).expect("ordered bounds")],
        }
    }

    /// `attr ≥ v` over a discrete domain (`(v-1, +∞)`), or use
    /// [`Predicate::greater_than`] for the strict continuous form.
    pub fn at_least(v: f64) -> Self {
        Predicate {
            ranges: vec![Interval::greater_than(v - 1.0)],
        }
    }

    /// `attr > v`.
    pub fn greater_than(v: f64) -> Self {
        Predicate {
            ranges: vec![Interval::greater_than(v)],
        }
    }

    /// `attr ≤ v`.
    pub fn at_most(v: f64) -> Self {
        Predicate {
            ranges: vec![Interval::at_most(v)],
        }
    }

    /// Any value (`*`).
    pub fn wildcard() -> Self {
        Predicate {
            ranges: vec![Interval::unbounded()],
        }
    }

    /// A union of values/ranges: `attr in r1 or r2 or ...`. Decomposed
    /// into one rectangle per range at compile time.
    ///
    /// # Panics
    ///
    /// Panics on an empty list.
    pub fn any_of(ranges: Vec<Interval>) -> Self {
        assert!(!ranges.is_empty(), "a predicate needs at least one range");
        Predicate { ranges }
    }

    /// Adds another admissible range (disjunction).
    pub fn or(mut self, other: Interval) -> Self {
        self.ranges.push(other);
        self
    }

    /// The admissible ranges.
    pub fn ranges(&self) -> &[Interval] {
        &self.ranges
    }
}

/// A conjunctive subscription over named attributes; unmentioned
/// attributes are wild-cards. Compiling against a [`Space`] produces the
/// equivalent set of rectangles (one per combination of per-attribute
/// ranges).
#[derive(Clone, PartialEq, Debug, Default)]
pub struct SubscriptionSpec {
    predicates: BTreeMap<String, Predicate>,
}

impl SubscriptionSpec {
    /// An empty (all-wild-card) specification.
    pub fn new() -> Self {
        SubscriptionSpec::default()
    }

    /// Constrains an attribute. Setting the same attribute twice replaces
    /// the earlier predicate.
    pub fn attr(mut self, name: &str, predicate: Predicate) -> Self {
        self.predicates.insert(name.to_string(), predicate);
        self
    }

    /// The constrained attribute names, sorted.
    pub fn attributes(&self) -> impl Iterator<Item = &str> {
        self.predicates.keys().map(String::as_str)
    }

    /// How many rectangles [`SubscriptionSpec::compile`] will produce:
    /// the product of the per-attribute range counts.
    pub fn rectangle_count(&self) -> usize {
        self.predicates
            .values()
            .map(|p| p.ranges.len())
            .product::<usize>()
            .max(1)
    }

    /// Compiles the spec against a space: resolves attribute names to
    /// dimensions and takes the cross product of the per-attribute range
    /// lists.
    ///
    /// # Errors
    ///
    /// Returns [`BrokerError::InvalidConfig`] if an attribute name is not
    /// in the space.
    pub fn compile(&self, space: &Space) -> Result<Vec<Rect>, BrokerError> {
        // Per dimension: the list of admissible intervals.
        let mut per_dim: Vec<Vec<Interval>> = vec![vec![Interval::unbounded()]; space.dims()];
        for (name, predicate) in &self.predicates {
            let d = space.dim_of(name).ok_or(BrokerError::InvalidConfig {
                parameter: "attribute",
                constraint: "every predicate attribute must exist in the space",
            })?;
            per_dim[d] = predicate.ranges.clone();
        }
        // Cross product (odometer).
        let mut rects = Vec::with_capacity(per_dim.iter().map(Vec::len).product());
        let mut choice = vec![0usize; per_dim.len()];
        loop {
            let sides: Vec<Interval> = choice
                .iter()
                .enumerate()
                .map(|(d, &c)| per_dim[d][c])
                .collect();
            rects.push(Rect::new(sides).expect("space has >= 1 dimension"));
            let mut d = per_dim.len();
            loop {
                if d == 0 {
                    return Ok(rects);
                }
                d -= 1;
                choice[d] += 1;
                if choice[d] < per_dim[d].len() {
                    break;
                }
                choice[d] = 0;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pubsub_geom::Point;

    fn space() -> Space {
        Space::new(
            vec!["name".into(), "price".into(), "volume".into()],
            Rect::from_corners(&[0.0, 0.0, 0.0], &[100.0, 200.0, 1e6]).unwrap(),
        )
        .unwrap()
    }

    #[test]
    fn gryphon_subscription_compiles_to_one_rect() {
        let spec = SubscriptionSpec::new()
            .attr("name", Predicate::equals(42.0))
            .attr("price", Predicate::range(75.0, 80.0))
            .attr("volume", Predicate::at_least(1000.0));
        let rects = spec.compile(&space()).unwrap();
        assert_eq!(rects.len(), 1);
        assert_eq!(spec.rectangle_count(), 1);
        let r = &rects[0];
        // name=42 (IBM's index), 78.5 price, 5000 shares: matches.
        assert!(r.contains_point(&Point::new(vec![42.0, 78.5, 5000.0]).unwrap()));
        // price 75 exactly: open on the left, no match.
        assert!(!r.contains_point(&Point::new(vec![42.0, 75.0, 5000.0]).unwrap()));
        // price 80 exactly: closed on the right, matches.
        assert!(r.contains_point(&Point::new(vec![42.0, 80.0, 5000.0]).unwrap()));
        // volume 999: below the >= 1000 cut.
        assert!(!r.contains_point(&Point::new(vec![42.0, 78.0, 999.0]).unwrap()));
        assert!(r.contains_point(&Point::new(vec![42.0, 78.0, 1000.0]).unwrap()));
        // wrong name
        assert!(!r.contains_point(&Point::new(vec![43.5, 78.0, 5000.0]).unwrap()));
    }

    #[test]
    fn unmentioned_attributes_are_wildcards() {
        let spec = SubscriptionSpec::new().attr("price", Predicate::at_most(20.0));
        let rects = spec.compile(&space()).unwrap();
        assert_eq!(rects.len(), 1);
        assert!(rects[0].contains_point(&Point::new(vec![99.0, 10.0, 123456.0]).unwrap()));
        assert!(!rects[0].contains_point(&Point::new(vec![99.0, 20.5, 0.0]).unwrap()));
    }

    #[test]
    fn union_predicates_decompose_via_cross_product() {
        let spec = SubscriptionSpec::new()
            .attr(
                "price",
                Predicate::range(10.0, 20.0).or(Interval::new(40.0, 50.0).unwrap()),
            )
            .attr(
                "name",
                Predicate::any_of(vec![
                    Interval::new(1.0, 2.0).unwrap(),
                    Interval::new(5.0, 6.0).unwrap(),
                    Interval::new(9.0, 10.0).unwrap(),
                ]),
            );
        assert_eq!(spec.rectangle_count(), 6);
        let rects = spec.compile(&space()).unwrap();
        assert_eq!(rects.len(), 6);
        // A point in the second price range and third name range matches
        // exactly one rectangle.
        let p = Point::new(vec![9.5, 45.0, 0.5]).unwrap();
        assert_eq!(rects.iter().filter(|r| r.contains_point(&p)).count(), 1);
        // A point outside both price ranges matches none.
        let p2 = Point::new(vec![9.5, 30.0, 0.5]).unwrap();
        assert_eq!(rects.iter().filter(|r| r.contains_point(&p2)).count(), 0);
    }

    #[test]
    fn decomposition_preserves_semantics() {
        // Membership in the union of compiled rects == conjunction of
        // per-attribute disjunctions, on a grid of probe points.
        let spec = SubscriptionSpec::new()
            .attr(
                "price",
                Predicate::any_of(vec![
                    Interval::new(0.0, 50.0).unwrap(),
                    Interval::new(100.0, 150.0).unwrap(),
                ]),
            )
            .attr("volume", Predicate::greater_than(500.0));
        let rects = spec.compile(&space()).unwrap();
        for name in [0.0f64, 50.0] {
            for price in [25.0f64, 75.0, 125.0, 175.0] {
                for volume in [100.0f64, 501.0, 1e5] {
                    let p = Point::new(vec![name, price, volume]).unwrap();
                    let in_union = rects.iter().any(|r| r.contains_point(&p));
                    let price_ok =
                        (price > 0.0 && price <= 50.0) || (price > 100.0 && price <= 150.0);
                    let volume_ok = volume > 500.0;
                    assert_eq!(in_union, price_ok && volume_ok, "{p:?}");
                }
            }
        }
    }

    #[test]
    fn unknown_attribute_rejected() {
        let spec = SubscriptionSpec::new().attr("nope", Predicate::wildcard());
        assert!(matches!(
            spec.compile(&space()),
            Err(BrokerError::InvalidConfig { .. })
        ));
    }

    #[test]
    fn empty_spec_is_one_full_wildcard() {
        let spec = SubscriptionSpec::new();
        let rects = spec.compile(&space()).unwrap();
        assert_eq!(rects.len(), 1);
        assert_eq!(spec.rectangle_count(), 1);
        assert!(rects[0].contains_point(&Point::new(vec![1.0, 2.0, 3.0]).unwrap()));
        assert_eq!(spec.attributes().count(), 0);
    }

    #[test]
    fn replacing_a_predicate() {
        let spec = SubscriptionSpec::new()
            .attr("price", Predicate::at_most(10.0))
            .attr("price", Predicate::at_least(90.0));
        let rects = spec.compile(&space()).unwrap();
        assert_eq!(rects.len(), 1);
        assert!(rects[0].contains_point(&Point::new(vec![0.0, 95.0, 0.0]).unwrap()));
        assert!(!rects[0].contains_point(&Point::new(vec![0.0, 5.0, 0.0]).unwrap()));
    }
}
