//! N-dimensional event-space geometry for content-based publish-subscribe.
//!
//! This crate provides the geometric substrate used throughout the
//! reproduction of *"New Algorithms for Content-Based
//! Publication-Subscription Systems"* (ICDCS 2003):
//!
//! * [`Interval`] — a half-open interval `(lo, hi]`. Following the paper,
//!   every predicate range is open on the left and closed on the right so
//!   that adjacent ranges "fit together" without overlap.
//! * [`Point`] — a published event, a point in `R^N`.
//! * [`Rect`] — a subscription, an axis-aligned rectangle in `R^N` whose
//!   projection on each dimension is an [`Interval`].
//! * [`Grid`] — a regular grid over a bounding rectangle, used by the
//!   subscription-clustering algorithms.
//! * [`Space`] — a named, bounded event space used to clamp otherwise
//!   unbounded predicates (e.g. `volume ≥ 1000`) to finite geometry.
//!
//! # Example
//!
//! ```
//! use pubsub_geom::{Interval, Point, Rect};
//!
//! # fn main() -> Result<(), pubsub_geom::GeomError> {
//! // The Gryphon-style subscription: 75 < price <= 80, volume >= 1000.
//! let sub = Rect::new(vec![
//!     Interval::new(75.0, 80.0)?,
//!     Interval::at_least(999.0),
//! ])?;
//! let trade = Point::new(vec![78.25, 1500.0])?;
//! assert!(sub.contains_point(&trade));
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]
#![deny(missing_debug_implementations)]

mod error;
mod grid;
mod interval;
mod point;
mod rect;
mod space;

pub use error::GeomError;
pub use grid::{CellCoords, CellId, CellRuns, CellWalkBuf, Grid};
pub use interval::Interval;
pub use point::Point;
pub use rect::Rect;
pub use space::Space;
