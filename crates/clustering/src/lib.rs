//! Subscription clustering: precomputing multicast groups (paper §4 and
//! Appendix A, following the authors' ICDCS 2002 paper \[15\]).
//!
//! The event space `Ω` is covered by a regular grid. For every cell `g` the
//! model records the subscriber membership list `l(g)` (who has a
//! subscription intersecting the cell) and the publication probability mass
//! `p_p(g)`. The `T` heaviest cells (by `p_p(g)·|l(g)|`) are then clustered
//! into `n` groups using the *expected waste* distance — the increase in
//! the expected number of unwanted deliveries when a cell joins a group —
//! by one of three algorithms:
//!
//! * [`ClusteringAlgorithm::ForgyKMeans`] — the appendix's k-means variant
//!   with immediate reassignment (the paper's best performer);
//! * [`ClusteringAlgorithm::BatchKMeans`] — a classic Lloyd-style batch
//!   variant (assignments against frozen group state, one update per
//!   sweep), included as the "K-means" companion of \[15\];
//! * [`ClusteringAlgorithm::PairwiseGrouping`] — agglomerative merging of
//!   the closest pair until `n` clusters remain;
//! * [`ClusteringAlgorithm::MinimumSpanningTree`] — single-linkage: all
//!   pairwise distances computed once, edges added in increasing order
//!   until exactly `n` components remain.
//!
//! The result is a [`SpacePartition`]: the `n` subsets `S_1..S_n` plus the
//! implicit catch-all `S_0`, with point→group lookup for the distribution
//! scheme.
//!
//! # Example
//!
//! ```
//! use pubsub_clustering::{cluster, ClusteringAlgorithm, ClusteringConfig, GridModel};
//! use pubsub_geom::{Grid, Rect};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let grid = Grid::uniform(Rect::from_corners(&[0.0, 0.0], &[10.0, 10.0])?, 5)?;
//! // Two subscribers interested in opposite corners.
//! let subs = vec![
//!     (0usize, Rect::from_corners(&[0.0, 0.0], &[3.0, 3.0])?),
//!     (1usize, Rect::from_corners(&[7.0, 7.0], &[10.0, 10.0])?),
//! ];
//! let model = GridModel::build(grid, 2, &subs, |_r| 0.01)?;
//! let partition = cluster(
//!     &model,
//!     &ClusteringConfig::new(ClusteringAlgorithm::ForgyKMeans, 2),
//! )?;
//! assert_eq!(partition.group_count(), 2);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]
#![deny(missing_debug_implementations)]

mod algorithms;
mod bitset;
mod cells;
mod error;
mod ew;
mod partition;

pub use algorithms::{cluster, expected_waste, ClusteringAlgorithm, ClusteringConfig};
pub use bitset::SubscriberSet;
pub use cells::GridModel;
pub use error::ClusterError;
pub use ew::GroupState;
pub use partition::SpacePartition;
