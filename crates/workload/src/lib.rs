//! Workload generators reproducing the paper's experimental setup (§5).
//!
//! The evaluation workload is a stock-market scenario over the event space
//! `{bst, name, quote, volume}`:
//!
//! * [`ZipfLike`] — the rank-frequency distribution used to spread
//!   subscriptions over stubs and nodes, and interval lengths over ranks;
//! * [`IntervalDistribution`] — the paper's parametric generator for the
//!   `quote` and `volume` predicate intervals (wild-card / one-sided /
//!   bounded with Pareto length), with the Table 1 parameter presets;
//! * [`SubscriptionConfig`] / [`PlacedSubscription`] — generates the 1000
//!   subscriptions, placed on topology nodes with the 40/30/30 transit
//!   block split and Zipf-like stub/node popularity;
//! * [`PublicationModel`] / [`Modes`] — the 1-, 4- and 9-mode multivariate
//!   normal publication mixtures, with analytic cell masses for the
//!   clustering density function;
//! * [`ScaleConfig`] / [`ScaleWorkload`] — the million-subscriber scale
//!   population: Zipf-skewed picks from a pool of distinct rectangles,
//!   generated in fixed chunks so the result is thread-count independent;
//! * [`OpenLoopConfig`] / [`Arrival`] — open-loop bursty (on/off modulated
//!   Poisson) arrival schedules for the staged serving benchmark;
//! * [`nyse`] — a synthetic NYSE trading day used to regenerate the data
//!   analysis of §5.1 (Figures 4 and 5);
//! * [`stats`] — histograms, rank-frequency tables and simple distribution
//!   fits used by the figure harnesses.
//!
//! # Example
//!
//! ```
//! use pubsub_netsim::TransitStubConfig;
//! use pubsub_workload::{Modes, SubscriptionConfig};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let topo = TransitStubConfig::riabov().generate(1)?;
//! let subs = SubscriptionConfig::riabov().generate(&topo, 2)?;
//! assert_eq!(subs.len(), 1000);
//!
//! let model = Modes::Nine.model();
//! let mut rng = rand::thread_rng();
//! let event = model.sample(&mut rng);
//! assert_eq!(event.dims(), 4);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]
#![deny(missing_debug_implementations)]

mod error;
pub mod math;
pub mod nyse;
mod publications;
mod scale;
mod serving;
pub mod stats;
mod subscriptions;
mod zipf;

pub use error::WorkloadError;
pub use publications::{DimMixture, Modes, PublicationModel};
pub use scale::{ScaleConfig, ScaleWorkload, CHUNK};
pub use serving::{Arrival, OpenLoopConfig};
pub use subscriptions::{
    stock_space, IntervalDistribution, PlacedSubscription, SubscriptionConfig,
};
pub use zipf::ZipfLike;
