//! Subscription generation: the paper's stock-market workload (§5).
//!
//! 1000 interval subscriptions of the form `{bst, name, quote, volume}`
//! are generated and placed on topology nodes: a 40/30/30 split across the
//! three transit blocks, a Zipf-like distribution over the stubs of each
//! block, and another Zipf-like distribution over the nodes of each stub.

use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use rand_distr::{Distribution, Normal, Pareto};

use pubsub_geom::{Interval, Rect, Space};
use pubsub_netsim::{NodeId, Topology};

use crate::{WorkloadError, ZipfLike};

/// The `{bst, name, quote, volume}` event space with finite bounds wide
/// enough to hold essentially all of the paper's publication mass
/// (unbounded subscription predicates are clamped to these bounds before
/// indexing).
pub fn stock_space() -> Space {
    Space::new(
        vec!["bst".into(), "name".into(), "quote".into(), "volume".into()],
        Rect::from_corners(&[-2.0, -15.0, -15.0, -15.0], &[4.0, 35.0, 35.0, 35.0])
            .expect("static bounds"),
    )
    .expect("static names")
}

/// The paper's parametric distribution for one-dimensional predicate
/// intervals (§5): wild-card with probability `q0`, a lower bound
/// `[n, +∞)` with probability `q1`, an upper bound `(-∞, n]` with
/// probability `q2`, otherwise a bounded interval with normal center and
/// Pareto length.
///
/// Passive configuration data: fields are public.
#[derive(Clone, Debug, PartialEq)]
pub struct IntervalDistribution {
    /// Probability of a wild-card (`*`) predicate.
    pub q0: f64,
    /// Probability of a lower-bound predicate `[n, +∞)`, `n ~ N(μ1, σ1)`.
    pub q1: f64,
    /// Probability of an upper-bound predicate `(-∞, n]`, `n ~ N(μ2, σ2)`.
    pub q2: f64,
    /// Mean and sd of the lower-bound cut point.
    pub mu1: f64,
    /// Standard deviation of the lower-bound cut point.
    pub sigma1: f64,
    /// Mean of the upper-bound cut point.
    pub mu2: f64,
    /// Standard deviation of the upper-bound cut point.
    pub sigma2: f64,
    /// Mean of a bounded interval's center.
    pub mu3: f64,
    /// Standard deviation of a bounded interval's center.
    pub sigma3: f64,
    /// Pareto scale `c` of a bounded interval's length.
    pub pareto_scale: f64,
    /// Pareto shape `α` of a bounded interval's length.
    pub pareto_shape: f64,
}

impl IntervalDistribution {
    /// Table 1, `price` row: `q0=0.15, q1=q2=0.1, (μ,σ) = (9,1),(9,1),(9,2)`,
    /// length `Pareto(4, 1)`.
    pub fn price() -> Self {
        IntervalDistribution {
            q0: 0.15,
            q1: 0.1,
            q2: 0.1,
            mu1: 9.0,
            sigma1: 1.0,
            mu2: 9.0,
            sigma2: 1.0,
            mu3: 9.0,
            sigma3: 2.0,
            pareto_scale: 4.0,
            pareto_shape: 1.0,
        }
    }

    /// Table 1, `volume` row: identical to `price` except `q0 = 0.35`.
    pub fn volume() -> Self {
        IntervalDistribution {
            q0: 0.35,
            ..IntervalDistribution::price()
        }
    }

    fn validate(&self) -> Result<(), WorkloadError> {
        let total = self.q0 + self.q1 + self.q2;
        if !(self.q0 >= 0.0 && self.q1 >= 0.0 && self.q2 >= 0.0 && total <= 1.0 + 1e-9) {
            return Err(WorkloadError::BadProbabilities {
                context: "interval distribution q0/q1/q2",
            });
        }
        for (p, v) in [
            ("sigma1", self.sigma1),
            ("sigma2", self.sigma2),
            ("sigma3", self.sigma3),
            ("pareto_scale", self.pareto_scale),
            ("pareto_shape", self.pareto_shape),
        ] {
            if !(v > 0.0 && v.is_finite()) {
                return Err(WorkloadError::InvalidConfig {
                    parameter: match p {
                        "sigma1" => "sigma1",
                        "sigma2" => "sigma2",
                        "sigma3" => "sigma3",
                        "pareto_scale" => "pareto_scale",
                        _ => "pareto_shape",
                    },
                    constraint: "> 0 and finite",
                });
            }
        }
        Ok(())
    }

    /// Draws one predicate interval (possibly unbounded).
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> Interval {
        let u: f64 = rng.gen();
        if u < self.q0 {
            Interval::unbounded()
        } else if u < self.q0 + self.q1 {
            let n = Normal::new(self.mu1, self.sigma1)
                .expect("validated")
                .sample(rng);
            Interval::at_least(n)
        } else if u < self.q0 + self.q1 + self.q2 {
            let n = Normal::new(self.mu2, self.sigma2)
                .expect("validated")
                .sample(rng);
            Interval::at_most(n)
        } else {
            let center = Normal::new(self.mu3, self.sigma3)
                .expect("validated")
                .sample(rng);
            let len = Pareto::new(self.pareto_scale, self.pareto_shape)
                .expect("validated")
                .sample(rng);
            Interval::new(center - len / 2.0, center + len / 2.0).expect("ordered bounds")
        }
    }
}

/// A subscription placed on a topology node. Passive data: public fields.
#[derive(Clone, Debug, PartialEq)]
pub struct PlacedSubscription {
    /// The subscriber node.
    pub node: NodeId,
    /// The subscription rectangle in `{bst, name, quote, volume}` order
    /// (may contain unbounded sides; clamp with [`stock_space`] before
    /// indexing).
    pub rect: Rect,
}

/// Configuration of the subscription generator. Passive configuration
/// data: fields are public.
#[derive(Clone, Debug, PartialEq)]
pub struct SubscriptionConfig {
    /// Total subscriptions to generate (the paper uses 1000).
    pub count: usize,
    /// Share of subscriptions per transit block (the paper uses
    /// `{40%, 30%, 30%}`); must have one entry per topology block and sum
    /// to 1.
    pub block_shares: Vec<f64>,
    /// Zipf exponent for spreading subscriptions over a block's stubs.
    pub stub_zipf_theta: f64,
    /// Zipf exponent for spreading subscriptions over a stub's nodes.
    pub node_zipf_theta: f64,
    /// Probabilities of `bst` taking the values B, S, T (the paper uses
    /// 0.4 / 0.4 / 0.2).
    pub bst_probs: [f64; 3],
    /// Per-block means of the `name` interval center (the paper uses 3,
    /// 10 and 17).
    pub name_means: Vec<f64>,
    /// Standard deviation of the `name` center (the paper uses 4).
    pub name_sd: f64,
    /// `name` interval length is `1 + rank` with `rank` Zipf-like over
    /// `0..max`: `(max, theta)`.
    pub name_length_zipf: (usize, f64),
    /// Interval distribution of the `quote` dimension.
    pub quote: IntervalDistribution,
    /// Interval distribution of the `volume` dimension.
    pub volume: IntervalDistribution,
}

impl SubscriptionConfig {
    /// The paper's §5 workload: 1000 subscriptions, 40/30/30 blocks, Zipf
    /// stub and node popularity, Table 1 interval parameters.
    pub fn riabov() -> Self {
        SubscriptionConfig {
            count: 1000,
            block_shares: vec![0.4, 0.3, 0.3],
            stub_zipf_theta: 1.0,
            node_zipf_theta: 1.0,
            bst_probs: [0.4, 0.4, 0.2],
            name_means: vec![3.0, 10.0, 17.0],
            name_sd: 4.0,
            name_length_zipf: (10, 1.0),
            quote: IntervalDistribution::price(),
            volume: IntervalDistribution::volume(),
        }
    }

    pub(crate) fn validate(&self, topo: &Topology) -> Result<(), WorkloadError> {
        if self.count == 0 {
            return Err(WorkloadError::InvalidConfig {
                parameter: "count",
                constraint: ">= 1",
            });
        }
        let share_sum: f64 = self.block_shares.iter().sum();
        if self.block_shares.iter().any(|&s| s < 0.0) || (share_sum - 1.0).abs() > 1e-9 {
            return Err(WorkloadError::BadProbabilities {
                context: "block shares",
            });
        }
        let bst_sum: f64 = self.bst_probs.iter().sum();
        if self.bst_probs.iter().any(|&p| p < 0.0) || (bst_sum - 1.0).abs() > 1e-9 {
            return Err(WorkloadError::BadProbabilities {
                context: "bst probabilities",
            });
        }
        if self.name_means.len() != self.block_shares.len() {
            return Err(WorkloadError::InvalidConfig {
                parameter: "name_means",
                constraint: "one mean per block share",
            });
        }
        if !(self.name_sd > 0.0 && self.name_sd.is_finite()) {
            return Err(WorkloadError::InvalidConfig {
                parameter: "name_sd",
                constraint: "> 0",
            });
        }
        if self.name_length_zipf.0 == 0 {
            return Err(WorkloadError::InvalidConfig {
                parameter: "name_length_zipf.0",
                constraint: ">= 1",
            });
        }
        self.quote.validate()?;
        self.volume.validate()?;
        let blocks = topo
            .stubs()
            .iter()
            .map(|s| s.block)
            .max()
            .map_or(0, |b| b + 1);
        if blocks < self.block_shares.len() {
            return Err(WorkloadError::TopologyMismatch {
                what: "a transit block for every block share",
            });
        }
        for b in 0..self.block_shares.len() {
            if topo.stubs_of_block(b).is_empty() {
                return Err(WorkloadError::TopologyMismatch {
                    what: "at least one stub per block",
                });
            }
        }
        Ok(())
    }

    /// Generates `count` subscriptions placed on `topo`, deterministically
    /// from `seed`.
    ///
    /// # Errors
    ///
    /// Returns configuration errors (see [`WorkloadError`]) and
    /// [`WorkloadError::TopologyMismatch`] if the topology lacks the
    /// blocks/stubs the shares refer to.
    pub fn generate(
        &self,
        topo: &Topology,
        seed: u64,
    ) -> Result<Vec<PlacedSubscription>, WorkloadError> {
        self.validate(topo)?;
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let picker = NodePicker::new(self, topo)?;
        let name_len_zipf = ZipfLike::new(self.name_length_zipf.0, self.name_length_zipf.1)?;

        let mut out = Vec::with_capacity(self.count);
        for _ in 0..self.count {
            let (block, node) = picker.pick(topo, &mut rng);
            let rect = self.sample_rect(block, &name_len_zipf, &mut rng);
            out.push(PlacedSubscription { node, rect });
        }
        Ok(out)
    }

    /// Draws one subscription rectangle for a subscriber in `block`:
    /// the discrete `bst` value, a block-mean `name` interval with
    /// Zipf-like length, and Table 1 `quote`/`volume` intervals.
    pub(crate) fn sample_rect<R: Rng + ?Sized>(
        &self,
        block: usize,
        name_len_zipf: &ZipfLike,
        rng: &mut R,
    ) -> Rect {
        let bst = categorical(&self.bst_probs, rng) as f64;
        let bst_iv = Interval::new(bst - 1.0, bst).expect("ordered");

        let name_center = Normal::new(self.name_means[block], self.name_sd)
            .expect("validated")
            .sample(rng);
        let name_len = (name_len_zipf.sample(rng) + 1) as f64;
        let name_iv = Interval::new(name_center - name_len / 2.0, name_center + name_len / 2.0)
            .expect("ordered");

        let quote_iv = self.quote.sample(rng);
        let volume_iv = self.volume.sample(rng);

        Rect::new(vec![bst_iv, name_iv, quote_iv, volume_iv]).expect("four dimensions")
    }
}

/// The placement popularity structure of the §5 workload: block shares,
/// a Zipf-like distribution over each block's stubs and another over
/// each stub's nodes. Shared by [`SubscriptionConfig::generate`] and the
/// scale generator so both place subscribers identically.
pub(crate) struct NodePicker {
    block_shares: Vec<f64>,
    stub_zipfs: Vec<(Vec<usize>, ZipfLike)>,
    node_zipfs: Vec<ZipfLike>,
}

impl NodePicker {
    pub(crate) fn new(cfg: &SubscriptionConfig, topo: &Topology) -> Result<Self, WorkloadError> {
        let blocks = cfg.block_shares.len();
        let stub_zipfs: Vec<(Vec<usize>, ZipfLike)> = (0..blocks)
            .map(|b| {
                let stubs = topo.stubs_of_block(b);
                let z = ZipfLike::new(stubs.len(), cfg.stub_zipf_theta)?;
                Ok((stubs, z))
            })
            .collect::<Result<_, WorkloadError>>()?;
        let node_zipfs: Vec<ZipfLike> = topo
            .stubs()
            .iter()
            .map(|s| ZipfLike::new(s.nodes.len(), cfg.node_zipf_theta))
            .collect::<Result<_, WorkloadError>>()?;
        Ok(NodePicker {
            block_shares: cfg.block_shares.clone(),
            stub_zipfs,
            node_zipfs,
        })
    }

    /// Draws one subscriber: the transit block and the node.
    pub(crate) fn pick<R: Rng + ?Sized>(&self, topo: &Topology, rng: &mut R) -> (usize, NodeId) {
        let block = categorical(&self.block_shares, rng);
        let (stubs, stub_zipf) = &self.stub_zipfs[block];
        let stub = stubs[stub_zipf.sample(rng)];
        let nodes = &topo.stubs()[stub].nodes;
        (block, nodes[self.node_zipfs[stub].sample(rng)])
    }
}

pub(crate) fn categorical<R: Rng + ?Sized>(probs: &[f64], rng: &mut R) -> usize {
    let mut u: f64 = rng.gen();
    for (i, &p) in probs.iter().enumerate() {
        if u < p {
            return i;
        }
        u -= p;
    }
    probs.len() - 1
}

#[cfg(test)]
mod tests {
    use super::*;
    use pubsub_netsim::TransitStubConfig;

    fn topo() -> Topology {
        TransitStubConfig::riabov().generate(3).unwrap()
    }

    #[test]
    fn generates_requested_count_deterministically() {
        let t = topo();
        let cfg = SubscriptionConfig::riabov();
        let a = cfg.generate(&t, 42).unwrap();
        let b = cfg.generate(&t, 42).unwrap();
        assert_eq!(a.len(), 1000);
        assert_eq!(a, b);
        let c = cfg.generate(&t, 43).unwrap();
        assert_ne!(a, c);
    }

    #[test]
    fn block_shares_are_respected() {
        let t = topo();
        let subs = SubscriptionConfig::riabov().generate(&t, 7).unwrap();
        let mut counts = [0usize; 3];
        for s in &subs {
            counts[t.block_of(s.node)] += 1;
        }
        let shares: Vec<f64> = counts
            .iter()
            .map(|&c| c as f64 / subs.len() as f64)
            .collect();
        assert!((shares[0] - 0.4).abs() < 0.05, "{shares:?}");
        assert!((shares[1] - 0.3).abs() < 0.05, "{shares:?}");
        assert!((shares[2] - 0.3).abs() < 0.05, "{shares:?}");
    }

    #[test]
    fn subscribers_are_stub_nodes() {
        let t = topo();
        let subs = SubscriptionConfig::riabov().generate(&t, 8).unwrap();
        for s in &subs {
            assert!(matches!(
                t.role(s.node),
                pubsub_netsim::NodeRole::Stub { .. }
            ));
        }
    }

    #[test]
    fn name_centers_track_block_means() {
        let t = topo();
        let subs = SubscriptionConfig::riabov().generate(&t, 11).unwrap();
        let mut sums = [0.0f64; 3];
        let mut counts = [0usize; 3];
        for s in &subs {
            let b = t.block_of(s.node);
            sums[b] += s.rect.side(1).center();
            counts[b] += 1;
        }
        for (b, want) in [(0usize, 3.0f64), (1, 10.0), (2, 17.0)] {
            let mean = sums[b] / counts[b] as f64;
            assert!((mean - want).abs() < 1.0, "block {b}: {mean} vs {want}");
        }
    }

    #[test]
    fn interval_kind_frequencies_match_q_parameters() {
        let dist = IntervalDistribution::volume();
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        let n = 50_000;
        let (mut wild, mut lower, mut upper, mut bounded) = (0, 0, 0, 0);
        for _ in 0..n {
            let iv = dist.sample(&mut rng);
            match (iv.lo().is_finite(), iv.hi().is_finite()) {
                (false, false) => wild += 1,
                (true, false) => lower += 1,
                (false, true) => upper += 1,
                (true, true) => bounded += 1,
            }
        }
        let f = |c: i32| f64::from(c) / n as f64;
        assert!((f(wild) - 0.35).abs() < 0.01);
        assert!((f(lower) - 0.10).abs() < 0.01);
        assert!((f(upper) - 0.10).abs() < 0.01);
        assert!((f(bounded) - 0.45).abs() < 0.01);
    }

    #[test]
    fn bst_interval_matches_discrete_value() {
        let t = topo();
        let subs = SubscriptionConfig::riabov().generate(&t, 13).unwrap();
        let mut counts = [0usize; 3];
        for s in &subs {
            let side = s.rect.side(0);
            let v = side.hi();
            assert!(v == 0.0 || v == 1.0 || v == 2.0);
            assert_eq!(side.length(), 1.0);
            counts[v as usize] += 1;
        }
        let f = |c: usize| c as f64 / subs.len() as f64;
        assert!((f(counts[0]) - 0.4).abs() < 0.05);
        assert!((f(counts[1]) - 0.4).abs() < 0.05);
        assert!((f(counts[2]) - 0.2).abs() < 0.05);
    }

    #[test]
    fn invalid_configs_rejected() {
        let t = topo();
        let mut cfg = SubscriptionConfig::riabov();
        cfg.count = 0;
        assert!(cfg.generate(&t, 0).is_err());

        let mut cfg = SubscriptionConfig::riabov();
        cfg.block_shares = vec![0.5, 0.5, 0.5];
        assert!(cfg.generate(&t, 0).is_err());

        let mut cfg = SubscriptionConfig::riabov();
        cfg.bst_probs = [1.0, 1.0, 1.0];
        assert!(cfg.generate(&t, 0).is_err());

        let mut cfg = SubscriptionConfig::riabov();
        cfg.name_means = vec![1.0];
        assert!(cfg.generate(&t, 0).is_err());

        let mut cfg = SubscriptionConfig::riabov();
        cfg.quote.q0 = 0.9;
        cfg.quote.q1 = 0.9;
        assert!(cfg.generate(&t, 0).is_err());

        // More shares than the topology has blocks.
        let mut cfg = SubscriptionConfig::riabov();
        cfg.block_shares = vec![0.25, 0.25, 0.25, 0.25];
        cfg.name_means = vec![1.0, 2.0, 3.0, 4.0];
        assert!(matches!(
            cfg.generate(&t, 0),
            Err(WorkloadError::TopologyMismatch { .. })
        ));
    }

    #[test]
    fn stock_space_covers_generated_subscriptions_after_clamp() {
        let t = topo();
        let space = stock_space();
        let subs = SubscriptionConfig::riabov().generate(&t, 21).unwrap();
        for s in &subs {
            let clamped = space.clamp(&s.rect);
            assert!(space.bounds().contains_rect(&clamped));
            assert!(clamped.is_finite());
        }
    }
}
