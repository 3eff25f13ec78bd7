//! Million-subscriber scale workload: a Zipf-skewed, duplicate-heavy
//! subscription population generated in fixed-size chunks so the result
//! is a pure function of the seed — independent of how many threads
//! filled it.
//!
//! Real large populations are dominated by repetition: many subscribers
//! issue the *same* predicate (hot stocks, popular alert templates).
//! The generator models this directly: a pool of `pool_size` distinct
//! rectangles is drawn once from the §5 parametric distributions, and
//! each of the `count` subscriptions picks its rectangle from the pool
//! through a Zipf-like rank distribution (`zipf_theta`; 0 = uniform,
//! larger = heavier duplication) and its subscriber node through the
//! same block/stub/node popularity structure as
//! [`SubscriptionConfig::generate`]. The pool-backed representation
//! (`u32` pick per subscription) keeps a 10M-subscription workload in
//! tens of megabytes instead of gigabytes of rectangles.
//!
//! # Determinism across thread counts
//!
//! Subscriptions are generated in fixed [`CHUNK`]-sized blocks, each
//! from its own counter-derived RNG (`splitmix64(seed, chunk index)`).
//! Worker threads claim whole chunks and write into disjoint slices, so
//! the output is bit-identical for every `threads` value — there is no
//! shared iteration order (and no hash map anywhere) to leak scheduling
//! into the result.

use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

use pubsub_geom::Rect;
use pubsub_netsim::{NodeId, Topology};

use crate::subscriptions::{categorical, NodePicker};
use crate::{SubscriptionConfig, WorkloadError, ZipfLike};

/// Subscriptions per generation chunk: each chunk is filled from its own
/// counter-derived RNG, so any partition of chunks over threads yields
/// the same population.
pub const CHUNK: usize = 1 << 16;

/// Configuration of the scale generator. Passive data: public fields.
#[derive(Clone, Debug, PartialEq)]
pub struct ScaleConfig {
    /// Total subscriptions to generate.
    pub count: usize,
    /// Number of distinct rectangles in the pool.
    pub pool_size: usize,
    /// Zipf exponent of the pool rank distribution: 0 spreads picks
    /// uniformly (few duplicates at small counts), 1 is classic Zipf
    /// (the most popular rectangle alone draws a constant fraction).
    pub zipf_theta: f64,
    /// The §5 parametric distributions the pool rectangles and the
    /// subscriber placement are drawn from.
    pub base: SubscriptionConfig,
}

impl ScaleConfig {
    /// A stock-market population of `count` subscriptions over a pool of
    /// 4096 distinct rectangles with classic Zipf (`θ = 1`) skew.
    pub fn stock(count: usize) -> Self {
        ScaleConfig {
            count,
            pool_size: 4096,
            zipf_theta: 1.0,
            base: SubscriptionConfig::riabov(),
        }
    }

    /// Generates the population on `topo`, deterministically from
    /// `seed`, filling chunks on up to `threads` worker threads (`None`
    /// = available parallelism). The result is bit-identical for every
    /// thread count.
    ///
    /// # Errors
    ///
    /// Configuration errors from the base config, a zero `count` or
    /// `pool_size`, or a bad `zipf_theta` (see [`WorkloadError`]).
    pub fn generate(
        &self,
        topo: &Topology,
        seed: u64,
        threads: Option<usize>,
    ) -> Result<ScaleWorkload, WorkloadError> {
        if self.count == 0 {
            return Err(WorkloadError::InvalidConfig {
                parameter: "count",
                constraint: ">= 1",
            });
        }
        if self.pool_size == 0 || self.pool_size > u32::MAX as usize {
            return Err(WorkloadError::InvalidConfig {
                parameter: "pool_size",
                constraint: "1 ..= u32::MAX",
            });
        }
        self.base.validate(topo)?;
        let picker = NodePicker::new(&self.base, topo)?;
        let pool_zipf = ZipfLike::new(self.pool_size, self.zipf_theta)?;
        let name_len_zipf =
            ZipfLike::new(self.base.name_length_zipf.0, self.base.name_length_zipf.1)?;

        // The pool: one sequential pass on a dedicated stream. Each pool
        // rectangle carries the block whose name-mean it was drawn
        // around, like a concrete §5 subscription would.
        let mut rng = ChaCha8Rng::seed_from_u64(mix(seed, u64::MAX));
        let pool: Vec<Rect> = (0..self.pool_size)
            .map(|_| {
                let block = categorical(&self.base.block_shares, &mut rng);
                self.base.sample_rect(block, &name_len_zipf, &mut rng)
            })
            .collect();

        // The population: disjoint chunks, one counter-derived RNG each.
        let mut picks = vec![0u32; self.count];
        let mut owners = vec![NodeId(0); self.count];
        let chunks = self.count.div_ceil(CHUNK);
        let workers = threads
            .unwrap_or_else(|| {
                std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
            })
            .clamp(1, chunks);
        let fill = |chunk: usize, picks: &mut [u32], owners: &mut [NodeId]| {
            let mut rng = ChaCha8Rng::seed_from_u64(mix(seed, chunk as u64));
            for (pick, owner) in picks.iter_mut().zip(owners.iter_mut()) {
                *pick = pool_zipf.sample(&mut rng) as u32;
                let (_, node) = picker.pick(topo, &mut rng);
                *owner = node;
            }
        };
        if workers <= 1 {
            for (chunk, (p, o)) in picks
                .chunks_mut(CHUNK)
                .zip(owners.chunks_mut(CHUNK))
                .enumerate()
            {
                fill(chunk, p, o);
            }
        } else {
            // Block-cyclic chunk assignment over scoped threads; every
            // thread writes only its own disjoint chunk slices.
            let pairs: Vec<ChunkSlot<'_>> = picks
                .chunks_mut(CHUNK)
                .zip(owners.chunks_mut(CHUNK))
                .enumerate()
                .map(|(c, (p, o))| (c, p, o))
                .collect();
            let mut shards: Vec<Vec<ChunkSlot<'_>>> = (0..workers).map(|_| Vec::new()).collect();
            for (i, pair) in pairs.into_iter().enumerate() {
                shards[i % workers].push(pair);
            }
            std::thread::scope(|scope| {
                for shard in shards {
                    scope.spawn(|| {
                        for (chunk, p, o) in shard {
                            fill(chunk, p, o);
                        }
                    });
                }
            });
        }
        Ok(ScaleWorkload {
            pool,
            picks,
            owners,
        })
    }
}

/// One chunk's output slot: its index plus the disjoint pick/owner
/// slices a worker fills from the chunk's own RNG stream.
type ChunkSlot<'a> = (usize, &'a mut [u32], &'a mut [NodeId]);

/// One splitmix64 step over `seed ⊕ golden·(tag + 1)` — the per-chunk
/// stream seed.
fn mix(seed: u64, tag: u64) -> u64 {
    let mut z = seed ^ tag.wrapping_add(1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A generated scale population, pool-backed: subscription `i` is
/// `(owner(i), pool rectangle picks[i])`.
#[derive(Clone, Debug)]
pub struct ScaleWorkload {
    pool: Vec<Rect>,
    picks: Vec<u32>,
    owners: Vec<NodeId>,
}

impl ScaleWorkload {
    /// Number of subscriptions.
    pub fn len(&self) -> usize {
        self.picks.len()
    }

    /// `true` if the population is empty (never, by construction).
    pub fn is_empty(&self) -> bool {
        self.picks.is_empty()
    }

    /// Number of distinct rectangles in the pool.
    pub fn pool_size(&self) -> usize {
        self.pool.len()
    }

    /// Subscription `i`: its subscriber node and rectangle.
    ///
    /// # Panics
    ///
    /// Panics if `i >= len()`.
    pub fn get(&self, i: usize) -> (NodeId, &Rect) {
        (self.owners[i], &self.pool[self.picks[i] as usize])
    }

    /// Pool rectangle `i`: the rectangle [`ScaleWorkload::for_each_pick`]
    /// names by `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= pool_size()`.
    pub fn pool_rect(&self, i: usize) -> &Rect {
        &self.pool[i]
    }

    /// Calls `f` once per subscription, in id order, with its subscriber
    /// node and the index of its pool rectangle.
    pub fn for_each_pick(&self, f: &mut dyn FnMut(NodeId, u32)) {
        for (owner, pick) in self.owners.iter().zip(&self.picks) {
            f(*owner, *pick);
        }
    }

    /// Materializes the population as a `(node, rectangle)` list —
    /// convenient for small counts; at scale, stream with
    /// [`ScaleWorkload::for_each_pick`] and [`ScaleWorkload::pool_rect`]
    /// instead.
    pub fn to_vec(&self) -> Vec<(NodeId, Rect)> {
        self.owners
            .iter()
            .zip(&self.picks)
            .map(|(o, p)| (*o, self.pool[*p as usize].clone()))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pubsub_netsim::TransitStubConfig;

    fn topo() -> Topology {
        TransitStubConfig::riabov().generate(3).unwrap()
    }

    #[test]
    fn identical_seed_identical_population_for_every_thread_count() {
        let t = topo();
        // Spans several chunks so the parallel path actually splits.
        let cfg = ScaleConfig {
            count: 3 * CHUNK + 17,
            ..ScaleConfig::stock(0)
        };
        let one = cfg.generate(&t, 99, Some(1)).unwrap();
        for threads in [2, 3, 8] {
            let many = cfg.generate(&t, 99, Some(threads)).unwrap();
            assert_eq!(one.picks, many.picks, "threads = {threads}");
            assert_eq!(one.owners, many.owners, "threads = {threads}");
            assert_eq!(one.pool, many.pool, "threads = {threads}");
        }
        let other = cfg.generate(&t, 100, Some(1)).unwrap();
        assert_ne!(one.picks, other.picks);
    }

    #[test]
    fn zipf_theta_controls_duplicate_skew() {
        let t = topo();
        let skewed = ScaleConfig {
            count: 40_000,
            pool_size: 512,
            zipf_theta: 1.0,
            base: SubscriptionConfig::riabov(),
        };
        let uniform = ScaleConfig {
            zipf_theta: 0.0,
            ..skewed.clone()
        };
        let top_share = |w: &ScaleWorkload| {
            let mut counts = vec![0usize; w.pool_size()];
            for &p in &w.picks {
                counts[p as usize] += 1;
            }
            *counts.iter().max().unwrap() as f64 / w.len() as f64
        };
        let s = top_share(&skewed.generate(&t, 5, None).unwrap());
        let u = top_share(&uniform.generate(&t, 5, None).unwrap());
        // Classic Zipf over 512 ranks gives rank 0 ≈ 1/H(512) ≈ 14.7%;
        // uniform gives ≈ 0.2%.
        assert!(s > 0.10, "skewed top share {s}");
        assert!(u < 0.01, "uniform top share {u}");
    }

    #[test]
    fn population_is_placed_on_stub_nodes_with_pool_rects() {
        let t = topo();
        let w = ScaleConfig::stock(1000).generate(&t, 7, None).unwrap();
        assert_eq!(w.len(), 1000);
        let subs = w.to_vec();
        assert_eq!(subs.len(), 1000);
        for (i, (node, rect)) in subs.iter().enumerate() {
            assert!(matches!(
                t.role(*node),
                pubsub_netsim::NodeRole::Stub { .. }
            ));
            let (n, r) = w.get(i);
            assert_eq!((n, r), (*node, rect));
            assert_eq!(rect.dims(), 4);
        }
    }

    #[test]
    fn invalid_configs_rejected() {
        let t = topo();
        assert!(ScaleConfig::stock(0).generate(&t, 0, None).is_err());
        let mut cfg = ScaleConfig::stock(10);
        cfg.pool_size = 0;
        assert!(cfg.generate(&t, 0, None).is_err());
        let mut cfg = ScaleConfig::stock(10);
        cfg.zipf_theta = f64::NAN;
        assert!(cfg.generate(&t, 0, None).is_err());
    }
}
