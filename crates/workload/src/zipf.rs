use rand::Rng;

use crate::WorkloadError;

/// A Zipf-like distribution over ranks `0..n`: `P(rank i) ∝ 1/(i+1)^θ`.
///
/// The paper uses "Zipf-like" distributions (citing Knuth) for the number
/// of subscriptions per stub, the popularity of subscriber nodes, and
/// subscription interval lengths. `θ = 1` is classic Zipf; the exponent is
/// a parameter everywhere (DESIGN.md choice 9).
///
/// # Example
///
/// ```
/// use pubsub_workload::ZipfLike;
///
/// # fn main() -> Result<(), pubsub_workload::WorkloadError> {
/// let zipf = ZipfLike::new(10, 1.0)?;
/// let mut rng = rand::thread_rng();
/// let rank = zipf.sample(&mut rng);
/// assert!(rank < 10);
/// assert!(zipf.pmf(0) > zipf.pmf(9)); // rank 0 is the most popular
/// # Ok(())
/// # }
/// ```
#[derive(Clone, Debug, PartialEq)]
pub struct ZipfLike {
    /// Cumulative probabilities; `cum[i]` = P(rank <= i).
    cum: Vec<f64>,
    theta: f64,
}

impl ZipfLike {
    /// Creates a Zipf-like distribution over `n` ranks with exponent
    /// `theta`.
    ///
    /// # Errors
    ///
    /// Returns [`WorkloadError::InvalidConfig`] if `n == 0` or `theta` is
    /// negative or not finite.
    pub fn new(n: usize, theta: f64) -> Result<Self, WorkloadError> {
        if n == 0 {
            return Err(WorkloadError::InvalidConfig {
                parameter: "n",
                constraint: "n >= 1",
            });
        }
        if !(theta >= 0.0 && theta.is_finite()) {
            return Err(WorkloadError::InvalidConfig {
                parameter: "theta",
                constraint: "0 <= theta < inf",
            });
        }
        let weights: Vec<f64> = (0..n).map(|i| 1.0 / ((i + 1) as f64).powf(theta)).collect();
        let total: f64 = weights.iter().sum();
        let mut cum = Vec::with_capacity(n);
        let mut acc = 0.0;
        for w in weights {
            acc += w / total;
            cum.push(acc);
        }
        // Guard against floating drift so sampling never falls off the end.
        *cum.last_mut().expect("n >= 1") = 1.0;
        Ok(ZipfLike { cum, theta })
    }

    /// Number of ranks.
    pub fn len(&self) -> usize {
        self.cum.len()
    }

    /// `true` if there is exactly one rank (never zero by construction).
    pub fn is_empty(&self) -> bool {
        false
    }

    /// The exponent `θ`.
    pub fn theta(&self) -> f64 {
        self.theta
    }

    /// Probability of rank `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.len()`.
    pub fn pmf(&self, i: usize) -> f64 {
        if i == 0 {
            self.cum[0]
        } else {
            self.cum[i] - self.cum[i - 1]
        }
    }

    /// Draws a rank.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> usize {
        let u: f64 = rng.gen();
        // First index with cum >= u.
        self.cum.partition_point(|&c| c < u).min(self.cum.len() - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn validation() {
        assert!(ZipfLike::new(0, 1.0).is_err());
        assert!(ZipfLike::new(5, -1.0).is_err());
        assert!(ZipfLike::new(5, f64::NAN).is_err());
    }

    #[test]
    fn pmf_sums_to_one_and_decreases() {
        let z = ZipfLike::new(50, 1.0).unwrap();
        let total: f64 = (0..50).map(|i| z.pmf(i)).sum();
        assert!((total - 1.0).abs() < 1e-9);
        for i in 1..50 {
            assert!(z.pmf(i) <= z.pmf(i - 1) + 1e-12);
        }
    }

    #[test]
    fn theta_zero_is_uniform() {
        let z = ZipfLike::new(4, 0.0).unwrap();
        for i in 0..4 {
            assert!((z.pmf(i) - 0.25).abs() < 1e-9);
        }
    }

    #[test]
    fn classic_zipf_ratios() {
        let z = ZipfLike::new(3, 1.0).unwrap();
        // Weights 1, 1/2, 1/3 -> normalized by 11/6.
        assert!((z.pmf(0) / z.pmf(1) - 2.0).abs() < 1e-9);
        assert!((z.pmf(0) / z.pmf(2) - 3.0).abs() < 1e-9);
    }

    #[test]
    fn sampling_matches_pmf() {
        let z = ZipfLike::new(10, 1.0).unwrap();
        let mut rng = ChaCha8Rng::seed_from_u64(99);
        let n = 200_000;
        let mut counts = [0usize; 10];
        for _ in 0..n {
            counts[z.sample(&mut rng)] += 1;
        }
        for (i, &c) in counts.iter().enumerate() {
            let emp = c as f64 / n as f64;
            assert!(
                (emp - z.pmf(i)).abs() < 0.01,
                "rank {i}: empirical {emp} vs pmf {}",
                z.pmf(i)
            );
        }
    }

    #[test]
    fn single_rank_always_zero() {
        let z = ZipfLike::new(1, 1.0).unwrap();
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        for _ in 0..10 {
            assert_eq!(z.sample(&mut rng), 0);
        }
        assert_eq!(z.len(), 1);
    }
}
