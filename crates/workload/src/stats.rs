//! Lightweight descriptive statistics used by the figure harnesses:
//! histograms, rank-frequency tables and closed-form distribution fits.

use crate::WorkloadError;

/// A fixed-width histogram over `[lo, hi)` with out-of-range values
/// clamped into the boundary bins (the figure harnesses care about shape,
/// not tail truncation artifacts).
#[derive(Clone, Debug, PartialEq)]
pub struct Histogram {
    lo: f64,
    hi: f64,
    counts: Vec<u64>,
    total: u64,
}

impl Histogram {
    /// Creates an empty histogram with `bins` equal-width bins.
    ///
    /// # Errors
    ///
    /// Returns [`WorkloadError::InvalidConfig`] unless `lo < hi` (finite)
    /// and `bins >= 1`.
    pub fn new(lo: f64, hi: f64, bins: usize) -> Result<Self, WorkloadError> {
        if !(lo < hi && lo.is_finite() && hi.is_finite()) {
            return Err(WorkloadError::InvalidConfig {
                parameter: "lo/hi",
                constraint: "lo < hi, both finite",
            });
        }
        if bins == 0 {
            return Err(WorkloadError::InvalidConfig {
                parameter: "bins",
                constraint: ">= 1",
            });
        }
        Ok(Histogram {
            lo,
            hi,
            counts: vec![0; bins],
            total: 0,
        })
    }

    /// Adds one observation (NaN is ignored).
    pub fn add(&mut self, x: f64) {
        if x.is_nan() {
            return;
        }
        let bins = self.counts.len();
        let t = (x - self.lo) / (self.hi - self.lo) * bins as f64;
        let idx = (t.floor().max(0.0) as usize).min(bins - 1);
        self.counts[idx] += 1;
        self.total += 1;
    }

    /// Adds every observation from an iterator.
    pub fn extend<I: IntoIterator<Item = f64>>(&mut self, xs: I) {
        for x in xs {
            self.add(x);
        }
    }

    /// Raw bin counts.
    pub fn counts(&self) -> &[u64] {
        &self.counts
    }

    /// Number of observations.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// The center of bin `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn bin_center(&self, i: usize) -> f64 {
        assert!(i < self.counts.len());
        let w = (self.hi - self.lo) / self.counts.len() as f64;
        self.lo + (i as f64 + 0.5) * w
    }

    /// Normalized densities (fractions summing to 1; zeros if empty).
    pub fn densities(&self) -> Vec<f64> {
        if self.total == 0 {
            return vec![0.0; self.counts.len()];
        }
        self.counts
            .iter()
            .map(|&c| c as f64 / self.total as f64)
            .collect()
    }

    /// Renders a terminal bar chart (one row per bin), used by the figure
    /// binaries.
    pub fn ascii(&self, width: usize) -> String {
        let max = self.counts.iter().copied().max().unwrap_or(0).max(1);
        let mut out = String::new();
        for (i, &c) in self.counts.iter().enumerate() {
            let bar = "#".repeat((c as usize * width) / max as usize);
            out.push_str(&format!(
                "{:>10.3} | {:<width$} {}\n",
                self.bin_center(i),
                bar,
                c
            ));
        }
        out
    }
}

/// Sorts per-item counts descending and pairs them with 1-based ranks —
/// the popularity plot of Figure 4(b).
pub fn rank_frequency(counts: &[u64]) -> Vec<(usize, u64)> {
    let mut sorted: Vec<u64> = counts.to_vec();
    sorted.sort_unstable_by(|a, b| b.cmp(a));
    sorted
        .into_iter()
        .enumerate()
        .map(|(i, c)| (i + 1, c))
        .collect()
}

/// Maximum-likelihood normal fit: `(mean, sd)`. Returns `None` for fewer
/// than two observations.
pub fn fit_normal(data: &[f64]) -> Option<(f64, f64)> {
    if data.len() < 2 {
        return None;
    }
    let n = data.len() as f64;
    let mean = data.iter().sum::<f64>() / n;
    let var = data.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n;
    Some((mean, var.sqrt()))
}

/// Least-squares slope of `ln(y)` against `ln(x)`, skipping non-positive
/// values. For a Zipf-like rank-frequency table the slope estimates `-θ`;
/// for a Pareto CCDF it estimates `-α`. Returns `None` with fewer than two
/// usable points.
pub fn fit_loglog_slope(points: &[(f64, f64)]) -> Option<f64> {
    let logs: Vec<(f64, f64)> = points
        .iter()
        .filter(|&&(x, y)| x > 0.0 && y > 0.0)
        .map(|&(x, y)| (x.ln(), y.ln()))
        .collect();
    if logs.len() < 2 {
        return None;
    }
    let n = logs.len() as f64;
    let sx: f64 = logs.iter().map(|&(x, _)| x).sum();
    let sy: f64 = logs.iter().map(|&(_, y)| y).sum();
    let sxx: f64 = logs.iter().map(|&(x, _)| x * x).sum();
    let sxy: f64 = logs.iter().map(|&(x, y)| x * y).sum();
    let denom = n * sxx - sx * sx;
    if denom.abs() < 1e-12 {
        return None;
    }
    Some((n * sxy - sx * sy) / denom)
}

/// Estimates the Pareto tail exponent `α` by regressing the empirical
/// log-CCDF on log-value. Returns `None` with fewer than two distinct
/// positive observations.
pub fn fit_pareto_alpha(data: &[f64]) -> Option<f64> {
    let mut xs: Vec<f64> = data.iter().copied().filter(|&x| x > 0.0).collect();
    if xs.len() < 2 {
        return None;
    }
    xs.sort_unstable_by(f64::total_cmp);
    let n = xs.len();
    // CCDF at each sorted value: P(X > x_i) ≈ (n - i - 1) / n; drop the
    // last point (CCDF 0).
    let points: Vec<(f64, f64)> = xs
        .iter()
        .enumerate()
        .take(n - 1)
        .map(|(i, &x)| (x, (n - i - 1) as f64 / n as f64))
        .collect();
    fit_loglog_slope(&points).map(|s| -s)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;
    use rand_distr::{Distribution, Normal, Pareto};

    #[test]
    fn histogram_basics() {
        let mut h = Histogram::new(0.0, 10.0, 5).unwrap();
        h.extend([0.5, 1.5, 2.5, 2.6, 9.9, -5.0, 15.0, f64::NAN]);
        assert_eq!(h.total(), 7); // NaN ignored
        assert_eq!(h.counts(), &[3, 2, 0, 0, 2]); // -5.0 and 15.0 clamped into edge bins
        assert_eq!(h.bin_center(0), 1.0);
        let d = h.densities();
        assert!((d.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        assert!(h.ascii(20).lines().count() == 5);
    }

    #[test]
    fn histogram_validation() {
        assert!(Histogram::new(1.0, 1.0, 5).is_err());
        assert!(Histogram::new(0.0, 1.0, 0).is_err());
        assert!(Histogram::new(f64::NEG_INFINITY, 1.0, 3).is_err());
    }

    #[test]
    fn rank_frequency_sorts_descending() {
        let rf = rank_frequency(&[3, 9, 1, 9]);
        assert_eq!(rf, vec![(1, 9), (2, 9), (3, 3), (4, 1)]);
    }

    #[test]
    fn normal_fit_recovers_parameters() {
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        let normal = Normal::new(5.0, 2.0).unwrap();
        let data: Vec<f64> = (0..50_000).map(|_| normal.sample(&mut rng)).collect();
        let (mean, sd) = fit_normal(&data).unwrap();
        assert!((mean - 5.0).abs() < 0.05);
        assert!((sd - 2.0).abs() < 0.05);
        assert_eq!(fit_normal(&[1.0]), None);
    }

    #[test]
    fn loglog_slope_recovers_zipf_exponent() {
        // Perfect Zipf with theta = 1.2.
        let points: Vec<(f64, f64)> = (1..=100)
            .map(|r| (r as f64, 1000.0 / (r as f64).powf(1.2)))
            .collect();
        let slope = fit_loglog_slope(&points).unwrap();
        assert!((slope + 1.2).abs() < 1e-9);
        assert_eq!(fit_loglog_slope(&[(1.0, 1.0)]), None);
        assert_eq!(fit_loglog_slope(&[(0.0, 1.0), (-1.0, 2.0)]), None);
    }

    #[test]
    fn pareto_fit_recovers_alpha() {
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let pareto = Pareto::new(1.0, 1.5).unwrap();
        let data: Vec<f64> = (0..50_000).map(|_| pareto.sample(&mut rng)).collect();
        let alpha = fit_pareto_alpha(&data).unwrap();
        assert!((alpha - 1.5).abs() < 0.1, "alpha = {alpha}");
    }
}
