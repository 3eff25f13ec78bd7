//! Publication (event) generation: mixtures of multivariate normals (§5).
//!
//! The paper constructs its publication distributions from *independent
//! per-dimension mixtures* of normal components; the product of the
//! per-dimension mixtures gives 1, 4 (2×2) or 9 (3×3) joint modes — "hot
//! spots where events are published more frequently".

use rand::Rng;
use rand_distr::{Distribution, Normal};

use pubsub_geom::{Point, Rect};

use crate::math::normal_mass;
use crate::WorkloadError;

/// A one-dimensional mixture of normal components.
#[derive(Clone, Debug, PartialEq)]
pub struct DimMixture {
    /// `(weight, mean, sd)` triples; weights sum to 1.
    components: Vec<(f64, f64, f64)>,
}

impl DimMixture {
    /// A single normal component `N(mean, sd)`.
    ///
    /// # Errors
    ///
    /// Returns [`WorkloadError::InvalidConfig`] if `sd <= 0` or a value is
    /// not finite.
    pub fn normal(mean: f64, sd: f64) -> Result<Self, WorkloadError> {
        DimMixture::mixture(vec![(1.0, mean, sd)])
    }

    /// A weighted mixture of normal components.
    ///
    /// # Errors
    ///
    /// Returns [`WorkloadError::BadProbabilities`] unless the weights are
    /// positive and sum to 1 (±1e-9), and
    /// [`WorkloadError::InvalidConfig`] for non-positive standard
    /// deviations or non-finite parameters.
    pub fn mixture(components: Vec<(f64, f64, f64)>) -> Result<Self, WorkloadError> {
        if components.is_empty() {
            return Err(WorkloadError::InvalidConfig {
                parameter: "components",
                constraint: "at least one component",
            });
        }
        let mut total = 0.0;
        for &(w, mean, sd) in &components {
            if !(w > 0.0 && w.is_finite() && mean.is_finite()) {
                return Err(WorkloadError::BadProbabilities {
                    context: "mixture weights",
                });
            }
            if !(sd > 0.0 && sd.is_finite()) {
                return Err(WorkloadError::InvalidConfig {
                    parameter: "sd",
                    constraint: "sd > 0",
                });
            }
            total += w;
        }
        if (total - 1.0).abs() > 1e-9 {
            return Err(WorkloadError::BadProbabilities {
                context: "mixture weights",
            });
        }
        Ok(DimMixture { components })
    }

    /// The components as `(weight, mean, sd)` triples.
    pub fn components(&self) -> &[(f64, f64, f64)] {
        &self.components
    }

    /// Draws a value: pick a component by weight, then sample it.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        let mut u: f64 = rng.gen();
        for &(w, mean, sd) in &self.components {
            if u < w {
                let normal = Normal::new(mean, sd).expect("validated at construction");
                return normal.sample(rng);
            }
            u -= w;
        }
        // Floating drift: fall back to the last component.
        let &(_, mean, sd) = self.components.last().expect("non-empty");
        Normal::new(mean, sd)
            .expect("validated at construction")
            .sample(rng)
    }

    /// Probability mass assigned to the half-open interval `(lo, hi]`.
    pub fn mass(&self, lo: f64, hi: f64) -> f64 {
        self.components
            .iter()
            .map(|&(w, mean, sd)| w * normal_mass(lo, hi, mean, sd))
            .sum()
    }
}

/// A publication model: independent per-dimension mixtures whose product
/// forms the joint event distribution.
#[derive(Clone, Debug, PartialEq)]
pub struct PublicationModel {
    dims: Vec<DimMixture>,
}

impl PublicationModel {
    /// Creates a model from per-dimension mixtures.
    ///
    /// # Errors
    ///
    /// Returns [`WorkloadError::InvalidConfig`] if `dims` is empty.
    pub fn new(dims: Vec<DimMixture>) -> Result<Self, WorkloadError> {
        if dims.is_empty() {
            return Err(WorkloadError::InvalidConfig {
                parameter: "dims",
                constraint: "at least one dimension",
            });
        }
        Ok(PublicationModel { dims })
    }

    /// Number of dimensions.
    pub fn dims(&self) -> usize {
        self.dims.len()
    }

    /// The mixture along dimension `d`.
    ///
    /// # Panics
    ///
    /// Panics if `d` is out of range.
    pub fn dim(&self, d: usize) -> &DimMixture {
        &self.dims[d]
    }

    /// Draws one publication event.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> Point {
        Point::new(self.dims.iter().map(|m| m.sample(rng)).collect())
            .expect("normal samples are finite")
    }

    /// The exact probability mass the model assigns to a rectangle — the
    /// publication density `p_p(·)` used by the clustering algorithms.
    ///
    /// # Panics
    ///
    /// Panics (debug) on dimensionality mismatch.
    pub fn mass(&self, rect: &Rect) -> f64 {
        debug_assert_eq!(rect.dims(), self.dims.len());
        self.dims
            .iter()
            .zip(rect.sides())
            .map(|(m, side)| m.mass(side.lo(), side.hi()))
            .product()
    }
}

/// The paper's three publication scenarios (§5): mixtures with 1, 4 and 9
/// hot spots.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Modes {
    /// Single multivariate normal.
    One,
    /// 2×2 modes (dimensions 2 and 3 are two-component mixtures).
    Four,
    /// 3×3 modes (dimensions 2 and 3 are three-component mixtures).
    Nine,
}

impl Modes {
    /// All three scenarios, in paper order.
    pub const ALL: [Modes; 3] = [Modes::One, Modes::Four, Modes::Nine];

    /// Number of joint modes.
    pub fn mode_count(&self) -> usize {
        match self {
            Modes::One => 1,
            Modes::Four => 4,
            Modes::Nine => 9,
        }
    }

    /// Builds the publication model with the paper's parameters.
    ///
    /// Single mode: `N(1,1), N(10,6), N(9,2), N(9,6)`. The 4-mode scenario
    /// splits dimensions 2 and 3 into two components each; the 9-mode
    /// scenario into three each (the paper's §5 text lists "third/fourth"
    /// twice — we read the two 3-way mixtures as dimensions 2 and 3,
    /// matching the 4-mode construction; DESIGN.md choice 6).
    pub fn model(&self) -> PublicationModel {
        let dim1 = DimMixture::normal(1.0, 1.0).expect("static parameters");
        let dim4 = DimMixture::normal(9.0, 6.0).expect("static parameters");
        let (dim2, dim3) = match self {
            Modes::One => (
                DimMixture::normal(10.0, 6.0).expect("static parameters"),
                DimMixture::normal(9.0, 2.0).expect("static parameters"),
            ),
            Modes::Four => (
                DimMixture::mixture(vec![(0.5, 12.0, 3.0), (0.5, 6.0, 2.0)])
                    .expect("static parameters"),
                DimMixture::mixture(vec![(0.5, 4.0, 2.0), (0.5, 16.0, 2.0)])
                    .expect("static parameters"),
            ),
            Modes::Nine => (
                DimMixture::mixture(vec![(0.3, 4.0, 3.0), (0.4, 11.0, 3.0), (0.3, 18.0, 3.0)])
                    .expect("static parameters"),
                DimMixture::mixture(vec![(0.3, 4.0, 3.0), (0.4, 9.0, 3.0), (0.3, 16.0, 3.0)])
                    .expect("static parameters"),
            ),
        };
        PublicationModel::new(vec![dim1, dim2, dim3, dim4]).expect("four dimensions")
    }
}

impl std::fmt::Display for Modes {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} mode(s)", self.mode_count())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn mixture_validation() {
        assert!(DimMixture::mixture(vec![]).is_err());
        assert!(DimMixture::mixture(vec![(0.5, 0.0, 1.0)]).is_err()); // sums to 0.5
        assert!(DimMixture::mixture(vec![(1.0, 0.0, 0.0)]).is_err()); // sd 0
        assert!(DimMixture::mixture(vec![(-1.0, 0.0, 1.0), (2.0, 0.0, 1.0)]).is_err());
        assert!(DimMixture::normal(5.0, 2.0).is_ok());
    }

    #[test]
    fn mass_of_whole_line_is_one() {
        for modes in Modes::ALL {
            let m = modes.model();
            let all = Rect::from_corners(&[-1e6; 4], &[1e6; 4]).unwrap();
            assert!((m.mass(&all) - 1.0).abs() < 1e-6, "{modes}");
        }
    }

    #[test]
    fn empirical_mass_matches_analytic() {
        let model = Modes::Four.model();
        let cell = Rect::from_corners(&[0.0, 4.0, 2.0, 5.0], &[2.0, 8.0, 6.0, 13.0]).unwrap();
        let analytic = model.mass(&cell);
        let mut rng = ChaCha8Rng::seed_from_u64(17);
        let n = 100_000;
        let mut hits = 0usize;
        for _ in 0..n {
            if cell.contains_point(&model.sample(&mut rng)) {
                hits += 1;
            }
        }
        let empirical = hits as f64 / n as f64;
        assert!(
            (empirical - analytic).abs() < 0.01,
            "empirical {empirical} vs analytic {analytic}"
        );
    }

    #[test]
    fn sample_means_track_components() {
        let model = Modes::One.model();
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        let n = 50_000;
        let mut sums = [0.0f64; 4];
        for _ in 0..n {
            let p = model.sample(&mut rng);
            for (d, sum) in sums.iter_mut().enumerate() {
                *sum += p.coord(d);
            }
        }
        let means: Vec<f64> = sums.iter().map(|s| s / n as f64).collect();
        for (d, want) in [(0usize, 1.0f64), (1, 10.0), (2, 9.0), (3, 9.0)] {
            assert!(
                (means[d] - want).abs() < 0.15,
                "dim {d}: {} vs {want}",
                means[d]
            );
        }
    }

    #[test]
    fn nine_mode_dim2_is_trimodal() {
        let model = Modes::Nine.model();
        assert_eq!(model.dim(1).components().len(), 3);
        assert_eq!(model.dim(2).components().len(), 3);
        assert_eq!(model.dim(0).components().len(), 1);
        assert_eq!(model.dim(3).components().len(), 1);
        assert_eq!(Modes::Nine.mode_count(), 9);
        assert_eq!(Modes::Nine.to_string(), "9 mode(s)");
    }

    #[test]
    fn mass_is_additive_over_adjacent_cells() {
        let model = Modes::Nine.model();
        let left = Rect::from_corners(&[0.0, 0.0, 0.0, 0.0], &[1.0, 10.0, 10.0, 10.0]).unwrap();
        let right = Rect::from_corners(&[1.0, 0.0, 0.0, 0.0], &[2.0, 10.0, 10.0, 10.0]).unwrap();
        let both = Rect::from_corners(&[0.0, 0.0, 0.0, 0.0], &[2.0, 10.0, 10.0, 10.0]).unwrap();
        assert!((model.mass(&left) + model.mass(&right) - model.mass(&both)).abs() < 1e-9);
    }
}
