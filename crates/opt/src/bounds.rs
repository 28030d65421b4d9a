use rand::Rng;

use crate::OptError;

/// A box-constrained design space: independent `[lower, upper]` intervals
/// per dimension.
///
/// All optimizers and samplers in this workspace operate on `Bounds`. The
/// Gaussian process additionally uses [`Bounds::to_unit`] /
/// [`Bounds::from_unit`] to standardize inputs onto the unit cube.
///
/// # Example
///
/// ```
/// use easybo_opt::Bounds;
///
/// # fn main() -> Result<(), easybo_opt::OptError> {
/// let b = Bounds::new(vec![(0.0, 10.0), (-1.0, 1.0)])?;
/// let u = b.to_unit(&[5.0, 0.0]);
/// assert_eq!(u, vec![0.5, 0.5]);
/// assert_eq!(b.from_unit(&u), vec![5.0, 0.0]);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Bounds {
    pairs: Vec<(f64, f64)>,
}

impl Bounds {
    /// Creates a design space from `(lower, upper)` pairs.
    ///
    /// # Errors
    ///
    /// * [`OptError::EmptySpace`] if `pairs` is empty.
    /// * [`OptError::InvalidBounds`] if any pair has `lower >= upper` or a
    ///   non-finite endpoint.
    pub fn new(pairs: Vec<(f64, f64)>) -> crate::Result<Self> {
        if pairs.is_empty() {
            return Err(OptError::EmptySpace);
        }
        for (i, &(lo, hi)) in pairs.iter().enumerate() {
            if !(lo.is_finite() && hi.is_finite()) || lo >= hi {
                return Err(OptError::InvalidBounds {
                    dim: i,
                    lower: lo,
                    upper: hi,
                });
            }
        }
        Ok(Bounds { pairs })
    }

    /// The `d`-dimensional unit cube `[0, 1]^d`.
    ///
    /// # Errors
    ///
    /// Returns [`OptError::EmptySpace`] if `dim == 0`.
    pub fn unit_cube(dim: usize) -> crate::Result<Self> {
        Bounds::new(vec![(0.0, 1.0); dim])
    }

    /// Number of dimensions.
    pub fn dim(&self) -> usize {
        self.pairs.len()
    }

    /// The `(lower, upper)` pair for dimension `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= dim()`.
    pub fn pair(&self, i: usize) -> (f64, f64) {
        self.pairs[i]
    }

    /// All `(lower, upper)` pairs.
    pub fn pairs(&self) -> &[(f64, f64)] {
        &self.pairs
    }

    /// Lower corner of the box.
    pub fn lower(&self) -> Vec<f64> {
        self.pairs.iter().map(|&(lo, _)| lo).collect()
    }

    /// Upper corner of the box.
    pub fn upper(&self) -> Vec<f64> {
        self.pairs.iter().map(|&(_, hi)| hi).collect()
    }

    /// Width of each interval.
    pub fn widths(&self) -> Vec<f64> {
        self.pairs.iter().map(|&(lo, hi)| hi - lo).collect()
    }

    /// Whether `x` lies inside the box (inclusive).
    ///
    /// Points of the wrong dimensionality are reported as outside rather
    /// than panicking, so this can be used for validation.
    pub fn contains(&self, x: &[f64]) -> bool {
        x.len() == self.dim()
            && x.iter()
                .zip(self.pairs.iter())
                .all(|(&v, &(lo, hi))| v >= lo && v <= hi)
    }

    /// Projects `x` onto the box, clamping each coordinate.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != dim()`.
    pub fn clamp(&self, x: &[f64]) -> Vec<f64> {
        assert_eq!(x.len(), self.dim(), "clamp dimension mismatch");
        x.iter()
            .zip(self.pairs.iter())
            .map(|(&v, &(lo, hi))| v.clamp(lo, hi))
            .collect()
    }

    /// Maps a point from this box to the unit cube.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != dim()`.
    pub fn to_unit(&self, x: &[f64]) -> Vec<f64> {
        assert_eq!(x.len(), self.dim(), "to_unit dimension mismatch");
        x.iter()
            .zip(self.pairs.iter())
            .map(|(&v, &(lo, hi))| (v - lo) / (hi - lo))
            .collect()
    }

    /// Maps a unit-cube point into this box.
    ///
    /// # Panics
    ///
    /// Panics if `u.len() != dim()`.
    pub fn from_unit(&self, u: &[f64]) -> Vec<f64> {
        assert_eq!(u.len(), self.dim(), "from_unit dimension mismatch");
        u.iter()
            .zip(self.pairs.iter())
            .map(|(&t, &(lo, hi))| lo + t * (hi - lo))
            .collect()
    }

    /// Draws one uniform random point inside the box.
    pub fn sample_uniform<R: Rng + ?Sized>(&self, rng: &mut R) -> Vec<f64> {
        self.pairs
            .iter()
            .map(|&(lo, hi)| rng.gen_range(lo..hi))
            .collect()
    }

    /// Center of the box.
    pub fn center(&self) -> Vec<f64> {
        self.pairs.iter().map(|&(lo, hi)| 0.5 * (lo + hi)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::SeedableRng;

    #[test]
    fn rejects_empty_and_inverted() {
        assert_eq!(Bounds::new(vec![]).unwrap_err(), OptError::EmptySpace);
        assert!(matches!(
            Bounds::new(vec![(1.0, 1.0)]),
            Err(OptError::InvalidBounds { dim: 0, .. })
        ));
        assert!(matches!(
            Bounds::new(vec![(0.0, 1.0), (2.0, -2.0)]),
            Err(OptError::InvalidBounds { dim: 1, .. })
        ));
        assert!(Bounds::new(vec![(0.0, f64::INFINITY)]).is_err());
    }

    #[test]
    fn accessors() {
        let b = Bounds::new(vec![(0.0, 2.0), (-1.0, 3.0)]).unwrap();
        assert_eq!(b.dim(), 2);
        assert_eq!(b.pair(1), (-1.0, 3.0));
        assert_eq!(b.lower(), vec![0.0, -1.0]);
        assert_eq!(b.upper(), vec![2.0, 3.0]);
        assert_eq!(b.widths(), vec![2.0, 4.0]);
        assert_eq!(b.center(), vec![1.0, 1.0]);
    }

    #[test]
    fn contains_and_clamp() {
        let b = Bounds::new(vec![(0.0, 1.0), (0.0, 1.0)]).unwrap();
        assert!(b.contains(&[0.0, 1.0]));
        assert!(!b.contains(&[1.1, 0.5]));
        assert!(!b.contains(&[0.5])); // wrong dim: outside, not panic
        assert_eq!(b.clamp(&[-0.5, 2.0]), vec![0.0, 1.0]);
    }

    #[test]
    fn unit_mapping_round_trip() {
        let b = Bounds::new(vec![(-10.0, 10.0), (5.0, 6.0)]).unwrap();
        let x = vec![3.0, 5.25];
        let u = b.to_unit(&x);
        assert!((u[0] - 0.65).abs() < 1e-15);
        assert!((u[1] - 0.25).abs() < 1e-15);
        let back = b.from_unit(&u);
        assert!((back[0] - x[0]).abs() < 1e-12);
        assert!((back[1] - x[1]).abs() < 1e-12);
    }

    #[test]
    fn uniform_samples_stay_inside() {
        let b = Bounds::new(vec![(-2.0, -1.0), (100.0, 101.0)]).unwrap();
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        for _ in 0..100 {
            assert!(b.contains(&b.sample_uniform(&mut rng)));
        }
    }

    proptest! {
        #[test]
        fn prop_round_trip(lo in -1e3..0.0f64, w in 0.1..1e3f64, t in 0.0..1.0f64) {
            let b = Bounds::new(vec![(lo, lo + w)]).unwrap();
            let x = vec![lo + t * w];
            let u = b.to_unit(&x);
            let back = b.from_unit(&u);
            prop_assert!((back[0] - x[0]).abs() < 1e-9 * (1.0 + x[0].abs()));
        }

        #[test]
        fn prop_clamp_idempotent(lo in -10.0..0.0f64, w in 0.1..10.0f64, v in -100.0..100.0f64) {
            let b = Bounds::new(vec![(lo, lo + w)]).unwrap();
            let once = b.clamp(&[v]);
            let twice = b.clamp(&once);
            prop_assert_eq!(&once, &twice);
            prop_assert!(b.contains(&once));
        }
    }
}
