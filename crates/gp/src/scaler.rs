/// Z-score scaler for GP targets.
///
/// Fitting a GP to raw figure-of-merit values (which can live around ~690
/// for the op-amp benchmark) with a unit-variance prior would be hopeless;
/// the model internally standardizes targets and this type performs the
/// round-trip.
///
/// A degenerate (constant) target vector gets `std = 1` so the transform
/// stays invertible.
///
/// # Example
///
/// ```
/// use easybo_gp::YScaler;
///
/// let s = YScaler::fit(&[10.0, 12.0, 14.0]);
/// assert_eq!(s.transform(12.0), 0.0);
/// let z = s.transform(14.0);
/// assert!((s.inverse(z) - 14.0).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct YScaler {
    mean: f64,
    std: f64,
}

impl YScaler {
    /// Fits mean/std to `ys` (population std; `std = 1` when degenerate).
    pub fn fit(ys: &[f64]) -> Self {
        let mean = easybo_linalg::mean(ys);
        let mut std = easybo_linalg::population_std(ys);
        if std.is_nan() || std <= 1e-12 {
            std = 1.0;
        }
        YScaler { mean, std }
    }

    /// The identity scaler (mean 0, std 1).
    pub fn identity() -> Self {
        YScaler {
            mean: 0.0,
            std: 1.0,
        }
    }

    /// Rebuilds a scaler from its captured ([`YScaler::mean`],
    /// [`YScaler::std`]) pair — the exact inverse used by
    /// checkpoint/resume. No degeneracy guard is applied: the parts
    /// came from a scaler that already passed through [`YScaler::fit`].
    pub fn from_parts(mean: f64, std: f64) -> Self {
        YScaler { mean, std }
    }

    /// Mean removed by the transform.
    pub fn mean(&self) -> f64 {
        self.mean
    }

    /// Scale divided out by the transform.
    pub fn std(&self) -> f64 {
        self.std
    }

    /// Raw value → standardized value.
    pub fn transform(&self, y: f64) -> f64 {
        (y - self.mean) / self.std
    }

    /// Standardized value → raw value.
    pub fn inverse(&self, z: f64) -> f64 {
        z * self.std + self.mean
    }

    /// Standardized *variance* → raw variance.
    pub fn inverse_variance(&self, var: f64) -> f64 {
        var * self.std * self.std
    }
}

impl Default for YScaler {
    fn default() -> Self {
        YScaler::identity()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn identity_is_noop() {
        let s = YScaler::identity();
        assert_eq!(s.transform(3.5), 3.5);
        assert_eq!(s.inverse(3.5), 3.5);
        assert_eq!(s.inverse_variance(2.0), 2.0);
    }

    #[test]
    fn from_parts_is_the_exact_inverse_of_the_accessors() {
        let s = YScaler::fit(&[1.0, 3.0, 5.0, 700.0]);
        let rebuilt = YScaler::from_parts(s.mean(), s.std());
        assert_eq!(rebuilt, s);
        assert_eq!(rebuilt.transform(2.5).to_bits(), s.transform(2.5).to_bits());
    }

    #[test]
    fn constant_targets_do_not_divide_by_zero() {
        let s = YScaler::fit(&[5.0; 8]);
        assert_eq!(s.std(), 1.0);
        assert_eq!(s.transform(5.0), 0.0);
    }

    #[test]
    fn standardizes_to_zero_mean_unit_var() {
        let ys = [1.0, 3.0, 5.0, 7.0];
        let s = YScaler::fit(&ys);
        let zs: Vec<f64> = ys.iter().map(|&y| s.transform(y)).collect();
        assert!(easybo_linalg::mean(&zs).abs() < 1e-12);
        assert!((easybo_linalg::population_std(&zs) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn variance_scales_quadratically() {
        let s = YScaler::fit(&[0.0, 10.0]);
        assert!((s.inverse_variance(1.0) - 25.0).abs() < 1e-12);
    }

    proptest! {
        #[test]
        fn prop_round_trip(ys in proptest::collection::vec(-1e4..1e4f64, 2..30), y in -1e4..1e4f64) {
            let s = YScaler::fit(&ys);
            prop_assert!((s.inverse(s.transform(y)) - y).abs() < 1e-6 * (1.0 + y.abs()));
        }
    }
}
