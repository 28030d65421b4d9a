//! ARD (automatic relevance determination) covariance kernels with analytic
//! gradients in **log-hyperparameter space**.
//!
//! The hyperparameter vector layout shared by every kernel family is
//! `θ = [log ℓ₁, …, log ℓ_d, log σ_f²]`: one log length-scale per input
//! dimension followed by the log signal variance. The observation noise
//! lives in the GP model, not the kernel.

use easybo_linalg::Matrix;
use serde::{Deserialize, Serialize};

/// Fixed shape parameter of the rational-quadratic kernel.
const RQ_ALPHA: f64 = 2.0;

/// Scaled squared distance with precomputed inverse length-scales: the same
/// `(aᵢ-bᵢ)·ℓᵢ⁻¹` arithmetic (and accumulation order) as [`ArdKernel::eval`],
/// so batched builders produce bit-identical kernel values.
fn scaled_r2(a: &[f64], b: &[f64], inv_l: &[f64]) -> f64 {
    let mut r2 = 0.0;
    for ((&ai, &bi), &il) in a.iter().zip(b).zip(inv_l) {
        let d = (ai - bi) * il;
        r2 += d * d;
    }
    r2
}

/// The kernel families available to [`ArdKernel`].
///
/// The EasyBO paper uses the squared-exponential kernel (§II-B); the Matérn
/// variants are provided as drop-in extensions (rougher sample paths, often
/// better-behaved hyperparameter surfaces on real circuit data).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub enum KernelFamily {
    /// Squared exponential (RBF / Gaussian), infinitely differentiable.
    #[default]
    SquaredExponential,
    /// Matérn ν = 5/2, twice differentiable.
    Matern52,
    /// Matérn ν = 3/2, once differentiable.
    Matern32,
    /// Rational quadratic with fixed shape α = 2 — a scale mixture of SE
    /// kernels, heavier-tailed than SE (extension beyond the paper).
    RationalQuadratic,
}

/// An ARD kernel: a [`KernelFamily`] bound to an input dimension, evaluated
/// under an externally supplied hyperparameter vector.
///
/// # Example
///
/// ```
/// use easybo_gp::kernel::{ArdKernel, KernelFamily};
///
/// let k = ArdKernel::new(KernelFamily::SquaredExponential, 2);
/// let theta = k.default_theta(); // unit length-scales, unit variance
/// let same = k.eval(&theta, &[0.3, 0.4], &[0.3, 0.4]);
/// assert!((same - 1.0).abs() < 1e-12); // k(x, x) = σ_f²
/// let far = k.eval(&theta, &[0.0, 0.0], &[10.0, 10.0]);
/// assert!(far < 1e-10); // decays with distance
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct ArdKernel {
    family: KernelFamily,
    dim: usize,
}

impl ArdKernel {
    /// Creates a kernel of the given family over `dim`-dimensional inputs.
    pub fn new(family: KernelFamily, dim: usize) -> Self {
        ArdKernel { family, dim }
    }

    /// The kernel family.
    pub fn family(&self) -> KernelFamily {
        self.family
    }

    /// Input dimensionality.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Number of hyperparameters: `dim` log length-scales + log σ_f².
    pub fn n_theta(&self) -> usize {
        self.dim + 1
    }

    /// Default hyperparameters: unit length-scales and unit signal variance
    /// (all zeros in log space) — sensible for unit-cube inputs and z-scored
    /// targets.
    pub fn default_theta(&self) -> Vec<f64> {
        vec![0.0; self.n_theta()]
    }

    /// Signal variance σ_f² encoded in `theta`.
    ///
    /// # Panics
    ///
    /// Panics if `theta.len() != n_theta()`.
    pub fn signal_variance(&self, theta: &[f64]) -> f64 {
        assert_eq!(theta.len(), self.n_theta(), "theta length mismatch");
        theta[self.dim].exp()
    }

    /// Family-specific kernel value from the signal variance and scaled
    /// squared distance — the single place the radial profile is computed,
    /// shared by the scalar and batched evaluation paths.
    fn eval_r2(&self, sf2: f64, r2: f64) -> f64 {
        match self.family {
            KernelFamily::SquaredExponential => sf2 * (-0.5 * r2).exp(),
            KernelFamily::Matern52 => {
                let r = r2.sqrt();
                let s = 5f64.sqrt() * r;
                sf2 * (1.0 + s + s * s / 3.0) * (-s).exp()
            }
            KernelFamily::Matern32 => {
                let r = r2.sqrt();
                let s = 3f64.sqrt() * r;
                sf2 * (1.0 + s) * (-s).exp()
            }
            KernelFamily::RationalQuadratic => sf2 * (1.0 + r2 / (2.0 * RQ_ALPHA)).powf(-RQ_ALPHA),
        }
    }

    /// Kernel value and radial gradient factor `(k, g)` of one pair under
    /// hoisted inverse length-scales `inv_l` and signal variance `sf2`,
    /// writing the scaled differences `uᵢ = (aᵢ-bᵢ)·ℓᵢ⁻¹` into `u`. The
    /// value is bit-identical to [`ArdKernel::eval`]; the gradient is
    /// `∂k/∂log ℓᵢ = g · uᵢ · uᵢ` and `∂k/∂log σ_f² = k`. The one place each
    /// family's derivative is written, beside its value in [`Self::eval_r2`].
    pub(crate) fn eval_scaled(
        &self,
        sf2: f64,
        inv_l: &[f64],
        a: &[f64],
        b: &[f64],
        u: &mut [f64],
    ) -> (f64, f64) {
        let mut r2 = 0.0;
        for (((ui, &ai), &bi), &il) in u.iter_mut().zip(a).zip(b).zip(inv_l) {
            *ui = (ai - bi) * il;
            r2 += *ui * *ui;
        }
        let k = self.eval_r2(sf2, r2);
        let r = r2.sqrt();
        let radial = match self.family {
            // dk/du_i = -k/2  =>  dk/d log l_i = k * u_i²
            KernelFamily::SquaredExponential => k,
            // sf2 * (5/3)(1 + √5 r) e^{-√5 r}
            KernelFamily::Matern52 => {
                sf2 * (5.0 / 3.0) * (1.0 + 5f64.sqrt() * r) * (-5f64.sqrt() * r).exp()
            }
            // sf2 * 3 e^{-√3 r}
            KernelFamily::Matern32 => sf2 * 3.0 * (-3f64.sqrt() * r).exp(),
            // sf2 * (1 + r²/2α)^{-α-1}
            KernelFamily::RationalQuadratic => {
                sf2 * (1.0 + r2 / (2.0 * RQ_ALPHA)).powf(-RQ_ALPHA - 1.0)
            }
        };
        (k, radial)
    }

    /// Inverse length-scales `ℓᵢ⁻¹ = e^{-θᵢ}`, hoisted out of batched builds
    /// so the O(n·m·d) inner loop pays no transcendental calls.
    pub(crate) fn inv_lengthscales(&self, theta: &[f64]) -> Vec<f64> {
        theta[..self.dim].iter().map(|t| (-t).exp()).collect()
    }

    /// Evaluates `k(a, b)` under hyperparameters `theta`.
    ///
    /// # Panics
    ///
    /// Panics if `theta`, `a` or `b` have the wrong length.
    pub fn eval(&self, theta: &[f64], a: &[f64], b: &[f64]) -> f64 {
        assert_eq!(theta.len(), self.n_theta(), "theta length mismatch");
        assert_eq!(a.len(), self.dim, "input a dimension mismatch");
        assert_eq!(b.len(), self.dim, "input b dimension mismatch");
        let mut r2 = 0.0;
        for i in 0..self.dim {
            let d = (a[i] - b[i]) * (-theta[i]).exp();
            r2 += d * d;
        }
        self.eval_r2(theta[self.dim].exp(), r2)
    }

    /// Symmetric noise-free covariance matrix `K[i,j] = k(xs[i], xs[j])`.
    ///
    /// Only the lower triangle is evaluated (then mirrored), and the inverse
    /// length-scales are hoisted out of the pair loop; every entry is
    /// bit-identical to the corresponding [`ArdKernel::eval`] call.
    ///
    /// # Panics
    ///
    /// Panics if `theta` or any point has the wrong length.
    pub fn covariance(&self, theta: &[f64], xs: &[Vec<f64>]) -> Matrix {
        assert_eq!(theta.len(), self.n_theta(), "theta length mismatch");
        for x in xs {
            assert_eq!(x.len(), self.dim, "input dimension mismatch");
        }
        let inv_l = self.inv_lengthscales(theta);
        let sf2 = theta[self.dim].exp();
        Matrix::symmetric_from_fn(xs.len(), |i, j| {
            self.eval_r2(sf2, scaled_r2(&xs[i], &xs[j], &inv_l))
        })
    }

    /// Cross-covariance block `K[i,j] = k(rows[i], cols[j])` between a
    /// training set and a batch of query points, built in one pass with the
    /// query points packed contiguously. Entries are bit-identical to
    /// per-pair [`ArdKernel::eval`] calls.
    ///
    /// # Panics
    ///
    /// Panics if `theta` or any point has the wrong length.
    pub fn cross_covariance(&self, theta: &[f64], rows: &[Vec<f64>], cols: &[Vec<f64>]) -> Matrix {
        assert_eq!(theta.len(), self.n_theta(), "theta length mismatch");
        for x in rows.iter().chain(cols) {
            assert_eq!(x.len(), self.dim, "input dimension mismatch");
        }
        let inv_l = self.inv_lengthscales(theta);
        let sf2 = theta[self.dim].exp();
        let d = self.dim.max(1);
        // Pack the queries into one contiguous block so the inner loop
        // streams cache lines instead of chasing per-Vec allocations.
        let mut packed = Vec::with_capacity(cols.len() * d);
        for c in cols {
            packed.extend_from_slice(c);
            packed.resize(packed.len() + (d - self.dim), 0.0);
        }
        let mut k = Matrix::zeros(rows.len(), cols.len());
        for (i, a) in rows.iter().enumerate() {
            let out = k.row_mut(i);
            for (o, q) in out.iter_mut().zip(packed.chunks_exact(d)) {
                *o = self.eval_r2(sf2, scaled_r2(a, &q[..self.dim], &inv_l));
            }
        }
        k
    }

    /// Evaluates `k(a, b)` and writes `∂k/∂θᵢ` (log-space gradients) into
    /// `grad`. Returns the kernel value.
    ///
    /// # Panics
    ///
    /// Panics if any slice has the wrong length.
    pub fn eval_with_grad(&self, theta: &[f64], a: &[f64], b: &[f64], grad: &mut [f64]) -> f64 {
        assert_eq!(theta.len(), self.n_theta(), "theta length mismatch");
        assert_eq!(a.len(), self.dim, "input a dimension mismatch");
        assert_eq!(b.len(), self.dim, "input b dimension mismatch");
        assert_eq!(
            grad.len(),
            self.n_theta(),
            "gradient buffer length mismatch"
        );
        let (u, sf2_grad) = grad.split_at_mut(self.dim);
        let inv_l = self.inv_lengthscales(theta);
        let (k, radial) = self.eval_scaled(theta[self.dim].exp(), &inv_l, a, b, u);
        for g in u.iter_mut() {
            *g = radial * *g * *g;
        }
        sf2_grad[0] = k;
        k
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    const FAMILIES: [KernelFamily; 4] = [
        KernelFamily::SquaredExponential,
        KernelFamily::Matern52,
        KernelFamily::Matern32,
        KernelFamily::RationalQuadratic,
    ];

    #[test]
    fn diagonal_equals_signal_variance() {
        for fam in FAMILIES {
            let k = ArdKernel::new(fam, 3);
            let mut theta = k.default_theta();
            theta[3] = 0.7; // log sf2
            let x = [0.1, 0.2, 0.3];
            assert!(
                (k.eval(&theta, &x, &x) - 0.7f64.exp()).abs() < 1e-12,
                "{fam:?}"
            );
        }
    }

    #[test]
    fn symmetric_in_arguments() {
        for fam in FAMILIES {
            let k = ArdKernel::new(fam, 2);
            let theta = [0.3, -0.2, 0.1];
            let a = [0.0, 1.0];
            let b = [0.5, -0.3];
            assert_eq!(k.eval(&theta, &a, &b), k.eval(&theta, &b, &a), "{fam:?}");
        }
    }

    #[test]
    fn decays_monotonically_with_distance() {
        for fam in FAMILIES {
            let k = ArdKernel::new(fam, 1);
            let theta = k.default_theta();
            let mut prev = f64::INFINITY;
            for step in 0..20 {
                let v = k.eval(&theta, &[0.0], &[step as f64 * 0.3]);
                assert!(v <= prev + 1e-15, "{fam:?} rose at step {step}");
                assert!(v > 0.0, "{fam:?} must stay positive");
                prev = v;
            }
        }
    }

    #[test]
    fn lengthscale_controls_reach() {
        let k = ArdKernel::new(KernelFamily::SquaredExponential, 1);
        let short = [-1.0f64, 0.0]; // l = e^-1
        let long = [1.0f64, 0.0]; // l = e^1
        let v_short = k.eval(&short, &[0.0], &[1.0]);
        let v_long = k.eval(&long, &[0.0], &[1.0]);
        assert!(v_long > v_short);
    }

    #[test]
    fn ard_dimensions_are_independent() {
        let k = ArdKernel::new(KernelFamily::SquaredExponential, 2);
        // Huge length-scale in dim 1 makes it irrelevant.
        let theta = [0.0, 10.0, 0.0];
        let near = k.eval(&theta, &[0.0, 0.0], &[0.0, 5.0]);
        assert!((near - 1.0).abs() < 1e-3, "irrelevant dim should not decay");
        let far = k.eval(&theta, &[1.0, 0.0], &[0.0, 0.0]);
        assert!(far < 0.7, "relevant dim must decay");
    }

    #[test]
    fn se_matches_closed_form() {
        let k = ArdKernel::new(KernelFamily::SquaredExponential, 2);
        let theta = [0.2f64, -0.3, 0.5];
        let a = [0.4, 0.9];
        let b = [-0.1, 0.2];
        let l0 = 0.2f64.exp();
        let l1 = (-0.3f64).exp();
        let r2 = ((a[0] - b[0]) / l0).powi(2) + ((a[1] - b[1]) / l1).powi(2);
        let expect = 0.5f64.exp() * (-0.5 * r2).exp();
        assert!((k.eval(&theta, &a, &b) - expect).abs() < 1e-14);
    }

    #[test]
    fn gradient_matches_finite_differences() {
        let eps = 1e-6;
        for fam in FAMILIES {
            let k = ArdKernel::new(fam, 3);
            let theta = vec![0.3, -0.5, 0.1, 0.4];
            let a = [0.2, 0.8, -0.4];
            let b = [0.9, 0.1, 0.3];
            let mut grad = vec![0.0; 4];
            k.eval_with_grad(&theta, &a, &b, &mut grad);
            for j in 0..4 {
                let mut tp = theta.clone();
                tp[j] += eps;
                let mut tm = theta.clone();
                tm[j] -= eps;
                let fd = (k.eval(&tp, &a, &b) - k.eval(&tm, &a, &b)) / (2.0 * eps);
                assert!(
                    (grad[j] - fd).abs() < 1e-6 * (1.0 + fd.abs()),
                    "{fam:?} theta[{j}]: analytic {} vs fd {fd}",
                    grad[j]
                );
            }
        }
    }

    /// Straightforward `eval_with_grad` that the hoisted path must match
    /// bit for bit: every term recomputes `e^{-θᵢ}` and the radial factor
    /// is derived inline.
    fn eval_with_grad_reference(k: &ArdKernel, theta: &[f64], a: &[f64], b: &[f64]) -> Vec<f64> {
        let d = k.dim();
        let value = k.eval(theta, a, b);
        let mut r2 = 0.0;
        for i in 0..d {
            let u = (a[i] - b[i]) * (-theta[i]).exp();
            r2 += u * u;
        }
        let sf2 = theta[d].exp();
        let radial = match k.family() {
            KernelFamily::SquaredExponential => value,
            KernelFamily::Matern52 => {
                let r = r2.sqrt();
                let s5 = 5f64.sqrt();
                sf2 * (5.0 / 3.0) * (1.0 + s5 * r) * (-s5 * r).exp()
            }
            KernelFamily::Matern32 => {
                let r = r2.sqrt();
                let s3 = 3f64.sqrt();
                sf2 * 3.0 * (-s3 * r).exp()
            }
            KernelFamily::RationalQuadratic => {
                sf2 * (1.0 + r2 / (2.0 * RQ_ALPHA)).powf(-RQ_ALPHA - 1.0)
            }
        };
        let mut grad: Vec<f64> = (0..d)
            .map(|i| {
                let u = (a[i] - b[i]) * (-theta[i]).exp();
                radial * u * u
            })
            .collect();
        grad.push(value);
        grad
    }

    #[test]
    fn eval_with_grad_is_bitwise_reference() {
        for fam in FAMILIES {
            let k = ArdKernel::new(fam, 4);
            for step in 0..25 {
                let t = step as f64;
                let theta: Vec<f64> = (0..5)
                    .map(|i| ((t + i as f64) * 0.71).sin() * 2.0)
                    .collect();
                let a: Vec<f64> = (0..4)
                    .map(|i| ((t * 3.0 + i as f64) * 0.37).cos())
                    .collect();
                let b: Vec<f64> = if step % 5 == 0 {
                    a.clone()
                } else {
                    (0..4)
                        .map(|i| ((t * 5.0 + i as f64) * 0.53).sin())
                        .collect()
                };
                let mut grad = vec![0.0; 5];
                let value = k.eval_with_grad(&theta, &a, &b, &mut grad);
                let reference = eval_with_grad_reference(&k, &theta, &a, &b);
                assert_eq!(value.to_bits(), reference[4].to_bits(), "{fam:?} value");
                for (g, r) in grad.iter().zip(&reference) {
                    assert_eq!(g.to_bits(), r.to_bits(), "{fam:?} step {step}");
                }
            }
        }
    }

    #[test]
    fn gradient_at_zero_distance_is_finite() {
        for fam in FAMILIES {
            let k = ArdKernel::new(fam, 2);
            let theta = k.default_theta();
            let mut grad = vec![0.0; 3];
            let x = [0.5, 0.5];
            let v = k.eval_with_grad(&theta, &x, &x, &mut grad);
            assert!((v - 1.0).abs() < 1e-12);
            assert!(grad.iter().all(|g| g.is_finite()), "{fam:?}: {grad:?}");
            assert_eq!(grad[0], 0.0);
            assert_eq!(grad[1], 0.0);
            assert!((grad[2] - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn rational_quadratic_has_heavier_tail_than_se() {
        let theta = [0.0f64, 0.0];
        let se = ArdKernel::new(KernelFamily::SquaredExponential, 1);
        let rq = ArdKernel::new(KernelFamily::RationalQuadratic, 1);
        for r in [2.0, 3.0, 5.0] {
            assert!(
                rq.eval(&theta, &[0.0], &[r]) > se.eval(&theta, &[0.0], &[r]),
                "RQ tail must dominate SE at r = {r}"
            );
        }
        // And both agree at zero distance.
        assert!((rq.eval(&theta, &[0.3], &[0.3]) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn smoothness_ordering_near_origin() {
        // At moderate distance: SE decays fastest near r ~ small, Matern32
        // has the heaviest tail at large r.
        let theta = [0.0f64, 0.0];
        let se = ArdKernel::new(KernelFamily::SquaredExponential, 1);
        let m52 = ArdKernel::new(KernelFamily::Matern52, 1);
        let m32 = ArdKernel::new(KernelFamily::Matern32, 1);
        let r = 3.0;
        let v_se = se.eval(&theta, &[0.0], &[r]);
        let v_52 = m52.eval(&theta, &[0.0], &[r]);
        let v_32 = m32.eval(&theta, &[0.0], &[r]);
        assert!(v_se < v_52 && v_52 < v_32, "{v_se} {v_52} {v_32}");
    }

    #[test]
    fn covariance_builders_bitwise_match_eval() {
        let pts: Vec<Vec<f64>> = (0..7)
            .map(|i| {
                (0..3)
                    .map(|j| ((i * 5 + j * 11) as f64 * 0.29).sin())
                    .collect()
            })
            .collect();
        let queries: Vec<Vec<f64>> = (0..4)
            .map(|i| {
                (0..3)
                    .map(|j| ((i * 13 + j * 3) as f64 * 0.41).cos())
                    .collect()
            })
            .collect();
        let theta = [0.3, -0.5, 0.1, 0.4];
        for fam in FAMILIES {
            let k = ArdKernel::new(fam, 3);
            let cov = k.covariance(&theta, &pts);
            for i in 0..pts.len() {
                for j in 0..pts.len() {
                    assert_eq!(
                        cov[(i, j)],
                        k.eval(&theta, &pts[i], &pts[j]),
                        "{fam:?} covariance ({i}, {j})"
                    );
                }
            }
            let cross = k.cross_covariance(&theta, &pts, &queries);
            assert_eq!(cross.shape(), (7, 4));
            for i in 0..pts.len() {
                for j in 0..queries.len() {
                    assert_eq!(
                        cross[(i, j)],
                        k.eval(&theta, &pts[i], &queries[j]),
                        "{fam:?} cross ({i}, {j})"
                    );
                }
            }
        }
    }

    #[test]
    fn covariance_builders_handle_empty_sets() {
        let k = ArdKernel::new(KernelFamily::SquaredExponential, 2);
        let theta = k.default_theta();
        assert_eq!(k.covariance(&theta, &[]).shape(), (0, 0));
        let pts = vec![vec![0.1, 0.2]];
        assert_eq!(k.cross_covariance(&theta, &pts, &[]).shape(), (1, 0));
        assert_eq!(k.cross_covariance(&theta, &[], &pts).shape(), (0, 1));
    }

    proptest! {
        #[test]
        fn prop_bounded_by_signal_variance(
            log_sf2 in -2.0..2.0f64,
            ax in -5.0..5.0f64,
            bx in -5.0..5.0f64
        ) {
            for fam in FAMILIES {
                let k = ArdKernel::new(fam, 1);
                let theta = [0.0, log_sf2];
                let v = k.eval(&theta, &[ax], &[bx]);
                prop_assert!(v <= log_sf2.exp() + 1e-12);
                prop_assert!(v >= 0.0);
            }
        }

        #[test]
        fn prop_psd_3x3(
            x0 in -2.0..2.0f64, x1 in -2.0..2.0f64, x2 in -2.0..2.0f64
        ) {
            // Any 3-point kernel matrix must be PSD: check via the
            // determinant minors (Sylvester).
            for fam in FAMILIES {
                let k = ArdKernel::new(fam, 1);
                let theta = [0.0, 0.0];
                let pts = [[x0], [x1], [x2]];
                let m: Vec<Vec<f64>> = (0..3)
                    .map(|i| (0..3).map(|j| k.eval(&theta, &pts[i], &pts[j])).collect())
                    .collect();
                let d1 = m[0][0];
                let d2 = m[0][0] * m[1][1] - m[0][1] * m[1][0];
                let d3 = m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
                    - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
                    + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0]);
                prop_assert!(d1 >= -1e-9);
                prop_assert!(d2 >= -1e-9);
                prop_assert!(d3 >= -1e-9, "{fam:?} det3 = {d3}");
            }
        }
    }
}
