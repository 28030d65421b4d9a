use easybo_linalg::{Cholesky, Matrix, Vector};
use easybo_telemetry::{Event, Telemetry};

use crate::kernel::{ArdKernel, KernelFamily};
use crate::scaler::YScaler;
use crate::train::{self, TrainConfig};
use crate::GpError;

/// Configuration for fitting a [`Gp`].
#[derive(Debug, Clone, PartialEq)]
pub struct GpConfig {
    /// Kernel family (the paper uses the squared exponential).
    pub kernel: KernelFamily,
    /// Hyperparameter-training schedule.
    pub train: TrainConfig,
    /// Floor for the noise variance in standardized target space
    /// (default 1e-8). Keeps covariance matrices well conditioned when the
    /// optimizer drives the noise to zero on noise-free circuit data.
    pub noise_floor: f64,
}

impl Default for GpConfig {
    fn default() -> Self {
        GpConfig {
            kernel: KernelFamily::SquaredExponential,
            train: TrainConfig::default(),
            noise_floor: 1e-8,
        }
    }
}

/// A GP posterior at a single point (raw target units, noise-free).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Prediction {
    /// Posterior mean `μ(x)`.
    pub mean: f64,
    /// Posterior variance `σ²(x)` (clamped to be non-negative).
    pub variance: f64,
}

impl Prediction {
    /// Posterior standard deviation `σ(x)`.
    pub fn std(&self) -> f64 {
        self.variance.max(0.0).sqrt()
    }
}

/// Standardized posterior moments at one query point with their
/// gradients in the query's coordinates (see
/// [`Gp::predict_standardized_grad`]).
#[derive(Debug, Clone, PartialEq)]
pub struct PosteriorGrad {
    /// Posterior mean `μ_z(x)`.
    pub mean: f64,
    /// Posterior variance `σ²_z(x)`, floored at zero.
    pub var: f64,
    /// `∂μ_z/∂x`.
    pub d_mean: Vec<f64>,
    /// `∂σ²_z/∂x` (zero where the floor is active).
    pub d_var: Vec<f64>,
}

/// Exact raw-parts capture of a fitted [`Gp`], produced by
/// [`Gp::state`] and consumed by [`Gp::from_state`].
///
/// Every float but the Cholesky factor is carried verbatim, `α = K⁻¹ z`
/// included. The factor is a function of the other fields: one full
/// factorization of the first `n_factored` rows at the last fit, then
/// one [`Cholesky::extend`] per later row. [`Gp::from_state`] replays
/// exactly those operations, so the rebuilt factor is bit-identical to
/// the live one and checkpoint/resume continues the run bit for bit,
/// while the state stays O(n·d) instead of O(n²). See [`GpFactor`].
#[derive(Debug, Clone, PartialEq)]
pub struct GpState {
    /// Kernel family.
    pub kernel: KernelFamily,
    /// Input dimensionality.
    pub dim: usize,
    /// Kernel hyperparameters `[log ℓ…, log σ_f²]`.
    pub theta: Vec<f64>,
    /// Log noise variance (standardized target space).
    pub log_noise: f64,
    /// Training inputs (raw), including pseudo-points past `n_real`.
    pub x: Vec<Vec<f64>>,
    /// Standardized targets.
    pub z: Vec<f64>,
    /// Target-scaler mean.
    pub scaler_mean: f64,
    /// Target-scaler std.
    pub scaler_std: f64,
    /// How the Cholesky factor `L` is rebuilt.
    pub factor: GpFactor,
    /// Diagonal jitter the full factorization settled on.
    pub chol_jitter: f64,
    /// Cached weight vector `α = K⁻¹ z`.
    pub alpha: Vec<f64>,
    /// Number of real (non-hallucinated) observations.
    pub n_real: usize,
}

/// How [`Gp::from_state`] rebuilds the Cholesky factor of a [`GpState`].
#[derive(Debug, Clone, PartialEq)]
pub enum GpFactor {
    /// Replay the factor: [`Cholesky::new`] over `K(x[..n_factored])`,
    /// then one [`Cholesky::extend`] per later row, with the cross row
    /// and `σ_f² + σ_n²` diagonal of the live append. The replayed
    /// jitter must equal [`GpState::chol_jitter`].
    Replay {
        /// Rows covered by the last full factorization.
        n_factored: usize,
    },
    /// The factor verbatim, row-major `n×n`. Only a model restored from
    /// a checkpoint layout that predates replay carries this form; it
    /// keeps it until its next full fit.
    Stored(Vec<f64>),
}

/// A fitted Gaussian process regression model (Eq. 2 of the paper).
///
/// Construction always succeeds into a usable posterior or fails loudly:
/// after [`Gp::fit`] the covariance Cholesky factor and the weight vector
/// `α = K⁻¹ y` are cached, so predictions are O(n·d) per query.
///
/// # Example
///
/// ```
/// use easybo_gp::{Gp, GpConfig};
///
/// # fn main() -> Result<(), easybo_gp::GpError> {
/// let x = vec![vec![0.0], vec![0.5], vec![1.0]];
/// let y = vec![0.0, 1.0, 0.0];
/// let gp = Gp::fit(x, y, GpConfig::default())?;
/// // Interpolates the training data closely (noise floor is tiny)…
/// assert!((gp.predict(&[0.5]).mean - 1.0).abs() < 0.05);
/// // …and is uncertain far away from it.
/// let far = gp.predict(&[10.0]);
/// assert!(far.variance > 0.1);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct Gp {
    kernel: ArdKernel,
    /// Kernel hyperparameters `[log ℓ…, log σ_f²]`.
    theta: Vec<f64>,
    /// Log noise variance in standardized target space.
    log_noise: f64,
    /// Training inputs (raw).
    x: Vec<Vec<f64>>,
    /// Standardized targets.
    z: Vector,
    scaler: YScaler,
    chol: Cholesky,
    /// `K⁻¹ z`.
    alpha: Vector,
    /// Number of *real* observations; the tail `x[n_real..]` are
    /// hallucinated pseudo-points added by [`Gp::augment`].
    n_real: usize,
    /// Rows covered by the last full factorization (every later row was
    /// appended with [`Cholesky::extend`]); `None` when the factor was
    /// restored verbatim from a [`GpFactor::Stored`] state.
    n_factored: Option<usize>,
}

impl Gp {
    /// Fits a GP to `(x, y)`, training hyperparameters by maximizing the
    /// log marginal likelihood (multi-restart L-BFGS).
    ///
    /// # Errors
    ///
    /// * [`GpError::EmptyTrainingSet`] for empty data.
    /// * [`GpError::InconsistentData`] for ragged inputs or `x`/`y` length
    ///   mismatch.
    /// * [`GpError::NonFiniteData`] for NaN/inf entries.
    /// * [`GpError::Linalg`] if the covariance cannot be factored.
    pub fn fit(x: Vec<Vec<f64>>, y: Vec<f64>, config: GpConfig) -> crate::Result<Self> {
        Self::fit_traced(x, y, config, &Telemetry::disabled())
    }

    /// [`Gp::fit`] with a telemetry handle: emits a
    /// [`Event::GpRefit`] carrying the training-set size, the learned
    /// `[θ…, log σ_n²]`, and the real seconds spent, and counts negative-
    /// log-likelihood evaluations, Cholesky factorizations, and kernel
    /// evaluations consumed by hyperparameter training.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Gp::fit`].
    pub fn fit_traced(
        x: Vec<Vec<f64>>,
        y: Vec<f64>,
        config: GpConfig,
        telemetry: &Telemetry,
    ) -> crate::Result<Self> {
        let t0 = std::time::Instant::now();
        let _refit_span = telemetry.span("gp_refit");
        let (x, z, scaler, kernel) = Self::prepare(x, &y, config.kernel)?;
        let (theta, log_noise) = {
            let _span = telemetry.span("lbfgs_restarts");
            train::train(
                &kernel,
                &x,
                &z,
                &config.train,
                config.noise_floor,
                telemetry,
            )
        };
        let gp = Self::assemble_traced(kernel, theta, log_noise, x, z, scaler, telemetry)?;
        telemetry.incr("gp_cholesky_factorizations", 1);
        let duration = t0.elapsed().as_secs_f64();
        telemetry.observe("gp_fit_s", duration);
        telemetry.emit_with(|| {
            let mut hyperparams = gp.theta().to_vec();
            hyperparams.push(gp.log_noise());
            Event::GpRefit {
                n: gp.n_train(),
                hyperparams,
                duration,
            }
        });
        Ok(gp)
    }

    /// Fits a GP with fixed, caller-supplied hyperparameters (no training).
    ///
    /// `theta` is the kernel hyperparameter vector `[log ℓ…, log σ_f²]` and
    /// `log_noise` the log noise variance in standardized target space.
    ///
    /// # Errors
    ///
    /// Same as [`Gp::fit`], plus [`GpError::BadHyperParameters`] if `theta`
    /// has the wrong length.
    pub fn fit_with_params(
        x: Vec<Vec<f64>>,
        y: Vec<f64>,
        kernel: KernelFamily,
        theta: Vec<f64>,
        log_noise: f64,
    ) -> crate::Result<Self> {
        let (x, z, scaler, kernel) = Self::prepare(x, &y, kernel)?;
        if theta.len() != kernel.n_theta() {
            return Err(GpError::BadHyperParameters {
                expected: kernel.n_theta(),
                actual: theta.len(),
            });
        }
        Self::assemble(kernel, theta, log_noise, x, z, scaler)
    }

    fn prepare(
        x: Vec<Vec<f64>>,
        y: &[f64],
        family: KernelFamily,
    ) -> crate::Result<(Vec<Vec<f64>>, Vector, YScaler, ArdKernel)> {
        if x.is_empty() {
            return Err(GpError::EmptyTrainingSet);
        }
        if x.len() != y.len() {
            return Err(GpError::InconsistentData {
                detail: format!("{} inputs but {} targets", x.len(), y.len()),
            });
        }
        let dim = x[0].len();
        if dim == 0 {
            return Err(GpError::InconsistentData {
                detail: "inputs must have at least one dimension".into(),
            });
        }
        for (i, row) in x.iter().enumerate() {
            if row.len() != dim {
                return Err(GpError::InconsistentData {
                    detail: format!("input {i} has {} dims, expected {dim}", row.len()),
                });
            }
            if row.iter().any(|v| !v.is_finite()) {
                return Err(GpError::NonFiniteData {
                    context: format!("input row {i}"),
                });
            }
        }
        if y.iter().any(|v| !v.is_finite()) {
            return Err(GpError::NonFiniteData {
                context: "targets".into(),
            });
        }
        let scaler = YScaler::fit(y);
        let z = Vector::from_iter(y.iter().map(|&v| scaler.transform(v)));
        Ok((x, z, scaler, ArdKernel::new(family, dim)))
    }

    fn assemble(
        kernel: ArdKernel,
        theta: Vec<f64>,
        log_noise: f64,
        x: Vec<Vec<f64>>,
        z: Vector,
        scaler: YScaler,
    ) -> crate::Result<Self> {
        Self::assemble_traced(
            kernel,
            theta,
            log_noise,
            x,
            z,
            scaler,
            &Telemetry::disabled(),
        )
    }

    #[allow(clippy::too_many_arguments)]
    fn assemble_traced(
        kernel: ArdKernel,
        theta: Vec<f64>,
        log_noise: f64,
        x: Vec<Vec<f64>>,
        z: Vector,
        scaler: YScaler,
        telemetry: &Telemetry,
    ) -> crate::Result<Self> {
        let k = {
            let _span = telemetry.span("kernel_build");
            covariance_matrix(&kernel, &theta, log_noise, &x)
        };
        // Any well-formed kernel matrix passes the cheap SPD screen; a
        // failure here means the kernel itself is broken and the jitter
        // ladder below would only mask it.
        debug_assert!(
            k.is_spd_hint(),
            "kernel produced a matrix that cannot be positive definite"
        );
        let (chol, alpha) = {
            let _span = telemetry.span("cholesky");
            // Distinct from `gp_cholesky_factorizations`, which also counts
            // the factorization inside every training NLL evaluation: this
            // counts full factorizations of the surrogate itself, the work
            // the rank-1 update path replaces.
            telemetry.incr("cholesky_full", 1);
            let (chol, jitter_bumps) = Cholesky::new_counted(&k)?;
            if jitter_bumps > 0 {
                telemetry.incr("cholesky_jitter_bumps", jitter_bumps as u64);
            }
            let alpha = chol.solve_vec(&z);
            (chol, alpha)
        };
        let n_real = x.len();
        Ok(Gp {
            kernel,
            theta,
            log_noise,
            x,
            z,
            scaler,
            chol,
            alpha,
            n_real,
            n_factored: Some(n_real),
        })
    }

    /// Number of training points, including hallucinated pseudo-points.
    pub fn n_train(&self) -> usize {
        self.x.len()
    }

    /// Number of *real* (non-hallucinated) observations.
    pub fn n_real(&self) -> usize {
        self.n_real
    }

    /// Input dimensionality.
    pub fn dim(&self) -> usize {
        self.kernel.dim()
    }

    /// The kernel in use.
    pub fn kernel(&self) -> &ArdKernel {
        &self.kernel
    }

    /// Kernel hyperparameters `[log ℓ…, log σ_f²]`.
    pub fn theta(&self) -> &[f64] {
        &self.theta
    }

    /// Log noise variance (standardized target space).
    pub fn log_noise(&self) -> f64 {
        self.log_noise
    }

    /// The target scaler fitted to the training data.
    pub fn scaler(&self) -> &YScaler {
        &self.scaler
    }

    /// The cached Cholesky factor of `K = K_f + σ_n² I`, pseudo-point
    /// rows included.
    pub fn cholesky(&self) -> &Cholesky {
        &self.chol
    }

    /// Captures the complete model state, bit-for-bit, for
    /// checkpointing. See [`GpState`].
    pub fn state(&self) -> GpState {
        GpState {
            kernel: self.kernel.family(),
            dim: self.kernel.dim(),
            theta: self.theta.clone(),
            log_noise: self.log_noise,
            x: self.x.clone(),
            z: self.z.as_slice().to_vec(),
            scaler_mean: self.scaler.mean(),
            scaler_std: self.scaler.std(),
            factor: match self.n_factored {
                Some(n_factored) => GpFactor::Replay { n_factored },
                None => GpFactor::Stored(self.chol.factor().as_slice().to_vec()),
            },
            chol_jitter: self.chol.jitter(),
            alpha: self.alpha.as_slice().to_vec(),
            n_real: self.n_real,
        }
    }

    /// Rebuilds a model from a captured [`GpState`]. The result
    /// continues every computation (predictions, incremental extends,
    /// augmentation) exactly where the captured model left off.
    ///
    /// A [`GpFactor::Replay`] state costs one O(n³/6) factorization plus
    /// one O(n²) extension per row appended since.
    ///
    /// # Errors
    ///
    /// * [`GpError::BadHyperParameters`] if `theta` has the wrong
    ///   length for the kernel.
    /// * [`GpError::InconsistentData`] if the part lengths disagree,
    ///   `n_factored` is outside `1..=n`, or the replayed jitter is not
    ///   `chol_jitter`.
    /// * [`GpError::NonFiniteData`] for a non-finite input row.
    /// * [`GpError::Linalg`] if the Cholesky factor cannot be rebuilt.
    pub fn from_state(state: GpState) -> crate::Result<Self> {
        let kernel = ArdKernel::new(state.kernel, state.dim);
        if state.theta.len() != kernel.n_theta() {
            return Err(GpError::BadHyperParameters {
                expected: kernel.n_theta(),
                actual: state.theta.len(),
            });
        }
        let n = state.x.len();
        if state.z.len() != n || state.alpha.len() != n {
            return Err(GpError::InconsistentData {
                detail: format!(
                    "{} inputs but {} targets / {} alpha entries",
                    n,
                    state.z.len(),
                    state.alpha.len()
                ),
            });
        }
        if state.n_real > n {
            return Err(GpError::InconsistentData {
                detail: format!("n_real {} exceeds {} training points", state.n_real, n),
            });
        }
        for (i, row) in state.x.iter().enumerate() {
            validate_point(row, state.dim, &format!("input row {i}"))?;
        }
        let (chol, n_factored) = match state.factor {
            GpFactor::Replay { n_factored } => {
                let chol = replay_factor(
                    &kernel,
                    &state.theta,
                    state.log_noise,
                    &state.x,
                    n_factored,
                    state.chol_jitter,
                )?;
                (chol, Some(n_factored))
            }
            GpFactor::Stored(l) => {
                let l = Matrix::from_vec(n, n, l)?;
                (Cholesky::from_parts(l, state.chol_jitter)?, None)
            }
        };
        Ok(Gp {
            kernel,
            theta: state.theta,
            log_noise: state.log_noise,
            x: state.x,
            z: Vector::from(state.z),
            scaler: YScaler::from_parts(state.scaler_mean, state.scaler_std),
            chol,
            alpha: Vector::from(state.alpha),
            n_real: state.n_real,
            n_factored,
        })
    }

    /// Posterior prediction at `x` in raw target units (noise-free latent).
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != dim()`.
    pub fn predict(&self, x: &[f64]) -> Prediction {
        self.to_raw(self.predict_standardized(x))
    }

    /// A standardized `(mean, variance)` in raw target units.
    fn to_raw(&self, (mean_z, var_z): (f64, f64)) -> Prediction {
        Prediction {
            mean: self.scaler.inverse(mean_z),
            variance: self.scaler.inverse_variance(var_z),
        }
    }

    /// Posterior `(mean, variance)` in standardized target space: the
    /// batched posterior on a batch of one.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != dim()`.
    pub fn predict_standardized(&self, x: &[f64]) -> (f64, f64) {
        self.posterior_batch(&[x], &self.alpha)[0]
    }

    /// [`Gp::predict_standardized`] with the gradients of both moments in
    /// `x`. The moments are bit-identical to [`Gp::predict_standardized`].
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != dim()`.
    pub fn predict_standardized_grad(&self, x: &[f64]) -> PosteriorGrad {
        self.posterior_grad(x, &self.alpha)
    }

    /// The posterior of [`Gp::posterior_batch`] at one point, with the
    /// mean against `mean_alpha`, and the gradients of both moments. The
    /// moments repeat the batch's arithmetic term for term, so they carry
    /// its bits. With `uᵢ = (x − xᵢ)·ℓ⁻¹` and `gᵢ` the radial factor of
    /// [`ArdKernel::eval_scaled`], `∂kᵢ/∂x_d = −gᵢ·uᵢ_d·ℓ_d⁻¹`; then
    /// `∇μ = Σ αᵢ ∂kᵢ/∂x` over the leading `mean_alpha.len()` rows and
    /// `∇σ² = −2 Σ wᵢ ∂kᵢ/∂x` with `w = L⁻ᵀL⁻¹k*` on the whole factor.
    /// The variance gradient is zero where the variance floor at zero is
    /// active.
    pub(crate) fn posterior_grad(&self, x: &[f64], mean_alpha: &Vector) -> PosteriorGrad {
        let d = self.dim();
        assert_eq!(x.len(), d, "query dimension mismatch");
        let sf2 = self.kernel.signal_variance(&self.theta);
        let inv_l = self.kernel.inv_lengthscales(&self.theta);
        let n = self.x.len();
        let mut kstar = Vector::zeros(n);
        let mut radial = vec![0.0; n];
        let mut u = vec![0.0; n * d];
        for (i, (row, ui)) in self.x.iter().zip(u.chunks_exact_mut(d)).enumerate() {
            // The value is bit-identical to `cross_row`'s entry.
            (kstar[i], radial[i]) = self.kernel.eval_scaled(sf2, &inv_l, x, row, ui);
        }
        let mean = kstar
            .iter()
            .zip(mean_alpha.iter())
            .fold(0.0, |acc, (k, a)| acc + k * a);
        let v = self.chol.solve_lower(&kstar);
        let var = (sf2 - v.dot(&v)).max(0.0);
        let w = if var > 0.0 {
            self.chol.solve_lower_transpose_rows(v)
        } else {
            Vector::zeros(n)
        };
        let (mut d_mean, mut d_var) = (vec![0.0; d], vec![0.0; d]);
        for (i, ui) in u.chunks_exact(d).enumerate() {
            let a = mean_alpha.as_slice().get(i).map_or(0.0, |a| a * radial[i]);
            let b = w[i] * radial[i];
            for ((dm, dv), &uid) in d_mean.iter_mut().zip(d_var.iter_mut()).zip(ui) {
                *dm += a * uid;
                *dv += b * uid;
            }
        }
        for ((dm, dv), &il) in d_mean.iter_mut().zip(d_var.iter_mut()).zip(&inv_l) {
            *dm *= -il;
            *dv *= 2.0 * il;
        }
        PosteriorGrad {
            mean,
            var,
            d_mean,
            d_var,
        }
    }

    /// Posterior predictions for a whole batch of query points (raw units).
    ///
    /// Walks the queries in blocks of 32: each block's `n × 32`
    /// cross-covariance `K*` is assembled once and forward-substituted in
    /// place. Each entry is bit-identical to [`Gp::predict`] on the same
    /// point, whatever the batch around it.
    ///
    /// # Panics
    ///
    /// Panics if any point has the wrong dimension.
    pub fn predict_batch(&self, xs: &[Vec<f64>]) -> Vec<Prediction> {
        let post = self.predict_standardized_batch(xs);
        post.into_iter().map(|p| self.to_raw(p)).collect()
    }

    /// Batched posterior `(mean, variance)` in standardized target space,
    /// bit-identical per point to [`Gp::predict_standardized`]. Scratch is
    /// one `n × 32` block, whatever the batch size.
    ///
    /// # Panics
    ///
    /// Panics if any point has the wrong dimension.
    pub fn predict_standardized_batch(&self, xs: &[Vec<f64>]) -> Vec<(f64, f64)> {
        self.posterior_batch(xs, &self.alpha)
    }

    /// The posterior every value query reads: `(mean, variance)` per
    /// point, the mean taken against `mean_alpha` over the leading
    /// `mean_alpha.len()` training points (the base `α` below a
    /// pseudo-point stack), the variance against the whole factor.
    pub(crate) fn posterior_batch<Q: AsRef<[f64]>>(
        &self,
        xs: &[Q],
        mean_alpha: &Vector,
    ) -> Vec<(f64, f64)> {
        // k(x, x) = σ_f² for every stationary family. A query with a
        // non-finite coordinate gets σ_f² too, where `kernel.eval(x, x)`
        // would read NaN.
        let prior = self.kernel.signal_variance(&self.theta);
        let mut out = Vec::with_capacity(xs.len());
        for block in xs.chunks(QUERY_BLOCK) {
            let mut kstar = self.kernel.cross_covariance(&self.theta, &self.x, block);
            let means = block_means(&kstar, mean_alpha);
            self.chol.solve_lower_multi_in_place(&mut kstar);
            // Row-wise accumulation: column j sums its squares in
            // ascending i, as `v.dot(v)` does.
            let mut vss = [0.0; QUERY_BLOCK];
            for i in 0..kstar.rows() {
                for (s, &vij) in vss.iter_mut().zip(kstar.row(i)) {
                    *s += vij * vij;
                }
            }
            out.extend(
                means
                    .into_iter()
                    .zip(vss)
                    .take(block.len())
                    .map(|(mu, s)| (mu, (prior - s).max(0.0))),
            );
        }
        out
    }

    /// Batched posterior means only (raw units), skipping the triangular
    /// solves entirely. Bit-identical per point to [`Gp::predict`]'s mean.
    ///
    /// # Panics
    ///
    /// Panics if any point has the wrong dimension.
    pub fn predict_mean_batch(&self, xs: &[Vec<f64>]) -> Vec<f64> {
        mean_batch(&self.kernel, &self.theta, &self.x, &self.alpha, xs)
            .into_iter()
            .map(|mu| self.scaler.inverse(mu))
            .collect()
    }

    /// Leave-one-out cross-validation residuals in **raw target units**,
    /// computed with the closed-form K⁻¹ identity (Rasmussen & Williams
    /// §5.4.2): for each training point `i`,
    /// `μ₋ᵢ = yᵢ − αᵢ / [K⁻¹]ᵢᵢ` and `σ²₋ᵢ = 1 / [K⁻¹]ᵢᵢ`,
    /// i.e. one O(n³) solve instead of n refits.
    ///
    /// Returns `(residual, predictive_std)` per training point — the
    /// standard calibration diagnostic for a fitted surrogate.
    pub fn loo_residuals(&self) -> Vec<(f64, f64)> {
        let kinv = self.chol.inverse();
        (0..self.n_train())
            .map(|i| {
                let kii = kinv[(i, i)].max(1e-300);
                let resid_z = self.alpha[i] / kii;
                let std_z = (1.0 / kii).sqrt();
                (resid_z * self.scaler.std(), std_z * self.scaler.std())
            })
            .collect()
    }

    /// Log marginal likelihood of the (standardized) training data under the
    /// current hyperparameters.
    #[cfg(test)]
    pub fn log_marginal_likelihood(&self) -> f64 {
        let n = self.n_train() as f64;
        -0.5 * self.z.dot(&self.alpha)
            - 0.5 * self.chol.log_det()
            - 0.5 * n * (2.0 * std::f64::consts::PI).ln()
    }

    /// Returns a new GP augmented with hallucinated **pseudo-points**: each
    /// point in `points` is added to the training set with its *current
    /// predictive mean* as the observation (§III-C of the paper, following
    /// the BUCB strategy of Desautels et al.).
    ///
    /// The posterior mean is unchanged (in exact arithmetic) but the
    /// predictive uncertainty `σ̂(x)` collapses around the busy points,
    /// which is exactly the penalization EasyBO's acquisition needs. The
    /// update is incremental: O(n²) per appended point.
    ///
    /// # Errors
    ///
    /// Returns [`GpError::Linalg`] if the extended covariance loses positive
    /// definiteness (e.g. many duplicated pseudo-points), and
    /// [`GpError::InconsistentData`] / [`GpError::NonFiniteData`] for bad
    /// input points.
    pub fn augment(&self, points: &[Vec<f64>]) -> crate::Result<Self> {
        let mut out = self.clone();
        for (i, p) in points.iter().enumerate() {
            validate_point(p, self.dim(), &format!("pseudo-point {i}"))?;
            out.push_point_at_mean(p.clone())?;
        }
        Ok(out)
    }

    /// Returns a new GP with one additional *real* observation, updated
    /// incrementally in O(n²) without hyperparameter retraining.
    ///
    /// The target scaler is kept fixed (refit happens on the next full
    /// [`Gp::fit`]), so this is intended for the fast inner loop of batch
    /// BO drivers between scheduled hyperparameter retrainings.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Gp::augment`].
    pub fn extend_observed(&self, x: Vec<f64>, y: f64) -> crate::Result<Self> {
        validate_point(&x, self.dim(), "new point")?;
        if !y.is_finite() {
            return Err(GpError::NonFiniteData {
                context: "extend_observed".into(),
            });
        }
        let mut out = self.clone();
        let z = out.scaler.transform(y);
        out.push_point_standardized(x, z)?;
        out.n_real = out.x.len();
        Ok(out)
    }

    /// Appends `(x, z)` (z already standardized), extending the Cholesky
    /// factor incrementally and recomputing `α`. Returns whether the
    /// duplicate-point pivot floor fired inside the factor extension —
    /// [`crate::IncrementalGp`] surfaces that as a telemetry counter — and
    /// the replaced `α`.
    ///
    /// On error the model is left untouched.
    pub(crate) fn push_point_standardized(
        &mut self,
        x: Vec<f64>,
        z: f64,
    ) -> crate::Result<(bool, Vector)> {
        let cross = self.kernel.cross_row(&self.theta, &x, &self.x);
        let diag = append_diag(&self.kernel, &self.theta, self.log_noise);
        let floored = self.chol.extend(&cross, diag)?;
        Ok((floored, self.append_target(x, z)))
    }

    /// Appends a hallucinated point whose target is the current posterior
    /// mean: the fused form of [`Gp::predict_standardized`] followed by
    /// [`Gp::push_point_standardized`]. The cross row `k*` and its forward
    /// solve `L⁻¹ k*` are built once and serve both the mean and the
    /// factor extension, so the result is bit-identical to the two-step
    /// path. Returns the same pair as [`Gp::push_point_standardized`].
    ///
    /// On error the model is left untouched.
    pub(crate) fn push_point_at_mean(&mut self, x: Vec<f64>) -> crate::Result<(bool, Vector)> {
        let kstar = self.kernel.cross_row(&self.theta, &x, &self.x);
        let mean_z = kstar.dot(&self.alpha);
        let w = self.chol.solve_lower(&kstar);
        let diag = append_diag(&self.kernel, &self.theta, self.log_noise);
        let floored = self.chol.extend_solved(&w, diag)?;
        Ok((floored, self.append_target(x, mean_z)))
    }

    /// Records `(x, z)` after the factor has grown and re-solves `α`,
    /// returning the replaced one.
    fn append_target(&mut self, x: Vec<f64>, z: f64) -> Vector {
        self.x.push(x);
        self.z.extend([z]);
        let alpha = self.chol.solve_vec(&self.z);
        std::mem::replace(&mut self.alpha, alpha)
    }

    /// Shrinks the model back to its leading `k` training points, restoring
    /// the caller-saved weight vector `α` verbatim.
    ///
    /// Because [`Cholesky::extend`] copies the existing factor block
    /// unchanged and [`Cholesky::truncate`] moves (never recomputes) the
    /// surviving entries, this restores the exact pre-push model bit for
    /// bit — the `pop_pseudo` half of [`crate::IncrementalGp`].
    ///
    /// # Panics
    ///
    /// Panics if `k > n_train()`, `alpha.len() != k`, or the tail being
    /// dropped contains real observations.
    pub(crate) fn truncate_to(&mut self, k: usize, alpha: Vector) {
        assert!(k <= self.x.len(), "truncate_to: {k} > {}", self.x.len());
        assert!(
            k >= self.n_real,
            "truncate_to would drop real observations ({k} < {})",
            self.n_real
        );
        assert_eq!(alpha.len(), k, "truncate_to: alpha length mismatch");
        self.chol.truncate(k);
        self.x.truncate(k);
        let mut z = std::mem::take(&mut self.z).into_inner();
        z.truncate(k);
        self.z = Vector::from(z);
        self.alpha = alpha;
    }

    /// The cached weight vector `α = K⁻¹ z`.
    pub(crate) fn alpha_vec(&self) -> &Vector {
        &self.alpha
    }

    /// Training inputs, including any hallucinated tail.
    #[cfg(test)]
    pub(crate) fn x_rows(&self) -> &[Vec<f64>] {
        &self.x
    }

    /// Marks every current training point as a real observation (used after
    /// an in-place [`Gp::push_point_standardized`] of real data).
    pub(crate) fn mark_all_real(&mut self) {
        self.n_real = self.x.len();
    }
}

/// Rejects a point of the wrong dimension or with a non-finite
/// coordinate; `what` names the point in the error.
pub(crate) fn validate_point(x: &[f64], dim: usize, what: &str) -> crate::Result<()> {
    if x.len() != dim {
        return Err(GpError::InconsistentData {
            detail: format!("{what} has {} dims, expected {dim}", x.len()),
        });
    }
    if x.iter().any(|v| !v.is_finite()) {
        return Err(GpError::NonFiniteData {
            context: what.into(),
        });
    }
    Ok(())
}

/// Query columns per block of the batched posterior. A block of `K*` is
/// `n × 32` (about 70 KiB at class-E's n = 274): small enough to stay in
/// L2 and below the allocator's mmap threshold, wide enough for the
/// in-place solve's 16-column groups. Widths from 16 to 128 time alike
/// in the `hotpath` bench.
pub(crate) const QUERY_BLOCK: usize = 32;

/// Per-column `Σᵢ K*[i][j]·αᵢ` of one query block over its leading
/// `alpha.len()` rows, each column accumulated in ascending `i`.
fn block_means(kstar: &Matrix, alpha: &Vector) -> [f64; QUERY_BLOCK] {
    let mut means = [0.0; QUERY_BLOCK];
    for (i, &a) in alpha.iter().enumerate() {
        for (mu, &k) in means.iter_mut().zip(kstar.row(i)) {
            *mu += k * a;
        }
    }
    means
}

/// Standardized posterior means `K*ᵀ α` of a query batch against the
/// training rows `x`, walked in [`QUERY_BLOCK`]-column blocks.
/// Bit-identical per point to the posterior's mean.
pub(crate) fn mean_batch(
    kernel: &ArdKernel,
    theta: &[f64],
    x: &[Vec<f64>],
    alpha: &Vector,
    xs: &[Vec<f64>],
) -> Vec<f64> {
    let mut out = Vec::with_capacity(xs.len());
    for block in xs.chunks(QUERY_BLOCK) {
        let kstar = kernel.cross_covariance(theta, x, block);
        out.extend_from_slice(&block_means(&kstar, alpha)[..block.len()]);
    }
    out
}

/// The diagonal entry `σ_f² + σ_n²` of a row appended to the factor.
fn append_diag(kernel: &ArdKernel, theta: &[f64], log_noise: f64) -> f64 {
    kernel.signal_variance(theta) + log_noise.exp()
}

/// Rebuilds the factor of a [`GpFactor::Replay`] state with the
/// operations that built the live one: the full factorization of
/// [`Gp::assemble_traced`] over `x[..n_factored]`, then the append of
/// [`Gp::push_point_standardized`] for every later row. Each row's
/// factor entries depend only on the rows before it, so appends and
/// pseudo-point pushes that were later popped leave no trace.
fn replay_factor(
    kernel: &ArdKernel,
    theta: &[f64],
    log_noise: f64,
    x: &[Vec<f64>],
    n_factored: usize,
    jitter: f64,
) -> crate::Result<Cholesky> {
    if n_factored == 0 || n_factored > x.len() {
        return Err(GpError::InconsistentData {
            detail: format!(
                "n_factored {n_factored} is outside 1..={} training points",
                x.len()
            ),
        });
    }
    let k = covariance_matrix(kernel, theta, log_noise, &x[..n_factored]);
    let mut chol = Cholesky::new(&k)?;
    if chol.jitter().to_bits() != jitter.to_bits() {
        return Err(GpError::InconsistentData {
            detail: format!(
                "chol_jitter {jitter:e} differs from the replayed factorization's {:e}",
                chol.jitter()
            ),
        });
    }
    let diag = append_diag(kernel, theta, log_noise);
    for i in n_factored..x.len() {
        let cross = kernel.cross_row(theta, &x[i], &x[..i]);
        chol.extend(&cross, diag)?;
    }
    Ok(chol)
}

/// Builds `K = K_f + σ_n² I` for the given inputs via the batched symmetric
/// kernel builder (lower triangle evaluated once, inverse length-scales
/// hoisted out of the pair loop).
pub(crate) fn covariance_matrix(
    kernel: &ArdKernel,
    theta: &[f64],
    log_noise: f64,
    x: &[Vec<f64>],
) -> Matrix {
    let mut k = kernel.covariance(theta, x);
    k.add_diagonal(log_noise.exp());
    k
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    /// The per-pair cross row `k(x, xᵢ)`: one [`ArdKernel::eval`] per
    /// training point, every `exp` recomputed. The hoisted
    /// [`ArdKernel::cross_row`] must match it bit for bit.
    pub(crate) fn cross_row_per_pair(gp: &Gp, x: &[f64]) -> Vector {
        Vector::from_iter(gp.x.iter().map(|xi| gp.kernel.eval(&gp.theta, x, xi)))
    }

    /// [`Gp::posterior_batch`] at one point, rebuilt on
    /// [`cross_row_per_pair`] with one forward solve and the same
    /// reductions: the oracle for `(mean against mean_alpha, variance)`.
    /// The prior is σ_f², also at a non-finite coordinate.
    pub(crate) fn posterior_per_pair(gp: &Gp, x: &[f64], mean_alpha: &Vector) -> (f64, f64) {
        let kstar = cross_row_per_pair(gp, x);
        let mean = kstar
            .iter()
            .zip(mean_alpha.iter())
            .fold(0.0, |acc, (k, a)| acc + k * a);
        let v = gp.chol.solve_lower(&kstar);
        let var = (gp.kernel.signal_variance(&gp.theta) - v.dot(&v)).max(0.0);
        (mean, var)
    }

    fn toy_1d() -> (Vec<Vec<f64>>, Vec<f64>) {
        let x: Vec<Vec<f64>> = (0..10).map(|i| vec![i as f64 / 9.0]).collect();
        let y: Vec<f64> = x.iter().map(|p| (6.0 * p[0]).sin() + 2.0).collect();
        (x, y)
    }

    fn fixed_gp(x: Vec<Vec<f64>>, y: Vec<f64>) -> Gp {
        let d = x[0].len();
        let mut theta = vec![-1.0; d + 1]; // length-scales e^-1
        theta[d] = 0.0; // unit signal variance
        Gp::fit_with_params(
            x,
            y,
            KernelFamily::SquaredExponential,
            theta,
            (1e-6f64).ln(),
        )
        .unwrap()
    }

    #[test]
    fn rejects_bad_inputs() {
        assert!(matches!(
            Gp::fit(vec![], vec![], GpConfig::default()),
            Err(GpError::EmptyTrainingSet)
        ));
        assert!(matches!(
            Gp::fit(vec![vec![0.0]], vec![1.0, 2.0], GpConfig::default()),
            Err(GpError::InconsistentData { .. })
        ));
        assert!(matches!(
            Gp::fit(
                vec![vec![0.0], vec![1.0, 2.0]],
                vec![1.0, 2.0],
                GpConfig::default()
            ),
            Err(GpError::InconsistentData { .. })
        ));
        assert!(matches!(
            Gp::fit(vec![vec![f64::NAN]], vec![1.0], GpConfig::default()),
            Err(GpError::NonFiniteData { .. })
        ));
        assert!(matches!(
            Gp::fit(vec![vec![0.0]], vec![f64::INFINITY], GpConfig::default()),
            Err(GpError::NonFiniteData { .. })
        ));
    }

    #[test]
    fn fit_with_params_checks_theta_len() {
        assert!(matches!(
            Gp::fit_with_params(
                vec![vec![0.0]],
                vec![1.0],
                KernelFamily::SquaredExponential,
                vec![0.0; 5],
                -10.0
            ),
            Err(GpError::BadHyperParameters {
                expected: 2,
                actual: 5
            })
        ));
    }

    #[test]
    fn state_round_trip_is_bit_identical() {
        let (x, y) = toy_1d();
        // Grow incrementally so the cached factor differs from a
        // from-scratch refactorization — the case resume must preserve.
        let gp = fixed_gp(x, y)
            .extend_observed(vec![0.55], 2.4)
            .unwrap()
            .extend_observed(vec![0.62], 2.1)
            .unwrap();
        let rebuilt = Gp::from_state(gp.state()).unwrap();
        assert_eq!(rebuilt.state(), gp.state());
        for q in [0.0, 0.31, 0.55, 0.97] {
            let a = gp.predict(&[q]);
            let b = rebuilt.predict(&[q]);
            assert_eq!(a.mean.to_bits(), b.mean.to_bits(), "mean at {q}");
            assert_eq!(a.variance.to_bits(), b.variance.to_bits(), "var at {q}");
        }
        // Future incremental growth also continues identically.
        let g1 = gp.extend_observed(vec![0.8], 1.9).unwrap();
        let g2 = rebuilt.extend_observed(vec![0.8], 1.9).unwrap();
        assert_eq!(g1.state(), g2.state());
    }

    #[test]
    fn from_state_rejects_inconsistent_parts() {
        let (x, y) = toy_1d();
        let gp = fixed_gp(x, y);
        let mut s = gp.state();
        s.alpha.pop();
        assert!(matches!(
            Gp::from_state(s),
            Err(GpError::InconsistentData { .. })
        ));
        let mut s = gp.state();
        s.theta.push(0.0);
        assert!(matches!(
            Gp::from_state(s),
            Err(GpError::BadHyperParameters { .. })
        ));
        let mut s = gp.state();
        s.n_real = s.x.len() + 1;
        assert!(matches!(
            Gp::from_state(s),
            Err(GpError::InconsistentData { .. })
        ));
        let mut s = gp.state();
        s.x[3][0] = f64::NAN;
        assert!(matches!(
            Gp::from_state(s),
            Err(GpError::NonFiniteData { .. })
        ));
        let n = gp.n_train();
        for n_factored in [0, n + 1] {
            let mut s = gp.state();
            s.factor = GpFactor::Replay { n_factored };
            let err = Gp::from_state(s).unwrap_err();
            assert!(err.to_string().contains("n_factored"), "{err}");
        }
        let mut s = gp.state();
        s.chol_jitter = 1e-9;
        let err = Gp::from_state(s).unwrap_err();
        assert!(err.to_string().contains("chol_jitter"), "{err}");
        let mut s = gp.state();
        s.factor = GpFactor::Stored(vec![1.0; n * n - 1]);
        assert!(matches!(Gp::from_state(s), Err(GpError::Linalg(_))));
    }

    #[test]
    fn stored_factor_is_kept_verbatim_until_the_next_fit() {
        let (x, y) = toy_1d();
        let gp = fixed_gp(x.clone(), y.clone());
        // A stored factor restores as given, even one no replay would
        // produce, and stays stored through appends.
        let mut s = gp.state();
        let mut l = gp.chol.factor().as_slice().to_vec();
        l[0] = f64::from_bits(l[0].to_bits() + 1);
        s.factor = GpFactor::Stored(l.clone());
        let restored = Gp::from_state(s).unwrap();
        assert_eq!(restored.chol.factor().as_slice(), l.as_slice());
        let grown = restored.extend_observed(vec![0.42], 2.2).unwrap();
        let GpFactor::Stored(grown_l) = grown.state().factor else {
            panic!("an appended stored factor must stay stored");
        };
        assert_eq!(grown_l, grown.chol.factor().as_slice());
        assert_eq!(
            Gp::from_state(grown.state()).unwrap().state(),
            grown.state()
        );
        // The next fit factors afresh and replays again.
        let refit = fixed_gp(x, y);
        assert_eq!(refit.state().factor, GpFactor::Replay { n_factored: 10 });
    }

    #[test]
    fn interpolates_training_points() {
        let (x, y) = toy_1d();
        let gp = fixed_gp(x.clone(), y.clone());
        for (xi, yi) in x.iter().zip(y.iter()) {
            let p = gp.predict(xi);
            assert!((p.mean - yi).abs() < 1e-2, "at {xi:?}: {} vs {yi}", p.mean);
            assert!(p.variance < 1e-3);
        }
    }

    #[test]
    fn uncertainty_grows_away_from_data() {
        let (x, y) = toy_1d();
        let gp = fixed_gp(x, y);
        let near = gp.predict(&[0.5]);
        let far = gp.predict(&[5.0]);
        assert!(far.variance > near.variance * 10.0);
    }

    #[test]
    fn far_field_mean_reverts_to_data_mean() {
        let (x, y) = toy_1d();
        let mean_y = easybo_linalg::mean(&y);
        let gp = fixed_gp(x, y);
        let far = gp.predict(&[100.0]);
        assert!((far.mean - mean_y).abs() < 1e-6);
    }

    #[test]
    fn predict_mean_matches_predict() {
        let (x, y) = toy_1d();
        let gp = fixed_gp(x, y);
        for q in [0.1, 0.37, 0.93, 2.0] {
            let mean = gp.predict_mean_batch(&[vec![q]])[0];
            assert_eq!(gp.predict(&[q]).mean.to_bits(), mean.to_bits());
        }
    }

    #[test]
    fn trained_fit_beats_bad_fixed_hyperparams() {
        let (x, y) = toy_1d();
        let trained = Gp::fit(x.clone(), y.clone(), GpConfig::default()).unwrap();
        let clumsy = Gp::fit_with_params(
            x,
            y,
            KernelFamily::SquaredExponential,
            vec![3.0, 0.0], // absurdly long length-scale
            (0.5f64).ln(),  // huge noise
        )
        .unwrap();
        assert!(trained.log_marginal_likelihood() > clumsy.log_marginal_likelihood());
    }

    #[test]
    fn predict_batch_bitwise_matches_scalar() {
        let (x, y) = toy_1d();
        let gp = fixed_gp(x, y);
        let queries: Vec<Vec<f64>> = (0..17).map(|i| vec![i as f64 / 16.0 - 0.1]).collect();
        let batch = gp.predict_batch(&queries);
        let mean_batch = gp.predict_mean_batch(&queries);
        assert_eq!(batch.len(), queries.len());
        for (i, q) in queries.iter().enumerate() {
            let scalar = gp.predict(q);
            // Exact equality: the batch path performs the same operations
            // in the same order per query point.
            assert_eq!(batch[i].mean, scalar.mean, "mean at query {i}");
            assert_eq!(batch[i].variance, scalar.variance, "variance at query {i}");
            assert_eq!(mean_batch[i], scalar.mean, "mean-only at query {i}");
        }
        assert!(gp.predict_batch(&[]).is_empty());
        assert!(gp.predict_mean_batch(&[]).is_empty());
    }

    #[test]
    fn predict_batch_bitwise_matches_scalar_on_augmented_gp() {
        let (x, y) = toy_1d();
        let gp = fixed_gp(x, y);
        let aug = gp.augment(&[vec![0.25], vec![0.85]]).unwrap();
        let queries: Vec<Vec<f64>> = (0..9).map(|i| vec![i as f64 / 8.0]).collect();
        for (pred, q) in aug.predict_batch(&queries).iter().zip(&queries) {
            let scalar = aug.predict(q);
            assert_eq!(pred.mean, scalar.mean);
            assert_eq!(pred.variance, scalar.variance);
        }
    }

    #[test]
    fn augment_shrinks_variance_without_moving_mean() {
        // Sparse design so the gap at 0.55 has real prior uncertainty left.
        let x: Vec<Vec<f64>> = vec![vec![0.0], vec![0.3], vec![0.9], vec![1.3]];
        let y: Vec<f64> = x.iter().map(|p| (6.0 * p[0]).sin() + 2.0).collect();
        let gp = fixed_gp(x, y);
        let busy = vec![vec![0.55]];
        let aug = gp.augment(&busy).unwrap();
        // Variance collapses at the busy point…
        let v0 = gp.predict(&[0.55]).variance;
        let v1 = aug.predict(&[0.55]).variance;
        assert!(v1 < v0 * 0.5 + 1e-12, "v0={v0} v1={v1}");
        // …while the mean is (numerically) unchanged everywhere.
        for q in [0.05, 0.3, 0.55, 0.8, 1.2] {
            let m0 = gp.predict(&[q]).mean;
            let m1 = aug.predict(&[q]).mean;
            assert!((m0 - m1).abs() < 1e-6, "mean moved at {q}: {m0} vs {m1}");
        }
        assert_eq!(aug.n_real(), gp.n_real());
        assert_eq!(aug.n_train(), gp.n_train() + 1);
    }

    #[test]
    fn augment_far_point_does_not_affect_near_field() {
        let (x, y) = toy_1d();
        let gp = fixed_gp(x, y);
        let aug = gp.augment(&[vec![50.0]]).unwrap();
        let v0 = gp.predict(&[0.5]).variance;
        let v1 = aug.predict(&[0.5]).variance;
        assert!((v0 - v1).abs() < 1e-10);
    }

    #[test]
    fn augment_rejects_bad_points() {
        let (x, y) = toy_1d();
        let gp = fixed_gp(x, y);
        assert!(gp.augment(&[vec![0.1, 0.2]]).is_err());
        assert!(gp.augment(&[vec![f64::NAN]]).is_err());
    }

    #[test]
    fn extend_observed_matches_full_refit() {
        let (mut x, mut y) = toy_1d();
        let new_x = vec![0.77];
        let new_y = 2.3;
        let gp = fixed_gp(x.clone(), y.clone());
        let ext = gp.extend_observed(new_x.clone(), new_y).unwrap();
        x.push(new_x);
        y.push(new_y);
        // Full refit with the *same* scaler/hyperparameters for comparison:
        // build via fit_with_params on raw data, then compare predictions
        // (scalers differ slightly, so compare in raw space with tolerance).
        let refit = Gp::fit_with_params(
            x,
            y,
            KernelFamily::SquaredExponential,
            gp.theta().to_vec(),
            gp.log_noise(),
        )
        .unwrap();
        for q in [0.1, 0.5, 0.77, 0.9] {
            let a = ext.predict(&[q]);
            let b = refit.predict(&[q]);
            assert!(
                (a.mean - b.mean).abs() < 5e-2,
                "mean at {q}: {} vs {}",
                a.mean,
                b.mean
            );
        }
        assert_eq!(ext.n_real(), 11);
    }

    #[test]
    fn lml_matches_direct_computation() {
        // 2-point GP with known kernel values: check LML against the
        // closed-form multivariate normal density.
        let x = vec![vec![0.0], vec![1.0]];
        let y = vec![1.0, -1.0];
        let gp = Gp::fit_with_params(
            x,
            y,
            KernelFamily::SquaredExponential,
            vec![0.0, 0.0],
            (0.1f64).ln(),
        )
        .unwrap();
        // Standardized targets: mean 0, std 1 => z = (1, -1).
        // K^{-1} z = (a+b, -(a+b)) / det, so z^T K^{-1} z = 2(a+b)/det.
        let k01 = (-0.5f64).exp();
        let (a, b) = (1.0 + 0.1, k01);
        let det = a * a - b * b;
        let zkz = 2.0 * (a + b) / det;
        let expect = -0.5 * zkz - 0.5 * det.ln() - (2.0 * std::f64::consts::PI).ln();
        assert!(
            (gp.log_marginal_likelihood() - expect).abs() < 1e-9,
            "{} vs {expect}",
            gp.log_marginal_likelihood()
        );
    }

    #[test]
    fn multidimensional_fit_predicts_plane() {
        // Linear-ish surface in 3-d; GP with trained hyperparams should get
        // interior predictions roughly right.
        let mut x = Vec::new();
        let mut y = Vec::new();
        for i in 0..4 {
            for j in 0..4 {
                for k in 0..2 {
                    let p = vec![i as f64 / 3.0, j as f64 / 3.0, k as f64];
                    y.push(p[0] + 2.0 * p[1] - 0.5 * p[2]);
                    x.push(p);
                }
            }
        }
        let gp = Gp::fit(x, y, GpConfig::default()).unwrap();
        let q = [0.5, 0.5, 0.5];
        let expect = 0.5 + 1.0 - 0.25;
        assert!((gp.predict(&q).mean - expect).abs() < 0.15);
    }

    #[test]
    fn loo_residuals_match_explicit_refits() {
        // Compare the closed-form LOO against literally removing each point
        // and refitting with the same hyperparameters.
        let (x, y) = toy_1d();
        let gp = fixed_gp(x.clone(), y.clone());
        let loo = gp.loo_residuals();
        assert_eq!(loo.len(), x.len());
        for (i, &(resid, std)) in loo.iter().enumerate() {
            let mut xs = x.clone();
            let mut ys = y.clone();
            let xi = xs.remove(i);
            let yi = ys.remove(i);
            // Refit with identical hyperparameters and scaler-free compare:
            // the scalers differ slightly between full and reduced sets, so
            // allow a proportional tolerance.
            let reduced = Gp::fit_with_params(
                xs,
                ys,
                KernelFamily::SquaredExponential,
                gp.theta().to_vec(),
                gp.log_noise(),
            )
            .unwrap();
            let pred = reduced.predict(&xi);
            let explicit_resid = yi - pred.mean;
            assert!(
                (resid - explicit_resid).abs() < 0.15 * (1.0 + explicit_resid.abs()),
                "point {i}: closed-form {resid} vs explicit {explicit_resid}"
            );
            assert!(std > 0.0);
        }
    }

    #[test]
    fn loo_residuals_are_bitwise_full_inverse() {
        // The closed form reads only diag(K⁻¹); the triangular inverse must
        // leave it exactly as the full solve of each unit vector had it.
        let (x, y) = toy_1d();
        let gp = fixed_gp(x, y);
        let n = gp.n_train();
        for (i, &(resid, std)) in gp.loo_residuals().iter().enumerate() {
            let unit = Vector::from_iter((0..n).map(|j| if j == i { 1.0 } else { 0.0 }));
            let kii = gp.chol.solve_vec(&unit)[i].max(1e-300);
            let expect_resid = gp.alpha[i] / kii * gp.scaler.std();
            let expect_std = (1.0 / kii).sqrt() * gp.scaler.std();
            assert_eq!(resid.to_bits(), expect_resid.to_bits(), "residual {i}");
            assert_eq!(std.to_bits(), expect_std.to_bits(), "std {i}");
        }
    }

    #[test]
    fn loo_flags_an_outlier() {
        let mut x: Vec<Vec<f64>> = (0..10).map(|i| vec![i as f64 / 9.0]).collect();
        let mut y: Vec<f64> = x.iter().map(|p| p[0]).collect();
        x.push(vec![0.55]);
        y.push(10.0); // gross outlier in an otherwise linear dataset
        let gp = Gp::fit_with_params(
            x,
            y,
            KernelFamily::SquaredExponential,
            vec![-1.0, 0.0],
            (1e-4f64).ln(),
        )
        .unwrap();
        let loo = gp.loo_residuals();
        // The outlier's standardized LOO residual dwarfs everyone else's.
        let zscores: Vec<f64> = loo.iter().map(|(r, s)| (r / s).abs()).collect();
        let max_idx = zscores
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.total_cmp(b.1))
            .map(|(i, _)| i)
            .unwrap();
        assert_eq!(max_idx, 10, "outlier not flagged: {zscores:?}");
    }

    #[test]
    fn prediction_std_accessor() {
        let p = Prediction {
            mean: 1.0,
            variance: 4.0,
        };
        assert_eq!(p.std(), 2.0);
        let neg = Prediction {
            mean: 0.0,
            variance: -1e-18,
        };
        assert_eq!(neg.std(), 0.0);
    }
}
