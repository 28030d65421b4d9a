//! Incremental GP surrogate: cached covariance factor across ask/tell
//! steps plus a pseudo-point factor *stack* for the penalization inner
//! loop.
//!
//! The asynchronous EasyBO loop touches the GP in two very different
//! rhythms:
//!
//! * **per tell** — one new real observation arrives; the kernel and
//!   hyperparameters are unchanged, so the cached Cholesky factor can be
//!   extended in O(n²) instead of rebuilt in O(n³);
//! * **per selection** — the local-penalization scheme hallucinates one
//!   pseudo-point per busy worker, maximizes the acquisition, and then
//!   throws the pseudo-points away again.
//!
//! [`IncrementalGp`] serves both: [`IncrementalGp::append_observation`]
//! reuses the cached factor, and [`IncrementalGp::push_pseudo_mean`] /
//! [`IncrementalGp::pop_pseudo`] maintain an augmented factor stack so
//! the inner loop never refactorizes. Every push records the pre-push
//! weight vector `α`, and the factor extension never touches the existing
//! block, so a pop restores the previous model **bit for bit** — the
//! property that keeps checkpoint/resume byte-identical. Every policy
//! upstream penalizes busy points on this stack; [`Gp::augment`] stays as
//! the clone-and-refactorize reference the tests compare it against. A
//! hyperparameter retrain simply replaces the wrapped [`Gp`] (see
//! `SurrogateManager` upstream), which is the cache-invalidation path
//! back to the blocked full factorization.

use easybo_linalg::Vector;
use easybo_telemetry::Telemetry;

use crate::model::{validate_point, Gp, PosteriorGrad};
use crate::GpError;

/// A [`Gp`] wrapped with an incremental-update API and a pseudo-point
/// factor stack. See the module docs for the design.
///
/// # Example
///
/// ```
/// use easybo_gp::{Gp, GpConfig, IncrementalGp};
///
/// # fn main() -> Result<(), easybo_gp::GpError> {
/// let x = vec![vec![0.0], vec![0.5], vec![1.0]];
/// let y = vec![0.0, 1.0, 0.0];
/// let mut inc = IncrementalGp::new(Gp::fit(x, y, GpConfig::default())?);
/// let before = inc.gp().predict(&[0.25]);
/// inc.push_pseudo_mean(vec![0.25])?;
/// assert!(inc.gp().predict(&[0.25]).variance < before.variance);
/// inc.pop_pseudo();
/// // The pop restored the exact pre-push model.
/// assert_eq!(inc.gp().predict(&[0.25]), before);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct IncrementalGp {
    gp: Gp,
    /// Pre-push `α` snapshots, one per live pseudo-point (stack order).
    saved_alpha: Vec<Vector>,
    telemetry: Telemetry,
}

impl IncrementalGp {
    /// Wraps a fitted model with telemetry disabled.
    pub fn new(gp: Gp) -> Self {
        Self::with_telemetry(gp, Telemetry::disabled())
    }

    /// Wraps a fitted model; incremental updates emit `cholesky_update` /
    /// `cholesky_downdate` spans and counters on `telemetry`.
    pub fn with_telemetry(gp: Gp, telemetry: Telemetry) -> Self {
        IncrementalGp {
            gp,
            saved_alpha: Vec::new(),
            telemetry,
        }
    }

    /// Replaces the telemetry handle.
    pub fn set_telemetry(&mut self, telemetry: Telemetry) {
        self.telemetry = telemetry;
    }

    /// The wrapped model, including any live pseudo-points.
    pub fn gp(&self) -> &Gp {
        &self.gp
    }

    /// Unwraps the model, popping any live pseudo-points first.
    pub fn into_gp(mut self) -> Gp {
        self.pop_all_pseudo();
        self.gp
    }

    /// Number of live pseudo-points on the stack.
    pub fn n_pseudo(&self) -> usize {
        self.saved_alpha.len()
    }

    /// Number of training points *below* the pseudo-point stack.
    #[cfg(test)]
    pub fn n_base(&self) -> usize {
        self.gp.n_train() - self.saved_alpha.len()
    }

    /// Appends one *real* observation in place, extending the cached
    /// factor in O(n²) — the per-tell hot path that replaces a full
    /// O(n³) refactorization between scheduled hyperparameter retrains.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Gp::extend_observed`].
    ///
    /// # Panics
    ///
    /// Panics if pseudo-points are live: real data must never be
    /// interleaved into the hallucinated tail.
    pub fn append_observation(&mut self, x: Vec<f64>, y: f64) -> crate::Result<()> {
        assert!(
            self.saved_alpha.is_empty(),
            "append_observation with {} pseudo-points live",
            self.saved_alpha.len()
        );
        validate_point(&x, self.gp.dim(), "point")?;
        if !y.is_finite() {
            return Err(GpError::NonFiniteData {
                context: "append_observation target".into(),
            });
        }
        let _span = self.telemetry.span("cholesky_update");
        let z = self.gp.scaler().transform(y);
        let (floored, _) = self.gp.push_point_standardized(x, z)?;
        self.gp.mark_all_real();
        self.telemetry.incr("cholesky_update", 1);
        if floored {
            self.telemetry.incr("cholesky_jitter_bumps", 1);
        }
        Ok(())
    }

    /// Pushes a hallucinated pseudo-point whose target is the *current
    /// predictive mean* (the paper's BUCB-style busy-point penalization):
    /// the posterior mean is unchanged while σ̂ collapses around the busy
    /// point. Exactly the per-point operation sequence of [`Gp::augment`],
    /// but on a factor stack instead of a throwaway clone, and with the
    /// cross row and its forward solve shared between the mean and the
    /// factor extension.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Gp::augment`]; on error the model is unchanged.
    pub fn push_pseudo_mean(&mut self, x: Vec<f64>) -> crate::Result<()> {
        validate_point(&x, self.gp.dim(), "point")?;
        let _span = self.telemetry.span("cholesky_update");
        let pushed = self.gp.push_point_at_mean(x)?;
        self.record_push(pushed);
        Ok(())
    }

    /// Pushes a hallucinated pseudo-point with a fixed raw-space "lie"
    /// target (the constant-liar ablations): `y` is standardized with the
    /// model's scaler, matching [`Gp::extend_observed`]'s transform —
    /// but, unlike the liar-via-`extend_observed` legacy path, the point
    /// stays hallucinated and poppable.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Gp::augment`]; on error the model is unchanged.
    pub fn push_pseudo_lie(&mut self, x: Vec<f64>, y: f64) -> crate::Result<()> {
        validate_point(&x, self.gp.dim(), "point")?;
        if !y.is_finite() {
            return Err(GpError::NonFiniteData {
                context: "pseudo-point lie target".into(),
            });
        }
        let z = self.gp.scaler().transform(y);
        self.push_standardized(x, z)
    }

    fn push_standardized(&mut self, x: Vec<f64>, z: f64) -> crate::Result<()> {
        let _span = self.telemetry.span("cholesky_update");
        let pushed = self.gp.push_point_standardized(x, z)?;
        self.record_push(pushed);
        Ok(())
    }

    /// Stacks the pre-push `α` of a successful push and counts it.
    fn record_push(&mut self, (floored, alpha_before): (bool, Vector)) {
        self.saved_alpha.push(alpha_before);
        self.telemetry.incr("cholesky_update", 1);
        if floored {
            self.telemetry.incr("cholesky_jitter_bumps", 1);
        }
    }

    /// Pops the most recent pseudo-point, restoring the pre-push model
    /// bit for bit (factor truncation + saved `α`), in O(n²).
    ///
    /// # Panics
    ///
    /// Panics if no pseudo-point is live.
    pub fn pop_pseudo(&mut self) {
        let alpha = self
            .saved_alpha
            .pop()
            .expect("pop_pseudo: no pseudo-points live");
        let _span = self.telemetry.span("cholesky_downdate");
        self.gp.truncate_to(self.gp.n_train() - 1, alpha);
        self.telemetry.incr("cholesky_downdate", 1);
    }

    /// Pops every live pseudo-point (no-op when none are live).
    pub fn pop_all_pseudo(&mut self) {
        while !self.saved_alpha.is_empty() {
            self.pop_pseudo();
        }
    }

    /// The penalized posterior of the paper's Eq. 9 in standardized space,
    /// one `(mean, variance)` per point: the **base** model's mean (live
    /// pseudo-points ignored) and the augmented model's variance `σ̂²`,
    /// both from one `K*` block and one forward solve. The mean is
    /// bit-identical to `base.predict_standardized(x).0` on the model as it
    /// stood before the pushes, and the variance to
    /// `gp().predict_standardized(x).1`. A single point is a batch of one.
    ///
    /// # Panics
    ///
    /// Panics if any point has the wrong dimension.
    pub fn predict_penalized_batch(&self, xs: &[Vec<f64>]) -> Vec<(f64, f64)> {
        self.gp.posterior_batch(xs, self.base_alpha())
    }

    /// The penalized posterior at one point with the gradients of both
    /// moments in `x`; the moments are bit-identical to
    /// [`IncrementalGp::predict_penalized_batch`]'s.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != dim()`.
    pub fn predict_penalized_grad(&self, x: &[f64]) -> PosteriorGrad {
        self.gp.posterior_grad(x, self.base_alpha())
    }

    /// The weight vector of the base model: the bottom of the saved-α
    /// stack, or the live α when no pseudo-points are pushed.
    fn base_alpha(&self) -> &Vector {
        self.saved_alpha
            .first()
            .unwrap_or_else(|| self.gp.alpha_vec())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::mean_batch;
    use crate::model::tests::posterior_per_pair;
    use crate::{GpFactor, KernelFamily};

    fn fitted() -> Gp {
        let x: Vec<Vec<f64>> = (0..10).map(|i| vec![i as f64 / 9.0]).collect();
        let y: Vec<f64> = x.iter().map(|p| (6.0 * p[0]).sin() + 2.0).collect();
        Gp::fit_with_params(
            x,
            y,
            KernelFamily::SquaredExponential,
            vec![-1.0, 0.0],
            (1e-6f64).ln(),
        )
        .unwrap()
    }

    const FAMILIES: [KernelFamily; 4] = [
        KernelFamily::SquaredExponential,
        KernelFamily::Matern52,
        KernelFamily::Matern32,
        KernelFamily::RationalQuadratic,
    ];

    /// Deterministic points in the unit cube at class-E dimension.
    fn cube_points(count: usize, salt: usize) -> Vec<Vec<f64>> {
        (0..count)
            .map(|i| {
                (0..12)
                    .map(|j| (((i * 12 + j) * 7919 + salt * 104_729) % 1000) as f64 / 1000.0)
                    .collect()
            })
            .collect()
    }

    /// A class-E-size GP under fixed ARD hyperparameters (length-scales
    /// e^-0.7 … e^-0.15; for six of them `1 / e^θ` and `e^{-θ}` round
    /// apart, so a mis-hoisted inverse shows).
    fn class_e_gp(family: KernelFamily, n: usize) -> Gp {
        let x = cube_points(n, 1);
        let y = x
            .iter()
            .map(|p| {
                p.iter()
                    .enumerate()
                    .map(|(j, v)| (v * (j + 1) as f64).sin())
                    .sum()
            })
            .collect();
        let mut theta: Vec<f64> = (0..12).map(|j| -0.7 + 0.05 * j as f64).collect();
        theta.push(0.3);
        Gp::fit_with_params(x, y, family, theta, (1e-6f64).ln()).unwrap()
    }

    /// The two-call reference for the base half of
    /// [`IncrementalGp::predict_penalized_batch`]: the mean-only path over the
    /// base rows against the base `α`, raw units.
    fn predict_mean_base(inc: &IncrementalGp, x: &[f64]) -> f64 {
        let gp = inc.gp();
        let mean_z: f64 = gp.x_rows()[..inc.n_base()]
            .iter()
            .zip(inc.base_alpha().iter())
            .map(|(xi, &a)| gp.kernel().eval(gp.theta(), x, xi) * a)
            .sum();
        gp.scaler().inverse(mean_z)
    }

    /// Batched [`predict_mean_base`], the reference for
    /// [`IncrementalGp::predict_penalized_batch`]'s means.
    fn predict_mean_base_batch(inc: &IncrementalGp, xs: &[Vec<f64>]) -> Vec<f64> {
        let gp = inc.gp();
        let base_rows = &gp.x_rows()[..inc.n_base()];
        mean_batch(gp.kernel(), gp.theta(), base_rows, inc.base_alpha(), xs)
            .into_iter()
            .map(|mu| gp.scaler().inverse(mu))
            .collect()
    }

    /// Bit patterns of every float in a model's state and its factor.
    fn state_bits(gp: &Gp) -> Vec<u64> {
        let s = gp.state();
        let rows = s.x.iter().flatten();
        rows.chain(&s.z)
            .chain(gp.cholesky().factor().as_slice())
            .chain(&s.alpha)
            .chain(&s.theta)
            .map(|v| v.to_bits())
            .collect()
    }

    /// [`Gp::from_state`] of a replay state against the live model: the
    /// state, the factor, its jitter, `α` and the posterior at `probes`,
    /// bit for bit.
    fn assert_replays(gp: &Gp, probes: &[Vec<f64>], at: &str) {
        let state = gp.state();
        assert!(
            matches!(state.factor, GpFactor::Replay { .. }),
            "{at}: {:?}",
            state.factor
        );
        let replayed = Gp::from_state(state.clone()).unwrap_or_else(|e| panic!("{at}: {e}"));
        assert_eq!(replayed.state(), state, "{at}");
        assert_eq!(state_bits(&replayed), state_bits(gp), "{at}");
        let (live, back) = (gp.cholesky(), replayed.cholesky());
        assert_eq!(live.jitter().to_bits(), back.jitter().to_bits(), "{at}");
        for (j, q) in probes.iter().enumerate() {
            let (a, b) = (gp.predict_standardized(q), replayed.predict_standardized(q));
            assert_eq!(
                (a.0.to_bits(), a.1.to_bits()),
                (b.0.to_bits(), b.1.to_bits()),
                "{at} probe {j}"
            );
        }
    }

    #[test]
    fn replayed_state_is_bitwise_the_live_model() {
        let probes = cube_points(8, 9);
        for family in FAMILIES {
            for (n_factored, appends) in [(1, 0), (1, 40), (8, 3), (33, 40), (120, 12)] {
                let at = format!("{family:?} n_factored={n_factored} appends={appends}");
                let mut inc = IncrementalGp::new(class_e_gp(family, n_factored));
                for (i, p) in cube_points(appends, 5).into_iter().enumerate() {
                    // Pseudo-points pushed and popped between appends leave
                    // no trace in the factor a replay must rebuild.
                    if i % 4 == 0 {
                        inc.push_pseudo_mean(p.iter().map(|v| 1.0 - v).collect())
                            .unwrap();
                        inc.push_pseudo_lie(p.iter().map(|v| v * 0.5).collect(), 0.3)
                            .unwrap();
                        inc.pop_all_pseudo();
                    }
                    let y = p.iter().sum::<f64>().sin();
                    inc.append_observation(p, y).unwrap();
                }
                assert_replays(inc.gp(), &probes, &at);
                // A state taken with pseudo-points live replays them too.
                for p in cube_points(3, 6) {
                    inc.push_pseudo_mean(p).unwrap();
                }
                assert_replays(inc.gp(), &probes, &format!("{at} +3 pseudo"));
            }
        }
    }

    /// The penalized posterior at one point: a batch of one.
    fn penalized(inc: &IncrementalGp, x: &[f64]) -> (f64, f64) {
        inc.predict_penalized_batch(&[x.to_vec()])[0]
    }

    /// Central differences of `f`'s two outputs along every coordinate.
    fn central_differences(f: impl Fn(&[f64]) -> (f64, f64), x: &[f64]) -> (Vec<f64>, Vec<f64>) {
        let h = 1e-4;
        (0..x.len())
            .map(|j| {
                let (mut up, mut down) = (x.to_vec(), x.to_vec());
                up[j] += h;
                down[j] -= h;
                let (a, b) = (f(&up), f(&down));
                ((a.0 - b.0) / (2.0 * h), (a.1 - b.1) / (2.0 * h))
            })
            .unzip()
    }

    fn assert_close(got: &[f64], want: &[f64], at: &str) {
        for (j, (g, w)) in got.iter().zip(want).enumerate() {
            let tol = 1e-6 + 1e-5 * w.abs();
            assert!((g - w).abs() <= tol, "{at} coordinate {j}: {g} vs {w}");
        }
    }

    #[test]
    fn posterior_gradients_match_central_differences() {
        for family in FAMILIES {
            let mut inc = IncrementalGp::new(class_e_gp(family, 40));
            for pushed in [false, true] {
                if pushed {
                    inc.push_pseudo_mean(cube_points(1, 3).remove(0)).unwrap();
                    inc.push_pseudo_lie(cube_points(1, 4).remove(0), 0.7)
                        .unwrap();
                }
                for (i, q) in cube_points(5, 11).iter().enumerate() {
                    let at = format!("{family:?} pushed={pushed} query {i}");
                    let pen = inc.predict_penalized_grad(q);
                    let live = inc.gp().predict_standardized_grad(q);
                    // The moments are the value paths' bits.
                    let (mean, var) = penalized(&inc, q);
                    assert_eq!(
                        (pen.mean.to_bits(), pen.var.to_bits()),
                        (mean.to_bits(), var.to_bits()),
                        "{at}"
                    );
                    let (mean, var) = inc.gp().predict_standardized(q);
                    assert_eq!(
                        (live.mean.to_bits(), live.var.to_bits()),
                        (mean.to_bits(), var.to_bits()),
                        "{at}"
                    );
                    assert!(pen.var > 0.0, "{at}");

                    let (dm, dv) = central_differences(|x| penalized(&inc, x), q);
                    assert_close(&pen.d_mean, &dm, &format!("{at} penalized mean"));
                    assert_close(&pen.d_var, &dv, &format!("{at} penalized variance"));
                    let (dm, dv) = central_differences(|x| inc.gp().predict_standardized(x), q);
                    assert_close(&live.d_mean, &dm, &format!("{at} mean"));
                    assert_close(&live.d_var, &dv, &format!("{at} variance"));
                }
            }
        }
    }

    #[test]
    fn variance_gradient_is_zero_on_the_floor() {
        // A noiseless 1-d model queried on a training point: σ² floors at
        // zero there, and so does its gradient.
        let gp = near_noiseless_gp((0..6).map(|i| vec![i as f64 / 5.0]).collect());
        let at = gp.predict_standardized_grad(&[0.4]);
        if at.var == 0.0 {
            assert_eq!(at.d_var, vec![0.0]);
        }
        assert!(at.d_var[0].abs() < 1e-6, "{at:?}");
        assert!(at.d_mean[0].is_finite());
    }

    /// The 1-d grid of [`duplicate_pseudo_point_bumps_jitter_counter`],
    /// with `log_noise` small enough that duplicates are singular.
    fn near_noiseless_gp(x: Vec<Vec<f64>>) -> Gp {
        let y: Vec<f64> = x.iter().map(|p| (6.0 * p[0]).sin() + 2.0).collect();
        Gp::fit_with_params(
            x,
            y,
            KernelFamily::SquaredExponential,
            vec![-1.0, 0.0],
            -45.0,
        )
        .unwrap()
    }

    #[test]
    fn replay_reproduces_the_pivot_floor_and_the_jitter_ladder() {
        let grid: Vec<Vec<f64>> = (0..10).map(|i| vec![i as f64 / 9.0]).collect();
        let probes: Vec<Vec<f64>> = (0..7).map(|i| vec![i as f64 / 6.0 + 0.01]).collect();

        // A real duplicate appended after the fit fires the pivot floor.
        let (telemetry, _recorder) = Telemetry::recording();
        let mut inc =
            IncrementalGp::with_telemetry(near_noiseless_gp(grid.clone()), telemetry.clone());
        assert_eq!(inc.gp().cholesky().jitter(), 0.0);
        inc.append_observation(vec![3.0 / 9.0], 2.5).unwrap();
        inc.append_observation(vec![0.5], 2.1).unwrap();
        let bumps = telemetry
            .metrics_snapshot()
            .unwrap()
            .counter("cholesky_jitter_bumps");
        assert!(bumps >= 1, "the duplicate must floor its pivot");
        assert_replays(inc.gp(), &probes, "pivot floor");

        // Duplicates inside the fit push the factorization up the jitter
        // ladder; the replay must land on the same rung.
        let mut doubled = grid.clone();
        doubled.extend(grid.iter().map(|p| vec![p[0] + 1e-12]));
        let mut inc = IncrementalGp::new(near_noiseless_gp(doubled));
        assert!(inc.gp().cholesky().jitter() > 0.0, "ladder not climbed");
        inc.append_observation(vec![0.45], 2.0).unwrap();
        assert_replays(inc.gp(), &probes, "jitter ladder");
    }

    #[test]
    fn fused_push_pseudo_mean_is_bitwise_predict_then_push() {
        for family in FAMILIES {
            let gp = class_e_gp(family, 260);
            let mut reference = gp.clone();
            let mut inc = IncrementalGp::new(gp);
            for p in cube_points(14, 2) {
                let (mean_z, _) = reference.predict_standardized(&p);
                reference
                    .push_point_standardized(p.clone(), mean_z)
                    .unwrap();
                inc.push_pseudo_mean(p).unwrap();
                assert_eq!(state_bits(inc.gp()), state_bits(&reference), "{family:?}");
            }
        }
    }

    /// Bit patterns of a `(mean, variance)` pair.
    fn bits((mu, var): (f64, f64)) -> [u64; 2] {
        [mu.to_bits(), var.to_bits()]
    }

    /// Every way to read the posterior at one point against
    /// [`posterior_per_pair`]'s per-pair row plus the same solve, bit for
    /// bit: the batch of one (`predict_standardized`, `predict_mean_batch`,
    /// `predict_penalized_batch`) and the gradient path's moments
    /// (`predict_standardized_grad`, `predict_penalized_grad`).
    fn assert_point_matches_per_pair(inc: &IncrementalGp, q: &[f64], at: &str) {
        let gp = inc.gp();
        let one = [q.to_vec()];
        let live = posterior_per_pair(gp, q, gp.alpha_vec());
        let grad = gp.predict_standardized_grad(q);
        assert_eq!(bits(gp.predict_standardized(q)), bits(live), "live {at}");
        assert_eq!(bits((grad.mean, grad.var)), bits(live), "live grad {at}");
        let mean = gp.predict_mean_batch(&one)[0];
        let want = gp.scaler().inverse(live.0);
        assert_eq!(mean.to_bits(), want.to_bits(), "mean-only {at}");
        let base = posterior_per_pair(gp, q, inc.base_alpha());
        let grad = inc.predict_penalized_grad(q);
        assert_eq!(bits(penalized(inc, q)), bits(base), "penalized {at}");
        assert_eq!(
            bits((grad.mean, grad.var)),
            bits(base),
            "penalized grad {at}"
        );
    }

    #[test]
    fn blocked_batch_posterior_is_bitwise_scalar_at_block_boundaries() {
        let queries = cube_points(528, 3);
        // A query with a NaN or an infinite coordinate reads the σ_f² prior
        // on every path, in a batch or alone: its variance is σ_f² − v·v,
        // zero where `v` is NaN.
        let mut odd = Vec::new();
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            for j in [0, 11] {
                let mut q = queries[7].clone();
                q[j] = bad;
                odd.push(q);
            }
        }
        // 33 queries with the odd ones straddling the 32-column block edge.
        let mut mixed = queries[..27].to_vec();
        mixed.extend(odd.iter().cloned());
        mixed.swap(31, 20);
        for family in FAMILIES {
            // n = 274 is 260 real points plus 14 live pseudo-points.
            for (n_real, n_pseudo) in [(1, 0), (24, 0), (260, 14)] {
                let mut inc = IncrementalGp::new(class_e_gp(family, n_real));
                for p in cube_points(n_pseudo, 4) {
                    inc.push_pseudo_mean(p).unwrap();
                }
                let gp = inc.gp();
                assert_eq!(gp.n_train(), n_real + n_pseudo);
                for (j, q) in queries.iter().chain(&odd).enumerate() {
                    let at = format!("{family:?} n={} q={j}", gp.n_train());
                    assert_point_matches_per_pair(&inc, q, &at);
                }
                for (m, xs) in [1, 31, 32, 33, 528]
                    .map(|m| (m, &queries[..m]))
                    .into_iter()
                    .chain([(mixed.len(), &mixed[..])])
                {
                    let post = gp.predict_standardized_batch(xs);
                    let means = gp.predict_mean_batch(xs);
                    let base = predict_mean_base_batch(&inc, xs);
                    let pen = inc.predict_penalized_batch(xs);
                    assert_eq!(
                        (post.len(), means.len(), base.len(), pen.len()),
                        (m, m, m, m)
                    );
                    for (j, q) in xs.iter().enumerate() {
                        let at = format!("{family:?} n={} m={m} j={j}", gp.n_train());
                        let one = gp.predict_standardized(q);
                        assert_eq!(bits(post[j]), bits(one), "{at}");
                        let mean = gp.scaler().inverse(one.0);
                        assert_eq!(means[j].to_bits(), mean.to_bits(), "mean-only {at}");
                        let scalar_base = predict_mean_base(&inc, q);
                        assert_eq!(base[j].to_bits(), scalar_base.to_bits(), "base {at}");
                        // The batched penalized posterior against the batch
                        // of one (itself checked against the per-pair base-α
                        // posterior above); its variance is the augmented
                        // model's.
                        let (pen_mu, pen_var) = penalized(&inc, q);
                        assert_eq!(pen_var.to_bits(), one.1.to_bits(), "penalized var {at}");
                        assert_eq!(bits(pen[j]), bits((pen_mu, pen_var)), "batch {at}");
                    }
                }
            }
        }
    }

    #[test]
    fn push_pop_restores_state_bitwise() {
        let gp = fitted();
        let before = gp.state();
        let mut inc = IncrementalGp::new(gp);
        inc.push_pseudo_mean(vec![0.25]).unwrap();
        inc.push_pseudo_mean(vec![0.85]).unwrap();
        inc.push_pseudo_lie(vec![0.5], 1.5).unwrap();
        assert_eq!(inc.n_pseudo(), 3);
        assert_eq!(inc.gp().n_train(), 13);
        inc.pop_all_pseudo();
        assert_eq!(inc.n_pseudo(), 0);
        assert_eq!(inc.gp().state(), before);
    }

    #[test]
    fn push_pseudo_mean_matches_augment_bitwise() {
        let gp = fitted();
        let busy = vec![vec![0.22], vec![0.71], vec![0.48]];
        let aug = gp.augment(&busy).unwrap();
        let mut inc = IncrementalGp::new(gp);
        for b in &busy {
            inc.push_pseudo_mean(b.clone()).unwrap();
        }
        assert_eq!(inc.gp().state(), aug.state());
        for q in [0.1, 0.48, 0.9] {
            let a = aug.predict_standardized(&[q]);
            let b = inc.gp().predict_standardized(&[q]);
            assert_eq!(a.0.to_bits(), b.0.to_bits());
            assert_eq!(a.1.to_bits(), b.1.to_bits());
        }
    }

    #[test]
    fn append_observation_matches_extend_observed_bitwise() {
        let gp = fitted();
        let legacy = gp
            .extend_observed(vec![0.77], 2.3)
            .unwrap()
            .extend_observed(vec![0.13], 1.8)
            .unwrap();
        let mut inc = IncrementalGp::new(gp);
        inc.append_observation(vec![0.77], 2.3).unwrap();
        inc.append_observation(vec![0.13], 1.8).unwrap();
        assert_eq!(inc.gp().state(), legacy.state());
        assert_eq!(inc.gp().n_real(), 12);
    }

    #[test]
    fn base_mean_ignores_pseudo_points() {
        let gp = fitted();
        let base = gp.clone();
        let mut inc = IncrementalGp::new(gp);
        inc.push_pseudo_mean(vec![0.33]).unwrap();
        inc.push_pseudo_lie(vec![0.66], 9.0).unwrap(); // a lie that WOULD move the mean
        let probes: Vec<Vec<f64>> = (0..7).map(|i| vec![i as f64 / 6.0]).collect();
        let batch = predict_mean_base_batch(&inc, &probes);
        let legacy = base.predict_mean_batch(&probes);
        let pen = inc.predict_penalized_batch(&probes);
        for (i, p) in probes.iter().enumerate() {
            let base_mean = base.predict(p).mean;
            assert_eq!(
                predict_mean_base(&inc, p).to_bits(),
                base_mean.to_bits(),
                "scalar at {i}"
            );
            assert_eq!(batch[i].to_bits(), legacy[i].to_bits(), "batch at {i}");
            // The fused posterior keeps the base mean, not the lie-moved one.
            let (base_z, _) = base.predict_standardized(p);
            let (_, var_hat) = inc.gp().predict_standardized(p);
            for (mu, var) in [penalized(&inc, p), pen[i]] {
                assert_eq!(mu.to_bits(), base_z.to_bits(), "penalized mean at {i}");
                assert_eq!(var.to_bits(), var_hat.to_bits(), "penalized var at {i}");
            }
        }
        // With no pseudo-points the base mean is just the live mean.
        inc.pop_all_pseudo();
        assert_eq!(
            predict_mean_base(&inc, &probes[3]).to_bits(),
            base.predict(&probes[3]).mean.to_bits()
        );
    }

    #[test]
    fn failed_push_leaves_model_unchanged() {
        let gp = fitted();
        let before = gp.state();
        let mut inc = IncrementalGp::new(gp);
        assert!(inc.push_pseudo_mean(vec![0.1, 0.2]).is_err()); // wrong dims
        assert!(inc.push_pseudo_mean(vec![f64::NAN]).is_err());
        assert!(inc.push_pseudo_lie(vec![0.5], f64::INFINITY).is_err());
        assert_eq!(inc.n_pseudo(), 0);
        assert_eq!(inc.gp().state(), before);
    }

    #[test]
    #[should_panic(expected = "append_observation")]
    fn append_with_live_pseudo_points_panics() {
        let mut inc = IncrementalGp::new(fitted());
        inc.push_pseudo_mean(vec![0.5]).unwrap();
        let _ = inc.append_observation(vec![0.6], 1.0);
    }

    #[test]
    fn telemetry_counts_updates_and_downdates() {
        let (telemetry, _recorder) = Telemetry::recording();
        let mut inc = IncrementalGp::with_telemetry(fitted(), telemetry.clone());
        inc.append_observation(vec![0.42], 2.0).unwrap();
        inc.push_pseudo_mean(vec![0.2]).unwrap();
        inc.push_pseudo_mean(vec![0.8]).unwrap();
        inc.pop_all_pseudo();
        let snap = telemetry.metrics_snapshot().unwrap();
        assert_eq!(snap.counter("cholesky_update"), 3);
        assert_eq!(snap.counter("cholesky_downdate"), 2);
    }

    #[test]
    fn into_gp_pops_live_pseudo_points() {
        let gp = fitted();
        let before = gp.state();
        let mut inc = IncrementalGp::new(gp);
        inc.push_pseudo_mean(vec![0.5]).unwrap();
        let unwrapped = inc.into_gp();
        assert_eq!(unwrapped.state(), before);
    }

    #[test]
    fn duplicate_pseudo_point_bumps_jitter_counter() {
        // Near-zero noise: appending an exact duplicate of a training
        // point drives the new pivot to (numerical) zero, so the
        // duplicate-point floor must fire — and be counted, not silent.
        let x: Vec<Vec<f64>> = (0..10).map(|i| vec![i as f64 / 9.0]).collect();
        let y: Vec<f64> = x.iter().map(|p| (6.0 * p[0]).sin() + 2.0).collect();
        let gp = Gp::fit_with_params(
            x,
            y,
            KernelFamily::SquaredExponential,
            vec![-1.0, 0.0],
            -45.0,
        )
        .unwrap();
        let (telemetry, _recorder) = Telemetry::recording();
        let mut inc = IncrementalGp::with_telemetry(gp, telemetry.clone());
        inc.push_pseudo_lie(vec![3.0 / 9.0], 2.5).unwrap();
        let snap = telemetry.metrics_snapshot().unwrap();
        assert!(snap.counter("cholesky_jitter_bumps") >= 1);
    }
}
