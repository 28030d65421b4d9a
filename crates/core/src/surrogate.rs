//! Surrogate-model lifecycle management shared by all BO policies.
//!
//! The GP operates on unit-cube inputs (the design space is mapped through
//! [`Bounds::to_unit`]) and z-scored targets. Hyperparameters are retrained
//! on a geometric schedule (every time the dataset grows ~25% past the last
//! training point) with warm starts, so the per-observation cost of the BO
//! inner loop stays at the O(n²)–O(n³) of a single covariance refactorize
//! rather than a full marginal-likelihood optimization.

use easybo_exec::Dataset;
use easybo_gp::{Gp, GpConfig, GpState, IncrementalGp, KernelFamily, TrainConfig};
use easybo_opt::{Bounds, Parallelism};
use easybo_telemetry::Telemetry;

/// Configuration for [`SurrogateManager`].
#[derive(Debug, Clone, PartialEq)]
pub struct SurrogateConfig {
    /// Kernel family (paper: squared exponential).
    pub kernel: KernelFamily,
    /// Growth factor between hyperparameter retrainings (default 1.4).
    pub retrain_growth: f64,
    /// Random restarts for the *first* hyperparameter training (default 2);
    /// subsequent retrainings warm-start and use one restart.
    pub first_restarts: usize,
    /// L-BFGS iterations per training (default 40).
    pub train_iters: usize,
    /// Subsample cap for hyperparameter training (default 160).
    pub train_max_points: usize,
    /// Active-set cap for the GP itself (default 260): past this size the
    /// surrogate keeps the best quarter of observations plus the most
    /// recent rest (classic subset-of-data scalability — required here
    /// because exact-GP variance queries are O(n²) and the class-E
    /// benchmark reaches n = 470).
    pub max_gp_points: usize,
    /// RNG seed for training restarts.
    pub seed: u64,
    /// Worker threads for the L-BFGS training restarts (default: available
    /// cores; 1 = legacy sequential). Bit-identical results at any setting.
    pub parallelism: Parallelism,
}

impl Default for SurrogateConfig {
    fn default() -> Self {
        SurrogateConfig {
            kernel: KernelFamily::SquaredExponential,
            retrain_growth: 1.4,
            first_restarts: 2,
            train_iters: 40,
            train_max_points: 160,
            max_gp_points: 260,
            seed: 0,
            parallelism: Parallelism::default(),
        }
    }
}

/// Owns the GP for one optimization run: refits on demand, retrains
/// hyperparameters on schedule, and maps between raw and unit coordinates.
///
/// # Example
///
/// ```
/// use easybo::{SurrogateConfig, SurrogateManager};
/// use easybo_exec::Dataset;
/// use easybo_opt::Bounds;
///
/// # fn main() -> Result<(), easybo::EasyBoError> {
/// let bounds = Bounds::new(vec![(0.0, 10.0)])?;
/// let mut sm = SurrogateManager::new(bounds, SurrogateConfig::default());
/// let mut data = Dataset::new();
/// for i in 0..8 {
///     let x = i as f64 * 10.0 / 7.0;
///     data.push(vec![x], (x - 4.0).powi(2) * -1.0);
/// }
/// // The GP speaks unit coordinates: query through the manager.
/// let query = sm.to_unit(&[4.0]);
/// let gp = sm.surrogate(&data)?;
/// let pred = gp.predict(&query);
/// assert!(pred.mean > -3.0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct SurrogateManager {
    bounds: Bounds,
    config: SurrogateConfig,
    gp: Option<IncrementalGp>,
    fitted_n: usize,
    last_trained_n: usize,
    warm: Option<Vec<f64>>,
    /// Lower winsorization fence for targets (set at each retraining).
    fence: f64,
    telemetry: Telemetry,
}

impl SurrogateManager {
    /// Creates a manager for the given design space.
    pub fn new(bounds: Bounds, config: SurrogateConfig) -> Self {
        SurrogateManager {
            bounds,
            config,
            gp: None,
            fitted_n: 0,
            last_trained_n: 0,
            warm: None,
            fence: f64::NEG_INFINITY,
            telemetry: Telemetry::disabled(),
        }
    }

    /// Attaches a telemetry handle: every hyperparameter retraining emits
    /// a `GpRefit` event and feeds the GP training counters, and the
    /// incremental factor path emits `cholesky_update` /
    /// `cholesky_downdate` spans and counters.
    pub fn set_telemetry(&mut self, telemetry: Telemetry) {
        if let Some(inc) = self.gp.as_mut() {
            inc.set_telemetry(telemetry.clone());
        }
        self.telemetry = telemetry;
    }

    /// The design space.
    pub fn bounds(&self) -> &Bounds {
        &self.bounds
    }

    /// Maps a raw design point to unit-cube coordinates.
    pub fn to_unit(&self, x: &[f64]) -> Vec<f64> {
        self.bounds.to_unit(&self.bounds.clamp(x))
    }

    /// Maps unit-cube coordinates back to a raw design point.
    pub fn from_unit(&self, u: &[f64]) -> Vec<f64> {
        self.bounds.from_unit(u)
    }

    /// Returns a GP fitted to `data`, retraining hyperparameters when the
    /// dataset has grown past the schedule, or incrementally extending the
    /// cached model otherwise.
    ///
    /// # Errors
    ///
    /// Propagates [`easybo_gp::GpError`] on numerically hopeless data
    /// (should not occur with finite objectives).
    pub fn surrogate(&mut self, data: &Dataset) -> crate::Result<&Gp> {
        let n = data.len();
        assert!(n > 0, "surrogate requested with no observations");
        let need_retrain = self.gp.is_none()
            || n < self.fitted_n // dataset restarted
            || n as f64 >= self.last_trained_n as f64 * self.config.retrain_growth;

        if need_retrain {
            let active = self.active_set(data);
            let xs: Vec<Vec<f64>> = active
                .iter()
                .map(|&i| self.to_unit(&data.xs()[i]))
                .collect();
            // Winsorize catastrophic outliers from the low side (heavily
            // penalized infeasible designs can sit orders of magnitude below
            // the bulk and would wreck the GP's standardization and
            // length-scale fit). Tukey fence: q25 - 3*(q75 - q25).
            self.fence = lower_fence(data.ys());
            let fence = self.fence;
            let ys: Vec<f64> = active.iter().map(|&i| data.ys()[i].max(fence)).collect();
            let restarts = if self.warm.is_some() {
                1
            } else {
                self.config.first_restarts
            };
            let gp_config = GpConfig {
                kernel: self.config.kernel,
                train: TrainConfig {
                    restarts,
                    max_iters: self.config.train_iters,
                    seed: self.config.seed ^ n as u64,
                    max_points: self.config.train_max_points,
                    warm_start: self.warm.clone(),
                    parallelism: self.config.parallelism,
                    ..Default::default()
                },
                ..Default::default()
            };
            // A hyperparameter retrain invalidates the cached factor: the
            // replacement model comes out of the blocked full
            // factorization inside `fit_traced`.
            let gp = Gp::fit_traced(xs, ys, gp_config, &self.telemetry)?;
            let mut warm = gp.theta().to_vec();
            warm.push(gp.log_noise());
            self.warm = Some(warm);
            self.last_trained_n = n;
            self.fitted_n = n;
            self.gp = Some(IncrementalGp::with_telemetry(gp, self.telemetry.clone()));
        } else if n > self.fitted_n {
            // Incrementally absorb the new observations with fixed
            // hyperparameters, extending the cached factor in place (O(n²)
            // per point). The GP is taken out first so that an append
            // error drops it and the next call refits from scratch.
            let mut inc = self.gp.take().expect("cached GP exists");
            for i in self.fitted_n..n {
                let u = self.to_unit(&data.xs()[i]);
                inc.append_observation(u, data.ys()[i].max(self.fence))?;
            }
            self.fitted_n = n;
            self.gp = Some(inc);
        }
        Ok(self.gp.as_ref().expect("GP fitted above").gp())
    }

    /// Like [`SurrogateManager::surrogate`], but hands back the mutable
    /// [`IncrementalGp`] wrapper so the caller can push/pop pseudo-points
    /// on the cached factor stack (the penalization inner loop).
    ///
    /// # Errors
    ///
    /// Same conditions as [`SurrogateManager::surrogate`].
    pub fn incremental(&mut self, data: &Dataset) -> crate::Result<&mut IncrementalGp> {
        Ok(self.incremental_in(data)?.0)
    }

    /// [`SurrogateManager::incremental`] lent together with the design
    /// space, so a caller can map points while it holds the model.
    pub(crate) fn incremental_in(
        &mut self,
        data: &Dataset,
    ) -> crate::Result<(&mut IncrementalGp, &Bounds)> {
        self.surrogate(data)?;
        Ok((self.gp.as_mut().expect("GP fitted above"), &self.bounds))
    }

    /// Number of observations in the cached fit (0 before the first fit).
    pub fn fitted_n(&self) -> usize {
        self.fitted_n
    }

    /// Number of observations at the last hyperparameter training.
    pub fn last_trained_n(&self) -> usize {
        self.last_trained_n
    }

    /// Current lower winsorization fence applied to targets.
    pub fn fence(&self) -> f64 {
        self.fence
    }

    /// Captures the manager's mutable state — the fit/retrain schedule
    /// bookkeeping, warm-start vector, winsorization fence, and the
    /// cached GP itself — for checkpointing. Configuration (bounds,
    /// [`SurrogateConfig`]) is *not* captured: it is re-derived from the
    /// resuming optimizer and guarded by the snapshot's config
    /// fingerprint.
    pub fn state(&self) -> SurrogateState {
        SurrogateState {
            fitted_n: self.fitted_n,
            last_trained_n: self.last_trained_n,
            warm: self.warm.clone(),
            fence: self.fence,
            gp: self.gp.as_ref().map(|inc| {
                // Snapshots fire between selections; the pseudo-point
                // stack is strictly selection-scoped and must be empty.
                debug_assert_eq!(
                    inc.n_pseudo(),
                    0,
                    "snapshot with live pseudo-points on the factor stack"
                );
                inc.gp().state()
            }),
        }
    }

    /// Restores state captured by [`SurrogateManager::state`]. The GP's
    /// factor is replayed bit for bit (see [`easybo_gp::GpState`]), so
    /// subsequent predictions and incremental extensions are
    /// bit-identical to the uninterrupted run.
    ///
    /// # Errors
    ///
    /// Returns [`easybo_gp::GpError::InconsistentData`] when the captured
    /// GP's input dimension differs from this manager's bounds, and
    /// propagates [`easybo_gp::GpError`] when the captured GP state is
    /// internally inconsistent. On error the manager is unchanged.
    pub fn restore(&mut self, state: SurrogateState) -> crate::Result<()> {
        if let Some(s) = state.gp.as_ref().filter(|s| s.dim != self.bounds.dim()) {
            return Err(easybo_gp::GpError::InconsistentData {
                detail: format!(
                    "restored GP has input dimension {}, the bounds have {}",
                    s.dim,
                    self.bounds.dim()
                ),
            }
            .into());
        }
        self.gp = match state.gp {
            Some(s) => Some(IncrementalGp::with_telemetry(
                Gp::from_state(s)?,
                self.telemetry.clone(),
            )),
            None => None,
        };
        self.fitted_n = state.fitted_n;
        self.last_trained_n = state.last_trained_n;
        self.warm = state.warm;
        self.fence = state.fence;
        Ok(())
    }

    /// Indices of the observations the GP is built on: everything while
    /// `n <= max_gp_points`; beyond that, the best quarter by objective
    /// value plus the most recent remainder.
    fn active_set(&self, data: &Dataset) -> Vec<usize> {
        let n = data.len();
        let cap = self.config.max_gp_points.max(8);
        if n <= cap {
            return (0..n).collect();
        }
        let n_best = cap / 4;
        let mut by_value: Vec<usize> = (0..n).collect();
        by_value.sort_by(|&a, &b| data.ys()[b].total_cmp(&data.ys()[a]));
        let mut chosen: Vec<bool> = vec![false; n];
        for &i in by_value.iter().take(n_best) {
            chosen[i] = true;
        }
        let mut remaining = cap - n_best;
        for i in (0..n).rev() {
            if remaining == 0 {
                break;
            }
            if !chosen[i] {
                chosen[i] = true;
                remaining -= 1;
            }
        }
        (0..n).filter(|&i| chosen[i]).collect()
    }
}

/// Plain-data capture of a [`SurrogateManager`]'s mutable state, produced
/// by [`SurrogateManager::state`] and consumed by
/// [`SurrogateManager::restore`].
#[derive(Debug, Clone, PartialEq)]
pub struct SurrogateState {
    /// Observations absorbed into the cached fit.
    pub fitted_n: usize,
    /// Observations at the last hyperparameter training.
    pub last_trained_n: usize,
    /// Warm-start hyperparameter vector `[θ…, log σ_n²]`.
    pub warm: Option<Vec<f64>>,
    /// Lower winsorization fence applied to targets.
    pub fence: f64,
    /// The cached GP, from which its factor is replayed.
    pub gp: Option<GpState>,
}

/// Tukey-style lower fence `q25 - 3*(q75 - q25)` (no clipping when the
/// spread is degenerate or the sample is tiny).
fn lower_fence(ys: &[f64]) -> f64 {
    if ys.len() < 8 {
        return f64::NEG_INFINITY;
    }
    let mut sorted: Vec<f64> = ys.iter().copied().filter(|v| v.is_finite()).collect();
    if sorted.len() < 8 {
        return f64::NEG_INFINITY;
    }
    sorted.sort_by(|a, b| a.total_cmp(b));
    let q = |p: f64| sorted[((sorted.len() - 1) as f64 * p).round() as usize];
    let (q25, q75) = (q(0.25), q(0.75));
    let iqr = q75 - q25;
    if iqr <= 0.0 {
        return f64::NEG_INFINITY;
    }
    q25 - 3.0 * iqr
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dataset(n: usize) -> Dataset {
        let mut d = Dataset::new();
        for i in 0..n {
            let x = i as f64 / n.max(1) as f64;
            d.push(vec![x * 10.0], (x * 6.0).sin());
        }
        d
    }

    fn manager() -> SurrogateManager {
        SurrogateManager::new(
            Bounds::new(vec![(0.0, 10.0)]).unwrap(),
            SurrogateConfig::default(),
        )
    }

    #[test]
    fn first_call_trains() {
        let mut sm = manager();
        assert_eq!(sm.fitted_n(), 0);
        let d = dataset(10);
        let gp = sm.surrogate(&d).unwrap();
        assert_eq!(gp.n_train(), 10);
        assert_eq!(sm.fitted_n(), 10);
        assert_eq!(sm.last_trained_n(), 10);
    }

    #[test]
    fn small_growth_extends_incrementally() {
        let mut sm = manager();
        let mut d = dataset(10);
        sm.surrogate(&d).unwrap();
        d.push(vec![9.5], 0.1);
        let gp = sm.surrogate(&d).unwrap();
        assert_eq!(gp.n_train(), 11);
        // No retraining happened: schedule point unchanged.
        assert_eq!(sm.last_trained_n(), 10);
    }

    #[test]
    fn large_growth_triggers_retraining() {
        let mut sm = manager();
        let d10 = dataset(10);
        sm.surrogate(&d10).unwrap();
        let d14 = dataset(14); // 40% growth > 25% threshold
        sm.surrogate(&d14).unwrap();
        assert_eq!(sm.last_trained_n(), 14);
    }

    #[test]
    fn unit_mapping_round_trip() {
        let sm = manager();
        let u = sm.to_unit(&[2.5]);
        assert_eq!(u, vec![0.25]);
        assert_eq!(sm.from_unit(&u), vec![2.5]);
        // Out-of-bounds raw points are clamped into the cube.
        assert_eq!(sm.to_unit(&[99.0]), vec![1.0]);
    }

    #[test]
    fn predictions_are_sane_after_incremental_updates() {
        let mut sm = manager();
        let mut d = dataset(12);
        sm.surrogate(&d).unwrap();
        // Add two points without hitting the retrain threshold.
        d.push(vec![3.33], (2.0f64).sin());
        d.push(vec![6.66], (4.0f64).sin());
        let query = sm.to_unit(&[3.33]);
        let gp = sm.surrogate(&d).unwrap();
        let pred = gp.predict(&query);
        assert!((pred.mean - (2.0f64).sin()).abs() < 0.3);
    }

    #[test]
    fn winsorization_clips_catastrophic_outliers() {
        let mut sm = manager();
        let mut d = Dataset::new();
        // Bulk in [0, 1], one catastrophic penalty point at -5000.
        for i in 0..15 {
            d.push(vec![i as f64 / 2.0], (i as f64 * 0.7).sin());
        }
        d.push(vec![9.9], -5000.0);
        let query = sm.to_unit(&[9.9]);
        // The GP's picture of the outlier point is the clipped value, so
        // predictions near it stay on the bulk's scale.
        let pred = sm.surrogate(&d).unwrap().predict(&query);
        assert!(sm.fence().is_finite());
        assert!(sm.fence() > -100.0, "fence {}", sm.fence());
        assert!(pred.mean > -100.0, "prediction dragged to {}", pred.mean);
    }

    #[test]
    fn fence_infinite_for_clean_small_data() {
        let mut sm = manager();
        let d = dataset(6);
        sm.surrogate(&d).unwrap();
        assert_eq!(sm.fence(), f64::NEG_INFINITY);
    }

    #[test]
    fn state_round_trip_continues_bit_identically() {
        let mut sm = manager();
        let mut d = dataset(12);
        sm.surrogate(&d).unwrap();
        let state = sm.state();

        let mut restored = manager();
        restored.restore(state).unwrap();
        assert_eq!(restored.fitted_n(), sm.fitted_n());
        assert_eq!(restored.last_trained_n(), sm.last_trained_n());

        // Extend both managers past the checkpoint: the incremental path
        // must produce bitwise-equal predictions.
        d.push(vec![7.7], 0.3);
        let q = sm.to_unit(&[4.2]);
        let p1 = sm.surrogate(&d).unwrap().predict(&q);
        let p2 = restored.surrogate(&d).unwrap().predict(&q);
        assert_eq!(p1.mean.to_bits(), p2.mean.to_bits());
        assert_eq!(p1.variance.to_bits(), p2.variance.to_bits());
    }

    #[test]
    fn unfitted_state_restores_to_unfitted() {
        let sm = manager();
        let state = sm.state();
        assert!(state.gp.is_none());
        let mut restored = manager();
        restored.restore(state).unwrap();
        assert_eq!(restored.fitted_n(), 0);
    }

    #[test]
    fn restore_rejects_a_gp_of_another_dimension() {
        let mut sm3 =
            SurrogateManager::new(Bounds::unit_cube(3).unwrap(), SurrogateConfig::default());
        let mut d = Dataset::new();
        for i in 0..10 {
            let t = i as f64 / 9.0;
            d.push(vec![t, 1.0 - t, (3.0 * t).fract()], (4.0 * t).sin());
        }
        sm3.surrogate(&d).unwrap();

        let mut sm = manager();
        let before = sm.state();
        let err = sm.restore(sm3.state()).unwrap_err().to_string();
        assert!(
            err.contains("dimension 3") && err.contains("have 1"),
            "{err}"
        );
        assert_eq!(
            sm.state(),
            before,
            "a rejected restore leaves the manager as it was"
        );
    }

    #[test]
    #[should_panic(expected = "no observations")]
    fn empty_dataset_panics() {
        let mut sm = manager();
        let _ = sm.surrogate(&Dataset::new());
    }
}
