//! The asynchronous EasyBO policy — the paper's main contribution
//! (Algorithm 1).
//!
//! Whenever a worker becomes idle, the policy:
//!
//! 1. refits/extends the surrogate with all completed observations,
//! 2. hallucinates the still-running ("busy") query points with their
//!    predictive means (`penalize = true`; Eq. 9 / §III-C),
//! 3. draws a fresh exploration weight `w = κ/(κ+1)`, `κ ~ U[0, λ]`
//!    (Eq. 8 / §III-B), and
//! 4. maximizes `α(x, w) = (1-w)·μ(x) + w·σ̂(x)` for the idle worker.
//!
//! `penalize = false` gives the EasyBO-A ablation: same asynchronous
//! scheduling and randomized weights, but the busy points are invisible,
//! so concurrent workers can pile onto the same region.

use easybo_exec::{AsyncPolicy, BusyPoint, Dataset};
use easybo_opt::Bounds;
use easybo_telemetry::Telemetry;

use crate::acquisition::{Adjustment, Moments, Score};
use crate::policies::penalization::PenalizationMode;
use crate::policies::{AcqOptConfig, PolicyCore};
use crate::surrogate::SurrogateConfig;
use crate::weight::{sample_kappa_weight, DEFAULT_LAMBDA};

/// Asynchronous EasyBO policy (full EasyBO with `penalize = true`,
/// EasyBO-A ablation with `penalize = false`).
///
/// # Example
///
/// ```
/// use easybo::policies::EasyBoAsyncPolicy;
/// use easybo_exec::{CostedFunction, SimTimeModel, VirtualExecutor};
/// use easybo_opt::{sampling, Bounds};
/// use rand::SeedableRng;
///
/// # fn main() -> Result<(), easybo_opt::OptError> {
/// let bounds = Bounds::new(vec![(-2.0, 2.0)])?;
/// let time = SimTimeModel::new(&bounds, 20.0, 0.3, 1);
/// let bb = CostedFunction::new("bump", bounds.clone(), time, |x: &[f64]| {
///     -(x[0] - 1.1) * (x[0] - 1.1)
/// });
/// let mut rng = rand::rngs::StdRng::seed_from_u64(2);
/// let init = sampling::latin_hypercube(&bounds, 6, &mut rng);
/// let mut policy = EasyBoAsyncPolicy::new(bounds, true, 7);
/// let r = VirtualExecutor::new(4).run_async(&bb, &init, 30, &mut policy);
/// assert!(r.best_value() > -0.01);
/// # Ok(())
/// # }
/// ```
pub struct EasyBoAsyncPolicy {
    core: PolicyCore,
    penalize: bool,
    mode: PenalizationMode,
    lambda: f64,
}

impl EasyBoAsyncPolicy {
    /// Creates the asynchronous policy with the paper's λ = 6.
    pub fn new(bounds: Bounds, penalize: bool, seed: u64) -> Self {
        let dim = bounds.dim();
        Self::with_configs(
            bounds,
            penalize,
            DEFAULT_LAMBDA,
            seed,
            SurrogateConfig::default(),
            AcqOptConfig::for_dim(dim),
        )
    }

    /// Full-configuration constructor.
    pub fn with_configs(
        bounds: Bounds,
        penalize: bool,
        lambda: f64,
        seed: u64,
        surrogate: SurrogateConfig,
        acq_opt: AcqOptConfig,
    ) -> Self {
        EasyBoAsyncPolicy {
            core: PolicyCore::new(bounds, seed, 0xea5b_0a57, surrogate, acq_opt),
            penalize,
            mode: PenalizationMode::default(),
            lambda,
        }
    }

    /// Attaches a telemetry handle: each selection emits `AcqOptimized`
    /// (and `PseudoPointAdded` when penalization hallucinates busy
    /// points), GP retrainings emit `GpRefit`, and a failed surrogate fit
    /// bumps `surrogate_fallbacks`. Events are stamped with the run clock
    /// the executor advances on the same handle.
    pub fn set_telemetry(&mut self, telemetry: Telemetry) -> &mut Self {
        self.core.set_telemetry(telemetry);
        self
    }

    /// Overrides how busy points are hallucinated (default: predictive
    /// mean, the paper's scheme). See [`PenalizationMode`] for the
    /// constant-liar ablations.
    pub fn penalization_mode(&mut self, mode: PenalizationMode) -> &mut Self {
        self.mode = mode;
        self
    }

    /// Whether busy-point penalization is active.
    pub fn penalizes(&self) -> bool {
        self.penalize
    }
}

impl AsyncPolicy for EasyBoAsyncPolicy {
    fn select_next(&mut self, data: &Dataset, busy: &[BusyPoint]) -> Vec<f64> {
        // Fit before the `w` draw: a failed fit spends the RNG on the
        // uniform fallback instead.
        let Some(mut fit) = self.core.fit(data) else {
            return self.core.uniform();
        };
        let w = sample_kappa_weight(self.lambda, fit.rng);
        // Hallucinate the busy points (Algorithm 1, lines 5-6). A
        // numerically degenerate push (duplicated busy points) falls back
        // to the unpenalized acquisition.
        let pushed = self.penalize && fit.hallucinate(self.mode, busy, data);
        let moments = if pushed && self.mode == PenalizationMode::HallucinateMean {
            // Eq. 9: μ from the base-alpha prefix, σ̂ from the augmented
            // factor.
            Moments::Penalized {
                raw_round_trip: true,
            }
        } else {
            // Both moments from the live model: the unaugmented one when
            // nothing was pushed, the augmented one under a constant-liar
            // mode (which *deliberately* biases the mean near busy points).
            Moments::Posterior
        };
        let u = fit.maximize(Score::Weighted(w), moments, Adjustment::None);
        // Rank-1 downdates restore the base factor exactly; the next
        // selection starts from a clean stack.
        fit.gp.pop_all_pseudo();
        fit.to_raw(&u)
    }

    fn snapshot_state(&self) -> Option<Vec<u8>> {
        let core = self.core.snapshot();
        Some(crate::persistence::encode_policy_state(
            core.rng,
            core.fallbacks,
            &core.surrogate,
        ))
    }

    fn restore_state(&mut self, state: &[u8]) -> Result<(), String> {
        let blob = crate::persistence::decode_policy_state(state).map_err(|e| e.to_string())?;
        self.core.restore(blob)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use easybo_exec::BlackBox as _;
    use easybo_exec::{CostedFunction, SimTimeModel, VirtualExecutor};
    use easybo_opt::sampling;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn bb_2d() -> CostedFunction<impl Fn(&[f64]) -> f64 + Send + Sync> {
        let bounds = Bounds::new(vec![(-2.0, 2.0), (-2.0, 2.0)]).unwrap();
        let time = SimTimeModel::new(&bounds, 10.0, 0.3, 0);
        CostedFunction::new("peak", bounds, time, |x: &[f64]| {
            (-((x[0] - 0.5).powi(2) + (x[1] + 0.5).powi(2))).exp()
        })
    }

    fn init(bounds: &Bounds, n: usize, seed: u64) -> Vec<Vec<f64>> {
        let mut rng = StdRng::seed_from_u64(seed);
        sampling::latin_hypercube(bounds, n, &mut rng)
    }

    #[test]
    fn full_easybo_reaches_peak() {
        let bb = bb_2d();
        let bounds = bb.bounds().clone();
        let mut policy = EasyBoAsyncPolicy::new(bounds.clone(), true, 1);
        let r = VirtualExecutor::new(5).run_async(&bb, &init(&bounds, 10, 1), 45, &mut policy);
        assert!(r.best_value() > 0.9, "EasyBO best {}", r.best_value());
        assert_eq!(policy.core.fallbacks(), 0);
        assert!(policy.penalizes());
    }

    #[test]
    fn easybo_a_reaches_peak() {
        let bb = bb_2d();
        let bounds = bb.bounds().clone();
        let mut policy = EasyBoAsyncPolicy::new(bounds.clone(), false, 2);
        let r = VirtualExecutor::new(5).run_async(&bb, &init(&bounds, 10, 2), 45, &mut policy);
        assert!(r.best_value() > 0.85, "EasyBO-A best {}", r.best_value());
    }

    #[test]
    fn async_total_time_beats_sync_for_same_budget() {
        // Same black box, same eval budget, same batch width: the async
        // driver must finish sooner on heterogeneous costs.
        let bb = bb_2d();
        let bounds = bb.bounds().clone();
        let exec = VirtualExecutor::new(5);
        let mut async_policy = EasyBoAsyncPolicy::new(bounds.clone(), true, 3);
        let r_async = exec.run_async(&bb, &init(&bounds, 10, 3), 50, &mut async_policy);
        let mut sync_policy = crate::policies::EasyBoSyncPolicy::new(bounds.clone(), true, 3);
        let r_sync = exec.run_sync(&bb, &init(&bounds, 10, 3), 50, &mut sync_policy);
        assert!(
            r_async.total_time() < r_sync.total_time(),
            "async {} vs sync {}",
            r_async.total_time(),
            r_sync.total_time()
        );
    }

    #[test]
    fn penalization_diversifies_concurrent_queries() {
        // Sparse data with a large unexplored gap: the plain policy's
        // highest-uncertainty point sits in the gap center, right where a
        // busy worker already is. Penalization must push the next query
        // away from the busy point.
        let bounds = Bounds::new(vec![(0.0, 1.0)]).unwrap();
        let mut data = Dataset::new();
        for x in [0.0, 0.05, 0.1, 0.9, 0.95, 1.0] {
            data.push(vec![x], -(x - 0.5f64).powi(2));
        }
        let busy = vec![BusyPoint {
            x: vec![0.5],
            task: 0,
            worker: 0,
        }];
        let mut dist_pen = 0.0;
        let mut dist_plain = 0.0;
        let trials = 10;
        for t in 0..trials {
            let mut pen = EasyBoAsyncPolicy::new(bounds.clone(), true, 50 + t);
            let mut plain = EasyBoAsyncPolicy::new(bounds.clone(), false, 50 + t);
            dist_pen += (pen.select_next(&data, &busy)[0] - 0.5).abs();
            dist_plain += (plain.select_next(&data, &busy)[0] - 0.5).abs();
        }
        assert!(
            dist_pen > dist_plain,
            "penalized mean distance {dist_pen} <= plain {dist_plain}"
        );
    }

    #[test]
    fn handles_duplicate_busy_points_gracefully() {
        let bounds = Bounds::new(vec![(0.0, 1.0)]).unwrap();
        let mut data = Dataset::new();
        for i in 0..6 {
            data.push(vec![i as f64 / 5.0], (i as f64).sin());
        }
        let busy: Vec<BusyPoint> = (0..4)
            .map(|w| BusyPoint {
                x: vec![0.5],
                task: w,
                worker: w,
            })
            .collect();
        let mut policy = EasyBoAsyncPolicy::new(bounds.clone(), true, 9);
        let x = policy.select_next(&data, &busy);
        assert!(bounds.contains(&x));
    }

    #[test]
    fn snapshot_restore_continues_decision_stream_bitwise() {
        let bounds = Bounds::new(vec![(0.0, 1.0)]).unwrap();
        let mut data = Dataset::new();
        for i in 0..9 {
            data.push(vec![i as f64 / 8.0], (i as f64 * 0.9).sin());
        }
        let mut policy = EasyBoAsyncPolicy::new(bounds.clone(), true, 11);
        let _ = policy.select_next(&data, &[]); // advance RNG, fit the GP
        let blob = policy.snapshot_state().expect("policy supports capture");

        let mut restored = EasyBoAsyncPolicy::new(bounds, true, 999); // wrong seed on purpose
        restored.restore_state(&blob).unwrap();

        // Both continue with more data (exercises the incremental GP path)
        // and a busy point (exercises penalization) — selections must be
        // bit-identical.
        data.push(vec![0.55], 0.21);
        let busy = vec![BusyPoint {
            x: vec![0.3],
            task: 9,
            worker: 1,
        }];
        for _ in 0..3 {
            let a = policy.select_next(&data, &busy);
            let b = restored.select_next(&data, &busy);
            assert_eq!(a.len(), b.len());
            for (va, vb) in a.iter().zip(&b) {
                assert_eq!(va.to_bits(), vb.to_bits());
            }
        }
    }

    #[test]
    fn restore_rejects_garbage() {
        let bounds = Bounds::new(vec![(0.0, 1.0)]).unwrap();
        let mut policy = EasyBoAsyncPolicy::new(bounds, true, 0);
        assert!(policy.restore_state(&[1, 2, 3]).is_err());
    }

    #[test]
    fn selections_stay_in_bounds() {
        let bb = bb_2d();
        let bounds = bb.bounds().clone();
        let mut policy = EasyBoAsyncPolicy::new(bounds.clone(), true, 6);
        let r = VirtualExecutor::new(3).run_async(&bb, &init(&bounds, 8, 6), 25, &mut policy);
        for x in r.data.xs() {
            assert!(bounds.contains(x), "{x:?}");
        }
    }
}
