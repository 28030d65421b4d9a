//! Pessimistic asynchronous sampling (Volk et al. 2024, *"Pessimistic
//! asynchronous sampling in high-cost Bayesian optimization"*).
//!
//! Like EasyBO, the policy hallucinates the in-flight ("busy") query
//! points before choosing the next one — but instead of the GP-mean lie
//! (Eq. 9 of the EasyBO paper) it lies **pessimistically**: every busy
//! point is assumed to come back with the *worst observed value so far*.
//! Under maximization that is the constant-liar-min scheme. The
//! pessimistic lie drags the posterior mean down around busy points, so
//! the acquisition actively avoids re-querying near in-flight work even
//! when the exploration weight is small.
//!
//! Volk et al. pair the pessimistic hallucination with a fixed UCB-style
//! acquisition rather than EasyBO's randomized weight; here the weight is
//! the deterministic `w = κ/(1+κ)` with κ configurable (default 2, i.e.
//! w = 2/3 — exploration-leaning, matching the paper's preference for
//! pessimism + exploration). No RNG draw happens for the weight, so the
//! per-selection RNG stream is consumed only by the acquisition
//! maximizer.

use easybo_exec::{AsyncPolicy, BusyPoint, Dataset};
use easybo_opt::Bounds;

use crate::acquisition::{Adjustment, Moments, Score};
use crate::persistence::PESSIMISTIC_BLOB;
use crate::policies::penalization::PenalizationMode;
use crate::policies::{AcqOptConfig, PolicyCore};
use crate::surrogate::SurrogateConfig;

/// Default κ for the fixed exploration weight `w = κ/(1+κ)`.
pub const DEFAULT_PESSIMISTIC_KAPPA: f64 = 2.0;

/// Pessimistic asynchronous policy: constant-liar-min hallucination of
/// busy points with a fixed exploration weight.
///
/// # Example
///
/// ```
/// use easybo::policies::PessimisticAsyncPolicy;
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
/// let mut policy = PessimisticAsyncPolicy::new(bounds, 7);
/// let r = VirtualExecutor::new(4).run_async(&bb, &init, 30, &mut policy);
/// assert!(r.best_value() > -0.05);
/// # Ok(())
/// # }
/// ```
pub struct PessimisticAsyncPolicy {
    core: PolicyCore,
    w: f64,
    lies: u64,
}

impl PessimisticAsyncPolicy {
    /// Creates the policy with the default κ = 2 (w = 2/3).
    pub fn new(bounds: Bounds, seed: u64) -> Self {
        let dim = bounds.dim();
        Self::with_configs(
            bounds,
            DEFAULT_PESSIMISTIC_KAPPA,
            seed,
            SurrogateConfig::default(),
            AcqOptConfig::for_dim(dim),
        )
    }

    /// Full-configuration constructor. `kappa` must be non-negative; the
    /// exploration weight is the fixed `w = κ/(1+κ)`.
    pub fn with_configs(
        bounds: Bounds,
        kappa: f64,
        seed: u64,
        surrogate: SurrogateConfig,
        acq_opt: AcqOptConfig,
    ) -> Self {
        let kappa = kappa.max(0.0);
        PessimisticAsyncPolicy {
            core: PolicyCore::new(bounds, seed, 0x9e55_1715, surrogate, acq_opt),
            w: kappa / (1.0 + kappa),
            lies: 0,
        }
    }

    /// The fixed exploration weight `w = κ/(1+κ)`.
    pub fn weight(&self) -> f64 {
        self.w
    }

    /// Total number of pessimistic lies hallucinated so far (one per busy
    /// point per selection).
    pub fn lies(&self) -> u64 {
        self.lies
    }
}

impl AsyncPolicy for PessimisticAsyncPolicy {
    fn select_next(&mut self, data: &Dataset, busy: &[BusyPoint]) -> Vec<f64> {
        let Some(mut fit) = self.core.fit(data) else {
            return self.core.uniform();
        };
        if fit.hallucinate(PenalizationMode::ConstantLiarMin, busy, data) {
            self.lies += busy.len() as u64;
        }
        // The pessimistic lie deliberately biases the mean near busy
        // points, so both moments come from the augmented model.
        let u = fit.maximize(
            Score::Weighted(self.w),
            Moments::Posterior,
            Adjustment::None,
        );
        fit.gp.pop_all_pseudo();
        fit.to_raw(&u)
    }

    fn snapshot_state(&self) -> Option<Vec<u8>> {
        Some(PESSIMISTIC_BLOB.encode([self.lies], &self.core.snapshot()))
    }

    fn restore_state(&mut self, state: &[u8]) -> Result<(), String> {
        let ([lies], core) = PESSIMISTIC_BLOB.decode(state).map_err(|e| e.to_string())?;
        self.core.restore(core)?;
        self.lies = lies;
        Ok(())
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
    fn pessimistic_reaches_peak() {
        let bb = bb_2d();
        let bounds = bb.bounds().clone();
        let mut policy = PessimisticAsyncPolicy::new(bounds.clone(), 1);
        let r = VirtualExecutor::new(5).run_async(&bb, &init(&bounds, 10, 1), 45, &mut policy);
        assert!(r.best_value() > 0.85, "pessimistic best {}", r.best_value());
        assert_eq!(policy.core.fallbacks(), 0);
        assert!(policy.lies() > 0, "parallel run must hallucinate lies");
    }

    #[test]
    fn pessimism_pushes_queries_away_from_busy_points() {
        // Sparse data with an unexplored gap centered at the busy point:
        // the pessimistic lie must repel the next query from it.
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
        let mut with_busy = 0.0;
        let mut without = 0.0;
        let trials = 10;
        for t in 0..trials {
            let mut a = PessimisticAsyncPolicy::new(bounds.clone(), 70 + t);
            let mut b = PessimisticAsyncPolicy::new(bounds.clone(), 70 + t);
            with_busy += (a.select_next(&data, &busy)[0] - 0.5).abs();
            without += (b.select_next(&data, &[])[0] - 0.5).abs();
        }
        assert!(
            with_busy > without,
            "pessimistic mean distance {with_busy} <= unpenalized {without}"
        );
    }

    #[test]
    fn snapshot_restore_continues_decision_stream_bitwise() {
        let bounds = Bounds::new(vec![(0.0, 1.0)]).unwrap();
        let mut data = Dataset::new();
        for i in 0..9 {
            data.push(vec![i as f64 / 8.0], (i as f64 * 0.9).sin());
        }
        let mut policy = PessimisticAsyncPolicy::new(bounds.clone(), 11);
        let _ = policy.select_next(&data, &[]);
        let blob = policy.snapshot_state().expect("policy supports capture");

        let mut restored = PessimisticAsyncPolicy::new(bounds, 999); // wrong seed on purpose
        restored.restore_state(&blob).unwrap();
        assert_eq!(restored.lies(), policy.lies());

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
    fn restore_rejects_garbage_and_foreign_blobs() {
        let bounds = Bounds::new(vec![(0.0, 1.0)]).unwrap();
        let mut policy = PessimisticAsyncPolicy::new(bounds.clone(), 0);
        assert!(policy.restore_state(&[1, 2, 3]).is_err());
        let mut eps = crate::policies::EpsGreedyPolicy::new(bounds, 0);
        let mut data = Dataset::new();
        for i in 0..6 {
            data.push(vec![i as f64 / 5.0], (i as f64).cos());
        }
        let _ = eps.select_next(&data, &[]);
        let foreign = eps.snapshot_state().unwrap();
        let err = policy.restore_state(&foreign).unwrap_err();
        assert!(err.contains("pessimistic"), "{err}");
    }

    #[test]
    fn selections_stay_in_bounds() {
        let bb = bb_2d();
        let bounds = bb.bounds().clone();
        let mut policy = PessimisticAsyncPolicy::new(bounds.clone(), 6);
        let r = VirtualExecutor::new(3).run_async(&bb, &init(&bounds, 8, 6), 25, &mut policy);
        for x in r.data.xs() {
            assert!(bounds.contains(x), "{x:?}");
        }
    }
}
