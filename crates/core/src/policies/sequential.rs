//! Sequential (one-point-at-a-time) Bayesian optimization policies: the
//! paper's EI, LCB and sequential-EasyBO baselines.

use easybo_exec::{AsyncPolicy, BusyPoint, Dataset};
use easybo_opt::Bounds;

use crate::acquisition::{Adjustment, Moments, Score};
use crate::persistence::SEQUENTIAL_BLOB;
use crate::policies::{AcqOptConfig, PolicyCore};
use crate::surrogate::SurrogateConfig;
use crate::weight::sample_kappa_weight;

/// Which sequential acquisition to use.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SequentialAcquisition {
    /// Expected improvement (Mockus et al.).
    Ei,
    /// GP-UCB, the paper's "LCB" optimistic strategy.
    Ucb {
        /// Exploration multiplier κ.
        kappa: f64,
    },
    /// EasyBO's randomized-weight acquisition (Eq. 8) in sequential mode.
    EasyBo {
        /// κ sampling range `[0, λ]` (paper: 6.0).
        lambda: f64,
    },
}

/// Sequential BO policy, for a 1-worker executor such as
/// `VirtualExecutor::new(1)`. Its state snapshots as a `SEQB` blob.
///
/// # Example
///
/// ```
/// use easybo::policies::{SequentialAcquisition, SequentialBoPolicy};
/// use easybo_exec::{CostedFunction, SimTimeModel, VirtualExecutor};
/// use easybo_opt::{sampling, Bounds};
/// use rand::SeedableRng;
///
/// # fn main() -> Result<(), easybo_opt::OptError> {
/// let bounds = Bounds::new(vec![(-2.0, 2.0)])?;
/// let time = SimTimeModel::new(&bounds, 10.0, 0.1, 0);
/// let bb = CostedFunction::new("parabola", bounds.clone(), time, |x: &[f64]| {
///     -(x[0] - 0.7) * (x[0] - 0.7)
/// });
/// let mut rng = rand::rngs::StdRng::seed_from_u64(1);
/// let init = sampling::latin_hypercube(&bounds, 6, &mut rng);
/// let mut policy = SequentialBoPolicy::new(bounds, SequentialAcquisition::Ei, 42);
/// let result = VirtualExecutor::new(1).run_async(&bb, &init, 25, &mut policy);
/// assert!(result.best_value() > -0.01);
/// # Ok(())
/// # }
/// ```
pub struct SequentialBoPolicy {
    core: PolicyCore,
    acquisition: SequentialAcquisition,
}

impl SequentialBoPolicy {
    /// Creates a sequential policy with default surrogate settings.
    pub fn new(bounds: Bounds, acquisition: SequentialAcquisition, seed: u64) -> Self {
        let dim = bounds.dim();
        Self::with_configs(
            bounds,
            acquisition,
            seed,
            SurrogateConfig::default(),
            AcqOptConfig::for_dim(dim),
        )
    }

    /// Creates a sequential policy with explicit surrogate and acquisition-
    /// optimizer settings.
    pub fn with_configs(
        bounds: Bounds,
        acquisition: SequentialAcquisition,
        seed: u64,
        surrogate: SurrogateConfig,
        acq_opt: AcqOptConfig,
    ) -> Self {
        SequentialBoPolicy {
            core: PolicyCore::new(bounds, seed, 0xa5a5_1234, surrogate, acq_opt),
            acquisition,
        }
    }
}

impl AsyncPolicy for SequentialBoPolicy {
    fn select_next(&mut self, data: &Dataset, _busy: &[BusyPoint]) -> Vec<f64> {
        let Some(mut fit) = self.core.fit(data) else {
            return self.core.uniform();
        };
        let score = match self.acquisition {
            SequentialAcquisition::Ei => {
                Score::Ei(fit.gp.gp().scaler().transform(data.best_value()))
            }
            SequentialAcquisition::Ucb { kappa } => Score::Ucb(kappa),
            SequentialAcquisition::EasyBo { lambda } => {
                Score::Weighted(sample_kappa_weight(lambda, fit.rng))
            }
        };
        let u = fit.maximize(score, Moments::Posterior, Adjustment::None);
        fit.to_raw(&u)
    }

    fn snapshot_state(&self) -> Option<Vec<u8>> {
        Some(SEQUENTIAL_BLOB.encode([], &self.core.snapshot()))
    }

    fn restore_state(&mut self, state: &[u8]) -> Result<(), String> {
        let ([], blob) = SEQUENTIAL_BLOB.decode(state).map_err(|e| e.to_string())?;
        self.core.restore(blob)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use easybo_exec::{CostedFunction, SimTimeModel, VirtualExecutor};
    use easybo_opt::sampling;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn run(acq: SequentialAcquisition, seed: u64) -> f64 {
        let bounds = Bounds::new(vec![(-2.0, 2.0), (-2.0, 2.0)]).unwrap();
        let time = SimTimeModel::new(&bounds, 10.0, 0.1, 0);
        let bb = CostedFunction::new("peak", bounds.clone(), time, |x: &[f64]| {
            // Single smooth peak at (0.5, -0.5).
            (-((x[0] - 0.5).powi(2) + (x[1] + 0.5).powi(2))).exp()
        });
        let mut rng = StdRng::seed_from_u64(seed);
        let init = sampling::latin_hypercube(&bounds, 8, &mut rng);
        let mut policy = SequentialBoPolicy::new(bounds, acq, seed);
        let r = VirtualExecutor::new(1).run_async(&bb, &init, 35, &mut policy);
        assert_eq!(policy.core.fallbacks(), 0);
        r.best_value()
    }

    #[test]
    fn ei_converges_to_peak() {
        assert!(run(SequentialAcquisition::Ei, 3) > 0.95);
    }

    #[test]
    fn ucb_converges_to_peak() {
        assert!(run(SequentialAcquisition::Ucb { kappa: 2.0 }, 4) > 0.95);
    }

    #[test]
    fn easybo_sequential_converges_to_peak() {
        assert!(run(SequentialAcquisition::EasyBo { lambda: 6.0 }, 5) > 0.95);
    }

    #[test]
    fn bo_beats_random_search_at_equal_budget() {
        let bounds = Bounds::new(vec![(-2.0, 2.0), (-2.0, 2.0)]).unwrap();
        let f = |x: &[f64]| (-((x[0] - 0.5).powi(2) + (x[1] + 0.5).powi(2))).exp();
        let mut rng = StdRng::seed_from_u64(11);
        let random_best = (0..35)
            .map(|_| f(&bounds.sample_uniform(&mut rng)))
            .fold(f64::NEG_INFINITY, f64::max);
        let bo_best = run(SequentialAcquisition::Ei, 11);
        assert!(
            bo_best >= random_best,
            "BO {bo_best} vs random {random_best}"
        );
    }
}
