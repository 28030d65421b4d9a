//! Asynchronous ε-greedy policy (De Ath, Everson & Fieldsend 2020,
//! *"Asynchronous ε-Greedy Bayesian Optimisation"*).
//!
//! Whenever a worker becomes idle, the policy flips a biased coin:
//!
//! * with probability `1 - ε` it **exploits** — maximizes the GP
//!   posterior mean over the design space;
//! * with probability `ε` it **explores** — draws a uniform random
//!   point from the bounds.
//!
//! Busy points are deliberately ignored: De Ath et al. argue that the
//! ε-randomization itself decorrelates concurrent queries, so no
//! hallucination or penalization machinery is needed for async safety —
//! the occasional random interleave breaks the mean-maximizer pile-up
//! that makes plain greedy policies degenerate under parallelism.
//!
//! The coin is flipped *after* the surrogate fit, so a failed fit spends
//! the RNG on its uniform fallback rather than the coin — the same
//! discipline as [`EasyBoAsyncPolicy`](crate::policies::EasyBoAsyncPolicy).

use easybo_exec::{AsyncPolicy, BusyPoint, Dataset};
use easybo_opt::Bounds;
use rand::Rng;

use crate::acquisition::{Adjustment, Moments, Score};
use crate::persistence::EPS_GREEDY_BLOB;
use crate::policies::{AcqOptConfig, PolicyCore};
use crate::surrogate::SurrogateConfig;

/// Default exploration rate (De Ath et al. recommend ε ≈ 0.1).
pub const DEFAULT_EPSILON: f64 = 0.1;

/// Asynchronous ε-greedy policy: ε-random interleaving of posterior-mean
/// exploitation and uniform exploration, async-safe without busy-point
/// penalization.
///
/// # Example
///
/// ```
/// use easybo::policies::EpsGreedyPolicy;
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
/// let mut policy = EpsGreedyPolicy::new(bounds, 7);
/// let r = VirtualExecutor::new(4).run_async(&bb, &init, 30, &mut policy);
/// assert!(r.best_value() > -0.05);
/// # Ok(())
/// # }
/// ```
pub struct EpsGreedyPolicy {
    core: PolicyCore,
    epsilon: f64,
    explores: u64,
    exploits: u64,
}

impl EpsGreedyPolicy {
    /// Creates the policy with the recommended ε = 0.1.
    pub fn new(bounds: Bounds, seed: u64) -> Self {
        let dim = bounds.dim();
        Self::with_configs(
            bounds,
            DEFAULT_EPSILON,
            seed,
            SurrogateConfig::default(),
            AcqOptConfig::for_dim(dim),
        )
    }

    /// Full-configuration constructor. `epsilon` is clamped to `[0, 1]`.
    pub fn with_configs(
        bounds: Bounds,
        epsilon: f64,
        seed: u64,
        surrogate: SurrogateConfig,
        acq_opt: AcqOptConfig,
    ) -> Self {
        EpsGreedyPolicy {
            core: PolicyCore::new(bounds, seed, 0x0e95_6eed, surrogate, acq_opt),
            epsilon: epsilon.clamp(0.0, 1.0),
            explores: 0,
            exploits: 0,
        }
    }

    /// The configured exploration rate ε.
    pub fn epsilon(&self) -> f64 {
        self.epsilon
    }

    /// Number of ε-branch (uniform-random) selections taken so far.
    pub fn explores(&self) -> u64 {
        self.explores
    }

    /// Number of greedy (posterior-mean) selections taken so far.
    pub fn exploits(&self) -> u64 {
        self.exploits
    }
}

impl AsyncPolicy for EpsGreedyPolicy {
    fn select_next(&mut self, data: &Dataset, _busy: &[BusyPoint]) -> Vec<f64> {
        // Fit before the coin: a failed fit spends the RNG on the uniform
        // fallback instead.
        let Some(mut fit) = self.core.fit(data) else {
            return self.core.uniform();
        };
        let coin: f64 = fit.rng.gen_range(0.0..1.0);
        if coin < self.epsilon {
            self.explores += 1;
            return fit.uniform();
        }
        self.exploits += 1;
        let u = fit.maximize(Score::Weighted(0.0), Moments::Posterior, Adjustment::None);
        fit.to_raw(&u)
    }

    fn snapshot_state(&self) -> Option<Vec<u8>> {
        let counters = [self.explores, self.exploits];
        Some(EPS_GREEDY_BLOB.encode(counters, &self.core.snapshot()))
    }

    fn restore_state(&mut self, state: &[u8]) -> Result<(), String> {
        let ([explores, exploits], core) =
            EPS_GREEDY_BLOB.decode(state).map_err(|e| e.to_string())?;
        self.core.restore(core)?;
        self.explores = explores;
        self.exploits = exploits;
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
    fn eps_greedy_reaches_peak() {
        let bb = bb_2d();
        let bounds = bb.bounds().clone();
        let mut policy = EpsGreedyPolicy::new(bounds.clone(), 1);
        let r = VirtualExecutor::new(5).run_async(&bb, &init(&bounds, 10, 1), 45, &mut policy);
        assert!(r.best_value() > 0.85, "eps-greedy best {}", r.best_value());
        assert_eq!(policy.core.fallbacks(), 0);
        assert_eq!(policy.explores() + policy.exploits(), 35);
    }

    #[test]
    fn epsilon_one_is_pure_random_search() {
        let bb = bb_2d();
        let bounds = bb.bounds().clone();
        let mut policy = EpsGreedyPolicy::with_configs(
            bounds.clone(),
            1.0,
            3,
            SurrogateConfig::default(),
            AcqOptConfig::for_dim(2),
        );
        let r = VirtualExecutor::new(4).run_async(&bb, &init(&bounds, 8, 3), 20, &mut policy);
        assert_eq!(policy.explores(), 12);
        assert_eq!(policy.exploits(), 0);
        for x in r.data.xs() {
            assert!(bounds.contains(x), "{x:?}");
        }
    }

    #[test]
    fn snapshot_restore_continues_decision_stream_bitwise() {
        let bounds = Bounds::new(vec![(0.0, 1.0)]).unwrap();
        let mut data = Dataset::new();
        for i in 0..9 {
            data.push(vec![i as f64 / 8.0], (i as f64 * 0.9).sin());
        }
        let mut policy = EpsGreedyPolicy::new(bounds.clone(), 11);
        let _ = policy.select_next(&data, &[]);
        let blob = policy.snapshot_state().expect("policy supports capture");

        let mut restored = EpsGreedyPolicy::new(bounds, 999); // wrong seed on purpose
        restored.restore_state(&blob).unwrap();
        assert_eq!(restored.explores(), policy.explores());
        assert_eq!(restored.exploits(), policy.exploits());

        data.push(vec![0.55], 0.21);
        for _ in 0..3 {
            let a = policy.select_next(&data, &[]);
            let b = restored.select_next(&data, &[]);
            assert_eq!(a.len(), b.len());
            for (va, vb) in a.iter().zip(&b) {
                assert_eq!(va.to_bits(), vb.to_bits());
            }
        }
    }

    #[test]
    fn restore_rejects_garbage_and_foreign_blobs() {
        let bounds = Bounds::new(vec![(0.0, 1.0)]).unwrap();
        let mut policy = EpsGreedyPolicy::new(bounds.clone(), 0);
        assert!(policy.restore_state(&[1, 2, 3]).is_err());
        // An EasyBO (legacy-layout) blob must be rejected with the
        // kind-tag message, not half-decoded.
        let mut easybo = crate::policies::EasyBoAsyncPolicy::new(bounds, true, 0);
        let mut data = Dataset::new();
        for i in 0..6 {
            data.push(vec![i as f64 / 5.0], (i as f64).cos());
        }
        let _ = easybo.select_next(&data, &[]);
        let foreign = easybo.snapshot_state().unwrap();
        let err = policy.restore_state(&foreign).unwrap_err();
        assert!(err.contains("eps-greedy"), "{err}");
    }
}
