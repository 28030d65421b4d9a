//! Standard-acquisition asynchronous baseline (Riegler, Odgers & Fortuin,
//! *"Standard Acquisition Is Sufficient for Asynchronous Bayesian
//! Optimization"*).
//!
//! The null hypothesis of the async-batch literature: when a worker goes
//! idle, just maximize a plain sequential acquisition (EI by default)
//! over the *completed* observations and ignore the in-flight points
//! entirely — no hallucination, no penalization, no randomized weights.
//! Riegler et al. argue that with a well-calibrated surrogate the busy
//! points rarely coincide with the acquisition maximizer anyway, so the
//! machinery the other policies add buys little. Running this baseline
//! through the same acceptance matrix is what makes the comparison in
//! Tables I–II an actual test of that claim.
//!
//! Unlike [`SequentialBoPolicy`](crate::policies::SequentialBoPolicy)
//! (which drives one worker and keeps no versioned state), this policy
//! implements the full kill/resume contract via
//! `snapshot_state`/`restore_state` so it can be checkpointed mid-run
//! like the rest of the portfolio.

use easybo_exec::{AsyncPolicy, BusyPoint, Dataset};
use easybo_opt::Bounds;
use easybo_telemetry::Telemetry;
use rand::rngs::StdRng;
use rand::SeedableRng;

use easybo_gp::Gp;

use crate::acquisition::{expected_improvement, normal_cdf, normal_pdf};
use crate::policies::asynchronous::maximize_traced;
use crate::policies::{AcqMaximizer, AcqOptConfig};
use crate::surrogate::{SurrogateConfig, SurrogateManager};

/// Standard-acquisition async baseline: plain sequential EI, busy points
/// invisible.
///
/// # Example
///
/// ```
/// use easybo::policies::StandardAsyncPolicy;
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
/// let mut policy = StandardAsyncPolicy::new(bounds, 7);
/// let r = VirtualExecutor::new(4).run_async(&bb, &init, 30, &mut policy);
/// assert!(r.best_value() > -0.05);
/// # Ok(())
/// # }
/// ```
pub struct StandardAsyncPolicy {
    surrogate: SurrogateManager,
    maximizer: AcqMaximizer,
    rng: StdRng,
    fallbacks: usize,
    acq_restarts: usize,
    telemetry: Telemetry,
}

impl StandardAsyncPolicy {
    /// Creates the baseline with plain EI.
    pub fn new(bounds: Bounds, seed: u64) -> Self {
        let dim = bounds.dim();
        Self::with_configs(
            bounds,
            seed,
            SurrogateConfig::default(),
            AcqOptConfig::for_dim(dim),
        )
    }

    /// Full-configuration constructor.
    pub fn with_configs(
        bounds: Bounds,
        seed: u64,
        surrogate: SurrogateConfig,
        acq_opt: AcqOptConfig,
    ) -> Self {
        let dim = bounds.dim();
        StandardAsyncPolicy {
            surrogate: SurrogateManager::new(bounds, SurrogateConfig { seed, ..surrogate }),
            maximizer: AcqMaximizer::new(dim, acq_opt),
            rng: StdRng::seed_from_u64(seed ^ 0x57d0_ba5e),
            fallbacks: 0,
            acq_restarts: acq_opt.starts,
            telemetry: Telemetry::disabled(),
        }
    }

    /// Attaches a telemetry handle (acquisition + GP-refit events).
    pub fn set_telemetry(&mut self, telemetry: Telemetry) -> &mut Self {
        self.surrogate.set_telemetry(telemetry.clone());
        self.telemetry = telemetry;
        self
    }

    /// Surrogate-fit fallback count (should stay 0).
    pub fn fallbacks(&self) -> usize {
        self.fallbacks
    }
}

/// [`expected_improvement`] packaged as a [`easybo_opt::BatchObjective`]:
/// probe batches score through the GP's batched standardized posterior,
/// bit-identical per point to the scalar call (busy points never enter).
struct EiAcq<'a> {
    gp: &'a Gp,
    /// Incumbent in raw units (the scalar EI transforms it internally).
    best: f64,
}

impl easybo_opt::BatchObjective for EiAcq<'_> {
    fn eval(&self, x: &[f64]) -> f64 {
        expected_improvement(self.gp, x, self.best)
    }

    fn eval_batch(&self, xs: &[Vec<f64>]) -> Vec<f64> {
        let best_z = self.gp.scaler().transform(self.best);
        self.gp
            .predict_standardized_batch(xs)
            .into_iter()
            .map(|(mu_z, var_z)| {
                let sigma = var_z.max(0.0).sqrt();
                if sigma < 1e-12 {
                    (mu_z - best_z).max(0.0)
                } else {
                    let z = (mu_z - best_z) / sigma;
                    sigma * (z * normal_cdf(z) + normal_pdf(z))
                }
            })
            .collect()
    }
}

impl AsyncPolicy for StandardAsyncPolicy {
    fn select_next(&mut self, data: &Dataset, _busy: &[BusyPoint]) -> Vec<f64> {
        if data.is_empty() {
            // More workers than initial points: nothing observed yet.
            return self.surrogate.bounds().sample_uniform(&mut self.rng);
        }
        let gp = match self.surrogate.surrogate(data) {
            Ok(gp) => gp,
            Err(_) => {
                self.fallbacks += 1;
                return self.surrogate.bounds().sample_uniform(&mut self.rng);
            }
        };
        // Incumbent in raw units; the EI transforms it through the GP's
        // target scaler internally.
        let best = data.best_value();
        let u = maximize_traced(
            &self.maximizer,
            &mut self.rng,
            &self.telemetry,
            self.acq_restarts,
            &EiAcq { gp, best },
        );
        self.surrogate.from_unit(&u)
    }

    fn snapshot_state(&self) -> Option<Vec<u8>> {
        Some(crate::persistence::encode_standard_state(
            self.rng.state(),
            self.fallbacks,
            &self.surrogate.state(),
        ))
    }

    fn restore_state(&mut self, state: &[u8]) -> Result<(), String> {
        let blob = crate::persistence::decode_standard_state(state).map_err(|e| e.to_string())?;
        self.surrogate
            .restore(blob.surrogate)
            .map_err(|e| e.to_string())?;
        self.rng = StdRng::from_state(blob.rng);
        self.fallbacks = blob.fallbacks;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use easybo_exec::BlackBox as _;
    use easybo_exec::{CostedFunction, SimTimeModel, VirtualExecutor};
    use easybo_opt::sampling;
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
    fn standard_baseline_reaches_peak() {
        let bb = bb_2d();
        let bounds = bb.bounds().clone();
        let mut policy = StandardAsyncPolicy::new(bounds.clone(), 1);
        let r = VirtualExecutor::new(5).run_async(&bb, &init(&bounds, 10, 1), 45, &mut policy);
        assert!(r.best_value() > 0.85, "standard best {}", r.best_value());
        assert_eq!(policy.fallbacks(), 0);
    }

    #[test]
    fn busy_points_are_invisible() {
        // Identical state, with and without busy points → identical
        // selection (the defining property of the baseline).
        let bounds = Bounds::new(vec![(0.0, 1.0)]).unwrap();
        let mut data = Dataset::new();
        for i in 0..8 {
            data.push(vec![i as f64 / 7.0], (i as f64 * 0.7).sin());
        }
        let busy = vec![BusyPoint {
            x: vec![0.5],
            task: 0,
            worker: 0,
        }];
        let mut a = StandardAsyncPolicy::new(bounds.clone(), 42);
        let mut b = StandardAsyncPolicy::new(bounds, 42);
        let xa = a.select_next(&data, &busy);
        let xb = b.select_next(&data, &[]);
        for (va, vb) in xa.iter().zip(&xb) {
            assert_eq!(va.to_bits(), vb.to_bits());
        }
    }

    #[test]
    fn snapshot_restore_continues_decision_stream_bitwise() {
        let bounds = Bounds::new(vec![(0.0, 1.0)]).unwrap();
        let mut data = Dataset::new();
        for i in 0..9 {
            data.push(vec![i as f64 / 8.0], (i as f64 * 0.9).sin());
        }
        let mut policy = StandardAsyncPolicy::new(bounds.clone(), 11);
        let _ = policy.select_next(&data, &[]);
        let blob = policy.snapshot_state().expect("policy supports capture");

        let mut restored = StandardAsyncPolicy::new(bounds, 999); // wrong seed on purpose
        restored.restore_state(&blob).unwrap();

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
        let mut policy = StandardAsyncPolicy::new(bounds.clone(), 0);
        assert!(policy.restore_state(&[1, 2, 3]).is_err());
        let mut pess = crate::policies::PessimisticAsyncPolicy::new(bounds, 0);
        let mut data = Dataset::new();
        for i in 0..6 {
            data.push(vec![i as f64 / 5.0], (i as f64).cos());
        }
        let _ = pess.select_next(&data, &[]);
        let foreign = pess.snapshot_state().unwrap();
        let err = policy.restore_state(&foreign).unwrap_err();
        assert!(err.contains("standard-acquisition"), "{err}");
    }

    #[test]
    fn selections_stay_in_bounds() {
        let bb = bb_2d();
        let bounds = bb.bounds().clone();
        let mut policy = StandardAsyncPolicy::new(bounds.clone(), 6);
        let r = VirtualExecutor::new(3).run_async(&bb, &init(&bounds, 8, 6), 25, &mut policy);
        for x in r.data.xs() {
            assert!(bounds.contains(x), "{x:?}");
        }
    }
}
