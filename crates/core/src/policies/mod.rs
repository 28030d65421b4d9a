//! Batch-selection policies: EasyBO and every baseline from the paper.
//!
//! Each policy implements [`easybo_exec::SyncBatchPolicy`] (barrier-
//! synchronized batches) and/or [`easybo_exec::AsyncPolicy`] (one point per
//! idle worker, with busy-point visibility):
//!
//! | Paper label | Type | Mode | Penalization |
//! |---|---|---|---|
//! | EI / LCB / EasyBO (sequential) | [`SequentialBoPolicy`] | 1 worker | – |
//! | pBO | [`PboPolicy`] (`high_coverage = false`) | sync | none |
//! | pHCBO | [`PboPolicy`] (`high_coverage = true`) | sync | Eq. 6 distance term |
//! | EasyBO-S | [`EasyBoSyncPolicy`] (`penalize = false`) | sync | none |
//! | EasyBO-SP | [`EasyBoSyncPolicy`] (`penalize = true`) | sync | hallucinated σ̂ |
//! | EasyBO-A | [`EasyBoAsyncPolicy`] (`penalize = false`) | async | none |
//! | **EasyBO** | [`EasyBoAsyncPolicy`] (`penalize = true`) | async | hallucinated σ̂ |
//! | BUCB (extension) | [`BucbPolicy`] | sync | hallucinated σ̂ |
//! | Local Penalization (extension) | [`LocalPenalizationPolicy`] | sync | Lipschitz cones |
//! | ε-greedy (De Ath 2020) | [`EpsGreedyPolicy`] | async | ε-random interleaving |
//! | Pessimistic (Volk 2024) | [`PessimisticAsyncPolicy`] | async | constant-liar-min |
//! | Standard EI (Riegler) | [`StandardAsyncPolicy`] | async | none (busy invisible) |
//!
//! # The shared core
//!
//! Every policy above, and [`ConstrainedPolicy`](crate::ConstrainedPolicy),
//! holds one `PolicyCore` next to its own extras: the
//! [`SurrogateManager`], the acquisition maximizer over the unit cube, the
//! policy's seeded RNG (seed XOR a per-policy salt), the surrogate-fit
//! fallback counter and the telemetry handle. Only the acquisition
//! (§III-B) and the busy-point handling (§III-C) differ between policies.
//!
//! **Fit or fall back.** Each selection first fits (or incrementally
//! extends) the surrogate. With no observations yet, or when the fit
//! fails, the policy draws its point(s) uniformly from the bounds on its
//! RNG instead. A failed fit counts one fallback and bumps the
//! `surrogate_fallbacks` telemetry counter; empty data counts nothing.
//! Only a fitted model draws anything else (weights, coins, probes) from
//! the RNG, so the fallback consumes the stream exactly as far as its
//! uniform draws. Every policy blob carries the fallback count.
//!
//! **One acquisition.** No policy builds its own objective. Each names a
//! [`Score`] (weighted, EI or UCB), a
//! [`Moments`] source (the live posterior, or
//! the penalized pair under hallucinated busy points) and, for pHCBO, LP
//! and constrained EasyBO, a per-point adjustment. The core's maximizer
//! scores the probe batch through the batched posterior and refines the
//! best probes through the scalar one; both give the same bits (see
//! [`crate::acquisition`]).

mod asynchronous;
mod eps_greedy;
mod extensions;
mod penalization;
mod pessimistic;
mod sequential;
mod standard;
mod sync;

pub use asynchronous::EasyBoAsyncPolicy;
pub use eps_greedy::{EpsGreedyPolicy, DEFAULT_EPSILON};
pub use extensions::{BucbPolicy, LocalPenalizationPolicy};
pub use penalization::PenalizationMode;
pub use pessimistic::{PessimisticAsyncPolicy, DEFAULT_PESSIMISTIC_KAPPA};
pub use sequential::{SequentialAcquisition, SequentialBoPolicy};
pub use standard::StandardAsyncPolicy;
pub use sync::{EasyBoSyncPolicy, PboPolicy};

use std::sync::atomic::{AtomicU64, Ordering};

use easybo_exec::{BusyPoint, Dataset};
use easybo_gp::IncrementalGp;
use easybo_opt::{BatchObjective, Bounds, MultiStartMaximizer, Parallelism};
use easybo_telemetry::{Event, Telemetry};
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};

use crate::acquisition::{Acquisition, Adjustment, Moments, Score};
use crate::persistence::PolicyStateBlob;
use crate::surrogate::{SurrogateConfig, SurrogateManager};

/// Sizing of the inner acquisition maximization (random probes + local
/// gradient refinement over the unit cube).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct AcqOptConfig {
    /// Random probe count (default `max(256, 48·d)` via [`AcqOptConfig::for_dim`]).
    pub probes: usize,
    /// Local refinements of the top seeds (default 3).
    pub starts: usize,
    /// Value-and-gradient evaluations per refinement start, the bounded
    /// L-BFGS run's budget (default 30).
    pub refine_evals: usize,
    /// Worker threads for probe scoring and the refinement starts (default:
    /// available cores; 1 = the legacy sequential path). The selected point
    /// is bit-identical at any setting.
    pub parallelism: Parallelism,
}

impl Default for AcqOptConfig {
    fn default() -> Self {
        AcqOptConfig {
            probes: 384,
            starts: 3,
            refine_evals: 30,
            parallelism: Parallelism::default(),
        }
    }
}

impl AcqOptConfig {
    /// Scales the probe count with dimensionality; the setting every
    /// built-in policy constructor uses. The refinement budget is 30
    /// value-and-gradient evaluations per start whatever `d`: a paired
    /// 20-seed quality verdict held it at the op-amp's d = 10 and the
    /// class-E's d = 12.
    pub fn for_dim(d: usize) -> Self {
        AcqOptConfig {
            probes: 320.max(44 * d),
            starts: 3,
            refine_evals: 30,
            parallelism: Parallelism::default(),
        }
    }
}

/// Acquisition maximization over the unit cube the GP is trained on.
pub(crate) struct AcqMaximizer {
    unit: Bounds,
    inner: MultiStartMaximizer,
    parallelism: Parallelism,
}

impl AcqMaximizer {
    pub(crate) fn new(dim: usize, config: AcqOptConfig) -> Self {
        AcqMaximizer {
            unit: Bounds::unit_cube(dim).expect("dim > 0"),
            inner: MultiStartMaximizer::new(config.probes, config.starts, config.refine_evals),
            parallelism: config.parallelism,
        }
    }

    /// Maximizes `f` over the unit cube and returns unit coordinates.
    /// Probes score through `eval_batch` (for an [`Acquisition`], the
    /// batched posterior); refinement starts call `eval_grad` on the
    /// configured worker threads.
    ///
    /// On a disabled handle this is a direct call. Otherwise it opens an
    /// `acquisition` span (with `batch_predict` / `nm_refine` phases; the
    /// latter is the local refinement), counts acquisition evaluations
    /// (a value-and-gradient evaluation counts one) across threads, emits
    /// `AcqOptimized` and feeds the `acq_restarts`, `acq_evals`,
    /// `acq_batch_size` (probes scored through the batched posterior) and
    /// `parallel_starts` counters. The point is the same either way.
    pub(crate) fn maximize<F: BatchObjective + ?Sized>(
        &self,
        rng: &mut StdRng,
        telemetry: &Telemetry,
        f: &F,
    ) -> Vec<f64> {
        if !telemetry.enabled() {
            return self
                .inner
                .maximize_batched(&self.unit, rng, self.parallelism, f)
                .x;
        }
        let _span = telemetry.span("acquisition");
        let counted = CountedObjective {
            inner: f,
            evals: AtomicU64::new(0),
        };
        let t0 = std::time::Instant::now();
        let u = self
            .inner
            .maximize_batched_traced(&self.unit, rng, self.parallelism, &counted, telemetry)
            .x;
        let duration = t0.elapsed().as_secs_f64();
        let evals = counted.evals.load(Ordering::Relaxed) as usize;
        let restarts = self.inner.starts();
        telemetry.incr("acq_restarts", restarts as u64);
        telemetry.incr("acq_evals", evals as u64);
        telemetry.incr("acq_batch_size", self.inner.probes() as u64);
        telemetry.incr(
            "parallel_starts",
            self.parallelism.os_threads(restarts) as u64,
        );
        telemetry.observe("acq_opt_s", duration);
        telemetry.emit(Event::AcqOptimized {
            restarts,
            evals,
            duration,
        });
        u
    }
}

/// Wraps a [`BatchObjective`] with a thread-safe evaluation counter, so
/// evaluations count even when probe scoring and refinement run on worker
/// threads.
struct CountedObjective<'a, F: ?Sized> {
    inner: &'a F,
    evals: AtomicU64,
}

impl<F: BatchObjective + ?Sized> BatchObjective for CountedObjective<'_, F> {
    fn eval(&self, x: &[f64]) -> f64 {
        self.evals.fetch_add(1, Ordering::Relaxed);
        self.inner.eval(x)
    }

    fn eval_batch(&self, xs: &[Vec<f64>]) -> Vec<f64> {
        self.evals.fetch_add(xs.len() as u64, Ordering::Relaxed);
        self.inner.eval_batch(xs)
    }

    fn eval_grad(&self, x: &[f64], grad: &mut [f64]) -> f64 {
        self.evals.fetch_add(1, Ordering::Relaxed);
        self.inner.eval_grad(x, grad)
    }
}

/// The core every surrogate-backed policy holds (see the module docs):
/// surrogate, maximizer, seeded RNG, fallback counter, telemetry handle.
pub(crate) struct PolicyCore {
    surrogate: SurrogateManager,
    maximizer: AcqMaximizer,
    rng: StdRng,
    fallbacks: usize,
    telemetry: Telemetry,
}

impl PolicyCore {
    /// The surrogate trains with `seed`; the policy RNG starts from
    /// `seed ^ salt`, the salt fixed per policy type.
    pub(crate) fn new(
        bounds: Bounds,
        seed: u64,
        salt: u64,
        surrogate: SurrogateConfig,
        acq_opt: AcqOptConfig,
    ) -> Self {
        let dim = bounds.dim();
        PolicyCore {
            surrogate: SurrogateManager::new(bounds, SurrogateConfig { seed, ..surrogate }),
            maximizer: AcqMaximizer::new(dim, acq_opt),
            rng: StdRng::seed_from_u64(seed ^ salt),
            fallbacks: 0,
            telemetry: Telemetry::disabled(),
        }
    }

    /// Attaches a telemetry handle to the core and its surrogate.
    pub(crate) fn set_telemetry(&mut self, telemetry: Telemetry) {
        self.surrogate.set_telemetry(telemetry.clone());
        self.telemetry = telemetry;
    }

    /// The attached handle (disabled until [`PolicyCore::set_telemetry`]).
    pub(crate) fn telemetry(&self) -> &Telemetry {
        &self.telemetry
    }

    /// Fits (or incrementally extends) the surrogate on `data`. `None`
    /// for empty data, and for a failed fit, which counts one fallback;
    /// the caller then draws uniformly ([`PolicyCore::uniform`]).
    pub(crate) fn fit(&mut self, data: &Dataset) -> Option<Fitted<'_>> {
        if data.is_empty() {
            return None;
        }
        match self.surrogate.incremental_in(data) {
            Ok((gp, bounds)) => Some(Fitted {
                gp,
                rng: &mut self.rng,
                bounds,
                maximizer: &self.maximizer,
                telemetry: &self.telemetry,
            }),
            Err(_) => {
                self.fallbacks += 1;
                self.telemetry.incr("surrogate_fallbacks", 1);
                None
            }
        }
    }

    /// One uniform draw from the bounds on the policy RNG.
    pub(crate) fn uniform(&mut self) -> Vec<f64> {
        self.surrogate.bounds().sample_uniform(&mut self.rng)
    }

    /// `n` uniform draws, in order.
    pub(crate) fn uniform_batch(&mut self, n: usize) -> Vec<Vec<f64>> {
        (0..n).map(|_| self.uniform()).collect()
    }

    /// The snapshot core every policy blob ends with (RNG words, fallback
    /// count, surrogate state), written by the blob encoders.
    pub(crate) fn snapshot(&self) -> PolicyStateBlob {
        PolicyStateBlob {
            rng: self.rng.state(),
            fallbacks: self.fallbacks,
            surrogate: self.surrogate.state(),
        }
    }

    /// Restores a decoded snapshot core; the RNG and counter change only
    /// once the surrogate state has been accepted.
    pub(crate) fn restore(&mut self, core: PolicyStateBlob) -> Result<(), String> {
        self.surrogate
            .restore(core.surrogate)
            .map_err(|e| e.to_string())?;
        self.rng = StdRng::from_state(core.rng);
        self.fallbacks = core.fallbacks;
        Ok(())
    }

    #[cfg(test)]
    pub(crate) fn fallbacks(&self) -> usize {
        self.fallbacks
    }
}

/// A fitted surrogate lent together with the policy RNG, the bounds and
/// the maximizer, for the rest of one selection.
pub(crate) struct Fitted<'a> {
    /// The fitted model and its pseudo-point factor stack.
    pub(crate) gp: &'a mut IncrementalGp,
    /// The policy RNG (weight draws, coins, maximizer probes).
    pub(crate) rng: &'a mut StdRng,
    bounds: &'a Bounds,
    maximizer: &'a AcqMaximizer,
    telemetry: &'a Telemetry,
}

impl Fitted<'_> {
    /// Maps a raw design point (clamped into the bounds) to unit
    /// coordinates.
    pub(crate) fn to_unit(&self, x: &[f64]) -> Vec<f64> {
        self.bounds.to_unit(&self.bounds.clamp(x))
    }

    /// Maps unit coordinates back to a raw design point.
    pub(crate) fn to_raw(&self, u: &[f64]) -> Vec<f64> {
        self.bounds.from_unit(u)
    }

    /// One uniform draw from the bounds.
    pub(crate) fn uniform(&mut self) -> Vec<f64> {
        self.bounds.sample_uniform(self.rng)
    }

    /// Maximizes `score` of the model's `moments`, adjusted per point
    /// (see [`AcqMaximizer::maximize`]); returns unit coordinates.
    pub(crate) fn maximize(
        &mut self,
        score: Score,
        moments: Moments,
        adjustment: Adjustment<'_>,
    ) -> Vec<f64> {
        let acq = Acquisition::new(&*self.gp, score, moments).adjusted(adjustment);
        self.maximizer
            .maximize(&mut *self.rng, self.telemetry, &acq)
    }

    /// Hallucinates the busy points onto the factor stack under `mode`
    /// (see [`PenalizationMode::push_traced`]; the lies are the worst
    /// and best observations in `data`). `false` when nothing was pushed:
    /// no busy points, or a degenerate push that was rolled back.
    pub(crate) fn hallucinate(
        &mut self,
        mode: PenalizationMode,
        busy: &[BusyPoint],
        data: &Dataset,
    ) -> bool {
        if busy.is_empty() {
            return false;
        }
        let units: Vec<Vec<f64>> = busy.iter().map(|bp| self.to_unit(&bp.x)).collect();
        let (lo, hi) = data
            .ys()
            .iter()
            .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), &y| {
                (lo.min(y), hi.max(y))
            });
        mode.push_traced(self.gp, &units, lo, hi, self.telemetry)
            .is_ok()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn acq_opt_config_scales_with_dim() {
        let small = AcqOptConfig::for_dim(2);
        let large = AcqOptConfig::for_dim(12);
        assert!(large.probes > small.probes);
        assert_eq!(small.starts, 3);
    }

    #[test]
    fn fit_counts_a_failed_fit_but_not_empty_data() {
        let bounds = Bounds::new(vec![(0.0, 1.0)]).unwrap();
        let mut core = PolicyCore::new(
            bounds.clone(),
            1,
            0,
            SurrogateConfig::default(),
            AcqOptConfig::for_dim(1),
        );
        let (telemetry, _recorder) = Telemetry::recording();
        core.set_telemetry(telemetry.clone());
        assert!(core.fit(&Dataset::new()).is_none());
        assert_eq!(core.fallbacks(), 0);

        let mut data = Dataset::new();
        for i in 0..6 {
            data.push(vec![i as f64 / 5.0], (i as f64).sin());
        }
        assert!(core.fit(&data).is_some());
        data.push(vec![0.55], f64::INFINITY);
        assert!(core.fit(&data).is_none());
        assert_eq!(core.fallbacks(), 1);
        let metrics = telemetry.metrics_snapshot().unwrap();
        assert_eq!(metrics.counter("surrogate_fallbacks"), 1);
        assert!(bounds.contains(&core.uniform()));
    }

    /// `-(p − (0.8, 0.2))²` with its gradient.
    struct Peak;

    impl BatchObjective for Peak {
        fn eval(&self, p: &[f64]) -> f64 {
            -(p[0] - 0.8).powi(2) - (p[1] - 0.2).powi(2)
        }

        fn eval_grad(&self, p: &[f64], grad: &mut [f64]) -> f64 {
            grad[0] = -2.0 * (p[0] - 0.8);
            grad[1] = -2.0 * (p[1] - 0.2);
            self.eval(p)
        }
    }

    #[test]
    fn maximizer_finds_unit_cube_peak() {
        let m = AcqMaximizer::new(2, AcqOptConfig::default());
        let mut rng = StdRng::seed_from_u64(5);
        let x = m.maximize(&mut rng, &Telemetry::disabled(), &Peak);
        assert!((x[0] - 0.8).abs() < 1e-6);
        assert!((x[1] - 0.2).abs() < 1e-6);
    }

    #[test]
    fn parallel_starts_counts_the_threads_the_starts_run_on() {
        let parallelism = Parallelism::new(8);
        let config = AcqOptConfig {
            parallelism,
            ..AcqOptConfig::for_dim(2)
        };
        let m = AcqMaximizer::new(2, config);
        let (telemetry, _recorder) = Telemetry::recording();
        m.maximize(&mut StdRng::seed_from_u64(5), &telemetry, &Peak);
        let metrics = telemetry.metrics_snapshot().unwrap();
        assert_eq!(
            metrics.counter("parallel_starts"),
            parallelism.os_threads(config.starts) as u64
        );
        assert!(metrics.counter("parallel_starts") <= config.starts as u64);
    }
}
