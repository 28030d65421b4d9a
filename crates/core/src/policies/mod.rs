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

use easybo_opt::{BatchObjective, Bounds, MultiStartMaximizer, Parallelism};
use easybo_telemetry::Telemetry;
use rand::rngs::StdRng;
use serde::{Deserialize, Serialize};

/// Sizing of the inner acquisition maximization (random probes + local
/// Nelder–Mead refinement over the unit cube).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct AcqOptConfig {
    /// Random probe count (default `max(256, 48·d)` via [`AcqOptConfig::for_dim`]).
    pub probes: usize,
    /// Local refinements of the top seeds (default 3).
    pub starts: usize,
    /// Nelder–Mead evaluations per refinement (default 120).
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
            refine_evals: 120,
            parallelism: Parallelism::default(),
        }
    }
}

impl AcqOptConfig {
    /// Scales probe count and refinement budget with dimensionality; the
    /// setting every built-in policy constructor uses.
    pub fn for_dim(d: usize) -> Self {
        AcqOptConfig {
            probes: 320.max(44 * d),
            starts: 3,
            refine_evals: 100.max(14 * d),
            parallelism: Parallelism::default(),
        }
    }
}

/// Shared acquisition-maximization helper: all policies optimize over the
/// unit cube the GP is trained on.
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

    /// Maximizes `f` over the unit cube; returns unit coordinates.
    ///
    /// Closures go through the batched maximizer too (scored pointwise via
    /// the blanket [`BatchObjective`] impl, chunk-parallel across probes).
    pub(crate) fn maximize(&self, rng: &mut StdRng, f: impl Fn(&[f64]) -> f64 + Sync) -> Vec<f64> {
        self.maximize_batch(rng, &f)
    }

    /// Maximizes a [`BatchObjective`] over the unit cube; returns unit
    /// coordinates. Probe scoring runs through `eval_batch` (one GP batch
    /// posterior for the whole probe set) and refinement starts run on the
    /// configured worker threads.
    pub(crate) fn maximize_batch<F: BatchObjective + ?Sized>(
        &self,
        rng: &mut StdRng,
        f: &F,
    ) -> Vec<f64> {
        self.inner
            .maximize_batched(&self.unit, rng, self.parallelism, f)
            .x
    }

    /// [`AcqMaximizer::maximize_batch`] with phase spans
    /// (`batch_predict` / `nm_refine`) opened on the telemetry handle.
    pub(crate) fn maximize_batch_traced<F: BatchObjective + ?Sized>(
        &self,
        rng: &mut StdRng,
        f: &F,
        telemetry: &Telemetry,
    ) -> Vec<f64> {
        self.inner
            .maximize_batched_traced(&self.unit, rng, self.parallelism, f, telemetry)
            .x
    }

    /// Random probe count per maximization (the acquisition batch size).
    pub(crate) fn probes(&self) -> usize {
        self.inner.probes()
    }

    /// The configured worker-thread budget.
    pub(crate) fn parallelism(&self) -> Parallelism {
        self.parallelism
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
    fn maximizer_finds_unit_cube_peak() {
        let m = AcqMaximizer::new(2, AcqOptConfig::default());
        let mut rng = StdRng::seed_from_u64(5);
        let x = m.maximize(&mut rng, |p| -(p[0] - 0.8).powi(2) - (p[1] - 0.2).powi(2));
        assert!((x[0] - 0.8).abs() < 1e-2);
        assert!((x[1] - 0.2).abs() < 1e-2);
    }
}
