//! Synchronous batch policies: pBO, pHCBO (Hu, Li & Huang, ICCAD'18) and
//! the EasyBO-S / EasyBO-SP ablations.

use std::collections::VecDeque;

use easybo_exec::{Dataset, SyncBatchPolicy};
use easybo_opt::Bounds;

use crate::acquisition::{Adjustment, Moments, Score};
use crate::policies::{AcqOptConfig, PolicyCore};
use crate::surrogate::SurrogateConfig;
use crate::weight::{sample_kappa_weight, WeightSchedule, DEFAULT_LAMBDA};

/// How many past query points per weight index the pHCBO penalty remembers.
const HC_HISTORY: usize = 5;

/// The pBO / pHCBO synchronous batch policy (Eqs. 4–6).
///
/// Each batch member `i` maximizes `(1-w_i)·μ + w_i·σ` with the fixed grid
/// of weights `w_i = (i-1)/(B-1)`. With `high_coverage` the acquisition is
/// additionally penalized by the Eq. 6 distance term against the previous
/// five query points *of the same weight index*, discouraging
/// clustered samples.
///
/// # Example
///
/// ```
/// use easybo::policies::PboPolicy;
/// use easybo_exec::{CostedFunction, SimTimeModel, VirtualExecutor};
/// use easybo_opt::{sampling, Bounds};
/// use rand::SeedableRng;
///
/// # fn main() -> Result<(), easybo_opt::OptError> {
/// let bounds = Bounds::new(vec![(0.0, 1.0)])?;
/// let time = SimTimeModel::new(&bounds, 5.0, 0.2, 0);
/// let bb = CostedFunction::new("bump", bounds.clone(), time, |x: &[f64]| {
///     -(x[0] - 0.3) * (x[0] - 0.3)
/// });
/// let mut rng = rand::rngs::StdRng::seed_from_u64(0);
/// let init = sampling::latin_hypercube(&bounds, 5, &mut rng);
/// let mut policy = PboPolicy::new(bounds, false, 9);
/// let r = VirtualExecutor::new(3).run_sync(&bb, &init, 20, &mut policy);
/// assert!(r.best_value() > -0.01);
/// # Ok(())
/// # }
/// ```
pub struct PboPolicy {
    core: PolicyCore,
    high_coverage: bool,
    /// Per-weight-index history of recent query points (unit coords).
    history: Vec<VecDeque<Vec<f64>>>,
    /// Eq. 6 reference distance `d` in unit-cube space.
    hc_distance: f64,
}

impl PboPolicy {
    /// Creates a pBO (`high_coverage = false`) or pHCBO
    /// (`high_coverage = true`) policy.
    pub fn new(bounds: Bounds, high_coverage: bool, seed: u64) -> Self {
        let dim = bounds.dim();
        Self::with_configs(
            bounds,
            high_coverage,
            seed,
            SurrogateConfig::default(),
            AcqOptConfig::for_dim(dim),
        )
    }

    /// Full-configuration constructor.
    pub fn with_configs(
        bounds: Bounds,
        high_coverage: bool,
        seed: u64,
        surrogate: SurrogateConfig,
        acq_opt: AcqOptConfig,
    ) -> Self {
        let dim = bounds.dim();
        PboPolicy {
            core: PolicyCore::new(bounds, seed, 0x70b0_7070, surrogate, acq_opt),
            high_coverage,
            history: Vec::new(),
            hc_distance: 0.1 * (dim as f64).sqrt(),
        }
    }
}

impl SyncBatchPolicy for PboPolicy {
    fn select_batch(&mut self, data: &Dataset, batch_size: usize) -> Vec<Vec<f64>> {
        let Some(mut fit) = self.core.fit(data) else {
            return self.core.uniform_batch(batch_size);
        };
        if self.history.len() < batch_size {
            self.history.resize_with(batch_size, VecDeque::new);
        }
        let weights = WeightSchedule::UniformGrid.batch(batch_size, fit.rng);
        let mut batch = Vec::with_capacity(batch_size);
        for (i, w) in weights.into_iter().enumerate() {
            let adjustment = if self.high_coverage {
                Adjustment::Coverage {
                    history: self.history[i].make_contiguous(),
                    distance: self.hc_distance,
                }
            } else {
                Adjustment::None
            };
            let u = fit.maximize(Score::Weighted(w), Moments::Posterior, adjustment);
            if self.high_coverage {
                let h = &mut self.history[i];
                if h.len() == HC_HISTORY {
                    h.pop_front();
                }
                h.push_back(u.clone());
            }
            batch.push(fit.to_raw(&u));
        }
        batch
    }
}

/// The EasyBO-S / EasyBO-SP synchronous batch policy (§IV ablations).
///
/// Every batch member draws its own randomized weight `w = κ/(κ+1)`,
/// `κ ~ U[0, λ]` (Eq. 8). With `penalize = true` (EasyBO-SP) batch members
/// are selected sequentially, each seeing the previously selected members
/// as hallucinated pseudo-points in `σ̂` (Eq. 9); without it (EasyBO-S) all
/// members maximize over the same posterior.
pub struct EasyBoSyncPolicy {
    core: PolicyCore,
    penalize: bool,
    lambda: f64,
}

impl EasyBoSyncPolicy {
    /// Creates an EasyBO-S (`penalize = false`) or EasyBO-SP
    /// (`penalize = true`) policy with the paper's λ = 6.
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
        EasyBoSyncPolicy {
            core: PolicyCore::new(bounds, seed, 0xea5b_0051, surrogate, acq_opt),
            penalize,
            lambda,
        }
    }
}

impl SyncBatchPolicy for EasyBoSyncPolicy {
    fn select_batch(&mut self, data: &Dataset, batch_size: usize) -> Vec<Vec<f64>> {
        let Some(mut fit) = self.core.fit(data) else {
            return self.core.uniform_batch(batch_size);
        };
        // Sequential hallucination on the cached factor stack: one rank-1
        // push per batch member, all popped at the end.
        let mut batch = Vec::with_capacity(batch_size);
        for _ in 0..batch_size {
            let w = sample_kappa_weight(self.lambda, fit.rng);
            let u = if self.penalize {
                let eq9 = Moments::Penalized {
                    raw_round_trip: true,
                };
                let u = fit.maximize(Score::Weighted(w), eq9, Adjustment::None);
                // Hallucinate the new member so later members avoid it; a
                // degenerate (duplicated) push is skipped.
                let _ = fit.gp.push_pseudo_mean(u.clone());
                u
            } else {
                fit.maximize(Score::Weighted(w), Moments::Posterior, Adjustment::None)
            };
            batch.push(fit.to_raw(&u));
        }
        fit.gp.pop_all_pseudo();
        batch
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
        let time = SimTimeModel::new(&bounds, 10.0, 0.2, 0);
        CostedFunction::new("peak", bounds, time, |x: &[f64]| {
            (-((x[0] - 0.5).powi(2) + (x[1] + 0.5).powi(2))).exp()
        })
    }

    fn init(bounds: &Bounds, n: usize, seed: u64) -> Vec<Vec<f64>> {
        let mut rng = StdRng::seed_from_u64(seed);
        sampling::latin_hypercube(bounds, n, &mut rng)
    }

    #[test]
    fn pbo_reaches_peak() {
        let bb = bb_2d();
        let bounds = bb.bounds().clone();
        let mut policy = PboPolicy::new(bounds.clone(), false, 1);
        let r = VirtualExecutor::new(5).run_sync(&bb, &init(&bounds, 10, 1), 45, &mut policy);
        assert!(r.best_value() > 0.9, "pBO best {}", r.best_value());
        assert_eq!(policy.core.fallbacks(), 0);
    }

    #[test]
    fn phcbo_reaches_peak_with_diversity() {
        let bb = bb_2d();
        let bounds = bb.bounds().clone();
        let mut policy = PboPolicy::new(bounds.clone(), true, 2);
        let r = VirtualExecutor::new(5).run_sync(&bb, &init(&bounds, 10, 2), 45, &mut policy);
        assert!(r.best_value() > 0.85, "pHCBO best {}", r.best_value());
    }

    #[test]
    fn easybo_sp_reaches_peak() {
        let bb = bb_2d();
        let bounds = bb.bounds().clone();
        let mut policy = EasyBoSyncPolicy::new(bounds.clone(), true, 3);
        let r = VirtualExecutor::new(5).run_sync(&bb, &init(&bounds, 10, 3), 45, &mut policy);
        assert!(r.best_value() > 0.9, "EasyBO-SP best {}", r.best_value());
        assert_eq!(policy.core.fallbacks(), 0);
    }

    #[test]
    fn easybo_s_reaches_peak() {
        let bb = bb_2d();
        let bounds = bb.bounds().clone();
        let mut policy = EasyBoSyncPolicy::new(bounds.clone(), false, 4);
        let r = VirtualExecutor::new(5).run_sync(&bb, &init(&bounds, 10, 4), 45, &mut policy);
        assert!(r.best_value() > 0.85, "EasyBO-S best {}", r.best_value());
    }

    #[test]
    fn penalized_batches_are_more_diverse() {
        // Measure the mean pairwise distance of selected batches when the
        // training data covers only the left strip of the domain: the
        // posterior σ is large (and varied) on the unexplored right side, so
        // high-weight members chase it — all to the same argmax without
        // penalization, spread across it with σ̂-penalization.
        let bounds = Bounds::new(vec![(0.0, 1.0), (0.0, 1.0)]).unwrap();
        let strip = Bounds::new(vec![(0.0, 0.45), (0.0, 1.0)]).unwrap();
        let mut data = Dataset::new();
        let mut rng = StdRng::seed_from_u64(7);
        for p in sampling::latin_hypercube(&strip, 10, &mut rng) {
            let y = -(p[0] - 0.5f64).powi(2) - (p[1] - 0.5f64).powi(2);
            data.push(p, y);
        }
        let spread = |batch: &[Vec<f64>]| {
            let mut total = 0.0;
            let mut pairs = 0;
            for i in 0..batch.len() {
                for j in (i + 1)..batch.len() {
                    let d: f64 = batch[i]
                        .iter()
                        .zip(&batch[j])
                        .map(|(a, b)| (a - b) * (a - b))
                        .sum::<f64>()
                        .sqrt();
                    total += d;
                    pairs += 1;
                }
            }
            total / pairs as f64
        };
        // A huge λ drives every weight to w ≈ 1 (pure exploration), so all
        // plain members chase the same σ argmax while penalization must
        // spread them; average a few batches to smooth maximizer noise.
        let policy = |penalize: bool, seed: u64| {
            EasyBoSyncPolicy::with_configs(
                bounds.clone(),
                penalize,
                1e6,
                seed,
                SurrogateConfig::default(),
                AcqOptConfig::for_dim(2),
            )
        };
        let trials = 8;
        let mut pen_total = 0.0;
        let mut plain_total = 0.0;
        for t in 0..trials {
            pen_total += spread(&policy(true, 100 + t).select_batch(&data, 5));
            plain_total += spread(&policy(false, 100 + t).select_batch(&data, 5));
        }
        assert!(
            pen_total > plain_total,
            "penalized spread {pen_total} <= plain spread {plain_total}"
        );
    }

    #[test]
    fn hc_penalty_explodes_near_history() {
        let hc_penalty = |hist: &[Vec<f64>], distance: f64, u: &[f64]| {
            -Adjustment::Coverage {
                history: hist,
                distance,
            }
            .adjust(0.0, u, 0.0, None)
        };
        let hist = vec![vec![0.5, 0.5]];
        let d = 0.1 * 2f64.sqrt();
        let near = hc_penalty(&hist, d, &[0.5001, 0.5]);
        let far = hc_penalty(&hist, d, &[0.9, 0.1]);
        assert!(near > 1e10, "near penalty should explode: {near}");
        assert!(far < 2.0, "far penalty should be mild: {far}");
        assert_eq!(hc_penalty(&[], d, &[0.5, 0.5]), 0.0);
    }

    #[test]
    fn batch_points_stay_in_bounds() {
        let bb = bb_2d();
        let bounds = bb.bounds().clone();
        let mut policy = EasyBoSyncPolicy::new(bounds.clone(), true, 5);
        let mut data = Dataset::new();
        for p in init(&bounds, 8, 5) {
            let y = p[0] + p[1];
            data.push(p, y);
        }
        for x in policy.select_batch(&data, 7) {
            assert!(bounds.contains(&x), "{x:?}");
        }
    }
}
