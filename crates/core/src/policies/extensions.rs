//! Batch BO baselines beyond the paper's comparison set: BUCB (Desautels,
//! Krause & Burdick, JMLR 2014) and Local Penalization (González et al.,
//! AISTATS 2016). Both are referenced in §II-C as prior synchronous batch
//! strategies; we implement them as extensions for ablation studies.

use easybo_exec::{Dataset, SyncBatchPolicy};
use easybo_opt::Bounds;

use crate::acquisition::{Adjustment, Cone, Moments, Score};
use crate::policies::{AcqOptConfig, PolicyCore};
use crate::surrogate::SurrogateConfig;

/// Batch UCB: batch members are selected sequentially, each maximizing
/// `μ(x) + κ·σ̂(x)` where `σ̂` comes from the GP augmented with the
/// already-selected members as hallucinated observations — the origin of
/// the hallucination trick EasyBO's penalization borrows (§III-C cites
/// "the same penalization strategy as \[32\]").
pub struct BucbPolicy {
    core: PolicyCore,
    kappa: f64,
}

impl BucbPolicy {
    /// Creates a BUCB policy with exploration multiplier `kappa`
    /// (2.0 is a standard choice).
    pub fn new(bounds: Bounds, kappa: f64, seed: u64) -> Self {
        let dim = bounds.dim();
        Self::with_configs(
            bounds,
            kappa,
            seed,
            SurrogateConfig::default(),
            AcqOptConfig::for_dim(dim),
        )
    }

    /// Full-configuration constructor.
    pub fn with_configs(
        bounds: Bounds,
        kappa: f64,
        seed: u64,
        surrogate: SurrogateConfig,
        acq_opt: AcqOptConfig,
    ) -> Self {
        BucbPolicy {
            core: PolicyCore::new(bounds, seed, 0xbcbc_0001, surrogate, acq_opt),
            kappa,
        }
    }
}

impl SyncBatchPolicy for BucbPolicy {
    fn select_batch(&mut self, data: &Dataset, batch_size: usize) -> Vec<Vec<f64>> {
        let Some(mut fit) = self.core.fit(data) else {
            return self.core.uniform_batch(batch_size);
        };
        // μ from the base model, σ̂ from the one augmented with the
        // members selected so far.
        let moments = Moments::Penalized {
            raw_round_trip: false,
        };
        let mut batch = Vec::with_capacity(batch_size);
        for _ in 0..batch_size {
            let u = fit.maximize(Score::Ucb(self.kappa), moments, Adjustment::None);
            // Hallucinate the new member; a degenerate (duplicated) push is
            // skipped.
            let _ = fit.gp.push_pseudo_mean(u.clone());
            batch.push(fit.to_raw(&u));
        }
        fit.gp.pop_all_pseudo();
        batch
    }
}

/// Local Penalization: batch members are selected sequentially; each
/// maximizes the base acquisition (EI) multiplied by penalizer factors
/// `ψ(x; x_j) = Φ(z_j)` around the already-selected members, where
/// `z_j = (L·‖x − x_j‖ − M + μ(x_j)) / (√2·σ(x_j))` and `L` is a Lipschitz
/// estimate from the observed data.
pub struct LocalPenalizationPolicy {
    core: PolicyCore,
}

impl LocalPenalizationPolicy {
    /// Creates an LP policy.
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
        LocalPenalizationPolicy {
            core: PolicyCore::new(bounds, seed, 0x1b1b_0002, surrogate, acq_opt),
        }
    }

    /// Lipschitz constant estimate: the largest observed finite-difference
    /// slope between data points, in (unit-cube, standardized-y) space.
    fn lipschitz_estimate(units: &[Vec<f64>], zs: &[f64]) -> f64 {
        let mut l: f64 = 0.0;
        for i in 0..units.len() {
            for j in (i + 1)..units.len() {
                let dx: f64 = units[i]
                    .iter()
                    .zip(&units[j])
                    .map(|(a, b)| (a - b) * (a - b))
                    .sum::<f64>()
                    .sqrt();
                if dx > 1e-9 {
                    l = l.max((zs[i] - zs[j]).abs() / dx);
                }
            }
        }
        l.max(1e-3)
    }
}

impl SyncBatchPolicy for LocalPenalizationPolicy {
    fn select_batch(&mut self, data: &Dataset, batch_size: usize) -> Vec<Vec<f64>> {
        let Some(mut fit) = self.core.fit(data) else {
            return self.core.uniform_batch(batch_size);
        };
        let units: Vec<Vec<f64>> = data.xs().iter().map(|x| fit.to_unit(x)).collect();
        let scaler = fit.gp.gp().scaler();
        let zs: Vec<f64> = data.ys().iter().map(|&y| scaler.transform(y)).collect();
        let lipschitz = Self::lipschitz_estimate(&units, &zs);
        let best_z = scaler.transform(data.best_value());

        // Cones around the already-selected members.
        let mut cones = Vec::new();
        let mut batch = Vec::with_capacity(batch_size);
        for _ in 0..batch_size {
            let adjustment = Adjustment::LocalPenalties {
                cones: &cones,
                lipschitz,
                best_z,
            };
            let u = fit.maximize(Score::Ei(best_z), Moments::Posterior, adjustment);
            let (mu_z, var_z) = fit.gp.gp().predict_standardized(&u);
            batch.push(fit.to_raw(&u));
            cones.push(Cone {
                center: u,
                mu_z,
                sigma_z: var_z.max(0.0).sqrt(),
            });
        }
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
    fn bucb_reaches_peak() {
        let bb = bb_2d();
        let bounds = bb.bounds().clone();
        let mut policy = BucbPolicy::new(bounds.clone(), 2.0, 1);
        let r = VirtualExecutor::new(5).run_sync(&bb, &init(&bounds, 10, 1), 45, &mut policy);
        assert!(r.best_value() > 0.9, "BUCB best {}", r.best_value());
        assert_eq!(policy.core.fallbacks(), 0);
    }

    #[test]
    fn lp_reaches_peak() {
        let bb = bb_2d();
        let bounds = bb.bounds().clone();
        let mut policy = LocalPenalizationPolicy::new(bounds.clone(), 2);
        let r = VirtualExecutor::new(5).run_sync(&bb, &init(&bounds, 10, 2), 45, &mut policy);
        assert!(r.best_value() > 0.85, "LP best {}", r.best_value());
        assert_eq!(policy.core.fallbacks(), 0);
    }

    #[test]
    fn bucb_batch_members_are_distinct() {
        // Sparse data so posterior uncertainty is meaningful; with the
        // hallucination the batch must not collapse onto one point.
        let bounds = Bounds::new(vec![(0.0, 1.0), (0.0, 1.0)]).unwrap();
        let mut data = Dataset::new();
        let mut rng = StdRng::seed_from_u64(3);
        for p in sampling::latin_hypercube(&bounds, 5, &mut rng) {
            let y = -(p[0] - 0.5f64).powi(2) - (p[1] - 0.5f64).powi(2);
            data.push(p, y);
        }
        let mut policy = BucbPolicy::new(bounds, 3.0, 3);
        let batch = policy.select_batch(&data, 5);
        let mut min_d = f64::INFINITY;
        for i in 0..batch.len() {
            for j in (i + 1)..batch.len() {
                let d: f64 = batch[i]
                    .iter()
                    .zip(&batch[j])
                    .map(|(a, b)| (a - b) * (a - b))
                    .sum::<f64>()
                    .sqrt();
                min_d = min_d.min(d);
            }
        }
        assert!(min_d > 1e-3, "closest pair {min_d}: {batch:?}");
    }

    #[test]
    fn lipschitz_estimate_scales_with_slope() {
        let units = vec![vec![0.0], vec![1.0]];
        let flat = LocalPenalizationPolicy::lipschitz_estimate(&units, &[0.0, 0.1]);
        let steep = LocalPenalizationPolicy::lipschitz_estimate(&units, &[0.0, 5.0]);
        assert!(steep > flat);
        // Coincident points do not blow up the estimate.
        let dup = vec![vec![0.5], vec![0.5]];
        let l = LocalPenalizationPolicy::lipschitz_estimate(&dup, &[0.0, 100.0]);
        assert_eq!(l, 1e-3);
    }
}
