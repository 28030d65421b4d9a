//! Exploration-weight schedules for the weighted acquisition (§III-B).
//!
//! pBO distributes `B` weights uniformly over `[0, 1]`
//! (`w_i = (i-1)/(B-1)`); the paper shows this clusters query points once
//! the posterior uncertainty shrinks, because small-`w` acquisitions all
//! collapse onto the predictive-mean maximizer (Fig. 2). EasyBO instead
//! samples `κ ~ U[0, λ]` and sets `w = κ/(κ+1)`, which concentrates the
//! sampling density of `w` near 1 — more exploration early, more diversity
//! always.

use rand::Rng;

/// The paper's λ: κ is drawn uniformly from `[0, λ]` (§III-B sets λ = 6).
pub const DEFAULT_LAMBDA: f64 = 6.0;

/// Draws one EasyBO exploration weight `w = κ/(κ+1)`, `κ ~ U[0, lambda]`.
///
/// # Example
///
/// ```
/// use easybo::sample_kappa_weight;
/// use rand::SeedableRng;
///
/// let mut rng = rand::rngs::StdRng::seed_from_u64(1);
/// let w = sample_kappa_weight(6.0, &mut rng);
/// assert!((0.0..=6.0 / 7.0).contains(&w));
/// ```
pub fn sample_kappa_weight<R: Rng + ?Sized>(lambda: f64, rng: &mut R) -> f64 {
    let kappa = rng.gen_range(0.0..=lambda.max(0.0));
    kappa / (kappa + 1.0)
}

/// A schedule producing exploration weights for batch members.
#[derive(Debug, Clone, PartialEq)]
pub enum WeightSchedule {
    /// pBO's fixed grid: `w_i = (i-1)/(B-1)` for batch size B
    /// (`w = 0.5` when B = 1).
    UniformGrid,
    /// EasyBO's randomized weights: `w = κ/(κ+1)`, `κ ~ U[0, λ]`.
    KappaSampled {
        /// Upper end of the κ range (paper: 6.0).
        lambda: f64,
    },
}

impl Default for WeightSchedule {
    fn default() -> Self {
        WeightSchedule::KappaSampled {
            lambda: DEFAULT_LAMBDA,
        }
    }
}

impl WeightSchedule {
    /// Weight for batch member `i` of `batch_size`.
    pub fn weight<R: Rng + ?Sized>(&self, i: usize, batch_size: usize, rng: &mut R) -> f64 {
        match *self {
            WeightSchedule::UniformGrid => {
                if batch_size <= 1 {
                    0.5
                } else {
                    i.min(batch_size - 1) as f64 / (batch_size - 1) as f64
                }
            }
            WeightSchedule::KappaSampled { lambda } => sample_kappa_weight(lambda, rng),
        }
    }

    /// All `batch_size` weights at once.
    pub fn batch<R: Rng + ?Sized>(&self, batch_size: usize, rng: &mut R) -> Vec<f64> {
        (0..batch_size)
            .map(|i| self.weight(i, batch_size, rng))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn rng(seed: u64) -> rand::rngs::StdRng {
        rand::rngs::StdRng::seed_from_u64(seed)
    }

    #[test]
    fn uniform_grid_matches_paper_pattern() {
        // Paper: w = (0, 0.25, 0.5, 0.75, 1) for B = 5.
        let ws = WeightSchedule::UniformGrid.batch(5, &mut rng(0));
        assert_eq!(ws, vec![0.0, 0.25, 0.5, 0.75, 1.0]);
    }

    #[test]
    fn uniform_grid_degenerate_batch() {
        assert_eq!(WeightSchedule::UniformGrid.weight(0, 1, &mut rng(0)), 0.5);
    }

    #[test]
    fn kappa_weights_in_range() {
        let mut r = rng(1);
        let max_w = DEFAULT_LAMBDA / (DEFAULT_LAMBDA + 1.0);
        for _ in 0..1000 {
            let w = sample_kappa_weight(DEFAULT_LAMBDA, &mut r);
            assert!((0.0..=max_w).contains(&w), "{w}");
        }
    }

    #[test]
    fn kappa_sampling_concentrates_near_one() {
        // The density of w increases toward w_max: more than half the draws
        // should land in the upper half of the achievable range (for λ = 6,
        // w > 0.5 ⟺ κ > 1, probability 5/6).
        let mut r = rng(2);
        let n = 4000;
        let hi = (0..n)
            .filter(|_| sample_kappa_weight(6.0, &mut r) > 0.5)
            .count();
        let frac = hi as f64 / n as f64;
        assert!(
            (frac - 5.0 / 6.0).abs() < 0.03,
            "expected ≈0.833 of draws above 0.5, got {frac}"
        );
    }

    #[test]
    fn lambda_zero_is_pure_exploitation() {
        let mut r = rng(3);
        for _ in 0..10 {
            assert_eq!(sample_kappa_weight(0.0, &mut r), 0.0);
        }
    }

    #[test]
    fn larger_lambda_explores_more() {
        let mut r = rng(4);
        let mean = |lambda: f64, r: &mut rand::rngs::StdRng| {
            (0..2000)
                .map(|_| sample_kappa_weight(lambda, r))
                .sum::<f64>()
                / 2000.0
        };
        let small = mean(1.0, &mut r);
        let large = mean(20.0, &mut r);
        assert!(large > small + 0.2, "{small} vs {large}");
    }

    #[test]
    fn default_schedule_is_kappa_with_paper_lambda() {
        match WeightSchedule::default() {
            WeightSchedule::KappaSampled { lambda } => assert_eq!(lambda, 6.0),
            other => panic!("unexpected default {other:?}"),
        }
    }
}
