//! Acquisition functions over a fitted Gaussian process.
//!
//! All acquisitions operate in the GP's **standardized target space** so
//! that the predictive mean and standard deviation are commensurate — the
//! weighted combination `(1-w)·μ + w·σ` of Eqs. (4)/(8)/(9) is meaningless
//! if μ lives around 690 while σ is O(1).

use easybo_gp::{Gp, IncrementalGp};
use easybo_opt::BatchObjective;

/// `Φ(z)`: standard normal CDF via the Abramowitz–Stegun erf approximation
/// (max absolute error ≈ 1.5e-7, ample for acquisition ranking).
pub fn normal_cdf(z: f64) -> f64 {
    0.5 * (1.0 + erf(z / std::f64::consts::SQRT_2))
}

/// `φ(z)`: standard normal PDF.
pub fn normal_pdf(z: f64) -> f64 {
    (-0.5 * z * z).exp() / (2.0 * std::f64::consts::PI).sqrt()
}

/// Error function, Abramowitz–Stegun 7.1.26.
fn erf(x: f64) -> f64 {
    let sign = if x < 0.0 { -1.0 } else { 1.0 };
    let x = x.abs();
    let t = 1.0 / (1.0 + 0.3275911 * x);
    let poly = t
        * (0.254829592
            + t * (-0.284496736 + t * (1.421413741 + t * (-1.453152027 + t * 1.061405429))));
    sign * (1.0 - poly * (-x * x).exp())
}

/// Expected improvement over the incumbent `best` (both in raw units):
/// `EI(x) = σ·[z·Φ(z) + φ(z)]` with `z = (μ - best)/σ`.
///
/// # Example
///
/// ```
/// use easybo::acquisition::expected_improvement;
/// use easybo_gp::{Gp, GpConfig};
///
/// # fn main() -> Result<(), easybo_gp::GpError> {
/// let x = vec![vec![0.0], vec![1.0]];
/// let y = vec![0.0, 1.0];
/// let gp = Gp::fit(x, y, GpConfig::default())?;
/// // Unvisited territory has positive EI; the incumbent itself near zero.
/// assert!(expected_improvement(&gp, &[0.5], 1.0) >= 0.0);
/// # Ok(())
/// # }
/// ```
pub fn expected_improvement(gp: &Gp, x: &[f64], best: f64) -> f64 {
    let (mu_z, var_z) = gp.predict_standardized(x);
    let best_z = gp.scaler().transform(best);
    let sigma = var_z.max(0.0).sqrt();
    if sigma < 1e-12 {
        return (mu_z - best_z).max(0.0);
    }
    let z = (mu_z - best_z) / sigma;
    sigma * (z * normal_cdf(z) + normal_pdf(z))
}

/// Probability of improvement over the incumbent `best` (raw units).
pub fn probability_of_improvement(gp: &Gp, x: &[f64], best: f64) -> f64 {
    let (mu_z, var_z) = gp.predict_standardized(x);
    let best_z = gp.scaler().transform(best);
    let sigma = var_z.max(0.0).sqrt();
    if sigma < 1e-12 {
        return if mu_z > best_z { 1.0 } else { 0.0 };
    }
    normal_cdf((mu_z - best_z) / sigma)
}

/// Upper confidence bound `μ + κ·σ` in standardized space (Eq. 3). For
/// maximization this is the "optimistic" strategy the paper calls LCB
/// (after the minimization convention of Srinivas et al.).
pub fn ucb(gp: &Gp, x: &[f64], kappa: f64) -> f64 {
    let (mu_z, var_z) = gp.predict_standardized(x);
    mu_z + kappa * var_z.max(0.0).sqrt()
}

/// The weighted acquisition of pBO/EasyBO (Eqs. 4 and 8):
/// `α(x, w) = (1-w)·μ(x) + w·σ(x)` in standardized space.
pub fn weighted(gp: &Gp, x: &[f64], w: f64) -> f64 {
    let (mu_z, var_z) = gp.predict_standardized(x);
    blend(mu_z, var_z, w)
}

/// `(1-w)·μ + w·σ` from a standardized mean and variance.
fn blend(mu_z: f64, var_z: f64, w: f64) -> f64 {
    (1.0 - w) * mu_z + w * var_z.max(0.0).sqrt()
}

/// The penalized EasyBO acquisition (Eq. 9): mean from the *base* GP,
/// uncertainty `σ̂` from the *augmented* GP (busy points hallucinated).
///
/// The base mean uses the O(n·d) mean-only path (no triangular solve);
/// only the augmented model pays for a variance query.
pub fn weighted_penalized(base: &Gp, augmented: &Gp, x: &[f64], w: f64) -> f64 {
    let mu_z = base.scaler().transform(base.predict_mean(x));
    let (_, var_hat) = augmented.predict_standardized(x);
    blend(mu_z, var_hat, w)
}

/// Batched [`weighted`] over a whole candidate set: one `K*` assembly and
/// one multi-RHS triangular solve for the entire batch. Each value is
/// bit-identical to the scalar call on the same point.
pub fn weighted_batch(gp: &Gp, xs: &[Vec<f64>], w: f64) -> Vec<f64> {
    gp.predict_standardized_batch(xs)
        .into_iter()
        .map(|(mu_z, var_z)| blend(mu_z, var_z, w))
        .collect()
}

/// Batched [`weighted_penalized`]: base means via the mean-only batch path,
/// `σ̂` via the augmented GP's batched posterior. Bit-identical per point to
/// the scalar call.
pub fn weighted_penalized_batch(base: &Gp, augmented: &Gp, xs: &[Vec<f64>], w: f64) -> Vec<f64> {
    let means = base.predict_mean_batch(xs);
    augmented
        .predict_standardized_batch(xs)
        .into_iter()
        .zip(means)
        .map(|((_, var_hat), mean)| blend(base.scaler().transform(mean), var_hat, w))
        .collect()
}

/// [`weighted`] packaged as a [`BatchObjective`]: the multi-start maximizer
/// scores its probe batch through [`weighted_batch`] and falls back to the
/// scalar path inside Nelder–Mead refinement.
pub struct WeightedAcq<'a> {
    /// The fitted surrogate.
    pub gp: &'a Gp,
    /// Exploration weight `w ∈ [0, 1]`.
    pub w: f64,
}

impl BatchObjective for WeightedAcq<'_> {
    fn eval(&self, x: &[f64]) -> f64 {
        weighted(self.gp, x, self.w)
    }

    fn eval_batch(&self, xs: &[Vec<f64>]) -> Vec<f64> {
        weighted_batch(self.gp, xs, self.w)
    }
}

/// [`weighted_penalized`] packaged as a [`BatchObjective`].
pub struct PenalizedAcq<'a> {
    /// The un-augmented surrogate supplying the predictive mean.
    pub base: &'a Gp,
    /// The pseudo-point-augmented surrogate supplying `σ̂`.
    pub augmented: &'a Gp,
    /// Exploration weight `w ∈ [0, 1]`.
    pub w: f64,
}

impl BatchObjective for PenalizedAcq<'_> {
    fn eval(&self, x: &[f64]) -> f64 {
        weighted_penalized(self.base, self.augmented, x, self.w)
    }

    fn eval_batch(&self, xs: &[Vec<f64>]) -> Vec<f64> {
        weighted_penalized_batch(self.base, self.augmented, xs, self.w)
    }
}

/// [`weighted_penalized`] over an [`IncrementalGp`] whose pseudo-point
/// stack currently holds the hallucinated busy points: the *base* mean
/// (from the saved base `α`) and `σ̂` (from the augmented model) come out
/// of one kernel row and one forward solve per query
/// ([`IncrementalGp::predict_penalized`]) — no cloned GP anywhere.
/// Bit-identical to [`PenalizedAcq`] over `(base, base.augment(busy))`.
pub struct PenalizedAcqInc<'a> {
    /// Surrogate with the busy points pushed as pseudo-points.
    pub inc: &'a IncrementalGp,
    /// Exploration weight `w ∈ [0, 1]`.
    pub w: f64,
}

impl BatchObjective for PenalizedAcqInc<'_> {
    fn eval(&self, x: &[f64]) -> f64 {
        let (mu_z, var_hat) = self.inc.predict_penalized(x);
        blend(mu_z, var_hat, self.w)
    }

    fn eval_batch(&self, xs: &[Vec<f64>]) -> Vec<f64> {
        self.inc
            .predict_penalized_batch(xs)
            .into_iter()
            .map(|(mu_z, var_hat)| blend(mu_z, var_hat, self.w))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use easybo_gp::{GpConfig, KernelFamily};

    fn toy_gp() -> Gp {
        let x = vec![vec![0.0], vec![0.25], vec![0.5], vec![0.75], vec![1.0]];
        let y = vec![0.0, 0.7, 1.0, 0.7, 0.0];
        let mut theta = vec![-1.2, 0.0];
        theta[1] = 0.0;
        Gp::fit_with_params(
            x,
            y,
            KernelFamily::SquaredExponential,
            theta,
            (1e-6f64).ln(),
        )
        .unwrap()
    }

    #[test]
    fn normal_cdf_reference_values() {
        assert!((normal_cdf(0.0) - 0.5).abs() < 1e-7);
        assert!((normal_cdf(1.0) - 0.841_344_7).abs() < 1e-6);
        assert!((normal_cdf(-1.0) - 0.158_655_3).abs() < 1e-6);
        assert!((normal_cdf(3.0) - 0.998_650_1).abs() < 1e-6);
        assert!(normal_cdf(8.0) > 0.999_999);
        assert!(normal_cdf(-8.0) < 1e-6);
    }

    #[test]
    fn normal_pdf_reference_values() {
        assert!((normal_pdf(0.0) - 0.398_942_28).abs() < 1e-8);
        assert!((normal_pdf(1.0) - 0.241_970_72).abs() < 1e-8);
        assert_eq!(normal_pdf(1.5), normal_pdf(-1.5));
    }

    #[test]
    fn ei_nonnegative_and_zero_at_interpolated_points() {
        let gp = toy_gp();
        let best = 1.0;
        for q in [0.0, 0.1, 0.33, 0.5, 0.9, 1.3] {
            let ei = expected_improvement(&gp, &[q], best);
            assert!(ei >= 0.0, "EI({q}) = {ei}");
        }
        // At the incumbent with ~zero variance EI is ~0.
        assert!(expected_improvement(&gp, &[0.5], best) < 1e-3);
    }

    #[test]
    fn ei_prefers_unexplored_over_known_bad() {
        let gp = toy_gp();
        let far = expected_improvement(&gp, &[2.0], 1.0);
        let known_bad = expected_improvement(&gp, &[0.0], 1.0);
        assert!(far > known_bad);
    }

    #[test]
    fn pi_bounded_and_monotone_in_mean() {
        let gp = toy_gp();
        for q in [0.0, 0.5, 1.0, 2.0] {
            let pi = probability_of_improvement(&gp, &[q], 0.5);
            assert!((0.0..=1.0).contains(&pi), "PI({q}) = {pi}");
        }
        // Near the peak, improving over a low bar is more likely than at the
        // valley.
        let at_peak = probability_of_improvement(&gp, &[0.5], 0.5);
        let at_valley = probability_of_improvement(&gp, &[0.0], 0.5);
        assert!(at_peak > at_valley);
    }

    #[test]
    fn ucb_increases_with_kappa_where_uncertain() {
        let gp = toy_gp();
        let q = [3.0]; // far from data: high sigma
        assert!(ucb(&gp, &q, 2.0) > ucb(&gp, &q, 0.1));
        // With kappa=0, UCB is the standardized mean.
        let (mu, _) = gp.predict_standardized(&q);
        assert!((ucb(&gp, &q, 0.0) - mu).abs() < 1e-12);
    }

    #[test]
    fn weighted_interpolates_exploitation_and_exploration() {
        let gp = toy_gp();
        let q = [0.5];
        let (mu, var) = gp.predict_standardized(&q);
        assert!((weighted(&gp, &q, 0.0) - mu).abs() < 1e-12);
        assert!((weighted(&gp, &q, 1.0) - var.max(0.0).sqrt()).abs() < 1e-12);
        // w=1 prefers the unexplored region; w=0 prefers the peak.
        assert!(weighted(&gp, &[3.0], 1.0) > weighted(&gp, &[0.5], 1.0));
        assert!(weighted(&gp, &[0.5], 0.0) > weighted(&gp, &[0.0], 0.0));
    }

    #[test]
    fn penalized_acquisition_avoids_busy_point() {
        let gp = toy_gp();
        let busy = vec![vec![1.6]];
        let aug = gp.augment(&busy).unwrap();
        // Pure exploration (w=1): the busy point loses attractiveness.
        let at_busy = weighted_penalized(&gp, &aug, &[1.6], 1.0);
        let un_pen = weighted(&gp, &[1.6], 1.0);
        assert!(at_busy < un_pen * 0.5, "{at_busy} vs {un_pen}");
        // Elsewhere, far from the busy point, nothing changes.
        let elsewhere_pen = weighted_penalized(&gp, &aug, &[-1.0], 1.0);
        let elsewhere = weighted(&gp, &[-1.0], 1.0);
        assert!((elsewhere_pen - elsewhere).abs() < 1e-6);
    }

    #[test]
    fn penalized_mean_comes_from_base_gp() {
        let gp = toy_gp();
        let aug = gp.augment(&[vec![0.3]]).unwrap();
        // With w=0 the penalized acquisition equals the base mean (up to
        // the scaler round-trip of the mean-only fast path).
        let q = [0.3];
        let (mu, _) = gp.predict_standardized(&q);
        assert!((weighted_penalized(&gp, &aug, &q, 0.0) - mu).abs() < 1e-10);
    }

    #[test]
    fn batch_acquisitions_bitwise_match_scalar() {
        let gp = toy_gp();
        let aug = gp.augment(&[vec![0.4], vec![1.2]]).unwrap();
        let queries: Vec<Vec<f64>> = (0..11).map(|i| vec![i as f64 * 0.17 - 0.3]).collect();
        for w in [0.0, 0.35, 1.0] {
            let wb = weighted_batch(&gp, &queries, w);
            let pb = weighted_penalized_batch(&gp, &aug, &queries, w);
            let wa = WeightedAcq { gp: &gp, w };
            let pa = PenalizedAcq {
                base: &gp,
                augmented: &aug,
                w,
            };
            let wa_batch = wa.eval_batch(&queries);
            let pa_batch = pa.eval_batch(&queries);
            for (i, q) in queries.iter().enumerate() {
                // Exact equality: the batch path must not perturb a bit.
                assert_eq!(wb[i], weighted(&gp, q, w), "weighted at {i}, w = {w}");
                assert_eq!(
                    pb[i],
                    weighted_penalized(&gp, &aug, q, w),
                    "penalized at {i}, w = {w}"
                );
                assert_eq!(wa_batch[i], wa.eval(q));
                assert_eq!(pa_batch[i], pa.eval(q));
            }
        }
    }

    #[test]
    fn incremental_penalized_acq_bitwise_matches_cloned() {
        let gp = toy_gp();
        let busy = vec![vec![0.4], vec![1.2]];
        let aug = gp.augment(&busy).unwrap();
        let mut inc = IncrementalGp::new(toy_gp());
        for b in &busy {
            inc.push_pseudo_mean(b.clone()).unwrap();
        }
        let queries: Vec<Vec<f64>> = (0..11).map(|i| vec![i as f64 * 0.17 - 0.3]).collect();
        for w in [0.0, 0.35, 1.0] {
            let legacy = PenalizedAcq {
                base: &gp,
                augmented: &aug,
                w,
            };
            let fast = PenalizedAcqInc { inc: &inc, w };
            let legacy_batch = legacy.eval_batch(&queries);
            let fast_batch = fast.eval_batch(&queries);
            for (i, q) in queries.iter().enumerate() {
                assert_eq!(
                    legacy.eval(q).to_bits(),
                    fast.eval(q).to_bits(),
                    "scalar at {i}, w = {w}"
                );
                assert_eq!(
                    legacy_batch[i].to_bits(),
                    fast_batch[i].to_bits(),
                    "batch at {i}, w = {w}"
                );
            }
        }
    }

    #[test]
    fn trained_gp_works_with_acquisitions() {
        let x: Vec<Vec<f64>> = (0..10).map(|i| vec![i as f64 / 9.0]).collect();
        let y: Vec<f64> = x.iter().map(|p| -(p[0] - 0.6).powi(2)).collect();
        let gp = Gp::fit(x, y, GpConfig::default()).unwrap();
        let ei = expected_improvement(&gp, &[0.55], 0.0);
        assert!(ei.is_finite());
    }
}
