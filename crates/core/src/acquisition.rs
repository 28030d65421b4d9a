//! The acquisition objective every policy maximizes.
//!
//! Every acquisition in the paper and its baselines is a pointwise score
//! of the GP's **standardized** posterior moments `(μ_z, σ²_z)`. The scores
//! work in the GP's standardized target space so the mean and standard
//! deviation are commensurate: the weighted combination `(1-w)·μ + w·σ` of
//! Eqs. (4)/(8)/(9) is meaningless if μ lives around 690 while σ is O(1).
//!
//! One [`Acquisition`] has three parts:
//!
//! * a [`Score`]: the weighted blend of Eqs. 4/8/9, expected improvement,
//!   or the confidence bound of Eq. 3, each formula written once;
//! * a [`Moments`] source: the live posterior, or the penalized pair of
//!   Eq. 9 (the base-α mean with `σ̂²` from the pseudo-point stack);
//! * an optional per-point adjustment added after scoring: pHCBO's Eq. 6
//!   distance penalty, Local Penalization's log-cones, or constrained
//!   EasyBO's log probability of feasibility.
//!
//! Its [`BatchObjective::eval_batch`] reads the batched posterior (probe
//! scoring), its [`BatchObjective::eval`] the scalar one, and its
//! [`BatchObjective::eval_grad`] the scalar one with the moments'
//! gradients (local refinement). All three agree bit for bit on the
//! value. The gradient chains each part's derivative: the score's
//! partials in `(μ_z, σ²_z)`, the moments' gradients from
//! [`Gp::predict_standardized_grad`] or
//! [`IncrementalGp::predict_penalized_grad`], and the adjustment's own.
//! Where a part is floored or capped, its derivative is zero.

use easybo_gp::{Gp, IncrementalGp, Prediction};
use easybo_opt::BatchObjective;

/// `Φ(z)`: standard normal CDF via the Abramowitz–Stegun erf approximation
/// (max absolute error ≈ 1.5e-7, ample for acquisition ranking).
pub fn normal_cdf(z: f64) -> f64 {
    normal_cdf_slope(z).0
}

/// [`normal_cdf`] and its derivative. The slope is that of the
/// approximation (within about 1e-6 of `φ(z)`), so a gradient built on it
/// differentiates the values the acquisition actually returns, deep in
/// the tails too.
fn normal_cdf_slope(z: f64) -> (f64, f64) {
    let (e, slope) = erf(z / std::f64::consts::SQRT_2);
    (0.5 * (1.0 + e), 0.5 * slope / std::f64::consts::SQRT_2)
}

/// `φ(z)`: standard normal PDF.
pub fn normal_pdf(z: f64) -> f64 {
    (-0.5 * z * z).exp() / (2.0 * std::f64::consts::PI).sqrt()
}

/// Error function, Abramowitz–Stegun 7.1.26, with the derivative of the
/// approximation: `erf ≈ 1 − P(t)·e^{−x²}` with `t = 1/(1 + p·x)` has slope
/// `e^{−x²}·(p·t²·P′(t) + 2x·P(t))`, even in `x`.
fn erf(x: f64) -> (f64, f64) {
    const P: f64 = 0.3275911;
    const A: [f64; 5] = [
        0.254829592,
        -0.284496736,
        1.421413741,
        -1.453152027,
        1.061405429,
    ];
    let sign = if x < 0.0 { -1.0 } else { 1.0 };
    let x = x.abs();
    let t = 1.0 / (1.0 + P * x);
    let poly = t * (A[0] + t * (A[1] + t * (A[2] + t * (A[3] + t * A[4]))));
    let d_poly = A[0] + t * (2.0 * A[1] + t * (3.0 * A[2] + t * (4.0 * A[3] + t * 5.0 * A[4])));
    let gauss = (-x * x).exp();
    (
        sign * (1.0 - poly * gauss),
        gauss * (P * t * t * d_poly + 2.0 * x * poly),
    )
}

/// A pointwise score of standardized posterior moments.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Score {
    /// `(1-w)·μ + w·σ` with exploration weight `w ∈ [0, 1]`: pBO's and
    /// EasyBO's acquisition (Eqs. 4, 8 and 9).
    Weighted(f64),
    /// Expected improvement `σ·[z·Φ(z) + φ(z)]`, `z = (μ - best_z)/σ`, over
    /// the standardized incumbent `best_z` (Mockus et al.).
    Ei(f64),
    /// Upper confidence bound `μ + κ·σ` (Eq. 3): the paper's "LCB" in
    /// maximization form (after Srinivas et al.).
    Ucb(f64),
}

impl Score {
    /// The score of `(μ_z, σ²_z)`; a negative variance counts as zero.
    pub fn of(self, moments: (f64, f64)) -> f64 {
        self.with_partials(moments).0
    }

    /// The score of `(μ_z, σ²_z)` with its partial derivatives
    /// `(∂/∂μ_z, ∂/∂σ²_z)`. The variance partial is zero at `σ = 0`, where
    /// `σ = √σ²` has no derivative, and on EI's `σ < 1e-12` branch.
    fn with_partials(self, (mu_z, var_z): (f64, f64)) -> (f64, f64, f64) {
        let sigma = var_z.max(0.0).sqrt();
        // ∂σ/∂σ².
        let d_sigma = if sigma > 0.0 { 0.5 / sigma } else { 0.0 };
        match self {
            Score::Weighted(w) => ((1.0 - w) * mu_z + w * sigma, 1.0 - w, w * d_sigma),
            Score::Ucb(kappa) => (mu_z + kappa * sigma, 1.0, kappa * d_sigma),
            Score::Ei(best_z) if sigma < 1e-12 => {
                let gain = mu_z - best_z;
                (gain.max(0.0), if gain > 0.0 { 1.0 } else { 0.0 }, 0.0)
            }
            Score::Ei(best_z) => {
                // EI = σ·h(z): ∂EI/∂μ = h′(z) and ∂EI/∂σ = h(z) − z·h′(z),
                // with h′ = Φ + z·(Φ′ − φ) for the approximate Φ.
                let z = (mu_z - best_z) / sigma;
                let ((cdf, slope), pdf) = (normal_cdf_slope(z), normal_pdf(z));
                let h = z * cdf + pdf;
                let dh = cdf + z * (slope - pdf);
                (sigma * h, dh, (h - z * dh) * d_sigma)
            }
        }
    }
}

/// Where an [`Acquisition`] reads its moments from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Moments {
    /// The live model's posterior: the fitted GP, or the augmented one
    /// when pseudo-points are pushed (a constant-liar lie moves its mean).
    Posterior,
    /// The penalized pair of [`IncrementalGp::predict_penalized`]: the
    /// mean from the base `α` under the pseudo-point stack, `σ̂²` from the
    /// augmented factor.
    Penalized {
        /// Send the mean to raw units and back. Eq. 9 (EasyBO, EasyBO-SP,
        /// constrained EasyBO) reads μ through the raw-unit mean-only path
        /// (`scaler.transform(base.predict_mean(x))`); that round trip
        /// rounds, so it is repeated to keep every trajectory on the same
        /// bits. BUCB reads the mean as it comes.
        raw_round_trip: bool,
    },
}

/// A Local Penalization exclusion cone around an already-selected batch
/// member: its unit coordinates and standardized moments.
#[derive(Debug, Clone)]
pub(crate) struct Cone {
    pub(crate) center: Vec<f64>,
    pub(crate) mu_z: f64,
    pub(crate) sigma_z: f64,
}

/// A per-point term applied after scoring, at the point's unit
/// coordinates.
#[derive(Clone, Copy)]
pub(crate) enum Adjustment<'a> {
    /// The score as is.
    None,
    /// pHCBO (Eq. 6): minus `(Π_j exp[(d/d_j)^10])^(1/|hist|)` against a
    /// weight index's recent queries, in log space to avoid overflow.
    Coverage {
        history: &'a [Vec<f64>],
        distance: f64,
    },
    /// Local Penalization (González et al.): `ln` of the score plus
    /// `ln Φ(z_j)`, `z_j = (L·‖x − x_j‖ − best_z + μ_j) / (√2·σ_j)`, per
    /// cone.
    LocalPenalties {
        cones: &'a [Cone],
        lipschitz: f64,
        best_z: f64,
    },
    /// Constrained EasyBO: plus `Σ_j ln P(c_j(x) ≥ 0)` over the constraint
    /// GPs, each probability floored at 1e-12. The weighted score can be
    /// negative, so the product with the feasibility probability is taken
    /// in log space as a shift that preserves ordering.
    Feasibility(&'a [&'a Gp]),
}

/// Euclidean distance between two points.
fn distance(a: &[f64], b: &[f64]) -> f64 {
    a.iter()
        .zip(b)
        .map(|(p, q)| (p - q) * (p - q))
        .sum::<f64>()
        .sqrt()
}

/// `grad += scale · (u − center)`.
fn add_scaled_offset(grad: &mut [f64], scale: f64, u: &[f64], center: &[f64]) {
    for ((g, a), b) in grad.iter_mut().zip(u).zip(center) {
        *g += scale * (a - b);
    }
}

/// `ln P(c(u) ≥ 0)` under the constraint GP, the probability floored at
/// 1e-12; with `grad`, adds its gradient there (zero on the floor and
/// where the constraint's σ < 1e-12 makes the probability a step).
fn log_feasibility(gp: &Gp, u: &[f64], grad: Option<&mut [f64]>) -> f64 {
    let scaler = gp.scaler();
    let moments = grad.as_ref().map(|_| gp.predict_standardized_grad(u));
    let (mean_z, var_z) = moments
        .as_ref()
        .map_or_else(|| gp.predict_standardized(u), |m| (m.mean, m.var));
    // `Gp::predict`'s raw-unit conversion.
    let pred = Prediction {
        mean: scaler.inverse(mean_z),
        variance: scaler.inverse_variance(var_z),
    };
    let sigma = pred.std();
    if sigma < 1e-12 {
        return if pred.mean >= 0.0 { 1.0f64 } else { 0.0 }.max(1e-12).ln();
    }
    let r = pred.mean / sigma;
    let (probability, slope) = normal_cdf_slope(r);
    if let (Some(grad), Some(m)) = (grad, moments) {
        if probability > 1e-12 {
            // r = μ/σ in raw units: μ = s·μ_z + m, σ = s·σ_z.
            let std = scaler.std();
            let scale = slope / probability;
            for ((g, dm), dv) in grad.iter_mut().zip(&m.d_mean).zip(&m.d_var) {
                let d_sigma = std * std * dv / (2.0 * sigma);
                *g += scale * (std * dm - r * d_sigma) / sigma;
            }
        }
    }
    probability.max(1e-12).ln()
}

impl Adjustment<'_> {
    /// `score` adjusted at the unit point `u`.
    pub(crate) fn apply(self, score: f64, u: &[f64]) -> f64 {
        self.adjust(score, u, None)
    }

    /// [`Adjustment::apply`]; with `grad` holding the score's gradient at
    /// `u`, leaves the adjusted score's gradient there.
    fn adjust(self, score: f64, u: &[f64], mut grad: Option<&mut [f64]>) -> f64 {
        match self {
            Adjustment::None | Adjustment::Coverage { history: [], .. } => score,
            Adjustment::Coverage {
                history,
                distance: d,
            } => {
                let log_sum: f64 = history
                    .iter()
                    .map(|past| (d / distance(past, u).max(1e-9)).powi(10).min(700.0))
                    .fold(0.0, |acc, t| acc + t);
                let mean = log_sum / history.len() as f64;
                let penalty = mean.min(700.0).exp();
                if let (Some(grad), true) = (grad, mean < 700.0) {
                    // Each term tⱼ = (d/rⱼ)^10 has ∇tⱼ = −10·tⱼ·(u − xⱼ)/rⱼ².
                    for past in history {
                        let r = distance(past, u);
                        let t = (d / r.max(1e-9)).powi(10);
                        if r > 1e-9 && t < 700.0 {
                            let scale = penalty * 10.0 * t / (r * r * history.len() as f64);
                            add_scaled_offset(grad, scale, u, past);
                        }
                    }
                }
                score - penalty
            }
            Adjustment::LocalPenalties {
                cones,
                lipschitz,
                best_z,
            } => {
                if let Some(grad) = grad.as_deref_mut() {
                    let inv = if score > 1e-300 { 1.0 / score } else { 0.0 };
                    grad.iter_mut().for_each(|g| *g *= inv);
                }
                cones.iter().fold(score.max(1e-300).ln(), |acq, cone| {
                    let r = distance(&cone.center, u);
                    let spread = std::f64::consts::SQRT_2 * cone.sigma_z.max(1e-9);
                    let z = (lipschitz * r - best_z + cone.mu_z) / spread;
                    let (cdf, slope) = normal_cdf_slope(z);
                    if let (Some(grad), true) = (grad.as_deref_mut(), cdf > 1e-300 && r > 0.0) {
                        let scale = slope / cdf * lipschitz / (spread * r);
                        add_scaled_offset(grad, scale, u, &cone.center);
                    }
                    acq + cdf.max(1e-300).ln()
                })
            }
            Adjustment::Feasibility(gps) => {
                let log_pof = gps.iter().fold(0.0, |acc, gp| {
                    acc + log_feasibility(gp, u, grad.as_deref_mut())
                });
                score + log_pof
            }
        }
    }
}

/// One acquisition objective over an [`IncrementalGp`]: a [`Score`] of
/// the moments a [`Moments`] source reads, plus the policy's per-point
/// adjustment (none when built with [`Acquisition::new`]).
///
/// # Example
///
/// ```
/// use easybo::acquisition::{Acquisition, Moments, Score};
/// use easybo_gp::{Gp, GpConfig, IncrementalGp};
/// use easybo_opt::BatchObjective;
///
/// # fn main() -> Result<(), easybo_gp::GpError> {
/// let x = vec![vec![0.0], vec![1.0]];
/// let y = vec![0.0, 1.0];
/// let model = IncrementalGp::new(Gp::fit(x, y, GpConfig::default())?);
/// let best_z = model.gp().scaler().transform(1.0);
/// let ei = Acquisition::new(&model, Score::Ei(best_z), Moments::Posterior);
/// // Unvisited territory has positive EI; the batched path agrees bit
/// // for bit with the scalar one.
/// let probes = vec![vec![0.25], vec![0.5], vec![0.75]];
/// let batch = ei.eval_batch(&probes);
/// for (p, v) in probes.iter().zip(&batch) {
///     assert!(*v >= 0.0);
///     assert_eq!(v.to_bits(), ei.eval(p).to_bits());
/// }
/// # Ok(())
/// # }
/// ```
#[derive(Clone, Copy)]
pub struct Acquisition<'a> {
    model: &'a IncrementalGp,
    score: Score,
    moments: Moments,
    adjustment: Adjustment<'a>,
}

impl<'a> Acquisition<'a> {
    /// `score` of the moments `moments` reads from `model`.
    pub fn new(model: &'a IncrementalGp, score: Score, moments: Moments) -> Self {
        Acquisition {
            model,
            score,
            moments,
            adjustment: Adjustment::None,
        }
    }

    /// The same acquisition with `adjustment` applied after scoring.
    pub(crate) fn adjusted(self, adjustment: Adjustment<'a>) -> Self {
        Acquisition { adjustment, ..self }
    }

    /// The mean as the score reads it (see [`Moments::Penalized`]). The
    /// round trip is the identity up to rounding, so its derivative is 1.
    fn score_mean(&self, mu_z: f64) -> f64 {
        match self.moments {
            Moments::Penalized {
                raw_round_trip: true,
            } => {
                let scaler = self.model.gp().scaler();
                scaler.transform(scaler.inverse(mu_z))
            }
            _ => mu_z,
        }
    }

    /// Scores one `(μ_z, σ²_z)` pair read at `u`.
    fn finish(&self, (mu_z, var_z): (f64, f64), u: &[f64]) -> f64 {
        let score = self.score.of((self.score_mean(mu_z), var_z));
        self.adjustment.apply(score, u)
    }
}

impl BatchObjective for Acquisition<'_> {
    fn eval(&self, u: &[f64]) -> f64 {
        let moments = match self.moments {
            Moments::Posterior => self.model.gp().predict_standardized(u),
            Moments::Penalized { .. } => self.model.predict_penalized(u),
        };
        self.finish(moments, u)
    }

    fn eval_batch(&self, us: &[Vec<f64>]) -> Vec<f64> {
        let moments = match self.moments {
            Moments::Posterior => self.model.gp().predict_standardized_batch(us),
            Moments::Penalized { .. } => self.model.predict_penalized_batch(us),
        };
        moments
            .into_iter()
            .zip(us)
            .map(|(m, u)| self.finish(m, u))
            .collect()
    }

    fn eval_grad(&self, u: &[f64], grad: &mut [f64]) -> f64 {
        let m = match self.moments {
            Moments::Posterior => self.model.gp().predict_standardized_grad(u),
            Moments::Penalized { .. } => self.model.predict_penalized_grad(u),
        };
        let (score, d_mu, d_var) = self.score.with_partials((self.score_mean(m.mean), m.var));
        for ((g, dm), dv) in grad.iter_mut().zip(&m.d_mean).zip(&m.d_var) {
            *g = d_mu * dm + d_var * dv;
        }
        self.adjustment.adjust(score, u, Some(grad))
    }
}

/// The weighted acquisition of pBO/EasyBO (Eqs. 4 and 8):
/// `α(x, w) = (1-w)·μ(x) + w·σ(x)` in standardized space.
pub fn weighted(gp: &Gp, x: &[f64], w: f64) -> f64 {
    Score::Weighted(w).of(gp.predict_standardized(x))
}

#[cfg(test)]
mod tests {
    use super::*;
    use easybo_gp::{GpConfig, KernelFamily};

    /// Reference Eq. 9 over two models: mean from the *base* GP through
    /// the O(n·d) mean-only path, `σ̂` from the *augmented* GP (busy
    /// points hallucinated by [`Gp::augment`]).
    fn weighted_penalized(base: &Gp, augmented: &Gp, x: &[f64], w: f64) -> f64 {
        let mu_z = base.scaler().transform(base.predict_mean(x));
        let (_, var_hat) = augmented.predict_standardized(x);
        Score::Weighted(w).of((mu_z, var_hat))
    }

    /// Expected improvement over a raw-unit incumbent on `gp`'s posterior.
    fn ei(gp: &Gp, x: &[f64], best: f64) -> f64 {
        Score::Ei(gp.scaler().transform(best)).of(gp.predict_standardized(x))
    }

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
            let ei = ei(&gp, &[q], best);
            assert!(ei >= 0.0, "EI({q}) = {ei}");
        }
        // At the incumbent with ~zero variance EI is ~0.
        assert!(ei(&gp, &[0.5], best) < 1e-3);
    }

    #[test]
    fn ei_prefers_unexplored_over_known_bad() {
        let gp = toy_gp();
        let far = ei(&gp, &[2.0], 1.0);
        let known_bad = ei(&gp, &[0.0], 1.0);
        assert!(far > known_bad);
    }

    #[test]
    fn ucb_increases_with_kappa_where_uncertain() {
        let gp = toy_gp();
        let q = [3.0]; // far from data: high sigma
        let ucb = |kappa| Score::Ucb(kappa).of(gp.predict_standardized(&q));
        assert!(ucb(2.0) > ucb(0.1));
        // With kappa=0, UCB is the standardized mean.
        let (mu, _) = gp.predict_standardized(&q);
        assert!((ucb(0.0) - mu).abs() < 1e-12);
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
        let plain = IncrementalGp::new(toy_gp());
        let mut stacked = IncrementalGp::new(toy_gp());
        for b in [vec![0.4], vec![1.2]] {
            stacked.push_pseudo_mean(b).unwrap();
        }
        let constraint = toy_gp();
        let constraints = [&constraint, &constraint];
        let history = vec![vec![0.45], vec![0.8]];
        let cones = vec![
            Cone {
                center: vec![0.3],
                mu_z: 0.2,
                sigma_z: 0.4,
            },
            Cone {
                center: vec![1.1],
                mu_z: -0.5,
                sigma_z: 1e-12,
            },
        ];
        let best_z = toy_gp().scaler().transform(1.0);
        let scores = [
            Score::Weighted(0.0),
            Score::Weighted(0.35),
            Score::Weighted(1.0),
            Score::Ei(best_z),
            Score::Ucb(2.0),
        ];
        let sources = [
            Moments::Posterior,
            Moments::Penalized {
                raw_round_trip: true,
            },
            Moments::Penalized {
                raw_round_trip: false,
            },
        ];
        let adjustments = [
            Adjustment::None,
            Adjustment::Coverage {
                history: &[],
                distance: 0.1,
            },
            Adjustment::Coverage {
                history: &history,
                distance: 0.1,
            },
            Adjustment::LocalPenalties {
                cones: &cones,
                lipschitz: 2.5,
                best_z,
            },
            Adjustment::Feasibility(&constraints),
        ];
        // 11 queries: two full blocks of four plus the `m mod 4` tail.
        let queries: Vec<Vec<f64>> = (0..11).map(|i| vec![i as f64 * 0.17 - 0.3]).collect();
        for model in [&plain, &stacked] {
            for score in scores {
                for moments in sources {
                    for adjustment in adjustments {
                        let acq = Acquisition::new(model, score, moments).adjusted(adjustment);
                        let batch = acq.eval_batch(&queries);
                        assert_eq!(batch.len(), queries.len());
                        for (i, q) in queries.iter().enumerate() {
                            // Exact equality: the batch path must not
                            // perturb a bit.
                            assert_eq!(
                                batch[i].to_bits(),
                                acq.eval(q).to_bits(),
                                "{score:?} {moments:?} at {i}, {} pseudo-points",
                                model.n_pseudo()
                            );
                        }
                    }
                }
            }
        }
        // The plain weighted score is the public scalar helper.
        let acq = Acquisition::new(&plain, Score::Weighted(0.35), Moments::Posterior);
        for q in &queries {
            assert_eq!(
                acq.eval(q).to_bits(),
                weighted(plain.gp(), q, 0.35).to_bits()
            );
        }
    }

    const FAMILIES: [KernelFamily; 4] = [
        KernelFamily::SquaredExponential,
        KernelFamily::Matern52,
        KernelFamily::Matern32,
        KernelFamily::RationalQuadratic,
    ];

    /// A 2-d GP under fixed hyperparameters on a 3×3 grid plus two
    /// off-grid points; `log_noise` -45 makes it interpolate exactly.
    fn grid_gp(family: KernelFamily, log_noise: f64, offset: f64) -> Gp {
        let mut x: Vec<Vec<f64>> = (0..9)
            .map(|i| vec![(i % 3) as f64 * 0.4 + 0.1, (i / 3) as f64 * 0.4 + 0.1])
            .collect();
        x.extend([vec![0.33, 0.71], vec![0.62, 0.28]]);
        let y = x
            .iter()
            .map(|p| (3.0 * p[0]).sin() + p[0] * p[1] + offset)
            .collect();
        Gp::fit_with_params(x, y, family, vec![-1.2, -0.9, 0.2], log_noise).unwrap()
    }

    /// Central differences of `acq` at `u`, step 1e-6.
    fn central_differences(acq: &Acquisition<'_>, u: &[f64]) -> Vec<f64> {
        let h = 1e-6;
        (0..u.len())
            .map(|j| {
                let (mut up, mut down) = (u.to_vec(), u.to_vec());
                up[j] += h;
                down[j] -= h;
                (acq.eval(&up) - acq.eval(&down)) / (2.0 * h)
            })
            .collect()
    }

    /// `eval_grad`'s value has `eval`'s bits, and its gradient matches
    /// central differences.
    fn assert_gradient(acq: &Acquisition<'_>, u: &[f64], at: &str) -> Vec<f64> {
        let mut grad = vec![f64::NAN; u.len()];
        let value = acq.eval_grad(u, &mut grad);
        assert_eq!(value.to_bits(), acq.eval(u).to_bits(), "{at}: value");
        let fd = central_differences(acq, u);
        for (j, (g, want)) in grad.iter().zip(&fd).enumerate() {
            let tol = 1e-5 + 1e-4 * want.abs();
            assert!(
                (g - want).abs() <= tol,
                "{at} coordinate {j}: {g} vs {want}"
            );
        }
        grad
    }

    #[test]
    fn gradients_match_central_differences_for_every_part() {
        let queries = [vec![0.27, 0.45], vec![0.81, 0.93], vec![0.55, 0.12]];
        let history = vec![vec![0.3, 0.52], vec![0.71, 0.35]];
        let cones = vec![
            Cone {
                center: vec![0.2, 0.4],
                mu_z: 0.3,
                sigma_z: 0.5,
            },
            Cone {
                center: vec![0.7, 0.8],
                mu_z: -0.2,
                sigma_z: 0.8,
            },
        ];
        for family in FAMILIES {
            let constraint_a = grid_gp(family, (1e-4f64).ln(), -0.2);
            let constraint_b = grid_gp(family, (1e-4f64).ln(), 0.4);
            let constraints = [&constraint_a, &constraint_b];
            let plain = IncrementalGp::new(grid_gp(family, (1e-4f64).ln(), 0.0));
            let mut stacked = plain.clone();
            stacked.push_pseudo_mean(vec![0.4, 0.6]).unwrap();
            stacked.push_pseudo_lie(vec![0.9, 0.2], -1.0).unwrap();
            // An incumbent below the peak keeps EI out of its far tail,
            // where its value rounds too coarsely for central differences.
            let best_z = plain.gp().scaler().transform(0.6);
            let scores = [
                Score::Weighted(0.0),
                Score::Weighted(0.35),
                Score::Weighted(1.0),
                Score::Ei(best_z),
                Score::Ucb(2.0),
            ];
            let sources = [
                Moments::Posterior,
                Moments::Penalized {
                    raw_round_trip: true,
                },
                Moments::Penalized {
                    raw_round_trip: false,
                },
            ];
            let adjustments = [
                Adjustment::None,
                Adjustment::Coverage {
                    history: &history,
                    distance: 0.06,
                },
                Adjustment::LocalPenalties {
                    cones: &cones,
                    lipschitz: 2.5,
                    best_z,
                },
                Adjustment::Feasibility(&constraints),
            ];
            for model in [&plain, &stacked] {
                for score in scores {
                    for moments in sources {
                        for (k, adjustment) in adjustments.iter().enumerate() {
                            let acq = Acquisition::new(model, score, moments).adjusted(*adjustment);
                            for (i, u) in queries.iter().enumerate() {
                                let at = format!(
                                    "{family:?} {} pseudo {score:?} {moments:?} adjustment {k} query {i}",
                                    model.n_pseudo()
                                );
                                assert_gradient(&acq, u, &at);
                            }
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn gradients_are_finite_and_flat_across_the_floors_and_caps() {
        let near = IncrementalGp::new(grid_gp(KernelFamily::SquaredExponential, -45.0, 0.0));
        let on_data = [0.5, 0.5];
        let best_low = near.gp().scaler().transform(-5.0);
        let best_high = near.gp().scaler().transform(5.0);

        // σ → 0 on a training point of a noiseless model: the variance
        // floor holds the σ partials at zero, so the gradient is finite,
        // and just off the point it still matches central differences.
        for score in [Score::Weighted(0.5), Score::Ucb(2.0), Score::Ei(best_low)] {
            let acq = Acquisition::new(&near, score, Moments::Posterior);
            let mut grad = vec![f64::NAN; 2];
            acq.eval_grad(&on_data, &mut grad);
            assert!(grad.iter().all(|g| g.is_finite()), "{score:?}: {grad:?}");
            assert_gradient(
                &acq,
                &[0.5 + 3e-3, 0.5 - 2e-3],
                &format!("{score:?} near data"),
            );
        }

        // EI's σ < 1e-12 branch: the gain's slope, or zero below the incumbent.
        let (_, var) = near.gp().predict_standardized(&on_data);
        assert!(var.sqrt() < 1e-12, "σ² = {var}");
        let mean_grad = near.gp().predict_standardized_grad(&on_data).d_mean;
        for (best, want) in [(best_low, mean_grad), (best_high, vec![0.0; 2])] {
            let acq = Acquisition::new(&near, Score::Ei(best), Moments::Posterior);
            let mut grad = vec![f64::NAN; 2];
            acq.eval_grad(&on_data, &mut grad);
            assert_eq!(grad, want);
        }

        let model = IncrementalGp::new(grid_gp(KernelFamily::Matern52, (1e-4f64).ln(), 0.0));
        let weighted = Acquisition::new(&model, Score::Weighted(0.0), Moments::Posterior);
        let u = [0.08, 0.12];
        let mut score_grad = vec![0.0; 2];
        let score = weighted.eval_grad(&u, &mut score_grad);

        // Coverage's 700 cap: a query next to a past point saturates the
        // penalty, which then has no slope (e^700 also swamps the score,
        // so central differences read zero there).
        let history = vec![vec![u[0], u[1] + 1e-4]];
        let capped = weighted.adjusted(Adjustment::Coverage {
            history: &history,
            distance: 0.2,
        });
        let mut grad = vec![f64::NAN; 2];
        let value = capped.eval_grad(&u, &mut grad);
        assert_eq!(value.to_bits(), capped.eval(&u).to_bits());
        assert_eq!(grad, score_grad);

        // LP's 1e-300 floor on a negative score: only the cones move it.
        assert!(score < 0.0, "score {score}");
        let cones = vec![Cone {
            center: vec![0.3, 0.3],
            mu_z: 0.1,
            sigma_z: 0.6,
        }];
        let lp = weighted.adjusted(Adjustment::LocalPenalties {
            cones: &cones,
            lipschitz: 1.5,
            best_z: 0.5,
        });
        assert_gradient(&lp, &u, "LP floor");
        let far = vec![Cone {
            center: vec![0.3, 0.3],
            mu_z: -50.0,
            sigma_z: 1e-3,
        }];
        let floored = weighted.adjusted(Adjustment::LocalPenalties {
            cones: &far,
            lipschitz: 1.5,
            best_z: 0.5,
        });
        assert_eq!(assert_gradient(&floored, &u, "LP floors"), vec![0.0; 2]);

        // The PoF 1e-12 floor: a constraint far below zero everywhere.
        let infeasible = grid_gp(KernelFamily::Matern52, (1e-4f64).ln(), -1e3);
        let constraints = [&infeasible];
        let pof = weighted.adjusted(Adjustment::Feasibility(&constraints));
        assert_eq!(assert_gradient(&pof, &u, "PoF floor"), score_grad);
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
        let eq9 = Moments::Penalized {
            raw_round_trip: true,
        };
        for w in [0.0, 0.35, 1.0] {
            let fast = Acquisition::new(&inc, Score::Weighted(w), eq9);
            let fast_batch = fast.eval_batch(&queries);
            for (i, q) in queries.iter().enumerate() {
                let cloned = weighted_penalized(&gp, &aug, q, w);
                assert_eq!(
                    cloned.to_bits(),
                    fast.eval(q).to_bits(),
                    "scalar at {i}, w = {w}"
                );
                assert_eq!(
                    cloned.to_bits(),
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
        assert!(ei(&gp, &[0.55], 0.0).is_finite());
    }
}
