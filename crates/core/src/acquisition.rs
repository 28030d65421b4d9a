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
//! Its [`BatchObjective::eval`] reads the scalar posterior (Nelder–Mead
//! refinement) and its [`BatchObjective::eval_batch`] the batched one
//! (probe scoring). The two agree bit for bit.

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
    pub fn of(self, (mu_z, var_z): (f64, f64)) -> f64 {
        let sigma = var_z.max(0.0).sqrt();
        match self {
            Score::Weighted(w) => (1.0 - w) * mu_z + w * sigma,
            Score::Ucb(kappa) => mu_z + kappa * sigma,
            Score::Ei(best_z) if sigma < 1e-12 => (mu_z - best_z).max(0.0),
            Score::Ei(best_z) => {
                let z = (mu_z - best_z) / sigma;
                sigma * (z * normal_cdf(z) + normal_pdf(z))
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

/// Probability that the constraint GP predicts `c(x) ≥ 0`.
fn feasibility_probability(gp: &Gp, u: &[f64]) -> f64 {
    let pred = gp.predict(u);
    let sigma = pred.std();
    if sigma < 1e-12 {
        return if pred.mean >= 0.0 { 1.0 } else { 0.0 };
    }
    normal_cdf(pred.mean / sigma)
}

impl Adjustment<'_> {
    /// `score` adjusted at the unit point `u`.
    pub(crate) fn apply(self, score: f64, u: &[f64]) -> f64 {
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
                score - (log_sum / history.len() as f64).min(700.0).exp()
            }
            Adjustment::LocalPenalties {
                cones,
                lipschitz,
                best_z,
            } => cones.iter().fold(score.max(1e-300).ln(), |acq, cone| {
                let z = (lipschitz * distance(&cone.center, u) - best_z + cone.mu_z)
                    / (std::f64::consts::SQRT_2 * cone.sigma_z.max(1e-9));
                acq + normal_cdf(z).max(1e-300).ln()
            }),
            Adjustment::Feasibility(gps) => {
                let log_pof = gps.iter().fold(0.0, |acc, gp| {
                    acc + feasibility_probability(gp, u).max(1e-12).ln()
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

    /// Scores one `(μ_z, σ²_z)` pair read at `u`.
    fn finish(&self, (mu_z, var_z): (f64, f64), u: &[f64]) -> f64 {
        let mu_z = match self.moments {
            Moments::Penalized {
                raw_round_trip: true,
            } => {
                let scaler = self.model.gp().scaler();
                scaler.transform(scaler.inverse(mu_z))
            }
            _ => mu_z,
        };
        self.adjustment.apply(self.score.of((mu_z, var_z)), u)
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
