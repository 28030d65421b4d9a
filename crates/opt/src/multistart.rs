//! Multi-start acquisition maximizer: dense random probing followed by a
//! bounded L-BFGS refinement of the top seeds along the objective's
//! gradient.
//!
//! Acquisition surfaces are cheap to evaluate (a GP posterior lookup) but
//! multimodal; the standard recipe — and the one used throughout this
//! reproduction — is to scatter a large number of probes, keep the best few,
//! and polish each with a local search.

use easybo_telemetry::Telemetry;
use rand::Rng;

use crate::lbfgs::{Lbfgs, LbfgsConfig};
use crate::parallel::{self, Parallelism};
use crate::sampling;
use crate::Bounds;

/// Result of a maximization: the argmax and the attained value.
#[derive(Debug, Clone, PartialEq)]
pub struct Optimum {
    /// Location of the best point found.
    pub x: Vec<f64>,
    /// Objective value at `x`.
    pub value: f64,
}

/// An acquisition objective that scores whole candidate batches at once
/// and single points with their gradient.
///
/// Implementations backed by a GP posterior amortize the `K*` assembly
/// and triangular solves over the whole probe set. They must return one
/// value per candidate, with each value independent of the batch
/// composition: that independence is what lets
/// [`MultiStartMaximizer::maximize_batched`] split a batch across threads
/// without changing any result, and what makes a single point a batch of
/// one.
pub trait BatchObjective: Sync {
    /// Scores a batch of points, one value per input in order.
    fn eval_batch(&self, xs: &[Vec<f64>]) -> Vec<f64>;

    /// Scores a single point and writes the gradient of the score at
    /// `x` into `grad` (`grad.len() == x.len()`). The value must equal
    /// [`BatchObjective::eval_batch`]'s at `x` bit for bit: the refinement
    /// reports it.
    fn eval_grad(&self, x: &[f64], grad: &mut [f64]) -> f64;
}

/// `-inf` for non-finite values, so NaN regions lose every comparison.
fn safe(v: f64) -> f64 {
    if v.is_finite() {
        v
    } else {
        f64::NEG_INFINITY
    }
}

/// Pairs candidates with their scores, keeps the best `keep` (stable sort,
/// descending score), preserving probe order among ties.
fn top_starts(candidates: Vec<Vec<f64>>, values: Vec<f64>, keep: usize) -> Vec<(Vec<f64>, f64)> {
    let mut scored: Vec<(Vec<f64>, f64)> = candidates.into_iter().zip(values).collect();
    scored.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap_or(std::cmp::Ordering::Equal));
    scored.truncate(keep);
    scored
}

/// Deterministic reduction over the refined starts: begin from the best
/// probe, scan in start order, replace only on a strict improvement — so
/// ties always resolve to the earliest index no matter where each refinement
/// ran.
fn reduce(probe_best: &(Vec<f64>, f64), refined: Vec<(Vec<f64>, f64)>) -> Optimum {
    let mut best = Optimum {
        x: probe_best.0.clone(),
        value: probe_best.1,
    };
    for (x, v) in refined {
        if v > best.value {
            best = Optimum { x, value: v };
        }
    }
    best
}

/// Random-probe + gradient-refinement **maximizer** for acquisition
/// functions.
///
/// # Example
///
/// ```
/// use easybo_opt::{BatchObjective, Bounds, MultiStartMaximizer, Parallelism};
/// use rand::SeedableRng;
///
/// /// `-(x - 1.5)²` with its derivative.
/// struct Parabola;
/// impl BatchObjective for Parabola {
///     fn eval_batch(&self, xs: &[Vec<f64>]) -> Vec<f64> {
///         xs.iter().map(|x| -(x[0] - 1.5).powi(2)).collect()
///     }
///     fn eval_grad(&self, x: &[f64], grad: &mut [f64]) -> f64 {
///         grad[0] = -2.0 * (x[0] - 1.5);
///         -(x[0] - 1.5).powi(2)
///     }
/// }
///
/// # fn main() -> Result<(), easybo_opt::OptError> {
/// let bounds = Bounds::new(vec![(-3.0, 3.0)])?;
/// let maximizer = MultiStartMaximizer::new(128, 3, 30);
/// let mut rng = rand::rngs::StdRng::seed_from_u64(11);
/// let best = maximizer.maximize_batched(&bounds, &mut rng, Parallelism::sequential(), &Parabola);
/// assert!((best.x[0] - 1.5).abs() < 1e-6);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct MultiStartMaximizer {
    probes: usize,
    starts: usize,
    refine_evals: usize,
}

impl MultiStartMaximizer {
    /// Creates a maximizer that scatters `probes` random points, then
    /// refines the best `starts` of them with bounded L-BFGS runs of at
    /// most `refine_evals` value-and-gradient evaluations each.
    ///
    /// Zero values are clipped up to 1.
    pub fn new(probes: usize, starts: usize, refine_evals: usize) -> Self {
        MultiStartMaximizer {
            probes: probes.max(1),
            starts: starts.max(1),
            refine_evals: refine_evals.max(1),
        }
    }

    /// Number of random probes per call.
    pub fn probes(&self) -> usize {
        self.probes
    }

    /// Number of refinement starts per call.
    pub fn starts(&self) -> usize {
        self.starts
    }

    /// Probe phase: Latin hypercube for coverage + pure uniform for tails.
    fn candidates<R: Rng + ?Sized>(&self, bounds: &Bounds, rng: &mut R) -> Vec<Vec<f64>> {
        let mut candidates = sampling::latin_hypercube(bounds, self.probes / 2, rng);
        candidates.extend(sampling::uniform(
            bounds,
            self.probes - candidates.len(),
            rng,
        ));
        candidates
    }

    /// Maximizes `f` over `bounds`: scores the probe batch through
    /// [`BatchObjective::eval_batch`], then refines the best starts along
    /// [`BatchObjective::eval_grad`] on `parallelism` worker threads.
    /// Non-finite objective values are treated as `-inf`.
    ///
    /// Returns the **same `Optimum`, bit for bit, at every parallelism
    /// level**: probe values are independent of how the batch is chunked,
    /// start selection is a stable sort on those values, each refinement
    /// depends only on its start, and the reduction scans refined starts
    /// in index order with strict-improvement ties.
    pub fn maximize_batched<R, F>(
        &self,
        bounds: &Bounds,
        rng: &mut R,
        parallelism: Parallelism,
        f: &F,
    ) -> Optimum
    where
        R: Rng + ?Sized,
        F: BatchObjective + ?Sized,
    {
        self.maximize_batched_traced(bounds, rng, parallelism, f, &Telemetry::disabled())
    }

    /// [`MultiStartMaximizer::maximize_batched`] with a telemetry
    /// handle: the probe-scoring phase is wrapped in a
    /// `batch_predict` span and the local refinement phase in an
    /// `nm_refine` span (the name predates the gradient refiner and is
    /// kept so recorded traces stay comparable), both opened on the
    /// calling thread (never inside the worker closures) so span ids stay
    /// deterministic at every parallelism level.
    pub fn maximize_batched_traced<R, F>(
        &self,
        bounds: &Bounds,
        rng: &mut R,
        parallelism: Parallelism,
        f: &F,
        telemetry: &Telemetry,
    ) -> Optimum
    where
        R: Rng + ?Sized,
        F: BatchObjective + ?Sized,
    {
        let candidates = self.candidates(bounds, rng);
        let workers = parallelism.threads();
        let raw: Vec<f64> = {
            let _span = telemetry.span("batch_predict");
            if workers <= 1 || candidates.len() < 2 * workers {
                f.eval_batch(&candidates)
            } else {
                // Chunked probe scoring: each worker gets one contiguous
                // sub-batch; per-point values do not depend on batch
                // composition, so chunking cannot change them.
                let chunk = candidates.len().div_ceil(workers);
                let chunks: Vec<&[Vec<f64>]> = candidates.chunks(chunk).collect();
                parallel::parallel_map(parallelism, chunks, |_, c| f.eval_batch(c))
                    .into_iter()
                    .flatten()
                    .collect()
            }
        };
        assert_eq!(
            raw.len(),
            candidates.len(),
            "eval_batch must return one value per candidate"
        );
        let values: Vec<f64> = raw.into_iter().map(safe).collect();
        let starts = top_starts(candidates, values, self.starts);

        let lbfgs = Lbfgs::new(LbfgsConfig {
            max_iters: self.refine_evals,
            ..LbfgsConfig::default()
        })
        .expect("static L-BFGS config is valid");
        let lbfgs = &lbfgs;
        let refined = {
            let _span = telemetry.span("nm_refine");
            parallel::parallel_map(parallelism, starts.clone(), |_, (x0, _)| {
                // L-BFGS minimizes: hand it the negated score. Negation is
                // exact, so the value comes back with `eval_batch`'s bits.
                let (x, neg_v) = lbfgs.minimize_in(bounds, x0, self.refine_evals, |p, g| {
                    let v = f.eval_grad(p, g);
                    for gi in g.iter_mut() {
                        *gi = -*gi;
                    }
                    -v
                });
                (x, safe(-neg_v))
            })
        };
        reduce(&starts[0], refined)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use std::sync::atomic::{AtomicUsize, Ordering};

    fn rng(seed: u64) -> rand::rngs::StdRng {
        rand::rngs::StdRng::seed_from_u64(seed)
    }

    /// A test objective from a value and a gradient closure.
    struct Analytic<F, G>(F, G);

    impl<F, G> BatchObjective for Analytic<F, G>
    where
        F: Fn(&[f64]) -> f64 + Sync,
        G: Fn(&[f64], &mut [f64]) + Sync,
    {
        fn eval_batch(&self, xs: &[Vec<f64>]) -> Vec<f64> {
            xs.iter().map(|x| (self.0)(x)).collect()
        }

        fn eval_grad(&self, x: &[f64], grad: &mut [f64]) -> f64 {
            (self.1)(x, grad);
            (self.0)(x)
        }
    }

    /// `-Σ (xᵢ - cᵢ)²` with its gradient.
    fn bowl(center: &'static [f64]) -> impl BatchObjective {
        Analytic(
            move |x: &[f64]| {
                -x.iter()
                    .zip(center)
                    .map(|(v, c)| (v - c).powi(2))
                    .sum::<f64>()
            },
            move |x: &[f64], g: &mut [f64]| {
                for ((gi, v), c) in g.iter_mut().zip(x).zip(center) {
                    *gi = -2.0 * (v - c);
                }
            },
        )
    }

    fn maximize(
        m: &MultiStartMaximizer,
        bounds: &Bounds,
        seed: u64,
        f: &impl BatchObjective,
    ) -> Optimum {
        m.maximize_batched(bounds, &mut rng(seed), Parallelism::sequential(), f)
    }

    #[test]
    fn finds_global_peak_among_two() {
        let bounds = Bounds::new(vec![(-4.0, 4.0)]).unwrap();
        // Two Gaussian bumps; the taller is at x = 2.
        let f = Analytic(
            |x: &[f64]| 0.8 * (-(x[0] + 2.0).powi(2)).exp() + (-(x[0] - 2.0).powi(2)).exp(),
            |x: &[f64], g: &mut [f64]| {
                g[0] = -1.6 * (x[0] + 2.0) * (-(x[0] + 2.0).powi(2)).exp()
                    - 2.0 * (x[0] - 2.0) * (-(x[0] - 2.0).powi(2)).exp();
            },
        );
        let best = maximize(&MultiStartMaximizer::new(256, 5, 30), &bounds, 1, &f);
        assert!((best.x[0] - 2.0).abs() < 1e-4, "x = {}", best.x[0]);
    }

    #[test]
    fn result_always_inside_bounds() {
        let bounds = Bounds::new(vec![(0.0, 1.0), (5.0, 6.0)]).unwrap();
        // The gradient pushes toward the corner (1, 6).
        let f = Analytic(
            |x: &[f64]| x[0] + x[1],
            |_: &[f64], g: &mut [f64]| g.fill(1.0),
        );
        let best = maximize(&MultiStartMaximizer::new(64, 3, 30), &bounds, 2, &f);
        assert_eq!(best.x, vec![1.0, 6.0]);
        assert_eq!(best.value, 7.0);
    }

    #[test]
    fn reaches_the_face_nearest_an_optimum_outside_the_box() {
        let bounds = Bounds::new(vec![(0.0, 1.0), (0.0, 1.0)]).unwrap();
        // Peak at (2, 0.25): the box optimum is (1, 0.25).
        let best = maximize(
            &MultiStartMaximizer::new(32, 2, 30),
            &bounds,
            3,
            &bowl(&[2.0, 0.25]),
        );
        assert_eq!(best.x[0], 1.0);
        assert!((best.x[1] - 0.25).abs() < 1e-6, "x = {:?}", best.x);
        assert!(bounds.contains(&best.x));
    }

    #[test]
    fn handles_all_nan_objective() {
        let bounds = Bounds::unit_cube(2).unwrap();
        let f = Analytic(
            |_: &[f64]| f64::NAN,
            |_: &[f64], g: &mut [f64]| g.fill(f64::NAN),
        );
        let best = maximize(&MultiStartMaximizer::new(16, 2, 10), &bounds, 3, &f);
        assert!(bounds.contains(&best.x));
        assert_eq!(best.value, f64::NEG_INFINITY);
    }

    #[test]
    fn walks_out_of_non_finite_regions() {
        // NaN below 0.3; the peak sits just above it, at 0.35. Starts
        // above the peak overshoot into the NaN region and back out.
        let bounds = Bounds::new(vec![(0.0, 1.0)]).unwrap();
        let f = Analytic(
            |x: &[f64]| {
                if x[0] < 0.3 {
                    f64::NAN
                } else {
                    -(x[0] - 0.35).powi(2)
                }
            },
            |x: &[f64], g: &mut [f64]| {
                g[0] = if x[0] < 0.3 {
                    f64::NAN
                } else {
                    -2.0 * (x[0] - 0.35)
                };
            },
        );
        for seed in 0..8 {
            let best = maximize(&MultiStartMaximizer::new(8, 3, 30), &bounds, seed, &f);
            assert!(best.value.is_finite(), "seed {seed}");
            assert!(
                (best.x[0] - 0.35).abs() < 1e-4,
                "seed {seed}: x = {}",
                best.x[0]
            );
        }
    }

    #[test]
    fn refinement_respects_its_budget() {
        /// Rosenbrock: far from converged after a few steps.
        fn rosenbrock(x: &[f64]) -> f64 {
            -(1.0 - x[0]).powi(2) - 100.0 * (x[1] - x[0] * x[0]).powi(2)
        }
        struct Counting(AtomicUsize);
        impl BatchObjective for Counting {
            fn eval_batch(&self, xs: &[Vec<f64>]) -> Vec<f64> {
                xs.iter().map(|x| rosenbrock(x)).collect()
            }
            fn eval_grad(&self, x: &[f64], g: &mut [f64]) -> f64 {
                self.0.fetch_add(1, Ordering::Relaxed);
                g[0] = 2.0 * (1.0 - x[0]) + 400.0 * x[0] * (x[1] - x[0] * x[0]);
                g[1] = -200.0 * (x[1] - x[0] * x[0]);
                rosenbrock(x)
            }
        }
        let bounds = Bounds::new(vec![(-2.0, 2.0), (-2.0, 2.0)]).unwrap();
        for budget in [1usize, 2, 7, 30] {
            let f = Counting(AtomicUsize::new(0));
            maximize(&MultiStartMaximizer::new(16, 3, budget), &bounds, 4, &f);
            let used = f.0.load(Ordering::Relaxed);
            assert!(used <= 3 * budget, "budget {budget}: {used} evaluations");
            assert!(used >= 3, "budget {budget}: every start evaluates once");
        }
    }

    #[test]
    fn batched_bitwise_matches_sequential_for_all_parallelism() {
        let f = Analytic(
            |x: &[f64]| (7.0 * x[0]).sin() * (5.0 * x[1]).cos() - (x[0] - 0.3).powi(2),
            |x: &[f64], g: &mut [f64]| {
                g[0] = 7.0 * (7.0 * x[0]).cos() * (5.0 * x[1]).cos() - 2.0 * (x[0] - 0.3);
                g[1] = -5.0 * (7.0 * x[0]).sin() * (5.0 * x[1]).sin();
            },
        );
        let bounds = Bounds::unit_cube(2).unwrap();
        let m = MultiStartMaximizer::new(128, 4, 30);
        let reference = maximize(&m, &bounds, 9, &f);
        for k in [1usize, 2, 8] {
            let got = m.maximize_batched(&bounds, &mut rng(9), Parallelism::new(k), &f);
            // Exact equality, not tolerance: parallelism must not change a
            // single bit of the result.
            assert_eq!(got.x, reference.x, "k = {k}");
            assert_eq!(got.value.to_bits(), reference.value.to_bits(), "k = {k}");
        }
    }

    #[test]
    fn batched_uses_eval_batch_for_probes() {
        struct Counting {
            batch_calls: AtomicUsize,
        }
        impl BatchObjective for Counting {
            fn eval_batch(&self, xs: &[Vec<f64>]) -> Vec<f64> {
                self.batch_calls.fetch_add(1, Ordering::Relaxed);
                xs.iter().map(|x| -(x[0] - 0.5).powi(2)).collect()
            }
            fn eval_grad(&self, x: &[f64], g: &mut [f64]) -> f64 {
                g[0] = -2.0 * (x[0] - 0.5);
                -(x[0] - 0.5).powi(2)
            }
        }
        let bounds = Bounds::unit_cube(1).unwrap();
        let m = MultiStartMaximizer::new(64, 2, 30);
        let obj = Counting {
            batch_calls: AtomicUsize::new(0),
        };
        let best = maximize(&m, &bounds, 5, &obj);
        assert_eq!(obj.batch_calls.load(Ordering::Relaxed), 1);
        assert!((best.x[0] - 0.5).abs() < 1e-6);
    }

    #[test]
    #[should_panic(expected = "one value per candidate")]
    fn batched_rejects_wrong_length_eval_batch() {
        struct Broken;
        impl BatchObjective for Broken {
            fn eval_batch(&self, _: &[Vec<f64>]) -> Vec<f64> {
                vec![0.0]
            }
            fn eval_grad(&self, _: &[f64], g: &mut [f64]) -> f64 {
                g.fill(0.0);
                0.0
            }
        }
        let bounds = Bounds::unit_cube(1).unwrap();
        maximize(&MultiStartMaximizer::new(16, 2, 10), &bounds, 1, &Broken);
    }

    #[test]
    fn refinement_beats_pure_probing() {
        // Very narrow peak: random probing alone rarely lands within 1e-3.
        let bounds = Bounds::new(vec![(0.0, 1.0)]).unwrap();
        let best = maximize(
            &MultiStartMaximizer::new(64, 3, 30),
            &bounds,
            4,
            &bowl(&[0.41234]),
        );
        assert!(best.value > -1e-12, "refined value {}", best.value);
    }
}
