//! Multi-start acquisition maximizer: dense random probing followed by
//! Nelder–Mead refinement of the top seeds.
//!
//! Acquisition surfaces are cheap to evaluate (a GP posterior lookup) but
//! multimodal; the standard recipe — and the one used throughout this
//! reproduction — is to scatter a large number of probes, keep the best few,
//! and polish each with a local derivative-free search.

use easybo_telemetry::Telemetry;
use rand::Rng;

use crate::nelder_mead::{NelderMead, NelderMeadConfig};
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

/// An acquisition objective that can score whole candidate batches at once.
///
/// The default [`BatchObjective::eval_batch`] just loops
/// [`BatchObjective::eval`]; implementations backed by a batched GP posterior
/// override it to amortize the `K*` assembly and triangular solves over the
/// whole probe set. Implementations must return one value per candidate,
/// with each value independent of the batch composition — that independence
/// is what lets [`MultiStartMaximizer::maximize_batched`] split a batch
/// across threads without changing any result.
pub trait BatchObjective: Sync {
    /// Scores a single point.
    fn eval(&self, x: &[f64]) -> f64;

    /// Scores a batch of points, one value per input in order.
    fn eval_batch(&self, xs: &[Vec<f64>]) -> Vec<f64> {
        xs.iter().map(|x| self.eval(x)).collect()
    }
}

/// Any thread-safe closure is a (pointwise) batch objective.
impl<F: Fn(&[f64]) -> f64 + Sync> BatchObjective for F {
    fn eval(&self, x: &[f64]) -> f64 {
        self(x)
    }
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

/// Random-probe + local-refinement **maximizer** for acquisition functions.
///
/// # Example
///
/// ```
/// use easybo_opt::{Bounds, MultiStartMaximizer};
/// use rand::SeedableRng;
///
/// # fn main() -> Result<(), easybo_opt::OptError> {
/// let bounds = Bounds::new(vec![(-3.0, 3.0)])?;
/// let maximizer = MultiStartMaximizer::new(128, 3, 80);
/// let mut rng = rand::rngs::StdRng::seed_from_u64(11);
/// let best = maximizer.maximize(&bounds, &mut rng, |x| -(x[0] - 1.5).powi(2));
/// assert!((best.x[0] - 1.5).abs() < 1e-3);
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
    /// refines the best `starts` of them with Nelder–Mead runs of
    /// `refine_evals` evaluations each.
    ///
    /// Zero values are clipped up to 1.
    pub fn new(probes: usize, starts: usize, refine_evals: usize) -> Self {
        MultiStartMaximizer {
            probes: probes.max(1),
            starts: starts.max(1),
            refine_evals: refine_evals.max(1),
        }
    }

    /// A good default for acquisition maximization in `d` dimensions:
    /// `max(512, 100·d)` probes, 5 starts, `40·d` refinement evaluations.
    pub fn for_dim(d: usize) -> Self {
        MultiStartMaximizer::new(512.max(100 * d), 5, 40 * d.max(1))
    }

    /// Number of random probes per call.
    pub fn probes(&self) -> usize {
        self.probes
    }

    /// Number of Nelder–Mead refinement starts per call.
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

    /// The Nelder–Mead refiner shared by every start.
    fn refiner(&self) -> NelderMead {
        NelderMead::new(NelderMeadConfig {
            max_evals: self.refine_evals,
            initial_step: 0.02,
            ..Default::default()
        })
        .expect("static Nelder-Mead config is valid")
    }

    /// Maximizes `f` over `bounds`, returning the best point found.
    ///
    /// Non-finite objective values are treated as `-inf`.
    pub fn maximize<R, F>(&self, bounds: &Bounds, rng: &mut R, mut f: F) -> Optimum
    where
        R: Rng + ?Sized,
        F: FnMut(&[f64]) -> f64,
    {
        let candidates = self.candidates(bounds, rng);
        let values: Vec<f64> = candidates.iter().map(|x| safe(f(x))).collect();
        let starts = top_starts(candidates, values, self.starts);

        // Refinement phase: Nelder-Mead on the negated objective.
        let nm = self.refiner();
        let refined: Vec<(Vec<f64>, f64)> = starts
            .iter()
            .map(|(x0, _)| {
                let (x, neg_v) = nm.minimize(bounds, x0.clone(), |p| -safe(f(p)));
                (x, -neg_v)
            })
            .collect();
        reduce(&starts[0], refined)
    }

    /// Like [`MultiStartMaximizer::maximize`], but scores the probe batch
    /// through [`BatchObjective::eval_batch`] and runs the Nelder–Mead
    /// refinement starts on `parallelism` worker threads.
    ///
    /// Returns the **same `Optimum`, bit for bit, at every parallelism
    /// level** (including the sequential `maximize` path, provided
    /// `eval_batch` agrees with `eval` per point): probe values are
    /// independent of how the batch is chunked, start selection is a stable
    /// sort on those values, and the reduction scans refined starts in index
    /// order with strict-improvement ties.
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
    /// `batch_predict` span and the refinement phase in an
    /// `nm_refine` span, both opened on the calling thread (never
    /// inside the worker closures) so span ids stay deterministic at
    /// every parallelism level.
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

        let nm = self.refiner();
        let nm = &nm;
        let refined = {
            let _span = telemetry.span("nm_refine");
            parallel::parallel_map(parallelism, starts.clone(), |_, (x0, _)| {
                let (x, neg_v) = nm.minimize(bounds, x0, |p| -safe(f.eval(p)));
                (x, -neg_v)
            })
        };
        reduce(&starts[0], refined)
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
    fn finds_global_peak_among_two() {
        let bounds = Bounds::new(vec![(-4.0, 4.0)]).unwrap();
        // Two Gaussian bumps; the taller is at x = 2.
        let f =
            |x: &[f64]| 0.8 * (-(x[0] + 2.0).powi(2)).exp() + 1.0 * (-(x[0] - 2.0).powi(2)).exp();
        let m = MultiStartMaximizer::new(256, 5, 100);
        let best = m.maximize(&bounds, &mut rng(1), f);
        assert!((best.x[0] - 2.0).abs() < 1e-2, "x = {}", best.x[0]);
    }

    #[test]
    fn result_always_inside_bounds() {
        let bounds = Bounds::new(vec![(0.0, 1.0), (5.0, 6.0)]).unwrap();
        let m = MultiStartMaximizer::new(64, 3, 40);
        // Gradient pushes toward the corner (1, 6).
        let best = m.maximize(&bounds, &mut rng(2), |x| x[0] + x[1]);
        assert!(bounds.contains(&best.x));
        assert!((best.x[0] - 1.0).abs() < 1e-6);
        assert!((best.x[1] - 6.0).abs() < 1e-6);
    }

    #[test]
    fn handles_all_nan_objective() {
        let bounds = Bounds::unit_cube(2).unwrap();
        let m = MultiStartMaximizer::new(16, 2, 10);
        let best = m.maximize(&bounds, &mut rng(3), |_| f64::NAN);
        assert!(bounds.contains(&best.x));
        assert_eq!(best.value, f64::NEG_INFINITY);
    }

    #[test]
    fn for_dim_scales_probes() {
        let small = MultiStartMaximizer::for_dim(1);
        let large = MultiStartMaximizer::for_dim(10);
        assert!(large.probes() >= small.probes());
    }

    #[test]
    fn batched_bitwise_matches_sequential_for_all_parallelism() {
        // Multimodal surface with plateaus to exercise tie-breaking.
        let f = |x: &[f64]| {
            (7.0 * x[0]).sin() * (5.0 * x[1]).cos() - (x[0] - 0.3).powi(2) + x[1].floor()
        };
        let bounds = Bounds::unit_cube(2).unwrap();
        let m = MultiStartMaximizer::new(128, 4, 60);
        let reference = m.maximize(&bounds, &mut rng(9), f);
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
        use std::sync::atomic::{AtomicUsize, Ordering};

        struct Counting {
            batch_calls: AtomicUsize,
        }
        impl BatchObjective for Counting {
            fn eval(&self, x: &[f64]) -> f64 {
                -(x[0] - 0.5).powi(2)
            }
            fn eval_batch(&self, xs: &[Vec<f64>]) -> Vec<f64> {
                self.batch_calls.fetch_add(1, Ordering::Relaxed);
                xs.iter().map(|x| self.eval(x)).collect()
            }
        }
        let bounds = Bounds::unit_cube(1).unwrap();
        let m = MultiStartMaximizer::new(64, 2, 40);
        let obj = Counting {
            batch_calls: AtomicUsize::new(0),
        };
        let best = m.maximize_batched(&bounds, &mut rng(5), Parallelism::sequential(), &obj);
        assert_eq!(obj.batch_calls.load(Ordering::Relaxed), 1);
        assert!((best.x[0] - 0.5).abs() < 1e-3);
    }

    #[test]
    #[should_panic(expected = "one value per candidate")]
    fn batched_rejects_wrong_length_eval_batch() {
        struct Broken;
        impl BatchObjective for Broken {
            fn eval(&self, _: &[f64]) -> f64 {
                0.0
            }
            fn eval_batch(&self, _: &[Vec<f64>]) -> Vec<f64> {
                vec![0.0]
            }
        }
        let bounds = Bounds::unit_cube(1).unwrap();
        MultiStartMaximizer::new(16, 2, 10).maximize_batched(
            &bounds,
            &mut rng(1),
            Parallelism::sequential(),
            &Broken,
        );
    }

    #[test]
    fn refinement_beats_pure_probing() {
        // Very narrow peak: random probing alone rarely lands within 1e-3.
        let bounds = Bounds::new(vec![(0.0, 1.0)]).unwrap();
        let f = |x: &[f64]| -(x[0] - 0.41234).powi(2);
        let m = MultiStartMaximizer::new(64, 3, 120);
        let best = m.maximize(&bounds, &mut rng(4), f);
        assert!(best.value > -1e-8, "refined value {}", best.value);
    }
}
