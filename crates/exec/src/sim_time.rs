//! Parameter-dependent simulation-cost model.
//!
//! HSPICE runtimes depend on the design point (bias currents change
//! convergence behavior, reactive components change transient time
//! constants), which is precisely why asynchronous batching beats the
//! synchronous barrier. This model reproduces that heterogeneity
//! deterministically: the cost surface is a smooth random multi-harmonic
//! function of the (normalized) design variables plus a small per-point
//! hash jitter, scaled to a configured mean and relative spread.

use easybo_opt::Bounds;
use rand::{Rng, SeedableRng};

/// Deterministic, parameter-dependent simulation-time model.
///
/// Costs are `base · (1 + spread · s(x))` with `s(x) ∈ [-1, 1]` a smooth
/// pseudo-random surface, so the *distribution* of costs across a run has
/// mean ≈ `base` and support ≈ `base·[1−spread, 1+spread]` — matching the
/// per-simulation statistics implied by the paper's Tables I/II (≈38.7s per
/// op-amp simulation, ≈52.7s per class-E simulation, with enough spread
/// that a batch of 15 waits ≈15% longer than the mean under a barrier).
///
/// # Example
///
/// ```
/// use easybo_exec::SimTimeModel;
/// use easybo_opt::Bounds;
///
/// # fn main() -> Result<(), easybo_opt::OptError> {
/// let bounds = Bounds::unit_cube(4)?;
/// let model = SimTimeModel::new(&bounds, 38.7, 0.17, 42);
/// let c = model.cost(&[0.2, 0.4, 0.6, 0.8]);
/// assert!(c >= 38.7 * 0.8 && c <= 38.7 * 1.2);
/// // Same point, same cost — the model is a pure function.
/// assert_eq!(c, model.cost(&[0.2, 0.4, 0.6, 0.8]));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct SimTimeModel {
    bounds: Bounds,
    base: f64,
    spread: f64,
    /// Random direction/phase per harmonic: (weights per dim, frequency, phase).
    harmonics: Vec<(Vec<f64>, f64, f64)>,
    /// Relative magnitude of the per-point hash jitter.
    jitter: f64,
    seed: u64,
}

impl SimTimeModel {
    /// Creates a model with mean cost `base` seconds and relative spread
    /// `spread` (e.g. 0.17 ⇒ costs mostly within ±17% of the mean) over the
    /// given design space. `seed` fixes the random cost surface.
    ///
    /// # Panics
    ///
    /// Panics if `base <= 0`, or `spread` is outside `[0, 0.95]`.
    pub fn new(bounds: &Bounds, base: f64, spread: f64, seed: u64) -> Self {
        assert!(base > 0.0, "base cost must be positive, got {base}");
        assert!(
            (0.0..=0.95).contains(&spread),
            "spread must be in [0, 0.95], got {spread}"
        );
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed ^ 0x5e1f_cafe);
        let d = bounds.dim();
        let harmonics = (0..3)
            .map(|_| {
                let mut w: Vec<f64> = (0..d).map(|_| rng.gen_range(-1.0..1.0)).collect();
                let norm = w.iter().map(|v| v * v).sum::<f64>().sqrt().max(1e-9);
                for v in &mut w {
                    *v /= norm;
                }
                let freq = rng.gen_range(1.0..4.0) * std::f64::consts::PI;
                let phase = rng.gen_range(0.0..std::f64::consts::TAU);
                (w, freq, phase)
            })
            .collect();
        SimTimeModel {
            bounds: bounds.clone(),
            base,
            spread,
            harmonics,
            jitter: 0.25,
            seed,
        }
    }

    /// Mean cost (seconds).
    pub fn base(&self) -> f64 {
        self.base
    }

    /// Relative spread.
    pub fn spread(&self) -> f64 {
        self.spread
    }

    /// Deterministic cost (seconds) of simulating design `x`.
    ///
    /// Points outside the design space are clamped first.
    ///
    /// # Panics
    ///
    /// Panics if `x.len()` does not match the design space dimension.
    pub fn cost(&self, x: &[f64]) -> f64 {
        let u = self.bounds.to_unit(&self.bounds.clamp(x));
        // Smooth multi-harmonic surface in [-1, 1].
        let mut s = 0.0;
        for (w, freq, phase) in &self.harmonics {
            let proj: f64 = w.iter().zip(u.iter()).map(|(a, b)| a * b).sum();
            s += (freq * proj + phase).sin();
        }
        s /= self.harmonics.len() as f64;
        // Per-point jitter from a hash of the coordinates (deterministic).
        let j = 2.0 * (Self::hash01(&u, self.seed) - 0.5);
        let shape = ((1.0 - self.jitter) * s + self.jitter * j).clamp(-1.0, 1.0);
        self.base * (1.0 + self.spread * shape)
    }

    /// Uniform-ish hash of a point into [0, 1).
    fn hash01(u: &[f64], seed: u64) -> f64 {
        let mut h = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15);
        for &v in u {
            h ^= v.to_bits();
            h = h.wrapping_mul(0xff51_afd7_ed55_8ccd);
            h ^= h >> 33;
        }
        (h >> 11) as f64 / (1u64 << 53) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model(spread: f64) -> (Bounds, SimTimeModel) {
        let bounds = Bounds::unit_cube(5).unwrap();
        let m = SimTimeModel::new(&bounds, 40.0, spread, 123);
        (bounds, m)
    }

    #[test]
    fn costs_within_spread_band() {
        let (bounds, m) = model(0.2);
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        for _ in 0..500 {
            let x = bounds.sample_uniform(&mut rng);
            let c = m.cost(&x);
            assert!((40.0 * 0.8 - 1e-9..=40.0 * 1.2 + 1e-9).contains(&c), "{c}");
        }
    }

    #[test]
    fn mean_close_to_base() {
        let (bounds, m) = model(0.2);
        let mut rng = rand::rngs::StdRng::seed_from_u64(2);
        let costs: Vec<f64> = (0..2000)
            .map(|_| m.cost(&bounds.sample_uniform(&mut rng)))
            .collect();
        let mean = easybo_costs_mean(&costs);
        assert!((mean - 40.0).abs() < 2.0, "mean {mean}");
    }

    fn easybo_costs_mean(xs: &[f64]) -> f64 {
        xs.iter().sum::<f64>() / xs.len() as f64
    }

    #[test]
    fn costs_actually_vary() {
        let (bounds, m) = model(0.2);
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        let costs: Vec<f64> = (0..200)
            .map(|_| m.cost(&bounds.sample_uniform(&mut rng)))
            .collect();
        let lo = costs.iter().cloned().fold(f64::INFINITY, f64::min);
        let hi = costs.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        assert!(hi - lo > 40.0 * 0.15, "spread too small: {lo}..{hi}");
    }

    #[test]
    fn zero_spread_is_constant() {
        let (bounds, m) = model(0.0);
        let mut rng = rand::rngs::StdRng::seed_from_u64(4);
        for _ in 0..50 {
            assert_eq!(m.cost(&bounds.sample_uniform(&mut rng)), 40.0);
        }
    }

    #[test]
    fn different_seeds_give_different_surfaces() {
        let bounds = Bounds::unit_cube(3).unwrap();
        let a = SimTimeModel::new(&bounds, 10.0, 0.3, 1);
        let b = SimTimeModel::new(&bounds, 10.0, 0.3, 2);
        let x = [0.3, 0.6, 0.9];
        assert_ne!(a.cost(&x), b.cost(&x));
    }

    #[test]
    fn nearby_points_have_similar_base_surface() {
        // The harmonic part is smooth; jitter is bounded by 25% of spread.
        let (_, m) = model(0.2);
        let a = m.cost(&[0.5, 0.5, 0.5, 0.5, 0.5]);
        let b = m.cost(&[0.5001, 0.5, 0.5, 0.5, 0.5]);
        // Max possible jump: jitter flips sign = 2*0.25*spread*base = 4.0.
        assert!((a - b).abs() <= 4.1, "jump {}", (a - b).abs());
    }

    #[test]
    fn out_of_bounds_points_are_clamped() {
        let (_, m) = model(0.2);
        let inside = m.cost(&[1.0, 1.0, 1.0, 1.0, 1.0]);
        let outside = m.cost(&[5.0, 5.0, 5.0, 5.0, 5.0]);
        assert_eq!(inside, outside);
    }

    #[test]
    #[should_panic(expected = "spread")]
    fn rejects_excessive_spread() {
        let bounds = Bounds::unit_cube(1).unwrap();
        let _ = SimTimeModel::new(&bounds, 1.0, 0.99, 0);
    }
}
