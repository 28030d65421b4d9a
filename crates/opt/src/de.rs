//! Differential evolution (DE/rand/1/bin) — the paper's simulation-based
//! baseline (\[13\] in the reference list).
//!
//! The paper runs DE for 20000 (op-amp) / 15000 (class-E) simulations and
//! reports that BO-based methods reach better optima with orders of
//! magnitude fewer evaluations. This implementation is a faithful classic
//! DE with bounce-back bound handling and a maximum-evaluation budget.

use rand::Rng;

use crate::{Bounds, OptError};

/// Configuration for [`DifferentialEvolution`].
#[derive(Debug, Clone, PartialEq)]
pub struct DeConfig {
    /// Population size (default 40; clipped to at least 4).
    pub population: usize,
    /// Differential weight `F` in `(0, 2]` (default 0.6).
    pub weight: f64,
    /// Crossover probability `CR` in `[0, 1]` (default 0.9).
    pub crossover: f64,
    /// Total objective-evaluation budget, including the initial population
    /// (default 10000).
    pub max_evals: usize,
}

impl Default for DeConfig {
    fn default() -> Self {
        DeConfig {
            population: 40,
            weight: 0.6,
            crossover: 0.9,
            max_evals: 10_000,
        }
    }
}

impl DeConfig {
    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`OptError::InvalidConfig`] for a population below 4, a
    /// weight outside `(0, 2]`, a crossover outside `[0, 1]`, or a budget
    /// smaller than the population.
    pub fn validate(&self) -> crate::Result<()> {
        if self.population < 4 {
            return Err(OptError::InvalidConfig {
                parameter: "population",
                reason: format!("must be at least 4, got {}", self.population),
            });
        }
        if !(self.weight > 0.0 && self.weight <= 2.0) {
            return Err(OptError::InvalidConfig {
                parameter: "weight",
                reason: format!("must be in (0, 2], got {}", self.weight),
            });
        }
        if !(0.0..=1.0).contains(&self.crossover) {
            return Err(OptError::InvalidConfig {
                parameter: "crossover",
                reason: format!("must be in [0, 1], got {}", self.crossover),
            });
        }
        if self.max_evals < self.population {
            return Err(OptError::InvalidConfig {
                parameter: "max_evals",
                reason: format!(
                    "budget {} smaller than population {}",
                    self.max_evals, self.population
                ),
            });
        }
        Ok(())
    }
}

/// Outcome of a DE run: the best point, its objective value, and the number
/// of objective evaluations consumed.
#[derive(Debug, Clone, PartialEq)]
pub struct DeReport {
    /// Best design found.
    pub x: Vec<f64>,
    /// Objective value at `x` (maximization).
    pub value: f64,
    /// Objective evaluations actually used.
    pub evals: usize,
    /// Best-so-far value after each evaluation (for convergence plots).
    pub history: Vec<f64>,
}

/// Classic DE/rand/1/bin **maximizer** over a box-constrained space.
///
/// # Example
///
/// ```
/// use easybo_opt::{Bounds, DeConfig, DifferentialEvolution};
/// use rand::SeedableRng;
///
/// # fn main() -> Result<(), easybo_opt::OptError> {
/// let bounds = Bounds::new(vec![(-5.0, 5.0); 2])?;
/// let de = DifferentialEvolution::new(DeConfig {
///     max_evals: 4000,
///     ..Default::default()
/// })?;
/// let mut rng = rand::rngs::StdRng::seed_from_u64(3);
/// // Maximize the negated sphere: optimum 0 at the origin.
/// let report = de.maximize(&bounds, &mut rng, |x| -(x[0] * x[0] + x[1] * x[1]));
/// assert!(report.value > -1e-4);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct DifferentialEvolution {
    config: DeConfig,
}

impl DifferentialEvolution {
    /// Creates a DE optimizer.
    ///
    /// # Errors
    ///
    /// Returns [`OptError::InvalidConfig`] if the configuration is invalid;
    /// see [`DeConfig::validate`].
    pub fn new(config: DeConfig) -> crate::Result<Self> {
        config.validate()?;
        Ok(DifferentialEvolution { config })
    }

    /// The active configuration.
    pub fn config(&self) -> &DeConfig {
        &self.config
    }

    /// Maximizes `f` over `bounds` within the evaluation budget.
    ///
    /// Non-finite objective values are treated as `-inf`.
    pub fn maximize<R, F>(&self, bounds: &Bounds, rng: &mut R, mut f: F) -> DeReport
    where
        R: Rng + ?Sized,
        F: FnMut(&[f64]) -> f64,
    {
        let c = &self.config;
        let np = c.population;
        let d = bounds.dim();
        let mut evals = 0usize;
        let mut history = Vec::with_capacity(c.max_evals);
        let mut best_val = f64::NEG_INFINITY;
        let mut best_x = bounds.center();
        let eval = |x: &[f64],
                    f: &mut F,
                    evals: &mut usize,
                    history: &mut Vec<f64>,
                    best_val: &mut f64,
                    best_x: &mut Vec<f64>|
         -> f64 {
            *evals += 1;
            let raw = f(x);
            let v = if raw.is_finite() {
                raw
            } else {
                f64::NEG_INFINITY
            };
            if v > *best_val {
                *best_val = v;
                best_x.clear();
                best_x.extend_from_slice(x);
            }
            history.push(*best_val);
            v
        };

        // Initial population.
        let mut pop: Vec<Vec<f64>> = (0..np).map(|_| bounds.sample_uniform(rng)).collect();
        let mut fitness: Vec<f64> = pop
            .iter()
            .map(|x| {
                eval(
                    x,
                    &mut f,
                    &mut evals,
                    &mut history,
                    &mut best_val,
                    &mut best_x,
                )
            })
            .collect();

        'outer: loop {
            for i in 0..np {
                if evals >= c.max_evals {
                    break 'outer;
                }
                // Pick three distinct indices, all different from i.
                let (a, b, cc) = pick_three(np, i, rng);
                let jrand = rng.gen_range(0..d);
                let mut trial = pop[i].clone();
                for j in 0..d {
                    if j == jrand || rng.gen::<f64>() < c.crossover {
                        let v = pop[a][j] + c.weight * (pop[b][j] - pop[cc][j]);
                        let (lo, hi) = bounds.pair(j);
                        // Bounce-back: reflect out-of-bounds mutants between
                        // the base vector and the violated bound.
                        trial[j] = if v < lo {
                            lo + rng.gen::<f64>() * (pop[a][j] - lo).max(0.0)
                        } else if v > hi {
                            hi - rng.gen::<f64>() * (hi - pop[a][j]).max(0.0)
                        } else {
                            v
                        };
                    }
                }
                let ft = eval(
                    &trial,
                    &mut f,
                    &mut evals,
                    &mut history,
                    &mut best_val,
                    &mut best_x,
                );
                if ft >= fitness[i] {
                    pop[i] = trial;
                    fitness[i] = ft;
                }
            }
        }

        DeReport {
            x: best_x,
            value: best_val,
            evals,
            history,
        }
    }
}

/// Draws three distinct population indices, all different from `i`.
fn pick_three<R: Rng + ?Sized>(np: usize, i: usize, rng: &mut R) -> (usize, usize, usize) {
    debug_assert!(np >= 4);
    let mut pick = |exclude: &[usize]| loop {
        let k = rng.gen_range(0..np);
        if !exclude.contains(&k) {
            return k;
        }
    };
    let a = pick(&[i]);
    let b = pick(&[i, a]);
    let c = pick(&[i, a, b]);
    (a, b, c)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn rng(seed: u64) -> rand::rngs::StdRng {
        rand::rngs::StdRng::seed_from_u64(seed)
    }

    #[test]
    fn maximizes_negative_sphere() {
        let bounds = Bounds::new(vec![(-5.0, 5.0); 3]).unwrap();
        let de = DifferentialEvolution::new(DeConfig {
            max_evals: 6000,
            ..Default::default()
        })
        .unwrap();
        let report = de.maximize(&bounds, &mut rng(1), |x| {
            -x.iter().map(|v| v * v).sum::<f64>()
        });
        assert!(report.value > -1e-6, "best = {}", report.value);
        assert!(report.evals <= 6000);
    }

    #[test]
    fn history_is_monotone_nondecreasing() {
        let bounds = Bounds::new(vec![(-2.0, 2.0); 2]).unwrap();
        let de = DifferentialEvolution::new(DeConfig {
            max_evals: 500,
            ..Default::default()
        })
        .unwrap();
        let report = de.maximize(&bounds, &mut rng(2), |x| -(x[0].powi(2) + x[1].powi(2)));
        assert_eq!(report.history.len(), report.evals);
        for w in report.history.windows(2) {
            assert!(w[1] >= w[0]);
        }
        assert_eq!(*report.history.last().unwrap(), report.value);
    }

    #[test]
    fn respects_budget_exactly() {
        let bounds = Bounds::new(vec![(0.0, 1.0)]).unwrap();
        let de = DifferentialEvolution::new(DeConfig {
            population: 10,
            max_evals: 57,
            ..Default::default()
        })
        .unwrap();
        let mut calls = 0usize;
        let report = de.maximize(&bounds, &mut rng(3), |x| {
            calls += 1;
            x[0]
        });
        assert_eq!(calls, 57);
        assert_eq!(report.evals, 57);
    }

    #[test]
    fn all_candidates_inside_bounds() {
        let bounds = Bounds::new(vec![(-1.0, 0.0), (10.0, 11.0)]).unwrap();
        let de = DifferentialEvolution::new(DeConfig {
            max_evals: 400,
            ..Default::default()
        })
        .unwrap();
        let mut violations = 0usize;
        let _ = de.maximize(&bounds, &mut rng(4), |x| {
            if !bounds.contains(x) {
                violations += 1;
            }
            x[0] + x[1]
        });
        assert_eq!(violations, 0);
    }

    #[test]
    fn finds_multimodal_peak() {
        // Rastrigin-style (negated): global max 0 at origin, many local traps.
        let bounds = Bounds::new(vec![(-5.12, 5.12); 2]).unwrap();
        let de = DifferentialEvolution::new(DeConfig {
            max_evals: 12_000,
            population: 30,
            ..Default::default()
        })
        .unwrap();
        let report = de.maximize(&bounds, &mut rng(5), |x| {
            -(20.0
                + x.iter()
                    .map(|v| v * v - 10.0 * (2.0 * std::f64::consts::PI * v).cos())
                    .sum::<f64>())
        });
        assert!(report.value > -1.0, "stuck at {}", report.value);
    }

    #[test]
    fn handles_nan_objective_regions() {
        let bounds = Bounds::new(vec![(-1.0, 1.0)]).unwrap();
        let de = DifferentialEvolution::new(DeConfig {
            max_evals: 300,
            ..Default::default()
        })
        .unwrap();
        let report = de.maximize(&bounds, &mut rng(6), |x| {
            if x[0] < 0.0 {
                f64::NAN
            } else {
                1.0 - x[0]
            }
        });
        assert!(report.value.is_finite());
        assert!(report.value > 0.9);
    }

    #[test]
    fn rejects_bad_config() {
        assert!(DifferentialEvolution::new(DeConfig {
            population: 3,
            ..Default::default()
        })
        .is_err());
        assert!(DifferentialEvolution::new(DeConfig {
            weight: 0.0,
            ..Default::default()
        })
        .is_err());
        assert!(DifferentialEvolution::new(DeConfig {
            crossover: 1.5,
            ..Default::default()
        })
        .is_err());
        assert!(DifferentialEvolution::new(DeConfig {
            population: 40,
            max_evals: 10,
            ..Default::default()
        })
        .is_err());
    }

    #[test]
    fn pick_three_distinct() {
        let mut r = rng(7);
        for i in 0..8 {
            let (a, b, c) = pick_three(8, i, &mut r);
            assert!(a != i && b != i && c != i);
            assert!(a != b && b != c && a != c);
        }
    }
}
