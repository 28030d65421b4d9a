//! Design-space sampling and the optimizers of the EasyBO stack.
//!
//! This crate supplies everything the Bayesian-optimization core needs to
//! (a) draw space-filling initial designs, (b) maximize acquisition
//! functions, and (c) run the paper's differential-evolution baseline:
//!
//! * [`Bounds`] — a box-constrained design space with unit-cube scaling.
//! * [`sampling`] — Latin hypercube, Sobol and uniform random designs.
//! * [`de`] — differential evolution (DE/rand/1/bin), the paper's DE baseline.
//! * [`lbfgs`] — the first-order optimizer for smooth objectives: GP
//!   hyperparameter training, unconstrained, and acquisition refinement,
//!   inside a box under an evaluation budget.
//! * [`multistart`] — the random-restart acquisition maximizer: probes
//!   scored in batches, the best refined along the objective's gradient.
//! * [`parallel`] — the deterministic worker-thread fan-out behind both
//!   maximizers and GP training restarts.
//!
//! # Example
//!
//! ```
//! use easybo_opt::{BatchObjective, Bounds, MultiStartMaximizer, Parallelism};
//! use rand::SeedableRng;
//!
//! /// A smooth unimodal function over the unit square, with its gradient.
//! struct Bump;
//! fn bump(x: &[f64]) -> f64 {
//!     -((x[0] - 0.3).powi(2) + (x[1] - 0.7).powi(2))
//! }
//! impl BatchObjective for Bump {
//!     fn eval_batch(&self, xs: &[Vec<f64>]) -> Vec<f64> {
//!         xs.iter().map(|x| bump(x)).collect()
//!     }
//!     fn eval_grad(&self, x: &[f64], grad: &mut [f64]) -> f64 {
//!         grad[0] = -2.0 * (x[0] - 0.3);
//!         grad[1] = -2.0 * (x[1] - 0.7);
//!         bump(x)
//!     }
//! }
//!
//! # fn main() -> Result<(), easybo_opt::OptError> {
//! let bounds = Bounds::unit_cube(2)?;
//! let mut rng = rand::rngs::StdRng::seed_from_u64(7);
//! let maximizer = MultiStartMaximizer::new(256, 4, 30);
//! let best = maximizer.maximize_batched(&bounds, &mut rng, Parallelism::default(), &Bump);
//! assert!((best.x[0] - 0.3).abs() < 1e-6);
//! assert!((best.x[1] - 0.7).abs() < 1e-6);
//! # Ok(())
//! # }
//! ```

pub mod bounds;
pub mod de;
pub mod error;
pub mod lbfgs;
pub mod multistart;
pub mod parallel;
pub mod sampling;

pub use bounds::Bounds;
pub use de::{DeConfig, DeReport, DifferentialEvolution};
pub use error::OptError;
pub use lbfgs::{Lbfgs, LbfgsConfig};
pub use multistart::{BatchObjective, MultiStartMaximizer, Optimum};
pub use parallel::{parallel_map, split_seeds, Parallelism};

/// Convenience result alias used across the crate.
pub type Result<T> = std::result::Result<T, OptError>;
