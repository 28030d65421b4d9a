//! Design-space sampling and derivative-free/gradient optimizers for the
//! EasyBO stack.
//!
//! This crate supplies everything the Bayesian-optimization core needs to
//! (a) draw space-filling initial designs, (b) maximize acquisition
//! functions, and (c) run the paper's differential-evolution baseline:
//!
//! * [`Bounds`] — a box-constrained design space with unit-cube scaling.
//! * [`sampling`] — Latin hypercube, Sobol and uniform random designs.
//! * [`de`] — differential evolution (DE/rand/1/bin), the paper's DE baseline.
//! * [`nelder_mead`] — bounded Nelder–Mead simplex local refinement.
//! * [`lbfgs`] — the first-order optimizer for smooth objectives (used
//!   for GP hyperparameter training).
//! * [`multistart`] — the random-restart acquisition maximizer.
//! * [`parallel`] — the deterministic worker-thread fan-out behind both
//!   maximizers and GP training restarts.
//!
//! # Example
//!
//! ```
//! use easybo_opt::{Bounds, multistart::MultiStartMaximizer};
//! use rand::SeedableRng;
//!
//! # fn main() -> Result<(), easybo_opt::OptError> {
//! let bounds = Bounds::unit_cube(2)?;
//! let mut rng = rand::rngs::StdRng::seed_from_u64(7);
//! let maximizer = MultiStartMaximizer::new(256, 4, 60);
//! // Maximize a smooth unimodal function over the unit square.
//! let best = maximizer.maximize(&bounds, &mut rng, |x| {
//!     -((x[0] - 0.3).powi(2) + (x[1] - 0.7).powi(2))
//! });
//! assert!((best.x[0] - 0.3).abs() < 1e-3);
//! assert!((best.x[1] - 0.7).abs() < 1e-3);
//! # Ok(())
//! # }
//! ```

pub mod bounds;
pub mod de;
pub mod error;
pub mod lbfgs;
pub mod multistart;
pub mod nelder_mead;
pub mod parallel;
pub mod sampling;

pub use bounds::Bounds;
pub use de::{DeConfig, DeReport, DifferentialEvolution};
pub use error::OptError;
pub use lbfgs::{Lbfgs, LbfgsConfig};
pub use multistart::{BatchObjective, MultiStartMaximizer, Optimum};
pub use nelder_mead::{NelderMead, NelderMeadConfig};
pub use parallel::{parallel_map, split_seeds, Parallelism};

/// Convenience result alias used across the crate.
pub type Result<T> = std::result::Result<T, OptError>;
