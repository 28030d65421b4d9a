//! Gaussian process regression for Bayesian optimization.
//!
//! Implements everything §II-B of the EasyBO paper requires, from scratch:
//!
//! * ARD kernels ([`kernel`]): squared-exponential (the paper's choice,
//!   `k_SE(x_i, x_j) = σ_f² exp(-½ (x_i-x_j)ᵀ Λ⁻¹ (x_i-x_j))`), plus
//!   Matérn-5/2 and Matérn-3/2 as extensions.
//! * Exact GP posterior (Eq. 2 of the paper) via Cholesky factorization.
//! * Log marginal likelihood with analytic gradients with respect to the
//!   log hyperparameters, and multi-restart L-BFGS training with a weak
//!   Gaussian prior for regularization.
//! * Hallucinated **pseudo-point augmentation** ([`Gp::augment`]) — the
//!   machinery behind EasyBO's penalization scheme (§III-C): busy points are
//!   appended with their predictive means as observations, shrinking the
//!   predictive uncertainty `σ̂(x)` around them without moving the mean.
//!
//! # Example
//!
//! ```
//! use easybo_gp::{Gp, GpConfig};
//!
//! # fn main() -> Result<(), easybo_gp::GpError> {
//! // Fit a 1-d GP to noisy sine samples and interrogate the posterior.
//! let x: Vec<Vec<f64>> = (0..12).map(|i| vec![i as f64 / 11.0]).collect();
//! let y: Vec<f64> = x.iter().map(|p| (4.0 * p[0]).sin()).collect();
//! let gp = Gp::fit(x, y, GpConfig::default())?;
//! let pred = gp.predict(&[0.5]);
//! assert!((pred.mean - (2.0f64).sin()).abs() < 0.1);
//! assert!(pred.variance >= 0.0);
//! # Ok(())
//! # }
//! ```

mod error;
mod incremental;
pub mod kernel;
mod model;
mod scaler;
mod train;

pub use error::GpError;
pub use incremental::IncrementalGp;
pub use kernel::{ArdKernel, KernelFamily};
pub use model::{Gp, GpConfig, GpFactor, GpState, PosteriorGrad, Prediction};
pub use scaler::YScaler;
pub use train::TrainConfig;

/// Convenience result alias used across the crate.
pub type Result<T> = std::result::Result<T, GpError>;
