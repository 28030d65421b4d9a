//! EasyBO — Efficient ASYnchronous batch Bayesian Optimization for analog
//! circuit synthesis.
//!
//! This crate is a from-scratch reproduction of the DAC 2020 paper
//! *"An Efficient Asynchronous Batch Bayesian Optimization Approach for
//! Analog Circuit Synthesis"* (Zhang, Yang, Zhou, Zeng). It provides:
//!
//! * The **EasyBO algorithm** (§III): asynchronous batch BO with the
//!   randomized-weight acquisition `α(x, w) = (1-w)·μ(x) + w·σ̂(x)`,
//!   `w = κ/(κ+1)`, `κ ~ U[0, λ]` (Eq. 8), and the hallucinated-pseudo-point
//!   penalization scheme (Eq. 9) that collapses predictive uncertainty
//!   around busy points.
//! * Every baseline the paper compares against: sequential [EI] and
//!   LCB/[UCB] BO, the synchronous batch algorithms pBO and pHCBO (Hu, Li &
//!   Huang, ICCAD'18), and the EasyBO ablations (EasyBO-S, EasyBO-A,
//!   EasyBO-SP).
//! * Extensions beyond the paper: BUCB (Desautels et al.) and Local
//!   Penalization (González et al.) synchronous batch policies.
//! * A high-level [`EasyBo`] optimizer API for end users, and an
//!   [`Algorithm`] registry used by the benchmark harness to regenerate the
//!   paper's tables and figures.
//!
//! # Quickstart
//!
//! ```
//! use easybo::EasyBo;
//! use easybo_opt::Bounds;
//!
//! # fn main() -> Result<(), easybo::EasyBoError> {
//! let bounds = Bounds::new(vec![(-3.0, 3.0), (-2.0, 2.0)])?;
//! let result = EasyBo::new(bounds)
//!     .batch_size(4)
//!     .max_evals(40)
//!     .initial_points(10)
//!     .seed(7)
//!     .run(|x| -(x[0].powi(2) + x[1].powi(2)))?; // maximize
//! assert!(result.best_value > -0.5);
//! # Ok(())
//! # }
//! ```
//!
//! [EI]: acquisition::Score::Ei
//! [UCB]: acquisition::Score::Ucb

pub mod acquisition;
mod algorithms;
mod checkpoint;
mod constrained;
mod error;
mod optimizer;
mod persistence;
pub mod policies;
mod surrogate;
mod weight;

pub use algorithms::{Algorithm, AlgorithmMode, RunSetup};
pub use constrained::{ConstrainedPolicy, ConstrainedProblem};
pub use easybo_exec::{FailureAction, FaultPlan, FaultyBlackBox, RetryPolicy};
pub use easybo_opt::Parallelism;
pub use easybo_persist::{load_snapshot, PersistError, RunSnapshot, FORMAT_VERSION};
pub use easybo_telemetry::{
    chrome_trace_json, gate, parse_aggregate, parse_baseline, render_span_tree, span_tree,
    AggregateReport, ChromeTraceSink, Event, GateBound, JsonlSink, Recorder, Regression, ReportSet,
    RunReport, ScrapeServer, SessionStatus, SpanGuard, SpanNode, Stat, StatusBoard, Telemetry,
    TimedEvent, TraceCsvSink,
};
pub use error::EasyBoError;
pub use optimizer::{EasyBo, OptimizationResult};
pub use surrogate::{SurrogateConfig, SurrogateManager, SurrogateState};
pub use weight::{sample_kappa_weight, WeightSchedule, DEFAULT_LAMBDA};

/// Convenience result alias used across the crate.
pub type Result<T> = std::result::Result<T, EasyBoError>;
