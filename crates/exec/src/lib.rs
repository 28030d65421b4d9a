//! Evaluation executors for batch Bayesian optimization.
//!
//! The paper's central claim is about **wall-clock time**: synchronous batch
//! BO wastes hardware because every worker waits for the slowest simulation
//! in the batch, while EasyBO issues a new query the moment a worker idles
//! (§III-A, Fig. 1). Reproducing Tables I/II therefore needs faithful
//! schedule accounting, which this crate provides twice over:
//!
//! * [`VirtualExecutor`] — a deterministic discrete-event engine over a
//!   virtual clock. Simulation durations come from a parameter-dependent
//!   [`SimTimeModel`] (HSPICE runtimes vary with the design point); its
//!   sync and async runs reproduce exactly the scheduling arithmetic of
//!   the paper's testbed in microseconds of real time. The async runs
//!   go through the [`EventLoop`], the same loop the network session
//!   manager feeds with results that arrive later.
//! * [`ThreadedExecutor`] — a real multi-threaded executor (scoped OS
//!   threads + `std` channels) for production use of the library, where the
//!   black box is genuinely expensive. It drives the same [`EventLoop`]
//!   on a real clock, declaring each clock reading the loop's horizon.
//!
//! Selection logic stays out of this crate: drivers call back into
//! [`SyncBatchPolicy`] / [`AsyncPolicy`] implementations (provided by the
//! `easybo` core crate) whenever they need new query points.
//!
//! Real simulator pools also fail: jobs crash, hang, and return
//! non-convergent FOMs. Both executors therefore drive a shared
//! [`RetryPolicy`] (requeue with exponential backoff, per-attempt
//! timeouts, configurable handling of exhausted tasks), and the
//! [`fault`] module provides a seeded, fully deterministic
//! fault-injection wrapper ([`FaultyBlackBox`]) for chaos-testing the
//! whole stack.

mod blackbox;
mod dataset;
mod event_loop;
mod fanout;
pub mod fault;
mod retry;
mod schedule;
mod session;
mod sim_time;
mod threaded;
mod trace;
mod virtual_exec;

pub use blackbox::{AttemptContext, BlackBox, CostedFunction, EvalOutcome, Evaluation};
pub use dataset::{BusyPoint, Dataset};
pub use event_loop::{EventLoop, Outstanding, Resolver};
pub use fanout::FanOutBlackBox;
pub use fault::{FaultPlan, FaultyBlackBox};
pub use retry::{FailureAction, RetryPolicy};
pub use schedule::{Schedule, TaskSpan};
pub use session::{
    HookAction, InFlightTask, InvalidSessionParts, PendingBackoff, SessionHook, SessionParts,
    SessionState, Suggestion, Told,
};
pub use sim_time::SimTimeModel;
pub use threaded::ThreadedExecutor;
pub use trace::{RunTrace, TracePoint};
pub use virtual_exec::{AsyncPolicy, RunResult, SyncBatchPolicy, VirtualExecutor};
