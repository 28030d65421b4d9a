//! Structured events on the run timeline.

use std::borrow::Cow;

/// One structured occurrence inside an optimization run.
///
/// Variants cover the places where async-BO behaviour is won or lost:
/// scheduling (`QueryIssued`/`EvalStarted`/`EvalFinished`/`WorkerIdle`),
/// model overhead (`GpRefit`/`AcqOptimized`/`PseudoPointAdded`), fault
/// handling (`EvalFailed`/`EvalRetried`/`WorkerCrashed`), and phase
/// structure (`SpanStart`/`SpanEnd`, see [`crate::SpanGuard`]).
#[derive(Debug, Clone, PartialEq)]
pub enum Event {
    /// The policy proposed a query; `worker` is the worker slot it was
    /// issued to, the same slot the matching [`Event::EvalStarted`]
    /// reports.
    QueryIssued {
        /// Monotone task id of the query.
        task: usize,
        /// Worker the query was issued toward.
        worker: usize,
    },
    /// A worker began evaluating a query.
    EvalStarted {
        /// Task id of the query.
        task: usize,
        /// Worker performing the evaluation.
        worker: usize,
    },
    /// An evaluation completed with the observed objective value.
    EvalFinished {
        /// Task id of the query.
        task: usize,
        /// Worker that performed the evaluation.
        worker: usize,
        /// Observed objective value.
        value: f64,
    },
    /// The GP surrogate was (re)fit from scratch.
    GpRefit {
        /// Number of training points.
        n: usize,
        /// Trained hyperparameters (kernel params then log-noise).
        hyperparams: Vec<f64>,
        /// Real seconds spent fitting.
        duration: f64,
    },
    /// The acquisition function was maximized for one proposal.
    AcqOptimized {
        /// Multi-start restarts used.
        restarts: usize,
        /// Acquisition-function evaluations consumed.
        evals: usize,
        /// Real seconds spent optimizing.
        duration: f64,
    },
    /// Busy points were hallucinated into the surrogate before
    /// selection (the paper's §III-C penalization step).
    PseudoPointAdded {
        /// Number of pseudo-points added for this selection.
        count: usize,
    },
    /// A worker sat idle (run-clock seconds): the async executors emit
    /// one per worker slot at the end of the run with its total idle
    /// time, the sync driver one per round member with its wait for the
    /// barrier.
    WorkerIdle {
        /// The idle worker.
        worker: usize,
        /// Idle gap in run-clock seconds.
        gap: f64,
    },
    /// One evaluation attempt failed: simulator crash, non-finite FOM,
    /// timeout, or worker crash. `reason` is a short label that must
    /// stay free of `"` and `\` so the restricted JSONL encoding
    /// round-trips.
    EvalFailed {
        /// Task id of the query.
        task: usize,
        /// Worker that ran the failed attempt.
        worker: usize,
        /// 1-based attempt number that failed.
        attempt: usize,
        /// Short failure label (e.g. `timeout`, `non-finite`).
        reason: String,
    },
    /// A failed attempt was requeued with backoff.
    EvalRetried {
        /// Task id of the query.
        task: usize,
        /// 1-based attempt number that will run next.
        attempt: usize,
        /// Backoff delay before the retry, in run-clock seconds.
        delay: f64,
    },
    /// A worker died mid-evaluation and left the pool for good.
    WorkerCrashed {
        /// The dead worker (on the threaded executor, the OS thread's
        /// index rather than a worker slot).
        worker: usize,
        /// Task it was evaluating when it died.
        task: usize,
    },
    /// A durable run snapshot was written to disk.
    CheckpointWritten {
        /// Completed observations captured in the snapshot.
        completed: usize,
        /// Size of the snapshot file in bytes.
        bytes: usize,
    },
    /// A run was rebuilt from a snapshot and is continuing.
    RunResumed {
        /// Completed observations restored from the snapshot.
        completed: usize,
        /// Interrupted in-flight tasks that will be re-issued.
        inflight: usize,
    },
    /// The session manager serialized a resident session to a snapshot
    /// and released its in-memory state (LRU bound or explicit admin
    /// request).
    SessionEvicted {
        /// Manager-assigned session id.
        session: u64,
        /// Resident sessions remaining after the eviction.
        resident: usize,
    },
    /// The session manager rebuilt an evicted session from its
    /// snapshot and re-issued its interrupted in-flight attempts.
    SessionRehydrated {
        /// Manager-assigned session id.
        session: u64,
        /// Interrupted in-flight attempts re-issued by the rehydration.
        inflight: usize,
    },
    /// A completed evaluation violated a named design spec (constrained
    /// runs only). `spec` must stay free of `"` and `\` so the
    /// restricted JSONL encoding round-trips.
    SpecViolated {
        /// Task id of the evaluation.
        task: usize,
        /// Name of the violated spec (e.g. `pm_deg>=50`).
        spec: String,
        /// Signed slack of the spec at the point (negative = violated).
        slack: f64,
    },
    /// A completed evaluation satisfied every spec and improved on the
    /// best feasible objective seen so far (constrained runs only).
    FeasibleIncumbent {
        /// Task id of the evaluation.
        task: usize,
        /// Feasible objective value that became the incumbent.
        value: f64,
    },
    /// A named phase opened on the run timeline (RAII: paired with the
    /// [`Event::SpanEnd`] carrying the same id). Spans nest — `parent`
    /// is the id of the enclosing open span on the same thread, or `0`
    /// for a root span. Ids are assigned from a per-run counter
    /// starting at 1, so a deterministic run emits a deterministic
    /// span tree. `name` must stay free of `"` and `\` so the
    /// restricted JSONL encoding round-trips (instrumentation sites
    /// use static literals, which satisfies this by construction).
    SpanStart {
        /// Unique (per run) span id, starting at 1.
        id: u64,
        /// Id of the enclosing span, `0` for roots.
        parent: u64,
        /// Phase name (e.g. `gp_refit`, `cholesky`). Borrowed statics
        /// at emission sites; owned after JSONL replay.
        name: Cow<'static, str>,
    },
    /// The span with this id closed.
    SpanEnd {
        /// Id from the matching [`Event::SpanStart`].
        id: u64,
    },
}

impl Event {
    /// Stable variant name used by the JSONL encoding.
    pub fn kind(&self) -> &'static str {
        match self {
            Event::QueryIssued { .. } => "QueryIssued",
            Event::EvalStarted { .. } => "EvalStarted",
            Event::EvalFinished { .. } => "EvalFinished",
            Event::GpRefit { .. } => "GpRefit",
            Event::AcqOptimized { .. } => "AcqOptimized",
            Event::PseudoPointAdded { .. } => "PseudoPointAdded",
            Event::WorkerIdle { .. } => "WorkerIdle",
            Event::EvalFailed { .. } => "EvalFailed",
            Event::EvalRetried { .. } => "EvalRetried",
            Event::WorkerCrashed { .. } => "WorkerCrashed",
            Event::CheckpointWritten { .. } => "CheckpointWritten",
            Event::RunResumed { .. } => "RunResumed",
            Event::SessionEvicted { .. } => "SessionEvicted",
            Event::SessionRehydrated { .. } => "SessionRehydrated",
            Event::SpecViolated { .. } => "SpecViolated",
            Event::FeasibleIncumbent { .. } => "FeasibleIncumbent",
            Event::SpanStart { .. } => "SpanStart",
            Event::SpanEnd { .. } => "SpanEnd",
        }
    }
}

/// An [`Event`] stamped with the run clock at emission.
#[derive(Debug, Clone, PartialEq)]
pub struct TimedEvent {
    /// Run-clock seconds (virtual or real depending on the executor).
    pub time: f64,
    /// The event payload.
    pub event: Event,
}
