//! Explicit ask/tell session core shared by every executor.
//!
//! [`SessionState`] owns every piece of run bookkeeping that survives a
//! coordinator death: the observed [`Dataset`], the best-so-far
//! [`RunTrace`], the committed [`Schedule`] spans, the queue of pending
//! initial-design points, the busy/pseudo set, the in-flight attempt
//! table, and the retry backoff queue. Drivers use it through
//! [`SessionState::ask`] (propose the next task) and
//! [`SessionState::tell`] (resolve a finished attempt). The event
//! mechanics stay outside: the discrete-event heap lives in
//! [`crate::EventLoop`], which the virtual executor and the network
//! session manager both drive, and the threaded executor keeps its own
//! channels. The session is also the unit of durable persistence:
//! [`SessionState::to_parts`] / [`SessionState::from_parts`] convert
//! to/from the plain-data [`SessionParts`] that `easybo-persist`
//! serializes.

use std::collections::VecDeque;

use easybo_telemetry::{Event, Telemetry};

use crate::blackbox::EvalOutcome;
use crate::retry::{FailureAction, RetryPolicy};
use crate::virtual_exec::{AsyncPolicy, RunResult};
use crate::{BusyPoint, Dataset, RunTrace, Schedule, TaskSpan};

/// A task proposed by [`SessionState::ask`]: evaluate `x` as attempt
/// `attempt` of task `task`.
#[derive(Debug, Clone, PartialEq)]
pub struct Suggestion {
    /// Monotone task id.
    pub task: usize,
    /// 1-based attempt number (always 1 for a fresh task).
    pub attempt: usize,
    /// The query point.
    pub x: Vec<f64>,
}

/// One attempt currently being evaluated by some worker.
#[derive(Debug, Clone, PartialEq)]
pub struct InFlightTask {
    /// Task id.
    pub task: usize,
    /// 1-based attempt number.
    pub attempt: usize,
    /// The query point.
    pub x: Vec<f64>,
    /// `(worker, start_time)` once a worker picked the attempt up. The
    /// event loop starts attempts at dispatch so this is always
    /// `Some`; the threaded executor enqueues first and fills it in
    /// when the `Started` message arrives.
    pub started: Option<(usize, f64)>,
}

/// A failed attempt waiting out its retry backoff.
#[derive(Debug, Clone, PartialEq)]
pub struct PendingBackoff {
    /// Run-clock time at which the next attempt may start.
    pub due: f64,
    /// Worker the retry is bound to (the virtual executor retries on
    /// the same worker; the threaded executor treats this as a hint).
    pub worker: usize,
    /// Task id.
    pub task: usize,
    /// 1-based attempt number of the *next* attempt.
    pub attempt: usize,
    /// The query point.
    pub x: Vec<f64>,
}

/// Resolution of [`SessionState::tell`].
#[derive(Debug, Clone, PartialEq)]
pub enum Told {
    /// An observation was committed (success, exhausted-`Record`, or
    /// exhausted-`Penalty`); the worker is free for a new task.
    Committed,
    /// The attempt failed and was queued for retry at `due`; the task
    /// stays alive and the worker backs off with it.
    Backoff {
        /// Run-clock time of the next attempt.
        due: f64,
    },
    /// The task exhausted its attempts and was dropped without an
    /// observation; the worker is free for a new task.
    Dropped,
}

/// Verdict returned by a session hook after each completed
/// observation.
#[derive(Debug, Clone, PartialEq)]
pub enum HookAction {
    /// Keep running.
    Continue,
    /// Abort the run (e.g. a chaos plan killing the coordinator); the
    /// executor returns an `ExecutorFailure` carrying `reason`.
    Stop {
        /// Human-readable abort reason.
        reason: String,
    },
}

/// Callback invoked by executors after every completed observation,
/// with the session, the (read-only) policy, and the run clock.
/// Checkpoint writers live behind this seam so the executors never
/// depend on the persistence layer.
pub type SessionHook<'h> = dyn FnMut(&SessionState, &dyn AsyncPolicy, f64) -> HookAction + 'h;

/// Decides when a checkpoint is due: every `every_evals` completed
/// observations and/or every `every_seconds` of run clock, whichever
/// fires first. Pure bookkeeping — the caller supplies both clocks.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct CheckpointTrigger {
    every_evals: Option<usize>,
    every_seconds: Option<f64>,
    last_completed: usize,
    last_time: f64,
}

impl CheckpointTrigger {
    /// A trigger firing on eval-count and/or run-clock cadence. Both
    /// `None` never fires.
    pub fn new(every_evals: Option<usize>, every_seconds: Option<f64>) -> Self {
        CheckpointTrigger {
            every_evals,
            every_seconds,
            last_completed: 0,
            last_time: 0.0,
        }
    }

    /// Re-arms the cadence at `(completed, now)` without firing — used
    /// after a resume so the first post-resume checkpoint waits a full
    /// interval.
    pub fn rearm(&mut self, completed: usize, now: f64) {
        self.last_completed = completed;
        self.last_time = now;
    }

    /// Returns `true` (and re-arms) when a checkpoint is due at
    /// `(completed, now)`.
    pub fn fire(&mut self, completed: usize, now: f64) -> bool {
        let evals_due = self
            .every_evals
            .is_some_and(|k| completed >= self.last_completed + k);
        let clock_due = self
            .every_seconds
            .is_some_and(|s| now >= self.last_time + s);
        if evals_due || clock_due {
            self.rearm(completed, now);
            return true;
        }
        false
    }
}

/// Plain-data image of a [`SessionState`] for serialization: only
/// `std` types and `Copy`-field structs, so the persistence layer can
/// encode it without knowing executor internals. Spans of *active*
/// in-flight attempts are stripped (resume re-issues those attempts,
/// which re-creates their spans and busy points).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct SessionParts {
    /// Worker-pool size the run was scheduled for.
    pub workers: usize,
    /// Total task budget.
    pub max_evals: usize,
    /// Tasks issued so far (attempts of one task share an id).
    pub issued: usize,
    /// Tasks terminally resolved (committed or dropped).
    pub resolved: usize,
    /// Run clock at capture.
    pub clock: f64,
    /// Initial-design points not yet issued.
    pub pending: Vec<Vec<f64>>,
    /// Completed observations in completion order.
    pub observations: Vec<(Vec<f64>, f64)>,
    /// Best-so-far timeline as `(time, value)` pairs; replaying them
    /// through `RunTrace::record` rebuilds the trace bit-identically.
    pub trace: Vec<(f64, f64)>,
    /// Committed schedule spans (in-flight spans stripped).
    pub spans: Vec<TaskSpan>,
    /// Attempts that were being evaluated at capture.
    pub inflight: Vec<InFlightTask>,
    /// Failed attempts waiting out their backoff at capture.
    pub backoffs: Vec<PendingBackoff>,
}

/// The mutable state of one asynchronous optimization session. See the
/// module docs for the role split between this type and the executors.
#[derive(Debug, Clone, PartialEq)]
pub struct SessionState {
    pub(crate) data: Dataset,
    pub(crate) trace: RunTrace,
    pub(crate) schedule: Schedule,
    pub(crate) pending: VecDeque<Vec<f64>>,
    pub(crate) busy: Vec<BusyPoint>,
    pub(crate) inflight: Vec<InFlightTask>,
    pub(crate) backoffs: Vec<PendingBackoff>,
    pub(crate) issued: usize,
    pub(crate) resolved: usize,
    pub(crate) max_evals: usize,
    pub(crate) workers: usize,
    pub(crate) clock: f64,
}

impl SessionState {
    /// A fresh session over `workers` workers, a budget of `max_evals`
    /// tasks, and the given initial design (truncated to the budget).
    pub fn new(workers: usize, max_evals: usize, init: &[Vec<f64>]) -> Self {
        SessionState {
            data: Dataset::new(),
            trace: RunTrace::new(),
            schedule: Schedule::new(workers),
            pending: init.iter().take(max_evals).cloned().collect(),
            busy: Vec::new(),
            inflight: Vec::new(),
            backoffs: Vec::new(),
            issued: 0,
            resolved: 0,
            max_evals,
            workers,
            clock: 0.0,
        }
    }

    /// Proposes the next task: the next pending initial-design point,
    /// or a fresh policy proposal against the current data and busy
    /// set. Returns `None` once the task budget is exhausted.
    pub fn ask(&mut self, policy: &mut dyn AsyncPolicy) -> Option<Suggestion> {
        self.ask_traced(policy, &Telemetry::disabled())
    }

    /// [`SessionState::ask`] wrapped in a `session_step` span, so the
    /// proposal phase (and the GP/acquisition spans the policy opens
    /// beneath it) lands on the run timeline. Both executors call this
    /// from their coordinator thread only, which keeps span ids
    /// deterministic.
    pub fn ask_traced(
        &mut self,
        policy: &mut dyn AsyncPolicy,
        telemetry: &Telemetry,
    ) -> Option<Suggestion> {
        if self.issued >= self.max_evals {
            return None;
        }
        let _span = telemetry.span("session_step");
        let x = match self.pending.pop_front() {
            Some(x) => x,
            None => policy.select_next(&self.data, &self.busy),
        };
        let task = self.issued;
        self.issued += 1;
        Some(Suggestion {
            task,
            attempt: 1,
            x,
        })
    }

    /// Registers an attempt as in flight: adds its busy/pseudo point
    /// and its in-flight record. `started` is the start time when the
    /// attempt begins executing immediately on `worker`.
    pub fn begin(
        &mut self,
        task: usize,
        attempt: usize,
        x: Vec<f64>,
        worker: usize,
        started: Option<f64>,
    ) {
        self.busy.push(BusyPoint {
            x: x.clone(),
            task,
            worker,
        });
        self.inflight.push(InFlightTask {
            task,
            attempt,
            x,
            started: started.map(|t| (worker, t)),
        });
    }

    /// Removes and returns every in-flight record in issue order,
    /// clearing their busy points — the first step of a resume or
    /// rehydration, which re-issues each attempt at its recorded
    /// worker/start.
    pub(crate) fn drain_inflight(&mut self) -> Vec<InFlightTask> {
        let drained = std::mem::take(&mut self.inflight);
        self.busy
            .retain(|bp| !drained.iter().any(|i| i.task == bp.task));
        drained
    }

    /// Removes and returns the in-flight record for `task`, dropping
    /// its busy point.
    pub fn take_inflight(&mut self, task: usize) -> Option<InFlightTask> {
        self.busy.retain(|bp| bp.task != task);
        let idx = self.inflight.iter().position(|i| i.task == task)?;
        Some(self.inflight.remove(idx))
    }

    /// Removes and returns the backoff record for `task`.
    pub fn take_backoff(&mut self, task: usize) -> Option<PendingBackoff> {
        let idx = self.backoffs.iter().position(|b| b.task == task)?;
        Some(self.backoffs.remove(idx))
    }

    /// Removes and returns every backoff due at or before `now`,
    /// ordered by task id for determinism.
    pub fn take_due_backoffs(&mut self, now: f64) -> Vec<PendingBackoff> {
        let mut due: Vec<PendingBackoff> = Vec::new();
        let mut i = 0;
        while i < self.backoffs.len() {
            if self.backoffs[i].due <= now {
                due.push(self.backoffs.remove(i));
            } else {
                i += 1;
            }
        }
        due.sort_unstable_by_key(|r| r.task);
        due
    }

    /// Resolves one finished attempt of `task` (whose in-flight record
    /// the caller already removed via [`SessionState::take_inflight`]):
    /// commits the observation, queues a retry with backoff, or applies
    /// the exhaustion action — emitting the same telemetry events and
    /// counters in the same order as the pre-session executors.
    #[allow(clippy::too_many_arguments)]
    pub fn tell(
        &mut self,
        retry: &RetryPolicy,
        telemetry: &Telemetry,
        time: f64,
        worker: usize,
        task: usize,
        x: Vec<f64>,
        value: f64,
        attempt: usize,
        outcome: EvalOutcome,
    ) -> Told {
        let terminal = attempt >= retry.max_attempts;
        // `Record` keeps the legacy contract: an exhausted task is
        // committed with whatever value it produced, even non-finite.
        if outcome.is_ok() || (terminal && retry.on_exhausted == FailureAction::Record) {
            self.commit(telemetry, time, worker, task, value, x);
            return Told::Committed;
        }
        let reason = outcome.describe();
        telemetry.emit_at_with(time, || Event::EvalFailed {
            task,
            worker,
            attempt,
            reason: reason.clone(),
        });
        telemetry.incr("eval_failures", 1);
        if outcome == EvalOutcome::TimedOut {
            telemetry.incr("eval_timeouts", 1);
        }
        if !terminal {
            let delay = retry.delay(attempt);
            let next_attempt = attempt + 1;
            telemetry.emit_at_with(time, || Event::EvalRetried {
                task,
                attempt: next_attempt,
                delay,
            });
            telemetry.incr("eval_retries", 1);
            let due = time + delay;
            self.backoffs.push(PendingBackoff {
                due,
                worker,
                task,
                attempt: next_attempt,
                x,
            });
            return Told::Backoff { due };
        }
        match retry.on_exhausted {
            // Record was handled with the success path above.
            FailureAction::Record => unreachable!("Record exhaustion commits eagerly"),
            FailureAction::Drop => {
                self.resolved += 1;
                Told::Dropped
            }
            FailureAction::Penalty(p) => {
                // The synthetic observation is a real completion as far
                // as the trace and its JSONL reconstruction go.
                self.commit(telemetry, time, worker, task, p, x);
                Told::Committed
            }
        }
    }

    /// Commits an observation: `EvalFinished`, dataset, trace. The
    /// commit time is clamped to keep the trace monotone (a no-op on
    /// the virtual clock, load-bearing for the threaded executor's
    /// real clock after a resume).
    pub fn commit(
        &mut self,
        telemetry: &Telemetry,
        time: f64,
        worker: usize,
        task: usize,
        value: f64,
        x: Vec<f64>,
    ) {
        let t = time.max(self.trace.total_time());
        telemetry.emit_at_with(t, || Event::EvalFinished {
            task,
            worker,
            value,
        });
        self.data.push(x, value);
        self.trace.record(t, value);
        self.resolved += 1;
    }

    /// Observed data so far.
    pub fn data(&self) -> &Dataset {
        &self.data
    }

    /// Best-so-far timeline so far.
    pub fn trace(&self) -> &RunTrace {
        &self.trace
    }

    /// Worker occupancy so far.
    pub fn schedule(&self) -> &Schedule {
        &self.schedule
    }

    /// Current busy/pseudo points.
    pub fn busy(&self) -> &[BusyPoint] {
        &self.busy
    }

    /// Current in-flight attempts.
    pub fn inflight(&self) -> &[InFlightTask] {
        &self.inflight
    }

    /// Failed attempts waiting out their backoff.
    pub fn backoffs(&self) -> &[PendingBackoff] {
        &self.backoffs
    }

    /// Completed observations (`data().len()`).
    pub fn completed(&self) -> usize {
        self.data.len()
    }

    /// Tasks issued so far.
    pub fn issued(&self) -> usize {
        self.issued
    }

    /// Tasks terminally resolved so far.
    pub fn resolved(&self) -> usize {
        self.resolved
    }

    /// Total task budget.
    pub fn max_evals(&self) -> usize {
        self.max_evals
    }

    /// Worker-pool size.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Run clock at the last processed event.
    pub fn clock(&self) -> f64 {
        self.clock
    }

    /// Consumes the session into a [`RunResult`].
    pub fn into_result(self) -> RunResult {
        RunResult {
            data: self.data,
            trace: self.trace,
            schedule: self.schedule,
        }
    }

    /// Captures the session as plain serializable data. Spans of
    /// active in-flight attempts are stripped (resume re-issues those
    /// attempts, re-creating their spans and busy points), so the
    /// capture together with the black box fully determines the
    /// continuation.
    pub fn to_parts(&self) -> SessionParts {
        let spans = self
            .schedule
            .spans()
            .iter()
            .filter(|s| {
                !self
                    .inflight
                    .iter()
                    .any(|i| i.task == s.task && i.started == Some((s.worker, s.start)))
            })
            .copied()
            .collect();
        SessionParts {
            workers: self.workers,
            max_evals: self.max_evals,
            issued: self.issued,
            resolved: self.resolved,
            clock: self.clock,
            pending: self.pending.iter().cloned().collect(),
            observations: self
                .data
                .xs()
                .iter()
                .cloned()
                .zip(self.data.ys().iter().copied())
                .collect(),
            trace: self
                .trace
                .points()
                .iter()
                .map(|p| (p.time, p.value))
                .collect(),
            spans,
            inflight: self.inflight.clone(),
            backoffs: self.backoffs.clone(),
        }
    }

    /// Rebuilds a session from captured parts. The dataset, trace
    /// (best-so-far recomputation replays bit-identically), and
    /// committed schedule are restored; the busy set starts empty
    /// because the resuming executor re-issues every in-flight attempt,
    /// which re-creates busy points and spans.
    ///
    /// # Panics
    ///
    /// Panics if the parts are internally inconsistent (non-monotone
    /// trace times, span workers out of range) — captures produced by
    /// [`SessionState::to_parts`] never are.
    pub fn from_parts(parts: SessionParts) -> Self {
        let mut data = Dataset::new();
        for (x, y) in parts.observations {
            data.push(x, y);
        }
        let mut trace = RunTrace::new();
        for (time, value) in parts.trace {
            trace.record(time, value);
        }
        let mut schedule = Schedule::new(parts.workers);
        for s in parts.spans {
            schedule.add_with(s.worker, s.task, s.start, s.end, s.failed);
        }
        SessionState {
            data,
            trace,
            schedule,
            pending: parts.pending.into(),
            busy: Vec::new(),
            inflight: parts.inflight,
            backoffs: parts.backoffs,
            issued: parts.issued,
            resolved: parts.resolved,
            max_evals: parts.max_evals,
            workers: parts.workers,
            clock: parts.clock,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Center;
    impl AsyncPolicy for Center {
        fn select_next(&mut self, _d: &Dataset, _b: &[BusyPoint]) -> Vec<f64> {
            vec![0.5]
        }
    }

    #[test]
    fn ask_drains_pending_then_polls_policy() {
        let init = vec![vec![0.1], vec![0.2]];
        let mut s = SessionState::new(2, 4, &init);
        let a = s.ask(&mut Center).unwrap();
        assert_eq!((a.task, a.attempt, a.x), (0, 1, vec![0.1]));
        let b = s.ask(&mut Center).unwrap();
        assert_eq!(b.x, vec![0.2]);
        let c = s.ask(&mut Center).unwrap();
        assert_eq!(c.x, vec![0.5], "policy takes over after init");
        assert!(s.ask(&mut Center).is_some());
        assert!(s.ask(&mut Center).is_none(), "budget of 4 exhausted");
        assert_eq!(s.issued(), 4);
    }

    #[test]
    fn init_is_truncated_to_budget() {
        let init: Vec<Vec<f64>> = (0..9).map(|i| vec![i as f64]).collect();
        let s = SessionState::new(1, 3, &init);
        assert_eq!(s.pending.len(), 3);
    }

    #[test]
    fn begin_and_take_inflight_track_busy_points() {
        let mut s = SessionState::new(2, 4, &[]);
        s.begin(0, 1, vec![0.3], 1, Some(2.0));
        assert_eq!(s.busy().len(), 1);
        assert_eq!(s.inflight().len(), 1);
        assert_eq!(s.inflight()[0].started, Some((1, 2.0)));
        let inf = s.take_inflight(0).unwrap();
        assert_eq!(inf.x, vec![0.3]);
        assert!(s.busy().is_empty());
        assert!(s.take_inflight(0).is_none());
    }

    #[test]
    fn tell_commits_ok_outcomes() {
        let mut s = SessionState::new(1, 2, &[]);
        let retry = RetryPolicy::none();
        let t = Telemetry::disabled();
        let told = s.tell(&retry, &t, 5.0, 0, 0, vec![0.4], 1.5, 1, EvalOutcome::Ok);
        assert_eq!(told, Told::Committed);
        assert_eq!(s.completed(), 1);
        assert_eq!(s.resolved(), 1);
        assert_eq!(s.trace().points()[0].time, 5.0);
    }

    #[test]
    fn tell_queues_backoff_then_drops_on_exhaustion() {
        let mut s = SessionState::new(1, 2, &[]);
        let retry = RetryPolicy::default().max_attempts(2).backoff(3.0, 2.0);
        let t = Telemetry::disabled();
        let told = s.tell(
            &retry,
            &t,
            10.0,
            0,
            0,
            vec![0.4],
            f64::NAN,
            1,
            EvalOutcome::Failed {
                reason: "boom".to_string(),
            },
        );
        assert_eq!(told, Told::Backoff { due: 13.0 });
        assert_eq!(s.backoffs().len(), 1);
        assert_eq!(s.backoffs()[0].attempt, 2);
        let b = s.take_backoff(0).unwrap();
        let told = s.tell(
            &retry,
            &t,
            20.0,
            0,
            0,
            b.x,
            f64::NAN,
            b.attempt,
            EvalOutcome::Failed {
                reason: "boom".to_string(),
            },
        );
        assert_eq!(told, Told::Dropped);
        assert_eq!(s.completed(), 0);
        assert_eq!(s.resolved(), 1);
    }

    #[test]
    fn commit_clamps_non_monotone_times() {
        let mut s = SessionState::new(1, 3, &[]);
        let t = Telemetry::disabled();
        s.commit(&t, 10.0, 0, 0, 1.0, vec![0.1]);
        s.commit(&t, 7.0, 0, 1, 2.0, vec![0.2]);
        assert_eq!(s.trace().points()[1].time, 10.0);
    }

    #[test]
    fn take_due_backoffs_orders_by_task() {
        let mut s = SessionState::new(2, 8, &[]);
        for (task, due) in [(3usize, 1.0), (1, 2.0), (2, 0.5), (4, 9.0)] {
            s.backoffs.push(PendingBackoff {
                due,
                worker: 0,
                task,
                attempt: 2,
                x: vec![0.0],
            });
        }
        let due = s.take_due_backoffs(2.0);
        let tasks: Vec<usize> = due.iter().map(|b| b.task).collect();
        assert_eq!(tasks, vec![1, 2, 3]);
        assert_eq!(s.backoffs().len(), 1);
    }

    #[test]
    fn parts_round_trip_preserves_everything() {
        let mut s = SessionState::new(3, 10, &[vec![0.9]]);
        let t = Telemetry::disabled();
        s.clock = 12.5;
        s.commit(&t, 4.0, 0, 0, 1.0, vec![0.1]);
        s.commit(&t, 6.0, 1, 1, 0.5, vec![0.2]);
        s.schedule.add_with(0, 0, 0.0, 4.0, false);
        s.schedule.add_with(1, 1, 0.0, 6.0, false);
        // An active in-flight attempt whose span must be stripped.
        s.schedule.add_with(2, 2, 6.0, 14.0, false);
        s.begin(2, 1, vec![0.7], 2, Some(6.0));
        s.backoffs.push(PendingBackoff {
            due: 13.0,
            worker: 0,
            task: 3,
            attempt: 2,
            x: vec![0.3],
        });
        s.issued = 4;

        let parts = s.to_parts();
        assert_eq!(parts.spans.len(), 2, "in-flight span stripped");
        assert_eq!(parts.inflight.len(), 1);
        assert_eq!(parts.backoffs.len(), 1);
        assert_eq!(parts.clock, 12.5);

        let rebuilt = SessionState::from_parts(parts.clone());
        assert_eq!(rebuilt.data, s.data);
        assert_eq!(rebuilt.trace, s.trace);
        assert!(rebuilt.busy.is_empty(), "busy rebuilt by re-issue");
        assert_eq!(rebuilt.inflight, s.inflight);
        assert_eq!(rebuilt.backoffs, s.backoffs);
        assert_eq!(rebuilt.issued, 4);
        // A second capture of the rebuilt session is identical.
        assert_eq!(rebuilt.to_parts(), parts);
    }

    #[test]
    fn trigger_fires_on_eval_cadence() {
        let mut tr = CheckpointTrigger::new(Some(3), None);
        assert!(!tr.fire(2, 0.0));
        assert!(tr.fire(3, 0.0));
        assert!(!tr.fire(5, 0.0));
        assert!(tr.fire(6, 0.0));
    }

    #[test]
    fn trigger_fires_on_clock_cadence_and_rearm_resets() {
        let mut tr = CheckpointTrigger::new(None, Some(10.0));
        assert!(!tr.fire(1, 9.9));
        assert!(tr.fire(1, 10.0));
        assert!(!tr.fire(1, 19.0));
        tr.rearm(1, 100.0);
        assert!(!tr.fire(1, 105.0));
        assert!(tr.fire(1, 110.0));
    }

    #[test]
    fn disabled_trigger_never_fires() {
        let mut tr = CheckpointTrigger::new(None, None);
        assert!(!tr.fire(usize::MAX - 1, 1e12));
    }
}
