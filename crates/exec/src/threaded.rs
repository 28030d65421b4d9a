//! Real multi-threaded asynchronous executor.
//!
//! The [`crate::VirtualExecutor`] reproduces the paper's wall-clock
//! arithmetic in microseconds; this executor is the production path, where
//! the black box is genuinely expensive (an actual simulator invocation).
//! Worker threads pull jobs from a crossbeam channel; the coordinator runs
//! the policy and keeps at most one job in flight per worker.
//!
//! Failure handling: worker threads wrap every evaluation in
//! [`std::panic::catch_unwind`], so a panicking black box costs one
//! attempt, not the run. A panic whose payload is
//! [`crate::fault::WorkerDeath`] simulates a worker host dying: the
//! thread reports `WorkerCrashed` and exits for good. Attempts that
//! fail (or exceed [`RetryPolicy::timeout`]) are requeued with backoff;
//! when every worker is dead or stuck the run ends with a structured
//! [`OptError::ExecutorFailure`] instead of deadlocking.

use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use crossbeam::channel;
use easybo_opt::OptError;
use easybo_telemetry::{Event, Telemetry};

use crate::blackbox::{AttemptContext, EvalOutcome, Evaluation};
use crate::fault::WorkerDeath;
use crate::retry::RetryPolicy;
use crate::session::{HookAction, SessionHook, SessionState, Told};
use crate::virtual_exec::{finish_run_metrics, AsyncPolicy};
use crate::{BlackBox, RunResult};

/// Sleep-slice length for emulated evaluation time, so workers notice
/// the end-of-run shutdown flag instead of sleeping out a hung job.
const SLEEP_SLICE_S: f64 = 0.01;

/// Multi-threaded asynchronous executor.
///
/// `time_scale` (seconds of real sleep per second of reported evaluation
/// cost) lets tests and demos emulate heterogeneous simulator runtimes
/// without actually burning them; pass `0.0` to run at full speed.
///
/// # Example
///
/// ```
/// use easybo_exec::{CostedFunction, Dataset, BusyPoint, SimTimeModel, ThreadedExecutor};
/// use easybo_exec::AsyncPolicy;
/// use easybo_opt::Bounds;
///
/// struct Center;
/// impl AsyncPolicy for Center {
///     fn select_next(&mut self, _d: &Dataset, _b: &[BusyPoint]) -> Vec<f64> {
///         vec![0.5]
///     }
/// }
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let bounds = Bounds::unit_cube(1)?;
/// let time = SimTimeModel::new(&bounds, 10.0, 0.2, 1);
/// let bb = CostedFunction::new("toy", bounds, time, |x: &[f64]| x[0]);
/// let exec = ThreadedExecutor::new(4, 1e-5); // 10µs per virtual second
/// let result = exec.run_async(&bb, &[vec![0.9]], 8, &mut Center)?;
/// assert_eq!(result.data.len(), 8);
/// assert!(result.best_value() >= 0.9);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ThreadedExecutor {
    workers: usize,
    time_scale: f64,
}

/// Job sent to a worker thread.
struct Job {
    task: usize,
    attempt: usize,
    x: Vec<f64>,
}

/// Result returned by a worker thread.
struct Done {
    worker: usize,
    task: usize,
    attempt: usize,
    eval: Evaluation,
    started_at: Duration,
    finished_at: Duration,
}

/// Message from a worker thread to the coordinator. `Started` always
/// precedes the matching `Done` on the (FIFO) channel, letting the
/// coordinator attribute each in-flight point to the worker that
/// actually picked it up rather than a slot guess.
enum WorkerMsg {
    Started {
        worker: usize,
        task: usize,
        attempt: usize,
        at: Duration,
    },
    Done(Done),
    /// The worker died mid-evaluation (a [`WorkerDeath`] panic) and has
    /// left the pool.
    Crashed {
        worker: usize,
        task: usize,
        attempt: usize,
        at: Duration,
    },
}

impl ThreadedExecutor {
    /// Creates an executor with `workers` OS threads and the given
    /// real-time scale for evaluation costs.
    ///
    /// # Panics
    ///
    /// Panics if `workers == 0` or `time_scale` is negative/non-finite.
    pub fn new(workers: usize, time_scale: f64) -> Self {
        assert!(workers > 0, "need at least one worker");
        assert!(
            time_scale.is_finite() && time_scale >= 0.0,
            "time_scale must be a non-negative finite number"
        );
        ThreadedExecutor {
            workers,
            time_scale,
        }
    }

    /// Number of worker threads.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Runs asynchronous optimization on real threads. Semantics match
    /// [`crate::VirtualExecutor::run_async`], except times in the returned
    /// trace/schedule are *real elapsed seconds*.
    ///
    /// # Errors
    ///
    /// Returns [`OptError::ExecutorFailure`] when the worker pool can no
    /// longer finish the run (every thread dead or stuck).
    pub fn run_async(
        &self,
        bb: &(dyn BlackBox + Sync),
        init: &[Vec<f64>],
        max_evals: usize,
        policy: &mut dyn AsyncPolicy,
    ) -> Result<RunResult, OptError> {
        self.run_async_with(bb, init, max_evals, policy, &Telemetry::disabled())
    }

    /// [`ThreadedExecutor::run_async`] with a telemetry handle: the run
    /// clock is real seconds since the run began. `QueryIssued` fires
    /// when the coordinator enqueues a job (its `worker` is a slot hint
    /// — the job has not been claimed yet), `EvalStarted`/`EvalFinished`
    /// carry the id of the thread that actually ran it, `WorkerIdle`
    /// reports each gap between a worker's consecutive jobs, and the
    /// `queue_wait_s` histogram records enqueue-to-start latency.
    ///
    /// # Errors
    ///
    /// Returns [`OptError::ExecutorFailure`] when the worker pool can no
    /// longer finish the run (every thread dead or stuck).
    pub fn run_async_with(
        &self,
        bb: &(dyn BlackBox + Sync),
        init: &[Vec<f64>],
        max_evals: usize,
        policy: &mut dyn AsyncPolicy,
        telemetry: &Telemetry,
    ) -> Result<RunResult, OptError> {
        self.run_async_resilient(bb, init, max_evals, policy, &RetryPolicy::none(), telemetry)
    }

    /// [`ThreadedExecutor::run_async_with`] under a [`RetryPolicy`]:
    /// failed attempts (panics, failed/non-finite outcomes, timeouts,
    /// worker deaths) are requeued onto the pool after a real-seconds
    /// backoff, up to `retry.max_attempts`, then dropped/recorded/
    /// penalized per [`crate::FailureAction`]. A timed-out attempt is
    /// abandoned: its busy point is removed immediately (so the policy
    /// stops penalizing around a dead point, §III-C), its span is
    /// flagged failed, and its worker is considered stuck until it
    /// reports back. `max_evals` counts tasks, not attempts.
    ///
    /// # Errors
    ///
    /// Returns [`OptError::ExecutorFailure`] when every worker is dead
    /// or stuck, or the message channel is severed, instead of
    /// deadlocking on a reply that can never come.
    pub fn run_async_resilient(
        &self,
        bb: &(dyn BlackBox + Sync),
        init: &[Vec<f64>],
        max_evals: usize,
        policy: &mut dyn AsyncPolicy,
        retry: &RetryPolicy,
        telemetry: &Telemetry,
    ) -> Result<RunResult, OptError> {
        let session = SessionState::new(self.workers, max_evals, init);
        self.drive(bb, session, policy, retry, telemetry, None, false)
    }

    /// [`ThreadedExecutor::run_async_resilient`] over an explicit
    /// [`SessionState`], with an optional [`SessionHook`] invoked after
    /// every completed observation (the seam checkpoint writers and
    /// chaos plans plug into).
    ///
    /// # Errors
    ///
    /// Returns [`OptError::ExecutorFailure`] when the pool dies, the
    /// channel is severed, or the hook aborts via [`HookAction::Stop`].
    #[allow(clippy::too_many_arguments)]
    pub fn run_session_resilient(
        &self,
        bb: &(dyn BlackBox + Sync),
        init: &[Vec<f64>],
        max_evals: usize,
        policy: &mut dyn AsyncPolicy,
        retry: &RetryPolicy,
        telemetry: &Telemetry,
        hook: Option<&mut SessionHook<'_>>,
    ) -> Result<RunResult, OptError> {
        let session = SessionState::new(self.workers, max_evals, init);
        self.drive(bb, session, policy, retry, telemetry, hook, false)
    }

    /// Continues a previously captured session: interrupted in-flight
    /// attempts are re-enqueued onto the fresh pool, and pending retry
    /// backoffs are rebased onto this run's epoch (the remaining delay
    /// is preserved, measured from the capture clock). Real-time
    /// timestamps restart at zero, but the trace's monotone clamp keeps
    /// best-so-far times nondecreasing across the splice.
    ///
    /// # Errors
    ///
    /// Returns [`OptError::ExecutorFailure`] when the session was
    /// captured under a different worker count, the pool dies, or the
    /// hook aborts via [`HookAction::Stop`].
    pub fn resume_session_resilient(
        &self,
        bb: &(dyn BlackBox + Sync),
        mut session: SessionState,
        policy: &mut dyn AsyncPolicy,
        retry: &RetryPolicy,
        telemetry: &Telemetry,
        hook: Option<&mut SessionHook<'_>>,
    ) -> Result<RunResult, OptError> {
        let clock = session.clock();
        for b in &mut session.backoffs {
            b.due = (b.due - clock).max(0.0);
        }
        self.drive(bb, session, policy, retry, telemetry, hook, true)
    }

    /// The coordinator loop shared by fresh and resumed runs.
    #[allow(clippy::too_many_arguments, clippy::too_many_lines)]
    fn drive(
        &self,
        bb: &(dyn BlackBox + Sync),
        session: SessionState,
        policy: &mut dyn AsyncPolicy,
        retry: &RetryPolicy,
        telemetry: &Telemetry,
        mut hook: Option<&mut SessionHook<'_>>,
        resume: bool,
    ) -> Result<RunResult, OptError> {
        if session.workers() != self.workers {
            return Err(OptError::ExecutorFailure {
                reason: format!(
                    "session captured with {} workers cannot run on {}",
                    session.workers(),
                    self.workers
                ),
            });
        }
        let epoch = Instant::now();
        let mut session = session;
        // Enqueue time per task, for the queue-wait histogram.
        let mut issued_at: HashMap<usize, f64> = HashMap::new();
        // Per-worker last-finish time, for idle-gap events.
        let mut last_done: Vec<f64> = vec![0.0; self.workers];
        let mut dead = vec![false; self.workers];
        let mut stuck = vec![false; self.workers];
        let shutdown = AtomicBool::new(false);

        let (job_tx, job_rx) = channel::unbounded::<Job>();
        let (msg_tx, msg_rx) = channel::unbounded::<WorkerMsg>();

        let run: Result<(), OptError> = crossbeam::scope(|scope| {
            for w in 0..self.workers {
                let job_rx = job_rx.clone();
                let msg_tx = msg_tx.clone();
                let scale = self.time_scale;
                let shutdown = &shutdown;
                scope.spawn(move |_| {
                    'jobs: while let Ok(job) = job_rx.recv() {
                        let started_at = epoch.elapsed();
                        if msg_tx
                            .send(WorkerMsg::Started {
                                worker: w,
                                task: job.task,
                                attempt: job.attempt,
                                at: started_at,
                            })
                            .is_err()
                        {
                            break;
                        }
                        let ctx = AttemptContext {
                            task: job.task,
                            attempt: job.attempt,
                            worker: w,
                            panics_caught: true,
                        };
                        let eval = match catch_unwind(AssertUnwindSafe(|| {
                            bb.evaluate_attempt(&job.x, ctx)
                        })) {
                            Ok(e) => e,
                            Err(payload) => {
                                if payload.is::<WorkerDeath>() {
                                    let _ = msg_tx.send(WorkerMsg::Crashed {
                                        worker: w,
                                        task: job.task,
                                        attempt: job.attempt,
                                        at: epoch.elapsed(),
                                    });
                                    break; // this worker is gone for good
                                }
                                Evaluation::failed("panicked during evaluation", 0.0)
                            }
                        };
                        if scale > 0.0 {
                            // Sleep in slices so a "hung" job (huge cost)
                            // cannot outlive the run once shutdown is set.
                            let mut remaining = eval.cost * scale;
                            while remaining > 0.0 {
                                if shutdown.load(Ordering::Relaxed) {
                                    break 'jobs;
                                }
                                let chunk = remaining.min(SLEEP_SLICE_S);
                                std::thread::sleep(Duration::from_secs_f64(chunk));
                                remaining -= chunk;
                            }
                        }
                        if msg_tx
                            .send(WorkerMsg::Done(Done {
                                worker: w,
                                task: job.task,
                                attempt: job.attempt,
                                eval,
                                started_at,
                                finished_at: epoch.elapsed(),
                            }))
                            .is_err()
                        {
                            break;
                        }
                    }
                });
            }
            drop(msg_tx); // workers hold the remaining clones
            drop(job_rx); // so sends fail once every worker has exited

            let out = (|| -> Result<(), OptError> {
                // Enqueues one attempt of a task onto the worker pool.
                let enqueue = |task: usize,
                               attempt: usize,
                               x: Vec<f64>,
                               session: &mut SessionState,
                               issued_at: &mut HashMap<usize, f64>| {
                    let now = epoch.elapsed().as_secs_f64();
                    telemetry.set_now(now);
                    let _span = telemetry.span("dispatch");
                    // Slot hint only: the real worker id arrives with the
                    // `Started` message and overwrites this field.
                    let worker = task % self.workers;
                    telemetry.emit_at_with(now, || Event::QueryIssued { task, worker });
                    issued_at.insert(task, now);
                    session.begin(task, attempt, x.clone(), worker, None);
                    // A failed send means every worker exited; the
                    // capacity check below turns that into an error.
                    let _ = job_tx.send(Job { task, attempt, x });
                };
                // Proposes and enqueues a brand-new task (no-op once the
                // budget is exhausted).
                let issue_new = |session: &mut SessionState,
                                 issued_at: &mut HashMap<usize, f64>,
                                 policy: &mut dyn AsyncPolicy| {
                    telemetry.set_now(epoch.elapsed().as_secs_f64());
                    if let Some(s) = session.ask_traced(policy, telemetry) {
                        enqueue(s.task, s.attempt, s.x, session, issued_at);
                    }
                };

                if resume {
                    // Re-enqueue every interrupted attempt, then top the
                    // pipeline back up to one job per worker.
                    let inflight = std::mem::take(&mut session.inflight);
                    for inf in inflight {
                        enqueue(inf.task, inf.attempt, inf.x, &mut session, &mut issued_at);
                    }
                    let spare = self.workers.saturating_sub(session.inflight().len());
                    for _ in 0..spare {
                        issue_new(&mut session, &mut issued_at, policy);
                    }
                } else {
                    // Prime the pipeline: one in-flight job per worker.
                    for _ in 0..self.workers.min(session.max_evals()) {
                        issue_new(&mut session, &mut issued_at, policy);
                    }
                }

                let mut last_completed = session.completed();
                while session.resolved() < session.issued() {
                    // Fire retries whose backoff has elapsed.
                    let now = epoch.elapsed().as_secs_f64();
                    session.clock = now;
                    for r in session.take_due_backoffs(now) {
                        enqueue(r.task, r.attempt, r.x, &mut session, &mut issued_at);
                    }

                    let live = (0..self.workers).filter(|&w| !dead[w] && !stuck[w]).count();
                    if live == 0 {
                        return Err(OptError::ExecutorFailure {
                            reason: format!(
                                "no live workers remain ({} of {} dead, {} stuck, {} tasks unresolved)",
                                dead.iter().filter(|&&d| d).count(),
                                self.workers,
                                stuck.iter().filter(|&&s| s).count(),
                                session.issued() - session.resolved()
                            ),
                        });
                    }

                    // Sleep until the next deadline/backoff expiry, or
                    // indefinitely when neither is pending.
                    let mut wake: Option<f64> = session
                        .backoffs()
                        .iter()
                        .map(|r| r.due)
                        .fold(None, |a, d| Some(a.map_or(d, |v: f64| v.min(d))));
                    if let Some(tmo) = retry.timeout {
                        for inf in session.inflight() {
                            if let Some((_, start)) = inf.started {
                                let d = start + tmo;
                                wake = Some(wake.map_or(d, |v: f64| v.min(d)));
                            }
                        }
                    }
                    let severed = || OptError::ExecutorFailure {
                        reason: "worker message channel severed".to_string(),
                    };
                    let msg = match wake {
                        None => Some(msg_rx.recv().map_err(|_| severed())?),
                        Some(at) => {
                            let now = epoch.elapsed().as_secs_f64();
                            let dur = Duration::from_secs_f64((at - now).max(0.0));
                            match msg_rx.recv_timeout(dur) {
                                Ok(m) => Some(m),
                                Err(channel::RecvTimeoutError::Timeout) => None,
                                Err(channel::RecvTimeoutError::Disconnected) => {
                                    return Err(severed())
                                }
                            }
                        }
                    };

                    match msg {
                        None => {}
                        Some(WorkerMsg::Started {
                            worker,
                            task,
                            attempt,
                            at,
                        }) => {
                            // Any sign of life un-sticks a worker.
                            stuck[worker] = false;
                            let at_s = at.as_secs_f64();
                            let current = session
                                .inflight()
                                .iter()
                                .any(|inf| inf.task == task && inf.attempt == attempt);
                            if current {
                                telemetry.set_now(at_s);
                                if let Some(inf) =
                                    session.inflight.iter_mut().find(|inf| inf.task == task)
                                {
                                    inf.started = Some((worker, at_s));
                                }
                                if let Some(bp) =
                                    session.busy.iter_mut().find(|bp| bp.task == task)
                                {
                                    bp.worker = worker;
                                }
                                if let Some(&t0) = issued_at.get(&task) {
                                    telemetry.observe("queue_wait_s", (at_s - t0).max(0.0));
                                }
                                let gap = at_s - last_done[worker];
                                if gap > 0.0 {
                                    telemetry
                                        .emit_at_with(at_s, || Event::WorkerIdle { worker, gap });
                                }
                                telemetry.emit_at_with(at_s, || Event::EvalStarted { task, worker });
                            }
                        }
                        Some(WorkerMsg::Done(done)) => {
                            stuck[done.worker] = false;
                            let finished = done.finished_at.as_secs_f64();
                            last_done[done.worker] = finished;
                            let current = session
                                .inflight()
                                .iter()
                                .any(|inf| inf.task == done.task && inf.attempt == done.attempt);
                            if !current {
                                // A superseded attempt (timed out and already
                                // resolved): the worker is free again, nothing
                                // else to record.
                                continue;
                            }
                            // `take_inflight` removes exactly the completed
                            // task's busy point: in-flight points are keyed
                            // by task id, so duplicate `x` vectors on other
                            // workers stay in the busy set.
                            let inf = session.take_inflight(done.task).expect("checked above");
                            issued_at.remove(&done.task);
                            let outcome = done.eval.resolved_outcome();
                            session.schedule.add_with(
                                done.worker,
                                done.task,
                                done.started_at.as_secs_f64(),
                                finished,
                                !outcome.is_ok(),
                            );
                            telemetry.set_now(finished);
                            match session.tell(
                                retry,
                                telemetry,
                                finished,
                                done.worker,
                                done.task,
                                inf.x,
                                done.eval.value,
                                done.attempt,
                                outcome,
                            ) {
                                Told::Backoff { .. } => {}
                                Told::Committed | Told::Dropped => {
                                    issue_new(&mut session, &mut issued_at, policy);
                                }
                            }
                        }
                        Some(WorkerMsg::Crashed {
                            worker,
                            task,
                            attempt,
                            at,
                        }) => {
                            dead[worker] = true;
                            stuck[worker] = false;
                            let at_s = at.as_secs_f64();
                            telemetry.set_now(at_s);
                            telemetry.emit_at_with(at_s, || Event::WorkerCrashed { worker, task });
                            telemetry.incr("worker_crashes", 1);
                            let current = session
                                .inflight()
                                .iter()
                                .any(|inf| inf.task == task && inf.attempt == attempt);
                            if current {
                                let inf = session.take_inflight(task).expect("checked above");
                                issued_at.remove(&task);
                                if let Some((w, start)) = inf.started {
                                    session.schedule.add_with(w, task, start, at_s.max(start), true);
                                }
                                let outcome = EvalOutcome::Failed {
                                    reason: "worker crashed".to_string(),
                                };
                                // Nothing came back from the dead worker, so
                                // a `Record` exhaustion commits an honest NaN.
                                match session.tell(
                                    retry,
                                    telemetry,
                                    at_s,
                                    worker,
                                    task,
                                    inf.x,
                                    f64::NAN,
                                    attempt,
                                    outcome,
                                ) {
                                    Told::Backoff { .. } => {}
                                    Told::Committed | Told::Dropped => {
                                        issue_new(&mut session, &mut issued_at, policy);
                                    }
                                }
                            }
                        }
                    }

                    // Abandon attempts that blew their deadline.
                    if let Some(tmo) = retry.timeout {
                        let now = epoch.elapsed().as_secs_f64();
                        let mut expired: Vec<usize> = session
                            .inflight()
                            .iter()
                            .filter(|inf| {
                                inf.started.is_some_and(|(_, start)| now >= start + tmo)
                            })
                            .map(|inf| inf.task)
                            .collect();
                        expired.sort_unstable();
                        for task in expired {
                            let inf = session.take_inflight(task).expect("collected above");
                            let (worker, start) = inf.started.expect("filtered on started");
                            issued_at.remove(&task);
                            // The abandoned worker is occupied (and useless)
                            // until it reports back.
                            stuck[worker] = true;
                            session.schedule.add_with(worker, task, start, start + tmo, true);
                            let deadline = start + tmo;
                            telemetry.set_now(deadline);
                            match session.tell(
                                retry,
                                telemetry,
                                deadline,
                                worker,
                                task,
                                inf.x,
                                f64::NAN,
                                inf.attempt,
                                EvalOutcome::TimedOut,
                            ) {
                                Told::Backoff { .. } => {}
                                Told::Committed | Told::Dropped => {
                                    issue_new(&mut session, &mut issued_at, policy);
                                }
                            }
                        }
                    }

                    if session.completed() > last_completed {
                        last_completed = session.completed();
                        session.clock = epoch.elapsed().as_secs_f64();
                        if let Some(h) = hook.as_mut() {
                            if let HookAction::Stop { reason } =
                                (**h)(&session, &*policy, session.clock)
                            {
                                return Err(OptError::ExecutorFailure { reason });
                            }
                        }
                    }
                }
                Ok(())
            })();
            shutdown.store(true, Ordering::Relaxed);
            drop(job_tx); // signal workers to exit
            out
        })
        .expect("executor scope panicked");
        run?;

        finish_run_metrics(telemetry, session.schedule());
        Ok(session.into_result())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::FaultPlan;
    use crate::{BusyPoint, CostedFunction, Dataset, FaultyBlackBox, SimTimeModel};
    use easybo_opt::Bounds;

    struct Walker(f64);
    impl AsyncPolicy for Walker {
        fn select_next(&mut self, _d: &Dataset, _b: &[BusyPoint]) -> Vec<f64> {
            self.0 = (self.0 + 0.1) % 1.0;
            vec![self.0]
        }
    }

    fn bb() -> CostedFunction<impl Fn(&[f64]) -> f64 + Send + Sync> {
        let bounds = Bounds::unit_cube(1).unwrap();
        let time = SimTimeModel::new(&bounds, 100.0, 0.4, 3);
        CostedFunction::new("toy", bounds, time, |x: &[f64]| 1.0 - (x[0] - 0.7).abs())
    }

    #[test]
    fn runs_exact_count_and_finds_values() {
        let exec = ThreadedExecutor::new(4, 0.0);
        let r = exec
            .run_async(&bb(), &[vec![0.7]], 13, &mut Walker(0.0))
            .expect("run succeeds");
        assert_eq!(r.data.len(), 13);
        assert_eq!(r.trace.len(), 13);
        assert!((r.best_value() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn honors_max_evals_below_worker_count() {
        let exec = ThreadedExecutor::new(8, 0.0);
        let r = exec
            .run_async(&bb(), &[], 3, &mut Walker(0.0))
            .expect("run succeeds");
        assert_eq!(r.data.len(), 3);
    }

    #[test]
    fn sleep_scale_emulates_heterogeneous_times() {
        // With a scale of 50µs per virtual second and costs of ~60-140s,
        // the run takes a measurable but tiny amount of real time.
        let exec = ThreadedExecutor::new(2, 5e-5);
        let start = std::time::Instant::now();
        let r = exec
            .run_async(&bb(), &[], 6, &mut Walker(0.0))
            .expect("run succeeds");
        let elapsed = start.elapsed().as_secs_f64();
        assert_eq!(r.data.len(), 6);
        assert!(elapsed > 5e-3, "sleeps should be observable: {elapsed}");
        assert!(r.schedule.makespan() > 0.0);
    }

    #[test]
    fn policy_sees_busy_points_in_threaded_mode() {
        struct Spy(Vec<usize>);
        impl AsyncPolicy for Spy {
            fn select_next(&mut self, _d: &Dataset, b: &[BusyPoint]) -> Vec<f64> {
                self.0.push(b.len());
                vec![0.4]
            }
        }
        let exec = ThreadedExecutor::new(3, 1e-5);
        let mut spy = Spy(Vec::new());
        let _ = exec
            .run_async(&bb(), &[vec![0.1], vec![0.2], vec![0.3]], 9, &mut spy)
            .expect("run succeeds");
        assert!(!spy.0.is_empty());
        // At selection time the other workers are (still) busy.
        assert!(spy.0.iter().all(|&n| n <= 3));
        assert!(spy.0.iter().any(|&n| n >= 1));
    }

    #[test]
    #[should_panic(expected = "at least one worker")]
    fn zero_workers_panics() {
        let _ = ThreadedExecutor::new(0, 0.0);
    }

    #[test]
    fn panicking_blackbox_costs_one_attempt_not_the_run() {
        struct PanicFirst(Bounds);
        impl BlackBox for PanicFirst {
            fn bounds(&self) -> &Bounds {
                &self.0
            }
            fn evaluate(&self, x: &[f64]) -> Evaluation {
                Evaluation::ok(x[0], 1.0)
            }
            fn evaluate_attempt(&self, x: &[f64], ctx: AttemptContext) -> Evaluation {
                if ctx.attempt == 1 {
                    panic!("flaky simulator");
                }
                self.evaluate(x)
            }
        }
        let bb = PanicFirst(Bounds::unit_cube(1).unwrap());
        let retry = RetryPolicy::default().max_attempts(2).backoff(0.0, 1.0);
        let r = ThreadedExecutor::new(2, 0.0)
            .run_async_resilient(
                &bb,
                &[],
                4,
                &mut Walker(0.0),
                &retry,
                &Telemetry::disabled(),
            )
            .expect("panics are contained");
        assert_eq!(r.data.len(), 4);
        assert!(r.data.ys().iter().all(|y| y.is_finite()));
    }

    #[test]
    fn sole_worker_death_returns_structured_error() {
        // Satellite regression: a killed worker must surface as an
        // `OptError`, not a deadlock or an executor panic.
        let plan = FaultPlan {
            crash_after: vec![Some(1)],
            ..FaultPlan::default()
        };
        let faulty = FaultyBlackBox::new(bb(), plan);
        let err = ThreadedExecutor::new(1, 0.0)
            .run_async(&faulty, &[vec![0.5]], 6, &mut Walker(0.0))
            .expect_err("run cannot finish without workers");
        assert!(
            matches!(err, OptError::ExecutorFailure { .. }),
            "unexpected error: {err:?}"
        );
        assert!(err.to_string().contains("no live workers"));
    }

    #[test]
    fn worker_death_fails_over_to_survivors() {
        let plan = FaultPlan {
            crash_after: vec![Some(2), None, None],
            ..FaultPlan::default()
        };
        let faulty = FaultyBlackBox::new(bb(), plan);
        let retry = RetryPolicy::default().max_attempts(3).backoff(0.0, 1.0);
        let r = ThreadedExecutor::new(3, 0.0)
            .run_async_resilient(
                &faulty,
                &[vec![0.1], vec![0.2], vec![0.3]],
                10,
                &mut Walker(0.0),
                &retry,
                &Telemetry::disabled(),
            )
            .expect("survivors finish the run");
        assert_eq!(r.data.len(), 10);
        assert!(r.data.ys().iter().all(|y| y.is_finite()));
    }
}
