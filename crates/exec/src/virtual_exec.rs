//! Deterministic discrete-event executors over a virtual clock.

use std::collections::VecDeque;

use easybo_opt::OptError;
use easybo_telemetry::{Event, Telemetry};

use crate::blackbox::AttemptContext;
use crate::event_loop::EventLoop;
use crate::retry::RetryPolicy;
use crate::session::{HookAction, SessionHook, SessionState};
use crate::{BlackBox, BusyPoint, Dataset, RunTrace, Schedule};

/// Batch-selection callback for the synchronous driver: given everything
/// observed so far, propose the next batch of query points.
pub trait SyncBatchPolicy {
    /// Proposes up to `batch_size` query points. Returning fewer than
    /// `batch_size` points is allowed; returning an empty batch ends the run.
    fn select_batch(&mut self, data: &Dataset, batch_size: usize) -> Vec<Vec<f64>>;
}

/// Point-selection callback for the asynchronous driver: called whenever a
/// worker becomes idle, with the observed data *and* the points still under
/// evaluation (for penalization).
pub trait AsyncPolicy {
    /// Proposes the next query point for the idle worker.
    fn select_next(&mut self, data: &Dataset, busy: &[BusyPoint]) -> Vec<f64>;

    /// Serializes the policy's mutable state (RNG stream, surrogate
    /// caches, …) as opaque bytes for checkpointing. `None` — the
    /// default — means the policy is stateless or does not support
    /// durable capture; resuming such a policy restarts it fresh.
    fn snapshot_state(&self) -> Option<Vec<u8>> {
        None
    }

    /// Restores state previously captured by
    /// [`AsyncPolicy::snapshot_state`], continuing the policy's
    /// decision stream bit-for-bit.
    ///
    /// # Errors
    ///
    /// Returns a description when the bytes are malformed or the
    /// policy does not support restore.
    fn restore_state(&mut self, _state: &[u8]) -> Result<(), String> {
        Err("this policy does not support state restore".to_string())
    }
}

/// Blanket impl so closures can serve as synchronous policies in tests.
impl<F: FnMut(&Dataset, usize) -> Vec<Vec<f64>>> SyncBatchPolicy for F {
    fn select_batch(&mut self, data: &Dataset, batch_size: usize) -> Vec<Vec<f64>> {
        self(data, batch_size)
    }
}

/// Outcome of an executor run.
#[derive(Debug, Clone, PartialEq)]
pub struct RunResult {
    /// All completed observations in completion order.
    pub data: Dataset,
    /// Best-so-far timeline.
    pub trace: RunTrace,
    /// Worker occupancy record.
    pub schedule: Schedule,
}

impl RunResult {
    /// Best observed value.
    pub fn best_value(&self) -> f64 {
        self.data.best_value()
    }

    /// Total virtual wall-clock of the run (seconds).
    pub fn total_time(&self) -> f64 {
        self.schedule.makespan()
    }
}

/// Discrete-event executor over a virtual clock with a fixed worker pool.
///
/// # Example
///
/// ```
/// use easybo_exec::{CostedFunction, SimTimeModel, VirtualExecutor, Dataset};
/// use easybo_opt::Bounds;
///
/// # fn main() -> Result<(), easybo_opt::OptError> {
/// let bounds = Bounds::unit_cube(1)?;
/// let time = SimTimeModel::new(&bounds, 10.0, 0.3, 5);
/// let bb = CostedFunction::new("toy", bounds.clone(), time, |x: &[f64]| x[0]);
/// let exec = VirtualExecutor::new(3);
/// // A trivial "policy": always query the center.
/// let mut policy = |_data: &Dataset, b: usize| vec![vec![0.5]; b];
/// let init = vec![vec![0.1], vec![0.9]];
/// let result = exec.run_sync(&bb, &init, 8, &mut policy);
/// assert_eq!(result.data.len(), 8);
/// assert!(result.best_value() >= 0.9);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct VirtualExecutor {
    workers: usize,
}

impl VirtualExecutor {
    /// Creates an executor with the given number of parallel workers.
    ///
    /// # Panics
    ///
    /// Panics if `workers == 0`.
    pub fn new(workers: usize) -> Self {
        assert!(workers > 0, "need at least one worker");
        VirtualExecutor { workers }
    }

    /// Number of workers.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Runs **synchronous batch** optimization: evaluates `init` points in
    /// barrier-synchronized rounds, then repeatedly asks the policy for a
    /// batch, evaluates it in parallel, and advances the clock by the
    /// *slowest* evaluation of each round. Results become visible to the
    /// policy only at the barrier.
    ///
    /// `max_evals` counts total evaluations including the initial design.
    pub fn run_sync(
        &self,
        bb: &dyn BlackBox,
        init: &[Vec<f64>],
        max_evals: usize,
        policy: &mut dyn SyncBatchPolicy,
    ) -> RunResult {
        self.run_sync_with(bb, init, max_evals, policy, &Telemetry::disabled())
    }

    /// [`VirtualExecutor::run_sync`] with a telemetry handle: the run
    /// clock is advanced in virtual seconds, `QueryIssued`/`EvalStarted`
    /// events fire at round start, `EvalFinished` at the barrier (the
    /// same timestamp `RunTrace` records, so a JSONL sink reconstructs
    /// the trace exactly), and `WorkerIdle` reports each member's gap to
    /// the round's slowest evaluation.
    pub fn run_sync_with(
        &self,
        bb: &dyn BlackBox,
        init: &[Vec<f64>],
        max_evals: usize,
        policy: &mut dyn SyncBatchPolicy,
        telemetry: &Telemetry,
    ) -> RunResult {
        let b = self.workers;
        let mut data = Dataset::new();
        let mut trace = RunTrace::new();
        let mut schedule = Schedule::new(b);
        let mut t = 0.0f64;
        let mut task = 0usize;
        let mut pending: VecDeque<Vec<f64>> = init.iter().take(max_evals).cloned().collect();

        while data.len() < max_evals {
            let remaining = max_evals - data.len();
            telemetry.set_now(t);
            let round: Vec<Vec<f64>> = if pending.is_empty() {
                policy.select_batch(&data, b.min(remaining))
            } else {
                let take = b.min(remaining).min(pending.len());
                pending.drain(..take).collect()
            };
            if round.is_empty() {
                break;
            }
            let evals: Vec<crate::Evaluation> = round.iter().map(|x| bb.evaluate(x)).collect();
            let round_time = evals.iter().map(|e| e.cost).fold(0.0, f64::max);
            let first_task = task;
            for (w, e) in evals.iter().enumerate() {
                schedule.add(w % b, task, t, t + e.cost);
                telemetry.emit_at_with(t, || Event::QueryIssued {
                    task,
                    worker: w % b,
                });
                telemetry.emit_at_with(t, || Event::EvalStarted {
                    task,
                    worker: w % b,
                });
                task += 1;
            }
            t += round_time;
            telemetry.set_now(t);
            // Results are revealed at the barrier; `EvalFinished` carries
            // the barrier timestamp to match `trace.record` below.
            for (w, (x, e)) in round.into_iter().zip(evals).enumerate() {
                telemetry.emit_at_with(t, || Event::EvalFinished {
                    task: first_task + w,
                    worker: w % b,
                    value: e.value,
                });
                let gap = round_time - e.cost;
                if gap > 0.0 {
                    telemetry.emit_at_with(t, || Event::WorkerIdle { worker: w % b, gap });
                }
                data.push(x, e.value);
                trace.record(t, e.value);
            }
        }
        finish_run_metrics(telemetry, &schedule);
        RunResult {
            data,
            trace,
            schedule,
        }
    }

    /// Runs **asynchronous batch** optimization: whenever any worker
    /// finishes, its result is committed and the policy immediately proposes
    /// a replacement point (seeing the current busy set for penalization).
    ///
    /// `max_evals` counts total evaluations including the initial design.
    pub fn run_async(
        &self,
        bb: &dyn BlackBox,
        init: &[Vec<f64>],
        max_evals: usize,
        policy: &mut dyn AsyncPolicy,
    ) -> RunResult {
        self.run_async_with(bb, init, max_evals, policy, &Telemetry::disabled())
    }

    /// [`VirtualExecutor::run_async`] with a telemetry handle: the run
    /// clock tracks the discrete-event clock, `QueryIssued`/`EvalStarted`
    /// fire when a worker picks up a point, `EvalFinished` at the
    /// completion time `RunTrace` records, and one `WorkerIdle` per
    /// worker reports its total idle seconds at the end of the run.
    pub fn run_async_with(
        &self,
        bb: &dyn BlackBox,
        init: &[Vec<f64>],
        max_evals: usize,
        policy: &mut dyn AsyncPolicy,
        telemetry: &Telemetry,
    ) -> RunResult {
        // `RetryPolicy::none()` reproduces the legacy driver exactly:
        // one attempt per task, no timeout, every value recorded.
        self.run_async_resilient(bb, init, max_evals, policy, &RetryPolicy::none(), telemetry)
    }

    /// [`VirtualExecutor::run_async_with`] under a [`RetryPolicy`]:
    /// attempts whose outcome is not [`crate::EvalOutcome::Ok`] (simulator
    /// crash, non-finite FOM, timeout) are requeued on the same worker
    /// after an exponential backoff *on the virtual clock*, up to
    /// `retry.max_attempts`; exhausted tasks are then dropped, recorded
    /// raw, or recorded at a penalty per [`crate::FailureAction`].
    ///
    /// Failed attempts emit `EvalFailed` (and `EvalRetried` when
    /// requeued); their spans carry the `failed` flag and are excluded
    /// from [`Schedule::utilization`]. Their busy points are removed
    /// during backoff so stale pseudo-points never poison the policy's
    /// penalization (§III-C). `max_evals` counts *tasks*, not attempts.
    ///
    /// Everything stays deterministic: faults, backoff, and scheduling
    /// are pure functions of the inputs, so a seeded chaos run is
    /// bit-reproducible.
    pub fn run_async_resilient(
        &self,
        bb: &dyn BlackBox,
        init: &[Vec<f64>],
        max_evals: usize,
        policy: &mut dyn AsyncPolicy,
        retry: &RetryPolicy,
        telemetry: &Telemetry,
    ) -> RunResult {
        let session = SessionState::new(self.workers, max_evals, init);
        match self.drive(bb, session, policy, retry, telemetry, None, false) {
            Ok(result) => result,
            // Only a session hook can abort the run, and there is none.
            Err(e) => unreachable!("hookless run cannot abort: {e}"),
        }
    }

    /// [`VirtualExecutor::run_async_resilient`] over an explicit
    /// [`SessionState`], with an optional [`SessionHook`] invoked after
    /// every completed observation (the seam checkpoint writers and
    /// chaos plans plug into).
    ///
    /// # Errors
    ///
    /// Returns [`OptError::ExecutorFailure`] when the hook aborts the
    /// run via [`HookAction::Stop`].
    #[allow(clippy::too_many_arguments)]
    pub fn run_session_resilient(
        &self,
        bb: &dyn BlackBox,
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

    /// Continues a previously captured session to completion: every
    /// in-flight attempt is re-issued at its recorded worker/start (a
    /// pure re-evaluation, reproducing its span, busy point, and finish
    /// event bit-for-bit), pending backoffs are turned back into retry
    /// events, and the run proceeds as if never interrupted.
    ///
    /// # Errors
    ///
    /// Returns [`OptError::ExecutorFailure`] when the session was
    /// captured under a different worker count, or when the hook aborts
    /// the run via [`HookAction::Stop`].
    pub fn resume_session_resilient(
        &self,
        bb: &dyn BlackBox,
        session: SessionState,
        policy: &mut dyn AsyncPolicy,
        retry: &RetryPolicy,
        telemetry: &Telemetry,
        hook: Option<&mut SessionHook<'_>>,
    ) -> Result<RunResult, OptError> {
        self.drive(bb, session, policy, retry, telemetry, hook, true)
    }

    /// Drives the shared [`EventLoop`] over a fresh or resumed session,
    /// evaluating each attempt eagerly at dispatch.
    #[allow(clippy::too_many_arguments)]
    fn drive(
        &self,
        bb: &dyn BlackBox,
        session: SessionState,
        policy: &mut dyn AsyncPolicy,
        retry: &RetryPolicy,
        telemetry: &Telemetry,
        mut hook: Option<&mut SessionHook<'_>>,
        resume: bool,
    ) -> Result<RunResult, OptError> {
        let b = self.workers;
        if session.workers() != b {
            return Err(OptError::ExecutorFailure {
                reason: format!(
                    "session captured with {} workers cannot run on {b}",
                    session.workers()
                ),
            });
        }
        let mut evaluate = |x: &[f64], ctx: AttemptContext| {
            let e = bb.evaluate_attempt(x, ctx);
            let outcome = e.resolved_outcome();
            Some((e.value, e.cost, outcome))
        };
        let retry = retry.clone();
        let mut lp = if resume {
            EventLoop::resume(session, retry, telemetry, &mut evaluate)
        } else {
            EventLoop::fresh(session, retry, policy, telemetry, &mut evaluate)
        };
        let mut last_completed = lp.session().completed();
        while lp.step(policy, telemetry, &mut evaluate) {
            let session = lp.session();
            if session.completed() > last_completed {
                last_completed = session.completed();
                if let Some(h) = hook.as_mut() {
                    if let HookAction::Stop { reason } = (**h)(session, &*policy, session.clock()) {
                        return Err(OptError::ExecutorFailure { reason });
                    }
                }
            }
        }
        let session = lp.into_session();
        if telemetry.enabled() {
            let makespan = session.schedule().makespan();
            for w in 0..b {
                let gap = makespan - session.schedule().worker_busy_time(w);
                if gap > 0.0 {
                    telemetry.emit_at(makespan, Event::WorkerIdle { worker: w, gap });
                }
            }
        }
        finish_run_metrics(telemetry, session.schedule());
        Ok(session.into_result())
    }

    /// Runs **sequential** optimization (one worker, one point at a time):
    /// equivalent to [`VirtualExecutor::run_async`] with a single worker.
    pub fn run_sequential(
        bb: &dyn BlackBox,
        init: &[Vec<f64>],
        max_evals: usize,
        policy: &mut dyn AsyncPolicy,
    ) -> RunResult {
        VirtualExecutor::new(1).run_async(bb, init, max_evals, policy)
    }
}

/// Records end-of-run scheduling gauges shared by every executor.
pub(crate) fn finish_run_metrics(telemetry: &Telemetry, schedule: &Schedule) {
    if !telemetry.enabled() {
        return;
    }
    let makespan = schedule.makespan();
    telemetry.set_now(makespan);
    telemetry.gauge_set("run_makespan_s", makespan);
    telemetry.gauge_set("run_utilization", schedule.utilization());
    telemetry.gauge_set("run_idle_s", schedule.idle_time());
    if makespan > 0.0 {
        for w in 0..schedule.workers() {
            telemetry.observe(
                "worker_utilization",
                schedule.worker_busy_time(w) / makespan,
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::retry::FailureAction;
    use crate::{CostedFunction, SimTimeModel};
    use easybo_opt::Bounds;

    fn toy_bb(spread: f64) -> CostedFunction<impl Fn(&[f64]) -> f64 + Send + Sync> {
        let bounds = Bounds::unit_cube(1).unwrap();
        let time = SimTimeModel::new(&bounds, 10.0, spread, 5);
        CostedFunction::new("toy", bounds, time, |x: &[f64]| x[0])
    }

    struct CenterPolicy;
    impl AsyncPolicy for CenterPolicy {
        fn select_next(&mut self, _d: &Dataset, _b: &[BusyPoint]) -> Vec<f64> {
            vec![0.5]
        }
    }

    /// Policy that records the busy sets it is shown.
    struct SpyPolicy {
        seen_busy_sizes: Vec<usize>,
    }
    impl AsyncPolicy for SpyPolicy {
        fn select_next(&mut self, _d: &Dataset, busy: &[BusyPoint]) -> Vec<f64> {
            self.seen_busy_sizes.push(busy.len());
            vec![0.25]
        }
    }

    #[test]
    fn sync_runs_exact_eval_count() {
        let bb = toy_bb(0.3);
        let exec = VirtualExecutor::new(4);
        let mut policy = |_d: &Dataset, b: usize| vec![vec![0.5]; b];
        let init = vec![vec![0.1], vec![0.2], vec![0.3]];
        let r = exec.run_sync(&bb, &init, 11, &mut policy);
        assert_eq!(r.data.len(), 11);
        assert_eq!(r.trace.len(), 11);
        assert_eq!(r.schedule.spans().len(), 11);
    }

    #[test]
    fn sync_clock_advances_by_round_maximum() {
        let bb = toy_bb(0.3);
        let exec = VirtualExecutor::new(2);
        let mut policy =
            |_d: &Dataset, b: usize| (0..b).map(|i| vec![i as f64 / 10.0]).collect::<Vec<_>>();
        let r = exec.run_sync(&bb, &[], 4, &mut policy);
        // Two rounds; the barrier time of each round is the max of its costs.
        let times: Vec<f64> = r.trace.points().iter().map(|p| p.time).collect();
        assert_eq!(times[0], times[1], "round 1 results share a barrier");
        assert_eq!(times[2], times[3], "round 2 results share a barrier");
        assert!(times[2] > times[0]);
    }

    #[test]
    fn async_runs_exact_eval_count() {
        let bb = toy_bb(0.3);
        let exec = VirtualExecutor::new(4);
        let mut policy = CenterPolicy;
        let r = exec.run_async(&bb, &[vec![0.1]], 9, &mut policy);
        assert_eq!(r.data.len(), 9);
        assert_eq!(r.trace.len(), 9);
    }

    #[test]
    fn async_is_never_slower_than_sync_for_same_work() {
        // Same black box, same number of evals, heterogeneous costs.
        let bb = toy_bb(0.3);
        let init: Vec<Vec<f64>> = (0..5).map(|i| vec![i as f64 / 5.0]).collect();
        let exec = VirtualExecutor::new(5);
        let mut sync_policy = |_d: &Dataset, b: usize| {
            (0..b)
                .map(|i| vec![(i as f64 + 0.3) / 10.0])
                .collect::<Vec<_>>()
        };
        let sync = exec.run_sync(&bb, &init, 40, &mut sync_policy);
        struct Seq(usize);
        impl AsyncPolicy for Seq {
            fn select_next(&mut self, _d: &Dataset, _b: &[BusyPoint]) -> Vec<f64> {
                self.0 += 1;
                vec![((self.0 % 10) as f64 + 0.3) / 10.0]
            }
        }
        let asyn = exec.run_async(&bb, &init, 40, &mut Seq(0));
        assert!(
            asyn.total_time() <= sync.total_time() + 1e-9,
            "async {} vs sync {}",
            asyn.total_time(),
            sync.total_time()
        );
        // And utilization is at least as good.
        assert!(asyn.schedule.utilization() >= sync.schedule.utilization() - 1e-9);
    }

    #[test]
    fn async_policy_sees_busy_points() {
        let bb = toy_bb(0.3);
        let exec = VirtualExecutor::new(3);
        let mut spy = SpyPolicy {
            seen_busy_sizes: Vec::new(),
        };
        let r = exec.run_async(&bb, &[vec![0.1], vec![0.2], vec![0.3]], 9, &mut spy);
        assert_eq!(r.data.len(), 9);
        // Each selection happens while the other 2 workers are busy.
        assert!(!spy.seen_busy_sizes.is_empty());
        assert!(
            spy.seen_busy_sizes.iter().all(|&n| n == 2),
            "{:?}",
            spy.seen_busy_sizes
        );
    }

    #[test]
    fn async_with_one_worker_is_sequential() {
        let bb = toy_bb(0.3);
        let mut policy = CenterPolicy;
        let r = VirtualExecutor::run_sequential(&bb, &[vec![0.0]], 5, &mut policy);
        assert_eq!(r.data.len(), 5);
        // Sequential total time = sum of individual costs.
        let sum: f64 = r.schedule.spans().iter().map(|s| s.end - s.start).sum();
        assert!((r.total_time() - sum).abs() < 1e-9);
        assert!((r.schedule.utilization() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn trace_times_are_monotone_in_async_mode() {
        let bb = toy_bb(0.3);
        let exec = VirtualExecutor::new(4);
        let r = exec.run_async(&bb, &[vec![0.9]], 20, &mut CenterPolicy);
        let times: Vec<f64> = r.trace.points().iter().map(|p| p.time).collect();
        for w in times.windows(2) {
            assert!(w[1] >= w[0]);
        }
    }

    #[test]
    fn empty_batch_from_policy_terminates_sync() {
        let bb = toy_bb(0.0);
        let exec = VirtualExecutor::new(2);
        let mut policy = |_d: &Dataset, _b: usize| Vec::<Vec<f64>>::new();
        let r = exec.run_sync(&bb, &[vec![0.5]], 10, &mut policy);
        assert_eq!(r.data.len(), 1, "only the init point runs");
    }

    #[test]
    fn init_larger_than_budget_is_truncated() {
        let bb = toy_bb(0.0);
        let exec = VirtualExecutor::new(2);
        let init: Vec<Vec<f64>> = (0..10).map(|i| vec![i as f64 / 10.0]).collect();
        let r = exec.run_sync(&bb, &init, 3, &mut |_d: &Dataset, b: usize| {
            vec![vec![0.5]; b]
        });
        assert_eq!(r.data.len(), 3);
    }

    #[test]
    #[should_panic(expected = "at least one worker")]
    fn zero_workers_panics() {
        let _ = VirtualExecutor::new(0);
    }

    #[test]
    fn deterministic_across_runs() {
        let bb = toy_bb(0.3);
        let exec = VirtualExecutor::new(3);
        let init = vec![vec![0.4], vec![0.6]];
        let a = exec.run_async(&bb, &init, 12, &mut CenterPolicy);
        let b = exec.run_async(&bb, &init, 12, &mut CenterPolicy);
        assert_eq!(a.data, b.data);
        assert_eq!(a.trace, b.trace);
    }

    /// Fails the first `fail_first` attempts of every task, succeeding
    /// afterwards; attempts are visible through `evaluate_attempt`.
    struct FlakyBb {
        inner: CostedFunction<fn(&[f64]) -> f64>,
        fail_first: usize,
    }
    impl BlackBox for FlakyBb {
        fn bounds(&self) -> &Bounds {
            self.inner.bounds()
        }
        fn evaluate(&self, x: &[f64]) -> crate::Evaluation {
            self.inner.evaluate(x)
        }
        fn evaluate_attempt(&self, x: &[f64], ctx: AttemptContext) -> crate::Evaluation {
            if ctx.attempt <= self.fail_first {
                crate::Evaluation::failed("flaky", self.inner.evaluate(x).cost)
            } else {
                self.inner.evaluate(x)
            }
        }
    }

    fn flaky_bb(fail_first: usize) -> FlakyBb {
        fn obj(x: &[f64]) -> f64 {
            x[0]
        }
        let bounds = Bounds::unit_cube(1).unwrap();
        let time = SimTimeModel::new(&bounds, 10.0, 0.3, 5);
        FlakyBb {
            inner: CostedFunction::new("flaky", bounds, time, obj as fn(&[f64]) -> f64),
            fail_first,
        }
    }

    #[test]
    fn retries_recover_every_task() {
        let bb = flaky_bb(1); // first attempt always fails
        let retry = RetryPolicy::default().max_attempts(3).backoff(5.0, 2.0);
        let r = VirtualExecutor::new(2).run_async_resilient(
            &bb,
            &[vec![0.1]],
            6,
            &mut CenterPolicy,
            &retry,
            &Telemetry::disabled(),
        );
        // Every task fails once then succeeds on attempt 2.
        assert_eq!(r.data.len(), 6);
        assert!(r.data.ys().iter().all(|y| y.is_finite()));
        // Each task leaves one failed and one successful span.
        let failed = r.schedule.spans().iter().filter(|s| s.failed).count();
        assert_eq!(failed, 6);
        assert_eq!(r.schedule.spans().len(), 12);
        // Backoff advances the virtual clock: the retry of a task
        // starts exactly `delay` after its failed span ends.
        let spans = r.schedule.spans();
        let first_fail = spans.iter().find(|s| s.failed).unwrap();
        let retry_span = spans
            .iter()
            .find(|s| s.task == first_fail.task && !s.failed)
            .unwrap();
        assert!((retry_span.start - (first_fail.end + 5.0)).abs() < 1e-12);
    }

    #[test]
    fn exhausted_tasks_are_dropped_or_penalized() {
        let bb = flaky_bb(usize::MAX); // never succeeds
        let drop_policy = RetryPolicy::default().max_attempts(2).backoff(1.0, 2.0);
        let r = VirtualExecutor::new(2).run_async_resilient(
            &bb,
            &[vec![0.1]],
            4,
            &mut CenterPolicy,
            &drop_policy,
            &Telemetry::disabled(),
        );
        assert!(r.data.is_empty(), "dropped tasks leave no observations");
        assert_eq!(r.trace.len(), 0);

        let pen = drop_policy
            .clone()
            .on_exhausted(FailureAction::Penalty(-99.0));
        let r = VirtualExecutor::new(2).run_async_resilient(
            &bb,
            &[vec![0.1]],
            4,
            &mut CenterPolicy,
            &pen,
            &Telemetry::disabled(),
        );
        assert_eq!(r.data.len(), 4);
        assert!(r.data.ys().iter().all(|&y| y == -99.0));
    }

    #[test]
    fn timeout_bounds_hung_attempts() {
        // A black box whose every evaluation "hangs" for 1e9 seconds.
        struct Hang(Bounds);
        impl BlackBox for Hang {
            fn bounds(&self) -> &Bounds {
                &self.0
            }
            fn evaluate(&self, _x: &[f64]) -> crate::Evaluation {
                crate::Evaluation::ok(1.0, 1e9)
            }
        }
        let bb = Hang(Bounds::unit_cube(1).unwrap());
        let retry = RetryPolicy::default()
            .max_attempts(2)
            .backoff(10.0, 2.0)
            .timeout(100.0);
        let r = VirtualExecutor::new(1).run_async_resilient(
            &bb,
            &[vec![0.5]],
            2,
            &mut CenterPolicy,
            &retry,
            &Telemetry::disabled(),
        );
        // 2 tasks × 2 attempts × 100s timeout + backoffs: nowhere near 1e9.
        assert!(r.total_time() < 1000.0, "makespan {}", r.total_time());
        assert!(r.data.is_empty());
        assert!(r.schedule.spans().iter().all(|s| s.failed));
        assert!(r
            .schedule
            .spans()
            .iter()
            .all(|s| (s.end - s.start - 100.0).abs() < 1e-12));
    }

    #[test]
    fn none_policy_is_bit_identical_to_legacy_entry_point() {
        let bb = toy_bb(0.3);
        let exec = VirtualExecutor::new(3);
        let init = vec![vec![0.4], vec![0.6]];
        let legacy = exec.run_async(&bb, &init, 12, &mut CenterPolicy);
        let resilient = exec.run_async_resilient(
            &bb,
            &init,
            12,
            &mut CenterPolicy,
            &RetryPolicy::none(),
            &Telemetry::disabled(),
        );
        assert_eq!(legacy.data, resilient.data);
        assert_eq!(legacy.trace, resilient.trace);
        assert_eq!(legacy.schedule, resilient.schedule);
    }
}
