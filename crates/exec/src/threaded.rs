//! Real multi-threaded asynchronous executor.
//!
//! The [`crate::VirtualExecutor`] reproduces the paper's wall-clock
//! arithmetic in microseconds; this executor is the production path, where
//! the black box is genuinely expensive (an actual simulator invocation).
//! It drives the same [`EventLoop`] on a real clock, through one entry
//! point, [`ThreadedExecutor::run`], for new and captured sessions
//! alike. The workers are scoped threads ([`std::thread::scope`]) that
//! share the receiver of one `std::sync::mpsc` job channel; the loop's
//! resolver sends each dispatch to it, and each worker report, sent
//! back on a second channel, resolves its attempt with cost = arrival
//! time − dispatch start. Once per pass the driver reads the clock,
//! resolves the reports it drained, declares that reading the loop's
//! horizon ([`EventLoop::set_horizon`]: every attempt still out
//! finishes later, and one whose deadline has passed timed out), and
//! runs every event at or before it.
//!
//! A span and its deadline start at dispatch, the moment its worker slot
//! freed up, so the policy's think time is charged to the slot as on the
//! virtual clock. A captured session continues its captured clock.
//!
//! Failure handling: worker threads wrap every evaluation in
//! [`std::panic::catch_unwind`], so a panicking black box costs one
//! attempt, not the run. A panic whose payload is
//! [`crate::fault::WorkerDeath`] simulates a worker host dying: the
//! thread reports `WorkerCrashed` and exits for good. Attempts that
//! fail (or exceed [`RetryPolicy::timeout`]) are requeued with backoff;
//! when every thread is dead or stuck on an abandoned attempt the run
//! ends with a structured [`OptError::ExecutorFailure`] instead of
//! deadlocking.
//!
//! Panic reporting costs time. `catch_unwind` contains a panic, but the
//! process panic hook runs first, on the worker thread. With
//! `RUST_BACKTRACE` set the default hook symbolizes a backtrace, and that
//! time counts against [`RetryPolicy::timeout`]. A probe run saw two
//! attempts time out at exactly start + 0.05 s this way. Callers whose
//! simulators panic by design should install a quiet hook
//! ([`std::panic::set_hook`]) that skips reporting their own payloads.
//! The executor does not swap the process-global hook itself.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{channel, Receiver, RecvTimeoutError, Sender};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::{Duration, Instant};

use easybo_opt::OptError;
use easybo_telemetry::{Event, Telemetry};

use crate::blackbox::{AttemptContext, EvalOutcome, Evaluation};
use crate::event_loop::{EventLoop, Resolver};
use crate::fault::WorkerDeath;
use crate::retry::RetryPolicy;
use crate::session::{SessionHook, SessionState};
use crate::virtual_exec::{check_workers, finish_run, step_hooked, AsyncPolicy};
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
/// use easybo_exec::{AsyncPolicy, BusyPoint, CostedFunction, Dataset, RetryPolicy};
/// use easybo_exec::{SessionState, SimTimeModel, ThreadedExecutor};
/// use easybo_opt::Bounds;
/// use easybo_telemetry::Telemetry;
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
/// let session = SessionState::new(exec.workers(), 8, &[vec![0.9]]);
/// let (retry, telemetry) = (RetryPolicy::none(), Telemetry::disabled());
/// let result = exec.run(&bb, session, &mut Center, &retry, &telemetry, None)?;
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

/// A worker thread's report on one job. The driver stamps it with the
/// clock reading of the pass that receives it.
struct WorkerMsg {
    thread: usize,
    task: usize,
    attempt: usize,
    kind: Report,
}

/// `Started` always precedes the matching `Done` on the (FIFO) channel.
enum Report {
    /// The thread picked the job up.
    Started,
    /// The evaluation returned (a contained panic is a failed attempt).
    Done(Evaluation),
    /// The thread died mid-evaluation (a [`WorkerDeath`] panic) and has
    /// left the pool.
    Crashed,
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

    /// Runs `session` to completion on real threads: the threaded twin
    /// of [`crate::VirtualExecutor::run`], except times in the returned
    /// trace and schedule are *real elapsed seconds*. A new session
    /// starts at clock 0. A captured one resumes on a fresh pool at its
    /// capture clock, so every attempt issued after the capture starts
    /// at or after it; interrupted in-flight attempts are re-dispatched
    /// at their recorded slot and start, and pending backoffs fire at
    /// their captured due times.
    ///
    /// Events are timed as on the virtual executor, on the real clock:
    /// `QueryIssued` and `EvalStarted` fire at dispatch (the moment a
    /// worker slot freed up) and carry that logical slot, `EvalFinished`
    /// carries the slot and the completion time `RunTrace` records, and
    /// one `WorkerIdle` per slot reports its idle seconds at the end of
    /// the run. Only `WorkerCrashed` names the OS thread that died. The
    /// `queue_wait_s` histogram records the wait from dispatch to the
    /// moment a thread picks the job up.
    ///
    /// Failed attempts (panics, failed/non-finite outcomes, timeouts,
    /// worker deaths) are requeued onto the pool after a real-seconds
    /// backoff, up to `retry.max_attempts`, then dropped/recorded/
    /// penalized per [`crate::FailureAction`]. A timed-out attempt is
    /// abandoned at its deadline, measured from dispatch: its finish
    /// event frees the slot and removes its busy point (so the policy
    /// stops penalizing around a dead point, §III-C), its span is
    /// flagged failed, and the thread still evaluating it is considered
    /// stuck until it reports back. The session's budget counts tasks,
    /// not attempts.
    ///
    /// A panicking evaluation runs the process panic hook on its worker
    /// thread before `catch_unwind` returns, and that time counts against
    /// `retry.timeout` (see the module docs): under `RUST_BACKTRACE` a
    /// panic can turn into a timeout. Install a quiet hook when the black
    /// box panics by design.
    ///
    /// `hook`, if any, runs after every completed observation: the seam
    /// checkpoint writers and chaos plans plug into.
    ///
    /// # Errors
    ///
    /// Returns [`OptError::ExecutorFailure`] when the session was
    /// captured under a different worker count, every thread is dead or
    /// stuck, the message channel is severed (instead of deadlocking on
    /// a reply that can never come), or the hook aborts via
    /// [`HookAction::Stop`](crate::HookAction::Stop).
    pub fn run(
        &self,
        bb: &(dyn BlackBox + Sync),
        session: SessionState,
        policy: &mut dyn AsyncPolicy,
        retry: &RetryPolicy,
        telemetry: &Telemetry,
        mut hook: Option<&mut SessionHook<'_>>,
    ) -> Result<RunResult, OptError> {
        let n = self.workers;
        check_workers(&session, n)?;
        // A new session's clock is 0; a captured one continues its own.
        let (offset, epoch) = (session.clock(), Instant::now());
        let clock = || offset + epoch.elapsed().as_secs_f64();
        let shutdown = AtomicBool::new(false);
        let (job_tx, job_rx) = channel::<Job>();
        let job_rx = Arc::new(Mutex::new(job_rx));
        let (msg_tx, msg_rx) = channel::<WorkerMsg>();

        let run = std::thread::scope(|scope| {
            for thread in 0..n {
                let (jobs, msgs, shutdown) = (Arc::clone(&job_rx), msg_tx.clone(), &shutdown);
                let scale = self.time_scale;
                scope.spawn(move || work(thread, bb, scale, &jobs, &msgs, shutdown));
            }
            drop(msg_tx); // workers hold the remaining clones
            drop(job_rx); // so sends fail once every worker has exited

            // A failed send means every thread exited; the liveness
            // check turns that into an error.
            let mut send = |x: &[f64], ctx: AttemptContext| {
                let (task, attempt, x) = (ctx.task, ctx.attempt, x.to_vec());
                let _ = job_tx.send(Job { task, attempt, x });
                None
            };
            let retry = retry.clone();
            let mut lp = EventLoop::start(session, retry, policy, telemetry, &mut send);
            let out = pump(
                &mut lp, &msg_rx, clock, policy, telemetry, &mut send, &mut hook,
            );
            shutdown.store(true, Ordering::Relaxed);
            drop(job_tx); // signal workers to exit
            out.map(|()| lp)
        });
        Ok(finish_run(telemetry, run?))
    }
}

/// Runs driver passes until the loop drains. Each pass reads the clock
/// once, applies the worker reports received since the last pass,
/// declares the reading the loop's horizon and runs every event at or
/// before it, then waits for the next event, deadline or report.
fn pump(
    lp: &mut EventLoop,
    msgs: &Receiver<WorkerMsg>,
    clock: impl Fn() -> f64,
    policy: &mut dyn AsyncPolicy,
    telemetry: &Telemetry,
    send: &mut Resolver<'_>,
    hook: &mut Option<&mut SessionHook<'_>>,
) -> Result<(), OptError> {
    let n = lp.session().workers();
    let mut pool = Pool {
        running: vec![None; n],
        dead: vec![false; n],
    };
    let severed = || OptError::ExecutorFailure {
        reason: "worker message channel severed".to_string(),
    };
    let mut inbox = None;
    loop {
        let now = clock();
        let drained = std::iter::from_fn(|| msgs.try_recv().ok());
        for msg in inbox.take().into_iter().chain(drained) {
            pool.apply(lp, msg, now, telemetry);
        }
        lp.set_horizon(now);
        while lp.next_time().is_some_and(|t| t <= now)
            && step_hooked(lp, policy, telemetry, send, hook)?
        {}
        if lp.done() {
            return Ok(());
        }
        pool.check_live(lp)?;
        inbox = match lp.next_time() {
            None => Some(msgs.recv().map_err(|_| severed())?),
            Some(t) => match msgs.recv_timeout(Duration::from_secs_f64((t - clock()).max(0.0))) {
                Ok(msg) => Some(msg),
                Err(RecvTimeoutError::Timeout) => None,
                Err(RecvTimeoutError::Disconnected) => return Err(severed()),
            },
        };
    }
}

/// What the driver knows of its worker threads.
struct Pool {
    /// The `(task, attempt)` each thread is evaluating.
    running: Vec<Option<(usize, usize)>>,
    /// Which threads died.
    dead: Vec<bool>,
}

impl Pool {
    /// Applies one worker report stamped `now`, resolving a returned or
    /// crashed attempt that the loop still awaits.
    fn apply(&mut self, lp: &mut EventLoop, msg: WorkerMsg, now: f64, telemetry: &Telemetry) {
        let WorkerMsg {
            thread,
            task,
            attempt,
            kind,
        } = msg;
        self.running[thread] = None;
        let start = start_of(lp, task, attempt);
        let (value, outcome) = match kind {
            Report::Started => {
                self.running[thread] = Some((task, attempt));
                if let Some(start) = start {
                    telemetry.observe("queue_wait_s", (now - start).max(0.0));
                }
                return;
            }
            Report::Done(eval) => (eval.value, eval.resolved_outcome()),
            Report::Crashed => {
                self.dead[thread] = true;
                telemetry.emit_at_with(now, || Event::WorkerCrashed {
                    worker: thread,
                    task,
                });
                telemetry.incr("worker_crashes", 1);
                // Nothing came back from the dead thread, so a `Record`
                // exhaustion commits an honest NaN.
                let reason = "worker crashed".to_string();
                (f64::NAN, EvalOutcome::Failed { reason })
            }
        };
        if let Some(start) = start {
            lp.resolve(task, attempt, (value, now - start, outcome));
        }
    }

    /// Fails the run when every thread is dead or stuck: still
    /// evaluating an attempt the loop already timed out, and so busy
    /// until it reports back.
    fn check_live(&self, lp: &EventLoop) -> Result<(), OptError> {
        let n = self.dead.len();
        let dead = self.dead.iter().filter(|&&d| d).count();
        let timed_out = |&&(task, attempt): &&(usize, usize)| start_of(lp, task, attempt).is_none();
        let stuck = self.running.iter().flatten().filter(timed_out).count();
        if dead + stuck < n {
            return Ok(());
        }
        let unresolved = lp.session().issued() - lp.session().resolved();
        Err(OptError::ExecutorFailure {
            reason: format!(
                "no live workers remain ({dead} of {n} dead, {stuck} stuck, \
                 {unresolved} tasks unresolved)"
            ),
        })
    }
}

/// The dispatch start of `(task, attempt)` while it awaits its result.
fn start_of(lp: &EventLoop, task: usize, attempt: usize) -> Option<f64> {
    let mut unresolved = lp.unresolved();
    unresolved
        .find(|d| d.task == task && d.attempt == attempt)
        .map(|d| d.start)
}

/// One worker thread: evaluates jobs until the channel closes, the run
/// shuts down, or the thread dies.
fn work(
    thread: usize,
    bb: &(dyn BlackBox + Sync),
    scale: f64,
    jobs: &Mutex<Receiver<Job>>,
    msgs: &Sender<WorkerMsg>,
    shutdown: &AtomicBool,
) {
    let report = |job: &Job, kind| {
        let (task, attempt) = (job.task, job.attempt);
        msgs.send(WorkerMsg {
            thread,
            task,
            attempt,
            kind,
        })
        .is_ok()
    };
    'jobs: loop {
        // The lock guard drops at the end of this statement, so the next
        // idle thread can take a job while this one evaluates.
        let Ok(job) = jobs.lock().unwrap_or_else(PoisonError::into_inner).recv() else {
            break;
        };
        if !report(&job, Report::Started) {
            break;
        }
        let ctx = AttemptContext {
            task: job.task,
            attempt: job.attempt,
            worker: thread,
            panics_caught: true,
        };
        let eval = match catch_unwind(AssertUnwindSafe(|| bb.evaluate_attempt(&job.x, ctx))) {
            Ok(e) => e,
            Err(payload) if payload.is::<WorkerDeath>() => {
                report(&job, Report::Crashed);
                break; // this thread is gone for good
            }
            Err(_) => Evaluation::failed("panicked during evaluation", 0.0),
        };
        // Sleep in slices so a "hung" job (huge cost) cannot outlive the
        // run once shutdown is set.
        let mut remaining = eval.cost * scale;
        while remaining > 0.0 {
            if shutdown.load(Ordering::Relaxed) {
                break 'jobs;
            }
            let chunk = remaining.min(SLEEP_SLICE_S);
            std::thread::sleep(Duration::from_secs_f64(chunk));
            remaining -= chunk;
        }
        if !report(&job, Report::Done(eval)) {
            break;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::FaultPlan;
    use crate::{BusyPoint, CostedFunction, Dataset, FaultyBlackBox, SimTimeModel};
    use easybo_opt::Bounds;
    use std::sync::atomic::AtomicUsize;

    struct Walker(f64);
    impl AsyncPolicy for Walker {
        fn select_next(&mut self, _d: &Dataset, _b: &[BusyPoint]) -> Vec<f64> {
            self.0 = (self.0 + 0.1) % 1.0;
            vec![self.0]
        }
    }

    /// Runs a new session of `max_evals` tasks with telemetry off.
    fn run(
        exec: ThreadedExecutor,
        bb: &(dyn BlackBox + Sync),
        init: &[Vec<f64>],
        max_evals: usize,
        policy: &mut dyn AsyncPolicy,
        retry: &RetryPolicy,
    ) -> Result<RunResult, OptError> {
        let session = SessionState::new(exec.workers(), max_evals, init);
        exec.run(bb, session, policy, retry, &Telemetry::disabled(), None)
    }

    fn bb() -> CostedFunction<impl Fn(&[f64]) -> f64 + Send + Sync> {
        let bounds = Bounds::unit_cube(1).unwrap();
        let time = SimTimeModel::new(&bounds, 100.0, 0.4, 3);
        CostedFunction::new("toy", bounds, time, |x: &[f64]| 1.0 - (x[0] - 0.7).abs())
    }

    #[test]
    fn runs_exact_count_and_finds_values() {
        let exec = ThreadedExecutor::new(4, 0.0);
        let r = run(
            exec,
            &bb(),
            &[vec![0.7]],
            13,
            &mut Walker(0.0),
            &RetryPolicy::none(),
        )
        .expect("run succeeds");
        assert_eq!(r.data.len(), 13);
        assert_eq!(r.trace.len(), 13);
        assert!((r.best_value() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn honors_max_evals_below_worker_count() {
        let exec = ThreadedExecutor::new(8, 0.0);
        let r =
            run(exec, &bb(), &[], 3, &mut Walker(0.0), &RetryPolicy::none()).expect("run succeeds");
        assert_eq!(r.data.len(), 3);
    }

    #[test]
    fn sleep_scale_emulates_heterogeneous_times() {
        // With a scale of 50µs per virtual second and costs of ~60-140s,
        // the run takes a measurable but tiny amount of real time.
        let exec = ThreadedExecutor::new(2, 5e-5);
        let start = std::time::Instant::now();
        let r =
            run(exec, &bb(), &[], 6, &mut Walker(0.0), &RetryPolicy::none()).expect("run succeeds");
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
        let _ = run(
            exec,
            &bb(),
            &[vec![0.1], vec![0.2], vec![0.3]],
            9,
            &mut spy,
            &RetryPolicy::none(),
        )
        .expect("run succeeds");
        assert!(!spy.0.is_empty());
        // At selection time the other workers are (still) busy.
        assert!(spy.0.iter().all(|&n| n <= 3));
        assert!(spy.0.iter().any(|&n| n >= 1));
    }

    #[test]
    fn workers_evaluate_at_the_same_time() {
        // Each evaluation waits, up to a deadline, until all three workers
        // are inside the black box at once. Workers that take jobs one at a
        // time (say, by holding the shared receiver's lock across an
        // evaluation) never get there.
        struct Rendezvous {
            bounds: Bounds,
            inside: AtomicUsize,
            peak: AtomicUsize,
        }
        impl BlackBox for Rendezvous {
            fn bounds(&self) -> &Bounds {
                &self.bounds
            }
            fn evaluate(&self, x: &[f64]) -> Evaluation {
                let now = self.inside.fetch_add(1, Ordering::SeqCst) + 1;
                self.peak.fetch_max(now, Ordering::SeqCst);
                let deadline = Instant::now() + Duration::from_secs(2);
                while self.peak.load(Ordering::SeqCst) < 3 && Instant::now() < deadline {
                    std::thread::sleep(Duration::from_millis(1));
                }
                self.inside.fetch_sub(1, Ordering::SeqCst);
                Evaluation::ok(x[0], 1.0)
            }
        }
        let bb = Rendezvous {
            bounds: Bounds::unit_cube(1).unwrap(),
            inside: AtomicUsize::new(0),
            peak: AtomicUsize::new(0),
        };
        let init = [vec![0.1], vec![0.2], vec![0.3]];
        let exec = ThreadedExecutor::new(3, 0.0);
        let r =
            run(exec, &bb, &init, 3, &mut Walker(0.0), &RetryPolicy::none()).expect("run succeeds");
        assert_eq!(r.data.len(), 3);
        assert_eq!(
            bb.peak.load(Ordering::SeqCst),
            3,
            "workers ran one at a time"
        );
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
        let r = run(
            ThreadedExecutor::new(2, 0.0),
            &bb,
            &[],
            4,
            &mut Walker(0.0),
            &retry,
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
        let err = run(
            ThreadedExecutor::new(1, 0.0),
            &faulty,
            &[vec![0.5]],
            6,
            &mut Walker(0.0),
            &RetryPolicy::none(),
        )
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
        let init = [vec![0.1], vec![0.2], vec![0.3]];
        let r = run(
            ThreadedExecutor::new(3, 0.0),
            &faulty,
            &init,
            10,
            &mut Walker(0.0),
            &retry,
        )
        .expect("survivors finish the run");
        assert_eq!(r.data.len(), 10);
        assert!(r.data.ys().iter().all(|y| y.is_finite()));
    }
}
