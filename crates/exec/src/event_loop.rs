//! The asynchronous batch discrete-event loop (§III-A): a worker that
//! goes idle is handed a new query at once, while the points still in
//! flight stay in the session's busy set for penalization.
//!
//! [`EventLoop`] is the one implementation of that loop. The in-process
//! [`crate::VirtualExecutor`] and the network session manager both
//! drive it; they differ only in the [`Resolver`] they pass.
//!
//! # Determinism under deferred results
//!
//! The loop always works with *deferred* results: a dispatched
//! attempt's `(value, cost, outcome)` may arrive later, through
//! [`EventLoop::resolve`]. Eager evaluation is the case where the
//! resolver already knows the result at dispatch.
//!
//! - **Dispatch** registers the attempt (busy point, in-flight record,
//!   `QueryIssued`/`EvalStarted`), reserves its event sequence number
//!   and asks the resolver for the result, inside the attempt's
//!   `dispatch` span. It inserts no span and no finish event: the
//!   finish time is unknown until the cost is.
//! - **Stall**: while any outstanding dispatch lacks a result, no event
//!   is popped. The missing finish time could precede (or tie with) the
//!   current heap top, so popping would commit to an order an eager run
//!   might not choose.
//! - **Fold**: results are folded strictly in dispatch order, so span
//!   insertion order and the reserved sequence numbers match an eager
//!   run exactly. Each fold applies the per-attempt timeout and pushes
//!   the attempt's finish event.
//!
//! Evaluation itself is pure (value, cost and outcome are functions of
//! the query point and attempt), so *when* a result arrives cannot
//! change it. Together these rules make a deferred run byte-identical
//! to an eager one over the same black box.
//!
//! Events pop earliest first, ties broken by worker, then task, then
//! sequence number. Under a no-retry policy the sequence number never
//! decides (each `(time, worker, task)` triple is unique).

use std::cmp::Ordering;
use std::collections::{BinaryHeap, VecDeque};

use easybo_telemetry::{Event, Telemetry};

use crate::blackbox::{AttemptContext, EvalOutcome};
use crate::retry::RetryPolicy;
use crate::session::{SessionState, Told};
use crate::virtual_exec::AsyncPolicy;

/// Supplies a dispatched attempt's `(value, cost, outcome)`, or `None`
/// when the result will arrive later through [`EventLoop::resolve`].
/// Called inside the attempt's `dispatch` span.
pub type Resolver<'r> = dyn FnMut(&[f64], AttemptContext) -> Option<(f64, f64, EvalOutcome)> + 'r;

#[derive(Debug)]
struct SimEvent {
    time: f64,
    worker: usize,
    task: usize,
    seq: usize,
    kind: SimEventKind,
}

#[derive(Debug)]
enum SimEventKind {
    /// An attempt's completion (successful or not). The query point
    /// lives in the session's in-flight table, keyed by task, which is
    /// what makes the heap reconstructible from a snapshot on resume.
    Finish {
        value: f64,
        attempt: usize,
        outcome: EvalOutcome,
    },
    /// A backoff expiry: begin the next attempt of a failed task (the
    /// point and attempt number live in the session's backoff table).
    Retry,
}

impl PartialEq for SimEvent {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}
impl Eq for SimEvent {}
impl PartialOrd for SimEvent {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for SimEvent {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reverse ordering: BinaryHeap is a max-heap, we want earliest first.
        other
            .time
            .total_cmp(&self.time)
            .then(other.worker.cmp(&self.worker))
            .then(other.task.cmp(&self.task))
            .then(other.seq.cmp(&self.seq))
    }
}

/// One dispatched attempt, queued in dispatch order until its result
/// is folded.
#[derive(Debug)]
pub struct Outstanding {
    /// Task id.
    pub task: usize,
    /// 1-based attempt number.
    pub attempt: usize,
    /// Virtual worker slot.
    pub worker: usize,
    /// Query point.
    pub x: Vec<f64>,
    /// Virtual start time.
    start: f64,
    /// Sequence number reserved at dispatch, used by the finish event.
    seq: usize,
    /// `(value, cost, outcome)` once known.
    result: Option<(f64, f64, EvalOutcome)>,
}

/// The discrete-event loop over one [`SessionState`]. See the module
/// docs for the dispatch, stall and fold rules.
#[derive(Debug)]
pub struct EventLoop {
    session: SessionState,
    retry: RetryPolicy,
    heap: BinaryHeap<SimEvent>,
    seq: usize,
    outstanding: VecDeque<Outstanding>,
}

impl EventLoop {
    fn new(session: SessionState, retry: RetryPolicy) -> Self {
        EventLoop {
            session,
            retry,
            heap: BinaryHeap::new(),
            seq: 0,
            outstanding: VecDeque::new(),
        }
    }

    /// Starts a fresh run: fills every worker at t = 0 while the task
    /// budget lasts.
    pub fn fresh(
        session: SessionState,
        retry: RetryPolicy,
        policy: &mut dyn AsyncPolicy,
        telemetry: &Telemetry,
        resolver: &mut Resolver<'_>,
    ) -> Self {
        let mut lp = EventLoop::new(session, retry);
        for worker in 0..lp.session.workers {
            if lp.session.issued >= lp.session.max_evals {
                break;
            }
            lp.refill(worker, 0.0, policy, telemetry, resolver);
        }
        lp
    }

    /// Continues a captured session: re-dispatches every in-flight
    /// attempt at its recorded worker and start time (attempts never
    /// started, as in threaded captures, restart at the capture clock
    /// on a deterministic worker), then re-arms pending backoffs as
    /// retry events. The in-flight attempts take the low sequence
    /// numbers, as they did in the uninterrupted run.
    pub fn resume(
        session: SessionState,
        retry: RetryPolicy,
        telemetry: &Telemetry,
        resolver: &mut Resolver<'_>,
    ) -> Self {
        let mut lp = EventLoop::new(session, retry);
        let clock = lp.session.clock;
        let workers = lp.session.workers;
        for inf in lp.session.drain_inflight() {
            let (worker, start) = inf.started.unwrap_or((inf.task % workers, clock));
            lp.dispatch(
                worker,
                start,
                inf.task,
                inf.x,
                inf.attempt,
                telemetry,
                resolver,
            );
        }
        // The backoff records stay in the session; the retry events
        // consume them.
        let waiting: Vec<(f64, usize, usize)> = lp
            .session
            .backoffs
            .iter()
            .map(|b| (b.due, b.worker, b.task))
            .collect();
        for (due, worker, task) in waiting {
            lp.push_retry(due, worker, task);
        }
        lp
    }

    /// Runs one event: folds resolved dispatches, stalls if any is
    /// still unresolved, otherwise pops the next event, tells the
    /// session, and dispatches a new task or schedules a retry. Returns
    /// whether an event was processed (`false` = stalled or drained).
    pub fn step(
        &mut self,
        policy: &mut dyn AsyncPolicy,
        telemetry: &Telemetry,
        resolver: &mut Resolver<'_>,
    ) -> bool {
        self.fold();
        if !self.outstanding.is_empty() {
            return false;
        }
        let Some(ev) = self.heap.pop() else {
            return false;
        };
        self.session.clock = ev.time;
        match ev.kind {
            SimEventKind::Finish {
                value,
                attempt,
                outcome,
            } => {
                if let Some(inf) = self.session.take_inflight(ev.task) {
                    telemetry.set_now(ev.time);
                    match self.session.tell(
                        &self.retry,
                        telemetry,
                        ev.time,
                        ev.worker,
                        ev.task,
                        inf.x,
                        value,
                        attempt,
                        outcome,
                    ) {
                        Told::Committed | Told::Dropped => {
                            self.refill(ev.worker, ev.time, policy, telemetry, resolver)
                        }
                        // The worker backs off with its task: the retry
                        // runs on the same worker once the delay elapses.
                        Told::Backoff { due } => self.push_retry(due, ev.worker, ev.task),
                    }
                }
            }
            SimEventKind::Retry => {
                if let Some(b) = self.session.take_backoff(ev.task) {
                    telemetry.set_now(ev.time);
                    let _span = telemetry.span("retry_backoff");
                    self.dispatch(
                        ev.worker, ev.time, ev.task, b.x, b.attempt, telemetry, resolver,
                    );
                }
            }
        }
        self.fold();
        true
    }

    /// Supplies the result of a dispatched attempt. Returns `false`
    /// when no unresolved dispatch of `(task, attempt)` exists (unknown
    /// or already resolved).
    pub fn resolve(
        &mut self,
        task: usize,
        attempt: usize,
        result: (f64, f64, EvalOutcome),
    ) -> bool {
        let pending = self
            .outstanding
            .iter_mut()
            .find(|d| d.task == task && d.attempt == attempt && d.result.is_none());
        let Some(d) = pending else {
            return false;
        };
        d.result = Some(result);
        true
    }

    /// Dispatched attempts still awaiting their result, in dispatch
    /// order.
    pub fn unresolved(&self) -> impl Iterator<Item = &Outstanding> {
        self.outstanding.iter().filter(|d| d.result.is_none())
    }

    /// Whether the run has drained: no pending event, no outstanding
    /// dispatch.
    pub fn done(&self) -> bool {
        self.heap.is_empty() && self.outstanding.is_empty()
    }

    /// The session the loop drives.
    pub fn session(&self) -> &SessionState {
        &self.session
    }

    /// Consumes the loop into its session.
    pub fn into_session(self) -> SessionState {
        self.session
    }

    /// Hands `worker` a new task if the budget allows.
    fn refill(
        &mut self,
        worker: usize,
        now: f64,
        policy: &mut dyn AsyncPolicy,
        telemetry: &Telemetry,
        resolver: &mut Resolver<'_>,
    ) {
        telemetry.set_now(now);
        if let Some(s) = self.session.ask_traced(policy, telemetry) {
            self.dispatch(worker, now, s.task, s.x, s.attempt, telemetry, resolver);
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn dispatch(
        &mut self,
        worker: usize,
        now: f64,
        task: usize,
        x: Vec<f64>,
        attempt: usize,
        telemetry: &Telemetry,
        resolver: &mut Resolver<'_>,
    ) {
        telemetry.set_now(now);
        let _span = telemetry.span("dispatch");
        telemetry.emit_at_with(now, || Event::QueryIssued { task, worker });
        telemetry.emit_at_with(now, || Event::EvalStarted { task, worker });
        self.session
            .begin(task, attempt, x.clone(), worker, Some(now));
        let result = resolver(
            &x,
            AttemptContext {
                task,
                attempt,
                worker,
                panics_caught: false,
            },
        );
        let seq = self.seq;
        self.seq += 1;
        self.outstanding.push_back(Outstanding {
            task,
            attempt,
            worker,
            x,
            start: now,
            seq,
            result,
        });
    }

    /// Folds resolved dispatches from the front of the queue, strictly
    /// in dispatch order.
    fn fold(&mut self) {
        while self.outstanding.front().is_some_and(|d| d.result.is_some()) {
            let d = self.outstanding.pop_front().expect("front exists");
            let (value, mut cost, mut outcome) = d.result.expect("front is resolved");
            if let Some(deadline) = self.retry.timeout {
                if cost > deadline {
                    // The job system abandons the attempt at the
                    // deadline; the worker is occupied only until then.
                    cost = deadline;
                    outcome = EvalOutcome::TimedOut;
                }
            }
            let finish = d.start + cost;
            self.session
                .schedule
                .add_with(d.worker, d.task, d.start, finish, !outcome.is_ok());
            self.heap.push(SimEvent {
                time: finish,
                worker: d.worker,
                task: d.task,
                seq: d.seq,
                kind: SimEventKind::Finish {
                    value,
                    attempt: d.attempt,
                    outcome,
                },
            });
        }
    }

    fn push_retry(&mut self, due: f64, worker: usize, task: usize) {
        let seq = self.seq;
        self.seq += 1;
        self.heap.push(SimEvent {
            time: due,
            worker,
            task,
            seq,
            kind: SimEventKind::Retry,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{
        BlackBox, BusyPoint, CostedFunction, Dataset, FailureAction, FaultPlan, FaultyBlackBox,
        SimTimeModel, VirtualExecutor,
    };
    use easybo_opt::Bounds;

    /// Proposes points that depend on both the data and the busy set,
    /// so any divergence in either shows up in the trajectory.
    struct Spread;
    impl AsyncPolicy for Spread {
        fn select_next(&mut self, d: &Dataset, busy: &[BusyPoint]) -> Vec<f64> {
            let k = d.len() * 7 + busy.iter().map(|b| b.task).sum::<usize>();
            vec![(k as f64 * 0.137).fract()]
        }
    }

    fn chaos_bb() -> impl BlackBox {
        fn obj(x: &[f64]) -> f64 {
            (x[0] * 9.0).sin()
        }
        let bounds = Bounds::unit_cube(1).unwrap();
        let time = SimTimeModel::new(&bounds, 10.0, 0.5, 3);
        let inner = CostedFunction::new("chaos", bounds, time, obj as fn(&[f64]) -> f64);
        let plan = FaultPlan {
            seed: 11,
            fail_rate: 0.15,
            nonfinite_rate: 0.1,
            hang_rate: 0.1,
            straggler_rate: 0.15,
            ..FaultPlan::default()
        };
        FaultyBlackBox::new(inner, plan)
    }

    fn remote(_x: &[f64], _ctx: AttemptContext) -> Option<(f64, f64, EvalOutcome)> {
        None
    }

    #[test]
    fn deferred_reverse_order_run_equals_eager_executor() {
        let bb = chaos_bb();
        let retry = RetryPolicy::default()
            .max_attempts(3)
            .backoff(4.0, 2.0)
            .timeout(30.0)
            .on_exhausted(FailureAction::Penalty(-5.0));
        let tel = Telemetry::disabled();
        let init = vec![vec![0.2], vec![0.8]];
        let eager =
            VirtualExecutor::new(3).run_async_resilient(&bb, &init, 24, &mut Spread, &retry, &tel);

        let mut policy = Spread;
        let session = SessionState::new(3, 24, &init);
        let mut lp = EventLoop::fresh(session, retry.clone(), &mut policy, &tel, &mut remote);
        while !lp.done() {
            let batch: Vec<(usize, usize, usize, Vec<f64>)> = lp
                .unresolved()
                .map(|d| (d.task, d.attempt, d.worker, d.x.clone()))
                .collect();
            for (task, attempt, worker, x) in batch.into_iter().rev() {
                let e = bb.evaluate_attempt(
                    &x,
                    AttemptContext {
                        task,
                        attempt,
                        worker,
                        panics_caught: false,
                    },
                );
                assert!(lp.resolve(task, attempt, (e.value, e.cost, e.resolved_outcome())));
            }
            while lp.step(&mut policy, &tel, &mut remote) {}
        }
        let deferred = lp.into_session().into_result();
        assert!(
            deferred.schedule.spans().iter().any(|s| s.failed),
            "the plan must exercise failures"
        );
        assert_eq!(deferred, eager);
    }

    #[test]
    fn resolve_rejects_unknown_and_resolved_attempts() {
        let tel = Telemetry::disabled();
        let mut policy = Spread;
        let session = SessionState::new(2, 5, &[vec![0.1], vec![0.9]]);
        let mut lp = EventLoop::fresh(session, RetryPolicy::none(), &mut policy, &tel, &mut remote);
        assert_eq!(lp.unresolved().count(), 2);
        assert!(
            !lp.step(&mut policy, &tel, &mut remote),
            "stalls unresolved"
        );

        assert!(
            !lp.resolve(99, 1, (1.0, 1.0, EvalOutcome::Ok)),
            "unknown task"
        );
        assert!(
            !lp.resolve(0, 2, (1.0, 1.0, EvalOutcome::Ok)),
            "unknown attempt"
        );
        assert!(lp.resolve(0, 1, (1.0, 1.0, EvalOutcome::Ok)));
        assert!(
            !lp.resolve(0, 1, (1.0, 1.0, EvalOutcome::Ok)),
            "already resolved"
        );
        assert_eq!(lp.unresolved().map(|d| d.task).collect::<Vec<_>>(), vec![1]);
        assert!(
            !lp.step(&mut policy, &tel, &mut remote),
            "task 1 still unresolved"
        );
        assert!(!lp.done());
    }
}
