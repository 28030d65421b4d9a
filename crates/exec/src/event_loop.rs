//! The asynchronous batch discrete-event loop (§III-A): a worker that
//! goes idle is handed a new query at once, while the points still in
//! flight stay in the session's busy set for penalization.
//!
//! [`EventLoop`] is the one implementation of that loop. The in-process
//! [`crate::VirtualExecutor`], the network session manager and the
//! real-clock [`crate::ThreadedExecutor`] all drive it; they differ only
//! in the [`Resolver`] they pass and in whether they declare a horizon.
//! It has one constructor, [`EventLoop::start`]: a new run is a resume
//! of an empty session, whose idle workers the start fills at once.
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
//!   later than the horizon is popped. The missing finish time could
//!   precede (or tie with) the current heap top, so popping would commit
//!   to an order an eager run might not choose.
//! - **Fold**: results are folded in dispatch order, so span insertion
//!   order and the reserved sequence numbers match an eager run exactly;
//!   a resolved dispatch whose finish is at or before the horizon folds
//!   at once. Each fold applies the per-attempt timeout and pushes the
//!   attempt's finish event.
//!
//! # The horizon
//!
//! A driver on a real clock declares a *horizon* through
//! [`EventLoop::set_horizon`]: a clock reading that every unresolved
//! dispatch finishes after. Nothing unresolved can then precede an event
//! at or before it, so such events pop without stalling, and an
//! unresolved dispatch whose deadline is at or before it has timed out.
//! The virtual executor and the session manager never set it; at its
//! initial −∞ the stall and fold rules above are exactly dispatch-order
//! folding and stalling on any unresolved dispatch.
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
    /// Start time on the run clock.
    pub start: f64,
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
    horizon: f64,
}

impl EventLoop {
    /// Starts the loop over `session`, new or captured, in three steps:
    ///
    /// 1. Re-dispatches every in-flight attempt at its recorded worker
    ///    and start time (attempts never started, as in threaded
    ///    captures, restart at the session clock on a deterministic
    ///    worker). They take the low sequence numbers, as they did in
    ///    the uninterrupted run.
    /// 2. Re-arms pending backoffs as retry events.
    /// 3. Hands every worker slot that holds no attempt and no backoff a
    ///    new task at the session clock, in slot order, while the task
    ///    budget lasts.
    ///
    /// A new session has nothing in flight, so only the fill runs and
    /// every worker starts at t = 0. Every capture follows a refill, so
    /// on a captured session the fill finds the budget spent or every
    /// slot occupied; it only fires for sessions assembled by hand.
    pub fn start(
        session: SessionState,
        retry: RetryPolicy,
        policy: &mut dyn AsyncPolicy,
        telemetry: &Telemetry,
        resolver: &mut Resolver<'_>,
    ) -> Self {
        let mut lp = EventLoop {
            session,
            retry,
            heap: BinaryHeap::new(),
            seq: 0,
            outstanding: VecDeque::new(),
            horizon: f64::NEG_INFINITY,
        };
        let clock = lp.session.clock;
        let workers = lp.session.workers;
        let mut occupied = vec![false; workers];
        for inf in lp.session.drain_inflight() {
            let (worker, start) = inf.started.unwrap_or((inf.task % workers, clock));
            occupied[worker] = true;
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
            occupied[worker] = true;
            lp.push_retry(due, worker, task);
        }
        for worker in (0..workers).filter(|&w| !occupied[w]) {
            if lp.session.issued >= lp.session.max_evals {
                break;
            }
            lp.refill(worker, clock, policy, telemetry, resolver);
        }
        lp
    }

    /// Runs one event: folds resolved dispatches, stalls if any is
    /// still unresolved and the next event lies beyond the horizon,
    /// otherwise pops the next event, tells the session, and dispatches
    /// a new task or schedules a retry. Returns whether an event was
    /// processed (`false` = stalled or drained).
    pub fn step(
        &mut self,
        policy: &mut dyn AsyncPolicy,
        telemetry: &Telemetry,
        resolver: &mut Resolver<'_>,
    ) -> bool {
        self.fold();
        let ready = |ev: &SimEvent| self.outstanding.is_empty() || ev.time <= self.horizon;
        if !self.heap.peek().is_some_and(ready) {
            return false;
        }
        let ev = self.heap.pop().expect("peeked");
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

    /// Declares that every unresolved dispatch finishes after `now`,
    /// and folds what that settles (see the module docs).
    pub fn set_horizon(&mut self, now: f64) {
        self.horizon = now;
        self.fold();
    }

    /// The earliest run-clock time at which the loop has work: the next
    /// event, a resolved finish not yet folded, or an unresolved
    /// attempt's deadline. `None` when there is none of these.
    pub fn next_time(&self) -> Option<f64> {
        let pending = self.outstanding.iter().map(|d| self.due(d));
        let next = self.heap.peek().map(|ev| ev.time);
        pending.chain([next]).flatten().reduce(f64::min)
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

    /// The per-attempt deadline when `cost` exceeds it: the job system
    /// abandons the attempt then, so the worker is occupied only until
    /// then.
    fn clamp(&self, cost: f64) -> Option<f64> {
        self.retry.timeout.filter(|&deadline| cost > deadline)
    }

    /// When a dispatch frees its worker: its finish once resolved, the
    /// cost cut to the deadline; until then its deadline, if any.
    fn due(&self, d: &Outstanding) -> Option<f64> {
        let Some((_, cost, _)) = &d.result else {
            return self.retry.timeout.map(|t| d.start + t);
        };
        Some(d.start + self.clamp(*cost).unwrap_or(*cost))
    }

    /// Times out unresolved dispatches whose deadline is at or before
    /// the horizon, then folds resolved dispatches from the front of the
    /// queue in dispatch order, and any other whose finish is at or
    /// before the horizon.
    fn fold(&mut self) {
        if let Some(t) = self.retry.timeout {
            let expired = self.outstanding.iter_mut();
            for d in expired.filter(|d| d.result.is_none() && d.start + t <= self.horizon) {
                d.result = Some((f64::NAN, t, EvalOutcome::TimedOut));
            }
        }
        let mut i = 0;
        while let Some(d) = self.outstanding.get(i) {
            let foldable = |finish: f64| i == 0 || finish <= self.horizon;
            if d.result.is_none() || !self.due(d).is_some_and(foldable) {
                i += 1;
                continue;
            }
            let d = self.outstanding.remove(i).expect("index in range");
            let (value, mut cost, mut outcome) = d.result.expect("checked resolved");
            if let Some(deadline) = self.clamp(cost) {
                cost = deadline;
                outcome = EvalOutcome::TimedOut;
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
        SessionParts, SimTimeModel, VirtualExecutor,
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
        let mut lp = EventLoop::start(session, retry.clone(), &mut policy, &tel, &mut remote);
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
    fn horizon_folds_a_later_resolved_dispatch_past_an_unresolved_one() {
        let tel = Telemetry::disabled();
        let mut policy = Spread;
        let session = SessionState::new(2, 3, &[vec![0.1], vec![0.9]]);
        let mut lp = EventLoop::start(session, RetryPolicy::none(), &mut policy, &tel, &mut remote);
        assert!(lp.resolve(1, 1, (2.0, 1.5, EvalOutcome::Ok)));
        assert!(
            !lp.step(&mut policy, &tel, &mut remote),
            "without a horizon task 0 stalls the loop"
        );
        assert_eq!(lp.next_time(), Some(1.5));
        lp.set_horizon(1.0);
        assert!(
            !lp.step(&mut policy, &tel, &mut remote),
            "task 1 finishes beyond the horizon"
        );
        lp.set_horizon(1.5);
        assert!(lp.step(&mut policy, &tel, &mut remote));
        assert_eq!(lp.session().data().ys(), &[2.0]);
        assert_eq!(lp.session().clock(), 1.5);
        let out: Vec<_> = lp
            .unresolved()
            .map(|d| (d.task, d.worker, d.start))
            .collect();
        assert_eq!(
            out,
            vec![(0, 0, 0.0), (2, 1, 1.5)],
            "worker 1 refilled at 1.5"
        );
        assert!(!lp.step(&mut policy, &tel, &mut remote));

        // An unresolved dispatch whose deadline the horizon passes has
        // timed out: it folds as a failed span and frees its worker.
        let retry = RetryPolicy::none().timeout(1.0);
        let session = SessionState::new(1, 1, &[vec![0.5]]);
        let mut lp = EventLoop::start(session, retry, &mut policy, &tel, &mut remote);
        assert_eq!(lp.next_time(), Some(1.0));
        lp.set_horizon(1.0);
        assert_eq!(lp.unresolved().count(), 0);
        assert!(lp.step(&mut policy, &tel, &mut remote));
        assert!(lp.done());
        let r = lp.into_session().into_result();
        assert_eq!(r.schedule.spans()[0].end, 1.0);
        assert!(r.schedule.spans()[0].failed);
    }

    /// A session with budget left and nothing in flight or backing off
    /// passes `from_parts`; the start hands every idle worker a task at
    /// the session clock, and the run finishes the budget.
    #[test]
    fn start_fills_the_idle_workers_of_a_hand_built_session() {
        let parts = SessionParts {
            workers: 2,
            max_evals: 6,
            issued: 2,
            resolved: 2,
            clock: 7.0,
            observations: vec![(vec![0.1], 0.5), (vec![0.9], 0.2)],
            trace: vec![(4.0, 0.5), (7.0, 0.2)],
            ..SessionParts::default()
        };
        let session = SessionState::from_parts(parts).expect("a consistent capture");
        let tel = Telemetry::disabled();
        let r = VirtualExecutor::new(2)
            .run(
                &chaos_bb(),
                session,
                &mut Spread,
                &RetryPolicy::none(),
                &tel,
                None,
            )
            .expect("no hook to abort");
        assert_eq!(r.data.len(), 6, "the start fills both idle workers");
        let starts: Vec<_> = r.schedule.spans()[..2]
            .iter()
            .map(|s| (s.worker, s.task, s.start))
            .collect();
        assert_eq!(starts, [(0, 2, 7.0), (1, 3, 7.0)]);
    }

    #[test]
    fn resolve_rejects_unknown_and_resolved_attempts() {
        let tel = Telemetry::disabled();
        let mut policy = Spread;
        let session = SessionState::new(2, 5, &[vec![0.1], vec![0.9]]);
        let mut lp = EventLoop::start(session, RetryPolicy::none(), &mut policy, &tel, &mut remote);
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
