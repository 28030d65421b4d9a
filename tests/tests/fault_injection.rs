//! Deterministic fault-injection ("chaos") suite: seeded failure
//! regimes driven through both executors and the full EasyBO stack,
//! asserting that the fault-tolerant evaluation layer keeps every
//! invariant the paper's happy path relies on — termination, a GP that
//! never sees non-finite observations, one retry event per requeue, and
//! bit-identical traces for identical seeds.

use std::collections::{HashMap, HashSet};
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::Mutex;

use easybo::EasyBo;
use easybo_exec::{
    fault::InjectedFault, AsyncPolicy, AttemptContext, BlackBox, BusyPoint, CostedFunction,
    Dataset, EvalOutcome, Evaluation, FailureAction, FaultPlan, FaultyBlackBox, RetryPolicy,
    SessionState, SimTimeModel, ThreadedExecutor, VirtualExecutor,
};
use easybo_opt::Bounds;
use easybo_telemetry::{Event, Telemetry};
use proptest::prelude::*;

/// Deterministic policy that walks the unit interval; keeps the chaos
/// tests independent of GP/acquisition behavior where that is not the
/// point of the scenario.
struct Walker(f64);

impl AsyncPolicy for Walker {
    fn select_next(&mut self, _d: &Dataset, _b: &[BusyPoint]) -> Vec<f64> {
        self.0 = (self.0 + 0.07) % 1.0;
        vec![self.0]
    }
}

fn toy_blackbox(seed: u64) -> CostedFunction<impl Fn(&[f64]) -> f64 + Send + Sync> {
    let bounds = Bounds::unit_cube(1).unwrap();
    let time = SimTimeModel::new(&bounds, 50.0, 0.4, seed);
    CostedFunction::new("toy", bounds, time, |x: &[f64]| 1.0 - (x[0] - 0.6).abs())
}

fn init_points(n: usize) -> Vec<Vec<f64>> {
    (0..n).map(|i| vec![(i as f64 + 0.5) / n as f64]).collect()
}

fn count_kind(events: &[easybo_telemetry::TimedEvent], kind: &str) -> usize {
    events.iter().filter(|e| e.event.kind() == kind).count()
}

/// Scenario 1 — outright simulator crashes: with retries enabled every
/// task eventually completes, the dataset stays finite and full-sized,
/// and exactly one `EvalRetried` event is emitted per requeue.
#[test]
fn injected_failures_are_retried_and_run_completes() {
    let plan = FaultPlan {
        seed: 11,
        fail_rate: 0.3,
        ..FaultPlan::default()
    };
    let bb = FaultyBlackBox::new(toy_blackbox(1), plan);
    let retry = RetryPolicy::default().max_attempts(8).backoff(5.0, 2.0);
    let (telemetry, recorder) = Telemetry::recording();
    let r = VirtualExecutor::new(4).run_async_resilient(
        &bb,
        &init_points(6),
        24,
        &mut Walker(0.0),
        &retry,
        &telemetry,
    );
    assert_eq!(r.data.len(), 24, "every task must eventually complete");
    assert!(r.data.ys().iter().all(|y| y.is_finite()));

    let events = recorder.events();
    let issued = count_kind(&events, "QueryIssued");
    let finished = count_kind(&events, "EvalFinished");
    let failed = count_kind(&events, "EvalFailed");
    let retried = count_kind(&events, "EvalRetried");
    assert!(failed > 0, "a 30% fail rate over 24 tasks must fire");
    // Every failed attempt was requeued (nothing exhausted 8 attempts),
    // and every requeue re-issues the query exactly once.
    assert_eq!(retried, failed);
    assert_eq!(issued, finished + failed);
    assert_eq!(finished, 24);
}

/// Scenario 2 — non-convergent simulations: NaN/±Inf figures of merit
/// must never reach the GP. With `FailureAction::Drop` the surrogate's
/// dataset contains only finite observations, end to end through the
/// full EasyBO optimizer.
#[test]
fn non_finite_foms_never_reach_the_gp() {
    let plan = FaultPlan {
        seed: 23,
        nonfinite_rate: 0.3,
        ..FaultPlan::default()
    };
    let bb = FaultyBlackBox::new(toy_blackbox(2), plan);
    let retry = RetryPolicy::default()
        .max_attempts(2)
        .backoff(1.0, 2.0)
        .on_exhausted(FailureAction::Drop);
    let r = EasyBo::new(bb.bounds().clone())
        .batch_size(3)
        .initial_points(8)
        .max_evals(30)
        .seed(5)
        .retry_policy(retry)
        .run_blackbox(&bb)
        .expect("run survives non-finite FOMs");
    assert!(!r.data.is_empty());
    assert!(r.data.len() <= 30, "dropped tasks shrink the dataset");
    assert!(
        r.data.ys().iter().all(|y| y.is_finite()),
        "a non-finite observation reached the surrogate"
    );
    assert!(r.best_value.is_finite());
}

/// Scenario 3 — hangs: a hung evaluation (cost 1e9) must be abandoned
/// at the per-attempt timeout, bounding the makespan; the abandoned
/// spans are flagged failed with length exactly the timeout.
#[test]
fn timeouts_abandon_hung_tasks() {
    let plan = FaultPlan {
        seed: 31,
        hang_rate: 0.35,
        ..FaultPlan::default()
    };
    let bb = FaultyBlackBox::new(toy_blackbox(3), plan);
    let retry = RetryPolicy::default()
        .max_attempts(6)
        .backoff(1.0, 2.0)
        .timeout(200.0);
    let r = VirtualExecutor::new(3).run_async_resilient(
        &bb,
        &init_points(5),
        18,
        &mut Walker(0.0),
        &retry,
        &Telemetry::disabled(),
    );
    assert_eq!(r.data.len(), 18);
    // 18 tasks at ≤ ~140s each plus a handful of 200s abandonments: a
    // hang surviving to completion would cost 1e9 on its own.
    assert!(
        r.schedule.makespan() < 1e5,
        "makespan {} not bounded by the timeout",
        r.schedule.makespan()
    );
    let abandoned: Vec<_> = r.schedule.spans().iter().filter(|s| s.failed).collect();
    assert!(!abandoned.is_empty(), "a 35% hang rate must fire");
    for span in abandoned {
        assert!(
            (span.end - span.start - 200.0).abs() < 1e-9,
            "abandoned span length {} != timeout",
            span.end - span.start
        );
    }
    assert!(r.schedule.failed_time() > 0.0);
    assert!(r.schedule.utilization() < 1.0);
}

/// Scenario 4 — stragglers: uniformly 4× slower evaluations change the
/// clock but not the observations; the best-so-far curve is identical
/// point-for-point with time stretched by exactly the factor.
#[test]
fn stragglers_only_slow_the_run() {
    let clean_bb = FaultyBlackBox::new(toy_blackbox(4), FaultPlan::none(47));
    let slow_plan = FaultPlan {
        seed: 47,
        straggler_rate: 1.0,
        straggler_factor: 4.0,
        ..FaultPlan::default()
    };
    let slow_bb = FaultyBlackBox::new(toy_blackbox(4), slow_plan);
    let run = |bb: &FaultyBlackBox<_>| {
        VirtualExecutor::new(3).run_async_resilient(
            bb,
            &init_points(4),
            15,
            &mut Walker(0.0),
            &RetryPolicy::default(),
            &Telemetry::disabled(),
        )
    };
    let clean = run(&clean_bb);
    let slow = run(&slow_bb);
    assert_eq!(clean.data, slow.data, "stragglers must not change values");
    assert!((slow.schedule.makespan() - 4.0 * clean.schedule.makespan()).abs() < 1e-9);
    for (c, s) in clean.trace.points().iter().zip(slow.trace.points()) {
        assert_eq!(c.value, s.value);
        assert!((s.time - 4.0 * c.time).abs() < 1e-9);
    }
}

/// Scenario 5 — panicking black boxes on real threads: `catch_unwind`
/// contains the panic, the attempt is retried, and the run completes
/// with a full, finite dataset.
#[test]
fn worker_panics_are_contained() {
    let plan = FaultPlan {
        seed: 53,
        panic_rate: 0.3,
        ..FaultPlan::default()
    };
    let bb = FaultyBlackBox::new(toy_blackbox(5), plan);
    let retry = RetryPolicy::default().max_attempts(8).backoff(0.0, 1.0);
    let (telemetry, recorder) = Telemetry::recording();
    let session = SessionState::new(3, 16, &init_points(4));
    let r = ThreadedExecutor::new(3, 0.0)
        .run(&bb, session, &mut Walker(0.0), &retry, &telemetry, None)
        .expect("panics must not kill the run");
    assert_eq!(r.data.len(), 16);
    assert!(r.data.ys().iter().all(|y| y.is_finite()));
    let events = recorder.events();
    assert!(
        count_kind(&events, "EvalFailed") > 0,
        "a 30% panic rate over 16 tasks must fire"
    );
    assert_eq!(
        count_kind(&events, "EvalFailed"),
        count_kind(&events, "EvalRetried"),
        "every contained panic must be requeued"
    );
}

/// Scenario 6 — worker death: a scheduled crash kills one thread for
/// good; its task fails over to the survivors, a `WorkerCrashed` event
/// is emitted, and the run still completes.
#[test]
fn worker_crash_fails_over_to_surviving_workers() {
    let plan = FaultPlan {
        crash_after: vec![Some(0), None, None],
        ..FaultPlan::default()
    };
    let bb = FaultyBlackBox::new(toy_blackbox(6), plan);
    let retry = RetryPolicy::default().max_attempts(4).backoff(0.0, 1.0);
    let (telemetry, recorder) = Telemetry::recording();
    let session = SessionState::new(3, 12, &init_points(3));
    let r = ThreadedExecutor::new(3, 1e-5)
        .run(&bb, session, &mut Walker(0.0), &retry, &telemetry, None)
        .expect("survivors must finish the run");
    assert_eq!(r.data.len(), 12);
    assert!(r.data.ys().iter().all(|y| y.is_finite()));
    let events = recorder.events();
    assert_eq!(count_kind(&events, "WorkerCrashed"), 1);
    assert_eq!(telemetry.summary().expect("enabled").worker_crashes, 1);
}

/// Scenario 6b — total loss: when the only worker dies the executor
/// must return a structured error instead of deadlocking (the
/// regression this layer was built to prevent), and the high-level API
/// must surface it as a configuration-layer error.
#[test]
fn all_workers_dead_is_a_structured_error_not_a_deadlock() {
    let plan = FaultPlan {
        crash_after: vec![Some(1)],
        ..FaultPlan::default()
    };
    let bb = FaultyBlackBox::new(toy_blackbox(7), plan);
    let err = EasyBo::new(bb.bounds().clone())
        .batch_size(1)
        .initial_points(2)
        .max_evals(10)
        .run_threaded(&bb, 0.0)
        .expect_err("a dead pool cannot finish");
    assert!(
        err.to_string().contains("executor failure"),
        "unexpected error: {err}"
    );
}

/// Fixed-seed chaos reproducibility: the whole stack (EasyBO policy +
/// GP + fault injection + retry layer) must produce bit-identical
/// RunTrace CSVs for the same seed — across repeated runs and across
/// the training/acquisition parallelism knob.
#[test]
fn fixed_seed_chaos_is_bit_identical() {
    let run = |parallelism: usize| {
        let plan = FaultPlan {
            seed: 99,
            fail_rate: 0.15,
            nonfinite_rate: 0.1,
            straggler_rate: 0.1,
            ..FaultPlan::default()
        };
        let bb = FaultyBlackBox::new(toy_blackbox(8), plan);
        let retry = RetryPolicy::default().max_attempts(3).backoff(10.0, 2.0);
        let r = EasyBo::new(bb.bounds().clone())
            .batch_size(3)
            .initial_points(8)
            .max_evals(24)
            .seed(17)
            .parallelism(parallelism)
            .retry_policy(retry)
            .run_blackbox(&bb)
            .expect("chaos run completes");
        (r.trace.to_csv(), r.data, r.best_x.clone(), r.best_value)
    };
    let (csv_a, data_a, x_a, v_a) = run(1);
    let (csv_b, data_b, x_b, v_b) = run(1);
    assert_eq!(csv_a, csv_b, "same seed must reproduce the trace CSV");
    assert_eq!(data_a, data_b);
    assert_eq!(x_a, x_b);
    assert_eq!(v_a, v_b);
    let (csv_p, data_p, x_p, v_p) = run(4);
    assert_eq!(csv_a, csv_p, "parallelism must not change the trace CSV");
    assert_eq!(data_a, data_p);
    assert_eq!(x_a, x_p);
    assert_eq!(v_a, v_p);
}

/// Proposes points from both the data and the busy set, so a replay
/// that diverged in either shows up in the trajectory.
struct Spread;

impl AsyncPolicy for Spread {
    fn select_next(&mut self, d: &Dataset, busy: &[BusyPoint]) -> Vec<f64> {
        let seen: f64 = d.ys().iter().filter(|y| y.is_finite()).sum();
        let k = d.len() * 7 + busy.iter().map(|b| b.task).sum::<usize>();
        vec![(k as f64 * 0.137 + seen * 0.01).rem_euclid(1.0)]
    }
}

/// Logs every attempt's raw evaluation as the threaded executor sees it,
/// a contained panic as the failed evaluation it substitutes.
struct Recorder<B> {
    inner: B,
    log: Mutex<HashMap<(usize, usize), Evaluation>>,
}

impl<B: BlackBox> BlackBox for Recorder<B> {
    fn bounds(&self) -> &Bounds {
        self.inner.bounds()
    }

    fn evaluate(&self, x: &[f64]) -> Evaluation {
        self.inner.evaluate(x)
    }

    fn evaluate_attempt(&self, x: &[f64], ctx: AttemptContext) -> Evaluation {
        let e = catch_unwind(AssertUnwindSafe(|| self.inner.evaluate_attempt(x, ctx)));
        let seen = match &e {
            Ok(e) => e.clone(),
            Err(_) => Evaluation::failed("panicked during evaluation", 0.0),
        };
        self.log
            .lock()
            .unwrap()
            .insert((ctx.task, ctx.attempt), seen);
        e.unwrap_or_else(|payload| resume_unwind(payload))
    }
}

/// Replays logged attempts: the logged value and outcome at the cost
/// the threaded run measured.
struct Replay {
    bounds: Bounds,
    attempts: HashMap<(usize, usize), Evaluation>,
}

impl BlackBox for Replay {
    fn bounds(&self) -> &Bounds {
        &self.bounds
    }

    fn evaluate(&self, _x: &[f64]) -> Evaluation {
        unreachable!("the executors call evaluate_attempt")
    }

    fn evaluate_attempt(&self, _x: &[f64], ctx: AttemptContext) -> Evaluation {
        self.attempts[&(ctx.task, ctx.attempt)].clone()
    }
}

/// A threaded run replays through the virtual executor bit for bit:
/// failures, non-finite values, panics, stragglers and hangs abandoned at
/// a real-seconds timeout. Each attempt's cost is its span's end − start;
/// a timed-out attempt replays at cost +∞, which the timeout clamps.
///
/// A hang sleeps twice the timeout, so the run keeps issuing tasks while
/// a hung thread is stuck past its deadline; with a 20 ms backoff before
/// the retry, a timeout folded late would change the busy sets those
/// asks see. The plan is sized so hangs
/// cannot hold every thread at once (fewer hang draws than threads over
/// every attempt the run can reach): with all four threads stuck the run
/// ends in the all-threads-stuck `ExecutorFailure` instead, which is the
/// executor's contract.
#[test]
fn threaded_run_replays_through_the_virtual_executor() {
    const WORKERS: usize = 4;
    const TASKS: usize = 30;
    const ATTEMPTS: usize = 4;
    // Reporting an injected panic (a backtrace under RUST_BACKTRACE) can
    // stall its thread past the timeout; every other panic is reported.
    let report = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        if info.payload().downcast_ref::<&str>() != Some(&"injected evaluation panic") {
            report(info);
        }
    }));
    let retry = RetryPolicy::default()
        .max_attempts(ATTEMPTS)
        .backoff(0.02, 2.0)
        .timeout(0.05)
        .on_exhausted(FailureAction::Penalty(-5.0));
    let mut timeouts_seen = 0;
    for seed in 0..16u64 {
        let plan = FaultPlan {
            seed,
            fail_rate: 0.1,
            nonfinite_rate: 0.1,
            hang_rate: 0.0075,
            hang_cost: 1000.0,
            panic_rate: 0.1,
            straggler_rate: 0.15,
            ..FaultPlan::default()
        };
        let hangs = (0..TASKS)
            .flat_map(|t| (1..=ATTEMPTS).map(move |a| (t, a)))
            .filter(|&(t, a)| plan.decide(t, a) == InjectedFault::Hang)
            .count();
        assert!(hangs < WORKERS, "seed {seed}: {hangs} hang draws");
        let bb = Recorder {
            inner: FaultyBlackBox::new(toy_blackbox(seed), plan),
            log: Mutex::new(HashMap::new()),
        };
        let (telemetry, events) = Telemetry::recording();
        let session = SessionState::new(WORKERS, TASKS, &init_points(4));
        let threaded = ThreadedExecutor::new(WORKERS, 1e-4)
            .run(&bb, session, &mut Spread, &retry, &telemetry, None)
            .expect("hangs never hold every thread");

        let timed_out: HashSet<(usize, usize)> = (events.events().into_iter())
            .filter_map(|e| match e.event {
                Event::EvalFailed {
                    task,
                    attempt,
                    reason,
                    ..
                } if reason == EvalOutcome::TimedOut.describe() => Some((task, attempt)),
                _ => None,
            })
            .collect();
        timeouts_seen += timed_out.len();
        let log = bb.log.into_inner().unwrap();
        let mut attempts = HashMap::new();
        let mut tries: HashMap<usize, usize> = HashMap::new();
        for span in threaded.schedule.spans() {
            let attempt = tries.entry(span.task).or_default();
            *attempt += 1;
            let key = (span.task, *attempt);
            let e = if timed_out.contains(&key) {
                Evaluation::failed("timeout", f64::INFINITY)
            } else {
                Evaluation {
                    cost: span.end - span.start,
                    ..log[&key].clone()
                }
            };
            attempts.insert(key, e);
        }
        let replay = Replay {
            bounds: Bounds::unit_cube(1).unwrap(),
            attempts,
        };
        let replayed = VirtualExecutor::new(WORKERS).run_async_resilient(
            &replay,
            &init_points(4),
            TASKS,
            &mut Spread,
            &retry,
            &Telemetry::disabled(),
        );
        assert_eq!(replayed.data.xs(), threaded.data.xs(), "seed {seed}");
        let bits = |d: &Dataset| d.ys().iter().map(|y| y.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&replayed.data), bits(&threaded.data), "seed {seed}");
        assert_eq!(
            replayed.trace.to_csv(),
            threaded.trace.to_csv(),
            "seed {seed}"
        );
    }
    assert!(timeouts_seen > 0, "the plans must exercise the timeout");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Chaos property: under random mixed fault regimes the run always
    /// terminates, attempts are conserved (#QueryIssued == #EvalFinished
    /// + #EvalFailed on the drained virtual executor), the dataset never
    /// carries a non-finite observation under `Drop`, and the committed
    /// dataset never exceeds the task budget.
    #[test]
    fn chaos_terminates_and_conserves_attempts(
        seed in 0u64..1000,
        fail in 0.0f64..0.4,
        nonfinite in 0.0f64..0.3,
        hang in 0.0f64..0.2,
        workers in 1usize..6,
    ) {
        let plan = FaultPlan {
            seed,
            fail_rate: fail,
            nonfinite_rate: nonfinite,
            hang_rate: hang,
            ..FaultPlan::default()
        };
        let bb = FaultyBlackBox::new(toy_blackbox(seed), plan);
        let retry = RetryPolicy::default()
            .max_attempts(3)
            .backoff(2.0, 2.0)
            .timeout(300.0)
            .on_exhausted(FailureAction::Drop);
        let (telemetry, recorder) = Telemetry::recording();
        let r = VirtualExecutor::new(workers).run_async_resilient(
            &bb,
            &init_points(4),
            16,
            &mut Walker(0.0),
            &retry,
            &telemetry,
        );
        prop_assert!(r.data.len() <= 16);
        prop_assert!(r.data.ys().iter().all(|y| y.is_finite()));
        let events = recorder.events();
        let issued = count_kind(&events, "QueryIssued");
        let finished = count_kind(&events, "EvalFinished");
        let failed = count_kind(&events, "EvalFailed");
        let retried = count_kind(&events, "EvalRetried");
        // The virtual executor drains its event heap: no attempt is
        // still in flight at termination.
        prop_assert_eq!(issued, finished + failed);
        // A retry re-issues exactly once; failures that exhausted their
        // attempts were dropped without a new issue.
        prop_assert!(retried <= failed);
        prop_assert_eq!(finished, r.data.len());
        prop_assert_eq!(telemetry.summary().expect("enabled").evals_failed, failed);
        prop_assert_eq!(telemetry.summary().expect("enabled").evals_retried, retried);
    }

    /// Identical seeds must reproduce identical traces regardless of the
    /// virtual worker count being varied *elsewhere*: for a fixed plan
    /// and fixed worker count, two runs are byte-identical.
    #[test]
    fn seeded_chaos_traces_are_byte_identical(seed in 0u64..500, workers in 1usize..5) {
        let run = || {
            let plan = FaultPlan {
                seed,
                fail_rate: 0.25,
                nonfinite_rate: 0.15,
                ..FaultPlan::default()
            };
            let bb = FaultyBlackBox::new(toy_blackbox(seed ^ 0xabc), plan);
            let retry = RetryPolicy::default().max_attempts(4).backoff(3.0, 2.0);
            VirtualExecutor::new(workers).run_async_resilient(
                &bb,
                &init_points(3),
                12,
                &mut Walker(0.0),
                &retry,
                &Telemetry::disabled(),
            )
        };
        let a = run();
        let b = run();
        prop_assert_eq!(a.trace.to_csv(), b.trace.to_csv());
        prop_assert_eq!(a.schedule.to_csv(), b.schedule.to_csv());
        prop_assert_eq!(a.data, b.data);
    }
}
