//! Cross-crate telemetry integration tests: the event stream emitted by
//! a run must be a faithful, replayable record of that run.
//!
//! The headline acceptance check is exact reconstruction: a JSONL sink
//! attached to an optimizer run yields events from which
//! `replay::best_so_far_csv` regenerates `RunTrace::to_csv()`
//! byte-for-byte (the paper's Fig. 4/6 trace format).

use std::io::Write;
use std::sync::{Arc, Mutex};

use easybo::EasyBo;
use easybo_exec::{
    AsyncPolicy, BusyPoint, CostedFunction, Dataset, RetryPolicy, SessionState, SimTimeModel,
    SyncBatchPolicy, ThreadedExecutor, VirtualExecutor,
};
use easybo_opt::Bounds;
use easybo_telemetry::replay::{best_so_far_csv, parse_jsonl};
use easybo_telemetry::{Event, JsonlSink, Telemetry, TimedEvent};

/// `Write` target shareable between a `JsonlSink` (owned by the
/// telemetry handle) and the test that wants to read it back.
#[derive(Clone, Default)]
struct SharedBuf(Arc<Mutex<Vec<u8>>>);

impl SharedBuf {
    fn contents(&self) -> String {
        String::from_utf8(self.0.lock().unwrap().clone()).expect("utf8 jsonl")
    }
}

impl Write for SharedBuf {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.0.lock().unwrap().extend_from_slice(buf);
        Ok(buf.len())
    }
    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

fn toy_blackbox() -> CostedFunction<impl Fn(&[f64]) -> f64 + Send + Sync> {
    let bounds = Bounds::unit_cube(2).unwrap();
    let time = SimTimeModel::new(&bounds, 50.0, 0.4, 11);
    CostedFunction::new("toy", bounds, time, |x: &[f64]| {
        -(x[0] - 0.3).powi(2) - (x[1] - 0.6).powi(2)
    })
}

struct Walker(f64);
impl AsyncPolicy for Walker {
    fn select_next(&mut self, _d: &Dataset, _b: &[BusyPoint]) -> Vec<f64> {
        self.0 = (self.0 + 0.17) % 1.0;
        vec![self.0, 1.0 - self.0]
    }
}
impl SyncBatchPolicy for Walker {
    fn select_batch(&mut self, d: &Dataset, batch_size: usize) -> Vec<Vec<f64>> {
        (0..batch_size)
            .map(|_| AsyncPolicy::select_next(self, d, &[]))
            .collect()
    }
}

fn init_points() -> Vec<Vec<f64>> {
    vec![
        vec![0.1, 0.9],
        vec![0.5, 0.5],
        vec![0.9, 0.1],
        vec![0.3, 0.2],
    ]
}

/// The tentpole acceptance criterion: a full optimizer run (GP refits,
/// acquisition events and all) through the virtual executor, recorded to
/// JSONL, reconstructs the run trace CSV *exactly*.
#[test]
fn jsonl_reconstruction_equals_trace_csv_for_full_optimizer_run() {
    let buf = SharedBuf::default();
    let telemetry = Telemetry::new();
    telemetry.add_sink(JsonlSink::new(buf.clone()));

    let bounds = Bounds::new(vec![(-2.0, 2.0), (-2.0, 2.0)]).unwrap();
    let mut opt = EasyBo::new(bounds);
    opt.batch_size(3)
        .max_evals(14)
        .initial_points(6)
        .seed(5)
        .telemetry(telemetry);
    let result = opt
        .run(|x| -(x[0].powi(2) + x[1].powi(2)))
        .expect("run succeeds");

    let events = parse_jsonl(&buf.contents()).expect("valid jsonl");
    // The stream carries more than evaluations: refits and acquisition
    // optimizations from inside the policy must be interleaved.
    assert!(
        events
            .iter()
            .any(|e| matches!(e.event, Event::GpRefit { .. })),
        "expected GpRefit events in the stream"
    );
    assert!(
        events
            .iter()
            .any(|e| matches!(e.event, Event::AcqOptimized { .. })),
        "expected AcqOptimized events in the stream"
    );
    assert_eq!(best_so_far_csv(&events), result.trace.to_csv());

    // The end-of-run report mirrors the schedule.
    assert_eq!(result.report.completed, 14);
    assert!(result.report.workers >= 1);
    assert!((result.report.utilization - result.schedule.utilization()).abs() < 1e-12);
}

#[test]
fn jsonl_reconstruction_equals_trace_csv_for_sync_executor() {
    let buf = SharedBuf::default();
    let telemetry = Telemetry::new();
    telemetry.add_sink(JsonlSink::new(buf.clone()));

    let bb = toy_blackbox();
    let result = VirtualExecutor::new(3).run_sync_with(
        &bb,
        &init_points(),
        13,
        &mut Walker(0.0),
        &telemetry,
    );
    telemetry.flush();

    let events = parse_jsonl(&buf.contents()).expect("valid jsonl");
    assert_eq!(best_so_far_csv(&events), result.trace.to_csv());
}

#[test]
fn jsonl_reconstruction_equals_trace_csv_for_threaded_executor() {
    let buf = SharedBuf::default();
    let telemetry = Telemetry::new();
    telemetry.add_sink(JsonlSink::new(buf.clone()));

    let bb = toy_blackbox();
    let session = SessionState::new(3, 11, &init_points());
    let result = ThreadedExecutor::new(3, 1e-5)
        .run(
            &bb,
            session,
            &mut Walker(0.0),
            &RetryPolicy::none(),
            &telemetry,
            None,
        )
        .expect("threaded run succeeds");
    telemetry.flush();

    // `EvalFinished` is stamped with the same (monotone-clamped) time
    // `trace.record` uses, so reconstruction is exact even with real
    // threads finishing out of order.
    let events = parse_jsonl(&buf.contents()).expect("valid jsonl");
    assert_eq!(best_so_far_csv(&events), result.trace.to_csv());
}

fn spans_by_task(
    schedule: &easybo_exec::Schedule,
) -> std::collections::HashMap<usize, (usize, f64, f64)> {
    schedule
        .spans()
        .iter()
        .map(|s| (s.task, (s.worker, s.start, s.end)))
        .collect()
}

/// `(worker, event time)` for the start and finish of one task.
type TaskTimes = (Option<(usize, f64)>, Option<(usize, f64)>);

fn events_by_task(events: &[TimedEvent]) -> std::collections::HashMap<usize, TaskTimes> {
    let mut map: std::collections::HashMap<usize, TaskTimes> = std::collections::HashMap::new();
    for ev in events {
        match ev.event {
            Event::EvalStarted { task, worker } => {
                map.entry(task).or_default().0 = Some((worker, ev.time));
            }
            Event::EvalFinished { task, worker, .. } => {
                map.entry(task).or_default().1 = Some((worker, ev.time));
            }
            _ => {}
        }
    }
    map
}

/// Under the virtual executor the event stream must agree with the
/// schedule span-for-span: same worker, start and end times.
#[test]
fn virtual_event_ordering_matches_schedule_spans() {
    let (telemetry, recorder) = Telemetry::recording();
    let bb = toy_blackbox();
    let result = VirtualExecutor::new(3).run_async_resilient(
        &bb,
        &init_points(),
        12,
        &mut Walker(0.0),
        &RetryPolicy::none(),
        &telemetry,
    );

    let spans = spans_by_task(&result.schedule);
    let observed = events_by_task(&recorder.events());
    assert_eq!(spans.len(), 12);
    assert_eq!(observed.len(), 12);
    for (task, &(worker, start, end)) in &spans {
        let (started, finished) = observed[task];
        let (sw, st) = started.expect("EvalStarted for every span");
        let (fw, ft) = finished.expect("EvalFinished for every span");
        assert_eq!(sw, worker, "task {task} started on wrong worker");
        assert_eq!(fw, worker, "task {task} finished on wrong worker");
        assert_eq!(st, start, "task {task} start time mismatch");
        assert_eq!(ft, end, "task {task} finish time mismatch");
    }
}

/// Under the threaded executor `EvalStarted` must carry the exact span
/// start (the worker stamps both), and `EvalFinished` may only be
/// clamped *forward* relative to the span end.
#[test]
fn threaded_event_ordering_matches_schedule_spans() {
    let (telemetry, recorder) = Telemetry::recording();
    let bb = toy_blackbox();
    let session = SessionState::new(3, 10, &init_points());
    let result = ThreadedExecutor::new(3, 1e-5)
        .run(
            &bb,
            session,
            &mut Walker(0.0),
            &RetryPolicy::none(),
            &telemetry,
            None,
        )
        .expect("threaded run succeeds");

    let spans = spans_by_task(&result.schedule);
    let observed = events_by_task(&recorder.events());
    assert_eq!(spans.len(), 10);
    assert_eq!(observed.len(), 10);
    for (task, &(worker, start, end)) in &spans {
        let (started, finished) = observed[task];
        let (sw, st) = started.expect("EvalStarted for every span");
        let (fw, ft) = finished.expect("EvalFinished for every span");
        assert_eq!(sw, worker, "task {task} started on wrong worker");
        assert_eq!(fw, worker, "task {task} finished on wrong worker");
        assert_eq!(st, start, "task {task} start time mismatch");
        assert!(
            ft >= end && ft >= st,
            "task {task}: finish event at {ft} vs span [{start}, {end}]"
        );
    }
}

/// Regression for the busy-set fix: in-flight points are keyed by task
/// id, so several workers evaluating the *same* `x` stay individually
/// tracked. With the old `x`-keyed removal, one completion wiped every
/// duplicate and the policy saw an empty busy set.
#[test]
fn duplicate_x_busy_points_are_removed_one_at_a_time() {
    struct SamePoint {
        busy_seen: Vec<usize>,
    }
    impl AsyncPolicy for SamePoint {
        fn select_next(&mut self, _d: &Dataset, b: &[BusyPoint]) -> Vec<f64> {
            self.busy_seen.push(b.len());
            vec![0.42, 0.42]
        }
    }

    let bb = toy_blackbox();
    let mut policy = SamePoint {
        busy_seen: Vec::new(),
    };
    // Distinct initial points desynchronize the three workers; every
    // proposal afterwards is the identical duplicate point.
    let result = VirtualExecutor::new(3).run_async(
        &bb,
        &[vec![0.1, 0.9], vec![0.5, 0.5], vec![0.9, 0.1]],
        12,
        &mut policy,
    );
    assert_eq!(result.data.len(), 12);
    assert_eq!(policy.busy_seen.len(), 9);
    // At every selection exactly the other two workers are in flight —
    // even once all in-flight points share the same coordinates.
    assert!(
        policy.busy_seen.iter().all(|&n| n == 2),
        "busy counts seen by the policy: {:?}",
        policy.busy_seen
    );
}

/// The run report attached to `OptimizationResult` aggregates the
/// summary sensibly: shares within [0, 1], idle fraction consistent
/// with utilization.
#[test]
fn run_report_shares_are_consistent() {
    let telemetry = Telemetry::new();
    let bounds = Bounds::unit_cube(2).unwrap();
    let mut opt = EasyBo::new(bounds);
    opt.batch_size(2)
        .max_evals(12)
        .initial_points(5)
        .seed(3)
        .telemetry(telemetry);
    let result = opt
        .run(|x| -(x[0] - 0.4).powi(2) - (x[1] - 0.5).powi(2))
        .expect("run succeeds");

    let r = &result.report;
    assert!(r.utilization > 0.0 && r.utilization <= 1.0 + 1e-12);
    assert!((r.idle_fraction - (1.0 - r.utilization)).abs() < 1e-9);
    assert!(r.gp_fit_share.expect("telemetry was enabled") >= 0.0);
    assert!(r.acq_share.expect("telemetry was enabled") >= 0.0);
    assert!(r.makespan > 0.0);
    let s = r.summary.as_ref().expect("telemetry was enabled");
    assert_eq!(s.evals_finished, 12);
    assert!(s.gp_refits > 0);
    assert!(s.acq_optimizations > 0);
    // The Display form is the human entry point; it should mention the
    // headline numbers.
    let text = format!("{r}");
    assert!(text.contains("utilization"), "report text: {text}");
}

/// A +∞ recorded raw under `RetryPolicy::none()` makes every later
/// surrogate fit fail, so the policy turns to uniform draws. The
/// `surrogate_fallbacks` counter reports it, and counting it leaves the
/// trajectory bit-identical to the run with telemetry off.
#[test]
fn recorded_infinity_shows_in_the_surrogate_fallback_counter() {
    use std::sync::atomic::{AtomicUsize, Ordering};

    let run = |telemetry: Option<Telemetry>| {
        let calls = AtomicUsize::new(0);
        let bounds = Bounds::new(vec![(-2.0, 2.0), (-2.0, 2.0)]).unwrap();
        let time = SimTimeModel::new(&bounds, 10.0, 0.3, 0);
        let bb = CostedFunction::new("infinite-once", bounds.clone(), time, |x: &[f64]| {
            if calls.fetch_add(1, Ordering::Relaxed) == 7 {
                f64::INFINITY
            } else {
                -(x[0] - 0.5).powi(2) - (x[1] + 0.5).powi(2)
            }
        });
        let mut opt = EasyBo::new(bounds);
        opt.batch_size(3)
            .initial_points(6)
            .max_evals(16)
            .seed(4)
            .retry_policy(easybo::RetryPolicy::none());
        if let Some(t) = telemetry {
            opt.telemetry(t);
        }
        opt.run_blackbox(&bb)
            .expect("the finite points leave an incumbent")
    };

    let (telemetry, _recorder) = Telemetry::recording();
    let traced = run(Some(telemetry.clone()));
    let plain = run(None);
    assert!(traced.data.ys().contains(&f64::INFINITY));
    let metrics = telemetry.metrics_snapshot().expect("metrics enabled");
    assert!(
        metrics.counter("surrogate_fallbacks") > 0,
        "a recorded +inf must show as surrogate fallbacks"
    );
    assert_eq!(traced.data.xs(), plain.data.xs());
    let bits = |ys: &[f64]| ys.iter().map(|y| y.to_bits()).collect::<Vec<_>>();
    assert_eq!(bits(traced.data.ys()), bits(plain.data.ys()));
    assert_eq!(traced.trace.to_csv(), plain.trace.to_csv());
}
