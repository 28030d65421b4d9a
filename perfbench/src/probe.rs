//! Measurement wrappers around the program's public seams: a black
//! box that stamps every evaluation, and policies that time every
//! decision.

use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use easybo_exec::{
    AsyncPolicy, AttemptContext, BlackBox, BusyPoint, Dataset, Evaluation, SyncBatchPolicy,
};
use easybo_opt::Bounds;

/// Wall-clock entry and exit of one `evaluate` call.
#[derive(Debug, Clone, Copy)]
pub struct EvalStamp {
    /// When the executor called into the black box.
    pub enter: Instant,
    /// When the black box returned.
    pub exit: Instant,
    /// Whether the evaluation came back Ok.
    pub ok: bool,
}

/// Black box that forwards to `inner` and stamps each evaluation.
pub struct EvalProbe<'a> {
    inner: &'a dyn BlackBox,
    stamps: Mutex<Vec<EvalStamp>>,
}

impl<'a> EvalProbe<'a> {
    /// Wraps `inner`.
    pub fn new(inner: &'a dyn BlackBox) -> Self {
        EvalProbe {
            inner,
            stamps: Mutex::new(Vec::new()),
        }
    }

    /// Every stamp so far, in call order.
    pub fn stamps(&self) -> Vec<EvalStamp> {
        self.stamps.lock().expect("probe poisoned").clone()
    }

    fn stamp(&self, f: impl FnOnce() -> Evaluation) -> Evaluation {
        let enter = Instant::now();
        let e = f();
        let exit = Instant::now();
        self.stamps.lock().expect("probe poisoned").push(EvalStamp {
            enter,
            exit,
            ok: e.resolved_outcome().is_ok(),
        });
        e
    }
}

impl BlackBox for EvalProbe<'_> {
    fn bounds(&self) -> &Bounds {
        self.inner.bounds()
    }

    fn name(&self) -> &str {
        self.inner.name()
    }

    fn evaluate(&self, x: &[f64]) -> Evaluation {
        self.stamp(|| self.inner.evaluate(x))
    }

    fn evaluate_attempt(&self, x: &[f64], ctx: AttemptContext) -> Evaluation {
        self.stamp(|| self.inner.evaluate_attempt(x, ctx))
    }
}

/// Seconds each idle worker waited for its next query: the gap from
/// one evaluation's return to the next evaluation's start, for every
/// evaluation after the first `n_init` (the initial design, which needs
/// no decision).
pub fn ask_gaps(stamps: &[EvalStamp], n_init: usize) -> Vec<f64> {
    (n_init.max(1)..stamps.len())
        .map(|i| {
            stamps[i]
                .enter
                .saturating_duration_since(stamps[i - 1].exit)
                .as_secs_f64()
        })
        .collect()
}

/// Seconds spent inside `evaluate` over all stamps.
pub fn eval_seconds(stamps: &[EvalStamp]) -> f64 {
    stamps
        .iter()
        .map(|s| s.exit.saturating_duration_since(s.enter).as_secs_f64())
        .sum()
}

/// Shared accumulator of time spent in policy decisions.
#[derive(Debug, Clone, Default)]
pub struct PolicyClock {
    inner: Arc<Mutex<(Duration, u64)>>,
}

impl PolicyClock {
    fn time<T>(&self, f: impl FnOnce() -> T) -> T {
        let t0 = Instant::now();
        let out = f();
        let dt = t0.elapsed();
        let mut g = self.inner.lock().expect("policy clock poisoned");
        g.0 += dt;
        g.1 += 1;
        out
    }

    /// Total seconds and number of timed decisions.
    pub fn read(&self) -> (f64, u64) {
        let g = self.inner.lock().expect("policy clock poisoned");
        (g.0.as_secs_f64(), g.1)
    }
}

/// Async policy wrapper timing `select_next`; state capture and
/// restore pass through untouched, so eviction and resume behave
/// exactly as with the bare policy.
pub struct TimedAsync<P> {
    /// The wrapped policy.
    pub inner: P,
    /// Where the time goes.
    pub clock: PolicyClock,
}

impl<P: AsyncPolicy> AsyncPolicy for TimedAsync<P> {
    fn select_next(&mut self, data: &Dataset, busy: &[BusyPoint]) -> Vec<f64> {
        let inner = &mut self.inner;
        self.clock.time(|| inner.select_next(data, busy))
    }

    fn snapshot_state(&self) -> Option<Vec<u8>> {
        self.inner.snapshot_state()
    }

    fn restore_state(&mut self, state: &[u8]) -> Result<(), String> {
        self.inner.restore_state(state)
    }
}

/// Sync-batch policy wrapper timing `select_batch`.
pub struct TimedSync {
    /// The wrapped policy.
    pub inner: Box<dyn SyncBatchPolicy + Send>,
    /// Where the time goes.
    pub clock: PolicyClock,
}

impl SyncBatchPolicy for TimedSync {
    fn select_batch(&mut self, data: &Dataset, batch_size: usize) -> Vec<Vec<f64>> {
        let inner = self.inner.as_mut();
        self.clock.time(|| inner.select_batch(data, batch_size))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use easybo_exec::{CostedFunction, SimTimeModel, VirtualExecutor};

    fn stamps_at(points: &[(u64, u64)]) -> Vec<EvalStamp> {
        let t = Instant::now();
        points
            .iter()
            .map(|&(a, b)| EvalStamp {
                enter: t + Duration::from_millis(a),
                exit: t + Duration::from_millis(b),
                ok: true,
            })
            .collect()
    }

    #[test]
    fn gaps_skip_the_initial_design() {
        // Three initial-design evaluations back to back, then two
        // policy decisions of 10 ms and 25 ms.
        let s = stamps_at(&[(0, 1), (1, 2), (2, 3), (13, 14), (39, 40)]);
        let g = ask_gaps(&s, 3);
        assert_eq!(g.len(), 2);
        assert!((g[0] - 0.010).abs() < 1e-9);
        assert!((g[1] - 0.025).abs() < 1e-9);
        assert!((eval_seconds(&s) - 0.005).abs() < 1e-9);
    }

    #[test]
    fn gaps_of_short_runs_are_empty() {
        assert!(ask_gaps(&stamps_at(&[(0, 1), (1, 2)]), 3).is_empty());
        assert!(ask_gaps(&[], 0).is_empty());
        // With no initial design the first evaluation has no gap.
        assert_eq!(ask_gaps(&stamps_at(&[(0, 1), (5, 6)]), 0).len(), 1);
    }

    /// A policy that proposes a fixed sweep, so the test needs no GP.
    struct Sweep(f64);

    impl AsyncPolicy for Sweep {
        fn select_next(&mut self, _d: &Dataset, _b: &[BusyPoint]) -> Vec<f64> {
            self.0 = (self.0 + 0.37).fract();
            vec![self.0]
        }
    }

    #[test]
    fn probe_sees_every_evaluation_and_policy_clock_every_decision() {
        let bounds = Bounds::unit_cube(1).unwrap();
        let time = SimTimeModel::new(&bounds, 10.0, 0.2, 1);
        let bb = CostedFunction::new("line", bounds, time, |x: &[f64]| x[0]);
        let probe = EvalProbe::new(&bb);
        let clock = PolicyClock::default();
        let mut policy = TimedAsync {
            inner: Sweep(0.0),
            clock: clock.clone(),
        };
        let init = vec![vec![0.1], vec![0.5], vec![0.9]];
        let r = VirtualExecutor::new(2).run_async(&probe, &init, 12, &mut policy);
        assert_eq!(r.data.len(), 12);
        assert_eq!(probe.stamps().len(), 12);
        assert_eq!(ask_gaps(&probe.stamps(), init.len()).len(), 9);
        assert_eq!(clock.read().1, 9, "one decision per non-initial query");
    }
}
