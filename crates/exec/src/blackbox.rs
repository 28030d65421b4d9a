use easybo_opt::Bounds;

use crate::sim_time::SimTimeModel;

/// How one black-box evaluation attempt ended.
///
/// Real simulator jobs do not just succeed: they crash, refuse to
/// converge (returning NaN/Inf figures of merit), and hang. Making the
/// outcome explicit lets the executors retry, drop, or penalize failed
/// attempts instead of silently feeding garbage to the surrogate.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EvalOutcome {
    /// The simulation completed and produced a usable value.
    Ok,
    /// The simulation failed outright (crash, non-convergence, license
    /// loss, ...). `reason` is a short label; keep it free of `"` and
    /// `\` so the telemetry JSONL encoding round-trips.
    Failed {
        /// Short failure label.
        reason: String,
    },
    /// The simulation "completed" but the figure of merit is NaN/±Inf.
    NonFinite,
    /// The evaluation exceeded its deadline and was abandoned.
    TimedOut,
}

impl EvalOutcome {
    /// Whether this outcome is a usable observation.
    pub fn is_ok(&self) -> bool {
        matches!(self, EvalOutcome::Ok)
    }

    /// Short human-readable label for events and reports.
    pub fn describe(&self) -> String {
        match self {
            EvalOutcome::Ok => "ok".to_string(),
            EvalOutcome::Failed { reason } => reason.clone(),
            EvalOutcome::NonFinite => "non-finite".to_string(),
            EvalOutcome::TimedOut => "timeout".to_string(),
        }
    }
}

/// The outcome of one black-box evaluation: the observed objective value,
/// the (virtual) seconds of simulator time it consumed, and how the
/// attempt ended.
#[derive(Debug, Clone, PartialEq)]
pub struct Evaluation {
    /// Observed objective value (maximization). Meaningless unless the
    /// resolved outcome is [`EvalOutcome::Ok`].
    pub value: f64,
    /// Simulation cost in seconds.
    pub cost: f64,
    /// How the attempt ended.
    pub outcome: EvalOutcome,
}

impl Evaluation {
    /// A successful evaluation.
    pub fn ok(value: f64, cost: f64) -> Self {
        Evaluation {
            value,
            cost,
            outcome: EvalOutcome::Ok,
        }
    }

    /// A failed evaluation; the value is recorded as NaN.
    pub fn failed(reason: impl Into<String>, cost: f64) -> Self {
        Evaluation {
            value: f64::NAN,
            cost,
            outcome: EvalOutcome::Failed {
                reason: reason.into(),
            },
        }
    }

    /// The outcome with the non-finite check folded in: an evaluation
    /// claiming [`EvalOutcome::Ok`] but carrying a NaN/±Inf value
    /// resolves to [`EvalOutcome::NonFinite`]. Black boxes that never
    /// think about failure (every pre-existing one) thus still get
    /// their non-convergent values classified correctly.
    pub fn resolved_outcome(&self) -> EvalOutcome {
        match &self.outcome {
            EvalOutcome::Ok if !self.value.is_finite() => EvalOutcome::NonFinite,
            other => other.clone(),
        }
    }
}

/// Context handed to [`BlackBox::evaluate_attempt`]: which task/attempt
/// this call serves and on which worker it runs. Fault-injection
/// wrappers key their deterministic fault draws on `(task, attempt)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AttemptContext {
    /// Executor-wide task id (issue order).
    pub task: usize,
    /// 1-based attempt number for this task.
    pub attempt: usize,
    /// Worker running the attempt.
    pub worker: usize,
    /// Whether the calling executor catches panics from this call. When
    /// `false` (the virtual executor), wrappers that would panic to
    /// simulate a worker death must return a failed evaluation instead.
    pub panics_caught: bool,
}

impl AttemptContext {
    /// First attempt of `task` on `worker`, panics not caught.
    pub fn first(task: usize, worker: usize) -> Self {
        AttemptContext {
            task,
            attempt: 1,
            worker,
            panics_caught: false,
        }
    }
}

/// An expensive black-box objective: the only interface the optimizers see,
/// mirroring how the paper's algorithms see HSPICE.
pub trait BlackBox: Send + Sync {
    /// The design space.
    fn bounds(&self) -> &Bounds;

    /// Human-readable name for reports.
    fn name(&self) -> &str {
        "black-box"
    }

    /// Evaluates the objective at `x`, reporting value and simulation cost.
    fn evaluate(&self, x: &[f64]) -> Evaluation;

    /// Evaluates one attempt of a task with scheduling context. The
    /// default ignores the context, so plain objectives need only
    /// implement [`BlackBox::evaluate`]; fault-injection wrappers
    /// override this to key faults on `(task, attempt)`.
    fn evaluate_attempt(&self, x: &[f64], _ctx: AttemptContext) -> Evaluation {
        self.evaluate(x)
    }
}

/// Adapts a plain `Fn(&[f64]) -> f64` objective plus a [`SimTimeModel`]
/// into a [`BlackBox`].
///
/// # Example
///
/// ```
/// use easybo_exec::{BlackBox, CostedFunction, SimTimeModel};
/// use easybo_opt::Bounds;
///
/// # fn main() -> Result<(), easybo_opt::OptError> {
/// let bounds = Bounds::unit_cube(2)?;
/// let time = SimTimeModel::new(&bounds, 40.0, 0.17, 7);
/// let bb = CostedFunction::new("sphere", bounds, time, |x: &[f64]| {
///     -(x[0] * x[0] + x[1] * x[1])
/// });
/// let e = bb.evaluate(&[0.3, 0.4]);
/// assert_eq!(e.value, -0.25);
/// assert!(e.cost > 0.0);
/// # Ok(())
/// # }
/// ```
pub struct CostedFunction<F> {
    name: String,
    bounds: Bounds,
    time: SimTimeModel,
    f: F,
}

impl<F: Fn(&[f64]) -> f64 + Send + Sync> CostedFunction<F> {
    /// Wraps `f` with the given bounds and cost model.
    pub fn new(name: impl Into<String>, bounds: Bounds, time: SimTimeModel, f: F) -> Self {
        CostedFunction {
            name: name.into(),
            bounds,
            time,
            f,
        }
    }
}

impl<F: Fn(&[f64]) -> f64 + Send + Sync> BlackBox for CostedFunction<F> {
    fn bounds(&self) -> &Bounds {
        &self.bounds
    }

    fn name(&self) -> &str {
        &self.name
    }

    fn evaluate(&self, x: &[f64]) -> Evaluation {
        Evaluation::ok((self.f)(x), self.time.cost(x))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn costed_function_reports_name_and_bounds() {
        let bounds = Bounds::unit_cube(1).unwrap();
        let time = SimTimeModel::new(&bounds, 10.0, 0.1, 1);
        let bb = CostedFunction::new("toy", bounds.clone(), time, |x: &[f64]| x[0]);
        assert_eq!(bb.name(), "toy");
        assert_eq!(bb.bounds(), &bounds);
        let e = bb.evaluate(&[0.5]);
        assert_eq!(e.value, 0.5);
        assert!(e.cost > 5.0 && e.cost < 15.0);
    }

    #[test]
    fn evaluation_is_deterministic() {
        let bounds = Bounds::unit_cube(3).unwrap();
        let time = SimTimeModel::new(&bounds, 30.0, 0.2, 9);
        let bb = CostedFunction::new("det", bounds, time, |x: &[f64]| x.iter().sum());
        let a = bb.evaluate(&[0.1, 0.2, 0.3]);
        let b = bb.evaluate(&[0.1, 0.2, 0.3]);
        assert_eq!(a, b);
    }

    #[test]
    fn ok_outcome_with_non_finite_value_resolves_to_non_finite() {
        let e = Evaluation::ok(f64::NAN, 1.0);
        assert_eq!(e.outcome, EvalOutcome::Ok);
        assert_eq!(e.resolved_outcome(), EvalOutcome::NonFinite);
        let e = Evaluation::ok(f64::INFINITY, 1.0);
        assert_eq!(e.resolved_outcome(), EvalOutcome::NonFinite);
        let e = Evaluation::ok(2.0, 1.0);
        assert_eq!(e.resolved_outcome(), EvalOutcome::Ok);
    }

    #[test]
    fn failed_constructor_carries_reason_and_nan_value() {
        let e = Evaluation::failed("no convergence", 3.0);
        assert!(e.value.is_nan());
        assert_eq!(e.cost, 3.0);
        assert!(!e.resolved_outcome().is_ok());
        assert_eq!(e.resolved_outcome().describe(), "no convergence");
    }

    #[test]
    fn default_evaluate_attempt_delegates_to_evaluate() {
        let bounds = Bounds::unit_cube(1).unwrap();
        let time = SimTimeModel::new(&bounds, 10.0, 0.1, 1);
        let bb = CostedFunction::new("toy", bounds, time, |x: &[f64]| x[0]);
        let a = bb.evaluate(&[0.5]);
        let b = bb.evaluate_attempt(&[0.5], AttemptContext::first(7, 2));
        assert_eq!(a, b);
    }

    #[test]
    fn blackbox_is_object_safe() {
        let bounds = Bounds::unit_cube(1).unwrap();
        let time = SimTimeModel::new(&bounds, 1.0, 0.0, 0);
        let bb = CostedFunction::new("obj", bounds, time, |x: &[f64]| x[0]);
        let dyn_bb: &dyn BlackBox = &bb;
        assert_eq!(dyn_bb.evaluate(&[1.0]).value, 1.0);
    }
}
