//! Multi-corner fan-out: one query, k simulations, worst-case aggregate.
//!
//! Real sign-off evaluates every candidate sizing at several
//! process/voltage/temperature corners and keeps the *worst* figure of
//! merit. [`FanOutBlackBox`] models exactly that on top of the existing
//! executor machinery: it looks like a single [`BlackBox`] to the
//! drivers (so retry, chaos injection, sessions and snapshots all apply
//! unchanged), but each evaluation attempt fans out to its member
//! black boxes — one per corner — and aggregates:
//!
//! * **value** — the minimum over corner values (worst case for
//!   maximization),
//! * **cost** — the maximum over corner costs (the corner jobs run in
//!   parallel on the simulation farm, so the attempt is as slow as its
//!   slowest corner),
//! * **outcome** — the first non-Ok corner fails the whole attempt,
//!   with a reason naming the corner, so a retry re-runs all corners
//!   under a fresh `(task, attempt)` fault draw.
//!
//! The [`AttemptContext`] is forwarded verbatim to every member, so a
//! per-corner [`FaultyBlackBox`](crate::FaultyBlackBox) wrapper (seeded
//! differently per corner) keeps chaos runs exactly reproducible.

use std::sync::atomic::{AtomicUsize, Ordering};

use easybo_opt::Bounds;

use crate::blackbox::{AttemptContext, BlackBox, EvalOutcome, Evaluation};

/// One query fanned out to k member black boxes with worst-case
/// aggregation. See the module docs for the aggregation rules.
pub struct FanOutBlackBox {
    name: String,
    bounds: Bounds,
    members: Vec<(String, Box<dyn BlackBox>)>,
    /// Fallback task counter for callers of plain `evaluate`.
    serial: AtomicUsize,
}

impl FanOutBlackBox {
    /// Creates an empty fan-out over `bounds`. Evaluating with no
    /// members is a failed attempt, never a silent success.
    pub fn new(name: impl Into<String>, bounds: Bounds) -> Self {
        FanOutBlackBox {
            name: name.into(),
            bounds,
            members: Vec::new(),
            serial: AtomicUsize::new(0),
        }
    }

    /// Adds a member (builder style). `label` names the corner in
    /// failure reasons; keep it free of `"` and `\` so telemetry JSONL
    /// round-trips. The member's bounds must match the fan-out's.
    pub fn with_member(mut self, label: impl Into<String>, member: Box<dyn BlackBox>) -> Self {
        assert_eq!(
            member.bounds().dim(),
            self.bounds.dim(),
            "fan-out member dimensionality mismatch"
        );
        self.members.push((label.into(), member));
        self
    }
}

impl BlackBox for FanOutBlackBox {
    fn bounds(&self) -> &Bounds {
        &self.bounds
    }

    fn name(&self) -> &str {
        &self.name
    }

    fn evaluate(&self, x: &[f64]) -> Evaluation {
        let task = self.serial.fetch_add(1, Ordering::Relaxed);
        self.evaluate_attempt(x, AttemptContext::first(task, 0))
    }

    fn evaluate_attempt(&self, x: &[f64], ctx: AttemptContext) -> Evaluation {
        if self.members.is_empty() {
            return Evaluation::failed("fan-out has no members", 0.0);
        }
        let mut worst = f64::INFINITY;
        let mut cost = 0.0f64;
        for (label, member) in &self.members {
            let e = member.evaluate_attempt(x, ctx);
            cost = cost.max(e.cost);
            match e.resolved_outcome() {
                EvalOutcome::Ok => worst = worst.min(e.value),
                EvalOutcome::NonFinite => {
                    // Propagate the member's non-finite value verbatim;
                    // the Ok outcome resolves to NonFinite downstream.
                    return Evaluation::ok(e.value, cost);
                }
                EvalOutcome::Failed { reason } => {
                    return Evaluation::failed(format!("corner {label}: {reason}"), cost);
                }
                EvalOutcome::TimedOut => {
                    return Evaluation::failed(format!("corner {label}: timeout"), cost);
                }
            }
        }
        Evaluation::ok(worst, cost)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::{FaultPlan, FaultyBlackBox};
    use crate::sim_time::SimTimeModel;
    use crate::CostedFunction;

    fn member(scale: f64, seed: u64) -> CostedFunction<impl Fn(&[f64]) -> f64 + Send + Sync> {
        let bounds = Bounds::unit_cube(1).unwrap();
        let time = SimTimeModel::new(&bounds, 10.0, 0.2, seed);
        CostedFunction::new("member", bounds, time, move |x: &[f64]| scale * x[0])
    }

    fn fan() -> FanOutBlackBox {
        FanOutBlackBox::new("fan", Bounds::unit_cube(1).unwrap())
            .with_member("tt", Box::new(member(1.0, 1)))
            .with_member("ss", Box::new(member(0.5, 2)))
            .with_member("ff", Box::new(member(2.0, 3)))
    }

    #[test]
    fn value_is_worst_case_and_cost_is_slowest_corner() {
        let fan = fan();
        let e = fan.evaluate_attempt(&[0.8], AttemptContext::first(0, 0));
        assert!(e.resolved_outcome().is_ok());
        // Worst case over {0.8, 0.4, 1.6} is the ss corner.
        assert_eq!(e.value, 0.4);
        let costs: Vec<f64> = [member(1.0, 1), member(0.5, 2), member(2.0, 3)]
            .iter()
            .map(|m| m.evaluate(&[0.8]).cost)
            .collect();
        assert_eq!(e.cost, costs.iter().cloned().fold(0.0, f64::max));
    }

    #[test]
    fn failing_corner_names_itself() {
        let plan = FaultPlan {
            seed: 5,
            fail_rate: 1.0,
            ..FaultPlan::default()
        };
        let fan = FanOutBlackBox::new("fan", Bounds::unit_cube(1).unwrap())
            .with_member("tt", Box::new(member(1.0, 1)))
            .with_member(
                "ss_85c",
                Box::new(FaultyBlackBox::new(member(0.5, 2), plan)),
            );
        let e = fan.evaluate_attempt(&[0.3], AttemptContext::first(0, 0));
        let reason = e.resolved_outcome().describe();
        assert!(reason.contains("ss_85c"), "{reason}");
        assert!(!e.resolved_outcome().is_ok());
    }

    #[test]
    fn retries_redraw_member_faults() {
        // A 50% per-corner fail rate must differ between attempts 1 and 2
        // for some task — the fan-out forwards (task, attempt) verbatim.
        let plan = FaultPlan {
            seed: 9,
            fail_rate: 0.5,
            ..FaultPlan::default()
        };
        let fan = FanOutBlackBox::new("fan", Bounds::unit_cube(1).unwrap())
            .with_member("tt", Box::new(FaultyBlackBox::new(member(1.0, 1), plan)));
        let differs = (0..40).any(|t| {
            let a = fan.evaluate_attempt(
                &[0.5],
                AttemptContext {
                    task: t,
                    attempt: 1,
                    worker: 0,
                    panics_caught: false,
                },
            );
            let b = fan.evaluate_attempt(
                &[0.5],
                AttemptContext {
                    task: t,
                    attempt: 2,
                    worker: 0,
                    panics_caught: false,
                },
            );
            a.resolved_outcome().is_ok() != b.resolved_outcome().is_ok()
        });
        assert!(differs, "attempt number must reach the members");
    }

    #[test]
    fn non_finite_corner_resolves_non_finite() {
        let bounds = Bounds::unit_cube(1).unwrap();
        let time = SimTimeModel::new(&bounds, 1.0, 0.0, 0);
        let bad = CostedFunction::new("bad", bounds.clone(), time, |_: &[f64]| f64::NAN);
        let fan = FanOutBlackBox::new("fan", bounds)
            .with_member("tt", Box::new(member(1.0, 1)))
            .with_member("nan", Box::new(bad));
        let e = fan.evaluate_attempt(&[0.5], AttemptContext::first(0, 0));
        assert_eq!(e.resolved_outcome(), EvalOutcome::NonFinite);
    }

    #[test]
    fn empty_fan_out_fails_loudly() {
        let fan = FanOutBlackBox::new("fan", Bounds::unit_cube(1).unwrap());
        let e = fan.evaluate(&[0.5]);
        assert!(!e.resolved_outcome().is_ok());
    }

    #[test]
    fn evaluation_is_deterministic() {
        let fan = fan();
        let a = fan.evaluate_attempt(&[0.25], AttemptContext::first(3, 1));
        let b = fan.evaluate_attempt(&[0.25], AttemptContext::first(3, 1));
        assert_eq!(a, b);
    }
}
