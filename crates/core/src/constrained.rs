//! Constrained EasyBO — the extension the paper defers to future work
//! (§II-A: "our proposed approach can also be easily extended to handle
//! constrained optimization problem").
//!
//! Design specifications in analog sizing are naturally constraints
//! ("phase margin ≥ 60°", "power ≤ 1mW"). We take the standard
//! probability-of-feasibility route (Gardner et al., 2014): each
//! constraint gets its own GP, and the EasyBO acquisition is multiplied by
//! `Π_j P(c_j(x) ≥ 0)` so infeasible regions are suppressed in proportion
//! to the model's confidence. The best *feasible* observation is tracked
//! as the incumbent.
//!
//! Constrained runs carry the full production surface of the plain
//! optimizer: black-box objectives with real evaluation costs
//! ([`EasyBo::run_constrained_blackbox`]), retry policies, telemetry
//! (`SpecViolated` / `FeasibleIncumbent` events plus the
//! `feasible_points` / `infeasible_points` counters behind
//! `RunReport::feasible_fraction`), and durable checkpoint/resume
//! ([`EasyBo::resume_constrained`]) through the versioned `CNST` policy
//! blob.

use std::path::Path;

use easybo_exec::{AsyncPolicy, BlackBox, BusyPoint, Dataset};
use easybo_gp::Gp;
use easybo_opt::{BatchObjective, Bounds};
use easybo_persist::PersistError;
use easybo_telemetry::{Event, Telemetry};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::acquisition::{self, PenalizedAcqInc};
use crate::persistence::Fingerprint;
use crate::policies::{AcqMaximizer, AcqOptConfig, PenalizationMode};
use crate::surrogate::{SurrogateConfig, SurrogateManager};
use crate::weight::{sample_kappa_weight, DEFAULT_LAMBDA};
use crate::{EasyBo, EasyBoError, OptimizationResult};

/// A borrowed objective or constraint function.
type ObjectiveFn<'a> = &'a (dyn Fn(&[f64]) -> f64 + Sync);

/// A constrained objective: maximize `objective` subject to
/// `constraint_j(x) ≥ 0` for every constraint.
pub struct ConstrainedProblem<'a> {
    objective: ObjectiveFn<'a>,
    constraints: Vec<ObjectiveFn<'a>>,
    names: Vec<String>,
}

impl<'a> ConstrainedProblem<'a> {
    /// Creates a problem from an objective closure.
    pub fn new(objective: &'a (dyn Fn(&[f64]) -> f64 + Sync)) -> Self {
        ConstrainedProblem {
            objective,
            constraints: Vec::new(),
            names: Vec::new(),
        }
    }

    /// Adds a constraint `c(x) ≥ 0` (builder style) under the default
    /// name `c{index}`.
    pub fn subject_to(self, constraint: &'a (dyn Fn(&[f64]) -> f64 + Sync)) -> Self {
        let name = format!("c{}", self.constraints.len());
        self.subject_to_named(name, constraint)
    }

    /// Adds a named design spec `c(x) ≥ 0` (builder style). The name is
    /// carried into `SpecViolated` telemetry events; `"` and `\` are
    /// replaced with `_` so the restricted JSONL encoding round-trips.
    pub fn subject_to_named(
        mut self,
        name: impl Into<String>,
        constraint: &'a (dyn Fn(&[f64]) -> f64 + Sync),
    ) -> Self {
        let name: String = name
            .into()
            .chars()
            .map(|c| if c == '"' || c == '\\' { '_' } else { c })
            .collect();
        self.constraints.push(constraint);
        self.names.push(name);
        self
    }

    /// Number of constraints.
    pub fn n_constraints(&self) -> usize {
        self.constraints.len()
    }

    /// Spec names, parallel to the constraints.
    pub fn spec_names(&self) -> &[String] {
        &self.names
    }

    /// Evaluates objective and all constraints at once.
    pub fn evaluate(&self, x: &[f64]) -> (f64, Vec<f64>) {
        (
            (self.objective)(x),
            self.constraints.iter().map(|c| c(x)).collect(),
        )
    }

    /// Whether `slacks` (constraint values) are all feasible.
    pub fn feasible(slacks: &[f64]) -> bool {
        slacks.iter().all(|&s| s >= 0.0)
    }
}

/// Asynchronous constrained-EasyBO policy: one surrogate for the objective
/// plus one per constraint; acquisition = EasyBO weighted acquisition ×
/// probability of feasibility.
///
/// Normally driven through [`EasyBo::run_constrained`]; public so external
/// session drivers (and the snapshot format tests) can build the exact
/// policy the internal entry points use.
pub struct ConstrainedPolicy<'a> {
    problem: &'a ConstrainedProblem<'a>,
    objective_surrogate: SurrogateManager,
    constraint_surrogates: Vec<SurrogateManager>,
    /// Raw constraint observations, parallel to the dataset.
    slacks: Vec<Vec<f64>>,
    maximizer: AcqMaximizer,
    rng: StdRng,
    lambda: f64,
    fallbacks: usize,
    /// Dataset prefix length already announced to telemetry — persisted
    /// so a resumed run does not re-emit spec events for old points.
    announced: u64,
    /// Feasible observations among the announced prefix.
    feasible: u64,
    /// Best feasible objective announced so far.
    best_feasible: Option<f64>,
    telemetry: Telemetry,
}

impl<'a> ConstrainedPolicy<'a> {
    /// Creates the constrained policy with the paper's λ = 6 and default
    /// surrogate/acquisition sizing.
    pub fn new(problem: &'a ConstrainedProblem<'a>, bounds: Bounds, seed: u64) -> Self {
        let dim = bounds.dim();
        Self::with_configs(
            problem,
            bounds,
            DEFAULT_LAMBDA,
            seed,
            SurrogateConfig::default(),
            AcqOptConfig::for_dim(dim),
        )
    }

    /// Full-configuration constructor — the construction every internal
    /// constrained entry point uses.
    pub fn with_configs(
        problem: &'a ConstrainedProblem<'a>,
        bounds: Bounds,
        lambda: f64,
        seed: u64,
        surrogate: SurrogateConfig,
        acq_opt: AcqOptConfig,
    ) -> Self {
        let dim = bounds.dim();
        let make = |k: u64| {
            SurrogateManager::new(
                bounds.clone(),
                SurrogateConfig {
                    seed: seed ^ k,
                    ..surrogate.clone()
                },
            )
        };
        ConstrainedPolicy {
            problem,
            objective_surrogate: make(0),
            constraint_surrogates: (0..problem.n_constraints())
                .map(|j| make(j as u64 + 1))
                .collect(),
            slacks: Vec::new(),
            maximizer: AcqMaximizer::new(dim, acq_opt),
            rng: StdRng::seed_from_u64(seed ^ 0xc025_0003),
            lambda,
            fallbacks: 0,
            announced: 0,
            feasible: 0,
            best_feasible: None,
            telemetry: Telemetry::disabled(),
        }
    }

    /// Attaches a telemetry handle: completed observations emit
    /// `SpecViolated` / `FeasibleIncumbent` events and bump the
    /// `feasible_points` / `infeasible_points` counters; GP retrainings
    /// emit `GpRefit` for the objective and every constraint surrogate.
    pub fn set_telemetry(&mut self, telemetry: Telemetry) -> &mut Self {
        self.objective_surrogate.set_telemetry(telemetry.clone());
        for sm in &mut self.constraint_surrogates {
            sm.set_telemetry(telemetry.clone());
        }
        self.telemetry = telemetry;
        self
    }

    /// Best feasible objective value observed so far (None until a point
    /// satisfies every spec).
    pub fn best_feasible(&self) -> Option<f64> {
        self.best_feasible
    }

    /// Catches the slack observations up with the dataset (the executor
    /// only reports objective values, so constraints are re-evaluated —
    /// cheap for analytical models; a production integration would carry
    /// them through the evaluation record). Newly seen points are
    /// announced to telemetry exactly once, resume included.
    fn sync_slacks(&mut self, data: &Dataset) {
        while self.slacks.len() < data.len() {
            let idx = self.slacks.len();
            let x = &data.xs()[idx];
            let (_, slack) = self.problem.evaluate(x);
            if idx as u64 >= self.announced {
                self.announce(idx, data.ys()[idx], &slack);
                self.announced = idx as u64 + 1;
            }
            self.slacks.push(slack);
        }
    }

    /// Telemetry for one newly completed observation.
    fn announce(&mut self, idx: usize, y: f64, slack: &[f64]) {
        if ConstrainedProblem::feasible(slack) {
            self.feasible += 1;
            self.telemetry.incr("feasible_points", 1);
            if self.best_feasible.is_none_or(|b| y > b) {
                self.best_feasible = Some(y);
                self.telemetry.emit(Event::FeasibleIncumbent {
                    task: idx,
                    value: y,
                });
            }
        } else {
            self.telemetry.incr("infeasible_points", 1);
            for (name, &s) in self.problem.spec_names().iter().zip(slack) {
                if s < 0.0 {
                    self.telemetry.emit(Event::SpecViolated {
                        task: idx,
                        spec: name.clone(),
                        slack: s,
                    });
                }
            }
        }
    }
}

/// Fits the constraint GPs on the current data; a constraint whose fit
/// fails is left out of the feasibility product.
fn constraint_gps<'s>(
    surrogates: &'s mut [SurrogateManager],
    slacks: &[Vec<f64>],
    data: &Dataset,
) -> Vec<&'s Gp> {
    surrogates
        .iter_mut()
        .enumerate()
        .filter_map(|(j, sm)| {
            let mut cdata = Dataset::new();
            for (x, s) in data.xs().iter().zip(slacks) {
                cdata.push(x.clone(), s[j]);
            }
            sm.surrogate(&cdata).ok()
        })
        .collect()
}

/// Probability that the constraint GP predicts `c(x) ≥ 0`.
fn feasibility_probability(gp: &Gp, u: &[f64]) -> f64 {
    let pred = gp.predict(u);
    let sigma = pred.std();
    if sigma < 1e-12 {
        return if pred.mean >= 0.0 { 1.0 } else { 0.0 };
    }
    acquisition::normal_cdf(pred.mean / sigma)
}

impl AsyncPolicy for ConstrainedPolicy<'_> {
    fn select_next(&mut self, data: &Dataset, busy: &[BusyPoint]) -> Vec<f64> {
        if data.is_empty() {
            return self
                .objective_surrogate
                .bounds()
                .sample_uniform(&mut self.rng);
        }
        self.sync_slacks(data);
        let busy_units: Vec<Vec<f64>> = busy
            .iter()
            .map(|bp| self.objective_surrogate.to_unit(&bp.x))
            .collect();
        let inc = match self.objective_surrogate.incremental(data) {
            Ok(inc) => inc,
            Err(_) => {
                self.fallbacks += 1;
                return self
                    .objective_surrogate
                    .bounds()
                    .sample_uniform(&mut self.rng);
            }
        };
        let cgps = constraint_gps(&mut self.constraint_surrogates, &self.slacks, data);
        let w = sample_kappa_weight(self.lambda, &mut self.rng);
        // Eq. 9 on the factor stack (the mean mode reads no lie values).
        let pushed = !busy_units.is_empty()
            && PenalizationMode::HallucinateMean
                .push_traced(inc, &busy_units, f64::NAN, f64::NAN, &self.telemetry)
                .is_ok();
        let penalized = PenalizedAcqInc { inc: &*inc, w };
        let cg = &cgps;
        let u = self.maximizer.maximize(&mut self.rng, move |p| {
            let base = if pushed {
                penalized.eval(p)
            } else {
                acquisition::weighted(penalized.inc.gp(), p, w)
            };
            // Multiply by the probability of joint feasibility (log-space
            // accumulation for numerical hygiene). The weighted acquisition
            // can be negative in standardized space; shift by a constant so
            // multiplication preserves ordering within this maximization.
            let mut log_pof = 0.0;
            for gp_c in cg {
                log_pof += feasibility_probability(gp_c, p).max(1e-12).ln();
            }
            base + log_pof
        });
        inc.pop_all_pseudo();
        self.objective_surrogate.from_unit(&u)
    }

    fn snapshot_state(&self) -> Option<Vec<u8>> {
        let constraints: Vec<_> = self
            .constraint_surrogates
            .iter()
            .map(|sm| sm.state())
            .collect();
        Some(crate::persistence::encode_constrained_state(
            self.rng.state(),
            self.fallbacks,
            self.announced,
            self.feasible,
            self.best_feasible,
            &self.objective_surrogate.state(),
            &constraints,
        ))
    }

    fn restore_state(&mut self, state: &[u8]) -> Result<(), String> {
        let blob =
            crate::persistence::decode_constrained_state(state).map_err(|e| e.to_string())?;
        if blob.constraints.len() != self.constraint_surrogates.len() {
            return Err(format!(
                "constrained policy blob carries {} constraint surrogates, \
                 this problem has {}",
                blob.constraints.len(),
                self.constraint_surrogates.len()
            ));
        }
        let infeasible = blob.announced.checked_sub(blob.feasible).ok_or_else(|| {
            format!(
                "constrained policy blob counts {} feasible of {} announced points",
                blob.feasible, blob.announced
            )
        })?;
        self.objective_surrogate
            .restore(blob.core.surrogate)
            .map_err(|e| e.to_string())?;
        for (sm, st) in self.constraint_surrogates.iter_mut().zip(blob.constraints) {
            sm.restore(st).map_err(|e| e.to_string())?;
        }
        self.rng = StdRng::from_state(blob.core.rng);
        self.fallbacks = blob.core.fallbacks;
        self.announced = blob.announced;
        self.feasible = blob.feasible;
        self.best_feasible = blob.best_feasible;
        // Slacks are re-derived from the restored dataset on the next
        // `sync_slacks`; `announced` keeps the replay silent.
        self.slacks.clear();
        // Re-seed the feasibility counters so `feasible_fraction` covers
        // the whole run, not just the post-resume tail.
        self.telemetry.incr("feasible_points", blob.feasible);
        self.telemetry.incr("infeasible_points", infeasible);
        Ok(())
    }
}

impl EasyBo {
    /// FNV-1a fingerprint for constrained snapshots: the plain
    /// configuration fingerprint extended with a `CNST` marker and the
    /// constraint count, so a constrained checkpoint can never resume as
    /// a plain run (or under a different spec set) and vice versa.
    pub(crate) fn constrained_fingerprint(&self, n_constraints: usize) -> u64 {
        let mut fp = Fingerprint::new();
        fp.push_u64(self.fingerprint());
        fp.push_u64(u64::from(u32::from_le_bytes(*b"CNST")));
        fp.push_usize(n_constraints);
        fp.finish()
    }

    /// The configured constrained policy as a standalone value — the
    /// same construction [`EasyBo::run_constrained`] uses internally.
    pub fn build_constrained_policy<'a>(
        &self,
        problem: &'a ConstrainedProblem<'a>,
    ) -> ConstrainedPolicy<'a> {
        let mut policy = ConstrainedPolicy::with_configs(
            problem,
            self.bounds().clone(),
            self.lambda_value(),
            self.seed_value(),
            self.surrogate_config_value().clone(),
            self.acq_config_value(),
        );
        policy.set_telemetry(self.telemetry_handle().clone());
        policy
    }

    /// Maximizes a [`ConstrainedProblem`] with probability-of-feasibility
    /// weighted EasyBO. Returns the best *feasible* design found.
    /// Evaluation cost is treated as mildly heterogeneous (the same
    /// seeded [`easybo_exec::SimTimeModel`] as [`EasyBo::run`]).
    ///
    /// # Errors
    ///
    /// * [`EasyBoError::BadBudget`] if `max_evals <= initial_points`.
    /// * [`EasyBoError::DegenerateObjective`] if no feasible point was ever
    ///   observed.
    pub fn run_constrained(
        &self,
        problem: &ConstrainedProblem<'_>,
    ) -> crate::Result<OptimizationResult> {
        use easybo_exec::{CostedFunction, SimTimeModel};
        self.validate()?;
        let bounds = self.bounds().clone();
        let time = SimTimeModel::new(&bounds, 1.0, 0.0, self.seed_value());
        let objective = |x: &[f64]| problem.evaluate(x).0;
        let bb = CostedFunction::new("constrained-objective", bounds, time, objective);
        self.run_constrained_blackbox(problem, &bb)
    }

    /// Maximizes a [`ConstrainedProblem`] whose objective values are
    /// produced by `bb` (costs, faults, and retries included) — `problem`
    /// supplies the spec slacks. The two must agree on the design they
    /// evaluate: `bb` reports the objective the executor records, and the
    /// policy re-evaluates `problem`'s constraints at the same points.
    /// Checkpointing ([`EasyBo::checkpoint_to`]) and fault injection
    /// ([`EasyBo::abort_after_evals`]) work exactly as on
    /// [`EasyBo::run_blackbox`].
    ///
    /// # Errors
    ///
    /// Same conditions as [`EasyBo::run_constrained`].
    pub fn run_constrained_blackbox(
        &self,
        problem: &ConstrainedProblem<'_>,
        bb: &dyn BlackBox,
    ) -> crate::Result<OptimizationResult> {
        use easybo_exec::VirtualExecutor;
        self.validate()?;
        let mut policy = self.build_constrained_policy(problem);
        let exec = VirtualExecutor::new(self.batch_size_value());
        let mut hook = self.hooks_active().then(|| {
            self.session_hook_with(None, self.constrained_fingerprint(problem.n_constraints()))
        });
        let result = exec.run_session_resilient(
            bb,
            &self.initial_design(),
            self.max_evals_value(),
            &mut policy,
            self.retry(),
            self.telemetry_handle(),
            hook.as_deref_mut(),
        )?;
        self.finish_constrained(result, &mut policy)
    }

    /// Resumes a constrained run from a snapshot written by a
    /// checkpointed [`EasyBo::run_constrained_blackbox`] under the *same
    /// configuration and spec set*. The restored run continues to its
    /// original budget with a best-so-far trace byte-identical to the
    /// uninterrupted run.
    ///
    /// # Errors
    ///
    /// * [`EasyBoError::Persist`] when the file is missing, corrupt, from
    ///   another format version, or was captured under a different
    ///   configuration/spec fingerprint (a plain-run snapshot is rejected
    ///   here, and a constrained snapshot is rejected by
    ///   [`EasyBo::resume_from`]).
    /// * The same conditions as [`EasyBo::run_constrained`] otherwise.
    pub fn resume_constrained(
        &self,
        path: impl AsRef<Path>,
        problem: &ConstrainedProblem<'_>,
        bb: &dyn BlackBox,
    ) -> crate::Result<OptimizationResult> {
        use easybo_exec::VirtualExecutor;
        self.validate()?;
        let fingerprint = self.constrained_fingerprint(problem.n_constraints());
        let (session, blob) = self.load_session_parts(path.as_ref(), fingerprint)?;
        let mut policy = self.build_constrained_policy(problem);
        if let Some(blob) = &blob {
            policy
                .restore_state(blob)
                .map_err(|e| EasyBoError::from(PersistError::decode(e)))?;
        }
        self.announce_resume(&session);
        let baseline = (session.completed(), session.clock());
        let mut hook = self.session_hook_with(Some(baseline), fingerprint);
        let result = VirtualExecutor::new(self.batch_size_value()).resume_session_resilient(
            bb,
            session,
            &mut policy,
            self.retry(),
            self.telemetry_handle(),
            Some(&mut *hook),
        )?;
        self.finish_constrained(result, &mut policy)
    }

    /// Shared epilogue: catch the slack record up with the final dataset
    /// (announcing any tail observations), scan for the best *feasible*
    /// design, and assemble the report.
    fn finish_constrained(
        &self,
        result: easybo_exec::RunResult,
        policy: &mut ConstrainedPolicy<'_>,
    ) -> crate::Result<OptimizationResult> {
        policy.sync_slacks(&result.data);
        // The incumbent must be feasible.
        let mut best: Option<(Vec<f64>, f64)> = None;
        for ((x, &y), s) in result
            .data
            .xs()
            .iter()
            .zip(result.data.ys())
            .zip(policy.slacks.iter())
        {
            if ConstrainedProblem::feasible(s) && best.as_ref().is_none_or(|(_, by)| y > *by) {
                best = Some((x.clone(), y));
            }
        }
        let (best_x, best_value) = best.ok_or(EasyBoError::DegenerateObjective)?;
        if !best_value.is_finite() {
            return Err(EasyBoError::DegenerateObjective);
        }
        let telemetry = self.telemetry_handle();
        telemetry.flush();
        let report = easybo_telemetry::RunReport::with_metrics(
            result.schedule.makespan(),
            result.schedule.workers(),
            result.schedule.utilization(),
            result.data.len(),
            telemetry.summary(),
            telemetry.metrics_snapshot().as_ref(),
        );
        Ok(OptimizationResult {
            best_x,
            best_value,
            data: result.data,
            trace: result.trace,
            schedule: result.schedule,
            report,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn problem_builder_and_evaluation() {
        let obj = |x: &[f64]| x[0] + x[1];
        let c1 = |x: &[f64]| 1.0 - x[0];
        let problem = ConstrainedProblem::new(&obj).subject_to(&c1);
        assert_eq!(problem.n_constraints(), 1);
        assert_eq!(problem.spec_names(), ["c0"]);
        let (v, s) = problem.evaluate(&[0.3, 0.4]);
        assert!((v - 0.7).abs() < 1e-12);
        assert!((s[0] - 0.7).abs() < 1e-12);
        assert!(ConstrainedProblem::feasible(&s));
        assert!(!ConstrainedProblem::feasible(&[-0.1]));
    }

    #[test]
    fn named_specs_are_sanitized_for_jsonl() {
        let obj = |x: &[f64]| x[0];
        let c = |x: &[f64]| x[0];
        let problem = ConstrainedProblem::new(&obj)
            .subject_to_named("pm_deg>=50", &c)
            .subject_to_named("bad\"name\\here", &c);
        assert_eq!(problem.spec_names(), ["pm_deg>=50", "bad_name_here"]);
    }

    #[test]
    fn constrained_optimum_respects_boundary() {
        // Maximize x+y on [0,2]² subject to x + y <= 1.5: the constrained
        // optimum sits on the line x+y = 1.5 (value 1.5), far below the
        // unconstrained corner (value 4).
        let bounds = Bounds::new(vec![(0.0, 2.0), (0.0, 2.0)]).unwrap();
        let obj = |x: &[f64]| x[0] + x[1];
        let c = |x: &[f64]| 1.5 - (x[0] + x[1]);
        let problem = ConstrainedProblem::new(&obj).subject_to(&c);
        let mut opt = EasyBo::new(bounds);
        opt.batch_size(3).initial_points(10).max_evals(45).seed(4);
        let r = opt.run_constrained(&problem).unwrap();
        let slack = 1.5 - (r.best_x[0] + r.best_x[1]);
        assert!(slack >= 0.0, "incumbent must be feasible: slack {slack}");
        assert!(
            r.best_value > 1.3,
            "should approach the constraint boundary: {}",
            r.best_value
        );
    }

    #[test]
    fn infeasible_everywhere_reports_degenerate() {
        let bounds = Bounds::unit_cube(1).unwrap();
        let obj = |x: &[f64]| x[0];
        let c = |_: &[f64]| -1.0; // never feasible
        let problem = ConstrainedProblem::new(&obj).subject_to(&c);
        let mut opt = EasyBo::new(bounds);
        opt.initial_points(4).max_evals(10).seed(1);
        assert!(matches!(
            opt.run_constrained(&problem),
            Err(EasyBoError::DegenerateObjective)
        ));
    }

    #[test]
    fn unconstrained_problem_matches_plain_run_shape() {
        let bounds = Bounds::new(vec![(-1.0, 1.0)]).unwrap();
        let obj = |x: &[f64]| -(x[0] - 0.4) * (x[0] - 0.4);
        let problem = ConstrainedProblem::new(&obj);
        let mut opt = EasyBo::new(bounds);
        opt.batch_size(2).initial_points(6).max_evals(25).seed(2);
        let r = opt.run_constrained(&problem).unwrap();
        assert!(r.best_value > -0.02, "best {}", r.best_value);
    }

    #[test]
    fn feasibility_telemetry_reaches_the_report() {
        let bounds = Bounds::new(vec![(0.0, 2.0), (0.0, 2.0)]).unwrap();
        let obj = |x: &[f64]| x[0] + x[1];
        let c = |x: &[f64]| 1.5 - (x[0] + x[1]);
        let problem = ConstrainedProblem::new(&obj).subject_to_named("sum<=1.5", &c);
        let (telemetry, recorder) = Telemetry::recording();
        let mut opt = EasyBo::new(bounds);
        opt.batch_size(3)
            .initial_points(10)
            .max_evals(30)
            .seed(4)
            .telemetry(telemetry);
        let r = opt.run_constrained(&problem).unwrap();
        let events = recorder.events();
        let violations = events
            .iter()
            .filter(|e| matches!(&e.event, Event::SpecViolated { spec, .. } if spec == "sum<=1.5"))
            .count();
        let incumbents: Vec<f64> = events
            .iter()
            .filter_map(|e| match &e.event {
                Event::FeasibleIncumbent { value, .. } => Some(*value),
                _ => None,
            })
            .collect();
        assert!(
            violations > 0,
            "a 2x2 box vs sum<=1.5 must violate somewhere"
        );
        assert!(
            !incumbents.is_empty(),
            "feasible incumbents must be announced"
        );
        // Incumbent values are strictly improving and end at the winner.
        for w in incumbents.windows(2) {
            assert!(w[1] > w[0], "incumbents not improving: {incumbents:?}");
        }
        assert_eq!(*incumbents.last().unwrap(), r.best_value);
        let frac = r.report.feasible_fraction.expect("counters were attached");
        assert!(frac > 0.0 && frac < 1.0, "feasible fraction {frac}");
    }

    #[test]
    fn constrained_policy_snapshot_restores_bitwise() {
        let obj = |x: &[f64]| -(x[0] - 0.4) * (x[0] - 0.4);
        let c = |x: &[f64]| 0.8 - x[0];
        let problem = ConstrainedProblem::new(&obj).subject_to(&c);
        let bounds = Bounds::new(vec![(0.0, 1.0)]).unwrap();
        let mut data = Dataset::new();
        for i in 0..9 {
            let x = i as f64 / 8.0;
            data.push(vec![x], -(x - 0.4) * (x - 0.4));
        }
        let mut policy = ConstrainedPolicy::new(&problem, bounds.clone(), 11);
        let _ = policy.select_next(&data, &[]); // advance RNG, fit all GPs
        let blob = policy.snapshot_state().expect("policy supports capture");

        let mut restored = ConstrainedPolicy::new(&problem, bounds, 999); // wrong seed on purpose
        restored.restore_state(&blob).unwrap();

        data.push(vec![0.55], -(0.55f64 - 0.4) * (0.55 - 0.4));
        let busy = vec![BusyPoint {
            x: vec![0.3],
            task: 9,
            worker: 1,
        }];
        for _ in 0..3 {
            let a = policy.select_next(&data, &busy);
            let b = restored.select_next(&data, &busy);
            assert_eq!(a.len(), b.len());
            for (va, vb) in a.iter().zip(&b) {
                assert_eq!(va.to_bits(), vb.to_bits());
            }
        }
    }

    #[test]
    fn constrained_restore_rejects_mismatched_spec_sets() {
        let obj = |x: &[f64]| x[0];
        let c = |x: &[f64]| x[0];
        let one = ConstrainedProblem::new(&obj).subject_to(&c);
        let two = ConstrainedProblem::new(&obj).subject_to(&c).subject_to(&c);
        let bounds = Bounds::new(vec![(0.0, 1.0)]).unwrap();
        let policy = ConstrainedPolicy::new(&one, bounds.clone(), 3);
        let blob = policy.snapshot_state().unwrap();
        let mut wrong = ConstrainedPolicy::new(&two, bounds.clone(), 3);
        let err = wrong.restore_state(&blob).unwrap_err();
        assert!(err.contains("constraint surrogates"), "{err}");
        // And garbage is rejected outright.
        let mut policy = ConstrainedPolicy::new(&one, bounds, 3);
        assert!(policy.restore_state(&[1, 2, 3]).is_err());
    }
}
