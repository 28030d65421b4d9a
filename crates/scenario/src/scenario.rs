//! A [`Scenario`] ties the three layers together: a [`CornerCircuit`]
//! workload, a linked [`ParamSpace`], a PVT [`Corner`] set, and a list
//! of [`Spec`]s — and drives constrained asynchronous EasyBO over the
//! *reduced* space with worst-case multi-corner aggregation.
//!
//! The executor sees one [`FanOutBlackBox`]: each proposed reduced
//! point is projected to the raw space, simulated once per corner, and
//! scored by its worst corner (value = min, cost = max — corner jobs
//! run concurrently on a real farm). Spec slacks take the same
//! worst-case over corners, so "feasible" means *feasible at every
//! corner*.

use std::path::Path;
use std::sync::Arc;

use easybo::{ConstrainedProblem, EasyBo, OptimizationResult};
use easybo_circuits::{Corner, CornerCircuit};
use easybo_exec::{CostedFunction, FanOutBlackBox, SimTimeModel};
use easybo_opt::Bounds;

use crate::params::ParamSpace;
use crate::spec::Spec;

/// Mean simulation seconds per corner job.
const SIM_SECONDS: f64 = 30.0;
/// Relative spread of simulation time across the design space.
const SIM_SPREAD: f64 = 0.25;
/// Seed for the per-corner simulation-time models.
const SIM_SEED: u64 = 0x5ce0;

/// A constrained, multi-corner sizing scenario over a reduced search
/// space. Build one with the builder methods (or pick one from
/// [`crate::zoo`]), then drive it with [`Scenario::run_with`].
pub struct Scenario {
    name: &'static str,
    circuit: Arc<dyn CornerCircuit>,
    space: ParamSpace,
    corners: Vec<Corner>,
    specs: Vec<Spec>,
}

impl Scenario {
    /// Creates a scenario over `circuit` searched through `space`, at
    /// the nominal corner and with no specs (add them builder-style).
    ///
    /// # Panics
    ///
    /// Panics if the space's raw dimension differs from the circuit's.
    pub fn new(
        name: &'static str,
        circuit: impl CornerCircuit + 'static,
        space: ParamSpace,
    ) -> Self {
        assert_eq!(
            space.raw_dim(),
            circuit.dim(),
            "parameter space raw dimension must match the circuit"
        );
        Scenario {
            name,
            circuit: Arc::new(circuit),
            space,
            corners: vec![Corner::nominal()],
            specs: Vec::new(),
        }
    }

    /// Replaces the corner set (builder style).
    ///
    /// # Panics
    ///
    /// Panics on an empty set.
    pub fn with_corners(mut self, corners: Vec<Corner>) -> Self {
        assert!(!corners.is_empty(), "a scenario needs at least one corner");
        self.corners = corners;
        self
    }

    /// Adds a design spec (builder style).
    pub fn with_spec(mut self, spec: Spec) -> Self {
        self.specs.push(spec);
        self
    }

    /// Scenario name.
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// The linked parameter space.
    pub fn space(&self) -> &ParamSpace {
        &self.space
    }

    /// The corner set, evaluation order.
    pub fn corners(&self) -> &[Corner] {
        &self.corners
    }

    /// The design specs.
    pub fn specs(&self) -> &[Spec] {
        &self.specs
    }

    /// The reduced search space the optimizer works in.
    pub fn reduced_bounds(&self) -> Bounds {
        self.space.reduced_bounds()
    }

    /// Worst-case (minimum) figure of merit over the corner set at a
    /// *reduced* point — the value the executor records.
    pub fn worst_fom(&self, reduced: &[f64]) -> f64 {
        let full = self.space.to_full(reduced);
        self.corners
            .iter()
            .map(|c| self.circuit.fom_at(&full, c))
            .fold(f64::INFINITY, f64::min)
    }

    /// Worst-case (minimum over corners) slack of spec `j` at a reduced
    /// point — feasible means feasible at *every* corner.
    pub fn spec_slack(&self, reduced: &[f64], j: usize) -> f64 {
        let full = self.space.to_full(reduced);
        let spec = &self.specs[j];
        self.corners
            .iter()
            .map(|c| spec.slack(&self.circuit.performances_at(&full, c)))
            .fold(f64::INFINITY, f64::min)
    }

    /// Worst-case slacks of every spec at a reduced point.
    pub fn spec_slacks(&self, reduced: &[f64]) -> Vec<f64> {
        (0..self.specs.len())
            .map(|j| self.spec_slack(reduced, j))
            .collect()
    }

    /// The multi-corner black box: one member per corner, each an
    /// independently seeded simulation-time model over the reduced
    /// bounds. Deterministic — rebuilding it (e.g. to resume a run)
    /// yields an identically behaving box.
    pub fn blackbox(&self) -> FanOutBlackBox {
        let bounds = self.reduced_bounds();
        let mut fan = FanOutBlackBox::new(self.name, bounds.clone());
        for (i, corner) in self.corners.iter().enumerate() {
            let time = SimTimeModel::new(
                &bounds,
                SIM_SECONDS,
                SIM_SPREAD,
                SIM_SEED ^ (i as u64 + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15),
            );
            let circuit = Arc::clone(&self.circuit);
            let space = self.space.clone();
            let corner = corner.clone();
            let label = corner.name;
            let member = CostedFunction::new(
                format!("{}@{}", self.name, label),
                bounds.clone(),
                time,
                move |reduced: &[f64]| circuit.fom_at(&space.to_full(reduced), &corner),
            );
            fan = fan.with_member(label, Box::new(member));
        }
        fan
    }

    /// A preconfigured optimizer over the reduced bounds — set budget,
    /// seed, checkpointing etc. on it, then pass it back to
    /// [`Scenario::run_with`].
    pub fn optimizer(&self) -> EasyBo {
        EasyBo::new(self.reduced_bounds())
    }

    /// Builds the scenario's [`ConstrainedProblem`] and hands it to
    /// `f` — the problem borrows per-call closures, so it cannot
    /// outlive this frame.
    fn with_problem<R>(&self, f: impl FnOnce(&ConstrainedProblem<'_>) -> R) -> R {
        let objective = |x: &[f64]| self.worst_fom(x);
        let slacks: Vec<_> = (0..self.specs.len())
            .map(|j| move |x: &[f64]| self.spec_slack(x, j))
            .collect();
        let mut problem = ConstrainedProblem::new(&objective);
        for (spec, c) in self.specs.iter().zip(&slacks) {
            problem = problem.subject_to_named(spec.name(), c);
        }
        f(&problem)
    }

    /// Runs constrained asynchronous EasyBO on this scenario. `opt`
    /// must have been built over [`Scenario::reduced_bounds`] (use
    /// [`Scenario::optimizer`]); budget, seed, telemetry, retry,
    /// checkpointing and parallelism are read from it.
    ///
    /// # Errors
    ///
    /// Same conditions as
    /// [`EasyBo::run_constrained_blackbox`].
    ///
    /// # Panics
    ///
    /// Panics if `opt` was configured over different bounds.
    pub fn run_with(&self, opt: &EasyBo) -> easybo::Result<ScenarioOutcome> {
        self.check_bounds(opt);
        let bb = self.blackbox();
        let result = self.with_problem(|problem| opt.run_constrained_blackbox(problem, &bb))?;
        Ok(self.outcome(result))
    }

    /// Resumes a checkpointed scenario run (see
    /// [`EasyBo::checkpoint_to`] and [`EasyBo::resume_constrained`]).
    ///
    /// # Errors
    ///
    /// Same conditions as [`EasyBo::resume_constrained`].
    ///
    /// # Panics
    ///
    /// Panics if `opt` was configured over different bounds.
    pub fn resume_with(
        &self,
        opt: &EasyBo,
        path: impl AsRef<Path>,
    ) -> easybo::Result<ScenarioOutcome> {
        self.check_bounds(opt);
        let bb = self.blackbox();
        let result =
            self.with_problem(|problem| opt.resume_constrained(path.as_ref(), problem, &bb))?;
        Ok(self.outcome(result))
    }

    fn check_bounds(&self, opt: &EasyBo) {
        assert_eq!(
            opt.bounds(),
            &self.reduced_bounds(),
            "optimizer bounds must be the scenario's reduced bounds \
             (build it with Scenario::optimizer)"
        );
    }

    /// Annotates the raw optimizer result with the projected raw design
    /// and its per-spec / per-corner breakdown.
    fn outcome(&self, result: OptimizationResult) -> ScenarioOutcome {
        let best_full = self.space.to_full(&result.best_x);
        let best_slacks = self.spec_slacks(&result.best_x);
        let corner_foms = self
            .corners
            .iter()
            .map(|c| (c.name, self.circuit.fom_at(&best_full, c)))
            .collect();
        ScenarioOutcome {
            result,
            best_full,
            best_slacks,
            corner_foms,
        }
    }
}

/// Outcome of a scenario run: the optimizer result (whose `best_x` and
/// `best_value` are the best *feasible* reduced design and its
/// worst-corner FOM) plus the scenario-level breakdown.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioOutcome {
    /// The underlying constrained optimization result (reduced space).
    pub result: OptimizationResult,
    /// The best feasible design projected to the raw parameter space.
    pub best_full: Vec<f64>,
    /// Worst-case slack of each spec at the incumbent (all `≥ 0`).
    pub best_slacks: Vec<f64>,
    /// Figure of merit of the incumbent at each corner, in corner
    /// order.
    pub corner_foms: Vec<(&'static str, f64)>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::Spec;
    use easybo_circuits::ldo::Ldo;

    fn tiny_ldo_scenario() -> Scenario {
        let space = ParamSpace::new(vec![
            ("w_pass", 500e-6, 10000e-6),
            ("l_pass", 0.18e-6, 0.5e-6),
            ("w_ea", 2e-6, 50e-6),
            ("l_ea", 0.2e-6, 2e-6),
            ("i_ea", 2e-6, 100e-6),
            ("c_out", 0.1e-6, 10e-6),
            ("r_esr", 1e-3, 1.0),
            ("r_div", 10e3, 1e6),
        ]);
        Scenario::new("tiny-ldo", Ldo::new(), space)
            .with_corners(Corner::pvt_set())
            .with_spec(Spec::at_least("pm_deg", 50.0))
    }

    #[test]
    fn worst_case_aggregation_is_min_over_corners() {
        let s = tiny_ldo_scenario();
        let ldo = Ldo::new();
        let r = s.reduced_bounds().center();
        let per_corner: Vec<f64> = Corner::pvt_set()
            .iter()
            .map(|c| ldo.fom_at(&r, c))
            .collect();
        let expected = per_corner.iter().cloned().fold(f64::INFINITY, f64::min);
        assert_eq!(s.worst_fom(&r), expected);
        // The black box agrees with the analytical worst case.
        use easybo_exec::BlackBox as _;
        let e = s.blackbox().evaluate(&r);
        assert_eq!(e.value, expected);
    }

    #[test]
    fn spec_slacks_take_the_worst_corner() {
        let s = tiny_ldo_scenario();
        let ldo = Ldo::new();
        let r = s.reduced_bounds().center();
        let worst_pm = Corner::pvt_set()
            .iter()
            .map(|c| ldo.performances_at(&r, c).get("pm_deg").unwrap())
            .fold(f64::INFINITY, f64::min);
        assert_eq!(s.spec_slack(&r, 0), worst_pm - 50.0);
        assert_eq!(s.spec_slacks(&r), vec![worst_pm - 50.0]);
    }

    #[test]
    fn blackbox_is_deterministic_and_labelled() {
        use easybo_exec::BlackBox as _;
        let s = tiny_ldo_scenario();
        let bb1 = s.blackbox();
        let bb2 = s.blackbox();
        let x = s.reduced_bounds().center();
        assert_eq!(bb1.evaluate(&x), bb2.evaluate(&x));
    }

    #[test]
    #[should_panic(expected = "reduced bounds")]
    fn mismatched_optimizer_bounds_are_rejected() {
        let s = tiny_ldo_scenario();
        let opt = EasyBo::new(Bounds::unit_cube(3).unwrap());
        let _ = s.run_with(&opt);
    }

    #[test]
    #[should_panic(expected = "raw dimension")]
    fn wrong_space_dimension_is_rejected() {
        let space = ParamSpace::new(vec![("x", 0.0, 1.0)]);
        let _ = Scenario::new("bad", Ldo::new(), space);
    }
}
