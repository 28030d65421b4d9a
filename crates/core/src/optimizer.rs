//! The high-level EasyBO optimizer API for end users.

use std::path::{Path, PathBuf};

use easybo_exec::{
    AsyncPolicy, BlackBox, CostedFunction, Dataset, HookAction, InvalidSessionParts, RetryPolicy,
    RunResult, RunTrace, Schedule, SessionState, SimTimeModel, ThreadedExecutor, VirtualExecutor,
};
use easybo_opt::{sampling, Bounds, Parallelism};
use easybo_persist::{load_snapshot, PersistError, RunSnapshot};
use easybo_telemetry::{Event, RunReport, Telemetry};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::persistence::{kernel_tag, Fingerprint};
use crate::policies::{AcqOptConfig, EasyBoAsyncPolicy};
use crate::surrogate::SurrogateConfig;
use crate::weight::DEFAULT_LAMBDA;
use crate::EasyBoError;

/// Outcome of an [`EasyBo`] optimization run.
#[derive(Debug, Clone, PartialEq)]
pub struct OptimizationResult {
    /// Best design found.
    pub best_x: Vec<f64>,
    /// Objective value at `best_x`.
    pub best_value: f64,
    /// All evaluations in completion order.
    pub data: Dataset,
    /// Best-so-far timeline (virtual seconds for [`EasyBo::run`] /
    /// [`EasyBo::run_blackbox`], real seconds for [`EasyBo::run_threaded`]).
    pub trace: RunTrace,
    /// Worker occupancy record.
    pub schedule: Schedule,
    /// Where the run's time went: utilization/idle split from the
    /// schedule, plus GP-fit and acquisition overhead shares when the run
    /// had telemetry attached (see [`EasyBo::telemetry`]).
    pub report: RunReport,
}

/// The EasyBO optimizer: asynchronous batch Bayesian optimization with
/// randomized exploration weights and busy-point penalization (the paper's
/// Algorithm 1), wrapped in a builder.
///
/// # Example
///
/// ```
/// use easybo::EasyBo;
/// use easybo_opt::Bounds;
///
/// # fn main() -> Result<(), easybo::EasyBoError> {
/// let bounds = Bounds::new(vec![(0.0, 1.0); 3])?;
/// let result = EasyBo::new(bounds)
///     .batch_size(4)
///     .initial_points(12)
///     .max_evals(40)
///     .seed(1)
///     .run(|x| -(x[0] - 0.2).powi(2) - (x[1] - 0.7).powi(2) - x[2])?;
/// assert!(result.best_value > -0.2);
/// assert_eq!(result.data.len(), 40);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct EasyBo {
    bounds: Bounds,
    batch_size: usize,
    max_evals: usize,
    initial_points: usize,
    seed: u64,
    surrogate: SurrogateConfig,
    acq_opt: AcqOptConfig,
    telemetry: Telemetry,
    retry: RetryPolicy,
    checkpoint_path: Option<PathBuf>,
    checkpoint_every_evals: Option<usize>,
    abort_after: Option<usize>,
}

impl EasyBo {
    /// Creates an optimizer over `bounds` with the paper's defaults:
    /// batch size 5, 20 initial points, 100 total evaluations, λ = 6,
    /// penalization on.
    pub fn new(bounds: Bounds) -> Self {
        let dim = bounds.dim();
        EasyBo {
            bounds,
            batch_size: 5,
            max_evals: 100,
            initial_points: 20,
            seed: 0,
            surrogate: SurrogateConfig::default(),
            acq_opt: AcqOptConfig::for_dim(dim),
            telemetry: Telemetry::disabled(),
            retry: RetryPolicy::none(),
            checkpoint_path: None,
            checkpoint_every_evals: None,
            abort_after: None,
        }
    }

    /// Attaches a telemetry handle to the run: the executor, policy, and
    /// GP training all emit structured events and metrics through it, and
    /// the returned [`OptimizationResult::report`] gains the model-
    /// overhead breakdown. Default: disabled (zero overhead).
    pub fn telemetry(&mut self, telemetry: Telemetry) -> &mut Self {
        self.telemetry = telemetry;
        self
    }

    /// Number of parallel workers (batch size B). Default 5.
    pub fn batch_size(&mut self, b: usize) -> &mut Self {
        self.batch_size = b.max(1);
        self
    }

    /// Total evaluation budget, including the initial design. Default 100.
    pub fn max_evals(&mut self, n: usize) -> &mut Self {
        self.max_evals = n;
        self
    }

    /// Size of the Latin-hypercube initial design. Default 20.
    pub fn initial_points(&mut self, n: usize) -> &mut Self {
        self.initial_points = n.max(2);
        self
    }

    /// RNG seed controlling the initial design and all stochastic
    /// selection. Default 0.
    pub fn seed(&mut self, seed: u64) -> &mut Self {
        self.seed = seed;
        self
    }

    /// Overrides the surrogate configuration.
    pub fn surrogate_config(&mut self, config: SurrogateConfig) -> &mut Self {
        self.surrogate = config;
        self
    }

    /// Failure handling for black-box evaluations: how often to retry a
    /// crashed/non-finite/timed-out attempt, with what backoff, and what
    /// to do when attempts run out (see [`RetryPolicy`]). The default,
    /// [`RetryPolicy::none`], records every raw value exactly as before
    /// — runs with well-behaved objectives are bit-identical whether or
    /// not this is set. A common robust choice is
    /// `RetryPolicy::default()` (3 attempts, exponential backoff, failed
    /// tasks dropped so non-finite values never reach the GP).
    pub fn retry_policy(&mut self, retry: RetryPolicy) -> &mut Self {
        self.retry = retry;
        self
    }

    /// Worker-thread budget for GP hyperparameter training and acquisition
    /// maximization. Default: available cores; `1` restores the fully
    /// sequential legacy path. Results are bit-identical at any setting —
    /// only wall-clock time changes.
    pub fn parallelism(&mut self, parallelism: impl Into<Parallelism>) -> &mut Self {
        let p = parallelism.into();
        self.surrogate.parallelism = p;
        self.acq_opt.parallelism = p;
        self
    }

    /// Enables durable checkpointing: versioned, checksummed snapshots of
    /// the complete run state (dataset, best-so-far trace, committed
    /// schedule, in-flight attempts, retry backoffs, run clock, RNG
    /// stream, GP hyperparameters and scalers) are atomically written to
    /// `path` as the run progresses. A run killed at any point resumes
    /// from its last snapshot via [`EasyBo::resume_from`] and — on the
    /// virtual executor — finishes with a trace byte-identical to the
    /// uninterrupted run.
    ///
    /// Default cadence: after every completed evaluation; tune with
    /// [`EasyBo::checkpoint_every`].
    pub fn checkpoint_to(&mut self, path: impl Into<PathBuf>) -> &mut Self {
        self.checkpoint_path = Some(path.into());
        self
    }

    /// Checkpoints after every `k` completed evaluations (requires
    /// [`EasyBo::checkpoint_to`]). Default 1.
    pub fn checkpoint_every(&mut self, k: usize) -> &mut Self {
        self.checkpoint_every_evals = Some(k.max(1));
        self
    }

    /// Fault injection for chaos tests and the kill-and-resume recipe:
    /// aborts the run with an executor failure once `n` evaluations have
    /// completed, as if the coordinator process had been killed. The
    /// checkpoint file written before the abort is a valid resume point.
    pub fn abort_after_evals(&mut self, n: usize) -> &mut Self {
        self.abort_after = Some(n);
        self
    }

    pub(crate) fn validate(&self) -> crate::Result<()> {
        if self.max_evals == 0 || self.max_evals <= self.initial_points {
            return Err(EasyBoError::BadBudget {
                max_evals: self.max_evals,
                initial_points: self.initial_points,
            });
        }
        Ok(())
    }

    /// The configured design space.
    pub fn bounds(&self) -> &Bounds {
        &self.bounds
    }

    pub(crate) fn seed_value(&self) -> u64 {
        self.seed
    }

    pub(crate) fn telemetry_handle(&self) -> &Telemetry {
        &self.telemetry
    }

    pub(crate) fn surrogate_config_value(&self) -> &SurrogateConfig {
        &self.surrogate
    }

    pub(crate) fn acq_config_value(&self) -> AcqOptConfig {
        self.acq_opt
    }

    /// The configured asynchronous policy as a standalone value — the
    /// same construction every internal entry point uses. External
    /// callers of the executors' `run` (the network session manager,
    /// custom executors) build their policy here so its decision stream
    /// matches an in-process [`EasyBo::run`] bit for bit.
    pub fn build_async_policy(&self) -> EasyBoAsyncPolicy {
        self.build_policy()
    }

    /// The seeded initial design exactly as the internal entry points
    /// draw it — external drivers pass this to their session setup so
    /// the first `initial_points` queries agree with an in-process run.
    pub fn initial_design_points(&self) -> Vec<Vec<f64>> {
        self.initial_design()
    }

    /// The configuration fingerprint stamped into snapshots and checked
    /// on resume (see [`EasyBo::resume`]); external checkpoint writers
    /// stamp the same value so their snapshots interoperate.
    pub fn config_fingerprint(&self) -> u64 {
        self.fingerprint()
    }

    /// The retry policy in force (see [`EasyBo::retry_policy`]).
    pub fn retry(&self) -> &RetryPolicy {
        &self.retry
    }

    fn build_policy(&self) -> EasyBoAsyncPolicy {
        let mut policy = EasyBoAsyncPolicy::with_configs(
            self.bounds.clone(),
            true,
            DEFAULT_LAMBDA,
            self.seed,
            self.surrogate.clone(),
            self.acq_opt,
        );
        policy.set_telemetry(self.telemetry.clone());
        policy
    }

    pub(crate) fn initial_design(&self) -> Vec<Vec<f64>> {
        let mut rng = StdRng::seed_from_u64(self.seed.wrapping_mul(0x9e37_79b9));
        sampling::latin_hypercube(&self.bounds, self.initial_points, &mut rng)
    }

    /// FNV-1a fingerprint of every setting that shapes the optimization
    /// trajectory. Stamped into each snapshot and checked on resume, so
    /// a checkpoint cannot silently continue under different bounds,
    /// seeds, budgets, or policy settings. Thread-count knobs
    /// ([`EasyBo::parallelism`]) are deliberately excluded: results are
    /// bit-identical at any setting, so resuming on different hardware is
    /// allowed.
    pub(crate) fn fingerprint(&self) -> u64 {
        use easybo_exec::FailureAction;
        let mut fp = Fingerprint::new();
        fp.push_usize(self.bounds.dim());
        for &(lo, hi) in self.bounds.pairs() {
            fp.push_f64(lo);
            fp.push_f64(hi);
        }
        fp.push_u64(self.seed);
        fp.push_usize(self.batch_size);
        fp.push_usize(self.max_evals);
        fp.push_usize(self.initial_points);
        // The κ range and the penalization switch are fixed; pushing their
        // values keeps the fingerprints of existing snapshots valid.
        fp.push_f64(DEFAULT_LAMBDA);
        fp.push_bool(true);
        fp.push_u64(u64::from(kernel_tag(self.surrogate.kernel)));
        fp.push_f64(self.surrogate.retrain_growth);
        fp.push_usize(self.surrogate.first_restarts);
        fp.push_usize(self.surrogate.train_iters);
        fp.push_usize(self.surrogate.train_max_points);
        fp.push_usize(self.surrogate.max_gp_points);
        fp.push_u64(self.surrogate.seed);
        fp.push_usize(self.acq_opt.probes);
        fp.push_usize(self.acq_opt.starts);
        fp.push_usize(self.acq_opt.refine_evals);
        fp.push_usize(self.retry.max_attempts);
        fp.push_f64(self.retry.backoff_base);
        fp.push_f64(self.retry.backoff_factor);
        match self.retry.timeout {
            Some(t) => {
                fp.push_bool(true);
                fp.push_f64(t);
            }
            None => fp.push_bool(false),
        }
        match self.retry.on_exhausted {
            FailureAction::Record => fp.push_u64(0),
            FailureAction::Drop => fp.push_u64(1),
            FailureAction::Penalty(p) => {
                fp.push_u64(2);
                fp.push_f64(p);
            }
        }
        fp.finish()
    }

    /// Builds the per-run session hook: writes a snapshot (and emits
    /// `CheckpointWritten`) every `checkpoint_every` observations
    /// counted from `completed`, then applies the `abort_after_evals`
    /// fault injection. Pure observer of the session — it never perturbs
    /// the optimization trajectory. `fingerprint` is what snapshots are
    /// stamped with.
    #[allow(clippy::type_complexity)]
    fn session_hook(
        &self,
        mut completed_at_last: usize,
        fingerprint: u64,
    ) -> Box<dyn FnMut(&SessionState, &dyn AsyncPolicy, f64) -> HookAction> {
        let every = self.checkpoint_every_evals.unwrap_or(1);
        let path = self.checkpoint_path.clone();
        let telemetry = self.telemetry.clone();
        let abort_after = self.abort_after;
        Box::new(
            move |session: &SessionState, policy: &dyn AsyncPolicy, now: f64| {
                let completed = session.completed();
                if let Some(path) = &path {
                    if completed >= completed_at_last + every {
                        completed_at_last = completed;
                        telemetry.set_now(now);
                        let _ckpt_span = telemetry.span("checkpoint");
                        let snap = RunSnapshot {
                            config_fingerprint: fingerprint,
                            session: session.to_parts(),
                            policy: policy.snapshot_state(),
                        };
                        let t0 = std::time::Instant::now();
                        let bytes = {
                            let _span = telemetry.span("snapshot_encode");
                            easybo_persist::encode_snapshot(&snap)
                        };
                        telemetry.observe("snapshot_encode_ns", t0.elapsed().as_nanos() as f64);
                        let t1 = std::time::Instant::now();
                        let written = {
                            let _span = telemetry.span("snapshot_fsync");
                            easybo_persist::write_snapshot_bytes(path, &bytes)
                        };
                        telemetry.observe("snapshot_fsync_ns", t1.elapsed().as_nanos() as f64);
                        match written {
                            Ok(()) => {
                                telemetry.incr("checkpoints_written", 1);
                                telemetry.emit_at(
                                    now,
                                    Event::CheckpointWritten {
                                        completed,
                                        bytes: bytes.len(),
                                    },
                                );
                            }
                            Err(e) => {
                                // Checkpointing was explicitly requested;
                                // failing loudly beats silently losing
                                // durability for the rest of the run.
                                return HookAction::Stop {
                                    reason: format!("checkpoint write failed: {e}"),
                                };
                            }
                        }
                    }
                }
                if let Some(n) = abort_after {
                    if completed >= n {
                        return HookAction::Stop {
                            reason: format!(
                                "aborted after {completed} completed evaluations \
                                 (abort_after_evals({n}))"
                            ),
                        };
                    }
                }
                HookAction::Continue
            },
        )
    }

    /// The one path behind every run and resume entry point. Starts
    /// from a new session, or from the snapshot at `resume_from`: its
    /// fingerprint is checked against `fingerprint`, its policy blob
    /// restored into `policy`, and the resume announced. Then runs the
    /// session on `executor` with the checkpoint/abort hook, whose
    /// snapshots carry `fingerprint`.
    pub(crate) fn drive(
        &self,
        executor: Executor<'_>,
        resume_from: Option<&Path>,
        policy: &mut dyn AsyncPolicy,
        fingerprint: u64,
    ) -> crate::Result<RunResult> {
        self.validate()?;
        let session = match resume_from {
            None => SessionState::new(self.batch_size, self.max_evals, &self.initial_design()),
            Some(path) => {
                let session = self.load_session(path, fingerprint, policy)?;
                self.announce_resume(&session);
                session
            }
        };
        let active = self.checkpoint_path.is_some() || self.abort_after.is_some();
        let mut hook = active.then(|| self.session_hook(session.completed(), fingerprint));
        let (retry, telemetry, hook) = (&self.retry, &self.telemetry, hook.as_deref_mut());
        let result = match executor {
            Executor::Virtual(bb) => VirtualExecutor::new(self.batch_size)
                .run(bb, session, policy, retry, telemetry, hook),
            Executor::Threaded(bb, time_scale) => {
                ThreadedExecutor::new(self.batch_size, time_scale)
                    .run(bb, session, policy, retry, telemetry, hook)
            }
        };
        Ok(result?)
    }

    /// Loads a snapshot, checks its configuration fingerprint against
    /// `fingerprint` and every point's dimension against the bounds,
    /// restores its policy blob (if any) into `policy`, and rebuilds the
    /// session.
    fn load_session(
        &self,
        path: &Path,
        fingerprint: u64,
        policy: &mut dyn AsyncPolicy,
    ) -> crate::Result<SessionState> {
        let snap = load_snapshot(path)?;
        if snap.config_fingerprint != fingerprint {
            return Err(PersistError::ConfigMismatch {
                expected: snap.config_fingerprint,
                actual: fingerprint,
            }
            .into());
        }
        let (s, dim) = (&snap.session, self.bounds.dim());
        check_dims("pending", s.pending.iter(), dim)
            .and_then(|()| check_dims("observations", s.observations.iter().map(|o| &o.0), dim))
            .and_then(|()| check_dims("inflight", s.inflight.iter().map(|t| &t.x), dim))
            .and_then(|()| check_dims("backoffs", s.backoffs.iter().map(|b| &b.x), dim))
            .map_err(PersistError::from)?;
        let session = SessionState::from_parts(snap.session).map_err(PersistError::from)?;
        if let Some(blob) = &snap.policy {
            policy
                .restore_state(blob)
                .map_err(|e| EasyBoError::from(PersistError::decode(e)))?;
        }
        Ok(session)
    }

    /// Rewinds the telemetry clock to the snapshot's and emits
    /// `RunResumed` — called once the restored policy is ready.
    fn announce_resume(&self, session: &SessionState) {
        self.telemetry.set_now(session.clock());
        self.telemetry.incr("resumes", 1);
        self.telemetry.emit_at(
            session.clock(),
            Event::RunResumed {
                completed: session.completed(),
                inflight: session.inflight().len(),
            },
        );
    }

    fn finish(&self, result: RunResult) -> crate::Result<OptimizationResult> {
        let (best_x, best_value) = result
            .data
            .best()
            .map(|(x, y)| (x.to_vec(), y))
            .ok_or(EasyBoError::DegenerateObjective)?;
        if !best_value.is_finite() {
            return Err(EasyBoError::DegenerateObjective);
        }
        self.telemetry.flush();
        let report = RunReport::with_metrics(
            result.schedule.makespan(),
            result.schedule.workers(),
            result.schedule.utilization(),
            result.data.len(),
            self.telemetry.summary(),
            self.telemetry.metrics_snapshot().as_ref(),
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

    /// Maximizes a plain objective function. Evaluation cost is treated as
    /// uniform (one virtual second per evaluation).
    ///
    /// # Errors
    ///
    /// * [`EasyBoError::BadBudget`] if `max_evals <= initial_points`.
    /// * [`EasyBoError::DegenerateObjective`] if no finite value was seen.
    pub fn run<F>(&self, f: F) -> crate::Result<OptimizationResult>
    where
        F: Fn(&[f64]) -> f64 + Send + Sync,
    {
        self.validate()?;
        let time = SimTimeModel::new(&self.bounds, 1.0, 0.0, self.seed);
        let bb = CostedFunction::new("objective", self.bounds.clone(), time, f);
        self.run_blackbox(&bb)
    }

    /// Maximizes a [`BlackBox`] on the virtual-time executor (deterministic,
    /// instant; the returned trace carries the *virtual* schedule).
    ///
    /// # Errors
    ///
    /// Same conditions as [`EasyBo::run`].
    pub fn run_blackbox(&self, bb: &dyn BlackBox) -> crate::Result<OptimizationResult> {
        let mut policy = self.build_policy();
        let result = self.drive(Executor::Virtual(bb), None, &mut policy, self.fingerprint())?;
        self.finish(result)
    }

    /// Resumes a virtual-executor run from a snapshot written by a
    /// checkpointed [`EasyBo::run_blackbox`] (or [`EasyBo::run`]) under
    /// the *same configuration*. Interrupted in-flight attempts are
    /// re-issued at their recorded worker and start time through the
    /// configured [`RetryPolicy`], pending backoffs are rescheduled, and
    /// the run continues to its original budget — producing a final
    /// best-so-far trace byte-identical to the uninterrupted run.
    /// Checkpointing continues on the resumed run if still configured.
    ///
    /// # Errors
    ///
    /// * [`EasyBoError::Persist`] when the file is missing, corrupt,
    ///   from another format version, describes an impossible session
    ///   (see [`SessionState::from_parts`]), or was captured under a
    ///   different configuration fingerprint.
    /// * The same conditions as [`EasyBo::run`] otherwise.
    pub fn resume_from(
        &self,
        path: impl AsRef<Path>,
        bb: &dyn BlackBox,
    ) -> crate::Result<OptimizationResult> {
        let mut policy = self.build_policy();
        let path = Some(path.as_ref());
        let result = self.drive(Executor::Virtual(bb), path, &mut policy, self.fingerprint())?;
        self.finish(result)
    }

    /// Convenience resume matching [`EasyBo::run`]: rebuilds the same
    /// uniform-cost black box around `f` and delegates to
    /// [`EasyBo::resume_from`].
    ///
    /// # Errors
    ///
    /// Same conditions as [`EasyBo::resume_from`].
    pub fn resume<F>(&self, path: impl AsRef<Path>, f: F) -> crate::Result<OptimizationResult>
    where
        F: Fn(&[f64]) -> f64 + Send + Sync,
    {
        let time = SimTimeModel::new(&self.bounds, 1.0, 0.0, self.seed);
        let bb = CostedFunction::new("objective", self.bounds.clone(), time, f);
        self.resume_from(path, &bb)
    }

    /// Maximizes a [`BlackBox`] on real OS threads — the production path
    /// for genuinely expensive objectives. `time_scale` seconds of real
    /// sleep emulate each virtual second of reported cost (0.0 = no sleep).
    ///
    /// # Errors
    ///
    /// Same conditions as [`EasyBo::run`].
    pub fn run_threaded(
        &self,
        bb: &(dyn BlackBox + Sync),
        time_scale: f64,
    ) -> crate::Result<OptimizationResult> {
        let mut policy = self.build_policy();
        let executor = Executor::Threaded(bb, time_scale);
        let result = self.drive(executor, None, &mut policy, self.fingerprint())?;
        self.finish(result)
    }

    /// Resumes a checkpointed [`EasyBo::run_threaded`] run on a fresh
    /// thread pool, continuing the captured clock: real time resumes at
    /// the capture clock, interrupted in-flight attempts are
    /// re-dispatched at their recorded slot and start, and pending retry
    /// backoffs fire at their captured due times. Unlike the virtual
    /// path, real-time scheduling is not bit-reproducible; every
    /// committed observation survives, every task issued after the
    /// capture starts at or after the capture clock, and the budget
    /// completes exactly once.
    ///
    /// # Errors
    ///
    /// Same conditions as [`EasyBo::resume_from`].
    pub fn resume_threaded(
        &self,
        path: impl AsRef<Path>,
        bb: &(dyn BlackBox + Sync),
        time_scale: f64,
    ) -> crate::Result<OptimizationResult> {
        let mut policy = self.build_policy();
        let executor = Executor::Threaded(bb, time_scale);
        let path = Some(path.as_ref());
        let result = self.drive(executor, path, &mut policy, self.fingerprint())?;
        self.finish(result)
    }
}

/// The executor a run drives: the deterministic virtual clock, or real
/// threads emulating each virtual second of cost with `time_scale`
/// seconds of sleep.
#[derive(Clone, Copy)]
pub(crate) enum Executor<'b> {
    Virtual(&'b dyn BlackBox),
    Threaded(&'b (dyn BlackBox + Sync), f64),
}

/// Rejects the first point of a snapshot list `field` whose length is
/// not the bounds' dimension `dim`: such a point would panic in
/// [`Bounds::clamp`] or the GP instead of failing the resume.
fn check_dims<'a>(
    field: &str,
    points: impl Iterator<Item = &'a Vec<f64>>,
    dim: usize,
) -> Result<(), InvalidSessionParts> {
    for (i, x) in points.enumerate() {
        if x.len() != dim {
            return Err(InvalidSessionParts {
                field: format!("{field}[{i}]"),
                detail: format!("needs the bounds' {dim} coordinates, got {}", x.len()),
            });
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn finds_peak_of_smooth_function() {
        let bounds = Bounds::new(vec![(-2.0, 2.0), (-2.0, 2.0)]).unwrap();
        let r = EasyBo::new(bounds)
            .batch_size(4)
            .initial_points(10)
            .max_evals(45)
            .seed(3)
            .run(|x| (-((x[0] - 0.5).powi(2) + (x[1] + 0.5).powi(2))).exp())
            .unwrap();
        assert!(r.best_value > 0.9, "best {}", r.best_value);
        assert!((r.best_x[0] - 0.5).abs() < 0.5);
        assert_eq!(r.data.len(), 45);
    }

    #[test]
    fn rejects_bad_budget() {
        let bounds = Bounds::unit_cube(2).unwrap();
        let mut opt = EasyBo::new(bounds);
        opt.initial_points(20).max_evals(10);
        assert!(matches!(
            opt.run(|_| 0.0),
            Err(EasyBoError::BadBudget { .. })
        ));
    }

    #[test]
    fn degenerate_objective_is_reported() {
        let bounds = Bounds::unit_cube(1).unwrap();
        let r = EasyBo::new(bounds)
            .initial_points(3)
            .max_evals(6)
            .run(|_| f64::NAN);
        assert!(matches!(r, Err(EasyBoError::DegenerateObjective)));
    }

    #[test]
    fn builder_clamps_degenerate_settings() {
        let bounds = Bounds::unit_cube(1).unwrap();
        let mut opt = EasyBo::new(bounds);
        opt.batch_size(0).initial_points(0);
        // batch >= 1, init >= 2: the run must still work.
        opt.max_evals(8).seed(1);
        let r = opt.run(|x| -x[0]).unwrap();
        assert_eq!(r.data.len(), 8);
    }

    /// Snapshots stamp these fingerprints and resume checks them, so a
    /// change to what feeds them orphans every snapshot on disk.
    #[test]
    fn config_fingerprints_are_pinned() {
        use easybo_exec::FailureAction;
        let bounds = Bounds::new(vec![(-1.0, 2.0), (0.0, 5.0)]).unwrap();
        let default = EasyBo::new(bounds.clone());
        let mut tuned = EasyBo::new(bounds);
        tuned.seed(7).batch_size(3).retry_policy(
            RetryPolicy::default()
                .timeout(40.0)
                .on_exhausted(FailureAction::Penalty(-3.5)),
        );
        let hex = |fp: u64| format!("{fp:016x}");
        assert_eq!(hex(default.config_fingerprint()), "b9e4f0c56e3d9222");
        assert_eq!(hex(tuned.config_fingerprint()), "27195933ce20d8b2");
        assert_eq!(hex(tuned.constrained_fingerprint(2)), "3e698d24df07359d");
    }

    #[test]
    fn seeded_runs_reproduce() {
        let bounds = Bounds::unit_cube(2).unwrap();
        let run = |seed| {
            let mut opt = EasyBo::new(bounds.clone());
            opt.initial_points(6).max_evals(16).seed(seed);
            opt.run(|x| -(x[0] - 0.3f64).powi(2) - (x[1] - 0.6f64).powi(2))
                .unwrap()
        };
        let a = run(9);
        let b = run(9);
        assert_eq!(a.data, b.data);
        assert_eq!(a.best_x, b.best_x);
    }

    fn snap_path(name: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!(
            "easybo-opt-test-{}-{name}.snap",
            std::process::id()
        ))
    }

    fn objective(x: &[f64]) -> f64 {
        -(x[0] - 0.3f64).powi(2) - (x[1] - 0.6f64).powi(2)
    }

    #[test]
    fn checkpointed_run_is_bit_identical_to_plain_run() {
        let bounds = Bounds::unit_cube(2).unwrap();
        let mut plain = EasyBo::new(bounds.clone());
        plain.batch_size(3).initial_points(6).max_evals(14).seed(4);
        let a = plain.run(objective).unwrap();

        let path = snap_path("bitident");
        let mut ckpt = EasyBo::new(bounds);
        ckpt.batch_size(3).initial_points(6).max_evals(14).seed(4);
        ckpt.checkpoint_to(&path).checkpoint_every(2);
        let b = ckpt.run(objective).unwrap();
        std::fs::remove_file(&path).ok();

        assert_eq!(a.data, b.data);
        assert_eq!(a.trace.to_csv(), b.trace.to_csv());
    }

    #[test]
    fn kill_and_resume_reproduces_uninterrupted_trace() {
        let bounds = Bounds::unit_cube(2).unwrap();
        let mut opt = EasyBo::new(bounds);
        opt.batch_size(3).initial_points(6).max_evals(16).seed(5);
        let baseline = opt.run(objective).unwrap();

        let path = snap_path("killresume");
        let mut killed = opt.clone();
        killed.checkpoint_to(&path).checkpoint_every(1);
        killed.abort_after_evals(9);
        let err = killed.run(objective).unwrap_err();
        assert!(matches!(err, EasyBoError::Opt(_)), "{err}");

        let mut resumer = opt.clone();
        resumer.checkpoint_to(&path);
        let resumed = resumer.resume(&path, objective).unwrap();
        std::fs::remove_file(&path).ok();

        assert_eq!(resumed.data, baseline.data);
        assert_eq!(resumed.trace.to_csv(), baseline.trace.to_csv());
        assert_eq!(resumed.best_x, baseline.best_x);
    }

    /// The hook writes a snapshot every `checkpoint_every` observations
    /// counted from the session's start: zero on a new run, the
    /// snapshot's count on a resume.
    #[test]
    fn checkpoint_cadence_counts_from_the_session_start() {
        let written = |events: Vec<easybo_telemetry::TimedEvent>| -> Vec<usize> {
            let completed = events.into_iter().filter_map(|e| match e.event {
                Event::CheckpointWritten { completed, .. } => Some(completed),
                _ => None,
            });
            completed.collect()
        };
        let path = snap_path("cadence");
        let mut opt = EasyBo::new(Bounds::unit_cube(2).unwrap());
        opt.batch_size(3).initial_points(6).max_evals(14).seed(4);
        opt.checkpoint_to(&path).checkpoint_every(4);

        let (tel, recorder) = Telemetry::recording();
        let mut killed = opt.clone();
        killed.telemetry(tel).abort_after_evals(10);
        killed.run(objective).unwrap_err();
        assert_eq!(written(recorder.events()), [4, 8]);

        let (tel, recorder) = Telemetry::recording();
        let mut resumer = opt.clone();
        resumer.telemetry(tel);
        resumer.resume(&path, objective).unwrap();
        std::fs::remove_file(&path).ok();
        assert_eq!(written(recorder.events()), [12]);
    }

    #[test]
    fn resume_rejects_mismatched_config() {
        let bounds = Bounds::unit_cube(2).unwrap();
        let path = snap_path("mismatch");
        let mut opt = EasyBo::new(bounds.clone());
        opt.batch_size(2).initial_points(4).max_evals(10).seed(6);
        opt.checkpoint_to(&path).abort_after_evals(5);
        let _ = opt.run(objective).unwrap_err();

        let mut other = EasyBo::new(bounds);
        other.batch_size(2).initial_points(4).max_evals(10).seed(7); // seed differs
        let err = other.resume(&path, objective).unwrap_err();
        std::fs::remove_file(&path).ok();
        assert!(
            matches!(&err, EasyBoError::Persist(p)
                if matches!(p.as_ref(), easybo_persist::PersistError::ConfigMismatch { .. })),
            "{err}"
        );
    }

    #[test]
    fn threaded_run_matches_api_contract() {
        use easybo_exec::{CostedFunction, SimTimeModel};
        let bounds = Bounds::unit_cube(2).unwrap();
        let time = SimTimeModel::new(&bounds, 5.0, 0.2, 0);
        let bb = CostedFunction::new("toy", bounds.clone(), time, |x: &[f64]| {
            -(x[0] - 0.4f64).powi(2) - (x[1] - 0.6f64).powi(2)
        });
        let mut opt = EasyBo::new(bounds);
        opt.batch_size(3).initial_points(6).max_evals(20).seed(2);
        let r = opt.run_threaded(&bb, 0.0).unwrap();
        assert_eq!(r.data.len(), 20);
        assert!(r.best_value > -0.05, "best {}", r.best_value);
    }
}
