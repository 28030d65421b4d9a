//! The benchmark algorithm registry: every optimizer evaluated in the
//! paper's Tables I/II (plus the BUCB/LP extensions and the asynchronous
//! portfolio from the wider literature), behind a single dispatcher so
//! the benchmark harness can sweep the full matrix.
//!
//! # Exhaustiveness invariant
//!
//! Every `match` over [`Algorithm`] in this module — [`Algorithm::index`],
//! [`Algorithm::key`], [`Algorithm::mode`], [`Algorithm::label`],
//! [`Algorithm::async_policy`] and [`Algorithm::sync_policy`] — is
//! written **without a `_` arm** on purpose. Adding a variant without
//! wiring its index, key, label, mode and policy constructor is a compile
//! error, not a silently missing bench row; the registry tests then force
//! `COUNT`, `all()`, the pinned ids and `from_key` to agree. Keep it that
//! way: a new algorithm that compiles is a new algorithm the bench tables
//! and acceptance matrix actually cover.

use easybo_exec::{
    AsyncPolicy, BlackBox, Dataset, RetryPolicy, RunResult, RunTrace, Schedule, SyncBatchPolicy,
    VirtualExecutor,
};
use easybo_opt::{sampling, Bounds, DeConfig, DifferentialEvolution, Parallelism};
use easybo_telemetry::Telemetry;
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::policies::{
    AcqOptConfig, BucbPolicy, EasyBoAsyncPolicy, EasyBoSyncPolicy, EpsGreedyPolicy,
    LocalPenalizationPolicy, PboPolicy, PessimisticAsyncPolicy, SequentialAcquisition,
    SequentialBoPolicy, StandardAsyncPolicy, DEFAULT_EPSILON, DEFAULT_PESSIMISTIC_KAPPA,
};
use crate::surrogate::SurrogateConfig;
use crate::weight::DEFAULT_LAMBDA;

/// Scheduling mode of an [`Algorithm`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AlgorithmMode {
    /// Differential evolution, evaluated one point at a time.
    Evolutionary,
    /// Model-based, one query per completed evaluation, single worker.
    Sequential,
    /// Barrier-synchronized batches of `B` queries.
    SyncBatch,
    /// A new query the moment any of the `B` workers idles.
    AsyncBatch,
}

/// Every optimization algorithm in the benchmark matrix.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Algorithm {
    /// Differential evolution baseline (Liu et al., ref. \[13\]).
    De,
    /// Sequential BO with expected improvement.
    Ei,
    /// Sequential BO with the optimistic confidence bound (paper: "LCB").
    Lcb,
    /// Sequential EasyBO (randomized-weight acquisition, one worker).
    EasyBoSeq,
    /// pBO: synchronous batch with the uniform weight grid (ref. \[23\]).
    Pbo,
    /// pHCBO: pBO plus the high-coverage distance penalty (ref. \[23\]).
    Phcbo,
    /// EasyBO-S: synchronous, randomized weights, no penalization.
    EasyBoS,
    /// EasyBO-A: asynchronous, randomized weights, no penalization.
    EasyBoA,
    /// EasyBO-SP: synchronous, randomized weights, hallucination penalty.
    EasyBoSp,
    /// EasyBO: asynchronous + hallucination penalty — the paper's method.
    EasyBo,
    /// Batch UCB extension (Desautels et al., ref. \[32\]).
    Bucb,
    /// Local Penalization extension (González et al., ref. \[33\]).
    Lp,
    /// Asynchronous ε-greedy (De Ath et al. 2020, arXiv:2010.07615).
    EpsGreedy,
    /// Pessimistic asynchronous sampling (Volk et al. 2024, arXiv:2406.15291).
    PessimisticBo,
    /// Standard-acquisition async baseline (Riegler et al., arXiv:2603.13501).
    StandardBo,
}

/// Everything [`Algorithm::run_with`] needs beyond the black box: budgets,
/// seed, worker-thread knob, retry policy and telemetry sink.
///
/// [`Algorithm::run`] is `run_with` at the defaults (no retries, disabled
/// telemetry, default thread pool) and reproduces the legacy dispatcher
/// bit for bit.
pub struct RunSetup {
    /// Worker count for batch algorithms (ignored otherwise).
    pub batch: usize,
    /// Total evaluation budget for BO algorithms, including `n_init`.
    pub max_evals: usize,
    /// Initial Latin-hypercube design size.
    pub n_init: usize,
    /// Evaluation budget for [`Algorithm::De`] (the BO budget
    /// `max_evals` does not apply to it).
    pub de_evals: usize,
    /// Controls the initial design, all stochastic selection, and the
    /// surrogate training restarts.
    pub seed: u64,
    /// Worker threads for GP training and acquisition maximization.
    /// Results are bit-identical at any setting.
    pub parallelism: Parallelism,
    /// Task retry policy for the resilient async driver. Ignored by
    /// sync-batch algorithms and DE (their drivers have no retry
    /// machinery).
    pub retry: RetryPolicy,
    /// Telemetry handle threaded through the executor. DE emits no
    /// executor events.
    pub telemetry: Telemetry,
}

impl RunSetup {
    /// The defaults [`Algorithm::run`] uses: no retries, disabled
    /// telemetry, default thread pool.
    pub fn new(batch: usize, max_evals: usize, n_init: usize, de_evals: usize, seed: u64) -> Self {
        RunSetup {
            batch,
            max_evals,
            n_init,
            de_evals,
            seed,
            parallelism: Parallelism::default(),
            retry: RetryPolicy::none(),
            telemetry: Telemetry::disabled(),
        }
    }
}

impl Algorithm {
    /// Number of registered algorithms; [`Algorithm::all`] has exactly
    /// this many entries, each with a distinct [`Algorithm::index`]
    /// (checked by the registry tests).
    pub const COUNT: usize = 15;

    /// All implemented algorithms (paper set + extensions + the async
    /// portfolio), sorted by [`Algorithm::index`].
    pub fn all() -> [Algorithm; Self::COUNT] {
        [
            Algorithm::De,
            Algorithm::Lcb,
            Algorithm::Ei,
            Algorithm::EasyBoSeq,
            Algorithm::Pbo,
            Algorithm::Phcbo,
            Algorithm::EasyBoS,
            Algorithm::EasyBoA,
            Algorithm::EasyBoSp,
            Algorithm::EasyBo,
            Algorithm::Bucb,
            Algorithm::Lp,
            Algorithm::EpsGreedy,
            Algorithm::PessimisticBo,
            Algorithm::StandardBo,
        ]
    }

    /// Stable numeric id, ascending along [`Algorithm::all`]. Seeds and
    /// fingerprints are derived from it, so an algorithm keeps its id for
    /// good: ids 12–17 belonged to retired algorithms and are never
    /// reused. Exhaustive on purpose — see the module docs.
    pub const fn index(self) -> usize {
        match self {
            Algorithm::De => 0,
            Algorithm::Lcb => 1,
            Algorithm::Ei => 2,
            Algorithm::EasyBoSeq => 3,
            Algorithm::Pbo => 4,
            Algorithm::Phcbo => 5,
            Algorithm::EasyBoS => 6,
            Algorithm::EasyBoA => 7,
            Algorithm::EasyBoSp => 8,
            Algorithm::EasyBo => 9,
            Algorithm::Bucb => 10,
            Algorithm::Lp => 11,
            Algorithm::EpsGreedy => 18,
            Algorithm::PessimisticBo => 19,
            Algorithm::StandardBo => 20,
        }
    }

    /// Stable kebab-case wire key (used by the service's `OpenSession`
    /// request and the CLI). Exhaustive on purpose — see the module docs.
    pub const fn key(self) -> &'static str {
        match self {
            Algorithm::De => "de",
            Algorithm::Lcb => "lcb",
            Algorithm::Ei => "ei",
            Algorithm::EasyBoSeq => "easybo-seq",
            Algorithm::Pbo => "pbo",
            Algorithm::Phcbo => "phcbo",
            Algorithm::EasyBoS => "easybo-s",
            Algorithm::EasyBoA => "easybo-a",
            Algorithm::EasyBoSp => "easybo-sp",
            Algorithm::EasyBo => "easybo",
            Algorithm::Bucb => "bucb",
            Algorithm::Lp => "lp",
            Algorithm::EpsGreedy => "eps-greedy",
            Algorithm::PessimisticBo => "pessimistic",
            Algorithm::StandardBo => "standard",
        }
    }

    /// Inverse of [`Algorithm::key`].
    pub fn from_key(key: &str) -> Option<Algorithm> {
        Algorithm::all().into_iter().find(|a| a.key() == key)
    }

    /// Scheduling mode.
    pub fn mode(&self) -> AlgorithmMode {
        match self {
            Algorithm::De => AlgorithmMode::Evolutionary,
            Algorithm::Ei | Algorithm::Lcb | Algorithm::EasyBoSeq => AlgorithmMode::Sequential,
            Algorithm::Pbo
            | Algorithm::Phcbo
            | Algorithm::EasyBoS
            | Algorithm::EasyBoSp
            | Algorithm::Bucb
            | Algorithm::Lp => AlgorithmMode::SyncBatch,
            Algorithm::EasyBoA
            | Algorithm::EasyBo
            | Algorithm::EpsGreedy
            | Algorithm::PessimisticBo
            | Algorithm::StandardBo => AlgorithmMode::AsyncBatch,
        }
    }

    /// Whether the algorithm uses a batch of parallel workers.
    pub fn is_batch(&self) -> bool {
        matches!(
            self.mode(),
            AlgorithmMode::SyncBatch | AlgorithmMode::AsyncBatch
        )
    }

    /// The label used in the paper's tables (`EasyBO-SP-5` style: batch
    /// size appended for batch algorithms).
    pub fn label(&self, batch: usize) -> String {
        let base = match self {
            Algorithm::De => "DE",
            Algorithm::Ei => "EI",
            Algorithm::Lcb => "LCB",
            Algorithm::EasyBoSeq => "EasyBO",
            Algorithm::Pbo => "pBO",
            Algorithm::Phcbo => "pHCBO",
            Algorithm::EasyBoS => "EasyBO-S",
            Algorithm::EasyBoA => "EasyBO-A",
            Algorithm::EasyBoSp => "EasyBO-SP",
            Algorithm::EasyBo => "EasyBO",
            Algorithm::Bucb => "BUCB",
            Algorithm::Lp => "LP",
            Algorithm::EpsGreedy => "EpsGreedy",
            Algorithm::PessimisticBo => "PessBO",
            Algorithm::StandardBo => "StdBO",
        };
        if self.is_batch() {
            format!("{base}-{batch}")
        } else {
            base.to_string()
        }
    }

    /// Constructs the boxed [`AsyncPolicy`] for a sequential or
    /// async-batch algorithm (the two modes the async driver — and with
    /// it the service's remote worker pool — can host). `None` for
    /// sync-batch and evolutionary algorithms.
    ///
    /// `parallelism` threads the worker-thread knob into GP training and
    /// acquisition maximization; decisions are bit-identical at any
    /// setting.
    pub fn async_policy(
        &self,
        bounds: Bounds,
        seed: u64,
        parallelism: Parallelism,
    ) -> Option<Box<dyn AsyncPolicy + Send>> {
        let (scfg, acfg) = policy_configs(bounds.dim(), parallelism);
        match self {
            Algorithm::Ei => Some(Box::new(SequentialBoPolicy::with_configs(
                bounds,
                SequentialAcquisition::Ei,
                seed,
                scfg,
                acfg,
            ))),
            Algorithm::Lcb => Some(Box::new(SequentialBoPolicy::with_configs(
                bounds,
                SequentialAcquisition::Ucb { kappa: 2.0 },
                seed,
                scfg,
                acfg,
            ))),
            Algorithm::EasyBoSeq => Some(Box::new(SequentialBoPolicy::with_configs(
                bounds,
                SequentialAcquisition::EasyBo {
                    lambda: DEFAULT_LAMBDA,
                },
                seed,
                scfg,
                acfg,
            ))),
            Algorithm::EasyBoA => Some(Box::new(EasyBoAsyncPolicy::with_configs(
                bounds,
                false,
                DEFAULT_LAMBDA,
                seed,
                scfg,
                acfg,
            ))),
            Algorithm::EasyBo => Some(Box::new(EasyBoAsyncPolicy::with_configs(
                bounds,
                true,
                DEFAULT_LAMBDA,
                seed,
                scfg,
                acfg,
            ))),
            Algorithm::EpsGreedy => Some(Box::new(EpsGreedyPolicy::with_configs(
                bounds,
                DEFAULT_EPSILON,
                seed,
                scfg,
                acfg,
            ))),
            Algorithm::PessimisticBo => Some(Box::new(PessimisticAsyncPolicy::with_configs(
                bounds,
                DEFAULT_PESSIMISTIC_KAPPA,
                seed,
                scfg,
                acfg,
            ))),
            Algorithm::StandardBo => Some(Box::new(StandardAsyncPolicy::with_configs(
                bounds, seed, scfg, acfg,
            ))),
            Algorithm::De
            | Algorithm::Pbo
            | Algorithm::Phcbo
            | Algorithm::EasyBoS
            | Algorithm::EasyBoSp
            | Algorithm::Bucb
            | Algorithm::Lp => None,
        }
    }

    /// Constructs the boxed [`SyncBatchPolicy`] for a sync-batch
    /// algorithm; `None` otherwise. Same `parallelism` semantics as
    /// [`Algorithm::async_policy`].
    pub fn sync_policy(
        &self,
        bounds: Bounds,
        seed: u64,
        parallelism: Parallelism,
    ) -> Option<Box<dyn SyncBatchPolicy + Send>> {
        let (scfg, acfg) = policy_configs(bounds.dim(), parallelism);
        match self {
            Algorithm::Pbo => Some(Box::new(PboPolicy::with_configs(
                bounds, false, seed, scfg, acfg,
            ))),
            Algorithm::Phcbo => Some(Box::new(PboPolicy::with_configs(
                bounds, true, seed, scfg, acfg,
            ))),
            Algorithm::EasyBoS => Some(Box::new(EasyBoSyncPolicy::with_configs(
                bounds,
                false,
                DEFAULT_LAMBDA,
                seed,
                scfg,
                acfg,
            ))),
            Algorithm::EasyBoSp => Some(Box::new(EasyBoSyncPolicy::with_configs(
                bounds,
                true,
                DEFAULT_LAMBDA,
                seed,
                scfg,
                acfg,
            ))),
            Algorithm::Bucb => Some(Box::new(BucbPolicy::with_configs(
                bounds, 2.0, seed, scfg, acfg,
            ))),
            Algorithm::Lp => Some(Box::new(LocalPenalizationPolicy::with_configs(
                bounds, seed, scfg, acfg,
            ))),
            Algorithm::De
            | Algorithm::Ei
            | Algorithm::Lcb
            | Algorithm::EasyBoSeq
            | Algorithm::EasyBoA
            | Algorithm::EasyBo
            | Algorithm::EpsGreedy
            | Algorithm::PessimisticBo
            | Algorithm::StandardBo => None,
        }
    }

    /// Runs the algorithm against `bb` with the default [`RunSetup`]
    /// knobs (no retries, disabled telemetry, default thread pool).
    ///
    /// * `batch` — worker count for batch algorithms (ignored otherwise).
    /// * `max_evals` — total evaluation budget for BO algorithms,
    ///   including the `n_init` initial points.
    /// * `de_evals` — evaluation budget when `self` is [`Algorithm::De`].
    /// * `seed` — controls the initial design, all stochastic selection,
    ///   and the surrogate training restarts.
    pub fn run(
        &self,
        bb: &dyn BlackBox,
        batch: usize,
        max_evals: usize,
        n_init: usize,
        de_evals: usize,
        seed: u64,
    ) -> RunResult {
        self.run_with(bb, &RunSetup::new(batch, max_evals, n_init, de_evals, seed))
    }

    /// Runs the algorithm with explicit chaos/parallelism/telemetry
    /// knobs. With the [`RunSetup::new`] defaults this is bit-identical
    /// to the legacy dispatcher ([`Algorithm::run`]): the async driver's
    /// resilient path with `RetryPolicy::none()` *is* the plain path.
    pub fn run_with(&self, bb: &dyn BlackBox, setup: &RunSetup) -> RunResult {
        let bounds = bb.bounds().clone();
        let mut rng = StdRng::seed_from_u64(setup.seed.wrapping_mul(0x9e37_79b9));
        let init = sampling::latin_hypercube(&bounds, setup.n_init, &mut rng);

        match self.mode() {
            // DE drives its own loop: retry, parallelism and executor
            // telemetry do not apply.
            AlgorithmMode::Evolutionary => run_de(bb, setup.de_evals, setup.seed),
            AlgorithmMode::Sequential => {
                let mut p = self
                    .async_policy(bounds, setup.seed, setup.parallelism)
                    .expect("sequential algorithms expose an async policy");
                VirtualExecutor::new(1).run_async_resilient(
                    bb,
                    &init,
                    setup.max_evals,
                    p.as_mut(),
                    &setup.retry,
                    &setup.telemetry,
                )
            }
            AlgorithmMode::AsyncBatch => {
                let mut p = self
                    .async_policy(bounds, setup.seed, setup.parallelism)
                    .expect("async-batch algorithms expose an async policy");
                VirtualExecutor::new(setup.batch).run_async_resilient(
                    bb,
                    &init,
                    setup.max_evals,
                    p.as_mut(),
                    &setup.retry,
                    &setup.telemetry,
                )
            }
            // The barrier driver has no retry machinery; `setup.retry` is
            // ignored here by design.
            AlgorithmMode::SyncBatch => {
                let mut p = self
                    .sync_policy(bounds, setup.seed, setup.parallelism)
                    .expect("sync-batch algorithms expose a sync policy");
                VirtualExecutor::new(setup.batch).run_sync_with(
                    bb,
                    &init,
                    setup.max_evals,
                    p.as_mut(),
                    &setup.telemetry,
                )
            }
        }
    }
}

/// The surrogate and acquisition-optimizer settings every registry policy
/// is built with: the defaults for `dim`, on `parallelism` threads.
fn policy_configs(dim: usize, parallelism: Parallelism) -> (SurrogateConfig, AcqOptConfig) {
    let surrogate = SurrogateConfig {
        parallelism,
        ..SurrogateConfig::default()
    };
    let acq_opt = AcqOptConfig {
        parallelism,
        ..AcqOptConfig::for_dim(dim)
    };
    (surrogate, acq_opt)
}

/// Runs the differential-evolution baseline sequentially, accounting
/// virtual time per evaluation exactly as a single simulator worker
/// would. The budget is raised to at least one population.
fn run_de(bb: &dyn BlackBox, budget: usize, seed: u64) -> RunResult {
    let bounds = bb.bounds().clone();
    let mut rng = StdRng::seed_from_u64(seed ^ 0xdede_dede);
    let mut data = Dataset::new();
    let mut trace = RunTrace::new();
    let mut schedule = Schedule::new(1);
    let mut t = 0.0f64;
    let de = DifferentialEvolution::new(DeConfig {
        max_evals: budget.max(DeConfig::default().population),
        ..Default::default()
    })
    .expect("static DE config is valid");
    let _ = de.maximize(&bounds, &mut rng, |x: &[f64]| {
        let e = bb.evaluate(x);
        schedule.add(0, data.len(), t, t + e.cost);
        t += e.cost;
        data.push(x.to_vec(), e.value);
        trace.record(t, e.value);
        e.value
    });
    RunResult {
        data,
        trace,
        schedule,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    use easybo_exec::{CostedFunction, SimTimeModel};
    use easybo_opt::Bounds;

    fn bb() -> CostedFunction<impl Fn(&[f64]) -> f64 + Send + Sync> {
        let bounds = Bounds::new(vec![(-2.0, 2.0), (-2.0, 2.0)]).unwrap();
        let time = SimTimeModel::new(&bounds, 10.0, 0.25, 0);
        CostedFunction::new("peak", bounds, time, |x: &[f64]| {
            (-((x[0] - 0.5).powi(2) + (x[1] + 0.5).powi(2))).exp()
        })
    }

    #[test]
    fn labels_match_paper_convention() {
        assert_eq!(Algorithm::De.label(5), "DE");
        assert_eq!(Algorithm::EasyBoSeq.label(5), "EasyBO");
        assert_eq!(Algorithm::Pbo.label(5), "pBO-5");
        assert_eq!(Algorithm::EasyBoSp.label(10), "EasyBO-SP-10");
        assert_eq!(Algorithm::EasyBo.label(15), "EasyBO-15");
        assert_eq!(Algorithm::EpsGreedy.label(8), "EpsGreedy-8");
        assert_eq!(Algorithm::PessimisticBo.label(8), "PessBO-8");
        assert_eq!(Algorithm::StandardBo.label(8), "StdBO-8");
    }

    #[test]
    fn modes_are_consistent() {
        assert_eq!(Algorithm::De.mode(), AlgorithmMode::Evolutionary);
        assert_eq!(Algorithm::Ei.mode(), AlgorithmMode::Sequential);
        assert_eq!(Algorithm::Pbo.mode(), AlgorithmMode::SyncBatch);
        assert_eq!(Algorithm::EasyBo.mode(), AlgorithmMode::AsyncBatch);
        assert_eq!(Algorithm::EpsGreedy.mode(), AlgorithmMode::AsyncBatch);
        assert_eq!(Algorithm::PessimisticBo.mode(), AlgorithmMode::AsyncBatch);
        assert_eq!(Algorithm::StandardBo.mode(), AlgorithmMode::AsyncBatch);
        assert!(!Algorithm::Lcb.is_batch());
        assert!(Algorithm::Bucb.is_batch());
    }

    #[test]
    fn ids_are_pinned_sorted_and_unique() {
        // Chaos-plan seeds and service fingerprints derive from these ids;
        // 12–17 are retired and must stay unused.
        let pinned = [
            ("de", 0),
            ("lcb", 1),
            ("ei", 2),
            ("easybo-seq", 3),
            ("pbo", 4),
            ("phcbo", 5),
            ("easybo-s", 6),
            ("easybo-a", 7),
            ("easybo-sp", 8),
            ("easybo", 9),
            ("bucb", 10),
            ("lp", 11),
            ("eps-greedy", 18),
            ("pessimistic", 19),
            ("standard", 20),
        ];
        let all = Algorithm::all();
        assert_eq!(all.len(), Algorithm::COUNT);
        let got: Vec<(&str, usize)> = all.iter().map(|a| (a.key(), a.index())).collect();
        assert_eq!(got, pinned);
        assert!(
            all.windows(2).all(|w| w[0].index() < w[1].index()),
            "all() must be sorted by strictly increasing id"
        );
    }

    #[test]
    fn keys_round_trip_and_are_unique() {
        for a in Algorithm::all() {
            assert_eq!(Algorithm::from_key(a.key()), Some(a));
        }
        let mut keys: Vec<&str> = Algorithm::all().iter().map(|a| a.key()).collect();
        keys.sort_unstable();
        keys.dedup();
        assert_eq!(keys.len(), Algorithm::COUNT, "duplicate wire key");
        assert_eq!(Algorithm::from_key("no-such-algo"), None);
        for retired in ["ts", "portfolio", "pso", "sa", "cma-es", "mace"] {
            assert_eq!(Algorithm::from_key(retired), None, "{retired}");
        }
    }

    #[test]
    fn policy_constructors_match_modes() {
        let bounds = Bounds::new(vec![(0.0, 1.0)]).unwrap();
        for a in Algorithm::all() {
            let has_async = a
                .async_policy(bounds.clone(), 1, Parallelism::default())
                .is_some();
            let has_sync = a
                .sync_policy(bounds.clone(), 1, Parallelism::default())
                .is_some();
            match a.mode() {
                AlgorithmMode::Evolutionary => assert!(!has_async && !has_sync, "{a:?}"),
                AlgorithmMode::Sequential | AlgorithmMode::AsyncBatch => {
                    assert!(has_async && !has_sync, "{a:?}")
                }
                AlgorithmMode::SyncBatch => assert!(!has_async && has_sync, "{a:?}"),
            }
        }
    }

    #[test]
    fn every_algorithm_runs_and_respects_budget() {
        let bb = bb();
        for algo in Algorithm::all() {
            let r = algo.run(&bb, 3, 24, 8, 60, 1);
            let expected = if algo.mode() == AlgorithmMode::Evolutionary {
                60
            } else {
                24
            };
            assert_eq!(r.data.len(), expected, "{algo:?}");
            assert!(r.best_value().is_finite(), "{algo:?}");
            assert!(r.total_time() > 0.0, "{algo:?}");
        }
    }

    #[test]
    fn async_variants_finish_faster_than_sync_counterparts() {
        let bb = bb();
        let sync = Algorithm::EasyBoSp.run(&bb, 4, 32, 8, 0, 3);
        let asyn = Algorithm::EasyBo.run(&bb, 4, 32, 8, 0, 3);
        assert!(
            asyn.total_time() < sync.total_time(),
            "async {} vs sync {}",
            asyn.total_time(),
            sync.total_time()
        );
    }

    #[test]
    fn seeds_reproduce_runs_exactly() {
        let bb = bb();
        let a = Algorithm::EasyBo.run(&bb, 3, 20, 6, 0, 7);
        let b = Algorithm::EasyBo.run(&bb, 3, 20, 6, 0, 7);
        assert_eq!(a.data, b.data);
        let c = Algorithm::EasyBo.run(&bb, 3, 20, 6, 0, 8);
        assert_ne!(a.data, c.data, "different seeds must differ");
    }

    #[test]
    fn portfolio_policies_reproduce_across_thread_counts() {
        // The Parallelism knob must not perturb a single decision bit.
        let bb = bb();
        for algo in [
            Algorithm::EpsGreedy,
            Algorithm::PessimisticBo,
            Algorithm::StandardBo,
        ] {
            let mut lone = RunSetup::new(3, 16, 6, 0, 5);
            lone.parallelism = Parallelism::sequential();
            let mut wide = RunSetup::new(3, 16, 6, 0, 5);
            wide.parallelism = Parallelism::new(8);
            let a = algo.run_with(&bb, &lone);
            let b = algo.run_with(&bb, &wide);
            assert_eq!(a.data, b.data, "{algo:?} diverged across thread counts");
        }
    }

    #[test]
    fn de_uses_its_own_budget() {
        let bb = bb();
        let r = Algorithm::De.run(&bb, 1, 10, 5, 200, 2);
        assert_eq!(r.data.len(), 200);
        // Sequential DE time = sum of costs ≈ 200 × 10s.
        assert!(r.total_time() > 150.0 * 10.0);
    }
}
