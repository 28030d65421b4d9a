//! Acceptance matrix for the whole `Algorithm` registry — every
//! variant, including the async portfolio from the literature
//! (ε-greedy, pessimistic hallucination, plain-EI standard), runs the
//! seeded op-amp bench at parallelism {1, 8} × chaos {0, 30}% and must
//! produce bit-identical trace CSVs across thread counts. A
//! registry-wide property extends the attempt conservation law
//! (#issued == #finished + #failed) over every algorithm and random
//! fault regimes.

use easybo::{
    Algorithm, AlgorithmMode, FailureAction, FaultPlan, FaultyBlackBox, Parallelism, RetryPolicy,
    RunSetup, Telemetry,
};
use easybo_circuits::opamp::TwoStageOpAmp;
use easybo_circuits::Circuit;
use easybo_exec::{CostedFunction, SimTimeModel};
use easybo_opt::Bounds;
use proptest::prelude::*;

/// The paper's 10-d two-stage op-amp with a seeded simulation-time
/// model — the same seeded bench Table I runs.
fn opamp_blackbox() -> CostedFunction<impl Fn(&[f64]) -> f64 + Send + Sync> {
    let amp = TwoStageOpAmp::new();
    let bounds = amp.bounds().clone();
    let time = SimTimeModel::new(&bounds, 38.7, 0.25, 2020);
    CostedFunction::new("two-stage-opamp", bounds, time, move |x: &[f64]| amp.fom(x))
}

/// A cheap 2-d peak for the registry-wide property, where per-case
/// cost matters more than dimensionality.
fn toy_peak(seed: u64) -> CostedFunction<impl Fn(&[f64]) -> f64 + Send + Sync> {
    let bounds = Bounds::unit_cube(2).unwrap();
    let time = SimTimeModel::new(&bounds, 25.0, 0.3, seed);
    CostedFunction::new("toy-peak", bounds, time, |x: &[f64]| {
        (-((x[0] - 0.3).powi(2) + (x[1] - 0.7).powi(2))).exp()
    })
}

/// Chaos tailored to what each algorithm's driver can absorb: the
/// resilient async drivers take outright simulator failures (and retry
/// them), while the sync-batch and evolutionary drivers have no retry
/// machinery, so their chaos is stragglers only — slowdowns, never
/// failures.
fn plan_for(mode: AlgorithmMode, rate: f64, seed: u64) -> (FaultPlan, RetryPolicy) {
    match mode {
        AlgorithmMode::Sequential | AlgorithmMode::AsyncBatch => (
            FaultPlan {
                seed,
                fail_rate: rate,
                straggler_rate: rate,
                straggler_factor: 4.0,
                ..FaultPlan::default()
            },
            RetryPolicy::default()
                .max_attempts(6)
                .backoff(2.0, 2.0)
                .on_exhausted(FailureAction::Drop),
        ),
        AlgorithmMode::SyncBatch | AlgorithmMode::Evolutionary => (
            FaultPlan {
                seed,
                straggler_rate: rate,
                straggler_factor: 4.0,
                ..FaultPlan::default()
            },
            RetryPolicy::none(),
        ),
    }
}

fn count_kind(events: &[easybo_telemetry::TimedEvent], kind: &str) -> usize {
    events.iter().filter(|e| e.event.kind() == kind).count()
}

/// Headline matrix: every registry variant × chaos {0, 30}% must give
/// byte-identical traces, datasets, and schedules at parallelism 1 and
/// 8 — the thread knob tunes speed, never the trajectory.
#[test]
fn every_algorithm_is_thread_count_invariant_under_chaos() {
    for algo in Algorithm::all() {
        for &rate in &[0.0, 0.3] {
            let run = |parallelism: Parallelism| {
                let (plan, retry) = plan_for(algo.mode(), rate, 0xC4A0 ^ algo.index() as u64);
                let bb = FaultyBlackBox::new(opamp_blackbox(), plan);
                let mut setup = RunSetup::new(3, 12, 6, 200, 7);
                setup.parallelism = parallelism;
                setup.retry = retry;
                algo.run_with(&bb, &setup)
            };
            let seq = run(Parallelism::sequential());
            let par = run(Parallelism::new(8));
            let tag = format!("{} chaos {rate}", algo.key());
            assert_eq!(
                seq.trace.to_csv(),
                par.trace.to_csv(),
                "trace diverged across thread counts: {tag}"
            );
            assert_eq!(seq.data, par.data, "dataset diverged: {tag}");
            assert_eq!(
                seq.schedule.to_csv(),
                par.schedule.to_csv(),
                "schedule diverged: {tag}"
            );
            assert!(
                seq.data.ys().iter().all(|y| y.is_finite()),
                "non-finite observation survived: {tag}"
            );
        }
    }
}

/// The new portfolio members must emit a non-empty best-so-far trace on
/// the op-amp bench — the rows Table I summarizes exist and carry data.
#[test]
fn portfolio_algorithms_emit_table_rows_on_the_opamp() {
    for algo in [
        Algorithm::EpsGreedy,
        Algorithm::PessimisticBo,
        Algorithm::StandardBo,
    ] {
        let bb = opamp_blackbox();
        let r = algo.run(&bb, 3, 14, 6, 0, 11);
        assert_eq!(r.data.len(), 14, "{} must spend its budget", algo.key());
        assert!(
            !r.trace.points().is_empty(),
            "{} produced an empty trace",
            algo.key()
        );
        assert!(r.trace.points().iter().all(|p| p.value.is_finite()));
        assert!(!algo.label(3).is_empty());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Registry-wide conservation law: for every algorithm under a
    /// random fault regime, the executor drains — #QueryIssued ==
    /// #EvalFinished + #EvalFailed — and the surrogate only ever sees
    /// finite observations. DE drives its own loop and emits no
    /// executor events, so it satisfies the law as 0 == 0.
    #[test]
    fn whole_registry_conserves_attempts_under_chaos(
        seed in 0u64..500,
        idx in 0usize..Algorithm::COUNT,
        rate in 0.0f64..0.35,
    ) {
        let algo = Algorithm::all()[idx];
        let (plan, retry) = plan_for(algo.mode(), rate, seed);
        let bb = FaultyBlackBox::new(toy_peak(seed), plan);
        let (telemetry, recorder) = Telemetry::recording();
        let mut setup = RunSetup::new(2, 10, 4, 60, seed ^ 0x51);
        setup.retry = retry;
        setup.telemetry = telemetry;
        let r = algo.run_with(&bb, &setup);
        let events = recorder.events();
        let issued = count_kind(&events, "QueryIssued");
        let finished = count_kind(&events, "EvalFinished");
        let failed = count_kind(&events, "EvalFailed");
        prop_assert!(
            issued == finished + failed,
            "conservation violated for {}: issued {} finished {} failed {}",
            algo.key(), issued, finished, failed
        );
        if matches!(algo.mode(), AlgorithmMode::Evolutionary) {
            prop_assert!(issued == 0, "{} should emit no executor events", algo.key());
        } else {
            prop_assert!(issued > 0, "{} emitted no executor events", algo.key());
        }
        prop_assert!(
            r.data.ys().iter().all(|y| y.is_finite()),
            "non-finite observation for {}", algo.key()
        );
    }
}
