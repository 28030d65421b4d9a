//! Incremental-factorization acceptance suite.
//!
//! The headline contracts of the cached-covariance hot path:
//!
//! * on a seeded op-amp run the penalization inner loop never triggers a
//!   full refactorization — `cholesky` spans appear only on hyperparameter
//!   retrains, while per-tell appends and pseudo-point pushes/pops show up
//!   as `cholesky_update` / `cholesky_downdate` work;
//! * every policy penalizes busy points on that one factor stack, and
//!   every registry algorithm, penalization mode and the constrained
//!   policy reproduces a pinned digest of its whole trajectory, so a
//!   change to the stack that moves a single bit of a query or an
//!   observation fails here.

use std::collections::BTreeMap;

use easybo::{EasyBo, Telemetry};
use easybo_circuits::opamp::TwoStageOpAmp;
use easybo_circuits::Circuit;
use easybo_exec::{BlackBox, CostedFunction, SimTimeModel};
use easybo_telemetry::Event;

/// The paper's 10-d two-stage op-amp with a seeded simulation-time model.
fn opamp_blackbox() -> CostedFunction<impl Fn(&[f64]) -> f64 + Send + Sync> {
    let amp = TwoStageOpAmp::new();
    let bounds = amp.bounds().clone();
    let time = SimTimeModel::new(&bounds, 38.7, 0.25, 2020);
    CostedFunction::new("two-stage-opamp", bounds, time, move |x: &[f64]| amp.fom(x))
}

/// Seeded op-amp run; returns `(result, span-name counts, counters)`.
fn instrumented_opamp_run() -> (
    easybo::OptimizationResult,
    BTreeMap<String, usize>,
    BTreeMap<String, u64>,
) {
    let bb = opamp_blackbox();
    let (telemetry, recorder) = Telemetry::recording();
    let mut opt = EasyBo::new(bb.bounds().clone());
    opt.batch_size(4)
        .initial_points(6)
        .max_evals(18)
        .seed(11)
        .telemetry(telemetry.clone());
    let result = opt.run_blackbox(&bb).expect("op-amp run completes");
    telemetry.flush();
    let mut spans: BTreeMap<String, usize> = BTreeMap::new();
    for ev in recorder.events() {
        if let Event::SpanStart { name, .. } = &ev.event {
            *spans.entry(name.to_string()).or_default() += 1;
        }
    }
    let metrics = telemetry.metrics_snapshot().expect("metrics enabled");
    let counters: BTreeMap<String, u64> = ["cholesky_update", "cholesky_downdate"]
        .iter()
        .map(|&k| (k.to_string(), metrics.counter(k)))
        .collect();
    (result, spans, counters)
}

/// Acceptance: the pseudo-point inner loop never calls the full
/// factorization — `cholesky` spans fire exactly once per hyperparameter
/// retrain, and all other factor work is rank-1 updates/downdates.
#[test]
fn opamp_run_factorizes_only_on_retrains() {
    let (result, spans, counters) = instrumented_opamp_run();
    let summary = result.report.summary.as_ref().expect("telemetry summary");

    let full = spans.get("cholesky").copied().unwrap_or(0);
    assert_eq!(
        full, summary.gp_refits,
        "full factorizations must be exactly one per retrain \
         (got {full} cholesky spans for {} refits)",
        summary.gp_refits
    );

    // Pseudo-point pushes and pops ran on the factor stack.
    let updates = counters["cholesky_update"];
    let downdates = counters["cholesky_downdate"];
    assert!(updates > 0, "expected rank-1 updates, got none");
    assert!(downdates > 0, "expected rank-1 downdates, got none");
    // Every pseudo-point push is popped again; appends are never popped.
    assert_eq!(
        downdates as usize, summary.pseudo_points,
        "each hallucinated pseudo-point is one downdate"
    );
    assert!(
        updates > downdates,
        "appends mean more updates ({updates}) than downdates ({downdates})"
    );
    // The rank-1 spans surface alongside the counters.
    assert_eq!(spans.get("cholesky_update").copied().unwrap_or(0), {
        updates as usize
    });
    assert_eq!(
        spans.get("cholesky_downdate").copied().unwrap_or(0),
        downdates as usize
    );

    // The run report mines the same numbers for the regression gate.
    assert_eq!(result.report.cholesky_updates, Some(updates));
    assert_eq!(result.report.cholesky_downdates, Some(downdates));
    assert_eq!(result.report.gp_factorizations, Some(full as u64));
    let share = result
        .report
        .incremental_update_share
        .expect("share populated");
    assert!(
        share > 0.5,
        "most factor work should be rank-1 updates, share = {share}"
    );
}

/// FNV-1a 64 over the little-endian bits of every coordinate and then the
/// observation, point by point in dataset order.
fn trajectory_digest(data: &easybo_exec::Dataset) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |v: f64| {
        for b in v.to_bits().to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for (x, &y) in data.xs().iter().zip(data.ys()) {
        x.iter().for_each(|&v| eat(v));
        eat(y);
    }
    h
}

/// Seeded constrained run on the unit square:
/// maximize `exp(−(x₀−0.3)²−(x₁−0.6)²)` subject to `x₀+x₁−0.5 ≥ 0`.
fn constrained_run(telemetry: Option<Telemetry>) -> easybo::OptimizationResult {
    let objective = |x: &[f64]| (-(x[0] - 0.3).powi(2) - (x[1] - 0.6).powi(2)).exp();
    let constraint = |x: &[f64]| x[0] + x[1] - 0.5;
    let problem = easybo::ConstrainedProblem::new(&objective).subject_to(&constraint);
    let mut opt = EasyBo::new(easybo_opt::Bounds::unit_cube(2).unwrap());
    opt.batch_size(4).initial_points(6).max_evals(22).seed(3);
    if let Some(t) = telemetry {
        opt.telemetry(t);
    }
    opt.run_constrained(&problem)
        .expect("constrained run completes")
}

/// Absolute trajectory pin: every registry algorithm, every penalization
/// mode of the async policy, and a constrained run reproduce the recorded
/// FNV-1a digest of their full dataset. Any change to the floating-point
/// work of the surrogate, the penalization stack or the acquisition
/// maximizer that alters a single bit of a query or an observation fails
/// here.
#[test]
fn every_policy_trajectory_matches_its_pinned_digest() {
    use easybo::policies::{AcqOptConfig, EasyBoAsyncPolicy, PenalizationMode};
    use easybo::{Algorithm, SurrogateConfig};
    use easybo_exec::VirtualExecutor;
    use rand::{rngs::StdRng, SeedableRng};

    let pinned: [(&str, u64); 19] = [
        ("lcb", 0xd979685e382951a5),
        ("ei", 0xa9daca34bacdf73c),
        ("easybo-seq", 0x04d14fad9adad927),
        ("pbo", 0x41c96e53e56c2d3c),
        ("phcbo", 0x4198b01ee06b1079),
        ("easybo-s", 0xd2eb067a2e6e1118),
        ("easybo-a", 0x80c0a3c9f59adc46),
        ("easybo-sp", 0x2ad7c955803c38a4),
        ("easybo", 0xdd93cc003d27a0c6),
        ("bucb", 0xa93327f705e3baae),
        ("lp", 0xc42f3a780e8b4704),
        ("eps-greedy", 0xc065b72e42941cee),
        ("pessimistic", 0x601bd2915979bf2d),
        ("standard", 0xf33aac8902b44cfc),
        ("de", 0x5c6129b75f35b5a0),
        ("mean", 0xd3299bb910796c60),
        ("liar-min", 0xa196de45517d1583),
        ("liar-max", 0x261f769fce6e3ff8),
        ("constrained", 0x385af7a735d79ace),
    ];

    let bb = opamp_blackbox();
    let mut got: BTreeMap<&str, u64> = BTreeMap::new();
    for algo in Algorithm::all() {
        let run = algo.run(&bb, 4, 24, 8, 24, 5);
        got.insert(algo.key(), trajectory_digest(&run.data));
    }
    for (name, mode) in [
        ("mean", PenalizationMode::HallucinateMean),
        ("liar-min", PenalizationMode::ConstantLiarMin),
        ("liar-max", PenalizationMode::ConstantLiarMax),
    ] {
        let bounds = bb.bounds().clone();
        let init = easybo_opt::sampling::latin_hypercube(&bounds, 8, &mut StdRng::seed_from_u64(7));
        let mut policy = EasyBoAsyncPolicy::with_configs(
            bounds,
            true,
            6.0,
            7,
            SurrogateConfig::default(),
            AcqOptConfig::for_dim(10),
        );
        policy.penalization_mode(mode);
        let run = VirtualExecutor::new(4).run_async(&bb, &init, 24, &mut policy);
        got.insert(name, trajectory_digest(&run.data));
    }
    got.insert(
        "constrained",
        trajectory_digest(&constrained_run(None).data),
    );

    let mismatched: Vec<String> = pinned
        .iter()
        .filter(|(name, want)| got.get(name) != Some(want))
        .map(|(name, want)| format!("{name}: want {want:016x}, got {:016x?}", got.get(name)))
        .collect();
    assert_eq!(got.len(), pinned.len(), "every pinned run was executed");
    assert!(
        mismatched.is_empty(),
        "trajectories diverged:\n{}",
        mismatched.join("\n")
    );
}

/// Attaching a recording telemetry handle to the constrained run changes
/// nothing in its trajectory, and the run reports the busy points it
/// hallucinated on the factor stack.
#[test]
fn constrained_trajectory_is_identical_with_telemetry() {
    let (telemetry, _recorder) = Telemetry::recording();
    let traced = constrained_run(Some(telemetry.clone()));
    telemetry.flush();
    assert_eq!(
        trajectory_digest(&traced.data),
        trajectory_digest(&constrained_run(None).data)
    );
    let summary = traced.report.summary.as_ref().expect("telemetry summary");
    assert!(
        summary.pseudo_points > 0,
        "constrained runs push busy points"
    );
    let metrics = telemetry.metrics_snapshot().expect("metrics enabled");
    assert_eq!(
        metrics.counter("pseudo_points_added"),
        summary.pseudo_points as u64
    );
    assert!(metrics.counter("cholesky_downdate") >= summary.pseudo_points as u64);
}
