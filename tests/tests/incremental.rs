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
//!   observation fails here;
//! * when a non-finite observation makes the surrogate fit fail, every
//!   policy falls back to uniform draws, and a pinned digest of those
//!   draws fixes the fallback branch the trajectory digests never reach.

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
        ("lcb", 0xe38dfe7ba9c816b1),
        ("ei", 0x94b63f47d4869621),
        ("easybo-seq", 0xc9c4dc44b5fe1e11),
        ("pbo", 0x80a062353110ff8d),
        ("phcbo", 0x466630f01ad22e3c),
        ("easybo-s", 0x74d56a27dafe2344),
        ("easybo-a", 0x13739d52593d3dc9),
        ("easybo-sp", 0xf944264b2264101b),
        ("easybo", 0xdc7cd8d637ba5c32),
        ("bucb", 0xdae9d207af80e75a),
        ("lp", 0xdb57caa72ccad8c0),
        ("eps-greedy", 0x6e25c7585431cba2),
        ("pessimistic", 0x172cbf029b5bfc0e),
        ("standard", 0x37556bc10f650e39),
        ("de", 0x5c6129b75f35b5a0),
        ("mean", 0x7d4e6ed87b2cb8d0),
        ("liar-min", 0xbdedeb359252084e),
        ("liar-max", 0x4b329925e7f3a29a),
        ("constrained", 0x649fde978e2cd636),
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

/// Fallback pin: on a dataset whose last observation is +∞, NaN or −∞ the
/// surrogate fit fails (seven points are too few for the winsorization
/// fence to clamp the low side), so every policy takes its uniform-draw
/// fallback. Each registry policy and the constrained policy make two
/// consecutive selections per non-finite value; the FNV-1a digest of all
/// their draws is pinned, so a change to the fallback's RNG use or to
/// when a fit counts as failed fails here.
#[test]
fn every_policy_fallback_draw_matches_its_pinned_digest() {
    use easybo::{Algorithm, ConstrainedPolicy, ConstrainedProblem, Parallelism};
    use easybo_exec::{AsyncPolicy, Dataset};
    use rand::{rngs::StdRng, SeedableRng};

    let pinned: [(&str, u64); 15] = [
        ("lcb", 0x388eba147a02bb06),
        ("ei", 0x388eba147a02bb06),
        ("easybo-seq", 0x388eba147a02bb06),
        ("pbo", 0x6f15d925a3807e20),
        ("phcbo", 0x6f15d925a3807e20),
        ("easybo-s", 0xbf8735dbf0a51ee5),
        ("easybo-a", 0x1b4bd172d133ee77),
        ("easybo-sp", 0xbf8735dbf0a51ee5),
        ("easybo", 0x1b4bd172d133ee77),
        ("bucb", 0xb361a79abe464db6),
        ("lp", 0x6f59dab203b9486b),
        ("eps-greedy", 0xe80bbdf757c95a2f),
        ("pessimistic", 0x7354d9148198a831),
        ("standard", 0xfc096f6e6c86978f),
        ("constrained", 0x4cfc8bc68c79ddcf),
    ];

    let bb = opamp_blackbox();
    let bounds = bb.bounds().clone();
    let xs = easybo_opt::sampling::latin_hypercube(&bounds, 7, &mut StdRng::seed_from_u64(13));
    let datasets: Vec<Dataset> = [f64::INFINITY, f64::NAN, f64::NEG_INFINITY]
        .into_iter()
        .map(|bad| {
            let mut data = Dataset::new();
            for x in &xs[..6] {
                data.push(x.clone(), bb.evaluate(x).value);
            }
            data.push(xs[6].clone(), bad);
            data
        })
        .collect();
    let digest = |draws: &[Vec<f64>]| {
        let mut flat = Dataset::new();
        for x in draws {
            flat.push(x.clone(), 0.0);
        }
        trajectory_digest(&flat)
    };

    let mut got: BTreeMap<&str, u64> = BTreeMap::new();
    for algo in Algorithm::all() {
        let mut draws = Vec::new();
        for data in &datasets {
            let par = Parallelism::new(1);
            if let Some(mut p) = algo.async_policy(bounds.clone(), 5, par) {
                for _ in 0..2 {
                    draws.push(p.select_next(data, &[]));
                }
            } else if let Some(mut p) = algo.sync_policy(bounds.clone(), 5, par) {
                for _ in 0..2 {
                    draws.extend(p.select_batch(data, 3));
                }
            }
        }
        if !draws.is_empty() {
            assert!(draws.iter().all(|x| bounds.contains(x)), "{}", algo.key());
            got.insert(algo.key(), digest(&draws));
        }
    }
    let objective = |x: &[f64]| x[0];
    let constraint = |x: &[f64]| x[1] - x[2];
    let problem = ConstrainedProblem::new(&objective).subject_to(&constraint);
    let mut draws = Vec::new();
    for data in &datasets {
        let mut p = ConstrainedPolicy::new(&problem, bounds.clone(), 5);
        for _ in 0..2 {
            draws.push(p.select_next(data, &[]));
        }
    }
    got.insert("constrained", digest(&draws));

    let mismatched: Vec<String> = pinned
        .iter()
        .filter(|(name, want)| got.get(name) != Some(want))
        .map(|(name, want)| format!("{name}: want {want:016x}, got {:016x?}", got.get(name)))
        .collect();
    assert_eq!(got.len(), pinned.len(), "every pinned policy was run");
    assert!(
        mismatched.is_empty(),
        "fallback draws diverged:\n{}",
        mismatched.join("\n")
    );
}
