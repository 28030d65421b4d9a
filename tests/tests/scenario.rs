//! Acceptance suite for the constrained sizing scenario zoo.
//!
//! Three pillars:
//!
//! 1. **Projection properties** — the reduced↔full parameter projection
//!    round-trips bitwise, linked parameters satisfy their expressions
//!    exactly, and free parameters stay inside their bounds, over
//!    randomly generated link structures.
//! 2. **Chaos matrix** — the constrained matched-op-amp scenario is
//!    bit-identical across parallelism {1, 8} at fault rates {0%, 30%},
//!    and the multi-corner LDO survives kill/resume with byte-identical
//!    traces.
//! 3. **Format pinning** — the versioned constrained-policy state blob
//!    (`CNST` v1 and v2) keeps restoring from its committed golden bytes, and
//!    constrained snapshots are fingerprint-isolated from plain ones.

use easybo::{
    ConstrainedPolicy, ConstrainedProblem, EasyBo, EasyBoError, FaultPlan, FaultyBlackBox,
    RetryPolicy, Telemetry,
};
use easybo_exec::{AsyncPolicy, BusyPoint, Dataset};
use easybo_opt::Bounds;
use easybo_scenario::{zoo, Link, ParamSpace, Scenario, ScenarioOutcome};
use proptest::prelude::*;

fn tmp(name: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!(
        "easybo-scenario-{}-{name}.snap",
        std::process::id()
    ))
}

// ---------------------------------------------------------------------
// 1. Projection properties over random link structures.
// ---------------------------------------------------------------------

/// Name pool so generated spaces can use `&'static str` names.
const NAMES: [&str; 8] = ["p0", "p1", "p2", "p3", "p4", "p5", "p6", "p7"];

/// Builds a random space of `n` parameters over `[0, 1]`: `p0` is
/// always free (so every link is valid by construction), and each
/// later parameter is free, copied from `p0`, or scaled from `p0`
/// according to `kinds`/`factors`.
fn build_space(n: usize, kinds: &[u32], factors: &[f64]) -> ParamSpace {
    let mut space = ParamSpace::new(NAMES[..n].iter().map(|name| (*name, 0.0, 1.0)).collect());
    for i in 1..n {
        match kinds[i - 1] % 4 {
            2 => space = space.link(NAMES[i], "p0"),
            3 => space = space.link_scaled(NAMES[i], "p0", factors[i - 1]),
            _ => {}
        }
    }
    space
}

proptest! {
    /// Free coordinates pass through `to_full` and back **bitwise**.
    #[test]
    fn projection_round_trips_bitwise(
        n in 3usize..=8,
        kinds in proptest::collection::vec(0u32..4, 7..8),
        factors in proptest::collection::vec(0.5f64..4.0, 7..8),
        raw in proptest::collection::vec(0.0f64..1.0, 8..9),
    ) {
        let space = build_space(n, &kinds, &factors);
        let reduced = &raw[..space.reduced_dim()];
        let full = space.to_full(reduced);
        prop_assert_eq!(full.len(), space.raw_dim());
        let back = space.to_reduced(&full);
        prop_assert_eq!(back.len(), reduced.len());
        for (a, b) in back.iter().zip(reduced) {
            prop_assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    /// Linked parameters satisfy their expressions exactly: `Copy`
    /// targets are bitwise equal to their source, `Scaled` targets are
    /// exactly `factor * source` (one IEEE multiplication, no drift).
    #[test]
    fn links_hold_bitwise(
        n in 3usize..=8,
        kinds in proptest::collection::vec(0u32..4, 7..8),
        factors in proptest::collection::vec(0.5f64..4.0, 7..8),
        raw in proptest::collection::vec(0.0f64..1.0, 8..9),
    ) {
        let space = build_space(n, &kinds, &factors);
        let full = space.to_full(&raw[..space.reduced_dim()]);
        for (i, link) in space.links().iter().enumerate() {
            match *link {
                Link::Free => {}
                Link::Copy(s) => prop_assert_eq!(full[i].to_bits(), full[s].to_bits()),
                Link::Scaled(s, k) => {
                    prop_assert_eq!(full[i].to_bits(), (k * full[s]).to_bits())
                }
            }
        }
    }

    /// In-bounds reduced points project to in-bounds free parameters,
    /// and the reduced space is strictly smaller whenever a link exists.
    #[test]
    fn bounds_and_dimensionality_are_preserved(
        n in 3usize..=8,
        kinds in proptest::collection::vec(0u32..4, 7..8),
        factors in proptest::collection::vec(0.5f64..4.0, 7..8),
        raw in proptest::collection::vec(0.0f64..1.0, 8..9),
    ) {
        let space = build_space(n, &kinds, &factors);
        let reduced = &raw[..space.reduced_dim()];
        prop_assert!(space.reduced_bounds().contains(reduced));
        let full = space.to_full(reduced);
        for &i in &space.free_indices() {
            prop_assert!((0.0..=1.0).contains(&full[i]));
        }
        let n_links = space.links().iter().filter(|l| **l != Link::Free).count();
        prop_assert_eq!(space.reduced_dim(), space.raw_dim() - n_links);
        if n_links > 0 {
            prop_assert!(space.reduced_dim() < space.raw_dim());
        }
    }
}

// ---------------------------------------------------------------------
// 2. Chaos matrix: parallelism × faults, kill/resume.
// ---------------------------------------------------------------------

/// Runs the matched-op-amp scenario with the given thread-count and
/// fault rate (faults injected *around* the whole corner fan-out, with
/// retries to absorb them).
fn chaotic_opamp_run(parallelism: usize, fail_rate: f64) -> easybo::OptimizationResult {
    let scenario = zoo::matched_opamp();
    let objective = |x: &[f64]| scenario.worst_fom(x);
    let c0 = |x: &[f64]| scenario.spec_slack(x, 0);
    let c1 = |x: &[f64]| scenario.spec_slack(x, 1);
    let problem = ConstrainedProblem::new(&objective)
        .subject_to_named(scenario.specs()[0].name(), &c0)
        .subject_to_named(scenario.specs()[1].name(), &c1);

    let mut opt = scenario.optimizer();
    opt.batch_size(3)
        .initial_points(6)
        .max_evals(12)
        .seed(13)
        .parallelism(parallelism);
    if fail_rate > 0.0 {
        opt.retry_policy(RetryPolicy::default().max_attempts(8).backoff(3.0, 2.0));
        let bb = FaultyBlackBox::new(
            scenario.blackbox(),
            FaultPlan {
                seed: 29,
                fail_rate,
                ..FaultPlan::default()
            },
        );
        opt.run_constrained_blackbox(&problem, &bb).unwrap()
    } else {
        opt.run_constrained_blackbox(&problem, &scenario.blackbox())
            .unwrap()
    }
}

/// Parallelism {1, 8} × fault {0%, 30%}: within each fault rate the
/// trace CSV and dataset must be byte-for-byte identical across the
/// thread-count knob.
#[test]
fn constrained_opamp_is_bit_identical_across_parallelism_and_faults() {
    for &fail_rate in &[0.0, 0.3] {
        let base = chaotic_opamp_run(1, fail_rate);
        let wide = chaotic_opamp_run(8, fail_rate);
        assert_eq!(
            base.trace.to_csv(),
            wide.trace.to_csv(),
            "trace diverged at fail_rate {fail_rate}"
        );
        assert_eq!(base.data, wide.data, "dataset diverged at {fail_rate}");
        assert_eq!(base.best_x, wide.best_x);
        assert!(base.trace.to_csv().lines().count() > 1, "run did something");
    }
}

fn ldo_outcome(opt: &EasyBo, scenario: &Scenario) -> ScenarioOutcome {
    scenario.run_with(opt).unwrap()
}

/// Kill the multi-corner LDO scenario mid-run, resume from the
/// checkpoint, and require the stitched run to be byte-identical to the
/// uninterrupted baseline.
#[test]
fn multicorner_ldo_survives_kill_and_resume_byte_identically() {
    let scenario = zoo::multicorner_ldo();
    let mut opt = scenario.optimizer();
    opt.batch_size(4).initial_points(6).max_evals(14).seed(5);
    let baseline = ldo_outcome(&opt, &scenario);

    for kill in [7usize, 11] {
        let path = tmp(&format!("ldo-kill-{kill}"));
        let mut killed = opt.clone();
        killed
            .checkpoint_to(&path)
            .checkpoint_every(1)
            .abort_after_evals(kill);
        let err = scenario.run_with(&killed).unwrap_err();
        assert!(
            matches!(err, EasyBoError::Opt(_)),
            "kill should abort: {err}"
        );

        let resumed = scenario.resume_with(&opt, &path).unwrap();
        std::fs::remove_file(&path).ok();
        assert_eq!(
            resumed.result.trace.to_csv(),
            baseline.result.trace.to_csv(),
            "trace diverged after kill at {kill}"
        );
        assert_eq!(resumed.result.data, baseline.result.data);
        assert_eq!(resumed.best_full, baseline.best_full);
        assert_eq!(resumed.best_slacks, baseline.best_slacks);
        assert_eq!(resumed.corner_foms, baseline.corner_foms);
    }
}

/// A constrained checkpoint must not resume as a plain run (and vice
/// versa): the `CNST` fingerprint keeps the two snapshot families apart.
#[test]
fn constrained_snapshots_are_fingerprint_isolated() {
    let scenario = zoo::multicorner_ldo();
    let mut opt = scenario.optimizer();
    opt.batch_size(4).initial_points(6).max_evals(14).seed(6);

    let path = tmp("fingerprint");
    let mut killed = opt.clone();
    killed
        .checkpoint_to(&path)
        .checkpoint_every(1)
        .abort_after_evals(8);
    let _ = scenario.run_with(&killed).unwrap_err();

    // Plain resume against the constrained snapshot: config mismatch.
    let err = opt.resume_from(&path, &scenario.blackbox()).unwrap_err();
    assert!(
        matches!(err, EasyBoError::Persist(_)),
        "plain resume must reject a constrained snapshot, got {err}"
    );
    assert!(
        err.to_string().contains("fingerprint"),
        "rejection should name the fingerprint mismatch: {err}"
    );
    std::fs::remove_file(&path).ok();
}

/// End-to-end acceptance: both zoo scenarios run through the async
/// optimizer, search strictly fewer dimensions than the raw parameter
/// count (where links exist), report a best *feasible* design, and
/// surface the feasibility split in the run report.
#[test]
fn zoo_scenarios_run_end_to_end_with_feasible_incumbents() {
    let (telemetry, _recorder) = Telemetry::recording();
    let opamp = zoo::matched_opamp();
    assert!(opamp.space().reduced_dim() < opamp.space().raw_dim());
    let mut opt = opamp.optimizer();
    opt.batch_size(4)
        .initial_points(10)
        .max_evals(24)
        .seed(3)
        .telemetry(telemetry);
    let outcome = opamp.run_with(&opt).unwrap();
    assert!(outcome.best_slacks.iter().all(|s| *s >= 0.0));
    assert_eq!(outcome.best_full.len(), 14);
    assert_eq!(outcome.result.best_x.len(), 10);
    // The linked halves are bitwise equal in the reported raw design.
    assert_eq!(
        outcome.best_full[0].to_bits(),
        outcome.best_full[2].to_bits()
    );
    assert_eq!(
        outcome.best_full[1].to_bits(),
        outcome.best_full[3].to_bits()
    );
    let frac = outcome
        .result
        .report
        .feasible_fraction
        .expect("feasibility counters attached");
    assert!((0.0..=1.0).contains(&frac));

    let ldo = zoo::multicorner_ldo();
    let mut opt = ldo.optimizer();
    opt.batch_size(4).initial_points(8).max_evals(16).seed(2);
    let outcome = ldo.run_with(&opt).unwrap();
    assert!(outcome.best_slacks.iter().all(|s| *s >= 0.0));
    // Worst-case aggregation: the reported best value is the minimum
    // corner FOM of the incumbent.
    let min_corner = outcome
        .corner_foms
        .iter()
        .map(|(_, f)| *f)
        .fold(f64::INFINITY, f64::min);
    assert_eq!(outcome.result.best_value, min_corner);
}

// ---------------------------------------------------------------------
// 3. Golden files: constrained policy blobs (CNST v1 and v2) as
//    committed bytes.
// ---------------------------------------------------------------------

/// Deterministic observations feeding the golden constrained policy.
fn golden_dataset() -> Dataset {
    let mut data = Dataset::new();
    data.push(vec![0.25, 0.75], -0.5);
    data.push(vec![0.5, 0.5], 0.125);
    data.push(vec![0.125, 0.625], 0.75);
    data.push(vec![0.9, 0.1], -1.5);
    data
}

/// Runs `f` on a fresh policy for the golden constrained problem.
fn with_golden_cnst_policy<R>(f: impl FnOnce(&mut ConstrainedPolicy<'_>) -> R) -> R {
    let objective = |x: &[f64]| -(x[0] - 0.3).powi(2) - (x[1] - 0.6).powi(2);
    let constraint = |x: &[f64]| x[0] + x[1] - 0.4;
    let problem = ConstrainedProblem::new(&objective).subject_to_named("sum>=0.4", &constraint);
    let mut opt = EasyBo::new(Bounds::unit_cube(2).unwrap());
    opt.seed(42);
    f(&mut opt.build_constrained_policy(&problem))
}

fn golden_blob_path(name: &str) -> std::path::PathBuf {
    std::path::Path::new(concat!(env!("CARGO_MANIFEST_DIR"), "/data")).join(name)
}

/// Three selections of a policy restored from a golden blob: on the
/// golden dataset, after one more observation (an incremental append to
/// the restored factor), and with one busy point (a pseudo-point push).
/// The bit patterns are those the CNST v1 golden selected before factor
/// replay existed.
fn assert_golden_selections(policy: &mut ConstrainedPolicy<'_>, blob: &str) {
    let mut data = golden_dataset();
    let mut got = vec![policy.select_next(&data, &[])];
    data.push(vec![0.35, 0.55], -0.01);
    got.push(policy.select_next(&data, &[]));
    let busy = BusyPoint {
        x: vec![0.4, 0.4],
        task: 9,
        worker: 1,
    };
    got.push(policy.select_next(&data, &[busy]));
    let bits: Vec<[u64; 2]> = got
        .iter()
        .map(|x| [x[0].to_bits(), x[1].to_bits()])
        .collect();
    assert_eq!(
        bits,
        [
            [0x3ff0_0000_0000_0000, 0x3ff0_0000_0000_0000],
            [0x3ff0_0000_0000_0000, 0x3fd7_7ad9_85ea_eafc],
            [0x3ff0_0000_0000_0000, 0x3fda_e957_9a17_2bd0],
        ],
        "selections after restoring {blob}"
    );
}

/// The committed `tests/data/golden_cnst_v1.blob`, written before factor
/// replay, stores its GP's Cholesky factor verbatim. It must keep
/// restoring and selecting exactly as it did, and its re-snapshot is a
/// CNST v2 blob that still carries the stored factors.
#[test]
fn golden_cnst_v1_blob_still_restores() {
    let blob = std::fs::read(golden_blob_path("golden_cnst_v1.blob")).expect("committed v1 blob");
    with_golden_cnst_policy(|restored| {
        restored.restore_state(&blob).unwrap_or_else(|e| {
            panic!("the committed golden CNST v1 blob no longer restores: {e}")
        });
        let migrated = restored.snapshot_state().expect("constrained blob");
        assert_eq!(&migrated[..4], b"CNST");
        assert_eq!(migrated[4..8], 2u32.to_le_bytes(), "re-snapshots as v2");
        // One tag byte per GP (the objective's and the constraint's).
        assert_eq!(migrated.len(), blob.len() + 2, "the factors stay stored");
        assert_golden_selections(restored, "golden_cnst_v1.blob");
    });
}

/// The committed `tests/data/golden_cnst_v2.blob` replays its factor on
/// restore, re-snapshots to the exact committed bytes, and selects what
/// the v1 golden's stored factor selects. Regenerate (after an
/// *intentional* format change, with a version bump and a migration for
/// older blobs) via
/// `EASYBO_REGEN_GOLDEN=1 cargo test -p easybo-integration --test scenario golden`.
#[test]
fn golden_cnst_v2_blob_replays_its_factor() {
    let path = golden_blob_path("golden_cnst_v2.blob");
    if std::env::var("EASYBO_REGEN_GOLDEN").is_ok() {
        let fresh = with_golden_cnst_policy(|policy| {
            let _ = policy.select_next(&golden_dataset(), &[]);
            policy.snapshot_state().expect("constrained blob")
        });
        std::fs::write(&path, fresh).unwrap();
    }
    let blob = std::fs::read(&path).expect("committed v2 blob");
    let v1 = std::fs::read(golden_blob_path("golden_cnst_v1.blob")).unwrap();
    assert!(blob.len() < v1.len(), "a replayed factor is not stored");
    with_golden_cnst_policy(|restored| {
        restored.restore_state(&blob).unwrap_or_else(|e| {
            panic!("the committed golden CNST v2 blob no longer restores: {e}")
        });
        assert_eq!(
            restored.snapshot_state().expect("constrained blob"),
            blob,
            "golden CNST v2 blob round trip is not byte-identical"
        );
        assert_golden_selections(restored, "golden_cnst_v2.blob");
    });
}

/// Bit flips anywhere in the constrained blob must be detected, never a
/// panic or a silently wrong restore.
#[test]
fn corrupted_cnst_blobs_are_rejected_loudly() {
    let objective = |x: &[f64]| -x[0];
    let constraint = |x: &[f64]| x[1] - 0.2;
    let problem = ConstrainedProblem::new(&objective).subject_to(&constraint);
    let mut opt = EasyBo::new(Bounds::unit_cube(2).unwrap());
    opt.seed(7);
    let mut policy = opt.build_constrained_policy(&problem);
    let _ = policy.select_next(&golden_dataset(), &[]);
    let blob = policy.snapshot_state().unwrap();

    for idx in [0usize, 4, blob.len() / 2, blob.len() - 1] {
        let mut bad = blob.clone();
        bad[idx] ^= 0x20;
        let mut target = opt.build_constrained_policy(&problem);
        // Either an explicit decode error or (for payload-interior
        // flips) a value-level mismatch is acceptable; silent success
        // restoring *different* state is not. A flipped byte that
        // decodes identically is impossible because every field is
        // length-checked and the tail must be fully consumed.
        if target.restore_state(&bad).is_ok() {
            assert_ne!(
                target.snapshot_state().unwrap(),
                blob,
                "corrupted blob silently restored as the original"
            );
        }
    }
}
