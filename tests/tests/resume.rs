//! Kill-and-resume determinism suite for the checkpoint subsystem.
//!
//! The headline invariant: a run killed at an *arbitrary* point and
//! resumed from its last snapshot produces a final best-so-far trace
//! byte-identical to the uninterrupted run — across seeds, kill points,
//! and parallelism levels, with and without fault injection. Plus
//! property tests over the snapshot codec and a committed golden file
//! pinning format version 1 on disk.

use easybo::{Algorithm, AlgorithmMode, EasyBo, EasyBoError, Parallelism, Telemetry};
use easybo_exec::{
    AsyncPolicy, CostedFunction, Dataset, FaultPlan, FaultyBlackBox, HookAction, InFlightTask,
    PendingBackoff, RetryPolicy, SessionParts, SessionState, SimTimeModel, TaskSpan,
    VirtualExecutor,
};
use easybo_opt::{sampling, Bounds};
use easybo_persist::{
    decode_session, decode_snapshot, encode_session, encode_snapshot, load_snapshot, save_snapshot,
    RunSnapshot,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn tmp(name: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("easybo-resume-{}-{name}.snap", std::process::id()))
}

fn objective(x: &[f64]) -> f64 {
    (-((x[0] - 0.35).powi(2) + (x[1] - 0.65).powi(2))).exp()
}

fn optimizer(seed: u64, batch: usize) -> EasyBo {
    let bounds = Bounds::unit_cube(2).unwrap();
    let mut opt = EasyBo::new(bounds);
    opt.batch_size(batch)
        .initial_points(6)
        .max_evals(18)
        .seed(seed);
    opt
}

/// Headline invariant: seeds {0, 1, 2} × kill points {early, mid, late}
/// × parallelism {1, 8}. Every resumed run's trace CSV must be
/// byte-identical to the uninterrupted baseline's.
#[test]
fn killed_and_resumed_runs_reproduce_uninterrupted_traces() {
    for &batch in &[1usize, 8] {
        for seed in 0..3u64 {
            let baseline = optimizer(seed, batch).run(objective).unwrap();
            for &(label, kill) in &[("early", 7usize), ("mid", 12), ("late", 16)] {
                let path = tmp(&format!("headline-{batch}-{seed}-{label}"));
                let mut killed = optimizer(seed, batch);
                killed
                    .checkpoint_to(&path)
                    .checkpoint_every(2)
                    .abort_after_evals(kill);
                let err = killed.run(objective).unwrap_err();
                assert!(
                    matches!(err, EasyBoError::Opt(_)),
                    "kill should abort: {err}"
                );

                let resumed = optimizer(seed, batch).resume(&path, objective).unwrap();
                std::fs::remove_file(&path).ok();

                let tag = format!("seed {seed} batch {batch} kill {label}");
                assert_eq!(
                    resumed.trace.to_csv(),
                    baseline.trace.to_csv(),
                    "trace diverged: {tag}"
                );
                assert_eq!(resumed.data, baseline.data, "dataset diverged: {tag}");
                assert_eq!(resumed.best_x, baseline.best_x, "best diverged: {tag}");
            }
        }
    }
}

/// A real checkpoint whose checksums pass but whose session or policy
/// contents were edited must make resume fail with an error that names
/// the field — never panic. Each edit is re-saved, so every CRC is valid.
#[test]
fn resume_rejects_edited_checkpoints_with_valid_crcs() {
    let path = tmp("hostile");
    let mut killed = optimizer(3, 4);
    killed
        .checkpoint_to(&path)
        .checkpoint_every(1)
        .abort_after_evals(12);
    killed.run(objective).unwrap_err();
    let clean = load_snapshot(&path).unwrap();
    assert!(clean.session.inflight.len() >= 3 && !clean.session.spans.is_empty());
    type Edit = fn(&mut SessionParts);
    let edits: [(&str, Edit); 12] = [
        ("workers", |p| p.workers = 0),
        ("spans[0].worker", |p| p.spans[0].worker = p.workers),
        ("spans[1].end", |p| p.spans[1].end = p.spans[1].start - 1.0),
        ("inflight[0].started", |p| {
            p.inflight[0].started = Some((p.workers + 3, 1.0))
        }),
        ("trace[1].time", |p| p.trace[1].0 = -5.0),
        ("trace[0].time", |p| p.trace[0].0 = f64::NAN),
        ("resolved", |p| p.resolved = p.issued + 1),
        ("issued", |p| p.issued = p.max_evals + 1),
        ("observations[2]", |p| p.observations[2].0.push(0.5)),
        ("inflight[0]", |p| p.inflight[0].x.clear()),
        ("inflight[1].task", |p| {
            p.inflight[1].task = p.inflight[0].task
        }),
        ("backoffs[0].task", |p| {
            // The last in-flight attempt turned into a backoff that
            // reuses the first one's task id.
            let t = p.inflight.pop().unwrap();
            p.backoffs.push(PendingBackoff {
                due: p.clock + 1.0,
                worker: t.started.unwrap().0,
                task: p.inflight[0].task,
                attempt: 2,
                x: t.x,
            });
        }),
    ];
    let rejects = |snap: &RunSnapshot, field: &str| {
        save_snapshot(&path, snap).unwrap();
        let err = optimizer(3, 4)
            .resume(&path, objective)
            .expect_err("an inconsistent snapshot must not resume");
        assert!(
            matches!(err, EasyBoError::Persist(_)) && err.to_string().contains(field),
            "{field}: {err}"
        );
    };
    for (field, edit) in edits {
        let mut snap = clean.clone();
        edit(&mut snap.session);
        rejects(&snap, field);
    }
    // The policy blob's GP state: a factorization of more rows than the
    // GP holds, and a jitter the replayed factorization does not settle on.
    let blob = clean.policy.as_ref().expect("EasyBO snapshots its policy");
    let gp = GpFactorFields::find(blob);
    let blob_edits: [(&str, BlobEdit); 2] = [
        ("n_factored", |b, gp| {
            b[gp.n_factored..gp.n_factored + 8].copy_from_slice(&(gp.n as u64 + 1).to_le_bytes())
        }),
        ("chol_jitter", |b, gp| {
            let jitter = f64::from_le_bytes(b[gp.jitter..gp.jitter + 8].try_into().unwrap());
            let edited = if jitter == 0.0 { 1e-9 } else { jitter * 2.0 };
            b[gp.jitter..gp.jitter + 8].copy_from_slice(&edited.to_le_bytes())
        }),
    ];
    for (field, edit) in blob_edits {
        let mut snap = clean.clone();
        edit(snap.policy.as_mut().unwrap(), &gp);
        rejects(&snap, field);
    }
    std::fs::remove_file(&path).ok();
}

type BlobEdit = fn(&mut [u8], &GpFactorFields);

/// Where the GP state of an EasyBO policy blob (version 2) keeps its
/// factor fields, found by walking the layout that
/// `easybo::persistence` writes.
struct GpFactorFields {
    /// Training points in the GP state.
    n: usize,
    /// Offset of the `n_factored` word of a replayed factor.
    n_factored: usize,
    /// Offset of the jitter word.
    jitter: usize,
}

impl GpFactorFields {
    fn find(blob: &[u8]) -> Self {
        assert_eq!(blob[..4], 2u32.to_le_bytes(), "version word");
        // Version, RNG words, fallbacks, fitted_n, last_trained_n, fence.
        let mut c = Cursor {
            blob,
            at: 4 + 4 * 8 + 4 * 8,
        };
        if c.byte() == 1 {
            c.skip_f64s(); // warm-start vector
        }
        assert_eq!(c.byte(), 1, "the snapshot carries a GP");
        c.at += 1 + 8; // kernel tag, dimension
        c.skip_f64s(); // theta
        c.at += 8; // log noise
        let n = c.word();
        for _ in 0..n {
            c.skip_f64s();
        }
        c.skip_f64s(); // z
        c.at += 16; // scaler mean and std
        assert_eq!(c.byte(), 0, "a replayed factor");
        GpFactorFields {
            n,
            n_factored: c.at,
            jitter: c.at + 8,
        }
    }
}

/// A read position in a policy blob.
struct Cursor<'a> {
    blob: &'a [u8],
    at: usize,
}

impl Cursor<'_> {
    fn byte(&mut self) -> u8 {
        self.at += 1;
        self.blob[self.at - 1]
    }

    fn word(&mut self) -> usize {
        self.at += 8;
        u64::from_le_bytes(self.blob[self.at - 8..self.at].try_into().unwrap()) as usize
    }

    fn skip_f64s(&mut self) {
        let len = self.word();
        self.at += 8 * len;
    }
}

/// Checkpointing disabled (the default) uses the legacy entry point;
/// enabling it must not perturb the trajectory either — the hook is a
/// pure observer. Both must match bit for bit.
#[test]
fn checkpointing_never_perturbs_the_run() {
    let plain = optimizer(1, 8).run(objective).unwrap();
    let path = tmp("observer");
    let mut ckpt = optimizer(1, 8);
    ckpt.checkpoint_to(&path).checkpoint_every(1);
    let with_ckpt = ckpt.run(objective).unwrap();
    std::fs::remove_file(&path).ok();
    assert_eq!(plain.data, with_ckpt.data);
    assert_eq!(plain.trace.to_csv(), with_ckpt.trace.to_csv());
    assert_eq!(plain.schedule, with_ckpt.schedule);
}

/// Chaos variant: injected failures + a real retry policy, killed
/// mid-run with backoffs and in-flight retries pending. Resume must
/// splice the interrupted retry machinery back together bit-for-bit.
#[test]
fn kill_and_resume_with_faults_and_retries_is_bit_identical() {
    let bounds = Bounds::unit_cube(1).unwrap();
    let mk_bb = || {
        let time = SimTimeModel::new(&bounds, 30.0, 0.4, 3);
        let inner = CostedFunction::new("toy", bounds.clone(), time, |x: &[f64]| {
            1.0 - (x[0] - 0.6).abs()
        });
        FaultyBlackBox::new(
            inner,
            FaultPlan {
                seed: 7,
                fail_rate: 0.25,
                ..FaultPlan::default()
            },
        )
    };
    let mut opt = EasyBo::new(bounds.clone());
    opt.batch_size(4)
        .initial_points(6)
        .max_evals(20)
        .seed(2)
        .retry_policy(RetryPolicy::default().max_attempts(6).backoff(3.0, 2.0));
    let baseline = opt.run_blackbox(&mk_bb()).unwrap();

    let path = tmp("chaos");
    let mut killed = opt.clone();
    killed
        .checkpoint_to(&path)
        .checkpoint_every(1)
        .abort_after_evals(9);
    let _ = killed.run_blackbox(&mk_bb()).unwrap_err();

    let resumed = opt.resume_from(&path, &mk_bb()).unwrap();
    std::fs::remove_file(&path).ok();
    assert_eq!(resumed.trace.to_csv(), baseline.trace.to_csv());
    assert_eq!(resumed.data, baseline.data);
}

/// Threaded executor: real-time scheduling is not bit-reproducible, so
/// the contract is no lost work — every checkpointed observation
/// survives the splice verbatim and the budget completes exactly once.
#[test]
fn threaded_kill_and_resume_loses_no_work() {
    let bounds = Bounds::unit_cube(2).unwrap();
    let time = SimTimeModel::new(&bounds, 5.0, 0.2, 0);
    let bb = CostedFunction::new("toy", bounds.clone(), time, objective);
    let mut opt = EasyBo::new(bounds);
    opt.batch_size(3).initial_points(6).max_evals(16).seed(3);

    let path = tmp("threaded");
    let mut killed = opt.clone();
    killed
        .checkpoint_to(&path)
        .checkpoint_every(1)
        .abort_after_evals(8);
    let err = killed.run_threaded(&bb, 0.0).unwrap_err();
    assert!(matches!(err, EasyBoError::Opt(_)), "{err}");

    let snap = load_snapshot(&path).unwrap();
    let preserved = snap.session.observations.clone();
    assert!(
        preserved.len() >= 8,
        "checkpoint too stale: {}",
        preserved.len()
    );

    let r = opt.resume_threaded(&path, &bb, 0.0).unwrap();
    std::fs::remove_file(&path).ok();
    assert_eq!(r.data.len(), 16);
    for (i, (x, y)) in preserved.iter().enumerate() {
        assert_eq!(r.data.xs()[i], *x, "observation {i} lost or reordered");
        assert_eq!(r.data.ys()[i].to_bits(), y.to_bits());
    }
}

/// A resumed threaded run continues the captured clock: every task
/// issued after the capture starts at or after the capture clock, so
/// the restored spans and the new ones share one timeline.
#[test]
fn threaded_resume_continues_the_captured_clock() {
    let bounds = Bounds::unit_cube(2).unwrap();
    let time = SimTimeModel::new(&bounds, 5.0, 0.2, 0);
    let bb = CostedFunction::new("toy", bounds.clone(), time, objective);
    let mut opt = EasyBo::new(bounds);
    opt.batch_size(3).initial_points(6).max_evals(16).seed(3);

    let path = tmp("threaded-clock");
    let mut killed = opt.clone();
    killed
        .checkpoint_to(&path)
        .checkpoint_every(1)
        .abort_after_evals(8);
    killed.run_threaded(&bb, 0.0).unwrap_err();
    let capture = load_snapshot(&path).unwrap().session;

    let r = opt.resume_threaded(&path, &bb, 0.0).unwrap();
    std::fs::remove_file(&path).ok();
    assert_eq!(r.data.len(), 16);
    let late: Vec<_> = (r.schedule.spans().iter())
        .filter(|s| s.task >= capture.issued)
        .collect();
    assert!(!late.is_empty(), "the resume must issue new tasks");
    for s in late {
        assert!(
            s.start >= capture.clock,
            "task {} starts at {} before the capture clock {}",
            s.task,
            s.start,
            capture.clock
        );
    }
}

/// Telemetry contract: checkpoints emit `CheckpointWritten` + counter,
/// resume emits exactly one `RunResumed` + counter.
#[test]
fn checkpoint_and_resume_emit_telemetry() {
    let path = tmp("telemetry");
    let (tel, recorder) = Telemetry::recording();
    let mut opt = optimizer(4, 4);
    opt.telemetry(tel)
        .checkpoint_to(&path)
        .checkpoint_every(3)
        .abort_after_evals(10);
    let _ = opt.run(objective).unwrap_err();
    let events = recorder.events();
    let written = events
        .iter()
        .filter(|e| e.event.kind() == "CheckpointWritten")
        .count();
    assert!(written >= 2, "expected several checkpoints, saw {written}");

    let (tel2, rec2) = Telemetry::recording();
    let mut resumer = optimizer(4, 4);
    resumer.telemetry(tel2);
    let r = resumer.resume(&path, objective).unwrap();
    std::fs::remove_file(&path).ok();
    assert_eq!(r.data.len(), 18);
    let events2 = rec2.events();
    assert_eq!(
        events2
            .iter()
            .filter(|e| e.event.kind() == "RunResumed")
            .count(),
        1
    );
    let summary = r.report.summary.expect("telemetry was attached");
    assert_eq!(summary.resumes, 1);
}

// ---------------------------------------------------------------------
// Portfolio policies: kill/resume byte-identity and blob format pins.
// ---------------------------------------------------------------------

/// The literature policies and the sequential baselines (EI, LCB,
/// EasyBO-seq; on one worker, as the registry runs them) on a raw
/// `VirtualExecutor` session:
/// checkpoint every observation, kill mid-run, rebuild a same-config
/// replacement policy, overwrite its mutable state from the snapshot
/// blob, and resume. The resumed trajectory must be byte-identical to
/// the uninterrupted run — the same contract the EasyBO policy already
/// honors, now holding for every member of the async portfolio. Kill
/// points sit early enough that a hyperparameter retrain happens
/// *after* the resume, proving the warm-start vector and retrain
/// schedule survive the round trip.
#[test]
fn portfolio_policies_kill_and_resume_bit_identical() {
    let bounds = Bounds::unit_cube(2).unwrap();
    let time = SimTimeModel::new(&bounds, 12.0, 0.3, 5);
    let bb = CostedFunction::new("toy", bounds.clone(), time, objective);
    let init = sampling::latin_hypercube(&bounds, 6, &mut StdRng::seed_from_u64(77));
    let (batch, max_evals) = (4usize, 16usize);
    let retry = RetryPolicy::none();
    let tel = Telemetry::disabled();
    let build = |algo: Algorithm, seed: u64| {
        algo.async_policy(bounds.clone(), seed, Parallelism::sequential())
            .expect("portfolio algorithms expose an async policy")
    };

    for (algo, kill_at) in [
        (Algorithm::StandardBo, 8usize),
        (Algorithm::PessimisticBo, 9),
        (Algorithm::EpsGreedy, 10),
        (Algorithm::Ei, 10),
        (Algorithm::Lcb, 10),
        (Algorithm::EasyBoSeq, 10),
    ] {
        let batch = match algo.mode() {
            AlgorithmMode::Sequential => 1,
            _ => batch,
        };
        let mut p0 = build(algo, 77);
        let baseline = VirtualExecutor::new(batch)
            .run_session_resilient(&bb, &init, max_evals, p0.as_mut(), &retry, &tel, None)
            .expect("uninterrupted run completes");

        // Kill: snapshot after every observation, stop at `kill_at`.
        let mut latest: Option<Vec<u8>> = None;
        {
            let mut p1 = build(algo, 77);
            let mut hook = |session: &SessionState, policy: &dyn AsyncPolicy, _now: f64| {
                if session.completed() >= kill_at {
                    return HookAction::Stop {
                        reason: "injected kill".to_string(),
                    };
                }
                latest = Some(encode_snapshot(&RunSnapshot {
                    config_fingerprint: 42,
                    session: session.to_parts(),
                    policy: policy.snapshot_state(),
                }));
                HookAction::Continue
            };
            VirtualExecutor::new(batch)
                .run_session_resilient(
                    &bb,
                    &init,
                    max_evals,
                    p1.as_mut(),
                    &retry,
                    &tel,
                    Some(&mut hook),
                )
                .expect_err("the kill hook must abort the run");
        }
        let bytes = latest.expect("at least one checkpoint before the kill");
        let snap = decode_snapshot(&bytes).expect("snapshot decodes");

        // Resume: a fresh policy rebuilt from the *same* configuration
        // (seed included — config is re-derived by the resuming
        // optimizer and guarded by the snapshot fingerprint), with all
        // mutable state — RNG stream, counters, GP factorization,
        // warm-start vector — overwritten from the blob.
        let mut p2 = build(algo, 77);
        let blob = snap.policy.as_ref().expect("portfolio policies snapshot");
        p2.restore_state(blob).expect("blob restores");
        let session = SessionState::from_parts(snap.session).expect("capture is consistent");
        let resumed = VirtualExecutor::new(batch)
            .run(&bb, session, p2.as_mut(), &retry, &tel, None)
            .expect("resumed run completes");

        let tag = algo.key();
        assert_eq!(
            resumed.trace.to_csv(),
            baseline.trace.to_csv(),
            "trace diverged after kill/resume: {tag}"
        );
        assert_eq!(resumed.data, baseline.data, "dataset diverged: {tag}");
    }
}

/// Pins each new policy's blob layout: the leading four-byte kind tag,
/// the versioned-format failure message for an unsupported version, and
/// by-name refusal of a foreign policy's blob.
#[test]
fn portfolio_policy_blobs_pin_their_versioned_format() {
    let bounds = Bounds::unit_cube(2).unwrap();
    let cases: [(Algorithm, [u8; 4], &str); 6] = [
        (Algorithm::EpsGreedy, *b"EPSG", "eps-greedy"),
        (Algorithm::PessimisticBo, *b"PESS", "pessimistic"),
        (Algorithm::StandardBo, *b"STDB", "standard-acquisition"),
        (Algorithm::Ei, *b"SEQB", "sequential"),
        (Algorithm::Lcb, *b"SEQB", "sequential"),
        (Algorithm::EasyBoSeq, *b"SEQB", "sequential"),
    ];
    for (algo, tag, name) in cases {
        let mut p = algo
            .async_policy(bounds.clone(), 7, Parallelism::sequential())
            .unwrap();
        let mut data = Dataset::new();
        for i in 0..5 {
            data.push(vec![i as f64 / 5.0, 1.0 - i as f64 / 5.0], (i as f64).sin());
        }
        let _ = p.select_next(&data, &[]);
        let blob = p.snapshot_state().expect("snapshots supported");
        assert_eq!(&blob[..4], &tag, "kind tag drifted for {name}");

        // An unsupported version must fail with the pinned message.
        let mut bad = blob.clone();
        bad[4..8].copy_from_slice(&99u32.to_le_bytes());
        let err = p.restore_state(&bad).expect_err("version 99 accepted");
        assert!(
            err.contains(&format!("{name} policy blob version 99 is not supported")),
            "unexpected version-mismatch message for {name}: {err}"
        );

        // A different policy's blob is refused, naming this policy.
        let donor = match algo {
            Algorithm::EpsGreedy => Algorithm::PessimisticBo,
            _ => Algorithm::EpsGreedy,
        };
        let foreign = donor
            .async_policy(bounds.clone(), 7, Parallelism::sequential())
            .unwrap()
            .snapshot_state()
            .expect("snapshots supported");
        let err = p
            .restore_state(&foreign)
            .expect_err("foreign blob accepted");
        assert!(
            err.contains(&format!("not a {name} policy blob")),
            "unexpected foreign-blob message for {name}: {err}"
        );
    }
}

proptest! {
    /// Snapshot blobs round-trip through a wrong-seed replacement for
    /// every portfolio policy: after restoring, the clone reproduces
    /// the donor's next decision bit for bit.
    #[test]
    fn portfolio_policy_blobs_restore_the_decision_stream(seed in 0u64..500) {
        for algo in [
            Algorithm::EpsGreedy,
            Algorithm::PessimisticBo,
            Algorithm::StandardBo,
        ] {
            let bounds = Bounds::unit_cube(2).unwrap();
            let mut donor = algo
                .async_policy(bounds.clone(), seed, Parallelism::sequential())
                .unwrap();
            let mut g = Gen(seed ^ 0xf00d);
            let mut data = Dataset::new();
            for _ in 0..6 {
                let x = vec![
                    g.below(1000) as f64 / 1000.0,
                    g.below(1000) as f64 / 1000.0,
                ];
                let y = objective(&x);
                data.push(x, y);
            }
            // Advance the donor so its RNG/counters are mid-stream.
            let q = donor.select_next(&data, &[]);
            data.push(q.clone(), objective(&q));
            let blob = donor.snapshot_state().expect("snapshots supported");
            let mut clone = algo
                .async_policy(bounds, seed ^ 0xdead_beef, Parallelism::sequential())
                .unwrap();
            clone.restore_state(&blob).expect("blob restores");
            let a = donor.select_next(&data, &[]);
            let b = clone.select_next(&data, &[]);
            prop_assert!(
                a.len() == b.len()
                    && a.iter().zip(&b).all(|(x, y)| x.to_bits() == y.to_bits()),
                "decision diverged for {}: {:?} vs {:?}",
                algo.key(), a, b
            );
        }
    }
}

// ---------------------------------------------------------------------
// Property tests: the snapshot codec is the identity on bytes.
// ---------------------------------------------------------------------

/// Splitmix64 stream used to build adversarial session states: every
/// `f64` field gets a *full-bit-pattern* value, so NaN payloads,
/// infinities, subnormals and negative zero all flow through the codec.
struct Gen(u64);

impl Gen {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn f64(&mut self) -> f64 {
        f64::from_bits(self.next())
    }

    fn below(&mut self, n: u64) -> usize {
        (self.next() % n) as usize
    }

    fn x(&mut self) -> Vec<f64> {
        (0..self.below(4)).map(|_| self.f64()).collect()
    }
}

fn random_parts(g: &mut Gen) -> SessionParts {
    SessionParts {
        workers: 1 + g.below(8),
        max_evals: g.below(64),
        issued: g.below(64),
        resolved: g.below(64),
        clock: g.f64(),
        pending: (0..g.below(5)).map(|_| g.x()).collect(),
        observations: (0..g.below(6)).map(|_| (g.x(), g.f64())).collect(),
        trace: (0..g.below(6)).map(|_| (g.f64(), g.f64())).collect(),
        spans: (0..g.below(6))
            .map(|_| TaskSpan {
                worker: g.below(8),
                task: g.below(64),
                start: g.f64(),
                end: g.f64(),
                failed: g.next() & 1 == 1,
            })
            .collect(),
        inflight: (0..g.below(4))
            .map(|_| InFlightTask {
                task: g.below(64),
                attempt: 1 + g.below(4),
                x: g.x(),
                started: if g.next() & 1 == 1 {
                    Some((g.below(8), g.f64()))
                } else {
                    None
                },
            })
            .collect(),
        backoffs: (0..g.below(4))
            .map(|_| PendingBackoff {
                due: g.f64(),
                worker: g.below(8),
                task: g.below(64),
                attempt: 1 + g.below(4),
                x: g.x(),
            })
            .collect(),
    }
}

proptest! {
    /// `encode(decode(encode(s))) == encode(s)` over randomized session
    /// states — comparing bytes sidesteps NaN's `PartialEq` hole while
    /// still proving the codec loses nothing.
    #[test]
    fn session_encoding_round_trips(seed in 0u64..=u64::MAX) {
        let parts = random_parts(&mut Gen(seed));
        let bytes = encode_session(&parts);
        let back = decode_session(&bytes).unwrap();
        prop_assert_eq!(encode_session(&back), bytes);
    }

    /// The full container (magic, version, CRC-checked sections, opaque
    /// policy blob) round-trips byte-exactly too.
    #[test]
    fn snapshot_container_round_trips(seed in 0u64..=u64::MAX) {
        let mut g = Gen(seed ^ 0xabcd);
        let policy = if g.next() & 1 == 1 {
            Some((0..g.below(64)).map(|_| (g.next() & 0xff) as u8).collect())
        } else {
            None
        };
        let snap = RunSnapshot {
            config_fingerprint: g.next(),
            session: random_parts(&mut g),
            policy,
        };
        let bytes = encode_snapshot(&snap);
        let back = decode_snapshot(&bytes).unwrap();
        prop_assert_eq!(encode_snapshot(&back), bytes);
    }
}

// ---------------------------------------------------------------------
// Golden file: format version 1 as committed bytes on disk.
// ---------------------------------------------------------------------

/// Deterministic, NaN-free snapshot used for the on-disk golden fixture.
fn golden_snapshot() -> RunSnapshot {
    RunSnapshot {
        config_fingerprint: 0x00c0_ffee_1234_abcd,
        session: SessionParts {
            workers: 3,
            max_evals: 12,
            issued: 7,
            resolved: 5,
            clock: 41.25,
            pending: vec![vec![0.1, 0.9]],
            observations: vec![
                (vec![0.25, 0.75], -0.5),
                (vec![0.5, 0.5], 0.125),
                (vec![0.125, 0.625], 0.75),
                (vec![0.3, 0.2], -1.5),
                (vec![0.9, 0.1], 0.0625),
            ],
            trace: vec![(10.0, -0.5), (20.5, 0.125), (30.75, 0.75)],
            spans: vec![
                TaskSpan {
                    worker: 0,
                    task: 0,
                    start: 0.0,
                    end: 10.0,
                    failed: false,
                },
                TaskSpan {
                    worker: 1,
                    task: 1,
                    start: 0.0,
                    end: 20.5,
                    failed: false,
                },
                TaskSpan {
                    worker: 2,
                    task: 2,
                    start: 0.0,
                    end: 15.0,
                    failed: true,
                },
            ],
            inflight: vec![
                InFlightTask {
                    task: 5,
                    attempt: 1,
                    x: vec![0.4, 0.6],
                    started: Some((2, 30.75)),
                },
                InFlightTask {
                    task: 6,
                    attempt: 2,
                    x: vec![0.7, 0.3],
                    started: None,
                },
            ],
            backoffs: vec![PendingBackoff {
                due: 55.5,
                worker: 1,
                task: 4,
                attempt: 3,
                x: vec![0.2, 0.8],
            }],
        },
        policy: Some(vec![1, 0, 0, 0, 0xde, 0xad, 0xbe, 0xef]),
    }
}

/// The committed `tests/data/golden_v1.snap` must keep decoding for as
/// long as `FORMAT_VERSION` stays 1. Regenerate (after an *intentional*
/// layout change, together with a version bump and a migration) with:
/// `EASYBO_REGEN_GOLDEN=1 cargo test -p easybo-integration --test resume golden`.
#[test]
fn golden_v1_snapshot_still_decodes() {
    let path = std::path::Path::new(concat!(env!("CARGO_MANIFEST_DIR"), "/data/golden_v1.snap"));
    let golden = golden_snapshot();
    if std::env::var("EASYBO_REGEN_GOLDEN").is_ok() {
        save_snapshot(path, &golden).unwrap();
    }
    let loaded = load_snapshot(path).unwrap_or_else(|e| {
        panic!(
            "the committed golden v1 snapshot no longer decodes: {e}\n\
             If the snapshot layout changed intentionally, bump the format \
             version (easybo_persist::FORMAT_VERSION), keep a migration for \
             files written by older builds, and regenerate this fixture with \
             EASYBO_REGEN_GOLDEN=1 cargo test -p easybo-integration --test \
             resume golden"
        )
    });
    assert_eq!(
        loaded, golden,
        "golden v1 snapshot decoded to different contents"
    );
}

/// Bit flips anywhere in a snapshot must be *detected* — never a panic,
/// never a silently wrong resume.
#[test]
fn corrupted_snapshots_are_rejected_loudly() {
    let bytes = encode_snapshot(&golden_snapshot());
    for idx in [8, 12, bytes.len() / 2, bytes.len() - 1] {
        let mut bad = bytes.clone();
        bad[idx] ^= 0x40;
        assert!(
            decode_snapshot(&bad).is_err(),
            "flip at byte {idx} went undetected"
        );
    }
    assert!(decode_snapshot(&bytes[..bytes.len() - 5]).is_err());
}
