//! Checkpoint overhead benchmark.
//!
//! Measures what the persistence layer costs: a full `EasyBo` run with
//! snapshots written every completed evaluation vs the same run with
//! checkpointing disabled — the worst-case (k = 1) write amplification —
//! and what a restore pays to replay a class-E-size GP factor instead of
//! reading it back stored.
//!
//! Prints a table and writes `BENCH_checkpoint.json` at the repository
//! root with the measured times, relative overheads, snapshot size, and
//! a bit-identity verdict per comparison. Repetition count comes from
//! `EASYBO_REPS` (default 21). The checkpoint row runs that many pairs,
//! the disabled and the checkpointed run alternated within each pair,
//! and reports each side's median; the restore rows report the best
//! (minimum) wall-clock across repetitions.

use std::time::Instant;

use easybo::EasyBo;
use easybo_bench::{bench_report, fs_type, write_bench_report, BenchRecord};
use easybo_gp::{Gp, GpFactor, GpState, KernelFamily};
use easybo_opt::{sampling, Bounds};
use rand::SeedableRng;

fn objective(x: &[f64]) -> f64 {
    (-((x[0] - 0.35).powi(2) + (x[1] - 0.65).powi(2))).exp()
}

/// Best-of-`reps` wall-clock of `f`, in seconds.
fn time_best<T>(reps: usize, mut f: impl FnMut() -> T) -> (f64, T) {
    let mut best = f64::INFINITY;
    let mut out = None;
    for _ in 0..reps {
        let t0 = Instant::now();
        let v = f();
        best = best.min(t0.elapsed().as_secs_f64());
        out = Some(v);
    }
    (best, out.expect("reps >= 1"))
}

/// Median wall-clock of `a` and of `b`, in seconds, over `pairs` pairs
/// that run both back to back, `a` first in even pairs and `b` first in
/// odd ones, after one untimed pair; with the last result of each.
fn time_alternated<A, B>(
    pairs: usize,
    mut a: impl FnMut() -> A,
    mut b: impl FnMut() -> B,
) -> ((f64, A), (f64, B)) {
    let (mut out_a, mut out_b) = (a(), b());
    let (mut a_s, mut b_s) = (Vec::new(), Vec::new());
    for pair in 0..pairs {
        for a_turn in [pair % 2 == 0, pair % 2 == 1] {
            let t0 = Instant::now();
            if a_turn {
                out_a = a();
                a_s.push(t0.elapsed().as_secs_f64());
            } else {
                out_b = b();
                b_s.push(t0.elapsed().as_secs_f64());
            }
        }
    }
    ((median(a_s), out_a), (median(b_s), out_b))
}

fn median(mut xs: Vec<f64>) -> f64 {
    assert!(!xs.is_empty(), "pairs >= 1");
    xs.sort_by(f64::total_cmp);
    let mid = xs.len() / 2;
    if xs.len() % 2 == 1 {
        xs[mid]
    } else {
        0.5 * (xs[mid - 1] + xs[mid])
    }
}

/// Full optimizer run, snapshot every completed evaluation (k = 1, the
/// worst case) vs checkpointing disabled, alternated. Returns the
/// snapshot size and the filesystem the snapshots went to.
fn bench_checkpoint_writes(rows: &mut Vec<BenchRecord>, reps: usize) -> (u64, String) {
    let dir = std::env::temp_dir();
    let path = dir.join(format!("easybo-bench-ckpt-{}.snap", std::process::id()));
    let optimizer = || {
        let mut opt = EasyBo::new(Bounds::unit_cube(2).expect("unit cube"));
        opt.batch_size(4).initial_points(6).max_evals(24).seed(11);
        opt
    };

    let ((off_s, off), (on_s, on)) = time_alternated(
        reps,
        || optimizer().run(objective).expect("runs"),
        || {
            let mut opt = optimizer();
            opt.checkpoint_to(&path).checkpoint_every(1);
            opt.run(objective).expect("runs")
        },
    );
    let snapshot_bytes = std::fs::metadata(&path).map(|m| m.len()).unwrap_or(0);
    std::fs::remove_file(&path).ok();
    rows.push(BenchRecord::from_seconds(
        "checkpoint_every_1_vs_disabled",
        off_s,
        on_s,
        off.trace.to_csv() == on.trace.to_csv() && off.data == on.data,
    ));
    (snapshot_bytes, fs_type(&dir))
}

/// `Gp::from_state` at class-E size (260 fitted points plus 14 appended,
/// d = 12): the factor replayed from `n_factored` vs the same state with
/// its 274² factor stored. Identical when the replayed factor and the
/// restored state match the live model bit for bit.
fn bench_gp_restore(rows: &mut Vec<BenchRecord>, reps: usize) {
    let d = 12;
    let bounds = Bounds::unit_cube(d).expect("unit cube");
    let mut rng = rand::rngs::StdRng::seed_from_u64(3);
    let xs = sampling::uniform(&bounds, 274, &mut rng);
    let y = |x: &[f64]| {
        x.iter()
            .enumerate()
            .map(|(j, v)| (v * (j + 1) as f64).sin())
            .sum()
    };
    let (fit, appended) = xs.split_at(260);
    let ys = fit.iter().map(|x| y(x)).collect();
    let mut theta = vec![-0.5; d];
    theta.push(0.3);
    let mut gp = Gp::fit_with_params(
        fit.to_vec(),
        ys,
        KernelFamily::SquaredExponential,
        theta,
        (1e-6f64).ln(),
    )
    .expect("fits");
    for x in appended {
        gp = gp.extend_observed(x.clone(), y(x)).expect("appends");
    }
    let replay = gp.state();
    let stored = GpState {
        factor: GpFactor::Stored(gp.cholesky().factor().as_slice().to_vec()),
        ..replay.clone()
    };
    let (stored_s, _) = time_best(reps, || Gp::from_state(stored.clone()).expect("restores"));
    let (replay_s, back) = time_best(reps, || Gp::from_state(replay.clone()).expect("replays"));
    rows.push(BenchRecord::from_seconds(
        format!("gp_restore_replay_vs_stored_n{}_d{d}", gp.n_train()),
        stored_s,
        replay_s,
        back.state() == replay && factor_bits(&back) == factor_bits(&gp),
    ));
}

/// Bit patterns of a model's Cholesky factor and its jitter.
fn factor_bits(gp: &Gp) -> Vec<u64> {
    let chol = gp.cholesky();
    let factor = chol.factor().as_slice().iter();
    factor
        .chain([&chol.jitter()])
        .map(|v| v.to_bits())
        .collect()
}

fn main() {
    let reps: usize = std::env::var("EASYBO_REPS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(21);
    println!("Checkpoint overhead benchmark: {reps} repetitions");

    let mut rows = Vec::new();
    let (snapshot_bytes, fs) = bench_checkpoint_writes(&mut rows, reps);
    bench_gp_restore(&mut rows, reps);

    println!(
        "{:<40} {:>12} {:>12} {:>10} {:>10}",
        "benchmark", "baseline_s", "candidate_s", "overhead", "identical"
    );
    for r in &rows {
        println!(
            "{:<40} {:>12.6} {:>12.6} {:>9.1}% {:>10}",
            r.name,
            r.baseline_ns / 1e9,
            r.candidate_ns / 1e9,
            r.overhead() * 100.0,
            r.identical
        );
    }
    println!("snapshot size at max_evals=24, d=2: {snapshot_bytes} bytes, written on {fs}");

    let json = bench_report(
        "checkpoint",
        reps,
        &format!(
            "checkpoint rows: baseline = checkpointing disabled, candidate = \
             snapshot-per-eval, synced on {fs} by the run's writer thread while the next \
             decision computes; each the median wall clock over reps pairs that run both, \
             alternating which runs first; identical compares the full best-so-far trace and \
             dataset bit for bit. gp_restore rows: baseline = restore with the factor stored, \
             candidate = restore replaying it (a cost, not a gain: the state is 274^2 * 8 \
             bytes smaller); best-of-reps wall clock; identical compares the restored factor \
             and state bit for bit. snapshot_bytes at max_evals=24, d=2: {snapshot_bytes}."
        ),
        &rows,
    );
    let path = write_bench_report("BENCH_checkpoint.json", &json);
    println!("wrote {path}");

    assert!(
        rows.iter().all(|r| r.identical),
        "checkpoint-instrumented runs and replayed restores must be bit-identical"
    );
}
