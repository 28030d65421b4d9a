//! Incremental-factorization benchmark: rank-1 Cholesky maintenance vs
//! full refactorization.
//!
//! Rows `tell_rank1_vs_full_n*` — the per-tell cost of absorbing one new
//! observation into the surrogate's kernel factor: baseline rebuilds the
//! `(n+1)×(n+1)` factor from scratch (blocked `Cholesky::new`, `O(n³)`),
//! the candidate extends the cached `n×n` factor by one row
//! (`Cholesky::extend`, `O(n²)`, including the factor copy a persistent
//! cache avoids entirely).
//!
//! Prints a table and writes `BENCH_incremental.json` at the repository
//! root. Repetition count comes from `EASYBO_REPS` (default 5); each cell
//! reports the best (minimum) wall-clock across repetitions.

use std::time::Instant;

use easybo_bench::{bench_report, host_threads, write_bench_report, BenchRecord};
use easybo_gp::{ArdKernel, KernelFamily};
use easybo_linalg::{Cholesky, Matrix, Vector};
use easybo_opt::{sampling, Bounds};
use rand::SeedableRng;

/// Deterministic inputs on the unit cube: `n` points, `d` dims.
fn unit_points(n: usize, d: usize, seed: u64) -> Vec<Vec<f64>> {
    let bounds = Bounds::unit_cube(d).expect("unit cube");
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    sampling::latin_hypercube(&bounds, n, &mut rng)
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

/// Kernel matrix `K + σ_n²·I` over `xs` with unit ARD hyperparameters.
fn kernel_matrix(kernel: &ArdKernel, theta: &[f64], xs: &[Vec<f64>], noise: f64) -> Matrix {
    let n = xs.len();
    let mut k = Matrix::zeros(n, n);
    for i in 0..n {
        for j in 0..=i {
            let v = kernel.eval(theta, &xs[i], &xs[j]);
            k[(i, j)] = v;
            k[(j, i)] = v;
        }
        k[(i, i)] += noise;
    }
    k
}

/// One tell at size `n`: extend the cached `n×n` factor by one row vs
/// refactorize the full `(n+1)×(n+1)` matrix.
fn bench_tell(rows: &mut Vec<BenchRecord>, reps: usize, n: usize, d: usize) {
    let xs = unit_points(n + 1, d, 7 + n as u64);
    let kernel = ArdKernel::new(KernelFamily::SquaredExponential, d);
    let theta = vec![0.0; d + 1];
    let noise = 1e-4;
    let k_full = kernel_matrix(&kernel, &theta, &xs, noise);
    let k_base = kernel_matrix(&kernel, &theta, &xs[..n], noise);
    let base = Cholesky::new(&k_base).expect("base factor");
    let cross = Vector::from(
        xs[..n]
            .iter()
            .map(|xi| kernel.eval(&theta, xi, &xs[n]))
            .collect::<Vec<f64>>(),
    );
    let diag = kernel.eval(&theta, &xs[n], &xs[n]) + noise;

    let (full_s, full) = time_best(reps, || Cholesky::new(&k_full).expect("full factor"));
    let (inc_s, inc) = time_best(reps, || {
        let mut chol = base.clone();
        chol.extend(&cross, diag).expect("rank-1 extend");
        chol
    });
    // The two factorizations of the same matrix agree to roundoff, not
    // bit for bit (different operation order): gate on relative log-det.
    let rel = (full.log_det() - inc.log_det()).abs() / full.log_det().abs().max(1.0);
    rows.push(BenchRecord::from_seconds(
        format!("tell_rank1_vs_full_n{n}_d{d}"),
        full_s,
        inc_s,
        rel <= 1e-10,
    ));
}

fn main() {
    let reps: usize = std::env::var("EASYBO_REPS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(5);
    println!(
        "Incremental-factorization benchmark: {reps} repetitions, {} host thread(s)",
        host_threads()
    );

    let mut rows = Vec::new();
    for n in [100, 200, 400, 800] {
        bench_tell(&mut rows, reps, n, 10);
    }

    println!(
        "{:<44} {:>12} {:>12} {:>9} {:>10}",
        "benchmark", "baseline_s", "candidate_s", "speedup", "identical"
    );
    for r in &rows {
        println!(
            "{:<44} {:>12.6} {:>12.6} {:>8.2}x {:>10}",
            r.name,
            r.baseline_ns / 1e9,
            r.candidate_ns / 1e9,
            r.speedup(),
            r.identical
        );
    }

    let json = bench_report(
        "incremental",
        reps,
        "baseline = full O(n^3) refactorize; candidate = rank-1 factor extend. Best-of-reps \
         wall clock. 'identical' means relative log-det agreement <= 1e-10 (two \
         factorizations of the same matrix differ in operation order, so bitwise equality \
         is not expected).",
        &rows,
    );
    let path = write_bench_report("BENCH_incremental.json", &json);
    println!("wrote {path}");

    assert!(
        rows.iter().all(|r| r.identical),
        "incremental results must match the full-refactorize path"
    );
    let tell_400 = rows
        .iter()
        .find(|r| r.name.starts_with("tell_rank1_vs_full_n400"))
        .expect("n=400 tell row");
    assert!(
        tell_400.speedup() >= 5.0,
        "rank-1 tell at n=400 must be at least 5x faster than a full refactorize, got {:.2}x",
        tell_400.speedup()
    );
}
