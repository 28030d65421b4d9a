//! Hot-path benchmark: batched GP posterior vs batches of one, the
//! blocked batch posterior vs one whole-batch `K*`, narrow multi-column
//! forward solves vs one column at a time, the fused penalized posterior
//! vs its two-call form, the batch of one vs per-pair kernel calls, the
//! penalized posterior with its gradient vs without, sequential-EI probe
//! scoring in one batch vs one probe at a time, and the parallel
//! multi-start / parallel training fan-out vs the sequential path.
//!
//! Prints a table and writes `BENCH_hotpath.json` at the repository root
//! with the measured times, speedups, the host thread count, and a
//! bit-identity verdict for every comparison. Repetition count comes from
//! `EASYBO_REPS` (default 5); each cell reports the best (minimum)
//! wall-clock across repetitions.

use std::time::Instant;

use easybo::acquisition::{Acquisition, Moments, Score};
use easybo_bench::{bench_report, host_threads, write_bench_report, BenchRecord};
use easybo_gp::{Gp, GpConfig, IncrementalGp, KernelFamily, TrainConfig};
use easybo_linalg::{Matrix, Vector};
use easybo_opt::{sampling, BatchObjective, Bounds, MultiStartMaximizer, Parallelism};
use rand::SeedableRng;

/// Deterministic training data on the unit cube: `n` points, `d` dims.
fn training_data(n: usize, d: usize, seed: u64) -> (Vec<Vec<f64>>, Vec<f64>) {
    let bounds = Bounds::unit_cube(d).expect("unit cube");
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let xs = sampling::latin_hypercube(&bounds, n, &mut rng);
    let ys: Vec<f64> = xs
        .iter()
        .map(|p| {
            p.iter()
                .enumerate()
                .map(|(i, v)| (v * (i + 1) as f64).sin())
                .sum()
        })
        .collect();
    (xs, ys)
}

fn fitted_gp(n: usize, d: usize) -> Gp {
    let (xs, ys) = training_data(n, d, 7);
    Gp::fit_with_params(
        xs,
        ys,
        KernelFamily::SquaredExponential,
        vec![0.0; d + 1],
        (1e-4f64).ln(),
    )
    .expect("fits")
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

/// predict_batch on `m` probes vs `m` `predict` calls, each a batch of
/// one.
fn bench_predict_batch(rows: &mut Vec<BenchRecord>, reps: usize, label: &str, n: usize, d: usize) {
    let gp = fitted_gp(n, d);
    let bounds = Bounds::unit_cube(d).expect("unit cube");
    let mut rng = rand::rngs::StdRng::seed_from_u64(99);
    let probes = sampling::uniform(&bounds, 256, &mut rng);

    let (scalar_s, scalar) = time_best(reps, || {
        probes.iter().map(|p| gp.predict(p)).collect::<Vec<_>>()
    });
    let (batch_s, batch) = time_best(reps, || gp.predict_batch(&probes));
    let identical = scalar
        .iter()
        .zip(&batch)
        .all(|(a, b)| a.mean.to_bits() == b.mean.to_bits());
    rows.push(BenchRecord::from_seconds(
        format!("predict_batch_vs_scalar_{label}_n{n}_d{d}_m256"),
        scalar_s,
        batch_s,
        identical,
    ));
}

/// The batch posterior as one whole-batch pass, rebuilt from the model's
/// exported state: the full `n × m` `K*` plus a second `n × m` buffer
/// forward-substituted row by row, each row streaming all `m` columns.
/// The blocked [`Gp::predict_standardized_batch`] must match it bit for
/// bit.
fn unblocked_posterior(gp: &Gp, probes: &[Vec<f64>]) -> Vec<(f64, f64)> {
    let s = gp.state();
    let factor = gp.cholesky().factor().as_slice();
    let n = s.x.len();
    let m = probes.len();
    let kstar = gp.kernel().cross_covariance(gp.theta(), &s.x, probes);
    let mut v = kstar.clone();
    let data = v.as_mut_slice();
    for i in 0..n {
        let li = &factor[i * n..(i + 1) * n];
        let (done, rest) = data.split_at_mut(i * m);
        let yi = &mut rest[..m];
        for (k, &lik) in li[..i].iter().enumerate() {
            for (a, &y) in yi.iter_mut().zip(&done[k * m..(k + 1) * m]) {
                *a -= lik * y;
            }
        }
        yi.iter_mut().for_each(|a| *a /= li[i]);
    }
    let mut means = vec![0.0; probes.len()];
    let mut vss = vec![0.0; probes.len()];
    for (i, &a) in s.alpha.iter().enumerate() {
        for (mu, &k) in means.iter_mut().zip(kstar.row(i)) {
            *mu += k * a;
        }
        for (ss, &vij) in vss.iter_mut().zip(v.row(i)) {
            *ss += vij * vij;
        }
    }
    let prior = gp.kernel().signal_variance(gp.theta());
    means
        .into_iter()
        .zip(vss)
        .map(|(mu, ss)| (mu, (prior - ss).max(0.0)))
        .collect()
}

/// A class-E-size penalization stack: a d = 12 GP on 260 points with 14
/// live pseudo-points (n = 274), plus `m` probes.
fn class_e_stack(m: usize) -> (IncrementalGp, Vec<Vec<f64>>) {
    let d = 12;
    let mut inc = IncrementalGp::new(fitted_gp(260, d));
    let bounds = Bounds::unit_cube(d).expect("unit cube");
    let mut rng = rand::rngs::StdRng::seed_from_u64(5);
    for p in sampling::uniform(&bounds, 14, &mut rng) {
        inc.push_pseudo_mean(p).expect("pseudo-point pushes");
    }
    let probes = sampling::uniform(&bounds, m, &mut rng);
    (inc, probes)
}

/// Blocked batch posterior vs the whole-batch pass at class-E size:
/// n = 274 (260 points plus 14 live pseudo-points), m = 528 probes.
fn bench_blocked_posterior(rows: &mut Vec<BenchRecord>, reps: usize) {
    let (inc, probes) = class_e_stack(528);
    let gp = inc.gp();
    let d = gp.dim();
    let (unblocked_s, unblocked) = time_best(reps, || unblocked_posterior(gp, &probes));
    let (blocked_s, blocked) = time_best(reps, || gp.predict_standardized_batch(&probes));
    let identical = unblocked.len() == blocked.len()
        && unblocked
            .iter()
            .zip(&blocked)
            .all(|(a, b)| a.0.to_bits() == b.0.to_bits() && a.1.to_bits() == b.1.to_bits());
    rows.push(BenchRecord::from_seconds(
        format!(
            "batch_posterior_blocked_vs_unblocked_n{}_d{d}_m528",
            gp.n_train()
        ),
        unblocked_s,
        blocked_s,
        identical,
    ));
}

/// Forward solves against the class-E factor (n = 274 with 14
/// pseudo-points): the columns of `K*` for up to 2,400 probes solved `m`
/// at a time through `Cholesky::solve_lower_multi_in_place`, against one
/// `Cholesky::solve_lower` per column. Both sides copy their right-hand
/// sides once, as the solve itself does. One row per width `m`; the
/// columns must agree bit for bit.
fn bench_narrow_solves(rows: &mut Vec<BenchRecord>, reps: usize) {
    let (inc, probes) = class_e_stack(2400);
    let gp = inc.gp();
    let chol = gp.cholesky();
    let n = gp.n_train();
    let kstar = gp
        .kernel()
        .cross_covariance(gp.theta(), &gp.state().x, &probes);
    for m in [1, 2, 3, 4, 5, 8, 13, 16] {
        let q = m * (probes.len() / m);
        let columns: Vec<Vector> = (0..q).map(|j| kstar.col(j)).collect();
        let blocks: Vec<Matrix> = (0..q / m)
            .map(|b| Matrix::from_fn(n, m, |i, j| kstar[(i, b * m + j)]))
            .collect();
        let (single_s, single) = time_best(reps, || {
            columns
                .iter()
                .map(|c| chol.solve_lower(c))
                .collect::<Vec<_>>()
        });
        let (multi_s, multi) = time_best(reps, || {
            blocks
                .iter()
                .map(|b| {
                    let mut y = b.clone();
                    chol.solve_lower_multi_in_place(&mut y);
                    y
                })
                .collect::<Vec<_>>()
        });
        let identical = single.iter().enumerate().all(|(j, y)| {
            let block = &multi[j / m];
            (0..n).all(|i| block[(i, j % m)].to_bits() == y[i].to_bits())
        });
        rows.push(BenchRecord::from_seconds(
            format!("narrow_solve_width{m}_vs_width1_n{n}_q{q}"),
            single_s,
            multi_s,
            identical,
        ));
    }
}

/// `probe` as a batch of one, without copying it.
fn one(probe: &Vec<f64>) -> &[Vec<f64>] {
    std::slice::from_ref(probe)
}

/// The penalized posterior of Eq. 9 at class-E size (n = 274 with 14
/// pseudo-points, d = 12): the two-call evaluation — base mean from the
/// un-augmented model, `σ̂²` from the augmented one, two kernel rows per
/// query — against the fused [`IncrementalGp::predict_penalized_batch`]
/// pair, which builds one `K*` block and one forward solve. The fused
/// side sends its mean to raw units and back, as Eq. 9's acquisition
/// does (`Moments::Penalized { raw_round_trip: true }`), so both sides
/// round alike. One row for 2,000 queries as batches of one, one for an
/// m = 528 batch.
fn bench_fused_penalized(rows: &mut Vec<BenchRecord>, reps: usize) {
    let (inc, probes) = class_e_stack(2000);
    let base = inc.clone().into_gp();
    let gp = inc.gp();
    let bits = |v: &[(f64, f64)]| -> Vec<(u64, u64)> {
        v.iter().map(|p| (p.0.to_bits(), p.1.to_bits())).collect()
    };
    let two_call = |mean: f64, var: (f64, f64)| (base.scaler().transform(mean), var.1);
    let round_trip = raw_round_trip(gp);
    let (scalar_two_s, scalar_two) = time_best(reps, || {
        let post = probes.iter().map(|p| {
            two_call(
                base.predict_mean_batch(one(p))[0],
                gp.predict_standardized(p),
            )
        });
        post.collect::<Vec<_>>()
    });
    let (scalar_fused_s, scalar_fused) = time_best(reps, || {
        probes
            .iter()
            .map(|p| round_trip(inc.predict_penalized_batch(one(p))[0]))
            .collect::<Vec<_>>()
    });
    rows.push(BenchRecord::from_seconds(
        format!(
            "penalized_fused_vs_two_call_n{}_d{}_q2000",
            gp.n_train(),
            gp.dim()
        ),
        scalar_two_s,
        scalar_fused_s,
        bits(&scalar_two) == bits(&scalar_fused),
    ));
    let batch = &probes[..528];
    let (batch_two_s, batch_two) = time_best(reps, || {
        let means = base.predict_mean_batch(batch);
        let post = gp.predict_standardized_batch(batch);
        means
            .into_iter()
            .zip(post)
            .map(|(mean, var)| two_call(mean, var))
            .collect::<Vec<_>>()
    });
    let (batch_fused_s, batch_fused) = time_best(reps, || {
        let post = inc.predict_penalized_batch(batch);
        post.into_iter().map(&round_trip).collect::<Vec<_>>()
    });
    rows.push(BenchRecord::from_seconds(
        format!(
            "penalized_batch_fused_vs_two_call_n{}_d{}_m528",
            gp.n_train(),
            gp.dim()
        ),
        batch_two_s,
        batch_fused_s,
        bits(&batch_two) == bits(&batch_fused),
    ));
}

/// The penalized posterior at class-E size (n = 274 with 14
/// pseudo-points, d = 12) over 2,000 queries: the per-pair oracle of the
/// GP tests, rebuilt from [`Gp::state`] — one `ArdKernel::eval` per
/// training row, each recomputing `d + 2` exponentials — plus the same
/// forward solve, against [`IncrementalGp::predict_penalized_batch`] on
/// batches of one, whose `K*` column pays one exponential per row. Both
/// sides send the mean to raw units and back, as Eq. 9's acquisition
/// does.
fn bench_hoisted_row(rows: &mut Vec<BenchRecord>, reps: usize) {
    let (inc, probes) = class_e_stack(2000);
    let gp = inc.gp();
    let s = gp.state();
    let n = s.x.len();
    let chol = gp.cholesky();
    let base_alpha = inc.clone().into_gp().state().alpha;
    let (kernel, theta, scaler) = (gp.kernel(), gp.theta(), gp.scaler());
    let prior = kernel.signal_variance(theta);
    let per_pair = |x: &[f64]| {
        let kstar = Vector::from_iter(s.x.iter().map(|xi| kernel.eval(theta, x, xi)));
        let mean_z = (kstar.iter().zip(&base_alpha)).fold(0.0, |acc, (k, a)| acc + k * a);
        let v = chol.solve_lower(&kstar);
        let var = (prior - v.dot(&v)).max(0.0);
        (scaler.transform(scaler.inverse(mean_z)), var)
    };
    let (per_pair_s, baseline) = time_best(reps, || {
        probes.iter().map(|p| per_pair(p)).collect::<Vec<_>>()
    });
    let round_trip = raw_round_trip(gp);
    let (hoisted_s, hoisted) = time_best(reps, || {
        probes
            .iter()
            .map(|p| round_trip(inc.predict_penalized_batch(one(p))[0]))
            .collect::<Vec<_>>()
    });
    let identical = baseline
        .iter()
        .zip(&hoisted)
        .all(|(a, b)| a.0.to_bits() == b.0.to_bits() && a.1.to_bits() == b.1.to_bits());
    rows.push(BenchRecord::from_seconds(
        format!("posterior_hoisted_vs_per_pair_n{n}_d{}_q2000", gp.dim()),
        per_pair_s,
        hoisted_s,
        identical && baseline.len() == hoisted.len(),
    ));
}

/// The cost of a gradient: 2,000 penalized posteriors at class-E size
/// (n = 274 with 14 pseudo-points, d = 12) as batches of one against the
/// same 2,000 with both moments' gradients,
/// `IncrementalGp::predict_penalized_grad`, the refiner's query. The
/// moments must agree bit for bit; the ratio reads below 1, as the
/// value-and-gradient side does more work.
fn bench_penalized_grad(rows: &mut Vec<BenchRecord>, reps: usize) {
    let (inc, probes) = class_e_stack(2000);
    let bits = |v: &[(f64, f64)]| -> Vec<(u64, u64)> {
        v.iter().map(|p| (p.0.to_bits(), p.1.to_bits())).collect()
    };
    let (value_s, value) = time_best(reps, || {
        probes
            .iter()
            .map(|p| inc.predict_penalized_batch(one(p))[0])
            .collect::<Vec<_>>()
    });
    let (grad_s, grad) = time_best(reps, || {
        probes
            .iter()
            .map(|p| {
                let m = inc.predict_penalized_grad(p);
                (m.mean, m.var)
            })
            .collect::<Vec<_>>()
    });
    rows.push(BenchRecord::from_seconds(
        format!(
            "penalized_grad_vs_value_n{}_d{}_q2000",
            inc.gp().n_train(),
            inc.gp().dim()
        ),
        value_s,
        grad_s,
        bits(&value) == bits(&grad),
    ));
}

/// Sends a standardized `(μ, σ²)` pair's mean to raw units and back: the
/// rounding Eq. 9's acquisition applies to the base mean.
fn raw_round_trip(gp: &Gp) -> impl Fn((f64, f64)) -> (f64, f64) + '_ {
    let scaler = gp.scaler();
    move |(mean_z, var)| (scaler.transform(scaler.inverse(mean_z)), var)
}

/// Sequential-EI probe scoring at op-amp size: n = 400, d = 10 and the
/// m = 440 probes `AcqOptConfig::for_dim(10)` draws. One
/// [`Acquisition`] `eval_batch` per probe, a batch of one each, as EI
/// scored its probes before it had a batched path, against one
/// `eval_batch` over all of them.
fn bench_ei_probe_scoring(rows: &mut Vec<BenchRecord>, reps: usize) {
    let (n, d, m) = (400, 10, 440);
    let model = IncrementalGp::new(fitted_gp(n, d));
    let best = training_data(n, d, 7)
        .1
        .into_iter()
        .fold(f64::MIN, f64::max);
    let best_z = model.gp().scaler().transform(best);
    let ei = Acquisition::new(&model, Score::Ei(best_z), Moments::Posterior);
    let bounds = Bounds::unit_cube(d).expect("unit cube");
    let mut rng = rand::rngs::StdRng::seed_from_u64(17);
    let probes = sampling::uniform(&bounds, m, &mut rng);
    let (scalar_s, scalar) = time_best(reps, || {
        probes
            .iter()
            .map(|p| ei.eval_batch(one(p))[0])
            .collect::<Vec<_>>()
    });
    let (batch_s, batch) = time_best(reps, || ei.eval_batch(&probes));
    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    rows.push(BenchRecord::from_seconds(
        format!("seq_ei_probes_batch_vs_scalar_opamp_n{n}_d{d}_m{m}"),
        scalar_s,
        batch_s,
        bits(&scalar) == bits(&batch),
    ));
}

/// Multi-start maximization of the weighted acquisition (w = 0.35) at
/// k=8 vs the sequential path.
fn bench_parallel_multistart(rows: &mut Vec<BenchRecord>, reps: usize, d: usize) {
    let model = IncrementalGp::new(fitted_gp(200, d));
    let bounds = Bounds::unit_cube(d).expect("unit cube");
    let ms = MultiStartMaximizer::new(64.max(44 * d), 8, 30);
    let acq = Acquisition::new(&model, Score::Weighted(0.35), Moments::Posterior);
    let run = |k: usize| {
        ms.maximize_batched(
            &bounds,
            &mut rand::rngs::StdRng::seed_from_u64(3),
            Parallelism::new(k),
            &acq,
        )
    };
    let (seq_s, seq) = time_best(reps, || run(1));
    let (par_s, par) = time_best(reps, || run(8));
    rows.push(BenchRecord::from_seconds(
        format!("parallel_multistart_k8_vs_k1_d{d}"),
        seq_s,
        par_s,
        seq.x == par.x && seq.value.to_bits() == par.value.to_bits(),
    ));
}

/// GP hyperparameter training with 8 restart workers vs sequential.
fn bench_parallel_train(rows: &mut Vec<BenchRecord>, reps: usize, n: usize, d: usize) {
    let (xs, ys) = training_data(n, d, 13);
    let fit = |k: usize| {
        let config = GpConfig {
            train: TrainConfig {
                restarts: 7,
                parallelism: Parallelism::new(k),
                ..TrainConfig::default()
            },
            ..GpConfig::default()
        };
        Gp::fit(xs.clone(), ys.clone(), config).expect("fits")
    };
    let (seq_s, seq) = time_best(reps, || fit(1));
    let (par_s, par) = time_best(reps, || fit(8));
    let identical =
        seq.theta() == par.theta() && seq.log_noise().to_bits() == par.log_noise().to_bits();
    rows.push(BenchRecord::from_seconds(
        format!("parallel_train_k8_vs_k1_n{n}_d{d}"),
        seq_s,
        par_s,
        identical,
    ));
}

fn main() {
    let reps: usize = std::env::var("EASYBO_REPS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(5);
    println!(
        "Hot-path benchmark: {reps} repetitions, {} host thread(s)",
        host_threads()
    );

    let mut rows = Vec::new();
    // Table I / Table II problem sizes: 10-d op-amp, 12-d class-E PA.
    bench_predict_batch(&mut rows, reps, "opamp", 400, 10);
    bench_predict_batch(&mut rows, reps, "class_e", 400, 12);
    bench_blocked_posterior(&mut rows, reps);
    bench_narrow_solves(&mut rows, reps);
    bench_fused_penalized(&mut rows, reps);
    bench_hoisted_row(&mut rows, reps);
    bench_penalized_grad(&mut rows, reps);
    bench_ei_probe_scoring(&mut rows, reps);
    bench_parallel_multistart(&mut rows, reps, 10);
    bench_parallel_train(&mut rows, reps, 200, 10);

    println!(
        "{:<50} {:>12} {:>12} {:>9} {:>10}",
        "benchmark", "baseline_s", "candidate_s", "speedup", "identical"
    );
    for r in &rows {
        println!(
            "{:<50} {:>12.6} {:>12.6} {:>8.2}x {:>10}",
            r.name,
            r.baseline_ns / 1e9,
            r.candidate_ns / 1e9,
            r.speedup(),
            r.identical
        );
    }

    let json = bench_report(
        "hotpath",
        reps,
        "baseline = batch-of-one/width-1/sequential/whole-batch/two-call/per-pair/value-only \
         path, candidate = batched/width-m/parallel/blocked/fused/batch-of-one/value-and-gradient \
         path; best-of-reps wall clock. Thread speedups require host_threads > 1; on a \
         single-core host the parallel rows measure fan-out overhead only, while the \
         predict_batch rows are algorithmic and host-independent.",
        &rows,
    );
    let path = write_bench_report("BENCH_hotpath.json", &json);
    println!("wrote {path}");

    assert!(
        rows.iter().all(|r| r.identical),
        "every candidate must be bit-identical to its baseline"
    );
}
