//! Criterion micro-benchmarks of the numerical kernels underpinning the
//! reproduction: Cholesky factorization, GP fitting and prediction,
//! acquisition maximization and the circuit models themselves.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use easybo_circuits::{class_e::ClassEPa, opamp::TwoStageOpAmp, Circuit};
use easybo_gp::{Gp, GpConfig, KernelFamily};
use easybo_linalg::{Cholesky, Matrix, Vector};
use easybo_opt::{sampling, Bounds, MultiStartMaximizer};
use rand::SeedableRng;

fn spd(n: usize) -> Matrix {
    let m = Matrix::from_fn(n, n, |i, j| {
        let h = (i * 31 + j * 17) % 23;
        h as f64 / 23.0 - 0.5
    });
    let mut a = m.matmul(&m.transpose());
    a.add_diagonal(n as f64);
    a
}

fn training_data(n: usize, d: usize) -> (Vec<Vec<f64>>, Vec<f64>) {
    let bounds = Bounds::unit_cube(d).expect("unit cube");
    let mut rng = rand::rngs::StdRng::seed_from_u64(7);
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

fn bench_cholesky(c: &mut Criterion) {
    for n in [50, 150] {
        let a = spd(n);
        c.bench_function(&format!("cholesky_{n}x{n}"), |b| {
            b.iter(|| Cholesky::new(std::hint::black_box(&a)).expect("SPD"))
        });
        let chol = Cholesky::new(&a).expect("SPD");
        let rhs = Vector::from_iter((0..n).map(|i| (i as f64).sin()));
        c.bench_function(&format!("cholesky_solve_{n}"), |b| {
            b.iter(|| chol.solve_vec(std::hint::black_box(&rhs)))
        });
    }
}

fn bench_gp(c: &mut Criterion) {
    let (xs, ys) = training_data(100, 10);
    c.bench_function("gp_fit_train_100x10", |b| {
        b.iter_batched(
            || (xs.clone(), ys.clone()),
            |(xs, ys)| Gp::fit(xs, ys, GpConfig::default()).expect("fits"),
            BatchSize::SmallInput,
        )
    });
    let gp = Gp::fit_with_params(
        xs.clone(),
        ys.clone(),
        KernelFamily::SquaredExponential,
        vec![0.0; 11],
        (1e-4f64).ln(),
    )
    .expect("fits");
    let q = vec![0.5; 10];
    c.bench_function("gp_predict_100x10", |b| {
        b.iter(|| gp.predict(std::hint::black_box(&q)))
    });
}

fn bench_acquisition_maximization(c: &mut Criterion) {
    let (xs, ys) = training_data(100, 10);
    let gp = Gp::fit_with_params(
        xs,
        ys,
        KernelFamily::SquaredExponential,
        vec![0.0; 11],
        (1e-4f64).ln(),
    )
    .expect("fits");
    let bounds = Bounds::unit_cube(10).expect("unit cube");
    let maximizer = MultiStartMaximizer::new(384, 3, 120);
    c.bench_function("acq_maximize_weighted_10d", |b| {
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        b.iter(|| {
            maximizer.maximize(&bounds, &mut rng, |p| {
                easybo::acquisition::weighted(&gp, p, 0.7)
            })
        })
    });
}

fn bench_circuits(c: &mut Criterion) {
    let amp = TwoStageOpAmp::new();
    let x_amp = amp.bounds().center();
    c.bench_function("opamp_fom_eval", |b| {
        b.iter(|| amp.fom(std::hint::black_box(&x_amp)))
    });
    let pa = ClassEPa::new();
    let x_pa = pa.bounds().center();
    c.bench_function("class_e_fom_eval", |b| {
        b.iter(|| pa.fom(std::hint::black_box(&x_pa)))
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_cholesky, bench_gp, bench_acquisition_maximization, bench_circuits
}
criterion_main!(benches);
