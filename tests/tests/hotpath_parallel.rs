//! Determinism guarantees of the parallel hot path: the `Parallelism` knob
//! must change wall-clock time only, never results. Multi-start acquisition
//! maximization and L-BFGS hyperparameter training are checked for
//! bit-identical outputs at k ∈ {1, 2, 8}, and the batched GP posterior is
//! property-tested against the scalar `predict` path (including on
//! pseudo-point-augmented models, the posterior the EasyBO penalization
//! actually evaluates).

use easybo_gp::{Gp, GpConfig, KernelFamily, TrainConfig};
use easybo_opt::{sampling, BatchObjective, Bounds, MultiStartMaximizer, Parallelism};
use proptest::prelude::*;
use rand::SeedableRng;

/// Deterministic pseudo-random training data in `d` dimensions.
fn training_data(n: usize, d: usize, seed: u64) -> (Vec<Vec<f64>>, Vec<f64>) {
    let bounds = Bounds::unit_cube(d).expect("cube");
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let xs = sampling::latin_hypercube(&bounds, n, &mut rng);
    let ys = xs
        .iter()
        .map(|p| {
            p.iter()
                .enumerate()
                .map(|(i, v)| ((i + 1) as f64 * v * 3.0).sin())
                .sum()
        })
        .collect();
    (xs, ys)
}

/// A deterministic multi-modal objective with enough structure that the
/// probe ranking and refinement starts actually differ between runs that
/// diverge anywhere.
struct RastriginLike;

fn rastrigin_like(p: &[f64]) -> f64 {
    -p.iter()
        .map(|v| (v - 0.37) * (v - 0.37) - 0.08 * (14.0 * v).cos())
        .sum::<f64>()
}

impl BatchObjective for RastriginLike {
    fn eval_batch(&self, ps: &[Vec<f64>]) -> Vec<f64> {
        ps.iter().map(|p| rastrigin_like(p)).collect()
    }

    fn eval_grad(&self, p: &[f64], grad: &mut [f64]) -> f64 {
        for (g, v) in grad.iter_mut().zip(p) {
            *g = -(2.0 * (v - 0.37) + 0.08 * 14.0 * (14.0 * v).sin());
        }
        rastrigin_like(p)
    }
}

#[test]
fn multistart_optimum_is_bit_identical_across_parallelism() {
    let bounds = Bounds::unit_cube(5).expect("cube");
    let ms = MultiStartMaximizer::new(96, 4, 30);
    let reference = ms.maximize_batched(
        &bounds,
        &mut rand::rngs::StdRng::seed_from_u64(11),
        Parallelism::sequential(),
        &RastriginLike,
    );
    for k in [1usize, 2, 8] {
        let got = ms.maximize_batched(
            &bounds,
            &mut rand::rngs::StdRng::seed_from_u64(11),
            Parallelism::new(k),
            &RastriginLike,
        );
        assert_eq!(got.x, reference.x, "argmax differs at k={k}");
        assert_eq!(
            got.value.to_bits(),
            reference.value.to_bits(),
            "value differs at k={k}"
        );
    }
}

#[test]
fn trained_hyperparameters_are_bit_identical_across_parallelism() {
    let (xs, ys) = training_data(40, 3, 123);
    let fit = |k: usize| {
        let config = GpConfig {
            kernel: KernelFamily::Matern52,
            train: TrainConfig {
                restarts: 3,
                parallelism: Parallelism::new(k),
                ..TrainConfig::default()
            },
            ..GpConfig::default()
        };
        Gp::fit(xs.clone(), ys.clone(), config).expect("fits")
    };
    let reference = fit(1);
    for k in [2usize, 8] {
        let got = fit(k);
        assert_eq!(
            got.theta()
                .iter()
                .map(|v| v.to_bits())
                .collect::<Vec<u64>>(),
            reference
                .theta()
                .iter()
                .map(|v| v.to_bits())
                .collect::<Vec<u64>>(),
            "theta differs at k={k}"
        );
        assert_eq!(
            got.log_noise().to_bits(),
            reference.log_noise().to_bits(),
            "log-noise differs at k={k}"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// `predict_batch` agrees with per-point `predict` to 1e-12 absolute,
    /// for every kernel family.
    #[test]
    fn predict_batch_matches_scalar_predictions(seed in 0u64..40, d in 1usize..4) {
        let (xs, ys) = training_data(15, d, seed);
        for fam in [
            KernelFamily::SquaredExponential,
            KernelFamily::Matern52,
            KernelFamily::Matern32,
            KernelFamily::RationalQuadratic,
        ] {
            let mut theta = vec![-0.7; d + 1];
            theta[d] = 0.1;
            let gp = Gp::fit_with_params(
                xs.clone(), ys.clone(), fam, theta, (1e-6f64).ln(),
            ).expect("fits");
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed ^ 0x9999);
            let bounds = Bounds::unit_cube(d).expect("cube");
            let queries = sampling::uniform(&bounds, 32, &mut rng);
            let batch = gp.predict_batch(&queries);
            prop_assert_eq!(batch.len(), queries.len());
            for (q, b) in queries.iter().zip(&batch) {
                let s = gp.predict(q);
                prop_assert!(
                    (b.mean - s.mean).abs() <= 1e-12,
                    "{fam:?} mean: {} vs {}", b.mean, s.mean
                );
                prop_assert!(
                    (b.variance - s.variance).abs() <= 1e-12,
                    "{fam:?} var: {} vs {}", b.variance, s.variance
                );
            }
        }
    }

    /// The same agreement must hold on pseudo-point-augmented GPs — the
    /// posterior the Eq. 9 penalization evaluates in the hot loop.
    #[test]
    fn predict_batch_matches_scalar_on_augmented_gp(seed in 0u64..40) {
        let d = 2;
        let (xs, ys) = training_data(12, d, seed);
        let gp = Gp::fit(xs, ys, GpConfig::default()).expect("fits");
        let busy = vec![vec![0.15, 0.9], vec![0.66, 0.31], vec![0.42, 0.42]];
        let aug = gp.augment(&busy).expect("augments");
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed ^ 0x5a5a);
        let bounds = Bounds::unit_cube(d).expect("cube");
        let queries = sampling::uniform(&bounds, 24, &mut rng);
        let batch = aug.predict_batch(&queries);
        for (q, b) in queries.iter().zip(&batch) {
            let s = aug.predict(q);
            prop_assert!((b.mean - s.mean).abs() <= 1e-12);
            prop_assert!((b.variance - s.variance).abs() <= 1e-12);
        }
    }
}
