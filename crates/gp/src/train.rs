//! Hyperparameter training: multi-restart L-BFGS on the penalized negative
//! log marginal likelihood, with analytic gradients.

use easybo_linalg::{Cholesky, Vector};
use easybo_opt::Parallelism;
use easybo_telemetry::Telemetry;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

use crate::kernel::ArdKernel;
use crate::model::covariance_matrix;

/// Hyperparameter-training schedule for [`crate::Gp::fit`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TrainConfig {
    /// Number of random restarts beyond the default start (default 2).
    pub restarts: usize,
    /// L-BFGS iterations per restart (default 40).
    pub max_iters: usize,
    /// Seed for restart perturbations (default 0).
    pub seed: u64,
    /// Strength of the Gaussian prior pulling log-hyperparameters toward
    /// their defaults; `0.5/σ²` with σ = 3 by default. Keeps the optimizer
    /// out of degenerate corners (zero noise / infinite length-scale).
    pub prior_strength: f64,
    /// If the training set exceeds this size, hyperparameters are trained
    /// on a random subset of this many points (default 200). Exact GP
    /// training is O(n³) per gradient; on the class-E benchmark n reaches
    /// 470 and full-data training would dominate the runtime without
    /// changing the learned length-scales meaningfully.
    pub max_points: usize,
    /// Warm start: reuse these hyperparameters `[θ…, log σ_n²]` as the
    /// first starting point (used by BO drivers across refits).
    pub warm_start: Option<Vec<f64>>,
    /// Worker threads for the L-BFGS restarts (default: available cores;
    /// 1 = the legacy sequential path). The learned hyperparameters are
    /// bit-identical at any setting: every start is generated before the
    /// fan-out and the reduction scans results in start order.
    pub parallelism: Parallelism,
}

impl Default for TrainConfig {
    fn default() -> Self {
        TrainConfig {
            restarts: 2,
            max_iters: 40,
            seed: 0,
            prior_strength: 0.5 / 9.0,
            max_points: 200,
            warm_start: None,
            parallelism: Parallelism::default(),
        }
    }
}

/// Trains `(theta, log_noise)` by maximizing the penalized LML.
///
/// Returns the best hyperparameters found; never fails — if every start is
/// numerically hopeless the defaults are returned.
pub(crate) fn train(
    kernel: &ArdKernel,
    x: &[Vec<f64>],
    z: &Vector,
    config: &TrainConfig,
    noise_floor: f64,
    telemetry: &Telemetry,
) -> (Vec<f64>, f64) {
    let n_kernel = kernel.n_theta();
    let n_params = n_kernel + 1; // + log noise
    let mut rng = rand::rngs::StdRng::seed_from_u64(config.seed);

    // Optional subsampling for large training sets.
    let (xs, zs): (Vec<Vec<f64>>, Vector) = if x.len() > config.max_points {
        let mut idx: Vec<usize> = (0..x.len()).collect();
        // Fisher-Yates prefix shuffle.
        for i in 0..config.max_points {
            let j = rng.gen_range(i..idx.len());
            idx.swap(i, j);
        }
        idx.truncate(config.max_points);
        (
            idx.iter().map(|&i| x[i].clone()).collect(),
            Vector::from_iter(idx.iter().map(|&i| z[i])),
        )
    } else {
        (x.to_vec(), z.clone())
    };

    // Default start: moderately short length-scales for unit-cube-ish
    // inputs, unit signal variance, small noise.
    let mut default_start = vec![(0.5f64).ln(); n_params];
    default_start[n_kernel - 1] = 0.0; // log sf2
    default_start[n_kernel] = (1e-4f64).ln(); // log sn2
    let prior_center = default_start.clone();

    let mut starts = Vec::with_capacity(config.restarts + 2);
    if let Some(w) = &config.warm_start {
        if w.len() == n_params {
            starts.push(w.clone());
        }
    }
    starts.push(default_start.clone());
    for _ in 0..config.restarts {
        let s: Vec<f64> = default_start
            .iter()
            .map(|&v| v + rng.gen_range(-1.5..1.5))
            .collect();
        starts.push(s);
    }

    let lbfgs = easybo_opt::Lbfgs::new(easybo_opt::LbfgsConfig {
        max_iters: config.max_iters,
        ..Default::default()
    })
    .expect("static L-BFGS config is valid");

    // Cached metric handles so the hot objective pays one atomic add per
    // call, and nothing at all when telemetry is disabled.
    let nll_evals = telemetry.counter("gp_nll_evals");
    let chol_factorizations = telemetry.counter("gp_cholesky_factorizations");
    let kernel_evals = telemetry.counter("gp_kernel_evals");
    // Per objective call: n(n+1)/2 kernel evaluations for the covariance
    // plus the same again (with gradients) for ∂K/∂θ.
    let kernel_evals_per_nll = (xs.len() * (xs.len() + 1)) as u64;

    // All starts are fixed before the fan-out (the RNG is never touched by
    // a worker), each L-BFGS run is independent, and the reduction below
    // scans results in start order with a strict-improvement test — so the
    // winner is bit-identical at any parallelism level.
    let results = easybo_opt::parallel_map(config.parallelism, starts, |_, start| {
        lbfgs.minimize(start, |params, grad| {
            if let Some(c) = &nll_evals {
                c.incr();
            }
            if let Some(c) = &chol_factorizations {
                c.incr();
            }
            if let Some(c) = &kernel_evals {
                c.add(kernel_evals_per_nll);
            }
            penalized_nll(
                kernel,
                &xs,
                &zs,
                params,
                &prior_center,
                config.prior_strength,
                grad,
            )
        })
    });
    let mut best_params = default_start;
    let mut best_obj = f64::INFINITY;
    for (p, obj) in results {
        if obj < best_obj && p.iter().all(|v| v.is_finite()) {
            best_obj = obj;
            best_params = p;
        }
    }

    // Clamp to sane boxes: length-scales and signal variance within e^±6,
    // noise above the floor.
    let mut theta: Vec<f64> = best_params[..n_kernel]
        .iter()
        .map(|&v| v.clamp(-6.0, 6.0))
        .collect();
    // Signal variance clamps tighter on the low side (targets are z-scored).
    theta[n_kernel - 1] = theta[n_kernel - 1].clamp(-4.0, 4.0);
    let log_noise = best_params[n_kernel].clamp(noise_floor.ln(), 0.0);
    (theta, log_noise)
}

/// Penalized negative LML and its gradient with respect to
/// `params = [θ…, log σ_n²]`.
///
/// `∂LML/∂θⱼ = ½ tr((ααᵀ − K⁻¹) ∂K/∂θⱼ)` (Rasmussen & Williams Eq. 5.9).
fn penalized_nll(
    kernel: &ArdKernel,
    x: &[Vec<f64>],
    z: &Vector,
    params: &[f64],
    prior_center: &[f64],
    prior_strength: f64,
    grad: &mut [f64],
) -> f64 {
    let n = x.len();
    let n_kernel = kernel.n_theta();
    let theta = &params[..n_kernel];
    let log_noise = params[n_kernel];
    if params.iter().any(|v| !v.is_finite() || v.abs() > 20.0) {
        grad.iter_mut().for_each(|g| *g = 0.0);
        return f64::INFINITY;
    }

    let k = covariance_matrix(kernel, theta, log_noise, x);
    let chol = match Cholesky::new(&k) {
        Ok(c) => c,
        Err(_) => {
            grad.iter_mut().for_each(|g| *g = 0.0);
            return f64::INFINITY;
        }
    };
    let alpha = chol.solve_vec(z);
    let lml = -0.5 * z.dot(&alpha)
        - 0.5 * chol.log_det()
        - 0.5 * n as f64 * (2.0 * std::f64::consts::PI).ln();

    // W = ααᵀ − K⁻¹ is symmetric, so tr(W ∂K/∂θ) runs over the lower
    // triangle with off-diagonal pairs counted twice. Each pair's scaled
    // differences are computed once and feed the kernel value, its radial
    // derivative and every gradient term; W is formed entry by entry.
    let kinv = chol.inverse();
    let dim = kernel.dim();
    let inv_l = kernel.inv_lengthscales(theta);
    let sf2 = kernel.signal_variance(theta);
    let mut u = vec![0.0; dim];
    let mut lml_grad = vec![0.0; n_kernel + 1];
    let mut w_trace = 0.0;
    for i in 0..n {
        let kinv_i = kinv.row(i);
        for j in 0..=i {
            let (kv, radial) = kernel.eval_scaled(sf2, &inv_l, &x[i], &x[j], &mut u);
            let w = alpha[i] * alpha[j] - kinv_i[j];
            let weight = if i == j { w } else { 2.0 * w };
            for (gsum, &ut) in lml_grad[..dim].iter_mut().zip(&u) {
                *gsum += 0.5 * weight * (radial * ut * ut);
            }
            lml_grad[dim] += 0.5 * weight * kv;
        }
        w_trace += alpha[i] * alpha[i] - kinv_i[i];
    }
    // ∂K/∂log σ_n² = σ_n² I.
    let noise = log_noise.exp();
    lml_grad[n_kernel] = 0.5 * noise * w_trace;

    // Negate for minimization and add the Gaussian prior penalty.
    let mut obj = -lml;
    for i in 0..params.len() {
        let d = params[i] - prior_center[i];
        obj += prior_strength * d * d;
        grad[i] = -lml_grad[i] + 2.0 * prior_strength * d;
    }
    obj
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::KernelFamily;
    use easybo_linalg::Matrix;

    /// The two-pass objective — a materialized W = ααᵀ − K⁻¹ and one
    /// `eval_with_grad` per pair. Oracle for the fused
    /// [`penalized_nll`]; it reads only the lower triangle of K⁻¹, which
    /// `Cholesky::inverse` keeps bit-identical to the full identity solve.
    fn penalized_nll_reference(
        kernel: &ArdKernel,
        x: &[Vec<f64>],
        z: &Vector,
        params: &[f64],
        prior_center: &[f64],
        prior_strength: f64,
        grad: &mut [f64],
    ) -> f64 {
        let n = x.len();
        let n_kernel = kernel.n_theta();
        let theta = &params[..n_kernel];
        let log_noise = params[n_kernel];
        if params.iter().any(|v| !v.is_finite() || v.abs() > 20.0) {
            grad.iter_mut().for_each(|g| *g = 0.0);
            return f64::INFINITY;
        }
        let k = covariance_matrix(kernel, theta, log_noise, x);
        let chol = match Cholesky::new(&k) {
            Ok(c) => c,
            Err(_) => {
                grad.iter_mut().for_each(|g| *g = 0.0);
                return f64::INFINITY;
            }
        };
        let alpha = chol.solve_vec(z);
        let lml = -0.5 * z.dot(&alpha)
            - 0.5 * chol.log_det()
            - 0.5 * n as f64 * (2.0 * std::f64::consts::PI).ln();
        let kinv = chol.inverse();
        let mut w = Matrix::zeros(n, n);
        for i in 0..n {
            for j in 0..n {
                w[(i, j)] = alpha[i] * alpha[j] - kinv[(i, j)];
            }
        }
        let mut kgrad = vec![0.0; n_kernel];
        let mut lml_grad = vec![0.0; n_kernel + 1];
        for i in 0..n {
            for j in 0..=i {
                kernel.eval_with_grad(theta, &x[i], &x[j], &mut kgrad);
                let weight = if i == j { w[(i, j)] } else { 2.0 * w[(i, j)] };
                for (gsum, &kg) in lml_grad[..n_kernel].iter_mut().zip(kgrad.iter()) {
                    *gsum += 0.5 * weight * kg;
                }
            }
        }
        let noise = log_noise.exp();
        lml_grad[n_kernel] = 0.5 * noise * w.trace();
        let mut obj = -lml;
        for i in 0..params.len() {
            let d = params[i] - prior_center[i];
            obj += prior_strength * d * d;
            grad[i] = -lml_grad[i] + 2.0 * prior_strength * d;
        }
        obj
    }

    const FAMILIES: [KernelFamily; 4] = [
        KernelFamily::SquaredExponential,
        KernelFamily::Matern52,
        KernelFamily::Matern32,
        KernelFamily::RationalQuadratic,
    ];

    /// Asserts the fused objective and its gradient equal the reference
    /// bit for bit at `params`.
    fn assert_matches_reference(
        kernel: &ArdKernel,
        x: &[Vec<f64>],
        z: &Vector,
        params: &[f64],
        center: &[f64],
    ) {
        let mut grad = vec![f64::NAN; params.len()];
        let mut grad_ref = vec![f64::NAN; params.len()];
        let obj = penalized_nll(kernel, x, z, params, center, 0.05, &mut grad);
        let obj_ref = penalized_nll_reference(kernel, x, z, params, center, 0.05, &mut grad_ref);
        let ctx = format!("{:?} n={} params={params:?}", kernel.family(), x.len());
        assert_eq!(obj.to_bits(), obj_ref.to_bits(), "objective, {ctx}");
        for (j, (g, r)) in grad.iter().zip(&grad_ref).enumerate() {
            assert_eq!(g.to_bits(), r.to_bits(), "gradient {j}, {ctx}");
        }
    }

    #[test]
    fn fused_objective_is_bitwise_reference() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(2020);
        for (n, dim) in [(1usize, 3usize), (2, 3), (3, 2), (24, 10), (160, 12)] {
            let x: Vec<Vec<f64>> = (0..n)
                .map(|_| (0..dim).map(|_| rng.gen_range(0.0..1.0)).collect())
                .collect();
            let z = Vector::from_iter((0..n).map(|_| rng.gen_range(-2.0..2.0)));
            for fam in FAMILIES {
                let kernel = ArdKernel::new(fam, dim);
                let center = vec![0.0; dim + 2];
                for _ in 0..3 {
                    let mut params: Vec<f64> = (0..dim).map(|_| rng.gen_range(-2.5..1.5)).collect();
                    params.push(rng.gen_range(-1.5..1.5)); // log sf2
                    params.push(rng.gen_range(-9.0..-1.0)); // log sn2
                    assert_matches_reference(&kernel, &x, &z, &params, &center);
                }
            }
        }
    }

    #[test]
    fn early_returns_give_infinity_and_zero_gradient() {
        let (x, z) = data();
        let kernel = ArdKernel::new(KernelFamily::SquaredExponential, 1);
        let center = [0.0; 3];
        let mut bad_x = x.clone();
        bad_x[3][0] = f64::NAN; // non-finite kernel matrix: Cholesky fails
        let cases: [(&[Vec<f64>], [f64; 3]); 4] = [
            (&x, [f64::NAN, 0.0, -3.0]),
            (&x, [0.0, f64::INFINITY, -3.0]),
            (&x, [0.0, 0.0, -20.5]),
            (&bad_x, [-0.5, 0.2, -3.0]),
        ];
        for (xs, params) in cases {
            let mut grad = vec![1.0; 3];
            let obj = penalized_nll(&kernel, xs, &z, &params, &center, 0.05, &mut grad);
            assert_eq!(obj, f64::INFINITY, "{params:?}");
            assert!(grad.iter().all(|&g| g == 0.0), "{params:?}: {grad:?}");
            assert_matches_reference(&kernel, xs, &z, &params, &center);
        }
    }

    fn data() -> (Vec<Vec<f64>>, Vector) {
        let x: Vec<Vec<f64>> = (0..15).map(|i| vec![i as f64 / 14.0]).collect();
        let y: Vec<f64> = x.iter().map(|p| (5.0 * p[0]).sin()).collect();
        let scaler = crate::YScaler::fit(&y);
        let z = Vector::from_iter(y.iter().map(|&v| scaler.transform(v)));
        (x, z)
    }

    #[test]
    fn gradient_matches_finite_differences() {
        let (x, z) = data();
        let kernel = ArdKernel::new(KernelFamily::SquaredExponential, 1);
        let params = vec![-0.5, 0.2, -3.0];
        let center = vec![0.0; 3];
        let mut grad = vec![0.0; 3];
        let f0 = penalized_nll(&kernel, &x, &z, &params, &center, 0.05, &mut grad);
        assert!(f0.is_finite());
        let eps = 1e-5;
        for j in 0..3 {
            let mut pp = params.clone();
            pp[j] += eps;
            let mut pm = params.clone();
            pm[j] -= eps;
            let mut scratch = vec![0.0; 3];
            let fp = penalized_nll(&kernel, &x, &z, &pp, &center, 0.05, &mut scratch);
            let fm = penalized_nll(&kernel, &x, &z, &pm, &center, 0.05, &mut scratch);
            let fd = (fp - fm) / (2.0 * eps);
            assert!(
                (grad[j] - fd).abs() < 1e-4 * (1.0 + fd.abs()),
                "param {j}: analytic {} vs fd {fd}",
                grad[j]
            );
        }
    }

    #[test]
    fn gradient_matches_fd_for_matern() {
        let (x, z) = data();
        for fam in [KernelFamily::Matern52, KernelFamily::Matern32] {
            let kernel = ArdKernel::new(fam, 1);
            let params = vec![-0.3, 0.1, -2.5];
            let center = vec![0.0; 3];
            let mut grad = vec![0.0; 3];
            penalized_nll(&kernel, &x, &z, &params, &center, 0.0, &mut grad);
            let eps = 1e-5;
            for j in 0..3 {
                let mut pp = params.clone();
                pp[j] += eps;
                let mut pm = params.clone();
                pm[j] -= eps;
                let mut scratch = vec![0.0; 3];
                let fp = penalized_nll(&kernel, &x, &z, &pp, &center, 0.0, &mut scratch);
                let fm = penalized_nll(&kernel, &x, &z, &pm, &center, 0.0, &mut scratch);
                let fd = (fp - fm) / (2.0 * eps);
                assert!(
                    (grad[j] - fd).abs() < 1e-4 * (1.0 + fd.abs()),
                    "{fam:?} param {j}: {} vs {fd}",
                    grad[j]
                );
            }
        }
    }

    #[test]
    fn training_improves_on_default() {
        let (x, z) = data();
        let kernel = ArdKernel::new(KernelFamily::SquaredExponential, 1);
        let config = TrainConfig::default();
        let (theta, log_noise) = train(&kernel, &x, &z, &config, 1e-8, &Telemetry::disabled());
        let mut grad = vec![0.0; 3];
        let center = vec![(0.5f64).ln(), 0.0, (1e-4f64).ln()];
        let mut params = theta.clone();
        params.push(log_noise);
        let trained = penalized_nll(
            &kernel,
            &x,
            &z,
            &params,
            &center,
            config.prior_strength,
            &mut grad,
        );
        let at_default = penalized_nll(
            &kernel,
            &x,
            &z,
            &center,
            &center,
            config.prior_strength,
            &mut grad,
        );
        assert!(trained <= at_default + 1e-9, "{trained} vs {at_default}");
    }

    #[test]
    fn noise_respects_floor() {
        let (x, z) = data();
        let kernel = ArdKernel::new(KernelFamily::SquaredExponential, 1);
        let (_, log_noise) = train(
            &kernel,
            &x,
            &z,
            &TrainConfig::default(),
            1e-6,
            &Telemetry::disabled(),
        );
        assert!(log_noise >= (1e-6f64).ln() - 1e-12);
        assert!(log_noise <= 0.0);
    }

    #[test]
    fn warm_start_is_used_and_beats_cold_on_budget() {
        let (x, z) = data();
        let kernel = ArdKernel::new(KernelFamily::SquaredExponential, 1);
        // First train normally.
        let (theta, log_noise) = train(
            &kernel,
            &x,
            &z,
            &TrainConfig::default(),
            1e-8,
            &Telemetry::disabled(),
        );
        let mut warm = theta.clone();
        warm.push(log_noise);
        // Retrain with zero restarts and tiny budget using the warm start:
        // must stay at least as good as the warm start itself.
        let cfg = TrainConfig {
            restarts: 0,
            max_iters: 2,
            warm_start: Some(warm),
            ..Default::default()
        };
        let (theta2, _) = train(&kernel, &x, &z, &cfg, 1e-8, &Telemetry::disabled());
        // Warm-started result should be close to the previous optimum.
        for (a, b) in theta.iter().zip(theta2.iter()) {
            assert!(
                (a - b).abs() < 1.0,
                "warm start drifted: {theta:?} vs {theta2:?}"
            );
        }
    }

    #[test]
    fn subsampling_kicks_in_for_large_sets() {
        let x: Vec<Vec<f64>> = (0..60).map(|i| vec![(i as f64) / 59.0]).collect();
        let y: Vec<f64> = x.iter().map(|p| p[0] * p[0]).collect();
        let z = Vector::from(y);
        let kernel = ArdKernel::new(KernelFamily::SquaredExponential, 1);
        let cfg = TrainConfig {
            max_points: 20,
            restarts: 0,
            max_iters: 10,
            ..Default::default()
        };
        // Just checks it runs and produces finite results on the subset path.
        let (theta, log_noise) = train(&kernel, &x, &z, &cfg, 1e-8, &Telemetry::disabled());
        assert!(theta.iter().all(|v| v.is_finite()));
        assert!(log_noise.is_finite());
    }

    #[test]
    fn parallel_training_is_bit_identical_across_parallelism() {
        let (x, z) = data();
        let kernel = ArdKernel::new(KernelFamily::SquaredExponential, 1);
        let base = TrainConfig {
            restarts: 3,
            seed: 17,
            parallelism: Parallelism::sequential(),
            ..Default::default()
        };
        let (theta_ref, noise_ref) = train(&kernel, &x, &z, &base, 1e-8, &Telemetry::disabled());
        for k in [2usize, 8] {
            let cfg = TrainConfig {
                parallelism: Parallelism::new(k),
                ..base.clone()
            };
            let (theta, noise) = train(&kernel, &x, &z, &cfg, 1e-8, &Telemetry::disabled());
            // Exact equality: parallel restarts must not perturb training.
            for (a, b) in theta.iter().zip(&theta_ref) {
                assert_eq!(a.to_bits(), b.to_bits(), "theta differs at k = {k}");
            }
            assert_eq!(
                noise.to_bits(),
                noise_ref.to_bits(),
                "noise differs at k = {k}"
            );
        }
    }

    #[test]
    fn parallel_training_keeps_telemetry_counts() {
        let (x, z) = data();
        let kernel = ArdKernel::new(KernelFamily::SquaredExponential, 1);
        let counts = |k: usize| {
            let t = Telemetry::new();
            let cfg = TrainConfig {
                restarts: 2,
                parallelism: Parallelism::new(k),
                ..Default::default()
            };
            train(&kernel, &x, &z, &cfg, 1e-8, &t);
            t.metrics_snapshot().unwrap().counter("gp_nll_evals")
        };
        let seq = counts(1);
        assert!(seq > 0);
        assert_eq!(seq, counts(4), "eval counts must not depend on threading");
    }

    /// One training result pinned bit for bit: the L-BFGS the acquisition
    /// refiner shares must leave unbounded training untouched.
    #[test]
    fn training_result_is_pinned() {
        let x: Vec<Vec<f64>> = (0..24)
            .map(|i| {
                (0..3)
                    .map(|j| ((i * 7 + j * 11) % 24) as f64 / 23.0)
                    .collect()
            })
            .collect();
        let y: Vec<f64> = x
            .iter()
            .map(|p| (3.0 * p[0]).sin() + p[1] * p[2] - 0.5 * p[2])
            .collect();
        let scaler = crate::YScaler::fit(&y);
        let z = Vector::from_iter(y.iter().map(|&v| scaler.transform(v)));
        let pinned: [(KernelFamily, [u64; 5]); 2] = [
            (
                KernelFamily::SquaredExponential,
                [
                    0x3f9a_f2a7_f602_ad75,
                    0x3fff_f6e6_df6d_5228,
                    0x4004_b7ab_eccb_e316,
                    0x4010_0000_0000_0000,
                    0xc032_6bb1_bbb5_5516,
                ],
            ),
            (
                KernelFamily::Matern52,
                [
                    0x3ff2_05de_e44d_1611,
                    0x4002_1095_465a_43b7,
                    0x4002_a689_93f2_20cc,
                    0x4010_0000_0000_0000,
                    0xc030_28bb_7f1a_1974,
                ],
            ),
        ];
        let (telemetry, _recorder) = Telemetry::recording();
        for (family, want) in pinned {
            let kernel = ArdKernel::new(family, 3);
            let cfg = TrainConfig {
                restarts: 2,
                seed: 5,
                parallelism: Parallelism::sequential(),
                ..Default::default()
            };
            let (theta, noise) = train(&kernel, &x, &z, &cfg, 1e-8, &telemetry);
            let got: Vec<u64> = theta.iter().chain([&noise]).map(|v| v.to_bits()).collect();
            assert_eq!(got, want, "{family:?}");
        }
        let metrics = telemetry.metrics_snapshot().unwrap();
        assert_eq!(metrics.counter("gp_nll_evals"), 496);
    }

    #[test]
    fn infinite_objective_outside_safe_box() {
        let (x, z) = data();
        let kernel = ArdKernel::new(KernelFamily::SquaredExponential, 1);
        let mut grad = vec![0.0; 3];
        let obj = penalized_nll(
            &kernel,
            &x,
            &z,
            &[50.0, 0.0, -3.0],
            &[0.0; 3],
            0.0,
            &mut grad,
        );
        assert!(obj.is_infinite());
        assert!(grad.iter().all(|&g| g == 0.0));
    }
}
