//! Property-based cross-crate invariants: randomized checks of the
//! mathematical contracts the EasyBO stack depends on.

use easybo::acquisition::Score;
use easybo_exec::{CostedFunction, Dataset, SimTimeModel, VirtualExecutor};
use easybo_gp::{Gp, GpConfig, KernelFamily};
use easybo_opt::{sampling, Bounds};
use proptest::prelude::*;
use rand::SeedableRng;

/// Builds deterministic pseudo-random training data in `d` dimensions.
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The GP posterior must (nearly) interpolate its own training data
    /// when the noise floor is tiny, for every kernel family.
    #[test]
    fn gp_interpolates_training_data(seed in 0u64..50, d in 1usize..4) {
        let (xs, ys) = training_data(10, d, seed);
        for fam in [
            KernelFamily::SquaredExponential,
            KernelFamily::Matern52,
            KernelFamily::Matern32,
        ] {
            let mut theta = vec![-1.0; d + 1];
            theta[d] = 0.0;
            let gp = Gp::fit_with_params(
                xs.clone(), ys.clone(), fam, theta, (1e-8f64).ln(),
            ).expect("fits");
            for (x, y) in xs.iter().zip(ys.iter()) {
                let p = gp.predict(x);
                prop_assert!(
                    (p.mean - y).abs() < 0.05 * (1.0 + y.abs()),
                    "{fam:?}: {} vs {y}", p.mean
                );
            }
        }
    }

    /// Posterior variance never exceeds the prior variance and never goes
    /// negative, anywhere.
    #[test]
    fn gp_variance_is_bounded(seed in 0u64..50) {
        let (xs, ys) = training_data(12, 2, seed);
        let gp = Gp::fit(xs, ys, GpConfig::default()).expect("fits");
        let prior_var = gp.kernel().eval(gp.theta(), &[0.5, 0.5], &[0.5, 0.5])
            * gp.scaler().std() * gp.scaler().std();
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed ^ 77);
        let bounds = Bounds::new(vec![(-1.0, 2.0); 2]).expect("box");
        for q in sampling::uniform(&bounds, 40, &mut rng) {
            let v = gp.predict(&q).variance;
            prop_assert!(v >= 0.0, "negative variance {v} at {q:?}");
            prop_assert!(v <= prior_var * 1.001, "{v} exceeds prior {prior_var}");
        }
    }

    /// Virtual executor conservation: total busy time equals the sum of the
    /// per-evaluation costs, and the async makespan is bounded by
    /// [sum/B, sum] for B workers.
    #[test]
    fn executor_time_conservation(seed in 0u64..100, workers in 1usize..6) {
        let bounds = Bounds::unit_cube(1).expect("cube");
        let time = SimTimeModel::new(&bounds, 10.0, 0.3, seed);
        let costs = std::cell::RefCell::new(Vec::<f64>::new());
        let bb = CostedFunction::new("toy", bounds.clone(), time.clone(), |x: &[f64]| x[0]);
        // Capture the true costs by replaying the time model.
        struct Walk(f64);
        impl easybo_exec::AsyncPolicy for Walk {
            fn select_next(&mut self, _d: &Dataset, _b: &[easybo_exec::BusyPoint]) -> Vec<f64> {
                self.0 = (self.0 + 0.37) % 1.0;
                vec![self.0]
            }
        }
        let r = VirtualExecutor::new(workers).run_async(&bb, &[vec![0.1]], 12, &mut Walk(0.0));
        for x in r.data.xs() {
            costs.borrow_mut().push(time.cost(x));
        }
        let total: f64 = costs.borrow().iter().sum();
        prop_assert!((r.schedule.busy_time() - total).abs() < 1e-6);
        prop_assert!(r.total_time() <= total + 1e-9);
        prop_assert!(r.total_time() >= total / workers as f64 - 1e-9);
    }

    /// Attempt conservation under fault injection: every issued query is
    /// accounted for — it either finished or failed, with nothing left in
    /// flight once the virtual executor drains its event heap — and the
    /// policy never sees more busy points than there are workers.
    #[test]
    fn attempts_are_conserved_and_busy_points_bounded(
        seed in 0u64..200, workers in 1usize..6, fail in 0.0f64..0.5
    ) {
        use easybo_exec::{FailureAction, FaultPlan, FaultyBlackBox, RetryPolicy};
        use easybo_telemetry::Telemetry;

        let bounds = Bounds::unit_cube(1).expect("cube");
        let time = SimTimeModel::new(&bounds, 20.0, 0.3, seed);
        let inner = CostedFunction::new("toy", bounds, time, |x: &[f64]| x[0]);
        let plan = FaultPlan { seed, fail_rate: fail, ..FaultPlan::default() };
        let bb = FaultyBlackBox::new(inner, plan);

        /// Policy that records the largest busy set it was ever shown.
        struct Spy { next: f64, max_busy: usize }
        impl easybo_exec::AsyncPolicy for Spy {
            fn select_next(&mut self, _d: &Dataset, b: &[easybo_exec::BusyPoint]) -> Vec<f64> {
                self.max_busy = self.max_busy.max(b.len());
                self.next = (self.next + 0.29) % 1.0;
                vec![self.next]
            }
        }

        let retry = RetryPolicy::default()
            .max_attempts(3)
            .backoff(1.0, 2.0)
            .on_exhausted(FailureAction::Drop);
        let (telemetry, recorder) = Telemetry::recording();
        let mut spy = Spy { next: 0.0, max_busy: 0 };
        let r = VirtualExecutor::new(workers).run_async_resilient(
            &bb, &[vec![0.5]], 14, &mut spy, &retry, &telemetry,
        );

        let events = recorder.events();
        let count = |kind: &str| events.iter().filter(|e| e.event.kind() == kind).count();
        // Conservation: with `Drop`, each attempt resolves as exactly one
        // of finished/failed and in-flight-at-termination is zero.
        prop_assert_eq!(count("QueryIssued"), count("EvalFinished") + count("EvalFailed"));
        prop_assert_eq!(count("EvalFinished"), r.data.len());
        // The policy is only consulted when a worker idles, so at most
        // workers - 1 other points can be pending at selection time.
        prop_assert!(
            spy.max_busy <= workers,
            "policy saw {} busy points with {} workers", spy.max_busy, workers
        );
    }

    /// Latin hypercube designs are always one-point-per-stratum, for any
    /// size and dimension.
    #[test]
    fn lhs_stratification_holds(n in 1usize..40, d in 1usize..8, seed in 0u64..100) {
        let bounds = Bounds::unit_cube(d).expect("cube");
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let pts = sampling::latin_hypercube(&bounds, n, &mut rng);
        prop_assert_eq!(pts.len(), n);
        for dim in 0..d {
            let mut hits = vec![false; n];
            for p in &pts {
                let s = ((p[dim] * n as f64) as usize).min(n - 1);
                prop_assert!(!hits[s], "stratum {s} of dim {dim} double-hit");
                hits[s] = true;
            }
        }
    }

    /// Augmenting a GP with hallucinated points never increases the
    /// predictive variance anywhere (information monotonicity).
    #[test]
    fn hallucination_monotonicity(seed in 0u64..40, n_busy in 1usize..5) {
        let (xs, ys) = training_data(10, 2, seed);
        let gp = Gp::fit(xs, ys, GpConfig::default()).expect("fits");
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed ^ 3);
        let cube = Bounds::unit_cube(2).expect("cube");
        let busy = sampling::uniform(&cube, n_busy, &mut rng);
        let aug = gp.augment(&busy).expect("augments");
        for q in sampling::uniform(&cube, 20, &mut rng) {
            let v0 = gp.predict(&q).variance;
            let v1 = aug.predict(&q).variance;
            prop_assert!(v1 <= v0 + 1e-9, "variance rose: {v0} -> {v1}");
        }
    }

    /// The weighted acquisition is monotone in w between its endpoints:
    /// α(x, w) is a convex combination, so it is bounded by μ and σ.
    #[test]
    fn weighted_acquisition_is_convex_combination(
        seed in 0u64..40, w in 0.0..1.0f64
    ) {
        let (xs, ys) = training_data(8, 1, seed);
        let gp = Gp::fit(xs, ys, GpConfig::default()).expect("fits");
        for qx in [0.1, 0.5, 0.9, 1.4] {
            let q = [qx];
            let (mu, var) = gp.predict_standardized(&q);
            let sigma = var.max(0.0).sqrt();
            let a = Score::Weighted(w).of((mu, var));
            let lo = mu.min(sigma) - 1e-12;
            let hi = mu.max(sigma) + 1e-12;
            prop_assert!(a >= lo && a <= hi, "α({qx}, {w}) = {a} outside [{lo}, {hi}]");
        }
    }
}

/// Determinism across the whole stack: the same seed must give the same
/// run at every layer (non-proptest because it is a single scenario).
#[test]
fn full_stack_determinism() {
    use easybo::Algorithm;
    let bounds = Bounds::unit_cube(3).expect("cube");
    let time = SimTimeModel::new(&bounds, 20.0, 0.25, 5);
    let bb = CostedFunction::new("det", bounds, time, |x: &[f64]| {
        -(x[0] - 0.3f64).powi(2) - (x[1] - 0.7f64).powi(2) - x[2]
    });
    for algo in [Algorithm::EasyBo, Algorithm::Phcbo, Algorithm::Ei] {
        let a = algo.run(&bb, 3, 20, 8, 0, 123);
        let b = algo.run(&bb, 3, 20, 8, 0, 123);
        assert_eq!(a.data, b.data, "{algo:?} not deterministic");
        assert_eq!(a.trace, b.trace, "{algo:?} trace not deterministic");
    }
}
