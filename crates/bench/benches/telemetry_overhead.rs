//! Telemetry overhead micro-benchmarks.
//!
//! The observability layer's contract is "free when off": a disabled
//! handle short-circuits on an `Option` check with no allocation, so
//! instrumented code paths must run at seed speed. Two workloads:
//!
//! 1. the Fig. 1 schedule reproduction (full EasyBO policy, GP refits
//!    included) — the acceptance check is that the disabled-telemetry
//!    run stays within 2% of the uninstrumented entry point;
//! 2. a policy-free executor hot loop (hundreds of cheap evaluations)
//!    where per-event costs are not drowned out by GP algebra, compared
//!    across no telemetry / disabled handle / in-memory recorder.

use criterion::{criterion_group, criterion_main, Criterion};
use easybo::policies::EasyBoAsyncPolicy;
use easybo_bench::opamp_blackbox;
use easybo_exec::{
    AsyncPolicy, BlackBox, BusyPoint, CostedFunction, Dataset, RetryPolicy, SimTimeModel,
    VirtualExecutor,
};
use easybo_opt::{sampling, Bounds};
use easybo_telemetry::Telemetry;
use rand::SeedableRng;

fn fig1_init(bb: &dyn BlackBox) -> Vec<Vec<f64>> {
    let mut rng = rand::rngs::StdRng::seed_from_u64(42);
    sampling::latin_hypercube(bb.bounds(), 6, &mut rng)
}

fn bench_fig1_schedule(c: &mut Criterion) {
    let bb = opamp_blackbox();
    let init = fig1_init(&bb);
    let none = RetryPolicy::none();

    // Seed entry point: no telemetry parameter anywhere.
    c.bench_function("fig1_async_schedule_no_telemetry", |b| {
        b.iter(|| {
            let mut policy = EasyBoAsyncPolicy::new(bb.bounds().clone(), true, 7);
            VirtualExecutor::new(3).run_async(&bb, &init, 18, &mut policy)
        })
    });

    // Instrumented entry point, telemetry disabled — the default for
    // every run that does not opt in. Must be within 2% of the above.
    c.bench_function("fig1_async_schedule_disabled_telemetry", |b| {
        b.iter(|| {
            let mut policy = EasyBoAsyncPolicy::new(bb.bounds().clone(), true, 7);
            VirtualExecutor::new(3).run_async_resilient(
                &bb,
                &init,
                18,
                &mut policy,
                &none,
                &Telemetry::disabled(),
            )
        })
    });

    // Full recording, for scale: how much observing actually costs.
    c.bench_function("fig1_async_schedule_recorder", |b| {
        b.iter(|| {
            let (telemetry, _recorder) = Telemetry::recording();
            let mut policy = EasyBoAsyncPolicy::new(bb.bounds().clone(), true, 7);
            VirtualExecutor::new(3).run_async_resilient(
                &bb,
                &init,
                18,
                &mut policy,
                &none,
                &telemetry,
            )
        })
    });
}

/// Trivial policy: isolates the executor's per-event bookkeeping from
/// model costs.
struct Walker(f64);
impl AsyncPolicy for Walker {
    fn select_next(&mut self, _d: &Dataset, _b: &[BusyPoint]) -> Vec<f64> {
        self.0 = (self.0 + 0.31) % 1.0;
        vec![self.0]
    }
}

fn cheap_blackbox() -> CostedFunction<impl Fn(&[f64]) -> f64 + Send + Sync> {
    let bounds = Bounds::unit_cube(1).unwrap();
    let time = SimTimeModel::new(&bounds, 25.0, 0.3, 9);
    CostedFunction::new("cheap", bounds, time, |x: &[f64]| 1.0 - (x[0] - 0.6).abs())
}

fn bench_executor_hot_loop(c: &mut Criterion) {
    let bb = cheap_blackbox();
    let evals = 512;
    let none = RetryPolicy::none();

    c.bench_function("hot_loop_512_evals_no_telemetry", |b| {
        b.iter(|| VirtualExecutor::new(4).run_async(&bb, &[], evals, &mut Walker(0.0)))
    });
    c.bench_function("hot_loop_512_evals_disabled_telemetry", |b| {
        b.iter(|| {
            VirtualExecutor::new(4).run_async_resilient(
                &bb,
                &[],
                evals,
                &mut Walker(0.0),
                &none,
                &Telemetry::disabled(),
            )
        })
    });
    c.bench_function("hot_loop_512_evals_recorder", |b| {
        b.iter(|| {
            let (telemetry, _recorder) = Telemetry::recording();
            VirtualExecutor::new(4).run_async_resilient(
                &bb,
                &[],
                evals,
                &mut Walker(0.0),
                &none,
                &telemetry,
            )
        })
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_fig1_schedule, bench_executor_hot_loop
}
criterion_main!(benches);
