//! `opamp_table1`: the op-amp at Table I size, async EasyBO then the
//! sync-barrier EasyBO-SP on the same seed.

use std::time::Instant;

use easybo::{Algorithm, EasyBo, RunSetup};
use easybo_exec::{BlackBox, RetryPolicy, VirtualExecutor};
use easybo_opt::Parallelism;

use super::{
    check_run, check_same, eval_layers, opamp_blackbox, policy_layers, span_layers, sub_seed,
    timed_setup, traced_handle, Layers, Plan, RunOut,
};
use crate::probe::{ask_gaps, EvalProbe, PolicyClock, TimedAsync, TimedSync};
use crate::stats::min_samples_for;

const BATCH: usize = 15;
const MAX_EVALS: usize = 150;
const N_INIT: usize = 20;
/// Distinct seeds per run: enough async runs for a p99 with ten
/// samples beyond it.
const SEEDS: usize = 8;
const SALT: u64 = 1;

/// Runs the workload.
pub fn run(plan: Plan) -> RunOut {
    let mut out = RunOut::default();
    let min_units = if plan.trace {
        2
    } else {
        let per_run = MAX_EVALS - N_INIT;
        SEEDS.max(min_samples_for(99.0).div_ceil(per_run))
    };
    let started = Instant::now();
    let mut unit = 0;
    while plan.more(started, unit, min_units) {
        let first_cycle = unit < SEEDS;
        let seed = sub_seed(plan.seed, SALT, (unit % SEEDS) as u64);
        let (bb, setup) = timed_setup(&mut out, || {
            (
                opamp_blackbox(),
                RunSetup::new(BATCH, MAX_EVALS, N_INIT, 0, seed),
            )
        });

        let async_probe = EvalProbe::new(&bb);
        let sync_probe = EvalProbe::new(&bb);
        let t0 = Instant::now();
        let a = Algorithm::EasyBo.run_with(&async_probe, &setup);
        let s = Algorithm::EasyBoSp.run_with(&sync_probe, &setup);
        out.unit_s.push(t0.elapsed().as_secs_f64());

        let a_stamps = async_probe.stamps();
        let s_stamps = sync_probe.stamps();
        out.waits_s.extend(ask_gaps(&a_stamps, N_INIT));
        check_run(&mut out.tally, "EasyBO-15", &a, &a_stamps, MAX_EVALS);
        check_run(&mut out.tally, "EasyBO-SP-15", &s, &s_stamps, MAX_EVALS);
        if first_cycle {
            out.best.extend([a.best_value(), s.best_value()]);
            out.makespan.extend([a.total_time(), s.total_time()]);
        }

        if plan.trace {
            traced_pair(&mut out, &bb, seed, (&a, &s));
        }
        unit += 1;
    }
    out
}

/// The same pair with telemetry on the executor and the async policy
/// and timing wrappers on both policies; must reproduce `plain`.
fn traced_pair(
    out: &mut RunOut,
    bb: &dyn BlackBox,
    seed: u64,
    plain: (&easybo_exec::RunResult, &easybo_exec::RunResult),
) {
    let (telemetry, sink) = traced_handle();
    // The builder constructs the policy and initial design exactly as
    // `Algorithm::EasyBo` does, but lets the telemetry reach the policy.
    let mut opt = EasyBo::new(bb.bounds().clone());
    opt.batch_size(BATCH)
        .initial_points(N_INIT)
        .max_evals(MAX_EVALS)
        .seed(seed)
        .telemetry(telemetry.clone());
    let init = opt.initial_design_points();
    let clock = PolicyClock::default();
    let mut async_policy = TimedAsync {
        inner: opt.build_async_policy(),
        clock: clock.clone(),
    };
    let mut sync_policy = TimedSync {
        inner: Algorithm::EasyBoSp
            .sync_policy(bb.bounds().clone(), seed, Parallelism::default())
            .expect("EasyBO-SP is a sync-batch algorithm"),
        clock: clock.clone(),
    };
    let exec = VirtualExecutor::new(BATCH);
    let async_probe = EvalProbe::new(bb);
    let sync_probe = EvalProbe::new(bb);

    let t0 = Instant::now();
    let a = exec.run_async_resilient(
        &async_probe,
        &init,
        MAX_EVALS,
        &mut async_policy,
        &RetryPolicy::none(),
        &telemetry,
    );
    let s = exec.run_sync_with(&sync_probe, &init, MAX_EVALS, &mut sync_policy, &telemetry);
    out.traced_unit_s.push(t0.elapsed().as_secs_f64());

    let a_stamps = async_probe.stamps();
    let s_stamps = sync_probe.stamps();
    check_run(&mut out.tally, "traced EasyBO-15", &a, &a_stamps, MAX_EVALS);
    check_run(
        &mut out.tally,
        "traced EasyBO-SP-15",
        &s,
        &s_stamps,
        MAX_EVALS,
    );
    check_same(&mut out.tally, "EasyBO-15", &a, plain.0);
    check_same(&mut out.tally, "EasyBO-SP-15", &s, plain.1);

    let mut layers = Layers::new();
    span_layers(&sink, &telemetry, &mut layers);
    let mut stamps = a_stamps;
    stamps.extend(s_stamps);
    policy_layers(&mut layers, ("core.policy_s", "core.policy_calls"), &clock);
    eval_layers(&mut layers, &stamps);
    out.layers.push(layers);
}
