//! `class_e_ckpt`: the class-E PA past the GP's active-set cap, with a
//! durable snapshot after every evaluation.

use std::path::{Path, PathBuf};
use std::time::Instant;

use easybo::{load_snapshot, EasyBo, OptimizationResult, SurrogateConfig};
use easybo_exec::{BlackBox, RunResult};
use easybo_opt::Bounds;

use super::{
    check_run, check_same, class_e_blackbox, eval_layers, span_layers, sub_seed, timed_setup,
    traced_handle, Layers, Plan, RunOut,
};
use crate::probe::{ask_gaps, EvalProbe};
use crate::stats::min_samples_for;
use crate::tally::Tally;

const BATCH: usize = 15;
/// Past the surrogate's 260-point active-set cap, so the capped GP
/// path and the largest factors are exercised.
const MAX_EVALS: usize = 280;
const N_INIT: usize = 20;
/// Retrain whenever n grows 1.2× (the default is 1.4×). The slowest
/// waits are the retrains at the 160-point training cap; at 1.4× a run
/// has about as many of them as it has waits beyond its p99, so the
/// p99 would flip between retrain sizes from seed to seed. At 1.2× a
/// run retrains four times at the cap and the p99 falls among them.
const RETRAIN_GROWTH: f64 = 1.2;
const SALT: u64 = 2;

/// Runs the workload, writing snapshots under `work_dir`.
pub fn run(plan: Plan, work_dir: &Path) -> RunOut {
    let mut out = RunOut::default();
    let per_run = MAX_EVALS - N_INIT;
    let seeds = min_samples_for(99.0).div_ceil(per_run);
    let min_units = if plan.trace { 2 } else { seeds };
    let path = work_dir.join("class_e.snap");
    let started = Instant::now();
    let mut unit = 0;
    while plan.more(started, unit, min_units) {
        let first_cycle = unit < seeds;
        let seed = sub_seed(plan.seed, SALT, (unit % seeds) as u64);
        let (bb, opt) = timed_setup(&mut out, || {
            std::fs::create_dir_all(work_dir).expect("create the snapshot directory");
            let _ = std::fs::remove_file(&path);
            let bb = class_e_blackbox();
            let opt = optimizer(bb.bounds(), seed, &path);
            (bb, opt)
        });
        if out.checkpoint_fs.is_none() {
            out.checkpoint_fs = Some(crate::host::fs_type(work_dir));
        }

        let probe = EvalProbe::new(&bb);
        let t0 = Instant::now();
        let result = opt.run_blackbox(&probe);
        out.unit_s.push(t0.elapsed().as_secs_f64());

        let stamps = probe.stamps();
        out.waits_s.extend(ask_gaps(&stamps, N_INIT));
        let Some(r) = finished(&mut out.tally, result) else {
            unit += 1;
            continue;
        };
        check_run(&mut out.tally, "class-E", &r, &stamps, MAX_EVALS);
        check_snapshot(&mut out.tally, &path, &opt);
        if first_cycle {
            out.best.push(r.best_value());
            out.makespan.push(r.total_time());
        }
        if plan.trace {
            traced_run(&mut out, &bb, seed, &path, &r);
        }
        unit += 1;
    }
    let _ = std::fs::remove_file(&path);
    out
}

fn optimizer(bounds: &Bounds, seed: u64, path: &Path) -> EasyBo {
    let mut opt = EasyBo::new(bounds.clone());
    opt.batch_size(BATCH)
        .initial_points(N_INIT)
        .max_evals(MAX_EVALS)
        .seed(seed)
        .surrogate_config(SurrogateConfig {
            retrain_growth: RETRAIN_GROWTH,
            ..SurrogateConfig::default()
        })
        .checkpoint_to(PathBuf::from(path))
        .checkpoint_every(1);
    opt
}

/// The run result, or a counted failure when the run errored.
fn finished(tally: &mut Tally, result: easybo::Result<OptimizationResult>) -> Option<RunResult> {
    match result {
        Ok(r) => {
            tally.op(true);
            Some(RunResult {
                data: r.data,
                trace: r.trace,
                schedule: r.schedule,
            })
        }
        Err(e) => {
            tally.check(false, || format!("class-E run failed: {e}"));
            None
        }
    }
}

/// The last snapshot on disk holds the whole finished run.
fn check_snapshot(tally: &mut Tally, path: &Path, opt: &EasyBo) {
    let ok = match load_snapshot(path) {
        Ok(snap) => {
            snap.config_fingerprint == opt.config_fingerprint()
                && snap.session.observations.len() == MAX_EVALS
        }
        Err(_) => false,
    };
    tally.check(ok, || {
        format!("final snapshot at {} is incomplete", path.display())
    });
}

/// The same run with telemetry attached through the builder; must
/// reproduce `plain`.
fn traced_run(out: &mut RunOut, bb: &dyn BlackBox, seed: u64, path: &Path, plain: &RunResult) {
    let _ = std::fs::remove_file(path);
    let (telemetry, sink) = traced_handle();
    let mut opt = optimizer(bb.bounds(), seed, path);
    opt.telemetry(telemetry.clone());
    let probe = EvalProbe::new(bb);
    let t0 = Instant::now();
    let result = opt.run_blackbox(&probe);
    out.traced_unit_s.push(t0.elapsed().as_secs_f64());
    let stamps = probe.stamps();
    let Some(r) = finished(&mut out.tally, result) else {
        return;
    };
    check_run(&mut out.tally, "traced class-E", &r, &stamps, MAX_EVALS);
    check_same(&mut out.tally, "class-E", &r, plain);

    let mut layers = Layers::new();
    span_layers(&sink, &telemetry, &mut layers);
    // The checkpoint path stamps its own encode/fsync histograms; the
    // span self times must agree with them.
    if let Some(m) = telemetry.metrics_snapshot() {
        for (span_key, hist) in [
            ("persist.encode_s", "snapshot_encode_ns"),
            ("persist.fsync_s", "snapshot_fsync_ns"),
        ] {
            let from_hist = m.histogram(hist).map_or(0.0, |h| h.sum / 1e9);
            let from_spans = layers[span_key];
            let agree = (from_spans - from_hist).abs() <= 0.1 * from_hist + 0.005;
            out.tally.check(agree, || {
                format!("{span_key}: spans {from_spans} s vs histogram {from_hist} s")
            });
        }
    }
    // `run_blackbox` builds its policy internally, so no wrapper can
    // time it: every decision runs inside one `session_step` span.
    let steps = sink.total("session_step");
    layers.insert("core.policy_s", steps.total_s);
    layers.insert("core.policy_calls", steps.count as f64);
    eval_layers(&mut layers, &stamps);
    out.layers.push(layers);
}
