//! The three workloads and what they share.

pub mod class_e;
pub mod opamp;
pub mod service;

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use easybo_circuits::class_e::ClassEPa;
use easybo_circuits::opamp::TwoStageOpAmp;
use easybo_circuits::Circuit;
use easybo_exec::{CostedFunction, RunResult, SimTimeModel};
use easybo_telemetry::Telemetry;

use crate::probe::{eval_seconds, EvalStamp, PolicyClock};
use crate::spans::WallSpans;
use crate::tally::Tally;

/// Per-layer values of one traced unit, keyed by metric name.
pub type Layers = BTreeMap<&'static str, f64>;

/// Everything one benchmark run measured.
#[derive(Default)]
pub struct RunOut {
    /// Seconds of each set-up.
    pub setup_s: Vec<f64>,
    /// Wall seconds of each untraced unit.
    pub unit_s: Vec<f64>,
    /// Seconds each idle worker waited for its next query.
    pub waits_s: Vec<f64>,
    /// Final best FOM of each run or session, over the run's distinct
    /// inputs (repeats excluded, so the figure is fixed per seed).
    pub best: Vec<f64>,
    /// Virtual makespan of each run or session, same rule as `best`.
    pub makespan: Vec<f64>,
    /// Wall seconds of each traced unit.
    pub traced_unit_s: Vec<f64>,
    /// Per-layer values of each traced unit.
    pub layers: Vec<Layers>,
    /// Operations attempted and failed.
    pub tally: Tally,
    /// Filesystem type of the checkpoint directory, when one is used.
    pub checkpoint_fs: Option<String>,
}

/// How long a run measures and how much it must cover.
#[derive(Debug, Clone, Copy)]
pub struct Plan {
    /// Seed every input is generated from.
    pub seed: u64,
    /// Minimum measuring time.
    pub seconds: f64,
    /// Collect per-layer metrics from traced units.
    pub trace: bool,
}

impl Plan {
    /// Whether unit `done` (0-based count of finished units) should be
    /// followed by another: until both the time and the minimum unit
    /// count are reached.
    pub fn more(&self, started: Instant, done: usize, min_units: usize) -> bool {
        done < min_units || started.elapsed() < Duration::from_secs_f64(self.seconds)
    }
}

/// The `i`th input seed of a run (SplitMix64 over the run seed), so
/// different `--seed` values give unrelated inputs.
pub fn sub_seed(seed: u64, salt: u64, i: u64) -> u64 {
    let mut z = seed
        .wrapping_mul(0x9e37_79b9_7f4a_7c15)
        .wrapping_add(salt << 32)
        .wrapping_add(i)
        .wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    (z ^ (z >> 31)) % 1_000_000_007
}

/// Set-ups repeated per unit, timing each; the last result is used.
/// The set-up is cheap next to a unit, and several timings per run make
/// its median steady.
pub const SETUP_REPS: usize = 5;

/// Runs `build` [`SETUP_REPS`] times, records each duration and
/// returns the last product.
pub fn timed_setup<T>(out: &mut RunOut, mut build: impl FnMut() -> T) -> T {
    let mut last = None;
    for _ in 0..SETUP_REPS {
        let t0 = Instant::now();
        let v = std::hint::black_box(build());
        out.setup_s.push(t0.elapsed().as_secs_f64());
        last = Some(v);
    }
    last.expect("SETUP_REPS > 0")
}

/// Mean seconds per simulated evaluation of the op-amp testbench,
/// calibrated so 150 simulations match the paper's sequential time.
const OPAMP_SIM_SECONDS: f64 = 38.7;
/// Mean seconds per simulated evaluation of the class-E testbench.
const CLASS_E_SIM_SECONDS: f64 = 52.7;
/// Relative spread of simulated evaluation times.
const SIM_TIME_SPREAD: f64 = 0.25;

/// Name op-amp sessions dispatch under.
pub const OPAMP_BENCH: &str = "two-stage-opamp";

/// The two-stage op-amp (d = 10) with the Table I time model.
pub fn opamp_blackbox() -> CostedFunction<impl Fn(&[f64]) -> f64 + Send + Sync> {
    let amp = TwoStageOpAmp::new();
    let bounds = amp.bounds().clone();
    let time = SimTimeModel::new(&bounds, OPAMP_SIM_SECONDS, SIM_TIME_SPREAD, 2020);
    CostedFunction::new(OPAMP_BENCH, bounds, time, move |x: &[f64]| amp.fom(x))
}

/// The class-E power amplifier (d = 12) with the Table II time model.
pub fn class_e_blackbox() -> CostedFunction<impl Fn(&[f64]) -> f64 + Send + Sync> {
    let pa = ClassEPa::new();
    let bounds = pa.bounds().clone();
    let time = SimTimeModel::new(&bounds, CLASS_E_SIM_SECONDS, SIM_TIME_SPREAD, 2021);
    CostedFunction::new("class-e-pa", bounds, time, move |x: &[f64]| pa.fom(x))
}

/// Output checks shared by every in-process run: exactly `max_evals`
/// evaluations, each Ok, and a finite best.
pub fn check_run(
    tally: &mut Tally,
    what: &str,
    r: &RunResult,
    stamps: &[EvalStamp],
    max_evals: usize,
) {
    let bad = stamps.iter().filter(|s| !s.ok).count() as u64;
    tally.ops(stamps.len() as u64, bad);
    let whole = r.data.len() == max_evals && stamps.len() == max_evals;
    tally.check(whole && r.best_value().is_finite(), || {
        format!(
            "{what}: {} observations, {} evaluations, best {} (budget {max_evals})",
            r.data.len(),
            stamps.len(),
            r.best_value()
        )
    });
}

/// Traced and untraced runs of the same input must agree exactly:
/// observation never steers the run.
pub fn check_same(tally: &mut Tally, what: &str, traced: &RunResult, plain: &RunResult) {
    let same = traced.data == plain.data && traced.trace.to_csv() == plain.trace.to_csv();
    tally.check(same, || {
        format!("{what}: traced run diverged from untraced run")
    });
}

/// A telemetry handle feeding a fresh wall-clock span sink.
pub fn traced_handle() -> (Telemetry, WallSpans) {
    let t = Telemetry::new();
    let sink = WallSpans::default();
    t.add_sink(sink.clone());
    (t, sink)
}

/// Per-layer values readable from spans and counters of one traced unit.
pub fn span_layers(sink: &WallSpans, telemetry: &Telemetry, layers: &mut Layers) {
    let counter = |name| {
        telemetry
            .metrics_snapshot()
            .map_or(0.0, |m| m.counter(name) as f64)
    };
    let spans = [
        ("opt.nm_refine_s", "opt.nm_refines", "nm_refine"),
        ("opt.batch_predict_s", "opt.batch_predicts", "batch_predict"),
        ("gp.lbfgs_s", "", "lbfgs_restarts"),
        ("", "gp.refits", "gp_refit"),
        ("gp.kernel_build_s", "", "kernel_build"),
        ("gp.cholesky_s", "", "cholesky"),
        ("gp.chol_update_s", "gp.chol_updates", "cholesky_update"),
        (
            "gp.chol_downdate_s",
            "gp.chol_downdates",
            "cholesky_downdate",
        ),
        ("core.acquisition_self_s", "", "acquisition"),
        ("persist.encode_s", "", "snapshot_encode"),
        ("persist.fsync_s", "", "snapshot_fsync"),
        ("exec.session_step_self_s", "", "session_step"),
        ("exec.dispatch_s", "", "dispatch"),
    ];
    for (time_key, count_key, span) in spans {
        let t = sink.total(span);
        if !time_key.is_empty() {
            *layers.entry(time_key).or_default() += t.self_s;
        }
        if !count_key.is_empty() {
            *layers.entry(count_key).or_default() += t.count as f64;
        }
    }
    *layers.entry("opt.acq_evals").or_default() += counter("acq_evals");
    *layers.entry("gp.nll_evals").or_default() += counter("gp_nll_evals");
    *layers.entry("persist.checkpoints").or_default() += counter("checkpoints_written");
    let (bytes, max) = sink.checkpoint_bytes();
    *layers.entry("persist.bytes_written").or_default() += bytes as f64;
    let m = layers.entry("persist.snapshot_bytes_max").or_default();
    *m = m.max(max as f64);
}

/// Adds the time and count of the decisions `clock` timed.
pub fn policy_layers(layers: &mut Layers, keys: (&'static str, &'static str), clock: &PolicyClock) {
    let (secs, calls) = clock.read();
    *layers.entry(keys.0).or_default() += secs;
    *layers.entry(keys.1).or_default() += calls as f64;
}

/// Adds the time and count of black-box evaluations.
pub fn eval_layers(layers: &mut Layers, stamps: &[EvalStamp]) {
    *layers.entry("circuits.eval_s").or_default() += eval_seconds(stamps);
    *layers.entry("circuits.evals").or_default() += stamps.len() as f64;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sub_seeds_are_stable_and_distinct() {
        assert_eq!(sub_seed(1, 7, 0), sub_seed(1, 7, 0));
        let a: Vec<u64> = (0..8).map(|i| sub_seed(1, 7, i)).collect();
        let mut d = a.clone();
        d.sort_unstable();
        d.dedup();
        assert_eq!(d.len(), a.len());
        assert_ne!(sub_seed(1, 7, 0), sub_seed(2, 7, 0));
        assert_ne!(sub_seed(1, 7, 0), sub_seed(1, 8, 0));
    }

    #[test]
    fn plan_covers_minimum_units_then_time() {
        let p = Plan {
            seed: 1,
            seconds: 0.0,
            trace: false,
        };
        let t = Instant::now();
        assert!(p.more(t, 0, 2));
        assert!(p.more(t, 1, 2));
        assert!(!p.more(t, 2, 2));
        let long = Plan {
            seconds: 3600.0,
            ..p
        };
        assert!(long.more(t, 5, 2));
    }
}
