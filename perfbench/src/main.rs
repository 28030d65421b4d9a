//! End-to-end and per-layer benchmark of the EasyBO workspace.
//!
//! ```sh
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload opamp_table1 --seed 1 --seconds 10 --trace 0
//! ```
//!
//! With `--trace 0` the last line of standard output is a JSON object
//! with the end-to-end metrics; with `--trace 1` it carries the
//! per-layer metrics of a traced run instead. See `README.md` for the
//! workloads, the metrics and which layer moves which figure.

mod host;
mod probe;
mod spans;
mod stats;
mod tally;
mod workloads;

use std::fmt::Write as _;
use std::path::Path;

use easybo_opt::Parallelism;

use stats::{beyond, mean, median, min_samples_for, nearest_rank};
use workloads::{Plan, RunOut};

/// End-to-end metrics, reported with `--trace 0`.
const END_TO_END: [(&str, &str); 7] = [
    ("setup_s", "s"),
    ("run_wall_s", "s"),
    ("ask_p50_ms", "ms"),
    ("ask_p99_ms", "ms"),
    ("best_fom", "fom"),
    ("virtual_makespan_s", "s"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics, reported with `--trace 1`.
const PER_LAYER: [(&str, &str); 35] = [
    ("opt.nm_refine_s", "s"),
    ("opt.nm_refines", "count"),
    ("opt.acq_evals", "count"),
    ("opt.batch_predict_s", "s"),
    ("opt.batch_predicts", "count"),
    ("gp.lbfgs_s", "s"),
    ("gp.refits", "count"),
    ("gp.nll_evals", "count"),
    ("gp.kernel_build_s", "s"),
    ("gp.cholesky_s", "s"),
    ("gp.chol_update_s", "s"),
    ("gp.chol_updates", "count"),
    ("gp.chol_downdate_s", "s"),
    ("gp.chol_downdates", "count"),
    ("core.acquisition_self_s", "s"),
    ("core.policy_s", "s"),
    ("core.policy_calls", "count"),
    ("persist.encode_s", "s"),
    ("persist.fsync_s", "s"),
    ("persist.checkpoints", "count"),
    ("persist.bytes_written", "bytes"),
    ("persist.snapshot_bytes_max", "bytes"),
    ("service.ask_rpc_s", "s"),
    ("service.tell_rpc_s", "s"),
    ("service.policy_s", "s"),
    ("service.wire_lock_s", "s"),
    ("service.nowork_frac", "frac"),
    ("service.evictions", "count"),
    ("service.rehydrations", "count"),
    ("service.stale_tells", "count"),
    ("exec.session_step_self_s", "s"),
    ("exec.dispatch_s", "s"),
    ("circuits.eval_s", "s"),
    ("circuits.evals", "count"),
    ("telemetry.overhead_frac", "frac"),
];

const WORKLOADS: [&str; 3] = ["opamp_table1", "class_e_ckpt", "service_mixed"];

struct Args {
    workload: String,
    plan: Plan,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .map_err(|e| format!("--seconds: {e}"))?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".to_string()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}; one of {WORKLOADS:?}"));
    }
    let seconds = seconds.unwrap_or(10.0);
    if !(seconds.is_finite() && seconds >= 0.0) {
        return Err("--seconds must be a non-negative number".to_string());
    }
    Ok(Args {
        workload,
        plan: Plan {
            seed: seed.unwrap_or(1),
            seconds,
            trace: trace.unwrap_or(false),
        },
    })
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let work_dir = Path::new(env!("CARGO_MANIFEST_DIR")).join(".work");
    let out = match args.workload.as_str() {
        "opamp_table1" => workloads::opamp::run(args.plan),
        "class_e_ckpt" => workloads::class_e::run(args.plan, &work_dir),
        _ => workloads::service::run(args.plan),
    };
    let (metrics, mut tally) = if args.plan.trace {
        per_layer(&out)
    } else {
        end_to_end(&out)
    };
    tally.merge(out.tally);
    print_host(&args, &out, tally);
    let mut line = String::new();
    let _ = write!(
        line,
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        tally.failed == 0,
        tally.attempted.max(1),
        tally.failed
    );
    for (i, (name, unit, value)) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            line,
            "{sep}\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
        );
    }
    line.push_str("}}");
    println!("{line}");
}

type Metrics = Vec<(&'static str, &'static str, f64)>;

/// The end-to-end figures, plus checks that each could be computed
/// (enough samples for the p99, finite values).
fn end_to_end(out: &RunOut) -> (Metrics, tally::Tally) {
    let mut t = tally::Tally::default();
    let waits_ms: Vec<f64> = out.waits_s.iter().map(|s| s * 1e3).collect();
    t.check(beyond(&waits_ms, 99.0) >= 10, || {
        format!(
            "{} wait samples leave fewer than ten beyond p99 (need {})",
            waits_ms.len(),
            min_samples_for(99.0)
        )
    });
    let values = [
        median(&out.setup_s),
        median(&out.unit_s),
        nearest_rank(&waits_ms, 50.0),
        nearest_rank(&waits_ms, 99.0),
        mean(&out.best),
        mean(&out.makespan),
        host::peak_rss_mb(),
    ];
    let metrics = END_TO_END
        .iter()
        .zip(values)
        .map(|(&(name, unit), v)| {
            let v = v.unwrap_or(f64::NAN);
            t.check(v.is_finite(), || format!("{name} has no value"));
            (name, unit, if v.is_finite() { v } else { 0.0 })
        })
        .collect();
    (metrics, t)
}

/// The per-layer figures: mean per traced unit, and the tracing cost.
fn per_layer(out: &RunOut) -> (Metrics, tally::Tally) {
    let mut t = tally::Tally::default();
    t.check(!out.layers.is_empty(), || {
        "no traced unit finished".to_string()
    });
    let n = out.layers.len().max(1) as f64;
    let overhead = match (median(&out.traced_unit_s), median(&out.unit_s)) {
        (Some(traced), Some(plain)) if plain > 0.0 => traced / plain - 1.0,
        _ => 0.0,
    };
    let metrics = PER_LAYER
        .iter()
        .map(|&(name, unit)| {
            let v = if name == "telemetry.overhead_frac" {
                overhead
            } else {
                out.layers
                    .iter()
                    .map(|l| l.get(name).copied().unwrap_or(0.0))
                    .sum::<f64>()
                    / n
            };
            (name, unit, v)
        })
        .collect();
    (metrics, t)
}

/// Host facts and sample counts, one JSON line before the result.
fn print_host(args: &Args, out: &RunOut, tally: tally::Tally) {
    println!(
        "{{\"workload\": \"{}\", \"seed\": {}, \"trace\": {}, \"nproc\": {}, \
         \"parallelism\": {}, \"checkpoint_fs\": \"{}\", \"units\": {}, \"traced_units\": {}, \
         \"wait_samples\": {}, \"setup_samples\": {}, \"op_fail_frac\": {:?}}}",
        args.workload,
        args.plan.seed,
        u8::from(args.plan.trace),
        host::nproc(),
        Parallelism::default().threads(),
        out.checkpoint_fs.as_deref().unwrap_or("none"),
        out.unit_s.len(),
        out.traced_unit_s.len(),
        out.waits_s.len(),
        out.setup_s.len(),
        tally.fail_frac(),
    );
}
