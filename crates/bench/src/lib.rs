//! Shared harness for the benchmark binaries that regenerate every table
//! and figure of the EasyBO paper.
//!
//! Each `benches/*.rs` target (run with `cargo bench -p easybo-bench`)
//! prints the corresponding paper artifact:
//!
//! | Target | Paper artifact |
//! |---|---|
//! | `table1_opamp` | Table I — op-amp results & simulation time |
//! | `table2_class_e` | Table II — class-E PA results & simulation time |
//! | `fig1_schedule` | Fig. 1 — sync vs async schedule illustration |
//! | `fig2_acquisition` | Fig. 2 — weighted acquisition & w density |
//! | `fig4_opamp_trace` | Fig. 4 — op-amp best-FOM vs wall-clock, B = 15 |
//! | `fig6_class_e_trace` | Fig. 6 — class-E best-FOM vs wall-clock, B = 15 |
//! | `micro` | Criterion micro-benchmarks of the numerical kernels |
//! | `quality_pairs` | Per-seed best FOM of EasyBO, EasyBO-SP and StdBO for paired verdicts |
//!
//! Environment knobs:
//!
//! * `EASYBO_REPS` — repetitions per table cell (default 10; paper uses 20).
//! * `EASYBO_BATCHES` — comma-separated batch sizes (default `5,10,15`).
//! * `EASYBO_FAST=1` — smoke-test mode: 3 reps, halved budgets.
//! * `EASYBO_ABLATE=lambda` — adds the λ-sweep ablation rows to Table I.

use easybo::Algorithm;
use easybo_circuits::class_e::ClassEPa;
use easybo_circuits::ldo::Ldo;
use easybo_circuits::opamp::TwoStageOpAmp;
use easybo_circuits::ring_osc::RingOscillator;
use easybo_circuits::Circuit;
use easybo_exec::{BlackBox, CostedFunction, RunResult, SimTimeModel};
use easybo_linalg::{mean, sample_std};

/// Mean per-simulation cost of the op-amp testbench (seconds), calibrated
/// so 150 simulations ≈ the paper's 1h36m sequential time.
pub const OPAMP_SIM_SECONDS: f64 = 38.7;
/// Mean per-simulation cost of the class-E testbench (seconds), calibrated
/// so 450 simulations ≈ the paper's 6h35m sequential time.
pub const CLASS_E_SIM_SECONDS: f64 = 52.7;
/// Relative spread of simulation times (max-of-batch effects match the
/// paper's sync-vs-async gaps at this value).
pub const SIM_TIME_SPREAD: f64 = 0.25;
/// Mean per-simulation cost of the LDO testbench (seconds) — AC + load
/// transient, cheaper than the op-amp's full corner deck.
pub const LDO_SIM_SECONDS: f64 = 24.3;
/// Mean per-simulation cost of the ring-oscillator testbench (seconds) —
/// a transient to frequency lock plus phase-noise extraction.
pub const RING_OSC_SIM_SECONDS: f64 = 31.1;

/// Repetitions per cell (`EASYBO_REPS`, default 10, `EASYBO_FAST` → 3).
pub fn reps() -> usize {
    if fast_mode() {
        return 3;
    }
    std::env::var("EASYBO_REPS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(10)
}

/// Batch sizes to sweep (`EASYBO_BATCHES`, default `[5, 10, 15]`).
pub fn batch_sizes() -> Vec<usize> {
    std::env::var("EASYBO_BATCHES")
        .ok()
        .map(|v| {
            v.split(',')
                .filter_map(|t| t.trim().parse().ok())
                .filter(|&b| b > 0)
                .collect()
        })
        .filter(|v: &Vec<usize>| !v.is_empty())
        .unwrap_or_else(|| vec![5, 10, 15])
}

/// Whether smoke-test mode is active.
pub fn fast_mode() -> bool {
    std::env::var("EASYBO_FAST").is_ok_and(|v| v == "1")
}

/// Scales an evaluation budget down in fast mode.
pub fn scaled(budget: usize) -> usize {
    if fast_mode() {
        (budget / 2).max(30)
    } else {
        budget
    }
}

/// The op-amp benchmark as a [`BlackBox`] with the calibrated time model.
pub fn opamp_blackbox() -> CostedFunction<impl Fn(&[f64]) -> f64 + Send + Sync> {
    let amp = TwoStageOpAmp::new();
    let bounds = amp.bounds().clone();
    let time = SimTimeModel::new(&bounds, OPAMP_SIM_SECONDS, SIM_TIME_SPREAD, 2020);
    CostedFunction::new("two-stage-opamp", bounds, time, move |x: &[f64]| amp.fom(x))
}

/// The class-E benchmark as a [`BlackBox`] with the calibrated time model.
pub fn class_e_blackbox() -> CostedFunction<impl Fn(&[f64]) -> f64 + Send + Sync> {
    let pa = ClassEPa::new();
    let bounds = pa.bounds().clone();
    let time = SimTimeModel::new(&bounds, CLASS_E_SIM_SECONDS, SIM_TIME_SPREAD, 2021);
    CostedFunction::new("class-e-pa", bounds, time, move |x: &[f64]| pa.fom(x))
}

/// The LDO benchmark as a [`BlackBox`] with the calibrated time model.
pub fn ldo_blackbox() -> CostedFunction<impl Fn(&[f64]) -> f64 + Send + Sync> {
    let ldo = Ldo::new();
    let bounds = ldo.bounds().clone();
    let time = SimTimeModel::new(&bounds, LDO_SIM_SECONDS, SIM_TIME_SPREAD, 2022);
    CostedFunction::new("ldo", bounds, time, move |x: &[f64]| ldo.fom(x))
}

/// The ring-oscillator benchmark as a [`BlackBox`] with the calibrated
/// time model.
pub fn ring_osc_blackbox() -> CostedFunction<impl Fn(&[f64]) -> f64 + Send + Sync> {
    let vco = RingOscillator::new();
    let bounds = vco.bounds().clone();
    let time = SimTimeModel::new(&bounds, RING_OSC_SIM_SECONDS, SIM_TIME_SPREAD, 2023);
    CostedFunction::new("ring-oscillator", bounds, time, move |x: &[f64]| vco.fom(x))
}

/// One row of a paper-style results table.
#[derive(Debug, Clone, PartialEq)]
pub struct RowStats {
    /// Algorithm label (paper convention, e.g. `EasyBO-SP-5`).
    pub label: String,
    /// Best final FOM across repetitions.
    pub best: f64,
    /// Worst final FOM across repetitions.
    pub worst: f64,
    /// Mean final FOM.
    pub mean: f64,
    /// Sample standard deviation of final FOMs.
    pub std: f64,
    /// Mean total simulation time (virtual seconds).
    pub time_seconds: f64,
}

/// Summarizes repetition results into a table row.
pub fn summarize(label: impl Into<String>, runs: &[RunResult]) -> RowStats {
    let finals: Vec<f64> = runs.iter().map(|r| r.best_value()).collect();
    let times: Vec<f64> = runs.iter().map(|r| r.total_time()).collect();
    RowStats {
        label: label.into(),
        best: finals.iter().cloned().fold(f64::NEG_INFINITY, f64::max),
        worst: finals.iter().cloned().fold(f64::INFINITY, f64::min),
        mean: mean(&finals),
        std: sample_std(&finals),
        time_seconds: mean(&times),
    }
}

/// Formats seconds as the paper's `216h40m51s` / `21m19s` style.
pub fn format_hms(seconds: f64) -> String {
    let total = seconds.round().max(0.0) as u64;
    let (h, m, s) = (total / 3600, (total % 3600) / 60, total % 60);
    if h > 0 {
        format!("{h}h{m}m{s}s")
    } else if m > 0 {
        format!("{m}m{s}s")
    } else {
        format!("{s}s")
    }
}

/// Prints a paper-style results table.
pub fn print_table(title: &str, rows: &[RowStats]) {
    println!("\n=== {title} ===");
    println!(
        "{:<16} {:>10} {:>10} {:>10} {:>8} {:>12}",
        "Algo", "Best", "Worst", "Mean", "Std", "Time"
    );
    for r in rows {
        println!(
            "{:<16} {:>10.2} {:>10.2} {:>10.2} {:>8.2} {:>12}",
            r.label,
            r.best,
            r.worst,
            r.mean,
            r.std,
            format_hms(r.time_seconds)
        );
    }
}

/// Runs one algorithm `reps` times and returns the raw results.
#[allow(clippy::too_many_arguments)]
pub fn run_cell(
    algo: Algorithm,
    bb: &dyn BlackBox,
    batch: usize,
    max_evals: usize,
    n_init: usize,
    de_evals: usize,
    reps: usize,
    seed_base: u64,
) -> Vec<RunResult> {
    (0..reps)
        .map(|rep| {
            algo.run(
                bb,
                batch,
                max_evals,
                n_init,
                de_evals,
                seed_base.wrapping_add(rep as u64).wrapping_mul(2654435761),
            )
        })
        .collect()
}

/// Mean best-so-far curve across repetitions, sampled on `n_samples`
/// evenly spaced times over the slowest run. Times before a run's first
/// completion fall back to that run's first best value.
pub fn mean_trace(runs: &[RunResult], n_samples: usize) -> Vec<(f64, f64)> {
    let horizon = runs
        .iter()
        .map(|r| r.trace.total_time())
        .fold(0.0f64, f64::max);
    if horizon <= 0.0 || runs.is_empty() {
        return Vec::new();
    }
    (1..=n_samples)
        .map(|i| {
            let t = horizon * i as f64 / n_samples as f64;
            let avg = runs
                .iter()
                .map(|r| {
                    r.trace.best_at(t).unwrap_or_else(|| {
                        r.trace
                            .points()
                            .first()
                            .map(|p| p.best_so_far)
                            .unwrap_or(f64::NEG_INFINITY)
                    })
                })
                .sum::<f64>()
                / runs.len() as f64;
            (t, avg)
        })
        .collect()
}

/// Prints a best-so-far series in a plottable aligned format.
pub fn print_trace(label: &str, trace: &[(f64, f64)]) {
    println!("\n--- {label} (time_s, mean_best) ---");
    for (t, v) in trace {
        println!("{t:>12.1} {v:>12.3}");
    }
}

/// Time for the mean trace to first reach `target` (`None` if never).
pub fn time_to_target(trace: &[(f64, f64)], target: f64) -> Option<f64> {
    trace.iter().find(|(_, v)| *v >= target).map(|(t, _)| *t)
}

/// One baseline-vs-candidate measurement in a machine-readable
/// `BENCH_*.json` report.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchRecord {
    /// Row label (e.g. `predict_batch_vs_scalar_small_n120_d6_m256`).
    pub name: String,
    /// Baseline wall-clock, nanoseconds (best of reps).
    pub baseline_ns: f64,
    /// Candidate wall-clock, nanoseconds (best of reps).
    pub candidate_ns: f64,
    /// Whether the candidate reproduced the baseline output bit for bit.
    pub identical: bool,
}

impl BenchRecord {
    /// Builds a record from seconds-denominated timings.
    pub fn from_seconds(
        name: impl Into<String>,
        baseline_s: f64,
        candidate_s: f64,
        identical: bool,
    ) -> Self {
        BenchRecord {
            name: name.into(),
            baseline_ns: baseline_s * 1e9,
            candidate_ns: candidate_s * 1e9,
            identical,
        }
    }

    /// Baseline-over-candidate speedup (`> 1` means the candidate is faster).
    pub fn speedup(&self) -> f64 {
        self.baseline_ns / self.candidate_ns
    }

    /// Candidate-over-baseline relative overhead (`0.02` = 2% slower).
    pub fn overhead(&self) -> f64 {
        self.candidate_ns / self.baseline_ns - 1.0
    }
}

/// Worker threads available on this host.
pub fn host_threads() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Renders the shared `BENCH_*.json` schema: every benchmark artifact
/// carries the same top-level fields (`bench`, `generated_by`, `env`,
/// `note`, `results`) so the regression tooling can diff reports without
/// per-bench parsers and knows the exact command that regenerates a stale
/// artifact. serde is stubbed in this workspace, so the JSON is formatted
/// by hand.
pub fn bench_report(bench: &str, reps: usize, note: &str, records: &[BenchRecord]) -> String {
    let entries: Vec<String> = records
        .iter()
        .map(|r| {
            format!(
                "    {{\n      \"name\": \"{}\",\n      \"baseline_ns\": {:.0},\n      \
                 \"candidate_ns\": {:.0},\n      \"speedup\": {:.4},\n      \
                 \"identical\": {}\n    }}",
                r.name,
                r.baseline_ns,
                r.candidate_ns,
                r.speedup(),
                r.identical
            )
        })
        .collect();
    format!(
        "{{\n  \"bench\": \"{bench}\",\n  \
         \"generated_by\": \"cargo bench -p easybo-bench --bench {bench}\",\n  \
         \"env\": {{\n    \"reps\": {reps},\n    \
         \"host_threads\": {threads},\n    \"os\": \"{os}\"\n  }},\n  \"note\": \"{note}\",\n  \
         \"results\": [\n{rows}\n  ]\n}}\n",
        threads = host_threads(),
        os = std::env::consts::OS,
        rows = entries.join(",\n")
    )
}

/// Writes a bench report to the repository root; returns the path written.
pub fn write_bench_report(file_name: &str, json: &str) -> String {
    let path = format!("{}/../../{}", env!("CARGO_MANIFEST_DIR"), file_name);
    std::fs::write(&path, json).unwrap_or_else(|e| panic!("write {path}: {e}"));
    path
}

#[cfg(test)]
mod tests {
    use super::*;
    use easybo_exec::{Dataset, RunTrace, Schedule};

    fn fake_run(values: &[f64], dt: f64) -> RunResult {
        let mut data = Dataset::new();
        let mut trace = RunTrace::new();
        let mut schedule = Schedule::new(1);
        for (i, &v) in values.iter().enumerate() {
            let t0 = dt * i as f64;
            data.push(vec![i as f64], v);
            schedule.add(0, i, t0, t0 + dt);
            trace.record(t0 + dt, v);
        }
        RunResult {
            data,
            trace,
            schedule,
        }
    }

    #[test]
    fn summarize_computes_paper_statistics() {
        let runs = vec![fake_run(&[1.0, 3.0], 10.0), fake_run(&[2.0, 5.0], 10.0)];
        let row = summarize("X", &runs);
        assert_eq!(row.best, 5.0);
        assert_eq!(row.worst, 3.0);
        assert_eq!(row.mean, 4.0);
        assert!((row.std - std::f64::consts::SQRT_2).abs() < 1e-12);
        assert_eq!(row.time_seconds, 20.0);
    }

    #[test]
    fn format_hms_styles() {
        assert_eq!(format_hms(51.0), "51s");
        assert_eq!(format_hms(1279.0), "21m19s");
        assert_eq!(format_hms(780051.0), "216h40m51s");
        assert_eq!(format_hms(-5.0), "0s");
    }

    #[test]
    fn mean_trace_averages_runs() {
        let runs = vec![fake_run(&[1.0, 2.0], 10.0), fake_run(&[3.0, 4.0], 10.0)];
        let tr = mean_trace(&runs, 2);
        assert_eq!(tr.len(), 2);
        // At t=10: bests are 1 and 3 → 2; at t=20: 2 and 4 → 3.
        assert_eq!(tr[0], (10.0, 2.0));
        assert_eq!(tr[1], (20.0, 3.0));
    }

    #[test]
    fn time_to_target_finds_crossing() {
        let tr = vec![(10.0, 1.0), (20.0, 2.0), (30.0, 5.0)];
        assert_eq!(time_to_target(&tr, 2.0), Some(20.0));
        assert_eq!(time_to_target(&tr, 10.0), None);
    }

    #[test]
    fn blackboxes_have_expected_shapes() {
        let amp = opamp_blackbox();
        assert_eq!(amp.bounds().dim(), 10);
        let e = amp.evaluate(&amp.bounds().center());
        assert!(e.value.is_finite());
        assert!(e.cost > OPAMP_SIM_SECONDS * 0.8 && e.cost < OPAMP_SIM_SECONDS * 1.2);

        let pa = class_e_blackbox();
        assert_eq!(pa.bounds().dim(), 12);
        let e = pa.evaluate(&pa.bounds().center());
        assert!(e.value.is_finite());
        assert!(e.cost > CLASS_E_SIM_SECONDS * 0.8 && e.cost < CLASS_E_SIM_SECONDS * 1.2);

        let ldo = ldo_blackbox();
        assert_eq!(ldo.bounds().dim(), 8);
        let e = ldo.evaluate(&ldo.bounds().center());
        assert!(e.value.is_finite());
        assert!(e.cost > LDO_SIM_SECONDS * 0.8 && e.cost < LDO_SIM_SECONDS * 1.2);

        let vco = ring_osc_blackbox();
        assert_eq!(vco.bounds().dim(), 7);
        let e = vco.evaluate(&vco.bounds().center());
        assert!(e.value.is_finite());
        assert!(e.cost > RING_OSC_SIM_SECONDS * 0.8 && e.cost < RING_OSC_SIM_SECONDS * 1.2);
    }

    #[test]
    fn bench_report_renders_shared_schema() {
        let records = vec![
            BenchRecord::from_seconds("fast", 2e-3, 1e-3, true),
            BenchRecord::from_seconds("slow", 1e-3, 2e-3, false),
        ];
        assert!((records[0].speedup() - 2.0).abs() < 1e-12);
        assert!((records[1].overhead() - 1.0).abs() < 1e-12);
        let json = bench_report("unit", 5, "note text", &records);
        let parsed = easybo_telemetry::parse_json(&json).expect("valid JSON");
        assert_eq!(parsed.get("bench").and_then(|v| v.as_str()), Some("unit"));
        assert_eq!(
            parsed.get("generated_by").and_then(|v| v.as_str()),
            Some("cargo bench -p easybo-bench --bench unit")
        );
        let env = parsed.get("env").expect("env object");
        assert_eq!(env.get("reps").and_then(|v| v.as_f64()), Some(5.0));
        assert!(env.get("host_threads").and_then(|v| v.as_f64()).unwrap() >= 1.0);
        assert_eq!(
            env.get("os").and_then(|v| v.as_str()),
            Some(std::env::consts::OS)
        );
        let results = parsed.get("results").and_then(|v| v.as_array()).unwrap();
        assert_eq!(results.len(), 2);
        assert_eq!(
            results[0].get("baseline_ns").and_then(|v| v.as_f64()),
            Some(2e6)
        );
        assert_eq!(
            results[0].get("speedup").and_then(|v| v.as_f64()),
            Some(2.0)
        );
    }

    #[test]
    fn env_knob_defaults() {
        // Do not set env vars here (tests run in parallel); just verify the
        // defaults parse.
        assert!(reps() >= 3);
        assert!(!batch_sizes().is_empty());
        assert!(scaled(100) >= 30);
    }
}
