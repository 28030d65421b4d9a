//! Per-seed best FOM for paired quality verdicts: EasyBO, EasyBO-SP and
//! StdBO on the op-amp (the Table I set-up: 150 simulations, 20 initial
//! points) and the class-E PA (the Table II set-up: 450 simulations, 20
//! initial points), all at batch size 15, over `EASYBO_REPS` seeds
//! (default 20) through [`run_cell`].
//!
//! Prints one tab-separated line per run, `cell  seed  best_fom`, with
//! every digit of the best FOM. The runs are deterministic on the virtual
//! clock, so two builds print the same cells and seeds and their lines
//! pair up. `tools/quality_pairs.sh PARENT CHANGE` runs this bench on two
//! checkouts and reports the mean paired difference per cell with a
//! bootstrap interval.

use easybo::Algorithm;
use easybo_bench::*;
use easybo_exec::BlackBox;

const BATCH: usize = 15;
const ALGORITHMS: [Algorithm; 3] = [
    Algorithm::EasyBo,
    Algorithm::EasyBoSp,
    Algorithm::StandardBo,
];

fn main() {
    let reps = std::env::var("EASYBO_REPS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(20);
    let opamp = opamp_blackbox();
    let class_e = class_e_blackbox();
    // (circuit, black box, simulations, seed base of the paper table).
    let circuits: [(&str, &dyn BlackBox, usize, u64); 2] =
        [("opamp", &opamp, 150, 11), ("class_e", &class_e, 450, 23)];
    let started = std::time::Instant::now();
    for (circuit, bb, max_evals, seed_base) in circuits {
        for algo in ALGORITHMS {
            let cell = format!("{circuit}/{}", algo.label(BATCH));
            let runs = run_cell(algo, bb, BATCH, max_evals, 20, 0, reps, seed_base);
            for (seed, run) in runs.iter().enumerate() {
                println!("{cell}\t{seed}\t{:?}", run.best_value());
            }
            eprintln!("done: {cell} ({:.0} s)", started.elapsed().as_secs_f64());
        }
    }
}
