//! Design the class-E power amplifier with EasyBO — the paper's second
//! benchmark (§IV-B) — on the *threaded* executor, the production path
//! where each simulation really runs on its own OS thread.
//!
//! Optimizes `FOM = 3·PAE + Pout` (Eq. 11) over the 12 design variables and
//! reports the winning operating point. Threaded completion order follows
//! the wall clock, so the threaded FOM varies from run to run; the design
//! bar is checked on the deterministic virtual-clock run of the same
//! configuration.
//!
//! ```sh
//! cargo run --release -p easybo-integration --example class_e_design
//! ```

use easybo::EasyBo;
use easybo_circuits::class_e::ClassEPa;
use easybo_circuits::Circuit;
use easybo_exec::{CostedFunction, SimTimeModel};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let pa = ClassEPa::new();
    let bounds = pa.bounds().clone();

    // Pretend each "simulation" takes ~52.7 virtual seconds with ±25%
    // spread (the paper's HSPICE profile); the threaded executor sleeps
    // 20 microseconds per virtual second so the demo finishes instantly
    // while still exercising genuinely concurrent evaluation.
    let time = SimTimeModel::new(&bounds, 52.7, 0.25, 7);
    let pa_for_opt = pa.clone();
    let bb = CostedFunction::new("class-e-pa", bounds.clone(), time, move |x: &[f64]| {
        pa_for_opt.fom(x)
    });

    println!("designing the class-E PA: 12 variables, 200 simulations, 8 worker threads\n");
    let mut opt = EasyBo::new(bounds);
    opt.batch_size(8).initial_points(20).max_evals(200).seed(11);
    let result = opt.run_threaded(&bb, 2e-5)?;

    let analysis = pa.analyze(&result.best_x);
    println!("EasyBO best FOM: {:.3}", result.best_value);
    println!("  PAE:              {:.1} %", analysis.pae * 100.0);
    println!("  output power:     {:.2} W", analysis.pout_w);
    println!(
        "  drain efficiency: {:.1} %",
        analysis.drain_efficiency * 100.0
    );
    println!("  switch Ron:       {:.2} ohm", analysis.ron);
    println!("  peak drain volts: {:.2} V", analysis.v_peak);
    println!(
        "\nreal elapsed: {:.2}s across {} threads (utilization {:.1}%)",
        result.trace.total_time(),
        result.schedule.workers(),
        100.0 * result.schedule.utilization()
    );

    assert_eq!(result.data.len(), 200, "every simulation is observed");
    assert!(
        result.data.ys().iter().all(|y| y.is_finite()),
        "every observation is finite"
    );

    let virtual_run = opt.run_blackbox(&bb)?;
    println!(
        "virtual-clock EasyBO best FOM (same seed, reproducible): {:.3}",
        virtual_run.best_value
    );
    assert!(
        virtual_run.best_value > 2.0,
        "a working class-E design exists"
    );
    Ok(())
}
