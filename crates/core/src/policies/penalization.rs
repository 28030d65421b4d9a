//! Penalization-mode ablation: how busy points are hallucinated.
//!
//! The paper (§III-C, following BUCB) fixes the hallucinated observation of
//! a busy point to the current *predictive mean*. The "constant liar"
//! family (Ginsbourger et al.) instead assumes a fixed pessimistic or
//! optimistic value. DESIGN.md calls this design choice out for ablation;
//! this module implements all three so the benches can compare them.

use easybo_gp::IncrementalGp;
use easybo_telemetry::{Event, Telemetry};

/// How a busy (in-flight) query point is converted into a pseudo-observation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum PenalizationMode {
    /// Paper behavior: hallucinate the GP's predictive mean (BUCB-style).
    /// Leaves the posterior mean unchanged; only shrinks `σ̂`.
    #[default]
    HallucinateMean,
    /// Constant liar, pessimistic: assume the busy point returns the worst
    /// observation seen so far. Pushes the mean down near busy points in
    /// addition to shrinking `σ̂` — more aggressive repulsion.
    ConstantLiarMin,
    /// Constant liar, optimistic: assume the busy point returns the best
    /// observation seen so far. Pulls the mean up near busy points — keeps
    /// exploiting promising regions while still diversifying via `σ̂`.
    ConstantLiarMax,
}

impl PenalizationMode {
    /// Hallucinates `busy_units` (unit-cube coordinates) according to the
    /// mode by pushing them onto `inc`'s pseudo-point factor stack via
    /// rank-1 Cholesky updates. `y_lo`/`y_hi` are the worst/best raw
    /// observations so far (read by the constant-liar modes only).
    ///
    /// On success the stack holds exactly `busy_units.len()` new
    /// pseudo-points and one `PseudoPointAdded` event is emitted. On error
    /// every push made so far is popped again, leaving `inc` bitwise
    /// unchanged, before the error is returned.
    ///
    /// # Errors
    ///
    /// Propagates [`easybo_gp::GpError`] from a push (wrong-dimension,
    /// non-finite or numerically degenerate points).
    pub fn push_traced(
        &self,
        inc: &mut IncrementalGp,
        busy_units: &[Vec<f64>],
        y_lo: f64,
        y_hi: f64,
        telemetry: &Telemetry,
    ) -> Result<(), easybo_gp::GpError> {
        let mut pushed = 0usize;
        for b in busy_units {
            let res = match self {
                PenalizationMode::HallucinateMean => inc.push_pseudo_mean(b.clone()),
                PenalizationMode::ConstantLiarMin => inc.push_pseudo_lie(b.clone(), y_lo),
                PenalizationMode::ConstantLiarMax => inc.push_pseudo_lie(b.clone(), y_hi),
            };
            match res {
                Ok(()) => pushed += 1,
                Err(e) => {
                    for _ in 0..pushed {
                        inc.pop_pseudo();
                    }
                    return Err(e);
                }
            }
        }
        telemetry.emit_with(|| Event::PseudoPointAdded {
            count: busy_units.len(),
        });
        telemetry.incr("pseudo_points_added", busy_units.len() as u64);
        Ok(())
    }

    /// All modes, for ablation sweeps.
    pub fn all() -> [PenalizationMode; 3] {
        [
            PenalizationMode::HallucinateMean,
            PenalizationMode::ConstantLiarMin,
            PenalizationMode::ConstantLiarMax,
        ]
    }

    /// Short label for reports.
    pub fn label(&self) -> &'static str {
        match self {
            PenalizationMode::HallucinateMean => "mean",
            PenalizationMode::ConstantLiarMin => "liar-min",
            PenalizationMode::ConstantLiarMax => "liar-max",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use easybo_gp::{Gp, KernelFamily};

    impl PenalizationMode {
        /// Clone-and-refactorize reference for
        /// [`PenalizationMode::push_traced`]: augments a copy of `gp` with
        /// `busy_units` according to the mode.
        fn augment(
            &self,
            gp: &Gp,
            busy_units: &[Vec<f64>],
            y_lo: f64,
            y_hi: f64,
        ) -> Result<Gp, easybo_gp::GpError> {
            match self {
                PenalizationMode::HallucinateMean => gp.augment(busy_units),
                PenalizationMode::ConstantLiarMin => lie(gp, busy_units, y_lo),
                PenalizationMode::ConstantLiarMax => lie(gp, busy_units, y_hi),
            }
        }
    }

    /// Augments a copy of `gp` with a fixed lie value for every busy point.
    /// `extend_observed` counts the points as real, which only changes
    /// `n_real`: the predictions the tests compare are the same.
    fn lie(gp: &Gp, busy_units: &[Vec<f64>], y: f64) -> Result<Gp, easybo_gp::GpError> {
        let mut out = gp.clone();
        for b in busy_units {
            out = out.extend_observed(b.clone(), y)?;
        }
        Ok(out)
    }

    fn toy_gp() -> Gp {
        let x: Vec<Vec<f64>> = (0..8).map(|i| vec![i as f64 / 7.0]).collect();
        let y: Vec<f64> = x.iter().map(|p| (4.0 * p[0]).sin()).collect();
        Gp::fit_with_params(
            x,
            y,
            KernelFamily::SquaredExponential,
            vec![-1.0, 0.0],
            (1e-6f64).ln(),
        )
        .expect("toy GP fits")
    }

    #[test]
    fn all_modes_shrink_variance_at_busy_point() {
        let gp = toy_gp();
        let busy = vec![vec![0.4]];
        let v0 = gp.predict(&[0.4]).variance;
        for mode in PenalizationMode::all() {
            let aug = mode.augment(&gp, &busy, -1.0, 1.0).expect("augments");
            let v1 = aug.predict(&[0.4]).variance;
            assert!(v1 <= v0 + 1e-12, "{mode:?}: {v0} -> {v1}");
        }
    }

    #[test]
    fn mean_mode_keeps_posterior_mean() {
        let gp = toy_gp();
        let busy = vec![vec![1.5]];
        let aug = PenalizationMode::HallucinateMean
            .augment(&gp, &busy, -1.0, 1.0)
            .expect("augments");
        for q in [0.2, 0.9, 1.5, 2.0] {
            assert!(
                (gp.predict(&[q]).mean - aug.predict(&[q]).mean).abs() < 1e-6,
                "mean moved at {q}"
            );
        }
    }

    #[test]
    fn liar_min_depresses_mean_near_busy_point() {
        let gp = toy_gp();
        let busy = vec![vec![1.5]]; // unexplored region
        let aug = PenalizationMode::ConstantLiarMin
            .augment(&gp, &busy, -5.0, 5.0)
            .expect("augments");
        assert!(
            aug.predict(&[1.5]).mean < gp.predict(&[1.5]).mean,
            "pessimistic lie should pull the mean down"
        );
    }

    #[test]
    fn liar_max_raises_mean_near_busy_point() {
        let gp = toy_gp();
        let busy = vec![vec![1.5]];
        let aug = PenalizationMode::ConstantLiarMax
            .augment(&gp, &busy, -5.0, 5.0)
            .expect("augments");
        assert!(
            aug.predict(&[1.5]).mean > gp.predict(&[1.5]).mean,
            "optimistic lie should pull the mean up"
        );
    }

    #[test]
    fn push_traced_matches_augment_and_pops_clean() {
        let telemetry = Telemetry::disabled();
        let busy = vec![vec![0.3], vec![0.85]];
        for mode in PenalizationMode::all() {
            let gp = toy_gp();
            let aug = mode.augment(&gp, &busy, -5.0, 5.0).expect("augments");
            let mut inc = IncrementalGp::new(toy_gp());
            mode.push_traced(&mut inc, &busy, -5.0, 5.0, &telemetry)
                .expect("pushes");
            assert_eq!(inc.n_pseudo(), busy.len());
            for q in [0.1, 0.4, 0.85, 1.3] {
                let a = aug.predict(&[q]);
                let b = inc.gp().predict(&[q]);
                assert_eq!(a.mean.to_bits(), b.mean.to_bits(), "{mode:?} mean at {q}");
                assert_eq!(
                    a.variance.to_bits(),
                    b.variance.to_bits(),
                    "{mode:?} variance at {q}"
                );
            }
            inc.pop_all_pseudo();
            assert_eq!(inc.n_pseudo(), 0);
            for q in [0.1, 0.4, 0.85, 1.3] {
                let a = toy_gp().predict(&[q]);
                let b = inc.gp().predict(&[q]);
                assert_eq!(
                    a.mean.to_bits(),
                    b.mean.to_bits(),
                    "{mode:?} restore at {q}"
                );
            }
        }
    }

    #[test]
    fn labels_are_distinct() {
        let labels: std::collections::HashSet<_> =
            PenalizationMode::all().iter().map(|m| m.label()).collect();
        assert_eq!(labels.len(), 3);
        assert_eq!(
            PenalizationMode::default(),
            PenalizationMode::HallucinateMean
        );
    }
}
