//! Matched-pair two-stage op-amp (14 raw design variables).
//!
//! The UW-ASIC style sizing workload: the differential pair M1/M2 and the
//! mirror load M3/M4 are laid out as *independent* devices — each half has
//! its own width and length — and matching is expressed as a *parameter
//! constraint* (`w1b = w1a`, `l1b = l1a`, …) rather than baked into the
//! netlist. Off the matched manifold the input offset grows with the
//! relative geometry mismatch and the figure of merit is penalized; on the
//! manifold the circuit is *exactly* the 10-variable
//! [`TwoStageOpAmp`].
//!
//! This is the shape the scenario layer's expression links exploit: the
//! optimizer searches the 10-dimensional reduced space, the full
//! 14-dimensional vector is reconstructed deterministically, and the
//! mismatch penalty is identically zero along the way.

use easybo_opt::Bounds;

use crate::corner::Corner;
use crate::opamp::{OpAmpAnalysis, TwoStageOpAmp};
use crate::{Circuit, CornerCircuit, Performances};

/// FOM penalty weight per unit of relative geometry mismatch.
const MISMATCH_WEIGHT: f64 = 200.0;

/// Design-variable indices for [`MatchedOpAmp`].
///
/// | idx | variable | meaning |
/// |-----|----------|---------|
/// | 0 | `w1a` | diff-pair half A width (m) |
/// | 1 | `l1a` | diff-pair half A length (m) |
/// | 2 | `w1b` | diff-pair half B width (m) |
/// | 3 | `l1b` | diff-pair half B length (m) |
/// | 4 | `w3a` | mirror half A width (m) |
/// | 5 | `l3a` | mirror half A length (m) |
/// | 6 | `w3b` | mirror half B width (m) |
/// | 7 | `l3b` | mirror half B length (m) |
/// | 8 | `w6` | 2nd-stage width (m) |
/// | 9 | `l6` | 2nd-stage length (m) |
/// | 10 | `ib` | bias reference (A) |
/// | 11 | `mb` | tail mirror ratio |
/// | 12 | `cc` | Miller cap (F) |
/// | 13 | `rz` | nulling resistor (Ω) |
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MatchedVar {
    /// Diff-pair half A width.
    W1a = 0,
    /// Diff-pair half A length.
    L1a = 1,
    /// Diff-pair half B width.
    W1b = 2,
    /// Diff-pair half B length.
    L1b = 3,
    /// Mirror half A width.
    W3a = 4,
    /// Mirror half A length.
    L3a = 5,
    /// Mirror half B width.
    W3b = 6,
    /// Mirror half B length.
    L3b = 7,
    /// Second-stage width.
    W6 = 8,
    /// Second-stage length.
    L6 = 9,
    /// Bias reference current.
    Ib = 10,
    /// Tail mirror ratio.
    Mb = 11,
    /// Miller compensation capacitor.
    Cc = 12,
    /// Nulling resistor.
    Rz = 13,
}

/// The matched-pair op-amp workload (14 design variables, two of the
/// device pairs unrolled).
///
/// # Example
///
/// ```
/// use easybo_circuits::{Circuit, matched::MatchedOpAmp};
///
/// let amp = MatchedOpAmp::new();
/// assert_eq!(amp.dim(), 14);
/// assert!(amp.fom(&amp.bounds().center()).is_finite());
/// ```
#[derive(Debug, Clone)]
pub struct MatchedOpAmp {
    bounds: Bounds,
    inner: TwoStageOpAmp,
}

impl MatchedOpAmp {
    /// Creates the benchmark; pair halves share the 10-variable op-amp's
    /// per-device ranges.
    pub fn new() -> Self {
        let bounds = Bounds::new(vec![
            (5e-6, 100e-6),   // w1a
            (0.18e-6, 1e-6),  // l1a
            (5e-6, 100e-6),   // w1b
            (0.18e-6, 1e-6),  // l1b
            (2e-6, 60e-6),    // w3a
            (0.18e-6, 1e-6),  // l3a
            (2e-6, 60e-6),    // w3b
            (0.18e-6, 1e-6),  // l3b
            (10e-6, 200e-6),  // w6
            (0.18e-6, 1e-6),  // l6
            (5e-6, 50e-6),    // ib
            (1.0, 8.0),       // mb
            (0.2e-12, 3e-12), // cc
            (300.0, 10e3),    // rz
        ])
        .expect("static matched op-amp bounds are valid");
        MatchedOpAmp {
            bounds,
            inner: TwoStageOpAmp::new(),
        }
    }

    /// Folds the 14-variable vector onto the inner 10-variable op-amp:
    /// pair halves average into one effective device. For bitwise-equal
    /// halves `(a + a) / 2 == a` exactly, so designs on the matched
    /// manifold reproduce [`TwoStageOpAmp`] bit-for-bit.
    pub fn fold(&self, x: &[f64]) -> Vec<f64> {
        assert_eq!(x.len(), 14, "matched op-amp expects 14 design variables");
        let x = self.bounds.clamp(x);
        vec![
            (x[0] + x[2]) / 2.0, // w1
            (x[1] + x[3]) / 2.0, // l1
            (x[4] + x[6]) / 2.0, // w3
            (x[5] + x[7]) / 2.0, // l3
            x[8],                // w6
            x[9],                // l6
            x[10],               // ib
            x[11],               // mb
            x[12],               // cc
            x[13],               // rz
        ]
    }

    /// Total relative geometry mismatch across the two matched pairs —
    /// exactly `0.0` on the matched manifold.
    pub fn mismatch(&self, x: &[f64]) -> f64 {
        assert_eq!(x.len(), 14, "matched op-amp expects 14 design variables");
        let x = self.bounds.clamp(x);
        let rel = |a: f64, b: f64| (a - b).abs() / ((a + b) / 2.0);
        rel(x[0], x[2]) + rel(x[1], x[3]) + rel(x[4], x[6]) + rel(x[5], x[7])
    }

    /// Analysis of the folded effective amplifier at a corner.
    pub fn analyze_at(&self, x: &[f64], corner: &Corner) -> OpAmpAnalysis {
        self.inner.analyze_at(&self.fold(x), corner)
    }
}

impl Default for MatchedOpAmp {
    fn default() -> Self {
        MatchedOpAmp::new()
    }
}

impl Circuit for MatchedOpAmp {
    fn name(&self) -> &str {
        "matched-opamp"
    }

    fn bounds(&self) -> &Bounds {
        &self.bounds
    }

    fn performances(&self, x: &[f64]) -> Performances {
        self.performances_at(x, &Corner::nominal())
    }

    /// The 10-variable op-amp FOM of the folded design, minus a mismatch
    /// penalty that vanishes on the matched manifold.
    fn fom(&self, x: &[f64]) -> f64 {
        self.fom_at(x, &Corner::nominal())
    }
}

impl CornerCircuit for MatchedOpAmp {
    fn performances_at(&self, x: &[f64], corner: &Corner) -> Performances {
        let a = self.analyze_at(x, corner);
        Performances::new()
            .with("gain_db", a.gain_db)
            .with("ugf_hz", a.ugf_hz)
            .with("pm_deg", a.pm_deg)
            .with("headroom_violation", a.headroom_violation)
            .with("mismatch", self.mismatch(x))
    }

    fn fom_at(&self, x: &[f64], corner: &Corner) -> f64 {
        self.inner.fom_at(&self.fold(x), corner) - MISMATCH_WEIGHT * self.mismatch(x)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The 10-variable good design, unrolled onto the matched manifold.
    fn matched_design() -> Vec<f64> {
        vec![
            30e-6, 0.5e-6, // w1a, l1a
            30e-6, 0.5e-6, // w1b, l1b
            20e-6, 0.5e-6, // w3a, l3a
            20e-6, 0.5e-6, // w3b, l3b
            80e-6, 0.3e-6, // w6, l6
            30e-6, 4.0, // ib, mb
            1.5e-12, 3e3, // cc, rz
        ]
    }

    #[test]
    fn matched_manifold_reproduces_inner_opamp_bitwise() {
        let m = MatchedOpAmp::new();
        let inner = TwoStageOpAmp::new();
        let x14 = matched_design();
        let x10 = m.fold(&x14);
        assert_eq!(m.mismatch(&x14), 0.0);
        assert_eq!(m.fom(&x14), inner.fom(&x10));
        assert_eq!(
            m.analyze_at(&x14, &Corner::ss()),
            inner.analyze_at(&x10, &Corner::ss())
        );
    }

    #[test]
    fn mismatch_is_penalized() {
        let m = MatchedOpAmp::new();
        let matched = matched_design();
        let mut skewed = matched_design();
        skewed[MatchedVar::W1b as usize] = 40e-6;
        assert!(m.mismatch(&skewed) > 0.0);
        assert!(m.fom(&skewed) < m.fom(&matched));
    }

    #[test]
    fn fom_finite_on_pseudo_grid() {
        let m = MatchedOpAmp::new();
        let b = m.bounds().clone();
        for i in 0..150 {
            let u: Vec<f64> = (0..14)
                .map(|d| (((i * 53 + d * 71) % 89) as f64) / 88.0)
                .collect();
            assert!(m.fom(&b.from_unit(&u)).is_finite());
        }
    }

    #[test]
    fn circuit_trait_surface() {
        let m = MatchedOpAmp::new();
        assert_eq!(m.name(), "matched-opamp");
        assert_eq!(m.dim(), 14);
        let p = m.performances(&matched_design());
        assert_eq!(p.len(), 5);
        assert_eq!(p.get("mismatch"), Some(0.0));
    }
}
