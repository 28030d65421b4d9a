//! Square-law (SPICE level-1 style) MOSFET device model for a generic
//! 180nm CMOS process.
//!
//! This is deliberately a *first-order* model: the analog sizing literature
//! (including the references the paper builds on) uses exactly these
//! equations for hand analysis, and they produce the smooth but non-convex
//! performance landscapes the BO benchmark needs. All quantities are SI.

/// Device polarity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MosType {
    /// N-channel device.
    Nmos,
    /// P-channel device.
    Pmos,
}

/// Process corner constants for one device polarity of the 180nm process.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ProcessParams {
    /// Transconductance parameter `K' = µ·Cox` (A/V²).
    pub kp: f64,
    /// Threshold voltage magnitude (V).
    pub vth: f64,
    /// Channel-length-modulation coefficient at L = 1µm (1/V); scales as
    /// `λ(L) = lambda_l / L[µm]`.
    pub lambda_l: f64,
    /// Gate-oxide capacitance per area (F/m²).
    pub cox: f64,
    /// Gate-drain overlap capacitance per width (F/m).
    pub cgdo: f64,
    /// Junction (drain/source) capacitance per width (F/m).
    pub cj_w: f64,
}

/// The default 180nm-like process.
///
/// Values are textbook-typical for a 0.18µm CMOS node (supply 1.8 V).
pub const PROCESS_180NM_NMOS: ProcessParams = ProcessParams {
    kp: 300e-6,
    vth: 0.45,
    lambda_l: 0.08,
    cox: 8.5e-3,
    cgdo: 3.5e-10,
    cj_w: 8.0e-10,
};

/// PMOS counterpart of [`PROCESS_180NM_NMOS`].
pub const PROCESS_180NM_PMOS: ProcessParams = ProcessParams {
    kp: 80e-6,
    vth: 0.50,
    lambda_l: 0.10,
    cox: 8.5e-3,
    cgdo: 3.5e-10,
    cj_w: 8.0e-10,
};

/// Nominal supply voltage of the process (V).
pub const VDD_180NM: f64 = 1.8;

/// A sized MOSFET: polarity + W/L geometry against a process.
///
/// # Example
///
/// ```
/// use easybo_circuits::mosfet::{Mosfet, MosType};
///
/// // 10µm / 0.18µm NMOS carrying 100µA.
/// let m = Mosfet::new(MosType::Nmos, 10e-6, 0.18e-6);
/// let gm = m.gm(100e-6);
/// assert!(gm > 0.0);
/// // gm = sqrt(2 K' (W/L) Id)
/// let expect = (2.0 * 300e-6 * (10.0 / 0.18) * 100e-6_f64).sqrt();
/// assert!((gm - expect).abs() / expect < 1e-12);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Mosfet {
    mos_type: MosType,
    /// Gate width (m).
    w: f64,
    /// Gate length (m).
    l: f64,
    params: ProcessParams,
}

impl Mosfet {
    /// Creates a device in the default 180nm process.
    ///
    /// # Panics
    ///
    /// Panics if `w` or `l` is not strictly positive.
    pub fn new(mos_type: MosType, w: f64, l: f64) -> Self {
        assert!(w > 0.0 && l > 0.0, "W and L must be positive, got {w}, {l}");
        let params = match mos_type {
            MosType::Nmos => PROCESS_180NM_NMOS,
            MosType::Pmos => PROCESS_180NM_PMOS,
        };
        Mosfet {
            mos_type,
            w,
            l,
            params,
        }
    }

    /// Creates a device against custom process parameters.
    ///
    /// # Panics
    ///
    /// Panics if `w` or `l` is not strictly positive.
    pub fn with_process(mos_type: MosType, w: f64, l: f64, params: ProcessParams) -> Self {
        assert!(w > 0.0 && l > 0.0, "W and L must be positive, got {w}, {l}");
        Mosfet {
            mos_type,
            w,
            l,
            params,
        }
    }

    /// Device polarity.
    pub fn mos_type(&self) -> MosType {
        self.mos_type
    }

    /// Gate width (m).
    pub fn w(&self) -> f64 {
        self.w
    }

    /// Gate length (m).
    pub fn l(&self) -> f64 {
        self.l
    }

    /// Aspect ratio W/L.
    pub fn aspect(&self) -> f64 {
        self.w / self.l
    }

    /// Process constants this device uses.
    pub fn params(&self) -> &ProcessParams {
        &self.params
    }

    /// Threshold voltage magnitude (V).
    pub fn vth(&self) -> f64 {
        self.params.vth
    }

    /// Saturation drain current for gate overdrive `vov = |Vgs| - |Vth|` (A).
    /// Returns 0 for non-positive overdrive (cut-off; sub-threshold ignored).
    pub fn id_sat(&self, vov: f64) -> f64 {
        if vov <= 0.0 {
            return 0.0;
        }
        0.5 * self.params.kp * self.aspect() * vov * vov
    }

    /// Gate overdrive required to carry `id` in saturation (V).
    ///
    /// `Vov = sqrt(2 Id / (K' W/L))`; returns 0 for non-positive `id`.
    pub fn vov_for_id(&self, id: f64) -> f64 {
        if id <= 0.0 {
            return 0.0;
        }
        (2.0 * id / (self.params.kp * self.aspect())).sqrt()
    }

    /// Transconductance at drain current `id` (S): `gm = sqrt(2 K' W/L Id)`.
    pub fn gm(&self, id: f64) -> f64 {
        if id <= 0.0 {
            return 0.0;
        }
        (2.0 * self.params.kp * self.aspect() * id).sqrt()
    }

    /// Overdrive below which the square law over-predicts gm (moderate
    /// inversion sets in); used by [`Mosfet::gm_eff`].
    pub const VOV_MODERATE: f64 = 0.08;

    /// Effective transconductance with a moderate-inversion cap:
    /// `gm = 2·Id / sqrt(Vov² + VOV_MODERATE²)`.
    ///
    /// The pure square law predicts `gm/Id = 2/Vov → ∞` as the bias current
    /// shrinks, which lets optimizers manufacture unbounded gain at nano-amp
    /// currents. Real devices saturate around the subthreshold slope; this
    /// smooth floor reproduces that cap while matching the square law for
    /// `Vov ≫ 80mV`.
    pub fn gm_eff(&self, id: f64) -> f64 {
        if id <= 0.0 {
            return 0.0;
        }
        let vov = self.vov_for_id(id);
        2.0 * id / (vov * vov + Self::VOV_MODERATE * Self::VOV_MODERATE).sqrt()
    }

    /// Channel-length modulation coefficient λ (1/V) for this gate length.
    pub fn lambda(&self) -> f64 {
        self.params.lambda_l / (self.l * 1e6)
    }

    /// Small-signal output resistance at drain current `id` (Ω):
    /// `ro = 1 / (λ Id)`. Returns `f64::INFINITY` for non-positive `id`.
    pub fn ro(&self, id: f64) -> f64 {
        if id <= 0.0 {
            return f64::INFINITY;
        }
        1.0 / (self.lambda() * id)
    }

    /// Gate-source capacitance (F): `Cgs = (2/3)·W·L·Cox + W·Cgdo`.
    pub fn cgs(&self) -> f64 {
        (2.0 / 3.0) * self.w * self.l * self.params.cox + self.w * self.params.cgdo
    }

    /// Gate-drain (overlap) capacitance (F).
    pub fn cgd(&self) -> f64 {
        self.w * self.params.cgdo
    }

    /// Drain junction capacitance (F).
    pub fn cdb(&self) -> f64 {
        self.w * self.params.cj_w
    }

    /// Saturation drain-source voltage `Vds,sat = Vov` for drain current
    /// `id` — the headroom this device consumes in a stacked branch.
    pub fn vdsat(&self, id: f64) -> f64 {
        self.vov_for_id(id)
    }
}

/// Parallel resistance `a ∥ b`, tolerant of infinite inputs.
pub fn parallel(a: f64, b: f64) -> f64 {
    if a.is_infinite() {
        return b;
    }
    if b.is_infinite() {
        return a;
    }
    a * b / (a + b)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn nmos() -> Mosfet {
        Mosfet::new(MosType::Nmos, 20e-6, 0.5e-6)
    }

    #[test]
    fn square_law_id_vov_round_trip() {
        let m = nmos();
        let vov = 0.2;
        let id = m.id_sat(vov);
        assert!((m.vov_for_id(id) - vov).abs() < 1e-12);
    }

    #[test]
    fn gm_consistent_with_id_derivative() {
        // gm = dId/dVov numerically.
        let m = nmos();
        let vov = 0.25;
        let id = m.id_sat(vov);
        let eps = 1e-7;
        let fd = (m.id_sat(vov + eps) - m.id_sat(vov - eps)) / (2.0 * eps);
        assert!((m.gm(id) - fd).abs() / fd < 1e-6);
    }

    #[test]
    fn cutoff_region() {
        let m = nmos();
        assert_eq!(m.id_sat(0.0), 0.0);
        assert_eq!(m.id_sat(-0.3), 0.0);
        assert_eq!(m.gm(0.0), 0.0);
        assert_eq!(m.ro(0.0), f64::INFINITY);
        assert_eq!(m.vov_for_id(-1e-6), 0.0);
    }

    #[test]
    fn longer_channel_gives_higher_ro() {
        let short = Mosfet::new(MosType::Nmos, 10e-6, 0.18e-6);
        let long = Mosfet::new(MosType::Nmos, 10e-6, 1.0e-6);
        let id = 50e-6;
        assert!(long.ro(id) > short.ro(id));
        let gain = |m: &Mosfet| m.gm(id) * m.ro(id);
        assert!(gain(&long) > gain(&short) * 0.9);
    }

    #[test]
    fn pmos_weaker_than_nmos() {
        let n = Mosfet::new(MosType::Nmos, 10e-6, 0.18e-6);
        let p = Mosfet::new(MosType::Pmos, 10e-6, 0.18e-6);
        assert!(n.gm(100e-6) > p.gm(100e-6));
        assert_eq!(p.mos_type(), MosType::Pmos);
    }

    #[test]
    fn capacitances_scale_with_geometry() {
        let small = Mosfet::new(MosType::Nmos, 5e-6, 0.18e-6);
        let wide = Mosfet::new(MosType::Nmos, 50e-6, 0.18e-6);
        assert!(wide.cgs() > small.cgs() * 9.0);
        assert!(wide.cgd() > small.cgd() * 9.0);
        assert!(wide.cdb() > small.cdb() * 9.0);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_width_panics() {
        let _ = Mosfet::new(MosType::Nmos, 0.0, 0.18e-6);
    }

    #[test]
    fn parallel_helper() {
        assert_eq!(parallel(2.0, 2.0), 1.0);
        assert_eq!(parallel(f64::INFINITY, 5.0), 5.0);
        assert_eq!(parallel(5.0, f64::INFINITY), 5.0);
    }

    #[test]
    fn custom_process_is_used() {
        let p = ProcessParams {
            kp: 1e-3,
            ..PROCESS_180NM_NMOS
        };
        let m = Mosfet::with_process(MosType::Nmos, 1e-6, 1e-6, p);
        assert_eq!(m.params().kp, 1e-3);
    }

    proptest! {
        #[test]
        fn prop_gm_over_id_efficiency(vov in 0.05..0.6f64) {
            // gm/Id = 2/Vov for the square law: a fundamental identity.
            let m = nmos();
            let id = m.id_sat(vov);
            let gm_over_id = m.gm(id) / id;
            prop_assert!((gm_over_id - 2.0 / vov).abs() / (2.0 / vov) < 1e-9);
        }

        #[test]
        fn prop_intrinsic_gain_decreases_with_current_density(
            scale in 1.1..10.0f64
        ) {
            // For fixed geometry, gm·ro ∝ 1/sqrt(Id): higher current, less gain.
            let m = nmos();
            let id = 10e-6;
            let gain = |id: f64| m.gm(id) * m.ro(id);
            prop_assert!(gain(id) > gain(id * scale));
        }
    }
}
