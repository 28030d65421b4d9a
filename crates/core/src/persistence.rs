//! Core-side snapshot payloads.
//!
//! The `easybo-persist` container stores the policy's state as an opaque
//! byte section so executors stay free of persistence concerns; this
//! module defines what those bytes *are* for [`EasyBoAsyncPolicy`]: a
//! versioned little-endian blob carrying the RNG stream, the fallback
//! counter, and the surrogate manager's exact cached state. It also
//! provides the FNV-1a configuration fingerprint that guards resume
//! against mismatched optimizer settings.
//!
//! Every blob layout went from version 1 to version 2 in one step, and
//! the GP state is the only part that changed. Version 1 stores each
//! GP's Cholesky factor as a full `n×n` square. Version 2 stores a tag
//! instead: either the number of rows of the last full factorization,
//! from which [`Gp::from_state`] replays the factor, or (for a GP that
//! was itself restored from version 1 and not refitted since) the factor
//! verbatim. Decoders read both versions; encoders write version 2.
//!
//! [`Gp::from_state`]: easybo_gp::Gp::from_state
//!
//! [`EasyBoAsyncPolicy`]: crate::policies::EasyBoAsyncPolicy

use easybo_gp::{GpFactor, GpState, KernelFamily};
use easybo_persist::{ByteReader, ByteWriter, PersistError};

use crate::surrogate::SurrogateState;

/// Version stamp of the policy blob layout. Bump on any layout change;
/// resume refuses blobs from versions other than this one and
/// [`STORED_FACTOR_VERSION`].
pub(crate) const POLICY_BLOB_VERSION: u32 = 2;

/// The version of every blob layout whose GP states store the Cholesky
/// factor verbatim; decoders still read it.
const STORED_FACTOR_VERSION: u32 = 1;

/// How a blob version lays out each GP state's Cholesky factor.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum FactorLayout {
    /// [`STORED_FACTOR_VERSION`]: the factor as an `f64` vector.
    Verbatim,
    /// Later versions: tag 0 then `n_factored`, or tag 1 then the factor.
    Tagged,
}

impl FactorLayout {
    /// The layout of a blob `version` that its decoder accepted.
    fn of(version: u32) -> Self {
        if version == STORED_FACTOR_VERSION {
            FactorLayout::Verbatim
        } else {
            FactorLayout::Tagged
        }
    }
}

/// The snapshot core every policy blob ends with: the whole of an
/// [`EasyBoAsyncPolicy`] blob after its version word, and the `core` of
/// every kind-tagged blob below.
///
/// [`EasyBoAsyncPolicy`]: crate::policies::EasyBoAsyncPolicy
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct PolicyStateBlob {
    /// xoshiro256** word state of the policy's RNG.
    pub rng: [u64; 4],
    /// Surrogate-fit fallback counter.
    pub fallbacks: usize,
    /// Surrogate manager state.
    pub surrogate: SurrogateState,
}

pub(crate) fn kernel_tag(k: KernelFamily) -> u8 {
    match k {
        KernelFamily::SquaredExponential => 0,
        KernelFamily::Matern52 => 1,
        KernelFamily::Matern32 => 2,
        KernelFamily::RationalQuadratic => 3,
    }
}

fn kernel_from_tag(tag: u8) -> Result<KernelFamily, PersistError> {
    Ok(match tag {
        0 => KernelFamily::SquaredExponential,
        1 => KernelFamily::Matern52,
        2 => KernelFamily::Matern32,
        3 => KernelFamily::RationalQuadratic,
        t => return Err(PersistError::decode(format!("unknown kernel tag {t}"))),
    })
}

fn put_gp_state(w: &mut ByteWriter, s: &GpState) {
    w.put_u8(kernel_tag(s.kernel));
    w.put_usize(s.dim);
    w.put_f64s(&s.theta);
    w.put_f64(s.log_noise);
    w.put_usize(s.x.len());
    for row in &s.x {
        w.put_f64s(row);
    }
    w.put_f64s(&s.z);
    w.put_f64(s.scaler_mean);
    w.put_f64(s.scaler_std);
    match &s.factor {
        GpFactor::Replay { n_factored } => {
            w.put_u8(0);
            w.put_usize(*n_factored);
        }
        GpFactor::Stored(l) => {
            w.put_u8(1);
            w.put_f64s(l);
        }
    }
    w.put_f64(s.chol_jitter);
    w.put_f64s(&s.alpha);
    w.put_usize(s.n_real);
}

fn get_factor(r: &mut ByteReader<'_>, layout: FactorLayout) -> Result<GpFactor, PersistError> {
    if layout == FactorLayout::Verbatim {
        return Ok(GpFactor::Stored(r.get_f64s()?));
    }
    Ok(match r.get_u8()? {
        0 => GpFactor::Replay {
            n_factored: r.get_usize()?,
        },
        1 => GpFactor::Stored(r.get_f64s()?),
        t => return Err(PersistError::decode(format!("unknown GP factor tag {t}"))),
    })
}

fn get_gp_state(r: &mut ByteReader<'_>, layout: FactorLayout) -> Result<GpState, PersistError> {
    let kernel = kernel_from_tag(r.get_u8()?)?;
    let dim = r.get_usize()?;
    let theta = r.get_f64s()?;
    let log_noise = r.get_f64()?;
    let n = r.get_len(8)?;
    let mut x = Vec::with_capacity(n);
    for _ in 0..n {
        x.push(r.get_f64s()?);
    }
    Ok(GpState {
        kernel,
        dim,
        theta,
        log_noise,
        x,
        z: r.get_f64s()?,
        scaler_mean: r.get_f64()?,
        scaler_std: r.get_f64()?,
        factor: get_factor(r, layout)?,
        chol_jitter: r.get_f64()?,
        alpha: r.get_f64s()?,
        n_real: r.get_usize()?,
    })
}

/// Serializes one surrogate manager state (shared by every blob layout).
fn put_surrogate_state(w: &mut ByteWriter, s: &SurrogateState) {
    w.put_usize(s.fitted_n);
    w.put_usize(s.last_trained_n);
    w.put_f64(s.fence);
    match &s.warm {
        Some(warm) => {
            w.put_bool(true);
            w.put_f64s(warm);
        }
        None => w.put_bool(false),
    }
    match &s.gp {
        Some(gp) => {
            w.put_bool(true);
            put_gp_state(w, gp);
        }
        None => w.put_bool(false),
    }
}

fn get_surrogate_state(
    r: &mut ByteReader<'_>,
    layout: FactorLayout,
) -> Result<SurrogateState, PersistError> {
    let fitted_n = r.get_usize()?;
    let last_trained_n = r.get_usize()?;
    let fence = r.get_f64()?;
    let warm = if r.get_bool()? {
        Some(r.get_f64s()?)
    } else {
        None
    };
    let gp = if r.get_bool()? {
        Some(get_gp_state(r, layout)?)
    } else {
        None
    };
    Ok(SurrogateState {
        fitted_n,
        last_trained_n,
        warm,
        fence,
        gp,
    })
}

/// Encodes the policy's mutable state into the opaque snapshot blob.
pub(crate) fn encode_policy_state(
    rng: [u64; 4],
    fallbacks: usize,
    surrogate: &SurrogateState,
) -> Vec<u8> {
    let mut w = ByteWriter::new();
    w.put_u32(POLICY_BLOB_VERSION);
    put_policy_core(&mut w, rng, fallbacks, surrogate);
    w.into_bytes()
}

/// Decodes a blob written by [`encode_policy_state`].
pub(crate) fn decode_policy_state(bytes: &[u8]) -> Result<PolicyStateBlob, PersistError> {
    let mut r = ByteReader::new(bytes);
    let version = r.get_u32()?;
    if version != POLICY_BLOB_VERSION && version != STORED_FACTOR_VERSION {
        return Err(PersistError::decode(format!(
            "policy blob version {version} is not supported (this build reads \
             versions {STORED_FACTOR_VERSION} and {POLICY_BLOB_VERSION})"
        )));
    }
    let core = get_policy_core(&mut r, FactorLayout::of(version))?;
    r.finish("policy state blob")?;
    Ok(core)
}

// ---------------------------------------------------------------------
// Portfolio policy blobs: kind-tagged, independently versioned layouts.
//
// The legacy EasyBO blob above starts directly with its version word (a
// small integer). Every portfolio policy added since starts with a
// four-byte ASCII kind tag instead, so a blob handed to the wrong
// policy's `restore_state` fails loudly with a message naming both the
// expected policy and what was found — it can never be half-decoded as
// a different policy's state. Each layout carries its own version
// constant; bump it on any layout change and keep the failure message
// (pinned by `tests/tests/resume.rs`) in sync. Each decoder also reads
// its layout's `STORED_FACTOR_VERSION`.
// ---------------------------------------------------------------------

/// Shared core of every policy blob: RNG words, fallback counter,
/// surrogate manager state.
fn put_policy_core(w: &mut ByteWriter, rng: [u64; 4], fallbacks: usize, s: &SurrogateState) {
    for word in rng {
        w.put_u64(word);
    }
    w.put_usize(fallbacks);
    put_surrogate_state(w, s);
}

fn get_policy_core(
    r: &mut ByteReader<'_>,
    layout: FactorLayout,
) -> Result<PolicyStateBlob, PersistError> {
    let mut rng = [0u64; 4];
    for word in &mut rng {
        *word = r.get_u64()?;
    }
    let fallbacks = r.get_usize()?;
    let surrogate = get_surrogate_state(r, layout)?;
    Ok(PolicyStateBlob {
        rng,
        fallbacks,
        surrogate,
    })
}

/// Checks a portfolio blob's kind tag and layout version, returning the
/// factor layout of the version found; the error messages are part of
/// the kill/resume contract and pinned by tests.
fn check_tag_and_version(
    r: &mut ByteReader<'_>,
    policy: &str,
    tag: u32,
    version: u32,
) -> Result<FactorLayout, PersistError> {
    let found = r.get_u32()?;
    if found != tag {
        return Err(PersistError::decode(format!(
            "not a {policy} policy blob (found tag {found:#010x}, expected {tag:#010x})"
        )));
    }
    let v = r.get_u32()?;
    if v != version && v != STORED_FACTOR_VERSION {
        return Err(PersistError::decode(format!(
            "{policy} policy blob version {v} is not supported (this build reads \
             versions {STORED_FACTOR_VERSION} and {version})"
        )));
    }
    Ok(FactorLayout::of(v))
}

/// The layout of a kind-tagged policy blob that holds the policy core
/// and `N` counters: kind tag, layout version, the counters as `u64`
/// words, then the core.
pub(crate) struct CoreBlob<const N: usize> {
    /// Four-byte kind tag (ASCII, little-endian).
    tag: u32,
    /// Layout version.
    version: u32,
    /// Policy name used in decode errors.
    policy: &'static str,
}

/// [`StandardAsyncPolicy`] blobs: `STDB` v2.
///
/// [`StandardAsyncPolicy`]: crate::policies::StandardAsyncPolicy
pub(crate) const STANDARD_BLOB: CoreBlob<0> = CoreBlob {
    tag: u32::from_le_bytes(*b"STDB"),
    version: 2,
    policy: "standard-acquisition",
};

/// [`SequentialBoPolicy`] blobs: `SEQB` v2.
///
/// [`SequentialBoPolicy`]: crate::policies::SequentialBoPolicy
pub(crate) const SEQUENTIAL_BLOB: CoreBlob<0> = CoreBlob {
    tag: u32::from_le_bytes(*b"SEQB"),
    version: 2,
    policy: "sequential",
};

/// [`EpsGreedyPolicy`] blobs: `EPSG` v2, counting explores then
/// exploits.
///
/// [`EpsGreedyPolicy`]: crate::policies::EpsGreedyPolicy
pub(crate) const EPS_GREEDY_BLOB: CoreBlob<2> = CoreBlob {
    tag: u32::from_le_bytes(*b"EPSG"),
    version: 2,
    policy: "eps-greedy",
};

/// [`PessimisticAsyncPolicy`] blobs: `PESS` v2, counting the lies
/// hallucinated onto busy points.
///
/// [`PessimisticAsyncPolicy`]: crate::policies::PessimisticAsyncPolicy
pub(crate) const PESSIMISTIC_BLOB: CoreBlob<1> = CoreBlob {
    tag: u32::from_le_bytes(*b"PESS"),
    version: 2,
    policy: "pessimistic",
};

impl<const N: usize> CoreBlob<N> {
    /// Encodes the counters and a policy core under this layout.
    pub(crate) fn encode(&self, counters: [u64; N], core: &PolicyStateBlob) -> Vec<u8> {
        let mut w = ByteWriter::new();
        w.put_u32(self.tag);
        w.put_u32(self.version);
        for c in counters {
            w.put_u64(c);
        }
        put_policy_core(&mut w, core.rng, core.fallbacks, &core.surrogate);
        w.into_bytes()
    }

    /// Decodes a blob written by [`CoreBlob::encode`], refusing another
    /// tag or version with a message naming the policy.
    pub(crate) fn decode(&self, bytes: &[u8]) -> Result<([u64; N], PolicyStateBlob), PersistError> {
        let mut r = ByteReader::new(bytes);
        let layout = check_tag_and_version(&mut r, self.policy, self.tag, self.version)?;
        let mut counters = [0; N];
        for c in &mut counters {
            *c = r.get_u64()?;
        }
        let core = get_policy_core(&mut r, layout)?;
        r.finish(&format!("{} policy state blob", self.policy))?;
        Ok((counters, core))
    }
}

/// Kind tag of [`ConstrainedPolicy`] blobs (`"CNST"` little-endian).
///
/// [`ConstrainedPolicy`]: crate::constrained::ConstrainedPolicy
pub(crate) const CONSTRAINED_BLOB_TAG: u32 = u32::from_le_bytes(*b"CNST");
/// Layout version of [`ConstrainedPolicy`] blobs.
///
/// [`ConstrainedPolicy`]: crate::constrained::ConstrainedPolicy
pub(crate) const CONSTRAINED_BLOB_VERSION: u32 = 2;

/// Decoded state of a [`ConstrainedPolicy`] blob. Slack observations are
/// *not* serialized: they are a pure deterministic function of the
/// dataset (re-derived by `sync_slacks` on resume), so persisting them
/// would only create a second source of truth.
///
/// [`ConstrainedPolicy`]: crate::constrained::ConstrainedPolicy
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct ConstrainedStateBlob {
    /// Shared core (RNG, fallbacks, objective surrogate).
    pub core: PolicyStateBlob,
    /// Completed observations whose spec telemetry was already emitted
    /// (prevents duplicate events after a resume).
    pub announced: u64,
    /// Feasible completed observations seen so far.
    pub feasible: u64,
    /// Best feasible objective value seen so far.
    pub best_feasible: Option<f64>,
    /// One surrogate manager state per constraint, in constraint order.
    pub constraints: Vec<SurrogateState>,
}

/// Encodes [`ConstrainedPolicy`] state (layout `CNST` v2).
///
/// [`ConstrainedPolicy`]: crate::constrained::ConstrainedPolicy
pub(crate) fn encode_constrained_state(
    rng: [u64; 4],
    fallbacks: usize,
    announced: u64,
    feasible: u64,
    best_feasible: Option<f64>,
    surrogate: &SurrogateState,
    constraints: &[SurrogateState],
) -> Vec<u8> {
    let mut w = ByteWriter::new();
    w.put_u32(CONSTRAINED_BLOB_TAG);
    w.put_u32(CONSTRAINED_BLOB_VERSION);
    w.put_u64(announced);
    w.put_u64(feasible);
    match best_feasible {
        Some(v) => {
            w.put_bool(true);
            w.put_f64(v);
        }
        None => w.put_bool(false),
    }
    w.put_u32(constraints.len() as u32);
    for c in constraints {
        put_surrogate_state(&mut w, c);
    }
    put_policy_core(&mut w, rng, fallbacks, surrogate);
    w.into_bytes()
}

/// Decodes a blob written by [`encode_constrained_state`].
pub(crate) fn decode_constrained_state(bytes: &[u8]) -> Result<ConstrainedStateBlob, PersistError> {
    let mut r = ByteReader::new(bytes);
    let layout = check_tag_and_version(
        &mut r,
        "constrained",
        CONSTRAINED_BLOB_TAG,
        CONSTRAINED_BLOB_VERSION,
    )?;
    let announced = r.get_u64()?;
    let feasible = r.get_u64()?;
    let best_feasible = if r.get_bool()? {
        Some(r.get_f64()?)
    } else {
        None
    };
    let k = r.get_u32()? as usize;
    let mut constraints = Vec::with_capacity(k.min(1024));
    for _ in 0..k {
        constraints.push(get_surrogate_state(&mut r, layout)?);
    }
    let core = get_policy_core(&mut r, layout)?;
    r.finish("constrained policy state blob")?;
    Ok(ConstrainedStateBlob {
        core,
        announced,
        feasible,
        best_feasible,
        constraints,
    })
}

/// Streaming FNV-1a (64-bit) hasher for the snapshot's configuration
/// fingerprint. Deterministic across platforms: everything is hashed as
/// little-endian `u64` words, floats by exact bit pattern.
#[derive(Debug, Clone)]
pub(crate) struct Fingerprint(u64);

impl Fingerprint {
    pub(crate) fn new() -> Self {
        Fingerprint(0xcbf2_9ce4_8422_2325)
    }

    pub(crate) fn push_u64(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x100_0000_01b3);
        }
    }

    pub(crate) fn push_usize(&mut self, v: usize) {
        self.push_u64(v as u64);
    }

    pub(crate) fn push_f64(&mut self, v: f64) {
        self.push_u64(v.to_bits());
    }

    pub(crate) fn push_bool(&mut self, v: bool) {
        self.push_u64(u64::from(v));
    }

    pub(crate) fn finish(&self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn core(rng: [u64; 4], fallbacks: usize, s: &SurrogateState) -> PolicyStateBlob {
        PolicyStateBlob {
            rng,
            fallbacks,
            surrogate: s.clone(),
        }
    }

    fn encode_standard_state(rng: [u64; 4], fallbacks: usize, s: &SurrogateState) -> Vec<u8> {
        STANDARD_BLOB.encode([], &core(rng, fallbacks, s))
    }

    fn decode_standard_state(bytes: &[u8]) -> Result<PolicyStateBlob, PersistError> {
        STANDARD_BLOB.decode(bytes).map(|([], core)| core)
    }

    fn encode_eps_greedy_state(
        rng: [u64; 4],
        fallbacks: usize,
        explores: u64,
        exploits: u64,
        s: &SurrogateState,
    ) -> Vec<u8> {
        EPS_GREEDY_BLOB.encode([explores, exploits], &core(rng, fallbacks, s))
    }

    fn decode_eps_greedy_state(bytes: &[u8]) -> Result<([u64; 2], PolicyStateBlob), PersistError> {
        EPS_GREEDY_BLOB.decode(bytes)
    }

    fn encode_pessimistic_state(
        rng: [u64; 4],
        fallbacks: usize,
        lies: u64,
        s: &SurrogateState,
    ) -> Vec<u8> {
        PESSIMISTIC_BLOB.encode([lies], &core(rng, fallbacks, s))
    }

    fn decode_pessimistic_state(bytes: &[u8]) -> Result<([u64; 1], PolicyStateBlob), PersistError> {
        PESSIMISTIC_BLOB.decode(bytes)
    }

    fn sample_surrogate_state() -> SurrogateState {
        SurrogateState {
            fitted_n: 12,
            last_trained_n: 10,
            warm: Some(vec![0.1, -0.2, f64::NAN]),
            fence: f64::NEG_INFINITY,
            gp: Some(GpState {
                kernel: KernelFamily::Matern52,
                dim: 2,
                theta: vec![0.5, -0.5, 1.5],
                log_noise: -6.0,
                x: vec![vec![0.1, 0.2], vec![0.3, 0.4]],
                z: vec![-1.0, 1.0],
                scaler_mean: 0.25,
                scaler_std: 2.0,
                factor: GpFactor::Replay { n_factored: 1 },
                chol_jitter: 1e-10,
                alpha: vec![0.7, -0.3],
                n_real: 2,
            }),
        }
    }

    #[test]
    fn policy_blob_round_trips() {
        let state = sample_surrogate_state();
        let bytes = encode_policy_state([1, 2, 3, 4], 7, &state);
        let blob = decode_policy_state(&bytes).unwrap();
        assert_eq!(blob.rng, [1, 2, 3, 4]);
        assert_eq!(blob.fallbacks, 7);
        // NaN breaks PartialEq; compare via re-encoding.
        let re = encode_policy_state(blob.rng, blob.fallbacks, &blob.surrogate);
        assert_eq!(re, bytes);
    }

    #[test]
    fn empty_surrogate_round_trips() {
        let state = SurrogateState {
            fitted_n: 0,
            last_trained_n: 0,
            warm: None,
            fence: f64::NEG_INFINITY,
            gp: None,
        };
        let bytes = encode_policy_state([9, 9, 9, 9], 0, &state);
        let blob = decode_policy_state(&bytes).unwrap();
        assert_eq!(blob.surrogate, state);
    }

    #[test]
    fn wrong_version_is_rejected() {
        let state = sample_surrogate_state();
        let mut bytes = encode_policy_state([0, 0, 0, 1], 0, &state);
        bytes[0] = 0xfe;
        assert!(decode_policy_state(&bytes).is_err());
    }

    #[test]
    fn truncated_blob_is_rejected() {
        let state = sample_surrogate_state();
        let bytes = encode_policy_state([1, 1, 1, 1], 0, &state);
        assert!(decode_policy_state(&bytes[..bytes.len() - 3]).is_err());
    }

    #[test]
    fn unknown_kernel_tag_is_rejected() {
        assert!(kernel_from_tag(200).is_err());
        for k in [
            KernelFamily::SquaredExponential,
            KernelFamily::Matern52,
            KernelFamily::Matern32,
            KernelFamily::RationalQuadratic,
        ] {
            assert_eq!(kernel_from_tag(kernel_tag(k)).unwrap(), k);
        }
    }

    #[test]
    fn eps_greedy_blob_round_trips() {
        let state = sample_surrogate_state();
        let bytes = encode_eps_greedy_state([4, 3, 2, 1], 2, 9, 31, &state);
        let ([explores, exploits], blob) = decode_eps_greedy_state(&bytes).unwrap();
        assert_eq!(blob.rng, [4, 3, 2, 1]);
        assert_eq!(blob.fallbacks, 2);
        assert_eq!(explores, 9);
        assert_eq!(exploits, 31);
        let re = encode_eps_greedy_state(
            blob.rng,
            blob.fallbacks,
            explores,
            exploits,
            &blob.surrogate,
        );
        assert_eq!(re, bytes);
    }

    #[test]
    fn pessimistic_blob_round_trips() {
        let state = sample_surrogate_state();
        let bytes = encode_pessimistic_state([7, 7, 7, 7], 0, 12, &state);
        let ([lies], blob) = decode_pessimistic_state(&bytes).unwrap();
        assert_eq!(lies, 12);
        let re = encode_pessimistic_state(blob.rng, blob.fallbacks, lies, &blob.surrogate);
        assert_eq!(re, bytes);
    }

    /// FNV-1a (64-bit) over a blob's bytes.
    fn blob_digest(bytes: &[u8]) -> u64 {
        bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
            (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3)
        })
    }

    #[test]
    fn counter_blob_bytes_are_pinned() {
        let state = sample_surrogate_state();
        let eps = encode_eps_greedy_state([4, 3, 2, 1], 2, 9, 31, &state);
        let pess = encode_pessimistic_state([7, 7, 7, 7], 0, 12, &state);
        assert_eq!(
            (eps.len(), blob_digest(&eps)),
            (316, 0xb974_32e5_76cf_9a1b),
            "EPSG v2 bytes"
        );
        assert_eq!(
            (pess.len(), blob_digest(&pess)),
            (308, 0xa74d_98f3_3723_fb15),
            "PESS v2 bytes"
        );
    }

    /// The committed version-1 `EPSG` and `PESS` blobs of
    /// [`sample_surrogate_state`] (written before factor replay, with its
    /// factor `[1, 0, 0.5, 0.9]`) decode to a stored factor and re-encode
    /// as the committed version-2 goldens. Regenerate the version-2 files
    /// after an intentional layout change with
    /// `EASYBO_REGEN_GOLDEN=1 cargo test -p easybo --lib v1_counter_blobs`.
    #[test]
    fn v1_counter_blobs_migrate_to_stored_factors() {
        let data = concat!(env!("CARGO_MANIFEST_DIR"), "/../../tests/data/");
        let migrate = |v1: &[u8], v2_name: &str, reencode: &dyn Fn(&[u8]) -> Vec<u8>| {
            let v2 = reencode(v1);
            assert_eq!(&v2[..4], &v1[..4], "{v2_name}: kind tag");
            assert_eq!((v1[4], v2[4]), (1, 2), "{v2_name}: version word");
            let path = format!("{data}{v2_name}");
            if std::env::var("EASYBO_REGEN_GOLDEN").is_ok() {
                std::fs::write(&path, &v2).unwrap();
            }
            assert_eq!(v2, std::fs::read(&path).unwrap(), "{v2_name}");
            // Version 2 round-trips byte for byte.
            assert_eq!(reencode(&v2), v2, "{v2_name}");
        };
        let stored = |core: &PolicyStateBlob| {
            let gp = core.surrogate.gp.as_ref().expect("the fixture has a GP");
            assert_eq!(gp.factor, GpFactor::Stored(vec![1.0, 0.0, 0.5, 0.9]));
        };
        migrate(
            include_bytes!("../../../tests/data/golden_epsg_v1.blob"),
            "golden_epsg_v2.blob",
            &|bytes| {
                let ([explores, exploits], core) = decode_eps_greedy_state(bytes).unwrap();
                assert_eq!(
                    (core.rng, core.fallbacks, explores, exploits),
                    ([4, 3, 2, 1], 2, 9, 31)
                );
                stored(&core);
                encode_eps_greedy_state(
                    core.rng,
                    core.fallbacks,
                    explores,
                    exploits,
                    &core.surrogate,
                )
            },
        );
        migrate(
            include_bytes!("../../../tests/data/golden_pess_v1.blob"),
            "golden_pess_v2.blob",
            &|bytes| {
                let ([lies], core) = decode_pessimistic_state(bytes).unwrap();
                assert_eq!((core.rng, core.fallbacks, lies), ([7; 4], 0, 12));
                stored(&core);
                encode_pessimistic_state(core.rng, core.fallbacks, lies, &core.surrogate)
            },
        );
    }

    #[test]
    fn stored_factors_round_trip_and_unknown_factor_tags_are_rejected() {
        let mut state = sample_surrogate_state();
        if let Some(gp) = state.gp.as_mut() {
            gp.factor = GpFactor::Stored(vec![1.0, 0.0, 0.5, 0.9]);
        }
        let bytes = encode_policy_state([1, 2, 3, 4], 0, &state);
        let blob = decode_policy_state(&bytes).unwrap();
        assert_eq!(encode_policy_state(blob.rng, 0, &blob.surrogate), bytes);
        // The factor tag sits right after the scaler's std, which is the
        // only 2.0 in the blob.
        let at = bytes
            .windows(8)
            .position(|w| w == 2.0f64.to_le_bytes())
            .expect("scaler std")
            + 8;
        assert_eq!(bytes[at], 1, "stored-factor tag");
        let mut bad = bytes.clone();
        bad[at] = 7;
        let err = decode_policy_state(&bad).unwrap_err().to_string();
        assert!(err.contains("unknown GP factor tag 7"), "{err}");
    }

    #[test]
    fn standard_blob_round_trips() {
        let state = sample_surrogate_state();
        let bytes = encode_standard_state([5, 6, 7, 8], 1, &state);
        let blob = decode_standard_state(&bytes).unwrap();
        assert_eq!(blob.rng, [5, 6, 7, 8]);
        assert_eq!(blob.fallbacks, 1);
        let re = encode_standard_state(blob.rng, blob.fallbacks, &blob.surrogate);
        assert_eq!(re, bytes);
    }

    #[test]
    fn constrained_blob_round_trips() {
        let state = sample_surrogate_state();
        let cons = vec![
            sample_surrogate_state(),
            SurrogateState {
                fitted_n: 0,
                last_trained_n: 0,
                warm: None,
                fence: f64::NEG_INFINITY,
                gp: None,
            },
        ];
        let bytes = encode_constrained_state([8, 6, 7, 5], 3, 14, 9, Some(101.5), &state, &cons);
        let blob = decode_constrained_state(&bytes).unwrap();
        assert_eq!(blob.core.rng, [8, 6, 7, 5]);
        assert_eq!(blob.core.fallbacks, 3);
        assert_eq!(blob.announced, 14);
        assert_eq!(blob.feasible, 9);
        assert_eq!(blob.best_feasible, Some(101.5));
        assert_eq!(blob.constraints.len(), 2);
        let re = encode_constrained_state(
            blob.core.rng,
            blob.core.fallbacks,
            blob.announced,
            blob.feasible,
            blob.best_feasible,
            &blob.core.surrogate,
            &blob.constraints,
        );
        assert_eq!(re, bytes);

        // No constraints, no feasible point yet.
        let bytes = encode_constrained_state([1; 4], 0, 0, 0, None, &state, &[]);
        let blob = decode_constrained_state(&bytes).unwrap();
        assert_eq!(blob.best_feasible, None);
        assert!(blob.constraints.is_empty());
    }

    #[test]
    fn constrained_blob_rejects_other_policies_and_truncation() {
        let state = sample_surrogate_state();
        let std_blob = encode_standard_state([1, 2, 3, 4], 0, &state);
        let err = decode_constrained_state(&std_blob).unwrap_err().to_string();
        assert!(err.contains("constrained"), "{err}");
        let bytes = encode_constrained_state([1; 4], 0, 2, 1, None, &state, &[]);
        assert!(decode_constrained_state(&bytes[..bytes.len() - 2]).is_err());
        let mut bad = bytes.clone();
        bad[4] = 0xfe;
        let err = decode_constrained_state(&bad).unwrap_err().to_string();
        assert!(err.contains("constrained policy blob version"), "{err}");
    }

    #[test]
    fn portfolio_blobs_reject_cross_policy_and_legacy_confusion() {
        let state = sample_surrogate_state();
        let eps = encode_eps_greedy_state([1, 2, 3, 4], 0, 1, 2, &state);
        let pess = encode_pessimistic_state([1, 2, 3, 4], 0, 1, &state);
        let std_blob = encode_standard_state([1, 2, 3, 4], 0, &state);
        let legacy = encode_policy_state([1, 2, 3, 4], 0, &state);
        // Every decoder refuses every other policy's blob, with a
        // message naming the expected kind.
        let err = decode_eps_greedy_state(&pess).unwrap_err().to_string();
        assert!(err.contains("eps-greedy"), "{err}");
        let err = decode_pessimistic_state(&std_blob).unwrap_err().to_string();
        assert!(err.contains("pessimistic"), "{err}");
        let err = decode_standard_state(&eps).unwrap_err().to_string();
        assert!(err.contains("standard-acquisition"), "{err}");
        let err = SEQUENTIAL_BLOB.decode(&std_blob).unwrap_err().to_string();
        assert!(err.contains("not a sequential"), "{err}");
        // Legacy EasyBO blobs (version-first layout) are rejected too, in
        // both directions.
        assert!(decode_eps_greedy_state(&legacy).is_err());
        assert!(decode_policy_state(&eps).is_err());
    }

    #[test]
    fn portfolio_blob_version_mismatch_messages_name_the_policy() {
        let state = sample_surrogate_state();
        for (bytes, name) in [
            (
                encode_eps_greedy_state([0; 4], 0, 0, 0, &state),
                "eps-greedy",
            ),
            (
                encode_pessimistic_state([0; 4], 0, 0, &state),
                "pessimistic",
            ),
            (
                encode_standard_state([0; 4], 0, &state),
                "standard-acquisition",
            ),
        ] {
            // Corrupt the version word (bytes 4..8) but keep the tag.
            let mut bad = bytes.clone();
            bad[4] = 0xfe;
            let err = match name {
                "eps-greedy" => decode_eps_greedy_state(&bad).unwrap_err().to_string(),
                "pessimistic" => decode_pessimistic_state(&bad).unwrap_err().to_string(),
                _ => decode_standard_state(&bad).unwrap_err().to_string(),
            };
            assert!(
                err.contains(&format!("{name} policy blob version")),
                "{name}: {err}"
            );
            assert!(err.contains("is not supported"), "{name}: {err}");
        }
    }

    #[test]
    fn truncated_portfolio_blobs_are_rejected() {
        let state = sample_surrogate_state();
        let bytes = encode_eps_greedy_state([1; 4], 0, 5, 6, &state);
        assert!(decode_eps_greedy_state(&bytes[..bytes.len() - 2]).is_err());
        let bytes = encode_pessimistic_state([1; 4], 0, 5, &state);
        assert!(decode_pessimistic_state(&bytes[..bytes.len() - 2]).is_err());
        let bytes = encode_standard_state([1; 4], 0, &state);
        assert!(decode_standard_state(&bytes[..bytes.len() - 2]).is_err());
    }

    #[test]
    fn fingerprint_is_order_sensitive() {
        let mut a = Fingerprint::new();
        a.push_u64(1);
        a.push_u64(2);
        let mut b = Fingerprint::new();
        b.push_u64(2);
        b.push_u64(1);
        assert_ne!(a.finish(), b.finish());
        // FNV-1a of empty input is the offset basis.
        assert_eq!(Fingerprint::new().finish(), 0xcbf2_9ce4_8422_2325);
    }
}
