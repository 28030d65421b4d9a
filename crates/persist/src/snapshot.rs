//! The versioned snapshot container and the session codec.
//!
//! On-disk layout (all integers little-endian):
//!
//! ```text
//! "EZBOSNAP"                    8-byte magic
//! u32 format version            readers reject other versions
//! u32 section count
//! per section:
//!   str  name                   length-prefixed UTF-8
//!   u64  payload length
//!   u32  CRC-32 of the payload
//!   [u8] payload
//! ```
//!
//! Sections are checksummed independently, so any bit flip or
//! truncation is reported as a [`PersistError::CorruptSection`] naming
//! the damaged section. Writes go through a temporary file in the same
//! directory, `fsync`, an atomic rename and (on unix) an `fsync` of the
//! directory: a crash at any point leaves the previous snapshot or the
//! new one, never a torn file.

use std::fs;
use std::io::Write as _;
use std::path::Path;

use easybo_exec::{InFlightTask, PendingBackoff, SessionParts, TaskSpan};

use crate::codec::{ByteReader, ByteWriter};
use crate::crc32::crc32;
use crate::error::PersistError;

/// Leading bytes of every snapshot file.
pub const MAGIC: &[u8; 8] = b"EZBOSNAP";

/// Current snapshot format version. Bump this (and keep a migration or
/// a clear rejection) whenever the encoding of any section changes —
/// the committed golden-file test fails loudly when an encoding change
/// forgets to.
pub const FORMAT_VERSION: u32 = 1;

/// A complete durable image of one optimization run: enough to resume
/// and reproduce the uninterrupted run bit for bit.
#[derive(Debug, Clone, PartialEq)]
pub struct RunSnapshot {
    /// Fingerprint of the optimizer configuration that produced the
    /// run; [`load_snapshot`] returns it verbatim and resuming code
    /// compares it against the live configuration.
    pub config_fingerprint: u64,
    /// Executor-independent session state (observations, trace,
    /// schedule, in-flight set, backoffs, counters, run clock).
    pub session: SessionParts,
    /// Opaque policy state (RNG stream, surrogate caches) captured via
    /// `AsyncPolicy::snapshot_state`; `None` for stateless policies.
    pub policy: Option<Vec<u8>>,
}

fn encode_points(w: &mut ByteWriter, points: &[Vec<f64>]) {
    w.put_usize(points.len());
    for p in points {
        w.put_f64s(p);
    }
}

fn decode_points(r: &mut ByteReader<'_>) -> Result<Vec<Vec<f64>>, PersistError> {
    let n = r.get_len(8)?;
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        out.push(r.get_f64s()?);
    }
    Ok(out)
}

/// Encodes a [`SessionParts`] into the "session" section payload.
pub fn encode_session(parts: &SessionParts) -> Vec<u8> {
    let mut w = ByteWriter::new();
    w.put_usize(parts.workers);
    w.put_usize(parts.max_evals);
    w.put_usize(parts.issued);
    w.put_usize(parts.resolved);
    w.put_f64(parts.clock);
    encode_points(&mut w, &parts.pending);
    w.put_usize(parts.observations.len());
    for (x, y) in &parts.observations {
        w.put_f64s(x);
        w.put_f64(*y);
    }
    w.put_usize(parts.trace.len());
    for &(t, v) in &parts.trace {
        w.put_f64(t);
        w.put_f64(v);
    }
    w.put_usize(parts.spans.len());
    for s in &parts.spans {
        w.put_usize(s.worker);
        w.put_usize(s.task);
        w.put_f64(s.start);
        w.put_f64(s.end);
        w.put_bool(s.failed);
    }
    w.put_usize(parts.inflight.len());
    for i in &parts.inflight {
        w.put_usize(i.task);
        w.put_usize(i.attempt);
        w.put_f64s(&i.x);
        match i.started {
            None => w.put_bool(false),
            Some((worker, start)) => {
                w.put_bool(true);
                w.put_usize(worker);
                w.put_f64(start);
            }
        }
    }
    w.put_usize(parts.backoffs.len());
    for b in &parts.backoffs {
        w.put_f64(b.due);
        w.put_usize(b.worker);
        w.put_usize(b.task);
        w.put_usize(b.attempt);
        w.put_f64s(&b.x);
    }
    w.into_bytes()
}

/// Decodes a "session" section payload.
pub fn decode_session(bytes: &[u8]) -> Result<SessionParts, PersistError> {
    let mut r = ByteReader::new(bytes);
    let workers = r.get_usize()?;
    let max_evals = r.get_usize()?;
    let issued = r.get_usize()?;
    let resolved = r.get_usize()?;
    let clock = r.get_f64()?;
    let pending = decode_points(&mut r)?;
    let n = r.get_len(8)?;
    let mut observations = Vec::with_capacity(n);
    for _ in 0..n {
        let x = r.get_f64s()?;
        let y = r.get_f64()?;
        observations.push((x, y));
    }
    let n = r.get_len(16)?;
    let mut trace = Vec::with_capacity(n);
    for _ in 0..n {
        let t = r.get_f64()?;
        let v = r.get_f64()?;
        trace.push((t, v));
    }
    let n = r.get_len(33)?;
    let mut spans = Vec::with_capacity(n);
    for _ in 0..n {
        spans.push(TaskSpan {
            worker: r.get_usize()?,
            task: r.get_usize()?,
            start: r.get_f64()?,
            end: r.get_f64()?,
            failed: r.get_bool()?,
        });
    }
    let n = r.get_len(17)?;
    let mut inflight = Vec::with_capacity(n);
    for _ in 0..n {
        let task = r.get_usize()?;
        let attempt = r.get_usize()?;
        let x = r.get_f64s()?;
        let started = if r.get_bool()? {
            Some((r.get_usize()?, r.get_f64()?))
        } else {
            None
        };
        inflight.push(InFlightTask {
            task,
            attempt,
            x,
            started,
        });
    }
    let n = r.get_len(32)?;
    let mut backoffs = Vec::with_capacity(n);
    for _ in 0..n {
        backoffs.push(PendingBackoff {
            due: r.get_f64()?,
            worker: r.get_usize()?,
            task: r.get_usize()?,
            attempt: r.get_usize()?,
            x: r.get_f64s()?,
        });
    }
    r.finish("session section")?;
    Ok(SessionParts {
        workers,
        max_evals,
        issued,
        resolved,
        clock,
        pending,
        observations,
        trace,
        spans,
        inflight,
        backoffs,
    })
}

/// The "meta" section payload: fingerprint, clock, completed and issued
/// counts.
fn encode_meta(snap: &RunSnapshot) -> Vec<u8> {
    let mut meta = ByteWriter::new();
    meta.put_u64(snap.config_fingerprint);
    meta.put_f64(snap.session.clock);
    meta.put_usize(snap.session.observations.len());
    meta.put_usize(snap.session.issued);
    meta.into_bytes()
}

/// Serializes a snapshot to its container bytes.
///
/// The container is sized up front and each section payload is copied
/// in once, so encoding holds the session payload and the output next
/// to the caller's policy blob — no clone of the blob and no regrowth
/// of the output.
pub fn encode_snapshot(snap: &RunSnapshot) -> Vec<u8> {
    let meta = encode_meta(snap);
    let session = encode_session(&snap.session);

    let mut sections: Vec<(&str, &[u8])> = vec![("meta", &meta), ("session", &session)];
    if let Some(policy) = &snap.policy {
        sections.push(("policy", policy));
    }
    // Per section: the length-prefixed name, the payload length, the CRC.
    let len = MAGIC.len()
        + 4
        + 4
        + sections
            .iter()
            .map(|(name, payload)| 8 + name.len() + 8 + 4 + payload.len())
            .sum::<usize>();
    let mut w = ByteWriter::with_capacity(len);
    w.put_raw(MAGIC);
    w.put_u32(FORMAT_VERSION);
    w.put_u32(sections.len() as u32);
    for (name, payload) in &sections {
        w.put_str(name);
        w.put_u64(payload.len() as u64);
        w.put_u32(crc32(payload));
        w.put_raw(payload);
    }
    w.into_bytes()
}

/// The container encoder as it stood before [`encode_snapshot`] was
/// sized up front: the byte oracle the identity tests hold it to.
#[cfg(test)]
fn encode_snapshot_reference(snap: &RunSnapshot) -> Vec<u8> {
    let mut sections: Vec<(&str, Vec<u8>)> = vec![
        ("meta", encode_meta(snap)),
        ("session", encode_session(&snap.session)),
    ];
    if let Some(policy) = &snap.policy {
        sections.push(("policy", policy.clone()));
    }

    let mut w = ByteWriter::new();
    for &b in MAGIC {
        w.put_u8(b);
    }
    w.put_u32(FORMAT_VERSION);
    w.put_u32(sections.len() as u32);
    for (name, payload) in &sections {
        w.put_str(name);
        w.put_u64(payload.len() as u64);
        w.put_u32(crc32(payload));
        for &b in payload.iter() {
            w.put_u8(b);
        }
    }
    w.into_bytes()
}

/// Parses snapshot container bytes.
pub fn decode_snapshot(bytes: &[u8]) -> Result<RunSnapshot, PersistError> {
    if bytes.len() < MAGIC.len() || &bytes[..MAGIC.len()] != MAGIC {
        return Err(PersistError::BadMagic {
            found: bytes[..bytes.len().min(MAGIC.len())].to_vec(),
        });
    }
    let mut r = ByteReader::new(&bytes[MAGIC.len()..]);
    let version = r.get_u32()?;
    if version != FORMAT_VERSION {
        return Err(PersistError::UnsupportedVersion {
            found: version,
            supported: FORMAT_VERSION,
        });
    }
    let count = r.get_u32()?;
    let mut meta: Option<&[u8]> = None;
    let mut session: Option<&[u8]> = None;
    let mut policy: Option<Vec<u8>> = None;
    for _ in 0..count {
        let name = r.get_str()?;
        let len = r.get_usize()?;
        let stored_crc = r.get_u32()?;
        if r.remaining() < len {
            return Err(PersistError::CorruptSection {
                name,
                expected: stored_crc,
                actual: 0,
            });
        }
        let payload = r.get_raw(len)?;
        let actual = crc32(payload);
        if actual != stored_crc {
            return Err(PersistError::CorruptSection {
                name,
                expected: stored_crc,
                actual,
            });
        }
        match name.as_str() {
            "meta" => meta = Some(payload),
            "session" => session = Some(payload),
            "policy" => policy = Some(payload.to_vec()),
            // Unknown sections from future minor additions are ignored.
            _ => {}
        }
    }
    let meta = meta.ok_or(PersistError::MissingSection {
        name: "meta".to_string(),
    })?;
    let session_bytes = session.ok_or(PersistError::MissingSection {
        name: "session".to_string(),
    })?;
    let mut m = ByteReader::new(meta);
    let config_fingerprint = m.get_u64()?;
    let _clock = m.get_f64()?;
    let _completed = m.get_usize()?;
    let _issued = m.get_usize()?;
    m.finish("meta section")?;
    let session = decode_session(session_bytes)?;
    Ok(RunSnapshot {
        config_fingerprint,
        session,
        policy,
    })
}

/// Writes a snapshot to `path` atomically (temp file in the same
/// directory, `fsync`, rename, directory `fsync`) and returns the
/// number of bytes written. A crash at any point leaves either the old
/// snapshot or the new one — never a torn file.
pub fn save_snapshot(path: &Path, snap: &RunSnapshot) -> Result<usize, PersistError> {
    let bytes = encode_snapshot(snap);
    write_snapshot_bytes(path, &bytes)?;
    Ok(bytes.len())
}

/// The durable half of [`save_snapshot`]: writes pre-encoded snapshot
/// bytes to `path` atomically (temp file, `fsync`, rename). Split out so
/// callers can time encode and fsync separately.
///
/// On unix the parent directory is fsynced after the rename too, so the
/// rename itself survives a crash: without it the directory entry may
/// still name the old file, or no file at all.
pub fn write_snapshot_bytes(path: &Path, bytes: &[u8]) -> Result<(), PersistError> {
    let dir = path.parent().filter(|p| !p.as_os_str().is_empty());
    if let Some(dir) = dir {
        fs::create_dir_all(dir)
            .map_err(|e| PersistError::io(format!("creating {}", dir.display()), e))?;
    }
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(".tmp");
    let tmp = std::path::PathBuf::from(tmp);
    {
        let mut f = fs::File::create(&tmp)
            .map_err(|e| PersistError::io(format!("creating {}", tmp.display()), e))?;
        f.write_all(bytes)
            .map_err(|e| PersistError::io(format!("writing {}", tmp.display()), e))?;
        f.sync_all()
            .map_err(|e| PersistError::io(format!("syncing {}", tmp.display()), e))?;
    }
    fs::rename(&tmp, path).map_err(|e| {
        PersistError::io(
            format!("renaming {} to {}", tmp.display(), path.display()),
            e,
        )
    })?;
    #[cfg(unix)]
    {
        let dir = dir.unwrap_or(Path::new("."));
        fs::File::open(dir)
            .and_then(|d| d.sync_all())
            .map_err(|e| PersistError::io(format!("syncing directory {}", dir.display()), e))?;
    }
    Ok(())
}

/// Reads and validates a snapshot from `path`.
pub fn load_snapshot(path: &Path) -> Result<RunSnapshot, PersistError> {
    let bytes =
        fs::read(path).map_err(|e| PersistError::io(format!("reading {}", path.display()), e))?;
    decode_snapshot(&bytes)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_parts() -> SessionParts {
        SessionParts {
            workers: 3,
            max_evals: 20,
            issued: 7,
            resolved: 5,
            clock: 123.456,
            pending: vec![vec![0.1, 0.2], vec![0.3, 0.4]],
            observations: vec![(vec![0.5, 0.6], 1.25), (vec![0.7, 0.8], f64::NAN)],
            trace: vec![(10.0, 1.25), (20.0, 1.25)],
            spans: vec![TaskSpan {
                worker: 1,
                task: 0,
                start: 0.0,
                end: 10.0,
                failed: false,
            }],
            inflight: vec![
                InFlightTask {
                    task: 5,
                    attempt: 2,
                    x: vec![0.9, 0.1],
                    started: Some((2, 99.5)),
                },
                InFlightTask {
                    task: 6,
                    attempt: 1,
                    x: vec![0.2, 0.3],
                    started: None,
                },
            ],
            backoffs: vec![PendingBackoff {
                due: 130.0,
                worker: 0,
                task: 4,
                attempt: 3,
                x: vec![0.4, 0.5],
            }],
        }
    }

    fn sample_snapshot() -> RunSnapshot {
        RunSnapshot {
            config_fingerprint: 0x1234_5678_9abc_def0,
            session: sample_parts(),
            policy: Some(vec![1, 2, 3, 255, 0]),
        }
    }

    fn bits(parts: &SessionParts) -> Vec<u64> {
        // PartialEq treats NaN != NaN; compare by encoded bytes instead.
        encode_session(parts)
            .chunks(8)
            .map(|c| {
                let mut b = [0u8; 8];
                b[..c.len()].copy_from_slice(c);
                u64::from_le_bytes(b)
            })
            .collect()
    }

    #[test]
    fn snapshot_round_trips_bit_exactly() {
        let snap = sample_snapshot();
        let bytes = encode_snapshot(&snap);
        let back = decode_snapshot(&bytes).expect("decodes");
        assert_eq!(back.config_fingerprint, snap.config_fingerprint);
        assert_eq!(back.policy, snap.policy);
        assert_eq!(bits(&back.session), bits(&snap.session));
        // And re-encoding is the byte identity.
        assert_eq!(encode_snapshot(&back), bytes);
    }

    /// The on-disk golden fixture's snapshot (see the integration
    /// suite's `golden_v1_snapshot_still_decodes`).
    fn golden_snapshot() -> RunSnapshot {
        let span = |worker, task, end, failed| TaskSpan {
            worker,
            task,
            start: 0.0,
            end,
            failed,
        };
        RunSnapshot {
            config_fingerprint: 0x00c0_ffee_1234_abcd,
            session: SessionParts {
                workers: 3,
                max_evals: 12,
                issued: 7,
                resolved: 5,
                clock: 41.25,
                pending: vec![vec![0.1, 0.9]],
                observations: vec![
                    (vec![0.25, 0.75], -0.5),
                    (vec![0.5, 0.5], 0.125),
                    (vec![0.125, 0.625], 0.75),
                    (vec![0.3, 0.2], -1.5),
                    (vec![0.9, 0.1], 0.0625),
                ],
                trace: vec![(10.0, -0.5), (20.5, 0.125), (30.75, 0.75)],
                spans: vec![
                    span(0, 0, 10.0, false),
                    span(1, 1, 20.5, false),
                    span(2, 2, 15.0, true),
                ],
                inflight: vec![
                    InFlightTask {
                        task: 5,
                        attempt: 1,
                        x: vec![0.4, 0.6],
                        started: Some((2, 30.75)),
                    },
                    InFlightTask {
                        task: 6,
                        attempt: 2,
                        x: vec![0.7, 0.3],
                        started: None,
                    },
                ],
                backoffs: vec![PendingBackoff {
                    due: 55.5,
                    worker: 1,
                    task: 4,
                    attempt: 3,
                    x: vec![0.2, 0.8],
                }],
            },
            policy: Some(vec![1, 0, 0, 0, 0xde, 0xad, 0xbe, 0xef]),
        }
    }

    /// A snapshot the size of a class-E checkpoint past the GP cap: 274
    /// observations at d = 12 and a policy blob carrying a 274² factor.
    fn class_e_size_snapshot() -> RunSnapshot {
        let point = |i: usize| -> Vec<f64> {
            (0..12)
                .map(|j| ((i * 12 + j) as f64 * 0.618).fract())
                .collect()
        };
        let n = 274;
        let mut blob = ByteWriter::new();
        blob.put_f64s(&(0..n * n).map(|i| (i as f64).sqrt()).collect::<Vec<_>>());
        RunSnapshot {
            config_fingerprint: 0xc1a5_5e00_0000_0112,
            session: SessionParts {
                workers: 15,
                max_evals: 280,
                issued: n + 6,
                resolved: n,
                clock: 9_876.5,
                pending: Vec::new(),
                observations: (0..n)
                    .map(|i| (point(i), (i as f64 * 0.37).sin()))
                    .collect(),
                trace: (0..n).map(|i| (i as f64 * 3.5, i as f64 * 0.01)).collect(),
                spans: (0..n)
                    .map(|i| TaskSpan {
                        worker: i % 15,
                        task: i,
                        start: i as f64,
                        end: i as f64 + 30.0,
                        failed: i % 41 == 0,
                    })
                    .collect(),
                inflight: (n..n + 6)
                    .map(|task| InFlightTask {
                        task,
                        attempt: 1,
                        x: point(task),
                        started: Some((task % 15, task as f64)),
                    })
                    .collect(),
                backoffs: Vec::new(),
            },
            policy: Some(blob.into_bytes()),
        }
    }

    #[test]
    fn sized_encoder_writes_the_reference_bytes() {
        let golden = golden_snapshot();
        let committed = include_bytes!("../../../tests/data/golden_v1.snap");
        assert_eq!(encode_snapshot_reference(&golden), committed.as_slice());
        for snap in [
            golden,
            RunSnapshot {
                policy: None,
                ..golden_snapshot()
            },
            sample_snapshot(),
            class_e_size_snapshot(),
        ] {
            let bytes = encode_snapshot(&snap);
            assert_eq!(bytes, encode_snapshot_reference(&snap));
            assert_eq!(bytes.capacity(), bytes.len(), "sized exactly");
        }
    }

    #[test]
    fn missing_policy_section_is_none() {
        let snap = RunSnapshot {
            policy: None,
            ..sample_snapshot()
        };
        let back = decode_snapshot(&encode_snapshot(&snap)).expect("decodes");
        assert_eq!(back.policy, None);
    }

    #[test]
    fn bad_magic_is_structured() {
        let err = decode_snapshot(b"NOTASNAP....").expect_err("rejected");
        assert!(matches!(err, PersistError::BadMagic { .. }), "{err}");
        let err = decode_snapshot(b"EZ").expect_err("rejected");
        assert!(matches!(err, PersistError::BadMagic { .. }), "{err}");
    }

    #[test]
    fn future_version_is_rejected_with_guidance() {
        let mut bytes = encode_snapshot(&sample_snapshot());
        bytes[8] = 0xff; // bump the little-endian version field
        let err = decode_snapshot(&bytes).expect_err("rejected");
        assert!(
            matches!(err, PersistError::UnsupportedVersion { found: 255, .. }),
            "{err}"
        );
        assert!(err.to_string().contains("bump the format version"));
    }

    #[test]
    fn every_single_bit_flip_in_a_payload_is_detected() {
        let snap = sample_snapshot();
        let clean = encode_snapshot(&snap);
        // Flip one bit in the middle of the session payload.
        let mid = clean.len() / 2;
        for bit in 0..8 {
            let mut bytes = clean.clone();
            bytes[mid] ^= 1 << bit;
            let err = decode_snapshot(&bytes).expect_err("corruption detected");
            assert!(
                matches!(
                    err,
                    PersistError::CorruptSection { .. } | PersistError::Decode { .. }
                ),
                "flip at {mid}:{bit} gave {err}"
            );
        }
    }

    #[test]
    fn truncation_is_detected() {
        let clean = encode_snapshot(&sample_snapshot());
        for cut in [clean.len() - 1, clean.len() / 2, 13] {
            assert!(
                decode_snapshot(&clean[..cut]).is_err(),
                "truncation at {cut} undetected"
            );
        }
    }

    #[test]
    fn save_is_atomic_and_load_round_trips() {
        let dir = std::env::temp_dir().join(format!(
            "easybo-persist-test-{}-{}",
            std::process::id(),
            line!()
        ));
        let path = dir.join("run.snap");
        let snap = sample_snapshot();
        let n = save_snapshot(&path, &snap).expect("saves");
        assert!(n > 0);
        assert!(
            !path.with_extension("snap.tmp").exists(),
            "temp file renamed away"
        );
        let back = load_snapshot(&path).expect("loads");
        assert_eq!(bits(&back.session), bits(&snap.session));
        // Overwrite in place: still atomic, still valid.
        save_snapshot(&path, &snap).expect("overwrites");
        assert!(load_snapshot(&path).is_ok());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn save_into_a_fresh_nested_directory_loads_back() {
        let root = std::env::temp_dir().join(format!(
            "easybo-persist-test-{}-{}",
            std::process::id(),
            line!()
        ));
        let path = root.join("a").join("b").join("run.snap");
        let snap = sample_snapshot();
        let n = save_snapshot(&path, &snap).expect("creates, saves and syncs");
        assert_eq!(std::fs::metadata(&path).unwrap().len(), n as u64);
        let back = load_snapshot(&path).expect("loads");
        assert_eq!(encode_snapshot(&back), encode_snapshot(&snap));
        std::fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn load_of_missing_file_is_io_error() {
        let err = load_snapshot(Path::new("/nonexistent/easybo.snap")).expect_err("missing");
        assert!(matches!(err, PersistError::Io { .. }), "{err}");
    }
}
