//! Structured errors for snapshot reading and writing.

use std::fmt;
use std::io;

/// Everything that can go wrong saving or loading a snapshot. Corrupt
/// files never panic and never yield a half-restored session: every
/// decode failure is classified so callers can distinguish "wrong
/// file" from "damaged file" from "file from the future".
#[derive(Debug)]
pub enum PersistError {
    /// Filesystem failure (open, read, write, sync, rename).
    Io {
        /// What the operation was trying to do.
        context: String,
        /// The underlying OS error.
        source: io::Error,
    },
    /// The file does not start with the `EZBOSNAP` magic — not a
    /// snapshot at all.
    BadMagic {
        /// The first bytes actually found.
        found: Vec<u8>,
    },
    /// The snapshot was written by a newer (or unknown) format version.
    UnsupportedVersion {
        /// Version stamped in the file.
        found: u32,
        /// Version this library reads and writes.
        supported: u32,
    },
    /// A section's payload does not match its stored CRC32 — the file
    /// was truncated or bit-flipped after writing.
    CorruptSection {
        /// Section name.
        name: String,
        /// CRC32 stored in the section table.
        expected: u32,
        /// CRC32 of the bytes actually present.
        actual: u32,
    },
    /// A required section is absent.
    MissingSection {
        /// Section name.
        name: String,
    },
    /// A section's payload passed its checksum but could not be decoded
    /// (internal inconsistency; should never happen for files this
    /// library wrote).
    Decode {
        /// What failed to decode.
        context: String,
    },
    /// The snapshot was captured under a different optimizer
    /// configuration than the one trying to resume it.
    ConfigMismatch {
        /// Fingerprint stored in the snapshot.
        expected: u64,
        /// Fingerprint of the resuming configuration.
        actual: u64,
    },
}

impl fmt::Display for PersistError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PersistError::Io { context, source } => {
                write!(f, "snapshot I/O failed while {context}: {source}")
            }
            PersistError::BadMagic { found } => {
                write!(f, "not an EasyBO snapshot (leading bytes {found:?})")
            }
            PersistError::UnsupportedVersion { found, supported } => write!(
                f,
                "snapshot format version {found} is not supported (this build reads \
                 version {supported}); bump the format version and add a migration \
                 to load it"
            ),
            PersistError::CorruptSection {
                name,
                expected,
                actual,
            } => write!(
                f,
                "snapshot section '{name}' is corrupt: CRC32 {actual:#010x} != stored {expected:#010x}"
            ),
            PersistError::MissingSection { name } => {
                write!(f, "snapshot is missing required section '{name}'")
            }
            PersistError::Decode { context } => {
                write!(f, "snapshot decode failed: {context}")
            }
            PersistError::ConfigMismatch { expected, actual } => write!(
                f,
                "snapshot was captured under config fingerprint {expected:#018x} but the \
                 resuming optimizer has {actual:#018x}; resume with the same bounds, \
                 seed, budget, and policy settings"
            ),
        }
    }
}

impl std::error::Error for PersistError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            PersistError::Io { source, .. } => Some(source),
            _ => None,
        }
    }
}

impl PersistError {
    /// Wraps an [`io::Error`] with the operation that hit it.
    pub fn io(context: impl Into<String>, source: io::Error) -> Self {
        PersistError::Io {
            context: context.into(),
            source,
        }
    }

    /// A decode failure with context.
    pub fn decode(context: impl Into<String>) -> Self {
        PersistError::Decode {
            context: context.into(),
        }
    }
}

/// A session section that decoded but describes an impossible session
/// (see [`easybo_exec::SessionState::from_parts`]) is a decode failure
/// that names the field.
impl From<easybo_exec::InvalidSessionParts> for PersistError {
    fn from(e: easybo_exec::InvalidSessionParts) -> Self {
        PersistError::decode(e.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn displays_are_actionable() {
        let v = PersistError::UnsupportedVersion {
            found: 9,
            supported: 1,
        };
        assert!(v.to_string().contains("bump the format version"));
        let c = PersistError::ConfigMismatch {
            expected: 1,
            actual: 2,
        };
        assert!(c.to_string().contains("same bounds"));
        let s = PersistError::CorruptSection {
            name: "session".to_string(),
            expected: 0xdead_beef,
            actual: 0x1234_5678,
        };
        assert!(s.to_string().contains("session"));
        assert!(s.to_string().contains("0xdeadbeef"));
    }

    #[test]
    fn io_variant_preserves_source() {
        let e = PersistError::io(
            "opening /nope",
            io::Error::new(io::ErrorKind::NotFound, "gone"),
        );
        assert!(std::error::Error::source(&e).is_some());
    }
}
