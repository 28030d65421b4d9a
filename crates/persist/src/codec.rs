//! Minimal little-endian byte codec.
//!
//! Every scalar is written as its exact bit pattern (`f64` via
//! [`f64::to_bits`]), so a decode → encode round trip is the identity
//! on bytes and a restored session is *bit-identical* to the captured
//! one — the property the headline kill-and-resume test asserts.

use crate::error::PersistError;

/// Append-only little-endian writer.
#[derive(Debug, Default)]
pub struct ByteWriter {
    buf: Vec<u8>,
}

impl ByteWriter {
    /// An empty writer.
    pub fn new() -> Self {
        ByteWriter::default()
    }

    /// An empty writer with room for `capacity` bytes, so a caller that
    /// knows its output size writes it without regrowth.
    pub fn with_capacity(capacity: usize) -> Self {
        ByteWriter {
            buf: Vec::with_capacity(capacity),
        }
    }

    /// Consumes the writer, returning the bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Appends one byte.
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Appends a `u32`, little-endian.
    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a `u64`, little-endian.
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a `usize` as a `u64` (portable across word sizes).
    pub fn put_usize(&mut self, v: usize) {
        self.put_u64(v as u64);
    }

    /// Appends an `f64` as its exact IEEE-754 bit pattern.
    pub fn put_f64(&mut self, v: f64) {
        self.put_u64(v.to_bits());
    }

    /// Appends a bool as one byte.
    pub fn put_bool(&mut self, v: bool) {
        self.put_u8(u8::from(v));
    }

    /// Appends bytes as they are, with no length prefix.
    pub fn put_raw(&mut self, v: &[u8]) {
        self.buf.extend_from_slice(v);
    }

    /// Appends a length-prefixed byte string.
    pub fn put_bytes(&mut self, v: &[u8]) {
        self.put_usize(v.len());
        self.put_raw(v);
    }

    /// Appends a length-prefixed UTF-8 string.
    pub fn put_str(&mut self, v: &str) {
        self.put_bytes(v.as_bytes());
    }

    /// Appends a length-prefixed `f64` vector.
    pub fn put_f64s(&mut self, v: &[f64]) {
        self.buf.reserve(8 + 8 * v.len());
        self.put_usize(v.len());
        for &x in v {
            self.put_f64(x);
        }
    }
}

/// Checked little-endian reader over a byte slice. Every accessor
/// returns [`PersistError::Decode`] on truncation instead of panicking.
#[derive(Debug)]
pub struct ByteReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> ByteReader<'a> {
    /// A reader over `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        ByteReader { buf, pos: 0 }
    }

    /// Bytes left to read.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Errors unless every byte was consumed — catches encoder/decoder
    /// drift that truncation checks alone would miss.
    pub fn finish(self, context: &str) -> Result<(), PersistError> {
        if self.remaining() != 0 {
            return Err(PersistError::decode(format!(
                "{context}: {} trailing bytes after decode",
                self.remaining()
            )));
        }
        Ok(())
    }

    fn take(&mut self, n: usize, what: &str) -> Result<&'a [u8], PersistError> {
        if self.remaining() < n {
            return Err(PersistError::decode(format!(
                "truncated reading {what}: need {n} bytes, have {}",
                self.remaining()
            )));
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Reads the next `len` bytes as they are, with no length prefix
    /// (the counterpart of [`ByteWriter::put_raw`]).
    pub fn get_raw(&mut self, len: usize) -> Result<&'a [u8], PersistError> {
        self.take(len, "raw bytes")
    }

    /// Reads one byte.
    pub fn get_u8(&mut self) -> Result<u8, PersistError> {
        Ok(self.take(1, "u8")?[0])
    }

    /// Reads a little-endian `u32`.
    pub fn get_u32(&mut self) -> Result<u32, PersistError> {
        let s = self.take(4, "u32")?;
        Ok(u32::from_le_bytes(s.try_into().expect("4 bytes")))
    }

    /// Reads a little-endian `u64`.
    pub fn get_u64(&mut self) -> Result<u64, PersistError> {
        let s = self.take(8, "u64")?;
        Ok(u64::from_le_bytes(s.try_into().expect("8 bytes")))
    }

    /// Reads a `usize` stored as `u64`, rejecting values beyond the
    /// platform word or implausibly larger than the remaining payload.
    pub fn get_usize(&mut self) -> Result<usize, PersistError> {
        let v = self.get_u64()?;
        usize::try_from(v)
            .map_err(|_| PersistError::decode(format!("length {v} exceeds platform usize")))
    }

    /// Reads a length used to preallocate: additionally bounded by the
    /// remaining bytes so corrupt headers cannot trigger huge
    /// allocations.
    pub fn get_len(&mut self, elem_size: usize) -> Result<usize, PersistError> {
        let n = self.get_usize()?;
        if elem_size > 0 && n > self.remaining() / elem_size.max(1) + 1 {
            return Err(PersistError::decode(format!(
                "length {n} is larger than the remaining payload allows"
            )));
        }
        Ok(n)
    }

    /// Reads an `f64` bit pattern.
    pub fn get_f64(&mut self) -> Result<f64, PersistError> {
        Ok(f64::from_bits(self.get_u64()?))
    }

    /// Reads a bool byte (strictly 0 or 1).
    pub fn get_bool(&mut self) -> Result<bool, PersistError> {
        match self.get_u8()? {
            0 => Ok(false),
            1 => Ok(true),
            b => Err(PersistError::decode(format!("invalid bool byte {b}"))),
        }
    }

    /// Reads a length-prefixed byte string.
    pub fn get_bytes(&mut self) -> Result<Vec<u8>, PersistError> {
        let n = self.get_len(1)?;
        Ok(self.take(n, "byte string")?.to_vec())
    }

    /// Reads a length-prefixed UTF-8 string.
    pub fn get_str(&mut self) -> Result<String, PersistError> {
        let bytes = self.get_bytes()?;
        String::from_utf8(bytes).map_err(|_| PersistError::decode("invalid UTF-8 string"))
    }

    /// Reads a length-prefixed `f64` vector.
    pub fn get_f64s(&mut self) -> Result<Vec<f64>, PersistError> {
        let n = self.get_len(8)?;
        let mut v = Vec::with_capacity(n);
        for _ in 0..n {
            v.push(self.get_f64()?);
        }
        Ok(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalars_round_trip_bit_exactly() {
        let mut w = ByteWriter::new();
        w.put_u8(7);
        w.put_u32(0xdead_beef);
        w.put_u64(u64::MAX);
        w.put_usize(42);
        w.put_f64(f64::NAN);
        w.put_f64(-0.0);
        w.put_f64(1.0 / 3.0);
        w.put_bool(true);
        w.put_str("σ̂ over µ");
        w.put_f64s(&[f64::INFINITY, f64::MIN_POSITIVE]);
        let bytes = w.into_bytes();

        let mut r = ByteReader::new(&bytes);
        assert_eq!(r.get_u8().unwrap(), 7);
        assert_eq!(r.get_u32().unwrap(), 0xdead_beef);
        assert_eq!(r.get_u64().unwrap(), u64::MAX);
        assert_eq!(r.get_usize().unwrap(), 42);
        assert!(r.get_f64().unwrap().is_nan());
        assert_eq!(r.get_f64().unwrap().to_bits(), (-0.0f64).to_bits());
        assert_eq!(r.get_f64().unwrap().to_bits(), (1.0f64 / 3.0).to_bits());
        assert!(r.get_bool().unwrap());
        assert_eq!(r.get_str().unwrap(), "σ̂ over µ");
        let v = r.get_f64s().unwrap();
        assert_eq!(v.len(), 2);
        assert!(v[0].is_infinite());
        r.finish("test").unwrap();
    }

    #[test]
    fn put_f64s_writes_each_bit_pattern() {
        let v = [0.5, -0.0, f64::NAN, 1e-300];
        let mut w = ByteWriter::new();
        w.put_f64s(&v);
        let mut reference = ByteWriter::new();
        reference.put_usize(v.len());
        for x in v {
            reference.put_f64(x);
        }
        assert_eq!(w.into_bytes(), reference.into_bytes());
    }

    #[test]
    fn put_raw_has_no_length_prefix() {
        let mut w = ByteWriter::with_capacity(14);
        w.put_raw(b"abc");
        w.put_bytes(b"abc");
        let bytes = w.into_bytes();
        assert_eq!(bytes, b"abc\x03\0\0\0\0\0\0\0abc");
        assert_eq!(bytes.capacity(), 14, "no regrowth");
    }

    #[test]
    fn get_raw_reads_in_place_and_reports_truncation() {
        let mut r = ByteReader::new(b"abcdef");
        assert_eq!(r.get_raw(4).unwrap(), b"abcd");
        let err = r.get_raw(3).unwrap_err().to_string();
        assert!(
            err.contains("truncated reading raw bytes: need 3 bytes, have 2"),
            "{err}"
        );
        assert_eq!(r.get_raw(2).unwrap(), b"ef");
        r.finish("raw").unwrap();
    }

    #[test]
    fn truncation_is_an_error_not_a_panic() {
        let mut w = ByteWriter::new();
        w.put_u64(5);
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes[..6]);
        assert!(r.get_u64().is_err());
    }

    #[test]
    fn huge_lengths_are_rejected_before_allocation() {
        let mut w = ByteWriter::new();
        w.put_u64(u64::MAX);
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes);
        assert!(r.get_f64s().is_err());
    }

    #[test]
    fn trailing_bytes_fail_finish() {
        let mut w = ByteWriter::new();
        w.put_u8(1);
        w.put_u8(2);
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes);
        let _ = r.get_u8().unwrap();
        assert!(r.finish("partial").is_err());
    }

    #[test]
    fn invalid_bool_is_rejected() {
        let mut r = ByteReader::new(&[3]);
        assert!(r.get_bool().is_err());
    }
}
