//! A tiny hand-rolled byte codec for synopsis snapshots.
//!
//! The workspace is fully offline (no serde), so checkpointable
//! summaries encode themselves with this fixed-layout little-endian
//! writer/reader pair. The format is deliberately boring: every
//! snapshot starts with a one-byte type tag (so restoring the wrong
//! kind of summary fails loudly instead of mis-reading), followed by
//! fixed-width scalars and length-prefixed sequences. Decoding is
//! fully validated — a truncated or mis-tagged buffer yields
//! [`SaError::Codec`], never a panic or a silently wrong summary.

use crate::error::{Result, SaError};

/// Append-only little-endian encoder.
#[derive(Debug, Default)]
pub struct ByteWriter {
    buf: Vec<u8>,
}

impl ByteWriter {
    /// Empty writer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Writer with pre-reserved capacity.
    pub fn with_capacity(cap: usize) -> Self {
        Self { buf: Vec::with_capacity(cap) }
    }

    /// Write a one-byte type tag (conventionally the first byte).
    pub fn tag(&mut self, tag: u8) -> &mut Self {
        self.put_u8(tag)
    }

    /// Write a `u8`.
    pub fn put_u8(&mut self, v: u8) -> &mut Self {
        self.buf.push(v);
        self
    }

    /// Write a `bool` as one byte.
    pub fn put_bool(&mut self, v: bool) -> &mut Self {
        self.put_u8(u8::from(v))
    }

    /// Write a `u32` (little-endian).
    pub fn put_u32(&mut self, v: u32) -> &mut Self {
        self.buf.extend_from_slice(&v.to_le_bytes());
        self
    }

    /// Write a `u64` (little-endian).
    pub fn put_u64(&mut self, v: u64) -> &mut Self {
        self.buf.extend_from_slice(&v.to_le_bytes());
        self
    }

    /// Write an `i64` (little-endian).
    pub fn put_i64(&mut self, v: i64) -> &mut Self {
        self.buf.extend_from_slice(&v.to_le_bytes());
        self
    }

    /// Write an `f64` by bit pattern (NaN-safe round trip).
    pub fn put_f64(&mut self, v: f64) -> &mut Self {
        self.put_u64(v.to_bits())
    }

    /// Write a length-prefixed byte slice.
    pub fn put_bytes(&mut self, v: &[u8]) -> &mut Self {
        self.put_u64(v.len() as u64);
        self.buf.extend_from_slice(v);
        self
    }

    /// Append bytes produced by another writer verbatim (no length
    /// prefix), e.g. a cached sub-record.
    pub fn put_raw(&mut self, v: &[u8]) -> &mut Self {
        self.buf.extend_from_slice(v);
        self
    }

    /// Write a length-prefixed UTF-8 string.
    pub fn put_str(&mut self, v: &str) -> &mut Self {
        self.put_bytes(v.as_bytes())
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Consume the writer, yielding the encoded buffer.
    pub fn finish(self) -> Vec<u8> {
        self.buf
    }
}

/// Validating little-endian decoder over a borrowed buffer.
#[derive(Debug)]
pub struct ByteReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

fn short(what: &str) -> SaError {
    SaError::Codec(format!("buffer too short reading {what}"))
}

impl<'a> ByteReader<'a> {
    /// Reader over `buf`, positioned at the start.
    pub fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }

    fn take(&mut self, n: usize, what: &str) -> Result<&'a [u8]> {
        let end = self.pos.checked_add(n).ok_or_else(|| short(what))?;
        if end > self.buf.len() {
            return Err(short(what));
        }
        let s = &self.buf[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    /// Read the leading type tag and check it matches `expected`.
    pub fn expect_tag(&mut self, expected: u8, kind: &str) -> Result<()> {
        let got = self.get_u8()?;
        if got != expected {
            return Err(SaError::Codec(format!(
                "snapshot tag mismatch: expected {kind} ({expected:#04x}), got {got:#04x}"
            )));
        }
        Ok(())
    }

    /// Read a `u8`.
    pub fn get_u8(&mut self) -> Result<u8> {
        Ok(self.take(1, "u8")?[0])
    }

    /// Read a one-byte `bool` (strictly 0 or 1).
    pub fn get_bool(&mut self) -> Result<bool> {
        match self.get_u8()? {
            0 => Ok(false),
            1 => Ok(true),
            b => Err(SaError::Codec(format!("invalid bool byte {b:#04x}"))),
        }
    }

    /// Read a `u32`.
    pub fn get_u32(&mut self) -> Result<u32> {
        Ok(u32::from_le_bytes(self.take(4, "u32")?.try_into().unwrap()))
    }

    /// Read a `u64`.
    pub fn get_u64(&mut self) -> Result<u64> {
        Ok(u64::from_le_bytes(self.take(8, "u64")?.try_into().unwrap()))
    }

    /// Read an `i64`.
    pub fn get_i64(&mut self) -> Result<i64> {
        Ok(i64::from_le_bytes(self.take(8, "i64")?.try_into().unwrap()))
    }

    /// Read an `f64` by bit pattern.
    pub fn get_f64(&mut self) -> Result<f64> {
        Ok(f64::from_bits(self.get_u64()?))
    }

    /// Read a sequence length and sanity-check it against the bytes
    /// actually remaining (each element occupies ≥ `min_elem_bytes`),
    /// so a corrupt length cannot trigger a huge allocation.
    pub fn get_len(&mut self, min_elem_bytes: usize) -> Result<usize> {
        let n = self.get_u64()?;
        let remaining = (self.buf.len() - self.pos) as u64;
        if n.saturating_mul(min_elem_bytes.max(1) as u64) > remaining {
            return Err(SaError::Codec(format!(
                "sequence length {n} exceeds remaining {remaining} bytes"
            )));
        }
        Ok(n as usize)
    }

    /// Read a length-prefixed byte slice.
    pub fn get_bytes(&mut self) -> Result<&'a [u8]> {
        let n = self.get_len(1)?;
        self.take(n, "bytes")
    }

    /// Read a length-prefixed UTF-8 string.
    pub fn get_str(&mut self) -> Result<String> {
        let bytes = self.get_bytes()?;
        String::from_utf8(bytes.to_vec())
            .map_err(|_| SaError::Codec("invalid UTF-8 in string".into()))
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Assert the buffer was consumed exactly (trailing garbage is a
    /// corrupt snapshot).
    pub fn finish(self) -> Result<()> {
        if self.pos != self.buf.len() {
            return Err(SaError::Codec(format!(
                "{} trailing bytes after snapshot",
                self.remaining()
            )));
        }
        Ok(())
    }
}

/// An element type that generic summaries (`SpaceSaving<T>`,
/// `Reservoir<T>`) can carry through a snapshot.
///
/// Implemented for the scalar types the workspace streams actually use;
/// applications holding richer items implement it the same way the
/// built-ins do — write with [`ByteWriter`], read with [`ByteReader`].
pub trait CodecItem: Sized {
    /// Append this element to `w`.
    fn encode_item(&self, w: &mut ByteWriter);
    /// Decode one element from `r`.
    fn decode_item(r: &mut ByteReader<'_>) -> Result<Self>;
}

impl CodecItem for u64 {
    fn encode_item(&self, w: &mut ByteWriter) {
        w.put_u64(*self);
    }
    fn decode_item(r: &mut ByteReader<'_>) -> Result<Self> {
        r.get_u64()
    }
}

impl CodecItem for i64 {
    fn encode_item(&self, w: &mut ByteWriter) {
        w.put_i64(*self);
    }
    fn decode_item(r: &mut ByteReader<'_>) -> Result<Self> {
        r.get_i64()
    }
}

impl CodecItem for u32 {
    fn encode_item(&self, w: &mut ByteWriter) {
        w.put_u32(*self);
    }
    fn decode_item(r: &mut ByteReader<'_>) -> Result<Self> {
        r.get_u32()
    }
}

impl CodecItem for f64 {
    fn encode_item(&self, w: &mut ByteWriter) {
        w.put_f64(*self);
    }
    fn decode_item(r: &mut ByteReader<'_>) -> Result<Self> {
        r.get_f64()
    }
}

impl CodecItem for String {
    fn encode_item(&self, w: &mut ByteWriter) {
        w.put_str(self);
    }
    fn decode_item(r: &mut ByteReader<'_>) -> Result<Self> {
        r.get_str()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_round_trip() {
        let mut w = ByteWriter::new();
        w.tag(b'T')
            .put_u8(7)
            .put_bool(true)
            .put_u32(0xDEAD_BEEF)
            .put_u64(u64::MAX)
            .put_i64(-42)
            .put_f64(std::f64::consts::PI)
            .put_bytes(&[1, 2, 3])
            .put_str("héllo");
        let buf = w.finish();
        let mut r = ByteReader::new(&buf);
        r.expect_tag(b'T', "test").unwrap();
        assert_eq!(r.get_u8().unwrap(), 7);
        assert!(r.get_bool().unwrap());
        assert_eq!(r.get_u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(r.get_u64().unwrap(), u64::MAX);
        assert_eq!(r.get_i64().unwrap(), -42);
        assert_eq!(r.get_f64().unwrap(), std::f64::consts::PI);
        assert_eq!(r.get_bytes().unwrap(), &[1, 2, 3]);
        assert_eq!(r.get_str().unwrap(), "héllo");
        r.finish().unwrap();
    }

    #[test]
    fn nan_round_trips_by_bits() {
        let mut w = ByteWriter::new();
        w.put_f64(f64::NAN);
        let buf = w.finish();
        let back = ByteReader::new(&buf).get_f64().unwrap();
        assert!(back.is_nan());
    }

    #[test]
    fn truncated_buffer_is_an_error() {
        let mut w = ByteWriter::new();
        w.put_u64(1);
        let buf = w.finish();
        let mut r = ByteReader::new(&buf[..5]);
        assert!(matches!(r.get_u64(), Err(SaError::Codec(_))));
    }

    #[test]
    fn wrong_tag_is_an_error() {
        let mut w = ByteWriter::new();
        w.tag(b'A');
        let buf = w.finish();
        let mut r = ByteReader::new(&buf);
        let err = r.expect_tag(b'B', "other").unwrap_err();
        assert!(err.to_string().contains("tag mismatch"));
    }

    #[test]
    fn corrupt_length_rejected_without_allocation() {
        let mut w = ByteWriter::new();
        w.put_u64(u64::MAX); // absurd sequence length
        let buf = w.finish();
        let mut r = ByteReader::new(&buf);
        assert!(matches!(r.get_bytes(), Err(SaError::Codec(_))));
    }

    #[test]
    fn trailing_bytes_rejected() {
        let mut w = ByteWriter::new();
        w.put_u8(1).put_u8(2);
        let buf = w.finish();
        let mut r = ByteReader::new(&buf);
        r.get_u8().unwrap();
        assert!(r.finish().is_err());
    }

    #[test]
    fn invalid_bool_and_utf8_rejected() {
        let mut r = ByteReader::new(&[7]);
        assert!(r.get_bool().is_err());
        let mut w = ByteWriter::new();
        w.put_bytes(&[0xFF, 0xFE]);
        let buf = w.finish();
        assert!(ByteReader::new(&buf).get_str().is_err());
    }

    #[test]
    fn codec_items_round_trip() {
        let mut w = ByteWriter::new();
        42u64.encode_item(&mut w);
        (-3i64).encode_item(&mut w);
        9u32.encode_item(&mut w);
        2.5f64.encode_item(&mut w);
        "word".to_string().encode_item(&mut w);
        let buf = w.finish();
        let mut r = ByteReader::new(&buf);
        assert_eq!(u64::decode_item(&mut r).unwrap(), 42);
        assert_eq!(i64::decode_item(&mut r).unwrap(), -3);
        assert_eq!(u32::decode_item(&mut r).unwrap(), 9);
        assert_eq!(f64::decode_item(&mut r).unwrap(), 2.5);
        assert_eq!(String::decode_item(&mut r).unwrap(), "word");
        r.finish().unwrap();
    }
}
