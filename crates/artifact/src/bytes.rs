//! Little-endian byte encoding primitives shared by the artifact format:
//! a growable writer, a bounds-checked reader whose every failure is a
//! typed [`ArtifactError`], and the CRC32 (IEEE) used to checksum payloads.
//!
//! Floats travel as raw IEEE-754 bits (`to_bits`/`from_bits`), so a
//! round-tripped model is *bit*-identical, not merely approximately equal.

use crate::error::ArtifactError;

const fn crc32_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        table[i] = c;
        i += 1;
    }
    table
}

static CRC_TABLE: [u32; 256] = crc32_table();

/// CRC-32 (IEEE 802.3, the zlib/PNG polynomial) of `data`.
pub fn crc32(data: &[u8]) -> u32 {
    let mut c = 0xFFFF_FFFFu32;
    for &b in data {
        c = CRC_TABLE[((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    c ^ 0xFFFF_FFFF
}

/// Append-only little-endian encoder.
#[derive(Debug, Default)]
pub struct ByteWriter {
    buf: Vec<u8>,
}

impl ByteWriter {
    /// Fresh empty buffer.
    pub fn new() -> Self {
        ByteWriter::default()
    }

    /// Consume the writer, returning the encoded bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Append one byte.
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Append a `u32`, little-endian.
    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append a `u64`, little-endian.
    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append an `f64` as its raw IEEE-754 bits.
    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    /// Append an `f32` as its raw IEEE-754 bits.
    pub fn f32(&mut self, v: f32) {
        self.u32(v.to_bits());
    }

    /// Append a length-prefixed UTF-8 string (`u32` byte length + bytes).
    pub fn str(&mut self, s: &str) {
        self.u32(s.len() as u32);
        self.buf.extend_from_slice(s.as_bytes());
    }

    /// Append a length-prefixed `f64` slice.
    pub fn f64_slice(&mut self, xs: &[f64]) {
        self.u32(xs.len() as u32);
        for &x in xs {
            self.f64(x);
        }
    }

    /// Append a length-prefixed `f32` slice (4 bytes per element).
    pub fn f32_slice(&mut self, xs: &[f32]) {
        self.u32(xs.len() as u32);
        for &x in xs {
            self.f32(x);
        }
    }
}

/// Bounds-checked little-endian decoder over a borrowed buffer.
#[derive(Debug)]
pub struct ByteReader<'a> {
    data: &'a [u8],
    pos: usize,
}

impl<'a> ByteReader<'a> {
    /// Start decoding at the front of `data`.
    pub fn new(data: &'a [u8]) -> Self {
        ByteReader { data, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.data.len() - self.pos
    }

    /// Borrow the next `n` bytes of the buffer, so a caller can split a
    /// large field in one pass instead of one bounds-checked read per
    /// element.
    pub fn bytes(&mut self, n: usize) -> Result<&'a [u8], ArtifactError> {
        if self.remaining() < n {
            return Err(ArtifactError::Truncated {
                needed: n,
                available: self.remaining(),
            });
        }
        let out = &self.data[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    /// Read one byte.
    pub fn u8(&mut self) -> Result<u8, ArtifactError> {
        Ok(self.bytes(1)?[0])
    }

    /// Read a little-endian `u32`.
    pub fn u32(&mut self) -> Result<u32, ArtifactError> {
        Ok(u32::from_le_bytes(
            self.bytes(4)?.try_into().expect("4 bytes"),
        ))
    }

    /// Read a little-endian `u64`.
    pub fn u64(&mut self) -> Result<u64, ArtifactError> {
        Ok(u64::from_le_bytes(
            self.bytes(8)?.try_into().expect("8 bytes"),
        ))
    }

    /// Read an `f64` from its raw IEEE-754 bits.
    pub fn f64(&mut self) -> Result<f64, ArtifactError> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// Read an `f32` from its raw IEEE-754 bits.
    pub fn f32(&mut self) -> Result<f32, ArtifactError> {
        Ok(f32::from_bits(self.u32()?))
    }

    /// Read a length-prefixed UTF-8 string.
    pub fn str(&mut self) -> Result<String, ArtifactError> {
        let len = self.u32()? as usize;
        let bytes = self.bytes(len)?;
        String::from_utf8(bytes.to_vec())
            .map_err(|_| ArtifactError::Malformed("string is not valid UTF-8".into()))
    }

    /// Read a length-prefixed `f64` slice. The length is validated against
    /// the remaining bytes *before* allocating, so a corrupt length cannot
    /// ask for gigabytes.
    pub fn f64_slice(&mut self) -> Result<Vec<f64>, ArtifactError> {
        let len = self.u32()? as usize;
        if self.remaining() < len * 8 {
            return Err(ArtifactError::Truncated {
                needed: len * 8,
                available: self.remaining(),
            });
        }
        (0..len).map(|_| self.f64()).collect()
    }

    /// Read a length-prefixed `f32` slice, with the same
    /// validate-length-before-allocating discipline as
    /// [`ByteReader::f64_slice`].
    pub fn f32_slice(&mut self) -> Result<Vec<f32>, ArtifactError> {
        let len = self.u32()? as usize;
        if self.remaining() < len * 4 {
            return Err(ArtifactError::Truncated {
                needed: len * 4,
                available: self.remaining(),
            });
        }
        (0..len).map(|_| self.f32()).collect()
    }

    /// Assert the buffer was consumed exactly.
    pub fn finish(self) -> Result<(), ArtifactError> {
        if self.remaining() != 0 {
            return Err(ArtifactError::Malformed(format!(
                "{} trailing bytes after payload",
                self.remaining()
            )));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc32_matches_known_vectors() {
        // Standard check value for "123456789" under CRC-32/IEEE.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn writer_reader_round_trip() {
        let mut w = ByteWriter::new();
        w.u8(7);
        w.u32(0xDEAD_BEEF);
        w.u64(u64::MAX - 3);
        w.f64(-0.125);
        w.str("hello ✓");
        w.f64_slice(&[1.5, f64::NAN, -0.0]);
        let bytes = w.into_bytes();

        let mut r = ByteReader::new(&bytes);
        assert_eq!(r.u8().unwrap(), 7);
        assert_eq!(r.u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(r.u64().unwrap(), u64::MAX - 3);
        assert_eq!(r.f64().unwrap().to_bits(), (-0.125f64).to_bits());
        assert_eq!(r.str().unwrap(), "hello ✓");
        let xs = r.f64_slice().unwrap();
        assert_eq!(xs.len(), 3);
        assert!(xs[1].is_nan());
        assert_eq!(xs[2].to_bits(), (-0.0f64).to_bits());
        r.finish().unwrap();
    }

    #[test]
    fn f32_round_trip_is_bitwise() {
        let mut w = ByteWriter::new();
        w.f32(-0.1);
        w.f32_slice(&[1.5, f32::NAN, -0.0, 3.0e-40]); // incl. NaN + subnormal
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes);
        assert_eq!(r.f32().unwrap().to_bits(), (-0.1f32).to_bits());
        let xs = r.f32_slice().unwrap();
        assert_eq!(xs.len(), 4);
        assert!(xs[1].is_nan());
        assert_eq!(xs[2].to_bits(), (-0.0f32).to_bits());
        assert_eq!(xs[3].to_bits(), (3.0e-40f32).to_bits());
        r.finish().unwrap();
    }

    #[test]
    fn oversized_f32_slice_is_rejected_before_allocating() {
        let mut w = ByteWriter::new();
        w.u32(u32::MAX);
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes);
        assert!(matches!(
            r.f32_slice(),
            Err(ArtifactError::Truncated { .. })
        ));
    }

    #[test]
    fn bytes_borrows_in_place_and_refuses_overreach() {
        let data = [1u8, 2, 3, 4, 5];
        let mut r = ByteReader::new(&data);
        assert_eq!(r.bytes(0).unwrap(), &[] as &[u8]);
        assert_eq!(r.bytes(3).unwrap(), &[1, 2, 3]);
        match r.bytes(3) {
            Err(ArtifactError::Truncated { needed, available }) => {
                assert_eq!((needed, available), (3, 2));
            }
            other => panic!("expected Truncated, got {other:?}"),
        }
        // A refused read consumes nothing.
        assert_eq!(r.bytes(2).unwrap(), &[4, 5]);
        r.finish().unwrap();
    }

    #[test]
    fn truncation_is_a_typed_error() {
        let mut w = ByteWriter::new();
        w.u64(1);
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes[..5]);
        match r.u64() {
            Err(ArtifactError::Truncated { needed, available }) => {
                assert_eq!((needed, available), (8, 5));
            }
            other => panic!("expected Truncated, got {other:?}"),
        }
    }

    #[test]
    fn oversized_slice_length_is_rejected_before_allocating() {
        let mut w = ByteWriter::new();
        w.u32(u32::MAX); // claims ~4 billion floats
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes);
        assert!(matches!(
            r.f64_slice(),
            Err(ArtifactError::Truncated { .. })
        ));
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let mut w = ByteWriter::new();
        w.u8(1);
        w.u8(2);
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes);
        let _ = r.u8().unwrap();
        assert!(matches!(r.finish(), Err(ArtifactError::Malformed(_))));
    }
}
