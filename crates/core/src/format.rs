//! The PRIMACY container format.
//!
//! A compressed stream is fully self-describing: the header echoes the
//! layout parameters, every chunk carries (or references) its ID index and
//! ISOBAR mask, and a CRC-32 of the original data closes the stream.
//!
//! Both containers open with the same 9-byte layout prefix, told apart by
//! their magic ([`MAGIC`] for streams, [`ARCHIVE_MAGIC`] for archives);
//! [`write_layout`] and [`read_layout`] are its one codec.
//!
//! ```text
//! "PRIM" | version u8 | element_size u8 | hi_bytes u8 | linearization u8 |
//! codec u8 | varint total_elements |
//!   chunk*:
//!     varint n_elements | flags u8 |
//!     [flags&1: varint k | k·hi_bytes index bytes] |
//!     varint hi_len | hi-compressed bytes |
//!     u16-le isobar mask |
//!     varint lo_len | lo-compressed bytes |
//!     raw incompressible bytes (n · #unset-mask-columns)
//! | crc32-le(original bytes)
//! ```
#![warn(clippy::indexing_slicing)]

use crate::config::{Linearization, PrimacyConfig};
use crate::error::{PrimacyError, Result};
use primacy_codecs::{read_array, read_varint, write_varint, CodecError, CodecKind};

/// Stream magic.
pub const MAGIC: &[u8; 4] = b"PRIM";
/// Archive magic ([`crate::archive`]); the archive footer ends with it too.
pub const ARCHIVE_MAGIC: &[u8; 4] = b"PRMA";
/// Current format version of both containers.
pub const VERSION: u8 = 1;
/// Bytes in the layout prefix (magic, version and four layout bytes).
pub const LAYOUT_LEN: usize = 9;

/// Chunk flag: chunk carries its own index (vs. reusing the previous one).
pub const FLAG_OWN_INDEX: u8 = 0b0000_0001;

/// Encode a codec kind as a stream byte.
pub fn codec_to_byte(kind: CodecKind) -> u8 {
    match kind {
        CodecKind::Zlib => 0,
        CodecKind::Lzr => 1,
        CodecKind::Bwt => 2,
        CodecKind::Fpc => 3,
        CodecKind::Fpz => 4,
    }
}

/// Decode a codec byte.
pub fn codec_from_byte(b: u8) -> Result<CodecKind> {
    Ok(match b {
        0 => CodecKind::Zlib,
        1 => CodecKind::Lzr,
        2 => CodecKind::Bwt,
        3 => CodecKind::Fpc,
        4 => CodecKind::Fpz,
        _ => return Err(PrimacyError::Format("unknown codec byte")),
    })
}

/// Encode a linearization as a stream byte.
pub fn linearization_to_byte(l: Linearization) -> u8 {
    match l {
        Linearization::Row => 0,
        Linearization::Column => 1,
    }
}

/// Decode a linearization byte.
pub fn linearization_from_byte(b: u8) -> Result<Linearization> {
    Ok(match b {
        0 => Linearization::Row,
        1 => Linearization::Column,
        _ => return Err(PrimacyError::Format("unknown linearization byte")),
    })
}

/// Decoded stream header.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Header {
    /// Bytes per element.
    pub element_size: usize,
    /// High-order bytes per element.
    pub hi_bytes: usize,
    /// ID-matrix layout.
    pub linearization: Linearization,
    /// Backend codec.
    pub codec: CodecKind,
    /// Total element count in the stream.
    pub total_elements: u64,
}

impl Header {
    /// The header `config` writes for `total_elements` elements.
    pub fn new(config: &PrimacyConfig, total_elements: u64) -> Self {
        Self {
            element_size: config.element_size,
            hi_bytes: config.hi_bytes,
            linearization: config.linearization,
            codec: config.codec,
            total_elements,
        }
    }
}

/// Write the layout prefix under `magic`: every field of `h` except its
/// element count, which each container records its own way.
pub fn write_layout(out: &mut Vec<u8>, magic: &[u8; 4], h: &Header) {
    out.extend_from_slice(magic);
    out.extend([
        VERSION,
        h.element_size as u8,
        h.hi_bytes as u8,
        linearization_to_byte(h.linearization),
        codec_to_byte(h.codec),
    ]);
}

/// Parse and validate the layout prefix under `magic`. The returned header's
/// `total_elements` is 0; the caller reads its container's own count.
pub fn read_layout(input: &[u8], magic: &[u8; 4]) -> Result<Header> {
    let head: [u8; LAYOUT_LEN] = read_array(input, 0)
        .map_err(|_| PrimacyError::Format("input shorter than layout header"))?;
    let [m0, m1, m2, m3, version, es, hi, lin, codec_byte] = head;
    if [m0, m1, m2, m3] != *magic {
        return Err(PrimacyError::Format("bad magic"));
    }
    if version != VERSION {
        return Err(PrimacyError::UnsupportedVersion(version));
    }
    let element_size = es as usize;
    let hi_bytes = hi as usize;
    if element_size == 0
        || element_size > 16
        || hi_bytes == 0
        || hi_bytes > 2
        || hi_bytes >= element_size
    {
        return Err(PrimacyError::Format("implausible layout parameters"));
    }
    Ok(Header {
        element_size,
        hi_bytes,
        linearization: linearization_from_byte(lin)?,
        codec: codec_from_byte(codec_byte)?,
        total_elements: 0,
    })
}

/// Write the stream header: the layout prefix, then the element count.
pub fn write_header(out: &mut Vec<u8>, h: &Header) {
    write_layout(out, MAGIC, h);
    write_varint(out, h.total_elements);
}

/// Parse the stream header; returns the header and the offset of the first
/// chunk.
pub fn read_header(input: &[u8]) -> Result<(Header, usize)> {
    let mut header = read_layout(input, MAGIC)?;
    let (total_elements, used) =
        read_varint(input.get(LAYOUT_LEN..).unwrap_or(&[])).map_err(varint_error)?;
    header.total_elements = total_elements;
    // A varint never exceeds 10 bytes, so the sum is exact.
    Ok((header, LAYOUT_LEN.saturating_add(used)))
}

/// This crate's error for a varint the codecs crate's reader rejected.
fn varint_error(e: CodecError) -> PrimacyError {
    PrimacyError::Format(match e {
        CodecError::Truncated => "truncated varint",
        _ => "varint overflow",
    })
}

/// Cursor over the chunk section of a stream.
#[derive(Debug)]
pub struct Reader<'a> {
    input: &'a [u8],
    /// Current offset.
    pub pos: usize,
    /// End of the chunk section (start of the CRC trailer).
    pub end: usize,
}

impl<'a> Reader<'a> {
    /// Cursor from `pos` to `end`. An inverted range is clamped so every
    /// accessor reports truncation instead of panicking on a bad directory.
    pub fn new(input: &'a [u8], pos: usize, end: usize) -> Self {
        let end = end.min(input.len()).max(pos.min(input.len()));
        let pos = pos.min(end);
        Self { input, pos, end }
    }

    /// Remaining bytes in the chunk section.
    pub fn remaining(&self) -> usize {
        self.end.saturating_sub(self.pos)
    }

    /// Read one varint.
    pub fn varint(&mut self) -> Result<u64> {
        let window = self.input.get(self.pos..self.end).unwrap_or(&[]);
        let (v, used) = read_varint(window).map_err(varint_error)?;
        // used is bounded by the window length, so pos stays within end.
        self.pos = self.pos.saturating_add(used);
        Ok(v)
    }

    /// Read one byte.
    pub fn byte(&mut self) -> Result<u8> {
        if self.pos >= self.end {
            return Err(PrimacyError::Format("unexpected end of stream"));
        }
        let b = self
            .input
            .get(self.pos)
            .copied()
            .ok_or(PrimacyError::Format("unexpected end of stream"))?;
        self.pos += 1;
        Ok(b)
    }

    /// Read a little-endian u16.
    pub fn u16_le(&mut self) -> Result<u16> {
        let end = self
            .pos
            .checked_add(2)
            .filter(|&e| e <= self.end)
            .ok_or(PrimacyError::Format("unexpected end of stream"))?;
        let v = u16::from_le_bytes(
            read_array(self.input, self.pos)
                .map_err(|_| PrimacyError::Format("unexpected end of stream"))?,
        );
        self.pos = end;
        Ok(v)
    }

    /// Borrow `len` bytes.
    pub fn bytes(&mut self, len: usize) -> Result<&'a [u8]> {
        // `len` comes straight from an attacker-controllable varint: use
        // checked arithmetic so oversized claims error instead of wrapping
        // into a panicking slice.
        let end = self
            .pos
            .checked_add(len)
            .ok_or(PrimacyError::Format("section length overflows"))?;
        if end > self.end {
            return Err(PrimacyError::Format("chunk section truncated"));
        }
        let s = self
            .input
            .get(self.pos..end)
            .ok_or(PrimacyError::Format("chunk section truncated"))?;
        self.pos = end;
        Ok(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_header() -> Header {
        Header {
            element_size: 8,
            hi_bytes: 2,
            linearization: Linearization::Column,
            codec: CodecKind::Zlib,
            total_elements: 123_456,
        }
    }

    #[test]
    fn header_roundtrip() {
        let mut buf = Vec::new();
        write_header(&mut buf, &sample_header());
        let (h, off) = read_header(&buf).unwrap();
        assert_eq!(h, sample_header());
        assert_eq!(off, buf.len());
    }

    #[test]
    fn header_rejects_bad_magic_version_layout() {
        let mut buf = Vec::new();
        write_header(&mut buf, &sample_header());

        let mut bad = buf.clone();
        bad[0] = b'X';
        assert!(read_header(&bad).is_err());

        let mut bad = buf.clone();
        bad[4] = 99;
        assert!(matches!(
            read_header(&bad),
            Err(PrimacyError::UnsupportedVersion(99))
        ));

        let mut bad = buf.clone();
        bad[5] = 0; // element_size 0
        assert!(read_header(&bad).is_err());

        let mut bad = buf.clone();
        bad[6] = 8; // hi_bytes 8 >= element_size
        assert!(read_header(&bad).is_err());

        assert!(read_header(&buf[..5]).is_err());
    }

    #[test]
    fn codec_bytes_roundtrip() {
        for kind in CodecKind::ALL {
            assert_eq!(codec_from_byte(codec_to_byte(kind)).unwrap(), kind);
        }
        assert!(codec_from_byte(250).is_err());
    }

    #[test]
    fn linearization_bytes_roundtrip() {
        for l in [Linearization::Row, Linearization::Column] {
            assert_eq!(
                linearization_from_byte(linearization_to_byte(l)).unwrap(),
                l
            );
        }
        assert!(linearization_from_byte(7).is_err());
    }

    #[test]
    fn reader_primitives() {
        let mut buf = Vec::new();
        write_varint(&mut buf, 300);
        buf.push(0xAB);
        buf.extend_from_slice(&0x1234u16.to_le_bytes());
        buf.extend_from_slice(b"payload");
        let mut r = Reader::new(&buf, 0, buf.len());
        assert_eq!(r.varint().unwrap(), 300);
        assert_eq!(r.byte().unwrap(), 0xAB);
        assert_eq!(r.u16_le().unwrap(), 0x1234);
        assert_eq!(r.bytes(7).unwrap(), b"payload");
        assert_eq!(r.remaining(), 0);
        assert!(r.byte().is_err());
        assert!(r.bytes(1).is_err());
    }
}
