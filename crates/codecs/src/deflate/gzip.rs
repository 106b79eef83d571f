//! The gzip container (RFC 1952) around DEFLATE.
//!
//! Scientific I/O stacks frequently store zlib streams inside gzip framing
//! (HDF5 external filters, POSIX tooling); providing it makes the `zlib`
//! substitute a drop-in for the full deflate family. The implementation
//! covers the fields real encoders emit — magic, method, flags (FNAME and
//! FCOMMENT parsing included), mtime, CRC-32 and ISIZE — and rejects the
//! rest loudly.

use super::{decode, Level};
use crate::checksum::crc32;
use crate::error::{CodecError, Result};
use crate::{Codec, CodecScratch};
use std::ops::Range;

const MAGIC: [u8; 2] = [0x1f, 0x8b];
const METHOD_DEFLATE: u8 = 8;

const FTEXT: u8 = 1 << 0;
const FHCRC: u8 = 1 << 1;
const FEXTRA: u8 = 1 << 2;
const FNAME: u8 = 1 << 3;
const FCOMMENT: u8 = 1 << 4;

/// gzip-compatible codec.
#[derive(Debug, Clone, Default)]
pub struct Gzip {
    /// Compression effort.
    pub level: Level,
    /// Optional original-file-name header field (NUL-free Latin-1 in real
    /// gzip; enforced as NUL-free bytes here).
    pub file_name: Option<Vec<u8>>,
}

impl Gzip {
    /// Codec with an explicit effort level.
    pub fn with_level(level: Level) -> Self {
        Self {
            level,
            file_name: None,
        }
    }

    /// Extract the FNAME field of a gzip member, if present.
    pub fn read_file_name(input: &[u8]) -> Result<Option<Vec<u8>>> {
        let (name, _) = walk_header(input)?;
        Ok(name.and_then(|range| input.get(range)).map(<[u8]>::to_vec))
    }
}

/// Walk a member's fixed header and its optional FEXTRA, FNAME and FCOMMENT
/// fields: the range of the FNAME bytes (NUL excluded), if present, and the
/// offset just past the optional fields, where the DEFLATE body starts.
fn walk_header(input: &[u8]) -> Result<(Option<Range<usize>>, usize)> {
    if input.len() < 10 || input[0..2] != MAGIC {
        return Err(CodecError::BadMagic);
    }
    let flags = input[3];
    let mut pos = 10usize;
    if flags & FEXTRA != 0 {
        let xlen = u16::from_le_bytes(crate::read_array(input, pos)?);
        pos += 2 + xlen as usize;
    }
    let mut name = None;
    for field in [FNAME, FCOMMENT] {
        if flags & field != 0 {
            let nul = input
                .get(pos..)
                .ok_or(CodecError::Truncated)?
                .iter()
                .position(|&b| b == 0)
                .ok_or(CodecError::Truncated)?;
            if field == FNAME {
                name = Some(pos..pos + nul);
            }
            pos += nul + 1;
        }
    }
    Ok((name, pos))
}

impl Codec for Gzip {
    fn name(&self) -> &'static str {
        "gzip"
    }

    fn compress_with(&self, input: &[u8], scratch: &mut CodecScratch) -> Result<Vec<u8>> {
        let mut out = Vec::with_capacity(input.len() / 2 + 32);
        out.extend_from_slice(&MAGIC);
        out.push(METHOD_DEFLATE);
        let mut flags = 0u8;
        if let Some(name) = &self.file_name {
            if name.contains(&0) {
                return Err(CodecError::InvalidParameter(
                    "gzip file name must not contain NUL",
                ));
            }
            flags |= FNAME;
        }
        out.push(flags);
        out.extend_from_slice(&0u32.to_le_bytes()); // MTIME: unset
                                                    // XFL: 2 = max compression, 4 = fastest.
        out.push(match self.level {
            Level::Fast => 4,
            Level::Default => 0,
            Level::Best => 2,
        });
        out.push(255); // OS: unknown
        if let Some(name) = &self.file_name {
            out.extend_from_slice(name);
            out.push(0);
        }
        super::deflate_into(input, self.level, &mut scratch.deflate, &mut out);
        out.extend_from_slice(&crc32(input).to_le_bytes());
        out.extend_from_slice(&(input.len() as u32).to_le_bytes());
        Ok(out)
    }

    /// Verifies the CRC-32 and ISIZE trailer.
    fn decompress_into(
        &self,
        input: &[u8],
        scratch: &mut CodecScratch,
        out: &mut Vec<u8>,
    ) -> Result<()> {
        if input.len() < 18 {
            return Err(CodecError::Truncated);
        }
        let (_, pos) = walk_header(input)?;
        if input[2] != METHOD_DEFLATE {
            return Err(CodecError::Corrupt("gzip method is not deflate"));
        }
        let flags = input[3];
        if flags & FHCRC != 0 {
            return Err(CodecError::Corrupt("gzip FHCRC not supported"));
        }
        let _ = flags & FTEXT; // advisory only
        if pos + 8 > input.len() {
            return Err(CodecError::Truncated);
        }
        let body = &input[pos..input.len() - 8];
        out.clear();
        // As in `Zlib`: room for a typical plaintext up front.
        out.reserve(input.len().saturating_mul(3));
        decode::inflate_with(body, &mut scratch.inflate, out)?;
        let stored_crc = u32::from_le_bytes(crate::read_array(input, input.len() - 8)?);
        let stored_isize = u32::from_le_bytes(crate::read_array(input, input.len() - 4)?);
        let actual = crc32(out);
        if stored_crc != actual {
            return Err(CodecError::ChecksumMismatch {
                expected: stored_crc,
                actual,
            });
        }
        if stored_isize != out.len() as u32 {
            return Err(CodecError::LengthMismatch {
                expected: stored_isize as usize,
                actual: out.len(),
            });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_plain() {
        let g = Gzip::default();
        for data in [&b""[..], b"x", b"hello hello hello hello", &[7u8; 9000]] {
            let comp = g.compress(data).unwrap();
            assert_eq!(g.decompress(&comp).unwrap(), data);
        }
    }

    #[test]
    fn header_fields_are_rfc1952() {
        let comp = Gzip::with_level(Level::Best).compress(b"abc").unwrap();
        assert_eq!(&comp[0..2], &[0x1f, 0x8b]);
        assert_eq!(comp[2], 8); // deflate
        assert_eq!(comp[8], 2); // XFL: max compression
        assert_eq!(comp[9], 255); // OS: unknown
                                  // Trailer: ISIZE == 3.
        assert_eq!(
            u32::from_le_bytes(comp[comp.len() - 4..].try_into().unwrap()),
            3
        );
    }

    #[test]
    fn file_name_roundtrip() {
        let g = Gzip {
            level: Level::Default,
            file_name: Some(b"checkpoint_0042.bin".to_vec()),
        };
        let comp = g.compress(b"payload payload").unwrap();
        assert_eq!(
            Gzip::read_file_name(&comp).unwrap().as_deref(),
            Some(&b"checkpoint_0042.bin"[..])
        );
        assert_eq!(g.decompress(&comp).unwrap(), b"payload payload");
        // A name-less member reports None.
        let plain = Gzip::default().compress(b"x").unwrap();
        assert_eq!(Gzip::read_file_name(&plain).unwrap(), None);
    }

    #[test]
    fn nul_in_file_name_rejected() {
        let g = Gzip {
            level: Level::Default,
            file_name: Some(b"bad\0name".to_vec()),
        };
        assert!(g.compress(b"x").is_err());
    }

    #[test]
    fn crc_and_isize_guard_payload() {
        let g = Gzip::default();
        let mut comp = g.compress(&vec![3u8; 5000]).unwrap();
        let n = comp.len();
        comp[n - 6] ^= 1; // CRC byte
        assert!(g.decompress(&comp).is_err());

        let mut comp = g.compress(&vec![3u8; 5000]).unwrap();
        let n = comp.len();
        comp[n - 1] ^= 1; // ISIZE byte
        assert!(g.decompress(&comp).is_err());
    }

    #[test]
    fn rejects_foreign_magic_and_method() {
        let g = Gzip::default();
        let mut comp = g.compress(b"x").unwrap();
        comp[0] = 0x78;
        assert!(matches!(g.decompress(&comp), Err(CodecError::BadMagic)));
        let mut comp = g.compress(b"x").unwrap();
        comp[2] = 7;
        assert!(g.decompress(&comp).is_err());
    }

    #[test]
    fn truncation_detected() {
        let g = Gzip::default();
        let comp = g.compress(b"some data to be framed").unwrap();
        for keep in [0usize, 5, 12, comp.len() - 4] {
            assert!(g.decompress(&comp[..keep]).is_err());
        }
    }
}
