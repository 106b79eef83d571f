//! The gzip container (RFC 1952) around DEFLATE.
//!
//! Scientific I/O stacks frequently store zlib streams inside gzip framing
//! (HDF5 external filters, POSIX tooling); providing it makes the `zlib`
//! substitute a drop-in for the full deflate family. The implementation
//! covers the fields real encoders emit — magic, method, flags (FNAME and
//! FCOMMENT parsing included), mtime, CRC-32 and ISIZE — and rejects the
//! rest loudly.

use super::{decode, EncoderScratch, Level};
use crate::checksum::crc32;
use crate::error::{CodecError, Result};
use crate::{Codec, CodecScratch};

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

    /// Compress into a gzip member.
    pub fn compress_bytes(&self, input: &[u8]) -> Result<Vec<u8>> {
        self.compress_bytes_with(input, &mut EncoderScratch::new())
    }

    /// Compress into a gzip member, reusing `scratch` for match-finder state.
    pub fn compress_bytes_with(
        &self,
        input: &[u8],
        scratch: &mut EncoderScratch,
    ) -> Result<Vec<u8>> {
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
        super::deflate_into(input, self.level, scratch, &mut out);
        out.extend_from_slice(&crc32(input).to_le_bytes());
        out.extend_from_slice(&(input.len() as u32).to_le_bytes());
        Ok(out)
    }

    /// Decompress a gzip member, verifying CRC-32 and ISIZE.
    pub fn decompress_bytes(&self, input: &[u8]) -> Result<Vec<u8>> {
        let mut out = Vec::with_capacity(input.len().saturating_mul(3));
        self.decompress_bytes_into(input, &mut decode::InflateScratch::new(), &mut out)?;
        Ok(out)
    }

    /// Decompress a gzip member into `out` (cleared first, capacity kept),
    /// reusing `scratch` for the inflater's Huffman tables.
    fn decompress_bytes_into(
        &self,
        input: &[u8],
        scratch: &mut decode::InflateScratch,
        out: &mut Vec<u8>,
    ) -> Result<()> {
        if input.len() < 18 {
            return Err(CodecError::Truncated);
        }
        if input[0..2] != MAGIC {
            return Err(CodecError::BadMagic);
        }
        if input[2] != METHOD_DEFLATE {
            return Err(CodecError::Corrupt("gzip method is not deflate"));
        }
        let flags = input[3];
        if flags & FHCRC != 0 {
            return Err(CodecError::Corrupt("gzip FHCRC not supported"));
        }
        let mut pos = 10usize;
        if flags & FEXTRA != 0 {
            if pos + 2 > input.len() {
                return Err(CodecError::Truncated);
            }
            let xlen = u16::from_le_bytes([input[pos], input[pos + 1]]) as usize;
            pos += 2 + xlen;
            if pos > input.len() {
                return Err(CodecError::Truncated);
            }
        }
        for field in [FNAME, FCOMMENT] {
            if flags & field != 0 {
                let nul = input
                    .get(pos..)
                    .ok_or(CodecError::Truncated)?
                    .iter()
                    .position(|&b| b == 0)
                    .ok_or(CodecError::Truncated)?;
                pos += nul + 1;
            }
        }
        let _ = flags & FTEXT; // advisory only
        if pos + 8 > input.len() {
            return Err(CodecError::Truncated);
        }
        let body = &input[pos..input.len() - 8];
        out.clear();
        decode::inflate_with(body, scratch, out)?;
        let stored_crc = u32::from_le_bytes(
            crate::read_array(input, input.len() - 8).ok_or(CodecError::Truncated)?,
        );
        let stored_isize = u32::from_le_bytes(
            crate::read_array(input, input.len() - 4).ok_or(CodecError::Truncated)?,
        );
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

    /// Extract the FNAME field of a gzip member, if present.
    pub fn read_file_name(input: &[u8]) -> Result<Option<Vec<u8>>> {
        if input.len() < 10 || input[0..2] != MAGIC {
            return Err(CodecError::BadMagic);
        }
        let flags = input[3];
        if flags & FNAME == 0 {
            return Ok(None);
        }
        let mut pos = 10usize;
        if flags & FEXTRA != 0 {
            if pos + 2 > input.len() {
                return Err(CodecError::Truncated);
            }
            let xlen = u16::from_le_bytes([input[pos], input[pos + 1]]) as usize;
            pos += 2 + xlen;
        }
        let name_region = input.get(pos..).ok_or(CodecError::Truncated)?;
        let nul = name_region
            .iter()
            .position(|&b| b == 0)
            .ok_or(CodecError::Truncated)?;
        Ok(Some(name_region[..nul].to_vec()))
    }
}

impl Codec for Gzip {
    fn name(&self) -> &'static str {
        "gzip"
    }

    fn compress(&self, input: &[u8]) -> Result<Vec<u8>> {
        self.compress_bytes(input)
    }

    fn compress_with(&self, input: &[u8], scratch: &mut CodecScratch) -> Result<Vec<u8>> {
        self.compress_bytes_with(input, &mut scratch.deflate)
    }

    fn decompress(&self, input: &[u8]) -> Result<Vec<u8>> {
        self.decompress_bytes(input)
    }

    fn decompress_into(
        &self,
        input: &[u8],
        scratch: &mut CodecScratch,
        out: &mut Vec<u8>,
    ) -> Result<()> {
        self.decompress_bytes_into(input, &mut scratch.inflate, out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_plain() {
        let g = Gzip::default();
        for data in [&b""[..], b"x", b"hello hello hello hello", &[7u8; 9000]] {
            let comp = g.compress_bytes(data).unwrap();
            assert_eq!(g.decompress_bytes(&comp).unwrap(), data);
        }
    }

    #[test]
    fn header_fields_are_rfc1952() {
        let comp = Gzip::with_level(Level::Best)
            .compress_bytes(b"abc")
            .unwrap();
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
        let comp = g.compress_bytes(b"payload payload").unwrap();
        assert_eq!(
            Gzip::read_file_name(&comp).unwrap().as_deref(),
            Some(&b"checkpoint_0042.bin"[..])
        );
        assert_eq!(g.decompress_bytes(&comp).unwrap(), b"payload payload");
        // A name-less member reports None.
        let plain = Gzip::default().compress_bytes(b"x").unwrap();
        assert_eq!(Gzip::read_file_name(&plain).unwrap(), None);
    }

    #[test]
    fn nul_in_file_name_rejected() {
        let g = Gzip {
            level: Level::Default,
            file_name: Some(b"bad\0name".to_vec()),
        };
        assert!(g.compress_bytes(b"x").is_err());
    }

    #[test]
    fn crc_and_isize_guard_payload() {
        let g = Gzip::default();
        let mut comp = g.compress_bytes(&vec![3u8; 5000]).unwrap();
        let n = comp.len();
        comp[n - 6] ^= 1; // CRC byte
        assert!(g.decompress_bytes(&comp).is_err());

        let mut comp = g.compress_bytes(&vec![3u8; 5000]).unwrap();
        let n = comp.len();
        comp[n - 1] ^= 1; // ISIZE byte
        assert!(g.decompress_bytes(&comp).is_err());
    }

    #[test]
    fn rejects_foreign_magic_and_method() {
        let g = Gzip::default();
        let mut comp = g.compress_bytes(b"x").unwrap();
        comp[0] = 0x78;
        assert!(matches!(
            g.decompress_bytes(&comp),
            Err(CodecError::BadMagic)
        ));
        let mut comp = g.compress_bytes(b"x").unwrap();
        comp[2] = 7;
        assert!(g.decompress_bytes(&comp).is_err());
    }

    #[test]
    fn truncation_detected() {
        let g = Gzip::default();
        let comp = g.compress_bytes(b"some data to be framed").unwrap();
        for keep in [0usize, 5, 12, comp.len() - 4] {
            assert!(g.decompress_bytes(&comp[..keep]).is_err());
        }
    }
}
