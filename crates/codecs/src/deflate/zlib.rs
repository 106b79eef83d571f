//! The zlib container (RFC 1950): a 2-byte header, a DEFLATE stream, and a
//! big-endian Adler-32 of the uncompressed data.

use super::{decode, Level};
use crate::checksum::adler32;
use crate::error::{CodecError, Result};
use crate::{Codec, CodecScratch};

/// zlib-compatible codec: the paper's `zlib` baseline and PRIMACY's default
/// backend "solver".
#[derive(Debug, Clone, Copy)]
pub struct Zlib {
    /// Compression effort; the paper runs zlib at its default level.
    pub level: Level,
}

impl Default for Zlib {
    fn default() -> Self {
        Self {
            level: Level::Default,
        }
    }
}

impl Zlib {
    /// Codec with an explicit effort level.
    pub fn with_level(level: Level) -> Self {
        Self { level }
    }
}

impl Codec for Zlib {
    fn name(&self) -> &'static str {
        match self.level {
            Level::Fast => "zlib-1",
            Level::Default => "zlib",
            Level::Best => "zlib-9",
        }
    }

    fn compress_with(&self, input: &[u8], scratch: &mut CodecScratch) -> Result<Vec<u8>> {
        // Header + worst-case stored-block expansion + trailer, reserved up
        // front; the encoder appends the body directly (no finished-stream
        // copy, no doubling growth while it is written).
        let mut out = Vec::with_capacity(input.len() + input.len() / 250 + 70);
        // CMF: CM=8 (deflate), CINFO=7 (32K window).
        let cmf: u8 = 0x78;
        // FLG: FLEVEL names the level (RFC 1950 §2.2: 0 fastest, 2 default,
        // 3 maximum), FDICT=0, FCHECK makes (CMF<<8|FLG) % 31 == 0.
        let flevel: u8 = match self.level {
            Level::Fast => 0,
            Level::Default => 2,
            Level::Best => 3,
        };
        let mut flg: u8 = flevel << 6;
        let rem = ((u16::from(cmf) << 8) | u16::from(flg)) % 31;
        if rem != 0 {
            flg += (31 - rem) as u8;
        }
        out.push(cmf);
        out.push(flg);
        super::deflate_into(input, self.level, &mut scratch.deflate, &mut out);
        out.extend_from_slice(&adler32(input).to_be_bytes());
        Ok(out)
    }

    /// Verifies the header and the Adler-32 trailer.
    fn decompress_into(
        &self,
        input: &[u8],
        scratch: &mut CodecScratch,
        out: &mut Vec<u8>,
    ) -> Result<()> {
        if input.len() < 6 {
            return Err(CodecError::Truncated);
        }
        let cmf = input[0];
        let flg = input[1];
        if cmf & 0x0f != 8 {
            return Err(CodecError::Corrupt("zlib CM is not deflate"));
        }
        if (cmf >> 4) > 7 {
            return Err(CodecError::Corrupt("zlib window size exceeds 32K"));
        }
        if ((u16::from(cmf) << 8) | u16::from(flg)) % 31 != 0 {
            return Err(CodecError::Corrupt("zlib header check failed"));
        }
        if flg & 0x20 != 0 {
            return Err(CodecError::Corrupt("preset dictionaries not supported"));
        }
        let body = &input[2..input.len() - 4];
        out.clear();
        // A one-shot call arrives with an empty `out`; three times the
        // stream covers most plaintexts without doubling growth.
        out.reserve(input.len().saturating_mul(3));
        decode::inflate_with(body, &mut scratch.inflate, out)?;
        let stored = u32::from_be_bytes(crate::read_array(input, input.len() - 4)?);
        let actual = adler32(out);
        if stored != actual {
            return Err(CodecError::ChecksumMismatch {
                expected: stored,
                actual,
            });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn header_is_standard_78_9c() {
        let out = Zlib::default().compress(b"x").unwrap();
        assert_eq!(out[0], 0x78);
        assert_eq!(out[1], 0x9c);
        // FLEVEL follows the level, as zlib's own `-1` and `-9` write it.
        for (level, flg) in [(Level::Fast, 0x01), (Level::Best, 0xda)] {
            let out = Zlib::with_level(level).compress(b"x").unwrap();
            assert_eq!(out[..2], [0x78, flg], "{level:?}");
        }
    }

    #[test]
    fn roundtrip_texts() {
        let z = Zlib::default();
        for data in [
            &b""[..],
            b"a",
            b"hello world hello world hello world",
            &[0u8; 5000][..],
        ] {
            let comp = z.compress(data).unwrap();
            assert_eq!(z.decompress(&comp).unwrap(), data);
        }
    }

    #[test]
    fn detects_payload_corruption() {
        let z = Zlib::default();
        let mut comp = z.compress(&vec![3u8; 10_000]).unwrap();
        // Flip a bit somewhere in the deflate body.
        let mid = comp.len() / 2;
        comp[mid] ^= 0x10;
        assert!(z.decompress(&comp).is_err());
    }

    #[test]
    fn detects_trailer_corruption() {
        let z = Zlib::default();
        let mut comp = z.compress(b"check the adler trailer").unwrap();
        let n = comp.len();
        comp[n - 1] ^= 0xff;
        assert!(matches!(
            z.decompress(&comp),
            Err(CodecError::ChecksumMismatch { .. })
        ));
    }

    #[test]
    fn rejects_bad_header() {
        let z = Zlib::default();
        assert!(z.decompress(&[0x79, 0x9c, 0, 0, 0, 1]).is_err());
        assert!(z.decompress(&[0x78]).is_err());
    }

    #[test]
    fn levels_trade_ratio_for_speed() {
        // On repetitive data, Best must not be worse than Fast.
        let data: Vec<u8> = (0..200_000u32).map(|i| ((i / 50) % 251) as u8).collect();
        let fast = Zlib::with_level(Level::Fast).compress(&data).unwrap();
        let best = Zlib::with_level(Level::Best).compress(&data).unwrap();
        assert!(best.len() <= fast.len());
        assert_eq!(Zlib::default().decompress(&fast).unwrap(), data);
        assert_eq!(Zlib::default().decompress(&best).unwrap(), data);
    }
}
