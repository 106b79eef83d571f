//! LZR — a byte-oriented LZ codec in the `lzo` speed class.
//!
//! The PRIMACY paper uses `lzo` as its "very fast, nearly no compression"
//! baseline. LZR reproduces that profile with the classic single-probe
//! hash-table design (the same family as LZO1X and LZ4): a 16-bit hash over
//! the next four bytes indexes the most recent occurrence; on a 4-byte match
//! the sequence is emitted as `(literal run, match)` pairs with a token byte
//! whose high nibble counts literals and low nibble counts match length, each
//! nibble extended by 255-saturated continuation bytes.
//!
//! Stream layout:
//! `magic "LZR1" | varint uncompressed_len | sequences… | crc32(uncompressed)`

use crate::checksum::crc32;
use crate::error::{CodecError, Result};
use crate::{read_varint, write_varint, Codec, CodecScratch};

const MAGIC: &[u8; 4] = b"LZR1";
const MIN_MATCH: usize = 4;
const HASH_BITS: u32 = 16;
const HASH_SIZE: usize = 1 << HASH_BITS;
/// Window bound; offsets are stored in two bytes.
const MAX_OFFSET: usize = 65_535;

#[inline]
fn hash4(data: &[u8], i: usize) -> usize {
    // Callers guarantee i + 4 <= data.len(); a zero hash on a (impossible)
    // short read only costs one missed match, never a panic.
    let v = crate::read_array(data, i).map_or(0, u32::from_le_bytes);
    (v.wrapping_mul(0x9E37_79B1) >> (32 - HASH_BITS)) as usize
}

/// The codec object. LZR has no tuning parameters; construction is free.
#[derive(Debug, Clone, Copy, Default)]
pub struct Lzr;

fn write_extended(out: &mut Vec<u8>, mut v: usize) {
    while v >= 255 {
        out.push(255);
        v -= 255;
    }
    out.push(v as u8);
}

fn compress_body(input: &[u8], out: &mut Vec<u8>) {
    let n = input.len();
    if n == 0 {
        return;
    }
    let mut table = vec![u32::MAX; HASH_SIZE];
    let mut i = 0usize;
    let mut literal_start = 0usize;
    // Stop probing once fewer than MIN_MATCH + 1 bytes remain so the final
    // sequence is literal-only (mirrors LZ4's end condition).
    let probe_limit = n.saturating_sub(MIN_MATCH + 1);
    while i < probe_limit {
        let h = hash4(input, i);
        // lint: allow(index) -- hash4 masks h below HASH_SIZE == table.len()
        let cand = table[h];
        // lint: allow(index) -- hash4 masks h below HASH_SIZE == table.len()
        table[h] = i as u32;
        let matched = cand != u32::MAX && {
            let c = cand as usize;
            // lint: allow(index) -- encoder-owned input; c < i < probe_limit leaves 4 readable bytes
            i - c <= MAX_OFFSET && input[c..c + 4] == input[i..i + 4]
        };
        if !matched {
            i += 1;
            continue;
        }
        let c = cand as usize;
        // Extend the match forward: count the equal prefix beyond the
        // verified MIN_MATCH bytes (the candidate side may overlap `i`).
        let extra = input
            .get(c + MIN_MATCH..)
            .unwrap_or(&[])
            .iter()
            .zip(input.get(i + MIN_MATCH..).unwrap_or(&[]))
            .take_while(|(a, b)| a == b)
            .count();
        let len = MIN_MATCH + extra;
        // lint: allow(index) -- encoder-owned input; literal_start <= i <= n by construction
        emit_sequence(out, &input[literal_start..i], len - MIN_MATCH, i - c);
        i = i.saturating_add(len);
        literal_start = i;
    }
    // Trailing literals: token with match nibble 0 and no offset.
    let lits = input.get(literal_start..).unwrap_or(&[]);
    let lit_len = lits.len();
    let token = if lit_len >= 15 {
        0xF0
    } else {
        (lit_len as u8) << 4
    };
    out.push(token);
    if lit_len >= 15 {
        write_extended(out, lit_len - 15);
    }
    out.extend_from_slice(lits);
}

fn emit_sequence(out: &mut Vec<u8>, literals: &[u8], match_extra: usize, offset: usize) {
    let lit_len = literals.len();
    let lit_nibble = lit_len.min(15) as u8;
    // Match nibble values 1..=15 encode extra lengths 0..=14; value 15 also
    // signals continuation bytes. 0 is reserved for the literal-only tail.
    let match_code = match_extra + 1;
    let match_nibble = match_code.min(15) as u8;
    out.push((lit_nibble << 4) | match_nibble);
    if lit_len >= 15 {
        write_extended(out, lit_len - 15);
    }
    out.extend_from_slice(literals);
    out.extend_from_slice(&(offset as u16).to_le_bytes());
    if match_code >= 15 {
        write_extended(out, match_code - 15);
    }
}

fn read_extended(body: &[u8], pos: &mut usize) -> Result<usize> {
    let mut total = 0usize;
    loop {
        let b = *body.get(*pos).ok_or(CodecError::Truncated)?;
        *pos += 1;
        // The byte run is attacker-length: saturate rather than wrap; an
        // absurd total then fails the downstream range checks.
        total = total.saturating_add(b as usize);
        if b != 255 {
            return Ok(total);
        }
    }
}

/// Decode the sequences of `body` into `out` (cleared first), which must
/// come to exactly `orig_len` bytes.
fn decompress_body(body: &[u8], orig_len: usize, out: &mut Vec<u8>) -> Result<()> {
    out.clear();
    out.reserve(crate::clamped_capacity(orig_len as u64));
    let mut pos = 0usize;
    if orig_len == 0 {
        return Ok(());
    }
    loop {
        let token = *body.get(pos).ok_or(CodecError::Truncated)?;
        pos += 1;
        let mut lit_len = (token >> 4) as usize;
        if lit_len == 15 {
            lit_len = lit_len.saturating_add(read_extended(body, &mut pos)?);
        }
        let lit_end = pos.checked_add(lit_len).ok_or(CodecError::Truncated)?;
        let literals = body.get(pos..lit_end).ok_or(CodecError::Truncated)?;
        out.extend_from_slice(literals);
        pos = lit_end;
        let match_code = (token & 0x0f) as usize;
        if match_code == 0 {
            // Literal-only tail sequence terminates the stream.
            break;
        }
        let offset = u16::from_le_bytes(crate::read_array(body, pos)?) as usize;
        pos += 2;
        let mut match_len = match_code - 1 + MIN_MATCH;
        if match_code == 15 {
            match_len = match_len.saturating_add(read_extended(body, &mut pos)?);
        }
        if offset == 0 || offset > out.len() {
            return Err(CodecError::Corrupt("lzr offset out of range"));
        }
        // Copy in doubling passes so the self-overlapping case
        // (offset < match_len) needs no per-byte indexing.
        let start = out.len() - offset;
        out.reserve(match_len);
        let mut remaining = match_len;
        while remaining > 0 {
            let avail = out.len() - start;
            let chunk = avail.min(remaining);
            out.extend_from_within(start..start.saturating_add(chunk));
            remaining -= chunk;
        }
        if out.len() > orig_len {
            return Err(CodecError::LengthMismatch {
                expected: orig_len,
                actual: out.len(),
            });
        }
    }
    if out.len() != orig_len {
        return Err(CodecError::LengthMismatch {
            expected: orig_len,
            actual: out.len(),
        });
    }
    Ok(())
}

/// LZR keeps no state between calls, so both methods ignore `scratch`.
impl Codec for Lzr {
    fn name(&self) -> &'static str {
        "lzr"
    }

    fn compress_with(&self, input: &[u8], _scratch: &mut CodecScratch) -> Result<Vec<u8>> {
        let mut out = Vec::with_capacity(input.len() / 2 + 32);
        out.extend_from_slice(MAGIC);
        write_varint(&mut out, input.len() as u64);
        compress_body(input, &mut out);
        out.extend_from_slice(&crc32(input).to_le_bytes());
        Ok(out)
    }

    fn decompress_into(
        &self,
        input: &[u8],
        _scratch: &mut CodecScratch,
        out: &mut Vec<u8>,
    ) -> Result<()> {
        if input.len() < MAGIC.len() + 4 {
            return Err(CodecError::Truncated);
        }
        if input.get(..4) != Some(MAGIC.as_slice()) {
            return Err(CodecError::BadMagic);
        }
        let (orig_len, used) = read_varint(input.get(4..).unwrap_or(&[]))?;
        // A varint long enough to overlap the CRC trailer inverts this
        // range; `get` turns that into a typed error instead of a panic.
        let body = input
            .get(4usize.saturating_add(used)..input.len() - 4)
            .ok_or(CodecError::Truncated)?;
        decompress_body(body, orig_len as usize, out)?;
        let stored = u32::from_le_bytes(crate::read_array(input, input.len() - 4)?);
        let actual = crc32(out);
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

    fn roundtrip(data: &[u8]) {
        let lzr = Lzr;
        let comp = lzr.compress(data).unwrap();
        assert_eq!(lzr.decompress(&comp).unwrap(), data);
    }

    #[test]
    fn roundtrip_assorted_inputs() {
        roundtrip(b"");
        roundtrip(b"a");
        roundtrip(b"abcd");
        roundtrip(b"abcde");
        roundtrip(&b"tobeornottobetobeornottobe".repeat(10));
        roundtrip(&vec![0u8; 100_000]);
    }

    #[test]
    fn roundtrip_random_data() {
        let mut x = 42u64;
        let data: Vec<u8> = (0..65_537)
            .map(|_| {
                x = x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
                (x >> 33) as u8
            })
            .collect();
        roundtrip(&data);
    }

    #[test]
    fn compresses_runs_heavily() {
        let data = vec![7u8; 1_000_000];
        let comp = Lzr.compress(&data).unwrap();
        assert!(comp.len() < 5000, "run compressed to {} bytes", comp.len());
    }

    #[test]
    fn bounded_expansion_on_random_data() {
        let mut x = 7u64;
        let data: Vec<u8> = (0..100_000)
            .map(|_| {
                x = x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
                (x >> 33) as u8
            })
            .collect();
        let comp = Lzr.compress(&data).unwrap();
        // Worst case is ~ one token per 255 literals plus framing.
        assert!(comp.len() < data.len() + data.len() / 200 + 64);
    }

    #[test]
    fn long_match_uses_extension_bytes() {
        // 16 distinct bytes, then the same 16 repeated many times: produces a
        // match far longer than the nibble can hold.
        let unit: Vec<u8> = (0..16).collect();
        let mut data = unit.clone();
        for _ in 0..200 {
            data.extend_from_slice(&unit);
        }
        roundtrip(&data);
    }

    #[test]
    fn rejects_corruption() {
        let data = b"payload payload payload payload".repeat(8);
        let mut comp = Lzr.compress(&data).unwrap();
        let mid = comp.len() / 2;
        comp[mid] ^= 0x81;
        assert!(Lzr.decompress(&comp).is_err());
    }

    #[test]
    fn rejects_bad_magic_and_truncation() {
        let comp = Lzr.compress(b"hello").unwrap();
        let mut bad = comp.clone();
        bad[0] = b'X';
        assert!(matches!(Lzr.decompress(&bad), Err(CodecError::BadMagic)));
        assert!(Lzr.decompress(&comp[..3]).is_err());
    }

    #[test]
    fn offsets_never_exceed_window() {
        // Marker repeats 70K apart — farther than MAX_OFFSET, so it must be
        // emitted as literals, and the stream must still roundtrip.
        let mut data = vec![0x11u8; 80_000];
        for (i, b) in b"0123456789abcdef".iter().enumerate() {
            data[i] = *b;
            data[70_000 + i] = *b;
        }
        roundtrip(&data);
    }
}
