//! DEFLATE (RFC 1951) and the zlib container (RFC 1950), from scratch.
//!
//! The compressor is a classic zlib-style design: LZ77 with hash-chain match
//! finding and optional lazy evaluation ([`lz77`]), followed by per-block
//! entropy coding that picks the cheapest of stored / fixed-Huffman /
//! dynamic-Huffman encodings ([`encode`]). The decompressor ([`decode`]) is a
//! complete inflater. [`Zlib`] wraps both in the RFC 1950 container with an
//! Adler-32 trailer and implements [`crate::Codec`] — this is the `zlib`
//! baseline of the PRIMACY paper and the default solver behind the
//! preconditioner.

/// Inflate: block and stream decoding.
pub mod decode;
/// Deflate: block and stream encoding.
pub mod encode;
mod gzip;
/// LZ77 match finding shared by the encoder.
pub mod lz77;
mod zlib;

pub use decode::InflateScratch;
pub use gzip::Gzip;
pub use lz77::EncoderScratch;
pub use zlib::Zlib;

use crate::error::Result;

/// Maximum LZ77 back-reference distance (the DEFLATE window).
pub const WINDOW_SIZE: usize = 32 * 1024;
/// Shortest representable match.
pub const MIN_MATCH: usize = 3;
/// Longest representable match.
pub const MAX_MATCH: usize = 258;
/// End-of-block symbol in the literal/length alphabet.
pub const END_OF_BLOCK: u16 = 256;
/// Size of the literal/length alphabet (288 includes two reserved codes).
pub const NUM_LITLEN: usize = 288;
/// Size of the distance alphabet (30 used + 2 reserved).
pub const NUM_DIST: usize = 30;
/// Size of the code-length alphabet used to compress the dynamic header.
pub const NUM_CODELEN: usize = 19;

/// Base match length for each length code `257 + i`.
pub const LENGTH_BASE: [u16; 29] = [
    3, 4, 5, 6, 7, 8, 9, 10, 11, 13, 15, 17, 19, 23, 27, 31, 35, 43, 51, 59, 67, 83, 99, 115, 131,
    163, 195, 227, 258,
];
/// Extra bits carried by each length code.
pub const LENGTH_EXTRA: [u8; 29] = [
    0, 0, 0, 0, 0, 0, 0, 0, 1, 1, 1, 1, 2, 2, 2, 2, 3, 3, 3, 3, 4, 4, 4, 4, 5, 5, 5, 5, 0,
];
/// Base distance for each distance code.
pub const DIST_BASE: [u16; 30] = [
    1, 2, 3, 4, 5, 7, 9, 13, 17, 25, 33, 49, 65, 97, 129, 193, 257, 385, 513, 769, 1025, 1537,
    2049, 3073, 4097, 6145, 8193, 12289, 16385, 24577,
];
/// Extra bits carried by each distance code.
pub const DIST_EXTRA: [u8; 30] = [
    0, 0, 0, 0, 1, 1, 2, 2, 3, 3, 4, 4, 5, 5, 6, 6, 7, 7, 8, 8, 9, 9, 10, 10, 11, 11, 12, 12, 13,
    13,
];
/// Transmission order of the code-length code lengths (RFC 1951 §3.2.7).
pub const CODELEN_ORDER: [usize; 19] = [
    16, 17, 18, 0, 8, 7, 9, 6, 10, 5, 11, 4, 12, 3, 13, 2, 14, 1, 15,
];

/// Map a match length (3..=258) to `(length_code_index, extra_bits, extra_value)`.
#[inline]
pub fn length_code(len: usize) -> (u16, u8, u16) {
    debug_assert!((MIN_MATCH..=MAX_MATCH).contains(&len));
    if len == MAX_MATCH {
        return (28, 0, 0);
    }
    let l = (len - MIN_MATCH) as u32;
    if l < 8 {
        return (l as u16, 0, 0);
    }
    let e = (31 - l.leading_zeros()) - 2;
    let code = 4 * (e + 1) + ((l >> e) & 3);
    let base = u32::from(LENGTH_BASE[code as usize]);
    (
        code as u16,
        LENGTH_EXTRA[code as usize],
        (len as u32 - base) as u16,
    )
}

/// Map a match distance (1..=32768) to `(dist_code_index, extra_bits, extra_value)`.
#[inline]
pub fn dist_code(dist: usize) -> (u16, u8, u16) {
    debug_assert!((1..=WINDOW_SIZE).contains(&dist));
    if dist <= 4 {
        return ((dist - 1) as u16, 0, 0);
    }
    let d = (dist - 1) as u32;
    let l = 31 - d.leading_zeros();
    let code = 2 * l + ((d >> (l - 1)) & 1);
    let base = u32::from(DIST_BASE[code as usize]);
    (
        code as u16,
        DIST_EXTRA[code as usize],
        (dist as u32 - base) as u16,
    )
}

/// Compression effort levels, mirroring zlib's familiar 1/6/9 scale.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Level {
    /// Greedy parsing, short hash chains — `zlib -1`.
    Fast,
    /// Lazy parsing, moderate chains — `zlib -6` (paper default).
    #[default]
    Default,
    /// Lazy parsing, long chains — `zlib -9`.
    Best,
}

/// Per-level match-finder tuning knobs.
pub(crate) struct MatchParams {
    /// Chain links visited per search before giving up.
    pub max_chain: usize,
    /// A match at least this long stops the search ("good enough").
    pub nice_length: usize,
    /// Defer matches by one position when the next position matches longer.
    pub lazy: bool,
    /// Consecutive unmatched literals before skip-ahead engages
    /// (`usize::MAX` disables skipping; see `lz77::skip_step`).
    pub skip_trigger: usize,
}

impl Level {
    /// Match-finder tuning parameters for this level.
    pub(crate) fn params(self) -> MatchParams {
        match self {
            Level::Fast => MatchParams {
                max_chain: 16,
                nice_length: 16,
                lazy: false,
                skip_trigger: 32,
            },
            Level::Default => MatchParams {
                max_chain: 16,
                nice_length: 65,
                lazy: true,
                skip_trigger: 64,
            },
            Level::Best => MatchParams {
                max_chain: 1024,
                nice_length: MAX_MATCH,
                lazy: true,
                skip_trigger: usize::MAX,
            },
        }
    }
}

/// Compress `input` into a raw DEFLATE stream (no container).
///
/// One-shot convenience over [`deflate_into`]; allocates a fresh
/// [`EncoderScratch`] per call. Hot paths (the containers behind the
/// pipeline's per-chunk loop) hold a scratch and call [`deflate_into`].
pub fn deflate(input: &[u8], level: Level) -> Vec<u8> {
    let mut out = Vec::with_capacity(input.len() + input.len() / 250 + 64);
    deflate_into(input, level, &mut EncoderScratch::new(), &mut out);
    out
}

/// Compress `input` into a raw DEFLATE stream appended to `out` (which must
/// be byte-aligned), reusing `scratch` for all match-finder state:
/// steady-state calls (same or smaller input length) perform no tokenizer
/// heap allocation. The containers (zlib, gzip) use this so the
/// multi-megabyte DEFLATE body lands directly in the container buffer
/// instead of being produced in a temporary and copied across.
pub fn deflate_into(input: &[u8], level: Level, scratch: &mut EncoderScratch, out: &mut Vec<u8>) {
    // Spans are named `deflate.encode`/`deflate.decode` (the latter in
    // `decode::inflate_with`) — distinct from the pipeline-level "deflate"
    // stage span so the CLI stage table never counts codec time twice.
    let _span = primacy_trace::span("deflate.encode");
    {
        let _tok_span = primacy_trace::span("deflate.tokenize");
        lz77::tokenize_into(input, level, scratch);
    }
    let (tokens, header) = scratch.parts();
    primacy_trace::counter("deflate.tokens", tokens.len() as u64);
    let _emit_span = primacy_trace::span("deflate.emit");
    let before = out.len();
    let buf = std::mem::take(out);
    *out = encode::emit_blocks_into(input, tokens, header, buf);
    drop(_emit_span);
    primacy_trace::counter("deflate.encode_bytes_in", input.len() as u64);
    primacy_trace::counter("deflate.encode_bytes_out", (out.len() - before) as u64);
}

/// Decompress a raw DEFLATE stream into a fresh buffer.
///
/// One-shot convenience over [`decode::inflate_with`]; allocates a fresh
/// [`InflateScratch`] per call.
pub fn inflate(input: &[u8]) -> Result<Vec<u8>> {
    let mut out = Vec::with_capacity(input.len().saturating_mul(3));
    decode::inflate_with(input, &mut InflateScratch::new(), &mut out)?;
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn length_code_covers_every_length() {
        for len in MIN_MATCH..=MAX_MATCH {
            let (code, extra, value) = length_code(len);
            let code = code as usize;
            assert!(code < 29, "len {len} gave code {code}");
            assert_eq!(extra, LENGTH_EXTRA[code]);
            let base = LENGTH_BASE[code] as usize;
            assert!(len >= base, "len {len} below base of code {code}");
            assert_eq!(len, base + value as usize);
            assert!((value as u32) < (1u32 << extra) || extra == 0 && value == 0);
        }
    }

    #[test]
    fn dist_code_covers_every_distance() {
        for dist in 1..=WINDOW_SIZE {
            let (code, extra, value) = dist_code(dist);
            let code = code as usize;
            assert!(code < 30, "dist {dist} gave code {code}");
            assert_eq!(extra, DIST_EXTRA[code]);
            let base = DIST_BASE[code] as usize;
            assert!(dist >= base);
            assert_eq!(dist, base + value as usize);
            assert!((value as u32) < (1u32 << extra) || extra == 0 && value == 0);
        }
    }

    #[test]
    fn deflate_roundtrip_all_levels() {
        let data: Vec<u8> = (0..10_000u32)
            .map(|i| ((i / 7) % 64 + (i % 13) * 2) as u8)
            .collect();
        for level in [Level::Fast, Level::Default, Level::Best] {
            let comp = deflate(&data, level);
            let back = inflate(&comp).unwrap();
            assert_eq!(back, data, "level {level:?}");
        }
    }

    #[test]
    fn deflate_empty_input() {
        let comp = deflate(&[], Level::Default);
        assert_eq!(inflate(&comp).unwrap(), Vec::<u8>::new());
    }

    #[test]
    fn deflate_compresses_repetitive_data() {
        let data = vec![42u8; 100_000];
        let comp = deflate(&data, Level::Default);
        assert!(comp.len() < data.len() / 50, "got {} bytes", comp.len());
        assert_eq!(inflate(&comp).unwrap(), data);
    }

    #[test]
    fn deflate_handles_incompressible_data() {
        // A xorshift stream is effectively random: stored blocks should kick
        // in and expansion must stay under the stored-block overhead bound.
        let mut x = 0x12345678u32;
        let data: Vec<u8> = (0..70_000)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 17;
                x ^= x << 5;
                (x >> 24) as u8
            })
            .collect();
        let comp = deflate(&data, Level::Default);
        assert!(comp.len() < data.len() + data.len() / 1000 + 64);
        assert_eq!(inflate(&comp).unwrap(), data);
    }
}
