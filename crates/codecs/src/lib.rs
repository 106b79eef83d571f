//! From-scratch lossless codecs for the PRIMACY reproduction.
//!
//! The PRIMACY paper evaluates its preconditioner in front of the standard
//! byte-level compressors `zlib`, `lzo` and `bzlib2`, and compares against the
//! floating-point compressors `fpc` and `fpzip`. This crate implements one
//! codec of each class, entirely in safe Rust:
//!
//! * [`deflate`] — a complete RFC 1950/1951 implementation (LZ77 with
//!   hash-chain matching and lazy evaluation, stored/fixed/dynamic Huffman
//!   blocks, a full inflater, and the zlib container with Adler-32). This is
//!   the paper's `zlib` stand-in and the default "solver" behind PRIMACY.
//! * [`lzr`] — a byte-oriented, hash-table LZ codec in the `lzo` speed class:
//!   very fast, modest ratios.
//! * [`bwt`] — a `bzlib2`-class block codec: Burrows–Wheeler transform via a
//!   linear-time SA-IS suffix array, move-to-front, zero-run-length coding and
//!   canonical Huffman entropy coding. Slow but strong.
//! * [`fpc`] — Burtscher & Ratanaworabhan's FPC: FCM/DFCM hash predictors over
//!   the raw bit patterns of doubles with leading-zero-byte residual coding.
//! * [`fpz`] — an `fpzip`-class predictive coder: an n-dimensional Lorenzo
//!   predictor over order-preserving integer mappings of doubles, with an
//!   adaptive binary range coder for the residuals.
//!
//! All codecs implement the common [`Codec`] trait and produce self-framed
//! streams: `decompress(compress(x)) == x` with no out-of-band metadata.
//! Each codec has one encoder, one decoder and one stream format, reached
//! through the trait's two required methods; the one-shot calls are defined
//! once, here, on top of them.

/// Bit-granular readers and writers shared by the entropy coders.
pub mod bitio;
/// Burrows–Wheeler codec (the paper's `bzip2` analogue).
pub mod bwt;
/// CRC-32 and Adler-32 checksums used by the stream trailers.
pub mod checksum;
/// DEFLATE codec and its zlib/gzip wrappers (the paper's `zlib` baseline).
pub mod deflate;
/// Codec error type and result alias.
pub mod error;
/// FPC: hash-predictor floating-point codec.
pub mod fpc;
/// FPZ: Lorenzo-predicted, range-coded floating-point codec.
pub mod fpz;
/// Canonical Huffman coding primitives.
pub mod huffman;
/// LZR: byte-oriented LZ codec (the paper's `lzo` speed class).
pub mod lzr;

pub use error::{CodecError, Result};

/// A lossless byte-stream codec.
///
/// Implementations are self-framing: all metadata needed by
/// [`Codec::decompress`] is embedded in the compressed stream itself.
///
/// [`Codec::compress_with`] and [`Codec::decompress_into`] are the whole
/// contract: every codec implements its one encoder and one decoder there,
/// and the one-shot calls run them on a fresh [`CodecScratch`].
///
/// ```
/// use primacy_codecs::{Codec, CodecKind};
///
/// let codec = CodecKind::Zlib.build();
/// let data = b"hello hello hello hello".to_vec();
/// let compressed = codec.compress(&data).unwrap();
/// assert_eq!(codec.decompress(&compressed).unwrap(), data);
/// ```
pub trait Codec: Send + Sync {
    /// Short stable identifier, e.g. `"zlib"`, used in benchmark tables.
    fn name(&self) -> &'static str;

    /// Compress `input`, reusing per-call working memory from `scratch`.
    ///
    /// The bytes do not depend on what `scratch` holds. Callers on a
    /// per-chunk hot path (the pipeline keeps one [`CodecScratch`] per
    /// worker thread) keep one so codecs with reusable state skip their
    /// per-call set-up after the first chunk: deflate-family dictionary and
    /// token buffers, FPC predictor tables.
    fn compress_with(&self, input: &[u8], scratch: &mut CodecScratch) -> Result<Vec<u8>>;

    /// Decompress `input`, reusing per-call working memory from `scratch`
    /// and writing the plaintext into `out` (cleared first, capacity kept).
    ///
    /// Codecs with reusable decode state (deflate-family Huffman tables, FPC
    /// predictor tables) keep it in `scratch`, so a warm call allocates
    /// nothing beyond growing `out`.
    fn decompress_into(
        &self,
        input: &[u8],
        scratch: &mut CodecScratch,
        out: &mut Vec<u8>,
    ) -> Result<()>;

    /// Compress `input` into a fresh buffer: [`Codec::compress_with`] on a
    /// fresh scratch.
    fn compress(&self, input: &[u8]) -> Result<Vec<u8>> {
        self.compress_with(input, &mut CodecScratch::new())
    }

    /// Reverse [`Codec::compress`]: [`Codec::decompress_with`] on a fresh
    /// scratch.
    fn decompress(&self, input: &[u8]) -> Result<Vec<u8>> {
        self.decompress_with(input, &mut CodecScratch::new())
    }

    /// Decompress into a fresh buffer while still reusing `scratch` state.
    /// Callers that must hand ownership of the plaintext onward (the serve
    /// response path) use this to keep the table-reuse half of the win.
    fn decompress_with(&self, input: &[u8], scratch: &mut CodecScratch) -> Result<Vec<u8>> {
        let mut out = Vec::new();
        self.decompress_into(input, scratch, &mut out)?;
        Ok(out)
    }
}

/// Reusable per-thread working memory for [`Codec::compress_with`] and
/// [`Codec::decompress_into`]. [`CodecScratch::new`] allocates nothing.
///
/// A plain struct (not a trait object) so call sites can own one without
/// knowing which codec will run; each codec family picks the field it needs.
/// Two families carry reusable state: deflate, whose hash-chain arrays and
/// token buffer are the dominant per-chunk allocation in the pipeline
/// (384 KiB of heads plus 4 bytes of chain links per input byte), and FPC,
/// whose two predictor tables (16 MiB at the default size) would otherwise
/// be allocated and zeroed on every call.
#[derive(Debug, Default)]
pub struct CodecScratch {
    /// LZ77 match-finder state for deflate-family codecs (zlib, gzip).
    pub deflate: deflate::EncoderScratch,
    /// Inflate-side decode state (Huffman tables, header buffers) for
    /// deflate-family codecs, reused by [`Codec::decompress_into`].
    pub inflate: deflate::InflateScratch,
    /// FPC's FCM/DFCM predictor tables, all zero between calls and kept up
    /// to 2^20 slots each (16 MiB for the pair).
    pub fpc: fpc::FpcScratch,
}

impl CodecScratch {
    /// An empty scratch; buffers are allocated lazily on first use.
    pub fn new() -> Self {
        Self::default()
    }
}

/// The codec families evaluated in the paper, used to select a backend.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CodecKind {
    /// `zlib` class: balanced ratio/throughput (paper's default solver).
    Zlib,
    /// `lzo` class: very fast, weak compression.
    Lzr,
    /// `bzlib2` class: slow, strong compression.
    Bwt,
    /// FPC floating-point predictor (related-work comparator).
    Fpc,
    /// `fpzip` class floating-point predictor (related-work comparator).
    Fpz,
}

impl CodecKind {
    /// Instantiate the codec with its default parameters.
    pub fn build(self) -> Box<dyn Codec> {
        match self {
            CodecKind::Zlib => Box::new(deflate::Zlib::default()),
            CodecKind::Lzr => Box::new(lzr::Lzr),
            CodecKind::Bwt => Box::new(bwt::BwtCodec::default()),
            CodecKind::Fpc => Box::new(fpc::Fpc::default()),
            CodecKind::Fpz => Box::new(fpz::Fpz::default()),
        }
    }

    /// All kinds, in the order they appear in the paper's tables.
    pub const ALL: [CodecKind; 5] = [
        CodecKind::Zlib,
        CodecKind::Lzr,
        CodecKind::Bwt,
        CodecKind::Fpc,
        CodecKind::Fpz,
    ];
}

impl std::fmt::Display for CodecKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            CodecKind::Zlib => "zlib",
            CodecKind::Lzr => "lzr",
            CodecKind::Bwt => "bwt",
            CodecKind::Fpc => "fpc",
            CodecKind::Fpz => "fpz",
        };
        f.write_str(s)
    }
}

/// Clamp a length claimed by a (possibly corrupt) stream before using it as
/// a pre-allocation size: allocate at most 16 MiB up front and let the vector
/// grow organically past that. Decoders stay O(real output) instead of
/// aborting on a tiny input that claims a 2^60-byte payload.
pub(crate) fn clamped_capacity(claimed: u64) -> usize {
    const CAP: u64 = 16 * 1024 * 1024;
    claimed.min(CAP) as usize
}

/// Read a fixed-size array starting at `at`, or fail with
/// [`CodecError::Truncated`] if `at + N` is out of bounds (including
/// overflow). The panic-free counterpart of
/// `buf[at..at + N].try_into().unwrap()` for untrusted input.
pub fn read_array<const N: usize>(buf: &[u8], at: usize) -> Result<[u8; N]> {
    let s = at
        .checked_add(N)
        .and_then(|end| buf.get(at..end))
        .ok_or(CodecError::Truncated)?;
    let mut a = [0u8; N];
    a.copy_from_slice(s);
    Ok(a)
}

/// Write `v` as a LEB128 varint.
pub fn write_varint(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            out.push(byte);
            break;
        }
        out.push(byte | 0x80);
    }
}

/// Read a LEB128 varint, returning `(value, bytes_consumed)`. Fails with
/// [`CodecError::Truncated`] when `input` ends inside it and with
/// [`CodecError::Corrupt`] when it runs past 64 bits.
pub fn read_varint(input: &[u8]) -> Result<(u64, usize)> {
    let mut v: u64 = 0;
    let mut shift = 0u32;
    for (i, &b) in input.iter().enumerate() {
        if shift >= 64 {
            return Err(CodecError::Corrupt("varint overflow"));
        }
        v |= u64::from(b & 0x7f) << shift;
        if b & 0x80 == 0 {
            return Ok((v, i + 1));
        }
        shift += 7;
    }
    Err(CodecError::Truncated)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn varint_roundtrip() {
        let mut buf = Vec::new();
        let values = [0u64, 1, 127, 128, 300, u32::MAX as u64, u64::MAX];
        for &v in &values {
            buf.clear();
            write_varint(&mut buf, v);
            let (back, used) = read_varint(&buf).unwrap();
            assert_eq!(back, v);
            assert_eq!(used, buf.len());
        }
    }

    #[test]
    fn varint_truncated_errors() {
        let mut buf = Vec::new();
        write_varint(&mut buf, 1 << 20);
        buf.pop();
        assert!(matches!(read_varint(&buf), Err(CodecError::Truncated)));
    }

    #[test]
    fn varint_overflow_errors() {
        let buf = [0xff; 11];
        assert!(read_varint(&buf).is_err());
    }

    #[test]
    fn codec_kind_build_and_roundtrip_smoke() {
        let data = b"the quick brown fox jumps over the lazy dog. \
                     the quick brown fox jumps over the lazy dog."
            .to_vec();
        for kind in CodecKind::ALL {
            let codec = kind.build();
            let comp = codec.compress(&data).unwrap();
            let back = codec.decompress(&comp).unwrap();
            assert_eq!(back, data, "codec {kind} failed roundtrip");
        }
    }

    #[test]
    fn codec_kind_display_names() {
        assert_eq!(CodecKind::Zlib.to_string(), "zlib");
        assert_eq!(CodecKind::Lzr.to_string(), "lzr");
        assert_eq!(CodecKind::Bwt.to_string(), "bwt");
        assert_eq!(CodecKind::Fpc.to_string(), "fpc");
        assert_eq!(CodecKind::Fpz.to_string(), "fpz");
    }
}
