//! DEFLATE block emission: stored / fixed-Huffman / dynamic-Huffman, chosen
//! per block by exact bit-cost comparison.

use super::lz77::Token;
use super::{
    CODELEN_ORDER, DIST_BASE, DIST_EXTRA, END_OF_BLOCK, LENGTH_BASE, LENGTH_EXTRA, NUM_CODELEN,
    NUM_DIST, NUM_LITLEN,
};
use crate::bitio::BitWriter;
use crate::huffman::{package_merge_into, Encoder};

/// Number of tokens grouped into one DEFLATE block. Blocks re-derive their
/// Huffman tables, so shorter blocks adapt better at a small header cost.
const TOKENS_PER_BLOCK: usize = 100_000;
/// Stored blocks carry a 16-bit length, so at most 65535 bytes each.
const MAX_STORED: usize = 65_535;

/// Per-match-length entry, indexed by `len - 3` (lengths 3..=258): bits 0..5
/// hold the length-code index (0..=28), bits 5..8 the extra-bit count, bits
/// 8..13 the extra-bit value. Replaces the branchy `length_code()` arithmetic
/// on the two hottest encoder paths (histogramming and emission).
const LEN_SYM: [u16; 256] = build_len_sym();

const fn build_len_sym() -> [u16; 256] {
    let mut t = [0u16; 256];
    let mut len = 3usize;
    while len <= 258 {
        // Highest code whose base does not exceed `len`; scanning from 28
        // downward also lands len == 258 on its dedicated zero-extra code.
        let mut code = 28usize;
        while (LENGTH_BASE[code] as usize) > len {
            code -= 1;
        }
        let extra_val = len - LENGTH_BASE[code] as usize;
        t[len - 3] = code as u16 | ((LENGTH_EXTRA[code] as u16) << 5) | ((extra_val as u16) << 8);
        len += 1;
    }
    t
}

/// Distance-slot lookup split at 256 the way zlib's `dist_code[]` is: small
/// distances index directly, larger ones through a 128-aligned bucket (every
/// `DIST_BASE` entry above 256 is `128k + 1`, so `(dist - 1) >> 7` is
/// constant within a slot).
const DIST_SLOT_SMALL: [u8; 256] = build_dist_slot(0);
const DIST_SLOT_LARGE: [u8; 256] = build_dist_slot(7);

const fn build_dist_slot(shift: u32) -> [u8; 256] {
    let mut t = [0u8; 256];
    let mut i = 0usize;
    while i < 256 {
        let dist = (i << shift) + 1;
        let mut slot = NUM_DIST - 1;
        while (DIST_BASE[slot] as usize) > dist {
            slot -= 1;
        }
        t[i] = slot as u8;
        i += 1;
    }
    t
}

/// Distance slot (0..=29) for `dist` in 1..=32768.
#[inline]
fn dist_slot(dist: u16) -> usize {
    let d = (dist as usize).wrapping_sub(1);
    if d < 256 {
        DIST_SLOT_SMALL[d] as usize
    } else {
        DIST_SLOT_LARGE[(d >> 7) & 0xff] as usize
    }
}

/// Fixed literal/length code lengths (RFC 1951 §3.2.6).
pub(crate) fn fixed_litlen_lengths() -> Vec<u8> {
    let mut l = vec![8u8; NUM_LITLEN];
    for item in l.iter_mut().take(256).skip(144) {
        *item = 9;
    }
    for item in l.iter_mut().take(280).skip(256) {
        *item = 7;
    }
    l
}

/// Fixed distance code lengths: 32 five-bit codes.
pub(crate) fn fixed_dist_lengths() -> Vec<u8> {
    vec![5u8; 32]
}

/// Histograms and precomputed code/extra info for one block of tokens.
struct BlockStats {
    lit_freq: [u64; NUM_LITLEN],
    dist_freq: [u64; NUM_DIST],
    /// Total extra bits (length + distance) the tokens will carry regardless
    /// of the Huffman tables chosen.
    extra_bits: u64,
}

fn gather_stats(tokens: &[Token]) -> BlockStats {
    let mut stats = BlockStats {
        lit_freq: [0; NUM_LITLEN],
        dist_freq: [0; NUM_DIST],
        extra_bits: 0,
    };
    // Literal counts go to four interleaved sub-histograms so repeated bytes
    // do not serialize on store-to-load forwarding of one counter; a block is
    // at most `TOKENS_PER_BLOCK` tokens, so `u32` lanes cannot overflow.
    let mut lanes = [[0u32; 256]; 4];
    let mut quads = tokens.chunks_exact(4);
    let tally = |t: Token, lane: &mut [u32; 256], stats: &mut BlockStats| match t {
        Token::Literal(b) => lane[b as usize] += 1,
        Token::Match { len, dist } => {
            let e = LEN_SYM[(len - 3) as usize];
            let ds = dist_slot(dist);
            stats.lit_freq[257 + (e & 0x1f) as usize] += 1;
            stats.dist_freq[ds] += 1;
            stats.extra_bits += u64::from((e >> 5) & 0x7) + u64::from(DIST_EXTRA[ds]);
        }
    };
    for quad in &mut quads {
        tally(quad[0], &mut lanes[0], &mut stats);
        tally(quad[1], &mut lanes[1], &mut stats);
        tally(quad[2], &mut lanes[2], &mut stats);
        tally(quad[3], &mut lanes[3], &mut stats);
    }
    for &t in quads.remainder() {
        tally(t, &mut lanes[0], &mut stats);
    }
    for lane in &lanes {
        for (f, &c) in stats.lit_freq.iter_mut().zip(lane.iter()) {
            *f += u64::from(c);
        }
    }
    stats.lit_freq[END_OF_BLOCK as usize] += 1;
    stats
}

/// Run-length encode the concatenated code lengths with symbols 16/17/18 as
/// RFC 1951 prescribes, replacing `out` with `(symbol, extra_value)` pairs.
fn rle_code_lengths_into(lengths: &[u8], out: &mut Vec<(u8, u8)>) {
    out.clear();
    let mut i = 0;
    while i < lengths.len() {
        let cur = lengths[i];
        let mut run = 1;
        while i + run < lengths.len() && lengths[i + run] == cur {
            run += 1;
        }
        if cur == 0 {
            let mut left = run;
            while left >= 11 {
                let take = left.min(138);
                out.push((18, (take - 11) as u8));
                left -= take;
            }
            if left >= 3 {
                out.push((17, (left - 3) as u8));
                left = 0;
            }
            for _ in 0..left {
                out.push((0, 0));
            }
        } else {
            out.push((cur, 0));
            let mut left = run - 1;
            while left >= 3 {
                let take = left.min(6);
                out.push((16, (take - 3) as u8));
                left -= take;
            }
            for _ in 0..left {
                out.push((cur, 0));
            }
        }
        i += run;
    }
}

/// Reusable buffers for building one block's dynamic header: code-length
/// vectors, their concatenation, and the RLE stream. One lives inside every
/// [`super::lz77::EncoderScratch`], so steady-state block emission re-derives
/// its Huffman tables without re-allocating them.
#[derive(Debug, Default)]
pub struct HeaderScratch {
    lit_lengths: Vec<u8>,
    dist_lengths: Vec<u8>,
    all_lengths: Vec<u8>,
    cl_lengths: Vec<u8>,
    rle: Vec<(u8, u8)>,
}

/// Sizing facts for an already-built dynamic header; the RLE stream and the
/// code-length lengths stay behind in the [`HeaderScratch`].
struct DynamicHeader {
    cl_encoder: Encoder,
    hclen: usize,
    header_bits: u64,
}

impl HeaderScratch {
    /// RLE the first `hlit`/`hdist` lit/dist lengths (already computed into
    /// this scratch) and build the code-length code over them.
    fn build_dynamic(&mut self, hlit: usize, hdist: usize) -> DynamicHeader {
        self.all_lengths.clear();
        self.all_lengths
            .extend_from_slice(&self.lit_lengths[..hlit]);
        self.all_lengths
            .extend_from_slice(&self.dist_lengths[..hdist]);
        rle_code_lengths_into(&self.all_lengths, &mut self.rle);
        let mut cl_freq = [0u64; NUM_CODELEN];
        for &(sym, _) in &self.rle {
            cl_freq[sym as usize] += 1;
        }
        package_merge_into(&cl_freq, 7, &mut self.cl_lengths);
        let cl_encoder = Encoder::from_lengths(&self.cl_lengths);
        let hclen = (4..=NUM_CODELEN)
            .rev()
            .find(|&k| self.cl_lengths[CODELEN_ORDER[k - 1]] != 0)
            .unwrap_or(4);
        let mut header_bits = 5 + 5 + 4 + 3 * hclen as u64;
        for &(sym, _) in &self.rle {
            header_bits += u64::from(cl_encoder.lengths[sym as usize]);
            header_bits += match sym {
                16 => 2,
                17 => 3,
                18 => 7,
                _ => 0,
            };
        }
        DynamicHeader {
            cl_encoder,
            hclen,
            header_bits,
        }
    }
}

/// Emit the token body (symbols + extra bits) with the given encoders.
///
/// Each match is assembled into one `u64` — length code, length extra bits,
/// distance code, distance extra bits, at most 15+5+15+13 = 48 bits — and
/// handed to the bit writer as a single call, so the writer's flush runs
/// once per token instead of up to four times. Runs of literals batch the
/// same way: consecutive literal codes pack into one `u64` until the
/// writer's 57-bit call limit would overflow (six-plus literals per call on
/// the 8-bit-ish residual planes), so literal-heavy blocks pay the writer's
/// flush once per group instead of once per byte.
fn write_body(w: &mut BitWriter, tokens: &[Token], lit: &Encoder, dist: &Encoder) {
    let mut i = 0;
    while let Some(&t) = tokens.get(i) {
        match t {
            Token::Literal(b) => {
                let s = b as usize;
                let mut bits = u64::from(lit.codes[s]);
                let mut n = u32::from(lit.lengths[s]);
                while let Some(&Token::Literal(b2)) = tokens.get(i + 1) {
                    let s2 = b2 as usize;
                    let l2 = u32::from(lit.lengths[s2]);
                    if n + l2 > 57 {
                        break;
                    }
                    bits |= u64::from(lit.codes[s2]) << n;
                    n += l2;
                    i += 1;
                }
                w.write_bits(bits, n);
            }
            Token::Match { len, dist: d } => {
                let e = LEN_SYM[(len - 3) as usize];
                let s = 257 + (e & 0x1f) as usize;
                let llen = u32::from(lit.lengths[s]);
                let mut bits = u64::from(lit.codes[s]) | (u64::from(e >> 8) << llen);
                let mut n = llen + ((u32::from(e) >> 5) & 0x7);

                let ds = dist_slot(d);
                let dlen = u32::from(dist.lengths[ds]);
                let dv = u64::from(d - DIST_BASE[ds]);
                bits |= (u64::from(dist.codes[ds]) | (dv << dlen)) << n;
                n += dlen + u32::from(DIST_EXTRA[ds]);
                w.write_bits(bits, n);
            }
        }
        i += 1;
    }
    let eob = END_OF_BLOCK as usize;
    w.write_bits(u64::from(lit.codes[eob]), u32::from(lit.lengths[eob]));
}

/// Emit one block in whichever of the three encodings is cheapest.
///
/// `bytes` is the slice of original input this block covers (needed for the
/// stored fallback); `is_final` sets BFINAL.
fn emit_one_block(
    w: &mut BitWriter,
    tokens: &[Token],
    bytes: &[u8],
    is_final: bool,
    hs: &mut HeaderScratch,
) {
    let stats = gather_stats(tokens);

    // Dynamic tables.
    let header_span = primacy_trace::span("deflate.header_build");
    package_merge_into(&stats.lit_freq, 15, &mut hs.lit_lengths);
    // Ensure at least the EOB symbol exists (gather_stats guarantees it).
    debug_assert!(hs.lit_lengths[END_OF_BLOCK as usize] > 0);
    package_merge_into(&stats.dist_freq, 15, &mut hs.dist_lengths);
    if hs.dist_lengths.iter().all(|&l| l == 0) {
        // RFC 1951 permits an empty distance alphabet, but assigning one
        // dummy 1-bit code keeps every decoder happy at the cost of ≤3
        // header bits.
        hs.dist_lengths[0] = 1;
    }
    let hlit = (257..=NUM_LITLEN)
        .rev()
        .find(|&k| hs.lit_lengths[k - 1] != 0)
        .unwrap_or(257);
    let hdist = (1..=NUM_DIST)
        .rev()
        .find(|&k| hs.dist_lengths[k - 1] != 0)
        .unwrap_or(1);

    let lit_enc = Encoder::from_lengths(&hs.lit_lengths);
    let dist_enc = Encoder::from_lengths(&hs.dist_lengths);
    let header = hs.build_dynamic(hlit, hdist);
    drop(header_span);
    let dynamic_bits = 3
        + header.header_bits
        + lit_enc.cost_bits(&stats.lit_freq)
        + dist_enc.cost_bits(&stats.dist_freq)
        + stats.extra_bits;

    // Fixed tables (built once per process).
    use std::sync::OnceLock;
    static FIXED: OnceLock<(Encoder, Encoder)> = OnceLock::new();
    let (fixed_lit, fixed_dist) = FIXED.get_or_init(|| {
        (
            Encoder::from_lengths(&fixed_litlen_lengths()),
            Encoder::from_lengths(&fixed_dist_lengths()),
        )
    });
    let fixed_bits = 3
        + fixed_lit.cost_bits(&stats.lit_freq)
        + {
            // Pad dist_freq to the 32-entry fixed alphabet.
            let mut padded = [0u64; 32];
            padded[..NUM_DIST].copy_from_slice(&stats.dist_freq);
            fixed_dist.cost_bits(&padded)
        }
        + stats.extra_bits;

    // Stored: 3 header bits, alignment (≤7), then 4 bytes + payload per
    // 65535-byte piece.
    let pieces = bytes.len().div_ceil(MAX_STORED).max(1);
    let stored_bits = (3 + 7) * pieces as u64 + (4 * pieces + bytes.len()) as u64 * 8;

    primacy_trace::observe("deflate.block_bytes", bytes.len() as u64);
    if stored_bits < dynamic_bits && stored_bits < fixed_bits {
        primacy_trace::counter("deflate.blocks_stored", 1);
        emit_stored(w, bytes, is_final);
        return;
    }

    let final_bit = u64::from(is_final);
    if fixed_bits <= dynamic_bits {
        primacy_trace::counter("deflate.blocks_fixed", 1);
        w.write_bits(final_bit, 1);
        w.write_bits(0b01, 2);
        write_body(w, tokens, fixed_lit, fixed_dist);
    } else {
        primacy_trace::counter("deflate.blocks_dynamic", 1);
        w.write_bits(final_bit, 1);
        w.write_bits(0b10, 2);
        w.write_bits(hlit as u64 - 257, 5);
        w.write_bits(hdist as u64 - 1, 5);
        w.write_bits(header.hclen as u64 - 4, 4);
        for &idx in CODELEN_ORDER.iter().take(header.hclen) {
            w.write_bits(u64::from(hs.cl_lengths[idx]), 3);
        }
        for &(sym, extra) in &hs.rle {
            let s = sym as usize;
            w.write_bits(
                u64::from(header.cl_encoder.codes[s]),
                u32::from(header.cl_encoder.lengths[s]),
            );
            match sym {
                16 => w.write_bits(u64::from(extra), 2),
                17 => w.write_bits(u64::from(extra), 3),
                18 => w.write_bits(u64::from(extra), 7),
                _ => {}
            }
        }
        write_body(w, tokens, &lit_enc, &dist_enc);
    }
}

fn emit_stored(w: &mut BitWriter, bytes: &[u8], is_final: bool) {
    let mut pieces: Vec<&[u8]> = bytes.chunks(MAX_STORED).collect();
    if pieces.is_empty() {
        pieces.push(&[]);
    }
    let last = pieces.len() - 1;
    for (k, piece) in pieces.iter().enumerate() {
        let final_bit = u64::from(is_final && k == last);
        w.write_bits(final_bit, 1);
        w.write_bits(0b00, 2);
        w.align_byte();
        let len = piece.len() as u16;
        w.write_bytes(&len.to_le_bytes());
        w.write_bytes(&(!len).to_le_bytes());
        w.write_bytes(piece);
    }
}

/// Number of input bytes a token span covers.
fn span_bytes(tokens: &[Token]) -> usize {
    tokens
        .iter()
        .map(|t| match t {
            Token::Literal(_) => 1,
            Token::Match { len, .. } => *len as usize,
        })
        .sum()
}

/// Encode the full token stream as a sequence of DEFLATE blocks.
///
/// One-shot convenience over [`emit_blocks_into`]; allocates fresh header
/// scratch per call. The pipeline threads the scratch embedded in
/// [`super::lz77::EncoderScratch`] instead.
pub fn emit_blocks(input: &[u8], tokens: &[Token]) -> Vec<u8> {
    // Worst case is all-stored: 5 header bytes per 65535 plus the data.
    let buf = Vec::with_capacity(input.len() + input.len() / 250 + 64);
    emit_blocks_into(input, tokens, &mut HeaderScratch::default(), buf)
}

/// [`emit_blocks`] with caller-owned header scratch, appending to `buf`
/// (byte-aligned) and returning it. Steady-state block emission reuses the
/// code-length/RLE buffers across blocks and calls, and the zlib/gzip
/// containers hand the encoder their output buffer so the finished stream
/// is never copied into the container afterwards.
pub fn emit_blocks_into(
    input: &[u8],
    tokens: &[Token],
    hs: &mut HeaderScratch,
    buf: Vec<u8>,
) -> Vec<u8> {
    let mut w = BitWriter::with_buffer(buf);
    if tokens.is_empty() {
        // An empty stream still needs one (final, empty) block.
        emit_stored(&mut w, &[], true);
        return w.finish();
    }
    let mut offset = 0usize;
    let mut start = 0usize;
    while start < tokens.len() {
        let end = (start + TOKENS_PER_BLOCK).min(tokens.len());
        let block = &tokens[start..end];
        let nbytes = span_bytes(block);
        let is_final = end == tokens.len();
        emit_one_block(&mut w, block, &input[offset..offset + nbytes], is_final, hs);
        offset += nbytes;
        start = end;
    }
    debug_assert_eq!(offset, input.len());
    w.finish()
}

#[cfg(test)]
mod tests {
    use super::super::{deflate, inflate, Level};
    use super::*;

    fn rle_code_lengths(lengths: &[u8]) -> Vec<(u8, u8)> {
        let mut out = Vec::new();
        rle_code_lengths_into(lengths, &mut out);
        out
    }

    #[test]
    fn rle_examples() {
        // A run of 20 zeros: one 18-symbol (11-138) covers it.
        let rle = rle_code_lengths(&[0; 20]);
        assert_eq!(rle, vec![(18, 9)]);
        // A run of 5 sevens: literal then 16 with repeat 4.
        let rle = rle_code_lengths(&[7; 5]);
        assert_eq!(rle, vec![(7, 0), (16, 1)]);
        // Short zero runs fall back to literal zeros.
        let rle = rle_code_lengths(&[0, 0, 5]);
        assert_eq!(rle, vec![(0, 0), (0, 0), (5, 0)]);
        // A reused output vector is fully replaced, not appended to.
        let mut out = vec![(9u8, 9u8); 4];
        rle_code_lengths_into(&[7; 5], &mut out);
        assert_eq!(out, vec![(7, 0), (16, 1)]);
    }

    #[test]
    fn len_sym_table_matches_length_code() {
        for len in 3..=258usize {
            let (code, extra, value) = super::super::length_code(len);
            let e = LEN_SYM[len - 3];
            assert_eq!(e & 0x1f, code, "len {len} code");
            assert_eq!((e >> 5) & 0x7, u16::from(extra), "len {len} extra bits");
            assert_eq!(e >> 8, value, "len {len} extra value");
        }
    }

    #[test]
    fn dist_slot_tables_match_dist_code() {
        for dist in 1..=super::super::WINDOW_SIZE {
            let (code, extra, value) = super::super::dist_code(dist);
            let slot = dist_slot(dist as u16);
            assert_eq!(slot, code as usize, "dist {dist} slot");
            assert_eq!(DIST_EXTRA[slot], extra, "dist {dist} extra bits");
            assert_eq!(dist as u16 - DIST_BASE[slot], value, "dist {dist} value");
        }
    }

    #[test]
    fn rle_roundtrip_reconstructs_lengths() {
        let lengths: Vec<u8> = (0..300)
            .map(|i| match i % 11 {
                0..=4 => 0,
                5..=7 => 8,
                8 => 9,
                _ => 7,
            })
            .collect();
        let rle = rle_code_lengths(&lengths);
        // Reconstruct.
        let mut back: Vec<u8> = Vec::new();
        for &(sym, extra) in &rle {
            match sym {
                16 => {
                    let prev = *back.last().unwrap();
                    for _ in 0..(extra + 3) {
                        back.push(prev);
                    }
                }
                17 => back.extend(std::iter::repeat_n(0, extra as usize + 3)),
                18 => back.extend(std::iter::repeat_n(0, extra as usize + 11)),
                l => back.push(l),
            }
        }
        assert_eq!(back, lengths);
    }

    #[test]
    fn stored_block_roundtrip() {
        let mut w = BitWriter::new();
        emit_stored(&mut w, b"hello stored world", true);
        let out = w.finish();
        assert_eq!(inflate(&out).unwrap(), b"hello stored world");
    }

    #[test]
    fn stored_block_splits_at_65535() {
        let data = vec![0xAB; 70_000];
        let mut w = BitWriter::new();
        emit_stored(&mut w, &data, true);
        let out = w.finish();
        assert_eq!(inflate(&out).unwrap(), data);
    }

    #[test]
    fn multi_block_stream_roundtrip() {
        // More than TOKENS_PER_BLOCK literals of incompressible-ish data to
        // force several blocks.
        let mut x = 1u32;
        let data: Vec<u8> = (0..250_000)
            .map(|_| {
                x = x.wrapping_mul(1_664_525).wrapping_add(1_013_904_223);
                (x >> 24) as u8
            })
            .collect();
        let comp = deflate(&data, Level::Fast);
        assert_eq!(inflate(&comp).unwrap(), data);
    }

    #[test]
    fn fixed_tables_have_rfc_shape() {
        let l = fixed_litlen_lengths();
        assert_eq!(l[0], 8);
        assert_eq!(l[143], 8);
        assert_eq!(l[144], 9);
        assert_eq!(l[255], 9);
        assert_eq!(l[256], 7);
        assert_eq!(l[279], 7);
        assert_eq!(l[280], 8);
        assert_eq!(l[287], 8);
        assert!(fixed_dist_lengths().iter().all(|&d| d == 5));
    }
}
