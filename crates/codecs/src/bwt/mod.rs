//! A `bzlib2`-class block compressor: Burrows–Wheeler transform, move-to-
//! front, zero-run-length coding and canonical Huffman entropy coding.
//!
//! The paper's `bzlib2` baseline is "slow but strong": it beats zlib on ratio
//! and loses badly on throughput, which is why the authors exclude it from
//! the in-situ end-to-end runs (§IV-C). This codec reproduces that profile.
//! Differences from stock bzip2 that do not affect the profile: the BWT is
//! computed with a linear-time SA-IS suffix array instead of the original
//! O(n²·log n)-worst-case sort (so the initial RLE1 guard pass is
//! unnecessary), and each block uses a single Huffman table instead of
//! bzip2's six-way table switching.
//!
//! Stream layout:
//! `magic "BWT1" | varint total_len | blocks… | crc32(total)` where each
//! block is `varint block_len | varint primary | 4-bit code lengths × 258 |
//! huffman bitstream (EOB-terminated, byte aligned)`.
#![warn(clippy::indexing_slicing)]

/// Suffix-array construction for the forward transform.
pub mod suffix;

use crate::bitio::{BitReader, BitWriter};
use crate::checksum::crc32;
use crate::error::{CodecError, Result};
use crate::huffman::{package_merge_lengths, Decoder, Encoder};
use crate::{read_varint, write_varint, Codec, CodecScratch};
use suffix::suffix_array;

const MAGIC: &[u8; 4] = b"BWT1";
/// bzip2's `-9` block size.
pub const DEFAULT_BLOCK: usize = 900_000;

/// Zero-run symbols (bijective base-2 digits) and the symbol alphabet:
/// RUNA=0, RUNB=1, MTF value v in 1..=255 → symbol v+1, EOB=257.
const RUNA: u16 = 0;
const RUNB: u16 = 1;
const EOB: u16 = 257;
const ALPHABET: usize = 258;

/// The BWT block codec.
#[derive(Debug, Clone, Copy)]
pub struct BwtCodec {
    /// Block size in bytes; larger blocks compress better and slower.
    pub block_size: usize,
}

impl Default for BwtCodec {
    fn default() -> Self {
        Self {
            block_size: DEFAULT_BLOCK,
        }
    }
}

impl BwtCodec {
    /// Codec with an explicit block size (min 1).
    pub fn with_block_size(block_size: usize) -> Self {
        Self {
            block_size: block_size.max(1),
        }
    }
}

/// Forward BWT with an implicit sentinel. Returns `(bwt, primary)` where
/// `primary` is the row index the sentinel would occupy (needed to invert).
pub fn bwt_forward(data: &[u8]) -> (Vec<u8>, usize) {
    let n = data.len();
    if n == 0 {
        return (Vec::new(), 0);
    }
    let sa = suffix_array(data);
    let mut bwt = Vec::with_capacity(n);
    // Conceptual row 0 is the sentinel suffix, whose preceding char is the
    // last byte of the data.
    if let Some(&last) = data.last() {
        bwt.push(last);
    }
    let mut primary = 0usize;
    for (i, &p) in sa.iter().enumerate() {
        if p == 0 {
            // This row's preceding char is the sentinel; remember where it
            // belongs instead of storing it.
            primary = i + 1;
        } else if let Some(&b) = data.get(p as usize - 1) {
            // Suffix-array entries are < n, so the lookup always succeeds.
            bwt.push(b);
        }
    }
    debug_assert!(primary >= 1);
    (bwt, primary)
}

/// Invert [`bwt_forward`].
pub fn bwt_inverse(bwt: &[u8], primary: usize) -> Result<Vec<u8>> {
    let n = bwt.len();
    if n == 0 {
        return Ok(Vec::new());
    }
    if primary == 0 || primary > n {
        return Err(CodecError::Corrupt("bwt primary index out of range"));
    }
    // Symbols: 0 = sentinel, byte b = b+1. Conceptual column has n+1 rows;
    // row `primary` holds the sentinel. Out-of-range rows map to the
    // sentinel symbol; a corrupted stream then trips the early-sentinel
    // check (or the caller's CRC) instead of panicking.
    let sym_at = |p: usize| -> usize {
        if p == primary {
            0
        } else {
            let idx = if p < primary { p } else { p - 1 };
            bwt.get(idx).map_or(0, |&b| b as usize + 1)
        }
    };
    // The sentinel (symbol 0) occurs once.
    let mut count: [u32; 258] = std::array::from_fn(|sym| u32::from(sym == 0));
    for &b in bwt {
        // A byte's symbol b+1 is at most 256, inside the 258-entry table.
        if let Some(slot) = count.get_mut(b as usize + 1) {
            *slot += 1;
        }
    }
    let mut starts = [0u32; 258];
    let mut sum = 0u32;
    for (start, &cnt) in starts.iter_mut().zip(count.iter()) {
        *start = sum;
        // Counts sum to n+1, which fits u32 for any in-bounds block;
        // saturating keeps the table monotonic even on corrupt input.
        sum = sum.saturating_add(cnt);
    }
    let mut occ = [0u32; 258];
    let mut lf = vec![0u32; n + 1];
    for (p, lf_slot) in lf.iter_mut().enumerate() {
        let s = sym_at(p);
        let start = starts.get(s).copied().unwrap_or(0);
        if let Some(o) = occ.get_mut(s) {
            *lf_slot = start.saturating_add(*o);
            *o += 1;
        }
    }
    // Walk the LF mapping backwards, building the output back-to-front.
    let mut out = Vec::with_capacity(n);
    let mut row = 0usize; // row 0 begins with the sentinel: "$T".
    for _ in 0..n {
        if row == primary {
            return Err(CodecError::Corrupt("bwt walk hit the sentinel early"));
        }
        let idx = if row < primary { row } else { row - 1 };
        let b = bwt
            .get(idx)
            .copied()
            .ok_or(CodecError::Corrupt("bwt walk escaped the matrix"))?;
        out.push(b);
        row = lf.get(row).copied().unwrap_or(0) as usize;
    }
    out.reverse();
    Ok(out)
}

/// Move-to-front transform over the 256-byte alphabet.
pub fn mtf_forward(data: &[u8]) -> Vec<u8> {
    let mut order: Vec<u8> = (0..=255).collect();
    let mut out = Vec::with_capacity(data.len());
    for &b in data {
        // `order` is a permutation of all 256 byte values, so the search
        // always succeeds; 0 is a safe (if suboptimal) fallback.
        let pos = order.iter().position(|&x| x == b).unwrap_or(0);
        out.push(pos as u8);
        order.copy_within(0..pos, 1);
        if let Some(front) = order.first_mut() {
            *front = b;
        }
    }
    out
}

/// Invert [`mtf_forward`].
pub fn mtf_inverse(ranks: &[u8]) -> Vec<u8> {
    let mut order: Vec<u8> = (0..=255).collect();
    let mut out = Vec::with_capacity(ranks.len());
    for &r in ranks {
        let pos = r as usize;
        // A rank is a u8, so pos < 256 == order.len() always holds.
        let b = order.get(pos).copied().unwrap_or(0);
        out.push(b);
        order.copy_within(0..pos, 1);
        if let Some(front) = order.first_mut() {
            *front = b;
        }
    }
    out
}

/// Encode an MTF rank stream into RUNA/RUNB/literal symbols: runs of zero
/// ranks become bijective base-2 digit strings; nonzero rank v becomes
/// symbol v+1.
fn rle2_encode(ranks: &[u8]) -> Vec<u16> {
    let mut out = Vec::with_capacity(ranks.len() / 2 + 8);
    let mut zero_run = 0usize;
    let flush = |out: &mut Vec<u16>, run: &mut usize| {
        let mut r = *run;
        while r > 0 {
            if r & 1 == 1 {
                out.push(RUNA);
                r = (r - 1) / 2;
            } else {
                out.push(RUNB);
                r = (r - 2) / 2;
            }
        }
        *run = 0;
    };
    for &v in ranks {
        if v == 0 {
            zero_run += 1;
        } else {
            flush(&mut out, &mut zero_run);
            out.push(u16::from(v) + 1);
        }
    }
    flush(&mut out, &mut zero_run);
    out
}

/// Invert [`rle2_encode`]. Stops at (and consumes) nothing: the caller feeds
/// exactly the symbols of one block, excluding EOB.
fn rle2_decode(symbols: &[u16], expected_len: usize) -> Result<Vec<u8>> {
    let mut out = Vec::with_capacity(crate::clamped_capacity(expected_len as u64));
    let mut run = 0usize;
    let mut place = 1usize;
    let mut in_run = false;
    let flush = |out: &mut Vec<u8>, run: &mut usize, place: &mut usize, in_run: &mut bool| {
        if *in_run {
            out.extend(std::iter::repeat_n(0u8, *run));
            *run = 0;
            *place = 1;
            *in_run = false;
        }
    };
    // Run lengths grow bijectively (place doubles per digit), so a hostile
    // digit string can push them toward overflow long before the length
    // check below fires; every step is checked.
    let overflow = || CodecError::Corrupt("rle2 run length overflow");
    for &s in symbols {
        match s {
            RUNA => {
                run = run.checked_add(place).ok_or_else(overflow)?;
                place = place.checked_mul(2).ok_or_else(overflow)?;
                in_run = true;
            }
            RUNB => {
                let two = place.checked_mul(2).ok_or_else(overflow)?;
                run = run.checked_add(two).ok_or_else(overflow)?;
                place = two;
                in_run = true;
            }
            2..=256 => {
                flush(&mut out, &mut run, &mut place, &mut in_run);
                out.push((s - 1) as u8);
            }
            _ => return Err(CodecError::Corrupt("invalid rle2 symbol")),
        }
        if out.len().checked_add(run).is_none_or(|t| t > expected_len) {
            return Err(CodecError::Corrupt("rle2 output exceeds block length"));
        }
    }
    flush(&mut out, &mut run, &mut place, &mut in_run);
    if out.len() != expected_len {
        return Err(CodecError::Corrupt("rle2 output length mismatch"));
    }
    Ok(out)
}

/// Symbols per Huffman group (bzip2's constant).
const GROUP: usize = 50;
/// Maximum coding tables per block (bzip2 allows 6).
const MAX_TABLES: usize = 6;
/// Refinement passes of the assign/refit loop.
const ITERS: usize = 4;

/// bzip2-style table count heuristic by symbol-stream length.
fn choose_n_tables(n_symbols: usize) -> usize {
    match n_symbols {
        0..=199 => 1,
        200..=599 => 2,
        600..=1199 => 3,
        1200..=2399 => 4,
        2400..=5999 => 5,
        _ => MAX_TABLES,
    }
}

/// Greedy multi-table fit (bzip2's group coding): split `symbols` into
/// 50-symbol groups, then iterate {assign each group to its cheapest table,
/// refit each table's code lengths to its assigned groups}. Returns the
/// per-table lengths and the per-group selectors.
fn fit_tables(symbols: &[u16], n_tables: usize) -> (Vec<Vec<u8>>, Vec<u8>) {
    let n_groups = symbols.len().div_ceil(GROUP);
    let mut selectors: Vec<u8> = (0..n_groups).map(|g| (g % n_tables) as u8).collect();
    let mut lengths: Vec<Vec<u8>> = vec![vec![0u8; ALPHABET]; n_tables];

    let refit = |selectors: &[u8], lengths: &mut Vec<Vec<u8>>| {
        let mut freqs = vec![[0u64; ALPHABET]; n_tables];
        // One selector per group by construction: zip instead of indexing.
        for (group, &sel) in symbols.chunks(GROUP).zip(selectors.iter()) {
            if let Some(freq) = freqs.get_mut(sel as usize) {
                for &sym in group {
                    if let Some(f) = freq.get_mut(sym as usize) {
                        *f += 1;
                    }
                }
            }
        }
        for (table, freq) in lengths.iter_mut().zip(freqs.iter()) {
            if freq.iter().any(|&f| f > 0) {
                *table = package_merge_lengths(freq, 15);
            }
        }
    };

    refit(&selectors, &mut lengths);
    for _ in 0..ITERS {
        // Assign: cheapest table per group. Symbols absent from a table cost
        // an effective 16 bits so that table is avoided, not chosen blindly.
        selectors = symbols
            .chunks(GROUP)
            .map(|group| {
                let mut best = (u64::MAX, 0usize);
                for (t, table) in lengths.iter().enumerate() {
                    let cost: u64 = group
                        .iter()
                        .map(|&sym| match table.get(sym as usize).copied().unwrap_or(0) {
                            0 => 16,
                            l => u64::from(l),
                        })
                        .sum();
                    if cost < best.0 {
                        best = (cost, t);
                    }
                }
                best.1 as u8
            })
            .collect();
        refit(&selectors, &mut lengths);
    }
    // Final safety refit so every selected table covers its symbols.
    refit(&selectors, &mut lengths);
    (lengths, selectors)
}

fn compress_block(block: &[u8], out: &mut Vec<u8>) {
    let (bwt, primary) = bwt_forward(block);
    let ranks = mtf_forward(&bwt);
    let mut symbols = rle2_encode(&ranks);
    symbols.push(EOB);

    let n_tables = choose_n_tables(symbols.len());
    let (lengths, selectors) = fit_tables(&symbols, n_tables);
    let encoders: Vec<Encoder> = lengths.iter().map(|l| Encoder::from_lengths(l)).collect();

    write_varint(out, block.len() as u64);
    write_varint(out, primary as u64);
    write_varint(out, n_tables as u64);
    write_varint(out, selectors.len() as u64);
    let mut w = BitWriter::new();
    // Selectors: 3 bits each (n_tables ≤ 6).
    for &sel in &selectors {
        w.write_bits(u64::from(sel), 3);
    }
    // Per-table code lengths: 258 × 4 bits (lengths are ≤ 15).
    for table in &lengths {
        for &l in table {
            w.write_bits(u64::from(l), 4);
        }
    }
    // Symbol stream, switching tables every GROUP symbols. fit_tables
    // returns one selector per group, all below n_tables: zip and look up.
    for (group, &sel) in symbols.chunks(GROUP).zip(selectors.iter()) {
        let Some(enc) = encoders.get(sel as usize) else {
            continue;
        };
        for &sym in group {
            let sym = sym as usize;
            let code = enc.codes.get(sym).copied().unwrap_or(0);
            let len = enc.lengths.get(sym).copied().unwrap_or(0);
            debug_assert!(len > 0, "selected table misses symbol");
            w.write_bits(u64::from(code), u32::from(len));
        }
    }
    let payload = w.finish();
    write_varint(out, payload.len() as u64);
    out.extend_from_slice(&payload);
}

fn decompress_block(input: &[u8], pos: &mut usize, out: &mut Vec<u8>) -> Result<()> {
    let next_varint = |pos: &mut usize| -> Result<u64> {
        let (v, used) = read_varint(input.get(*pos..).ok_or(CodecError::Truncated)?)?;
        *pos = pos.checked_add(used).ok_or(CodecError::Truncated)?;
        Ok(v)
    };
    let block_len = next_varint(pos)?;
    let primary = next_varint(pos)?;
    let n_tables = next_varint(pos)? as usize;
    let n_groups = next_varint(pos)? as usize;
    if n_tables == 0 || n_tables > MAX_TABLES {
        return Err(CodecError::Corrupt("bwt table count out of range"));
    }
    // All plausibility bounds saturate: block_len is attacker-controlled.
    let symbol_cap = (block_len as usize).saturating_mul(2).saturating_add(64);
    if n_groups > symbol_cap {
        return Err(CodecError::Corrupt("bwt group count implausible"));
    }
    let payload_len = next_varint(pos)? as usize;
    let payload_end = pos.checked_add(payload_len).ok_or(CodecError::Truncated)?;
    let payload = input.get(*pos..payload_end).ok_or(CodecError::Truncated)?;
    *pos = payload_end;

    let mut r = BitReader::new(payload);
    let mut selectors = Vec::with_capacity(crate::clamped_capacity(n_groups as u64));
    for _ in 0..n_groups {
        let sel = r.read_bits(3)? as usize;
        if sel >= n_tables {
            return Err(CodecError::Corrupt("bwt selector out of range"));
        }
        selectors.push(sel);
    }
    let mut decoders: Vec<Option<Decoder>> = Vec::with_capacity(n_tables);
    for _ in 0..n_tables {
        let mut lengths = [0u8; ALPHABET];
        for l in lengths.iter_mut() {
            *l = r.read_bits(4)? as u8;
        }
        // Unselected tables may be all-zero; only materialize valid ones.
        decoders.push(Decoder::from_lengths(&lengths).ok());
    }
    let mut symbols = Vec::new();
    'groups: for &sel in &selectors {
        let dec = decoders
            .get(sel)
            .and_then(|d| d.as_ref())
            .ok_or(CodecError::Corrupt("selector references empty table"))?;
        for _ in 0..GROUP {
            let s = dec.decode(&mut r)?;
            if s == EOB {
                break 'groups;
            }
            symbols.push(s);
            if symbols.len() > symbol_cap {
                return Err(CodecError::Corrupt("rle2 symbol stream too long"));
            }
        }
    }
    let ranks = rle2_decode(&symbols, block_len as usize)?;
    let bwt = mtf_inverse(&ranks);
    let block = bwt_inverse(&bwt, primary as usize)?;
    out.extend_from_slice(&block);
    Ok(())
}

/// BWT keeps no state between calls, so both methods ignore `scratch`.
impl Codec for BwtCodec {
    fn name(&self) -> &'static str {
        "bwt"
    }

    fn compress_with(&self, input: &[u8], _scratch: &mut CodecScratch) -> Result<Vec<u8>> {
        let mut out = Vec::with_capacity(input.len() / 2 + 32);
        out.extend_from_slice(MAGIC);
        write_varint(&mut out, input.len() as u64);
        for block in input.chunks(self.block_size) {
            compress_block(block, &mut out);
        }
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
        let body_end = input.len() - 4;
        let mut pos = 4usize;
        let (total_len, used) = read_varint(input.get(pos..body_end).unwrap_or(&[]))?;
        pos = pos.checked_add(used).ok_or(CodecError::Truncated)?;
        out.clear();
        out.reserve(crate::clamped_capacity(total_len));
        while (out.len() as u64) < total_len {
            if pos >= body_end {
                return Err(CodecError::Truncated);
            }
            decompress_block(input, &mut pos, out)?;
        }
        if out.len() as u64 != total_len {
            return Err(CodecError::LengthMismatch {
                expected: total_len as usize,
                actual: out.len(),
            });
        }
        let stored = u32::from_le_bytes(crate::read_array(input, body_end)?);
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

    #[test]
    fn bwt_banana() {
        // BWT("banana") with sentinel convention: rows of "banana$" sorted:
        // $banana, a$banan, ana$ban, anana$b, banana$, na$bana, nana$ba
        // last column = a n n b $ a a → bwt without $ = "annbaa", primary=4.
        let (bwt, primary) = bwt_forward(b"banana");
        assert_eq!(bwt, b"annbaa");
        assert_eq!(primary, 4);
        assert_eq!(bwt_inverse(&bwt, primary).unwrap(), b"banana");
    }

    #[test]
    fn bwt_roundtrip_various() {
        for data in [
            &b""[..],
            b"a",
            b"ab",
            b"aaaa",
            b"mississippi",
            &b"the quick brown fox".repeat(17),
            &[0u8, 255, 0, 255, 128],
        ] {
            let (bwt, primary) = bwt_forward(data);
            assert_eq!(bwt_inverse(&bwt, primary).unwrap(), data, "{data:?}");
        }
    }

    #[test]
    fn bwt_inverse_rejects_bad_primary() {
        let (bwt, _) = bwt_forward(b"hello world");
        assert!(bwt_inverse(&bwt, 0).is_err());
        assert!(bwt_inverse(&bwt, bwt.len() + 1).is_err());
    }

    #[test]
    fn mtf_roundtrip_and_front_loading() {
        let data = b"aaabbbaaacccaaa";
        let ranks = mtf_forward(data);
        assert_eq!(mtf_inverse(&ranks), data);
        // Repeated symbols should produce rank 0 after their first use.
        let zeros = ranks.iter().filter(|&&r| r == 0).count();
        assert!(zeros >= 9, "expected many zero ranks, got {zeros}");
    }

    #[test]
    fn rle2_known_runs() {
        // 1 zero → RUNA; 2 zeros → RUNB; 3 → RUNA RUNA; 4 → RUNB RUNA.
        assert_eq!(rle2_encode(&[0]), vec![RUNA]);
        assert_eq!(rle2_encode(&[0, 0]), vec![RUNB]);
        assert_eq!(rle2_encode(&[0, 0, 0]), vec![RUNA, RUNA]);
        assert_eq!(rle2_encode(&[0, 0, 0, 0]), vec![RUNB, RUNA]);
        // Literal 5 → symbol 6.
        assert_eq!(rle2_encode(&[5]), vec![6]);
    }

    #[test]
    fn rle2_roundtrip_random() {
        let mut x = 77u64;
        let ranks: Vec<u8> = (0..10_000)
            .map(|_| {
                x = x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
                // Bias towards zero like real MTF output.
                let v = (x >> 60) as u8;
                if v < 10 {
                    v.saturating_sub(7)
                } else {
                    v
                }
            })
            .collect();
        let symbols = rle2_encode(&ranks);
        assert_eq!(rle2_decode(&symbols, ranks.len()).unwrap(), ranks);
    }

    #[test]
    fn codec_roundtrip_text_and_binary() {
        let codec = BwtCodec::default();
        let text = b"It was the best of times, it was the worst of times".repeat(100);
        let comp = codec.compress(&text).unwrap();
        assert!(comp.len() < text.len() / 3);
        assert_eq!(codec.decompress(&comp).unwrap(), text);
    }

    #[test]
    fn codec_multi_block() {
        let codec = BwtCodec::with_block_size(1000);
        let data: Vec<u8> = (0..10_500u32).map(|i| ((i / 3) % 255) as u8).collect();
        let comp = codec.compress(&data).unwrap();
        assert_eq!(codec.decompress(&comp).unwrap(), data);
    }

    #[test]
    fn codec_empty_input() {
        let codec = BwtCodec::default();
        let comp = codec.compress(&[]).unwrap();
        assert_eq!(codec.decompress(&comp).unwrap(), Vec::<u8>::new());
    }

    #[test]
    fn codec_detects_corruption() {
        let codec = BwtCodec::default();
        let data = b"guard this payload against bit flips".repeat(20);
        let mut comp = codec.compress(&data).unwrap();
        let mid = comp.len() / 2;
        comp[mid] ^= 0x04;
        assert!(codec.decompress(&comp).is_err());
    }

    #[test]
    fn codec_rejects_bad_magic() {
        let codec = BwtCodec::default();
        let mut comp = codec.compress(b"x").unwrap();
        comp[1] = b'?';
        assert!(matches!(codec.decompress(&comp), Err(CodecError::BadMagic)));
    }

    #[test]
    fn table_count_heuristic_is_monotone() {
        assert_eq!(choose_n_tables(0), 1);
        assert_eq!(choose_n_tables(199), 1);
        assert_eq!(choose_n_tables(200), 2);
        assert_eq!(choose_n_tables(10_000), MAX_TABLES);
        let mut last = 0;
        for n in [0usize, 200, 600, 1200, 2400, 6000] {
            let t = choose_n_tables(n);
            assert!(t >= last);
            last = t;
        }
    }

    #[test]
    fn fit_tables_covers_every_selected_symbol() {
        // Heterogeneous stream: first half draws from a low alphabet, second
        // half from a high one — exactly what group switching exploits.
        let mut symbols: Vec<u16> = (0..2_000).map(|i| (i % 5) as u16).collect();
        symbols.extend((0..2_000).map(|i| 100 + (i % 7) as u16));
        symbols.push(EOB);
        let n_tables = choose_n_tables(symbols.len());
        assert!(n_tables >= 2);
        let (lengths, selectors) = fit_tables(&symbols, n_tables);
        assert_eq!(selectors.len(), symbols.len().div_ceil(GROUP));
        for (g, group) in symbols.chunks(GROUP).enumerate() {
            let table = &lengths[selectors[g] as usize];
            for &sym in group {
                assert!(table[sym as usize] > 0, "group {g} symbol {sym} uncovered");
            }
        }
        // The two halves should not share one table exclusively.
        let first = selectors[0];
        assert!(selectors.iter().any(|&s| s != first));
    }

    #[test]
    fn multi_table_beats_single_on_heterogeneous_blocks() {
        // A block whose two halves have different symbol statistics: group
        // switching must pay for its selector overhead.
        let mut data = Vec::new();
        for i in 0..30_000u32 {
            data.push((i % 4) as u8); // dense low-alphabet region
        }
        let mut x = 99u64;
        for _ in 0..30_000 {
            x = x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
            data.push(128 + ((x >> 33) % 64) as u8); // wide high-alphabet region
        }
        let codec = BwtCodec::default();
        let comp = codec.compress(&data).unwrap();
        assert_eq!(codec.decompress(&comp).unwrap(), data);
        // Compare against a forced single-table encoding by shrinking blocks
        // below the 200-symbol multi-table threshold is not equivalent, so
        // just sanity-bound the ratio: heterogeneous structured data must
        // compress well.
        assert!(
            comp.len() * 2 < data.len(),
            "{} of {}",
            comp.len(),
            data.len()
        );
    }

    #[test]
    fn beats_naive_on_text() {
        // Sanity: BWT+MTF+RLE+Huffman should compress structured text well.
        let data = std::iter::repeat_n(&b"abcabcabdabcabcacb-the-cat-sat-on-the-mat-"[..], 200)
            .flatten()
            .copied()
            .collect::<Vec<u8>>();
        let comp = BwtCodec::default().compress(&data).unwrap();
        assert!(comp.len() * 5 < data.len());
    }
}
