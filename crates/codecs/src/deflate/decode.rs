//! INFLATE: a complete decoder for raw DEFLATE streams.
//!
//! Symbol decoding is table-driven in the libdeflate style. Each Huffman
//! alphabet compiles into a flat `u32` entry array: a *primary* table indexed
//! by the next [`LITLEN_TABLE_BITS`] (or [`DIST_TABLE_BITS`]) low bits of the
//! stream, with *subtables* appended to the same array for codes longer than
//! the primary width. One peek therefore resolves a whole symbol — literal,
//! end-of-block, or a length/distance base with its extra-bit count — in one
//! or two loads, replacing the bit-at-a-time tree walk. Primary entries whose
//! literal is short enough additionally pre-merge the *next* literal
//! ([`K_LIT2`]), so skewed literal-heavy blocks emit two bytes per lookup.
//!
//! The entry layout (see [`K_LIT1`] and friends):
//!
//! ```text
//! bits 0..3   kind (invalid / lit1 / lit2 / len / eob / subtable / bad-sym)
//! bits 3..9   bits consumed by this entry (subtable links: subtable width)
//! bits 9..32  payload: literal byte(s), base+extra counts, subtable start
//! ```
//!
//! Table construction validates the code with
//! [`crate::huffman::validate_prefix_code`] first, so the tables only ever
//! describe complete prefix codes (plus the RFC 1951 §3.2.7 degenerate
//! single-symbol exception) and every in-bounds lookup is well-defined;
//! unreachable slots keep [`K_INVALID`] and surface as corrupt-stream errors,
//! never as panics.

use super::{
    CODELEN_ORDER, DIST_BASE, DIST_EXTRA, END_OF_BLOCK, LENGTH_BASE, LENGTH_EXTRA, NUM_CODELEN,
};
use crate::bitio::{reverse_bits, BitReader};
use crate::error::{CodecError, Result};
use crate::huffman::{canonical_codes_into, validate_prefix_code, Decoder};

/// Primary-table index width for the literal/length alphabet. 11 bits keeps
/// the table at 8 KiB and lets two literals of ≤ 11 total code bits merge
/// into one entry — typical PRIMACY high-byte planes code hot literals in
/// 2–6 bits, so double-literal hits are common there.
const LITLEN_TABLE_BITS: u32 = 11;
/// Primary-table index width for the distance alphabet. PRIMACY residual
/// planes put most of their match mass at far distances (large dist codes,
/// often 9–12 bits), so a 10-bit primary (4 KiB) resolves the typical
/// distance in one load where an 8-bit primary forced a dependent subtable
/// hop on exactly the hottest symbols.
const DIST_TABLE_BITS: u32 = 10;
/// Deepest code either alphabet may use (RFC 1951), hence the widest peek a
/// primary+subtable resolution can need.
const MAX_CODE_BITS: u32 = 15;

/// Entry kinds (bits 0..3 of an entry).
const K_INVALID: u32 = 0;
/// One literal byte; payload = the byte.
const K_LIT1: u32 = 1;
/// Two merged literal bytes; payload = first | second << 8.
const K_LIT2: u32 = 2;
/// Length symbol; payload = base | extra_bit_count << 9.
const K_LEN: u32 = 3;
/// End of block; no payload.
const K_EOB: u32 = 4;
/// Subtable link; consumed field = subtable width, payload = start index.
const K_SUB: u32 = 5;
/// A symbol RFC 1951 reserves (litlen 286/287, dist ≥ 30): representable in
/// a header, invalid in a stream.
const K_BADSYM: u32 = 6;
/// Distance symbol; payload = base | extra_bit_count << 15.
const K_DIST: u32 = 7;

#[inline]
fn entry_kind(e: u32) -> u32 {
    e & 0x7
}

#[inline]
fn entry_consumed(e: u32) -> u32 {
    (e >> 3) & 0x3f
}

#[inline]
fn entry_payload(e: u32) -> u32 {
    e >> 9
}

#[inline]
fn make_entry(kind: u32, consumed: u32, payload: u32) -> u32 {
    debug_assert!(kind <= 7 && consumed < 64 && payload < (1 << 23));
    kind | (consumed << 3) | (payload << 9)
}

/// One compiled decode table: primary entries first, subtables appended.
#[derive(Debug, Default)]
struct Table {
    entries: Vec<u32>,
    /// Primary index width in bits (≤ the alphabet's `*_TABLE_BITS`).
    bits: u32,
}

impl Table {
    /// Resolve the next symbol from `bits` (≥ [`MAX_CODE_BITS`] peeked
    /// stream bits): primary lookup, then one subtable hop if linked.
    #[inline]
    fn lookup(&self, bits: u64) -> u32 {
        let mask = (1usize << self.bits) - 1;
        let e = self
            .entries
            .get(bits as usize & mask)
            .copied()
            .unwrap_or(K_INVALID);
        if entry_kind(e) != K_SUB {
            return e;
        }
        let sub_mask = (1usize << entry_consumed(e)) - 1;
        let idx =
            (entry_payload(e) as usize).saturating_add((bits as usize >> self.bits) & sub_mask);
        self.entries.get(idx).copied().unwrap_or(K_INVALID)
    }

    /// Compile the literal/length table for `lengths`, then merge adjacent
    /// short literals into [`K_LIT2`] entries.
    fn build_litlen(
        &mut self,
        lengths: &[u8],
        group_len: &mut Vec<u8>,
        codes: &mut Vec<u32>,
    ) -> Result<()> {
        self.bits = fill_table(
            &mut self.entries,
            group_len,
            codes,
            lengths,
            LITLEN_TABLE_BITS,
            litlen_entry,
        )?;
        // Double-literal pass, primary region only. For an entry at index
        // `i` decoding a literal of `len1` bits, the following symbol's
        // lookup index is known only in its low `bits - len1` bits; the
        // entry at `i >> len1` (high bits zero) decodes the same second
        // symbol as the live stream would *iff* its own code fits in those
        // known bits — the `len1 + len2 <= bits` guard. Iterating downward
        // reads only not-yet-merged (single-literal) entries, so merged
        // pairs never chain into triples; `i == 0` reads its own pre-merge
        // value, correctly pairing the all-zeros code with itself.
        let size = 1usize << self.bits;
        for i in (0..size).rev() {
            let e1 = self.entries.get(i).copied().unwrap_or(K_INVALID);
            if entry_kind(e1) != K_LIT1 {
                continue;
            }
            let len1 = entry_consumed(e1);
            let e2 = self.entries.get(i >> len1).copied().unwrap_or(K_INVALID);
            if entry_kind(e2) == K_LIT1 {
                let len2 = entry_consumed(e2);
                // lint: allow(overflow) -- both lengths are 6-bit entry fields
                if len1 + len2 <= self.bits {
                    let pair = (entry_payload(e1) & 0xff) | ((entry_payload(e2) & 0xff) << 8);
                    if let Some(slot) = self.entries.get_mut(i) {
                        // lint: allow(overflow) -- both lengths are 6-bit entry fields
                        *slot = make_entry(K_LIT2, len1 + len2, pair);
                    }
                }
            }
        }
        Ok(())
    }

    /// Compile the distance table for `lengths`.
    fn build_dist(
        &mut self,
        lengths: &[u8],
        group_len: &mut Vec<u8>,
        codes: &mut Vec<u32>,
    ) -> Result<()> {
        self.bits = fill_table(
            &mut self.entries,
            group_len,
            codes,
            lengths,
            DIST_TABLE_BITS,
            dist_entry,
        )?;
        Ok(())
    }
}

fn litlen_entry(sym: u16, len: u32) -> u32 {
    match sym {
        0..=255 => make_entry(K_LIT1, len, u32::from(sym)),
        END_OF_BLOCK => make_entry(K_EOB, len, 0),
        257..=285 => {
            let li = usize::from(sym - 257);
            match (LENGTH_BASE.get(li), LENGTH_EXTRA.get(li)) {
                (Some(&base), Some(&extra)) => {
                    make_entry(K_LEN, len, u32::from(base) | (u32::from(extra) << 9))
                }
                _ => make_entry(K_BADSYM, len, 0),
            }
        }
        _ => make_entry(K_BADSYM, len, 0),
    }
}

fn dist_entry(sym: u16, len: u32) -> u32 {
    let s = usize::from(sym);
    match (DIST_BASE.get(s), DIST_EXTRA.get(s)) {
        (Some(&base), Some(&extra)) => {
            make_entry(K_DIST, len, u32::from(base) | (u32::from(extra) << 15))
        }
        _ => make_entry(K_BADSYM, len, 0),
    }
}

/// Compile `lengths` into `entries`: validate the code, step-fill the
/// primary table for codes that fit, then allocate and fill one subtable per
/// over-long prefix (sized to the longest code sharing that prefix).
/// `group_len` and `codes` are caller-owned scratch (per-prefix depths and
/// canonical codes), so warm calls never touch the allocator.
/// Returns the primary width actually used.
fn fill_table(
    entries: &mut Vec<u32>,
    group_len: &mut Vec<u8>,
    codes: &mut Vec<u32>,
    lengths: &[u8],
    max_table_bits: u32,
    sym_entry: impl Fn(u16, u32) -> u32,
) -> Result<u32> {
    let max_len = validate_prefix_code(lengths)?;
    let table_bits = max_len.min(max_table_bits);
    let size = 1usize << table_bits;
    entries.clear();
    entries.resize(size, K_INVALID);
    canonical_codes_into(lengths, codes);

    // Short codes: every index whose low `len` bits equal the reversed code
    // decodes this symbol, so fill at stride 2^len.
    for ((sym, &len), &code) in lengths.iter().enumerate().zip(codes.iter()) {
        let len = u32::from(len);
        if len == 0 || len > table_bits {
            continue;
        }
        let e = sym_entry(sym as u16, len);
        let rev = reverse_bits(code, len) as usize;
        for slot in entries.iter_mut().skip(rev).step_by(1 << len) {
            *slot = e;
        }
    }

    if max_len > table_bits {
        // Pass 1: deepest code per primary prefix.
        group_len.clear();
        group_len.resize(size, 0);
        for ((_, &len), &code) in lengths.iter().enumerate().zip(codes.iter()) {
            let len32 = u32::from(len);
            if len32 <= table_bits {
                continue;
            }
            let prefix = reverse_bits(code, len32) as usize & (size - 1);
            if let Some(g) = group_len.get_mut(prefix) {
                *g = (*g).max(len);
            }
        }
        // Pass 2: allocate subtables and link them from the primary slots.
        for prefix in 0..size {
            let gl = u32::from(group_len.get(prefix).copied().unwrap_or(0));
            if gl == 0 {
                continue;
            }
            let sub_bits = gl - table_bits;
            let start = entries.len();
            let link = make_entry(K_SUB, sub_bits, start as u32);
            // lint: allow(overflow) -- validated code: primary + all subtables ≤ 2^15 entries
            entries.resize(start + (1usize << sub_bits), K_INVALID);
            if let Some(slot) = entries.get_mut(prefix) {
                *slot = link;
            }
        }
        // Pass 3: step-fill each long code inside its subtable, consuming
        // the full code length at lookup time.
        for ((sym, &len), &code) in lengths.iter().enumerate().zip(codes.iter()) {
            let len32 = u32::from(len);
            if len32 <= table_bits {
                continue;
            }
            let e = sym_entry(sym as u16, len32);
            let rev = reverse_bits(code, len32) as usize;
            let link = entries.get(rev & (size - 1)).copied().unwrap_or(K_INVALID);
            debug_assert_eq!(entry_kind(link), K_SUB);
            let start = entry_payload(link) as usize;
            let sub_size = 1usize << entry_consumed(link);
            if let Some(sub) = entries.get_mut(start..start.saturating_add(sub_size)) {
                for slot in sub
                    .iter_mut()
                    .skip(rev >> table_bits)
                    .step_by(1 << (len32 - table_bits))
                {
                    *slot = e;
                }
            }
        }
    }
    Ok(table_bits)
}

/// Reusable per-stream decode state: the two compiled tables plus the
/// header-parsing buffers, so a multi-block stream re-derives its dynamic
/// tables without re-allocating them. Callers decoding many streams (the
/// pipeline's per-chunk hot path) keep one instance per thread and pass it
/// to [`inflate_with`], so steady-state decode allocates nothing here.
#[derive(Debug, Default)]
pub struct InflateScratch {
    lit: Table,
    dist: Table,
    lengths: Vec<u8>,
    group_len: Vec<u8>,
    codes: Vec<u32>,
    cl_dec: Decoder,
}

impl InflateScratch {
    /// An empty scratch; table and length buffers grow on first use.
    pub fn new() -> Self {
        Self::default()
    }
}

/// Decompress a raw DEFLATE stream, appending to `out`, with caller-owned
/// decode state: the Huffman tables and header buffers in `scratch` are
/// reused, so a warm call performs no allocations beyond growing `out`.
///
/// Every DEFLATE decode in the workspace (raw [`super::inflate`], zlib and
/// gzip) runs through here, so this is where the `deflate.decode` span and
/// the `deflate.decode_bytes_{in,out}` counters are recorded. The span is
/// named apart from the pipeline's "deflate" stage span so the CLI stage
/// table never counts codec time twice.
pub fn inflate_with(input: &[u8], scratch: &mut InflateScratch, out: &mut Vec<u8>) -> Result<()> {
    let _span = primacy_trace::span("deflate.decode");
    let before = out.len();
    let mut r = BitReader::new(input);
    loop {
        let bfinal = r.read_bits(1)?;
        let btype = r.read_bits(2)?;
        match btype {
            0b00 => {
                primacy_trace::counter("inflate.blocks_stored", 1);
                inflate_stored(&mut r, out)?;
            }
            0b01 => {
                primacy_trace::counter("inflate.blocks_fixed", 1);
                let (lit, dist) = fixed_tables()?;
                inflate_block(&mut r, lit, dist, out)?;
            }
            0b10 => {
                primacy_trace::counter("inflate.blocks_dynamic", 1);
                read_dynamic_tables(&mut r, scratch)?;
                inflate_block(&mut r, &scratch.lit, &scratch.dist, out)?;
            }
            _ => return Err(CodecError::Corrupt("reserved block type 11")),
        }
        if bfinal == 1 {
            break;
        }
    }
    primacy_trace::counter("deflate.decode_bytes_in", input.len() as u64);
    primacy_trace::counter("deflate.decode_bytes_out", (out.len() - before) as u64);
    Ok(())
}

fn inflate_stored(r: &mut BitReader<'_>, out: &mut Vec<u8>) -> Result<()> {
    r.align_byte();
    let len = r.read_bits(16)? as u16;
    let nlen = r.read_bits(16)? as u16;
    if len != !nlen {
        return Err(CodecError::Corrupt("stored block LEN/NLEN mismatch"));
    }
    r.read_bytes(len as usize, out)
}

fn fixed_tables() -> Result<(&'static Table, &'static Table)> {
    use std::sync::OnceLock;
    static TABLES: OnceLock<Result<(Table, Table)>> = OnceLock::new();
    let tables = TABLES.get_or_init(|| {
        let mut group_len = Vec::new();
        let mut codes = Vec::new();
        let mut lit = Table::default();
        lit.build_litlen(
            &super::encode::fixed_litlen_lengths(),
            &mut group_len,
            &mut codes,
        )?;
        let mut dist = Table::default();
        dist.build_dist(
            &super::encode::fixed_dist_lengths(),
            &mut group_len,
            &mut codes,
        )?;
        Ok((lit, dist))
    });
    match tables {
        Ok((lit, dist)) => Ok((lit, dist)),
        Err(e) => Err(e.clone()),
    }
}

fn read_dynamic_tables(r: &mut BitReader<'_>, scratch: &mut InflateScratch) -> Result<()> {
    let hlit = r.read_bits(5)? as usize + 257;
    let hdist = r.read_bits(5)? as usize + 1;
    let hclen = r.read_bits(4)? as usize + 4;
    if hlit > 286 {
        return Err(CodecError::Corrupt("HLIT exceeds 286"));
    }
    if hdist > 30 {
        return Err(CodecError::Corrupt("HDIST exceeds 30"));
    }
    let mut cl_lengths = [0u8; NUM_CODELEN];
    for &idx in CODELEN_ORDER.iter().take(hclen) {
        if let Some(slot) = cl_lengths.get_mut(idx) {
            *slot = r.read_bits(3)? as u8;
        }
    }
    // Disjoint field borrows: the code-length decoder, the length buffer,
    // and both table builders all live in the same scratch.
    let InflateScratch {
        lit,
        dist,
        lengths,
        group_len,
        codes,
        cl_dec,
    } = scratch;
    cl_dec.rebuild(&cl_lengths, codes)?;

    let total = hlit.saturating_add(hdist); // <= 316 after the guards above
    lengths.clear();
    lengths.reserve(total);
    while lengths.len() < total {
        let sym = cl_dec.decode(r)?;
        match sym {
            0..=15 => lengths.push(sym as u8),
            16 => {
                let prev = *lengths
                    .last()
                    .ok_or(CodecError::Corrupt("repeat with no previous length"))?;
                let n = r.read_bits(2)? as usize + 3;
                if n > total - lengths.len() {
                    return Err(CodecError::Corrupt("length repeat overflows table"));
                }
                lengths.extend(std::iter::repeat_n(prev, n));
            }
            17 => {
                let n = r.read_bits(3)? as usize + 3;
                if n > total - lengths.len() {
                    return Err(CodecError::Corrupt("zero run overflows table"));
                }
                lengths.extend(std::iter::repeat_n(0u8, n));
            }
            18 => {
                let n = r.read_bits(7)? as usize + 11;
                if n > total - lengths.len() {
                    return Err(CodecError::Corrupt("zero run overflows table"));
                }
                lengths.extend(std::iter::repeat_n(0u8, n));
            }
            _ => return Err(CodecError::Corrupt("invalid code-length symbol")),
        }
    }
    let (lit_lengths, dist_lengths) = lengths
        .split_at_checked(hlit)
        .ok_or(CodecError::Corrupt("code-length table underfilled"))?;
    lit.build_litlen(lit_lengths, group_len, codes)?;
    dist.build_dist(dist_lengths, group_len, codes)?;
    Ok(())
}

/// Widest peek the fast loop takes per batch: the bit reader's refill
/// guarantee.
const PEEK_BITS: u32 = 56;
/// A batch may keep decoding from its cached peek while at least
/// [`MAX_CODE_BITS`] of it remain unconsumed.
const FAST_SLOP: u32 = PEEK_BITS - MAX_CODE_BITS;

fn inflate_block(
    r: &mut BitReader<'_>,
    lit: &Table,
    dist: &Table,
    out: &mut Vec<u8>,
) -> Result<()> {
    // Local multi-symbol tallies, flushed to the `deflate.sym_per_lookup`
    // histogram once per block so the hot loop never touches thread-locals.
    let mut lookups_1sym = 0u64;
    let mut lookups_2sym = 0u64;
    // One wide peek buys up to `FAST_SLOP` bits of lookups resolved from a
    // local shift register; `used` tracks how much of the peek is spoken
    // for, and a single `consume(used)` commits whenever the register runs
    // low — including *across* matches, so a match does not force a
    // commit/refill round of its own. Bits past end-of-input peek as zero;
    // the commit still fails on truncation, so over-decoded bytes only ever
    // land in an output the caller is about to discard.
    let mut bits = r.peek_bits(PEEK_BITS);
    let mut used = 0u32;
    loop {
        // Decoded literals stage in a fixed 8-byte word committed with one
        // constant-size append + truncate (the same wide-store idiom as
        // `copy_match`), so the per-literal cost is a register write instead
        // of a `Vec` capacity check and length update per byte.
        let mut word = [0u8; 8];
        let mut staged = 0usize;
        let pending = loop {
            let e = lit.lookup(bits);
            match entry_kind(e) {
                K_LIT1 => {
                    bits >>= entry_consumed(e);
                    // lint: allow(overflow) -- `used` stays ≤ PEEK_BITS + one entry width
                    used += entry_consumed(e);
                    // lint: allow(index) -- masked into the fixed [u8; 8] word
                    word[staged & 7] = entry_payload(e) as u8;
                    staged += 1;
                    lookups_1sym += 1;
                }
                K_LIT2 => {
                    bits >>= entry_consumed(e);
                    // lint: allow(overflow) -- `used` stays ≤ PEEK_BITS + one entry width
                    used += entry_consumed(e);
                    let pair = entry_payload(e);
                    // lint: allow(index) -- masked into the fixed [u8; 8] word
                    word[staged & 7] = pair as u8;
                    // lint: allow(index) -- masked into the fixed [u8; 8] word
                    word[(staged + 1) & 7] = (pair >> 8) as u8;
                    staged += 2;
                    lookups_2sym += 1;
                }
                _ => break Some(e),
            }
            if staged >= 7 || used > FAST_SLOP {
                break None;
            }
        };
        if staged > 0 {
            // lint: allow(overflow) -- Vec::len + 8 cannot overflow usize
            let keep = out.len() + staged.min(8);
            out.extend_from_slice(&word);
            out.truncate(keep);
        }
        let Some(e) = pending else {
            // Cached peek ran dry mid-run; commit it and start a fresh batch.
            r.consume(used)?;
            bits = r.peek_bits(PEEK_BITS);
            used = 0;
            continue;
        };
        match entry_kind(e) {
            K_LEN => {
                // Up to the distance extra bits, a match needs length symbol
                // + length extra + distance symbol = 15+5+15 = 35 bits; the
                // length symbol's own lookup was already covered by the
                // staging loop's `FAST_SLOP` guarantee. Commit and re-peek
                // only when fewer than 35 cached bits remain — after a short
                // literal run the register usually still has them, so most
                // matches decode without touching the reader at all.
                if used > PEEK_BITS - 35 {
                    r.consume(used)?;
                    bits = r.peek_bits(PEEK_BITS);
                    used = 0;
                }
                bits >>= entry_consumed(e);
                // lint: allow(overflow) -- `used` stays ≤ PEEK_BITS + one match's code bits
                used += entry_consumed(e);
                let p = entry_payload(e);
                let len_extra = p >> 9;
                let len = ((p & 0x1ff) as usize)
                    .saturating_add((bits & ((1u64 << len_extra) - 1)) as usize);
                bits >>= len_extra;
                // lint: allow(overflow) -- `used` stays ≤ PEEK_BITS + one match's code bits
                used += len_extra;
                let de = dist.lookup(bits);
                match entry_kind(de) {
                    K_DIST => {
                        bits >>= entry_consumed(de);
                        // lint: allow(overflow) -- `used` stays ≤ PEEK_BITS + 35
                        used += entry_consumed(de);
                        let dp = entry_payload(de);
                        let dist_extra = dp >> 15;
                        // Worst case the register is now 56 - 13 bits deep;
                        // spill mid-match in the rare case the distance
                        // extra bits do not fit (re-syncing the reader at an
                        // arbitrary bit position is sound: `used` counts
                        // exactly the bits decoded so far).
                        // lint: allow(overflow) -- small bounded u32 quantities
                        if used + dist_extra > PEEK_BITS {
                            r.consume(used)?;
                            bits = r.peek_bits(PEEK_BITS);
                            used = 0;
                        }
                        let d = ((dp & 0x7fff) as usize)
                            .saturating_add((bits & ((1u64 << dist_extra) - 1)) as usize);
                        bits >>= dist_extra;
                        // lint: allow(overflow) -- `used` stays ≤ PEEK_BITS + 35
                        used += dist_extra;
                        if d > out.len() {
                            r.consume(used)?;
                            return Err(CodecError::Corrupt(
                                "distance reaches before output start",
                            ));
                        }
                        copy_match(out, d, len);
                        // Keep decoding from the same register if at least
                        // one full code width remains; commit otherwise.
                        if used > FAST_SLOP {
                            r.consume(used)?;
                            bits = r.peek_bits(PEEK_BITS);
                            used = 0;
                        }
                    }
                    K_BADSYM => return Err(CodecError::Corrupt("invalid distance code")),
                    _ => return Err(CodecError::Corrupt("invalid huffman code")),
                }
                lookups_1sym += 1;
            }
            K_EOB => {
                // lint: allow(overflow) -- `used` ≤ PEEK_BITS, entry width ≤ 15
                r.consume(used + entry_consumed(e))?;
                lookups_1sym += 1;
                primacy_trace::observe_many("deflate.sym_per_lookup", 1, lookups_1sym);
                primacy_trace::observe_many("deflate.sym_per_lookup", 2, lookups_2sym);
                return Ok(());
            }
            K_BADSYM => return Err(CodecError::Corrupt("invalid literal/length code")),
            _ => return Err(CodecError::Corrupt("invalid huffman code")),
        }
    }
}

/// Copy `len` bytes from `dist` back, handling the self-overlapping case
/// (dist < len) that RLE-style references rely on: each pass copies as
/// much as the already-materialized suffix allows, so the copied span
/// doubles per pass instead of moving byte by byte.
#[inline]
fn copy_match(out: &mut Vec<u8>, dist: usize, len: usize) {
    // The caller checks 1 <= dist <= out.len() (DIST_BASE starts at 1);
    // a zero dist would stall the loop, so bail out defensively.
    if dist == 0 {
        return;
    }
    if len <= 8 {
        // Short non-overlapping match (the bulk of LZ77 output on PRIMACY
        // planes: length 3..=8 at distance ≥ 8): copy a fixed 8-byte window
        // and trim, so the copy compiles to one unconditional 8-byte load
        // and store instead of a variable-length memcpy dispatch. The range
        // check doubles as the dist ≥ 8 guard — `get` fails exactly when
        // the source window would run past the end of `out`.
        if let Some(start) = out.len().checked_sub(dist) {
            if let Some(w) = out.get(start..start.saturating_add(8)) {
                if let Ok(src) = <[u8; 8]>::try_from(w) {
                    out.extend_from_slice(&src);
                    out.truncate(out.len().saturating_sub(8 - len));
                    return;
                }
            }
        }
    }
    if dist == 1 {
        // Run of the final byte: one memset-class fill instead of log2(len)
        // doubling copies.
        if let Some(&b) = out.last() {
            out.resize(out.len().saturating_add(len), b);
        }
        return;
    }
    let Some(start) = out.len().checked_sub(dist) else {
        return;
    };
    if dist >= len {
        // Source and destination cannot overlap: one wide copy.
        out.extend_from_within(start..start.saturating_add(len));
        return;
    }
    let mut remaining = len;
    out.reserve(len);
    while remaining > 0 {
        let avail = out.len().saturating_sub(start);
        let chunk = avail.min(remaining).max(1);
        out.extend_from_within(start..start.saturating_add(chunk));
        remaining = remaining.saturating_sub(chunk);
    }
}

#[cfg(test)]
mod tests {
    use super::super::{deflate, inflate, Level};
    use super::*;
    use crate::huffman::canonical_codes;

    #[test]
    fn rejects_reserved_block_type() {
        // BFINAL=1, BTYPE=11.
        let data = [0b0000_0111u8];
        assert!(matches!(
            inflate(&data),
            Err(CodecError::Corrupt("reserved block type 11"))
        ));
    }

    #[test]
    fn rejects_bad_stored_nlen() {
        // BFINAL=1, BTYPE=00, then LEN=1, NLEN=1 (should be !1).
        let mut bytes = vec![0b0000_0001u8];
        bytes.extend_from_slice(&1u16.to_le_bytes());
        bytes.extend_from_slice(&1u16.to_le_bytes());
        bytes.push(0xAA);
        assert!(inflate(&bytes).is_err());
    }

    #[test]
    fn rejects_truncated_stream() {
        let comp = deflate(b"some reasonably long input to compress", Level::Default);
        for cut in 1..comp.len().min(12) {
            let r = inflate(&comp[..comp.len() - cut]);
            assert!(r.is_err(), "cut {cut} should fail");
        }
    }

    #[test]
    fn rejects_distance_before_start() {
        // Hand-build a fixed-Huffman block: literal 'A', then a match with
        // distance 4 (> 1 byte of history).
        use crate::bitio::{reverse_bits, BitWriter};
        let mut w = BitWriter::new();
        w.write_bits(1, 1); // BFINAL
        w.write_bits(0b01, 2); // fixed
                               // literal 'A' (65): code = 0x30 + 65 = 113, 8 bits MSB-first.
        w.write_bits(u64::from(reverse_bits(0x30 + 65, 8)), 8);
        // length code 257 (len 3): 7-bit code value 1.
        w.write_bits(u64::from(reverse_bits(1, 7)), 7);
        // distance code 3 (dist 4): 5-bit code.
        w.write_bits(u64::from(reverse_bits(3, 5)), 5);
        // EOB (256): 7-bit code 0.
        w.write_bits(u64::from(reverse_bits(0, 7)), 7);
        let bytes = w.finish();
        let err = inflate(&bytes).unwrap_err();
        assert!(matches!(err, CodecError::Corrupt(_)), "{err}");
    }

    #[test]
    fn overlapping_copy_expands_runs() {
        let data = vec![b'z'; 10_000];
        let comp = deflate(&data, Level::Default);
        assert_eq!(inflate(&comp).unwrap(), data);
    }

    #[test]
    fn copy_match_overlap_semantics() {
        // Short-period replication.
        let mut out = vec![1, 2, 3];
        copy_match(&mut out, 2, 5);
        assert_eq!(out, vec![1, 2, 3, 2, 3, 2, 3, 2]);

        // Period-9 replication past the source window (doubling path).
        let mut out: Vec<u8> = (1..=9).collect();
        copy_match(&mut out, 9, 12);
        assert_eq!(&out[9..], &[1, 2, 3, 4, 5, 6, 7, 8, 9, 1, 2, 3]);
    }

    /// Build a dynamic-Huffman block header whose code-length code covers
    /// symbols {0 (len 1), 2 (len 2), 18 (len 2)} — a complete CL code —
    /// then let the caller emit the 258 litlen+dist code lengths with it.
    fn dynamic_block_with(emit_lengths: impl Fn(&mut crate::bitio::BitWriter)) -> Vec<u8> {
        use crate::bitio::BitWriter;
        let mut w = BitWriter::new();
        w.write_bits(1, 1); // BFINAL
        w.write_bits(0b10, 2); // dynamic block
        w.write_bits(0, 5); // HLIT -> 257 litlen codes
        w.write_bits(0, 5); // HDIST -> 1 dist code
        w.write_bits(12, 4); // HCLEN -> 16 CL entries
        for &sym in CODELEN_ORDER.iter().take(16) {
            let l = match sym {
                0 => 1,
                2 | 18 => 2,
                _ => 0,
            };
            w.write_bits(l, 3);
        }
        emit_lengths(&mut w);
        w.finish()
    }

    // Canonical CL codes for the table above: sym 0 -> 0 (1 bit),
    // sym 2 -> 10, sym 18 -> 11; emitted LSB-first (bit-reversed).
    fn emit_len_two(w: &mut crate::bitio::BitWriter) {
        w.write_bits(0b01, 2);
    }
    fn emit_zero_run(w: &mut crate::bitio::BitWriter, run: u64) {
        w.write_bits(0b11, 2);
        w.write_bits(run - 11, 7);
    }
    fn emit_len_zero(w: &mut crate::bitio::BitWriter) {
        w.write_bits(0, 1);
    }

    #[test]
    fn rejects_undersubscribed_dynamic_litlen_table() {
        // Litlen lengths: sym 0 and sym 256 get 2 bits, everything else 0.
        // Kraft sum 1/2: under-subscribed — half the code space decodes to
        // nothing. A lenient decoder would read garbage symbols; ours must
        // reject the table itself.
        let block = dynamic_block_with(|w| {
            emit_len_two(w); // sym 0
            emit_zero_run(w, 138); // syms 1..=138
            emit_zero_run(w, 117); // syms 139..=255
            emit_len_two(w); // sym 256
            emit_len_zero(w); // the single dist code
        });
        assert!(matches!(
            inflate(&block),
            Err(CodecError::InvalidHuffmanTable("under-subscribed code"))
        ));
    }

    #[test]
    fn rejects_oversubscribed_dynamic_litlen_table() {
        // Five symbols of length 2: Kraft sum 5/4 — over-subscribed, the
        // code is ambiguous.
        let block = dynamic_block_with(|w| {
            for _ in 0..5 {
                emit_len_two(w); // syms 0..=4
            }
            emit_zero_run(w, 138); // syms 5..=142
            emit_zero_run(w, 114); // syms 143..=256
            emit_len_zero(w); // the single dist code
        });
        assert!(matches!(
            inflate(&block),
            Err(CodecError::InvalidHuffmanTable("over-subscribed code"))
        ));
    }

    #[test]
    fn random_garbage_never_panics() {
        let mut x = 0xdeadbeefu32;
        for trial in 0..200 {
            let len = (trial % 97) + 1;
            let garbage: Vec<u8> = (0..len)
                .map(|_| {
                    x ^= x << 13;
                    x ^= x >> 17;
                    x ^= x << 5;
                    (x >> 16) as u8
                })
                .collect();
            // Must return (Ok or Err) without panicking.
            let _ = inflate(&garbage);
        }
    }

    // ---- decode-table structure tests -------------------------------------

    /// Lengths giving every symbol `0..n` a code, with a Fibonacci-weighted
    /// skew so package-merge assigns the full 1..=15 spread of code lengths.
    fn skewed_lengths(n: usize) -> Vec<u8> {
        let mut freqs = vec![0u64; n];
        let (mut a, mut b) = (1u64, 1u64);
        for f in freqs.iter_mut() {
            *f = a;
            // Cap the growth so package-merge's internal weight sums stay
            // far from u64 overflow even for 286 symbols.
            if b < 1 << 40 {
                let next = a + b;
                a = b;
                b = next;
            }
        }
        crate::huffman::package_merge_lengths(&freqs, 15)
    }

    #[test]
    fn litlen_table_resolves_every_symbol_at_its_length() {
        use crate::bitio::BitWriter;
        let lengths = skewed_lengths(286);
        assert!(
            lengths.iter().any(|&l| u32::from(l) > LITLEN_TABLE_BITS),
            "skew must exercise subtables"
        );
        let codes = canonical_codes(&lengths);
        let mut table = Table::default();
        table
            .build_litlen(&lengths, &mut Vec::new(), &mut Vec::new())
            .unwrap();
        for (sym, &len) in lengths.iter().enumerate() {
            if len == 0 {
                continue;
            }
            // Emit exactly this code (plus zero padding) and resolve it.
            let mut w = BitWriter::new();
            w.write_bits(
                u64::from(reverse_bits(codes[sym], u32::from(len))),
                u32::from(len),
            );
            let bytes = w.finish();
            let mut r = BitReader::new(&bytes);
            let e = table.lookup(r.peek_bits(MAX_CODE_BITS));
            let kind = entry_kind(e);
            match sym as u16 {
                0..=255 => {
                    // May resolve as a merged pair whose first byte is ours.
                    assert!(kind == K_LIT1 || kind == K_LIT2, "sym {sym} kind {kind}");
                    assert_eq!(entry_payload(e) & 0xff, sym as u32, "sym {sym}");
                    if kind == K_LIT1 {
                        assert_eq!(entry_consumed(e), u32::from(len), "sym {sym}");
                    }
                }
                END_OF_BLOCK => {
                    assert_eq!(kind, K_EOB);
                    assert_eq!(entry_consumed(e), u32::from(len));
                }
                s @ 257..=285 => {
                    assert_eq!(kind, K_LEN, "sym {sym}");
                    assert_eq!(entry_consumed(e), u32::from(len));
                    let li = usize::from(s - 257);
                    assert_eq!(entry_payload(e) & 0x1ff, u32::from(LENGTH_BASE[li]));
                    assert_eq!(entry_payload(e) >> 9, u32::from(LENGTH_EXTRA[li]));
                }
                _ => assert_eq!(kind, K_BADSYM, "sym {sym}"),
            }
        }
    }

    #[test]
    fn dist_table_resolves_every_symbol_at_its_length() {
        use crate::bitio::BitWriter;
        let lengths = skewed_lengths(30);
        let codes = canonical_codes(&lengths);
        let mut table = Table::default();
        table
            .build_dist(&lengths, &mut Vec::new(), &mut Vec::new())
            .unwrap();
        for (sym, &len) in lengths.iter().enumerate() {
            if len == 0 {
                continue;
            }
            let mut w = BitWriter::new();
            w.write_bits(
                u64::from(reverse_bits(codes[sym], u32::from(len))),
                u32::from(len),
            );
            let bytes = w.finish();
            let mut r = BitReader::new(&bytes);
            let e = table.lookup(r.peek_bits(MAX_CODE_BITS));
            assert_eq!(entry_kind(e), K_DIST, "sym {sym}");
            assert_eq!(entry_consumed(e), u32::from(len), "sym {sym}");
            assert_eq!(entry_payload(e) & 0x7fff, u32::from(DIST_BASE[sym]));
            assert_eq!(entry_payload(e) >> 15, u32::from(DIST_EXTRA[sym]));
        }
    }

    #[test]
    fn litlen_table_merges_short_literal_pairs() {
        // Complete 3-bit-deep code: sym 0 -> 0 (1 bit), EOB -> 10 (2 bits),
        // syms 1/2 -> 110/111 (3 bits). The primary table is 3 bits wide, so
        // the only mergeable pair is sym 0 followed by sym 0 (2 bits total).
        let mut lengths = vec![0u8; 257];
        lengths[0] = 1;
        lengths[256] = 2;
        lengths[1] = 3;
        lengths[2] = 3;
        let mut table = Table::default();
        table
            .build_litlen(&lengths, &mut Vec::new(), &mut Vec::new())
            .unwrap();
        assert_eq!(table.bits, 3);
        // The all-zeros index decodes literal 0 twice.
        let e = table.lookup(0);
        assert_eq!(entry_kind(e), K_LIT2);
        assert_eq!(entry_consumed(e), 2);
        assert_eq!(entry_payload(e), 0);
        // Literal 0 followed by EOB (code 10, reversed 01 -> index 0b010)
        // must NOT merge: EOB is not a literal.
        let e = table.lookup(0b010);
        assert_eq!(entry_kind(e), K_LIT1, "entry {e:#x}");
        assert_eq!(entry_consumed(e), 1);
        // Literal 0 followed by literal 1 (3 bits) exceeds the table width
        // and must also stay single.
        let e = table.lookup(0b110);
        assert_eq!(entry_kind(e), K_LIT1, "entry {e:#x}");
        assert_eq!(entry_consumed(e), 1);
    }

    #[test]
    fn subtable_boundary_codes_roundtrip_through_inflate_block() {
        use crate::bitio::BitWriter;
        // A full 286-symbol skew: many codes longer than the primary width.
        let lengths = skewed_lengths(286);
        let dist_lengths = skewed_lengths(30);
        let codes = canonical_codes(&lengths);
        let mut table = Table::default();
        table
            .build_litlen(&lengths, &mut Vec::new(), &mut Vec::new())
            .unwrap();
        let mut dist_table = Table::default();
        dist_table
            .build_dist(&dist_lengths, &mut Vec::new(), &mut Vec::new())
            .unwrap();
        // Emit every literal once, then EOB, and inflate it back.
        let mut w = BitWriter::new();
        let mut expect = Vec::new();
        for sym in 0..=255u16 {
            let len = u32::from(lengths[sym as usize]);
            w.write_bits(u64::from(reverse_bits(codes[sym as usize], len)), len);
            expect.push(sym as u8);
        }
        let eob_len = u32::from(lengths[256]);
        w.write_bits(u64::from(reverse_bits(codes[256], eob_len)), eob_len);
        let bytes = w.finish();
        let mut r = BitReader::new(&bytes);
        let mut out = Vec::new();
        inflate_block(&mut r, &table, &dist_table, &mut out).unwrap();
        assert_eq!(out, expect);
    }

    #[test]
    fn fixed_tables_decode_matches_rfc_layout() {
        let (lit, dist) = fixed_tables().unwrap();
        // Literal 0: 8-bit code 0x30 (MSB-first).
        let e = lit.lookup(u64::from(reverse_bits(0x30, 8)));
        assert!(matches!(entry_kind(e), K_LIT1 | K_LIT2));
        assert_eq!(entry_payload(e) & 0xff, 0);
        // EOB: 7-bit code 0.
        let e = lit.lookup(0);
        assert_eq!(entry_kind(e), K_EOB);
        assert_eq!(entry_consumed(e), 7);
        // Distance 0: 5-bit code 0.
        let e = dist.lookup(0);
        assert_eq!(entry_kind(e), K_DIST);
        assert_eq!(entry_consumed(e), 5);
        assert_eq!(entry_payload(e) & 0x7fff, 1);
        // Fixed dist symbols 30/31 exist in the header alphabet but are
        // invalid in a stream.
        let codes = canonical_codes(&super::super::encode::fixed_dist_lengths());
        let e = dist.lookup(u64::from(reverse_bits(codes[30], 5)));
        assert_eq!(entry_kind(e), K_BADSYM);
    }

    #[test]
    fn degenerate_single_symbol_dist_table_flags_other_half() {
        let mut lengths = vec![0u8; 30];
        lengths[0] = 1;
        let mut table = Table::default();
        table
            .build_dist(&lengths, &mut Vec::new(), &mut Vec::new())
            .unwrap();
        assert_eq!(entry_kind(table.lookup(0)), K_DIST);
        assert_eq!(entry_kind(table.lookup(1)), K_INVALID);
    }
}
