//! Fused chunk reassembly: the decode-side inverse of the split, ID-map,
//! linearization and ISOBAR stages (§II-B–§II-G) in one tiled pass.
//!
//! A chunk section inflates to three byte streams ([`Sections`]): the ID
//! stream, the compressible lo columns and the raw lo columns.
//! [`reassemble_into`] walks them in row tiles of 2,048 elements and
//! writes each element once into the caller's output. Each tile runs four
//! steps, each writing a tile buffer that stays in L1, and each timed under
//! the stage it inverts:
//!
//! - *linearize* gathers the tile's IDs from the ID stream;
//! - *idmap* maps each ID to its byte-sequence through the chunk's index;
//! - *isobar* builds each row's lo word from the lo column streams;
//! - *split* writes `seq << 8·lo_cols | lo` as the element's little-endian
//!   bytes.
//!
//! The per-tile times are summed and returned once per chunk, so a chunk
//! books one decode record per stage.
#![warn(clippy::indexing_slicing)]

use crate::config::Linearization;
use crate::error::{PrimacyError, Result};
use crate::format::Header;
use crate::idmap::IdMap;
use crate::stats::StageTimings;
use std::time::Instant;

/// Rows per tile. A tile's IDs (4 KiB) and lo words (16 KiB for elements of
/// up to 8 bytes) stay in L1 while its four steps run.
const TILE: usize = 2048;

/// Most lo columns an element can have: 16 bytes with one hi byte.
const MAX_LO_COLS: usize = 15;

/// One chunk's sections as the backend codec returned them: everything the
/// pass reads.
#[derive(Debug, Clone, Copy)]
pub struct Sections<'a> {
    /// The ID stream: `n × hi_bytes` bytes in the header's linearization.
    pub ids: &'a [u8],
    /// The ISOBAR mask: bit `c` set ⇔ lo column `c` is in `compressible`.
    pub mask: u16,
    /// The compressible lo columns, `n` bytes each, in ascending column
    /// order.
    pub compressible: &'a [u8],
    /// The raw lo columns, `n` bytes each, in ascending column order.
    pub raw: &'a [u8],
}

/// Where the pass writes a chunk's elements.
#[derive(Debug)]
pub enum Output<'a> {
    /// Append the elements to the vector, which grows one tile at a time.
    Append(&'a mut Vec<u8>),
    /// Overwrite the slice, which must hold exactly the chunk's elements.
    Fill(&'a mut [u8]),
}

impl Output<'_> {
    /// The next `len` bytes of output.
    fn next_tile(&mut self, len: usize) -> Option<&mut [u8]> {
        match self {
            Output::Append(v) => {
                let at = v.len();
                v.resize(at.saturating_add(len), 0);
                v.get_mut(at..)
            }
            Output::Fill(rest) => {
                let (tile, tail) = std::mem::take(rest).split_at_mut_checked(len)?;
                *rest = tail;
                Some(tile)
            }
        }
    }
}

const ROWS_DISAGREE: PrimacyError = PrimacyError::Format("chunk sections disagree on row count");
const ID_PAST_INDEX: PrimacyError = PrimacyError::Format("ID out of index range");

/// Rebuild a chunk's elements from its `sections` and index `map` into
/// `out`, tile by tile, for any layout `header` describes. Returns the time
/// spent in each of the four steps under the `linearization`, `id_mapping`,
/// `isobar` and `split` fields; the other fields are zero.
///
/// Fails with `Format("ID out of index range")` if an ID is not below the
/// map's size; the tiles before the failing one are already written.
pub fn reassemble_into(
    header: &Header,
    map: &IdMap,
    sections: &Sections<'_>,
    mut out: Output<'_>,
) -> Result<StageTimings> {
    let (es, hb) = (header.element_size, header.hi_bytes);
    if !(1..=2).contains(&hb) || hb >= es || es > 16 {
        return Err(PrimacyError::InvalidInput("unsupported element layout"));
    }
    let lo_cols = es - hb;
    if sections.mask >> lo_cols != 0 {
        return Err(PrimacyError::Format("isobar mask wider than matrix"));
    }
    let n = sections.ids.len() / hb;
    let comp_cols = sections.mask.count_ones() as usize;
    if n.checked_mul(hb) != Some(sections.ids.len())
        || n.checked_mul(comp_cols) != Some(sections.compressible.len())
        || n.checked_mul(lo_cols - comp_cols) != Some(sections.raw.len())
    {
        return Err(ROWS_DISAGREE);
    }
    let bytes = n.checked_mul(es).ok_or(ROWS_DISAGREE)?;
    match &mut out {
        Output::Append(v) => v.reserve(bytes),
        Output::Fill(s) if s.len() != bytes => {
            return Err(PrimacyError::InvalidInput("output does not hold the chunk"))
        }
        Output::Fill(_) => {}
    }
    if n == 0 {
        return Ok(StageTimings::default());
    }
    // Each lo column's stream, in column order.
    let mut cols: [&[u8]; MAX_LO_COLS] = [&[]; MAX_LO_COLS];
    let mut compressible = sections.compressible.chunks_exact(n);
    let mut raw = sections.raw.chunks_exact(n);
    for (c, col) in cols.iter_mut().take(lo_cols).enumerate() {
        let next = if sections.mask & (1 << c) != 0 {
            compressible.next()
        } else {
            raw.next()
        };
        *col = next.ok_or(ROWS_DISAGREE)?;
    }
    let cols = cols.get_mut(..lo_cols).ok_or(ROWS_DISAGREE)?;
    let lin = header.linearization;
    // The hot shapes get their own copy of the tile loop with the element
    // width fixed, so each element is one word-wide store.
    match (es, hb) {
        (8, 2) => tiles::<u64>(8, 2, lin, map, sections.ids, cols, out),
        (4, 1) => tiles::<u64>(4, 1, lin, map, sections.ids, cols, out),
        (..=8, _) => tiles::<u64>(es, hb, lin, map, sections.ids, cols, out),
        _ => tiles::<u128>(es, hb, lin, map, sections.ids, cols, out),
    }
}

/// The tile loop over `n = ids.len() / hb` rows. `cols` holds the lo
/// column streams in column order; every layout has at least one.
#[inline(always)]
fn tiles<W: Word>(
    es: usize,
    hb: usize,
    lin: Linearization,
    map: &IdMap,
    ids: &[u8],
    cols: &mut [&[u8]],
    mut out: Output<'_>,
) -> Result<StageTimings> {
    let n = ids.len() / hb;
    let shift = 8 * cols.len() as u32;
    // The ID stream as one or two cursors: hi byte and lo byte of each ID
    // for two-byte IDs in column order, else the whole stream.
    let (mut hi0, mut hi1) = match (lin, hb) {
        (Linearization::Column, 2) => ids.split_at_checked(n).ok_or(ROWS_DISAGREE)?,
        _ => (ids, <&[u8]>::default()),
    };
    let mut id_buf = [0u16; TILE];
    let mut lo_buf = [W::ZERO; TILE];
    let mut t = StageTimings::default();
    let mut left = n;
    let mut t0 = Instant::now();
    while left > 0 {
        let rows = left.min(TILE);
        left -= rows;
        let (Some(ids), Some(lo)) = (id_buf.get_mut(..rows), lo_buf.get_mut(..rows)) else {
            return Err(ROWS_DISAGREE);
        };

        match (lin, hb) {
            (_, 1) => {
                for (id, &b) in ids.iter_mut().zip(take(&mut hi0, rows)?) {
                    *id = u16::from(b);
                }
            }
            (Linearization::Column, _) => {
                let (his, los) = (take(&mut hi0, rows)?, take(&mut hi1, rows)?);
                for ((id, &h), &l) in ids.iter_mut().zip(his).zip(los) {
                    *id = u16::from_be_bytes([h, l]);
                }
            }
            (Linearization::Row, _) => {
                let (pairs, _) = take(&mut hi0, 2 * rows)?.as_chunks::<2>();
                for (id, &pair) in ids.iter_mut().zip(pairs) {
                    *id = u16::from_be_bytes(pair);
                }
            }
        }
        let t1 = Instant::now();

        for id in ids.iter_mut() {
            *id = map.seq_of(*id).ok_or(ID_PAST_INDEX)?;
        }
        let t2 = Instant::now();

        // Six columns per pass where it can (a double's lo bytes, so the f64
        // shape builds each lo word in one pass), then one at a time. The
        // first pass sets each word; later ones shift theirs in below it.
        let mut fresh = true;
        let mut sixes = cols.chunks_exact_mut(6);
        for six in &mut sixes {
            let [a, b, c, d, e, f] = six else { continue };
            let (a, b, c) = (take(a, rows)?, take(b, rows)?, take(c, rows)?);
            let (d, e, f) = (take(d, rows)?, take(e, rows)?, take(f, rows)?);
            for ((((((w, &a), &b), &c), &d), &e), &f) in
                lo.iter_mut().zip(a).zip(b).zip(c).zip(d).zip(e).zip(f)
            {
                let v = u64::from_be_bytes([0, 0, a, b, c, d, e, f]);
                *w = if fresh { W::from(v) } else { w.push(48, v) };
            }
            fresh = false;
        }
        for col in sixes.into_remainder() {
            for (w, &x) in lo.iter_mut().zip(take(col, rows)?) {
                let v = u64::from(x);
                *w = if fresh { W::from(v) } else { w.push(8, v) };
            }
            fresh = false;
        }
        let t3 = Instant::now();

        let tile = out
            .next_tile(rows.saturating_mul(es))
            .ok_or(ROWS_DISAGREE)?;
        for ((elem, &seq), &w) in tile.chunks_exact_mut(es).zip(ids.iter()).zip(lo.iter()) {
            w.with_hi(seq, shift).store(elem);
        }
        let t4 = Instant::now();

        t.linearization = t.linearization.saturating_add(t1.duration_since(t0));
        t.id_mapping = t.id_mapping.saturating_add(t2.duration_since(t1));
        t.isobar = t.isobar.saturating_add(t3.duration_since(t2));
        t.split = t.split.saturating_add(t4.duration_since(t3));
        t0 = t4;
    }
    Ok(t)
}

/// Split the first `len` bytes off `stream`.
fn take<'a>(stream: &mut &'a [u8], len: usize) -> Result<&'a [u8]> {
    let (head, tail) = stream.split_at_checked(len).ok_or(ROWS_DISAGREE)?;
    *stream = tail;
    Ok(head)
}

/// Fail as [`reassemble_into`]'s idmap step would if any ID in the ID
/// stream `ids` is not below the size of `map`, without writing anything.
/// The chunk decoder calls this on the error paths after the lo section's
/// inflate, so a chunk whose IDs and lo section are both bad reports the
/// bad ID, in section order.
pub(crate) fn check_ids(header: &Header, map: &IdMap, ids: &[u8]) -> Result<()> {
    let past = |id: u16| usize::from(id) >= map.len();
    let bad = match (header.hi_bytes, header.linearization) {
        (1, _) => ids.iter().any(|&b| past(u16::from(b))),
        (_, Linearization::Column) => {
            let (hi, lo) = ids.split_at(ids.len() / 2);
            hi.iter()
                .zip(lo)
                .any(|(&h, &l)| past(u16::from_be_bytes([h, l])))
        }
        (_, Linearization::Row) => ids
            .as_chunks::<2>()
            .0
            .iter()
            .any(|&pair| past(u16::from_be_bytes(pair))),
    };
    if bad {
        Err(ID_PAST_INDEX)
    } else {
        Ok(())
    }
}

/// An element held as an integer, most significant byte first in stream
/// order: `u64` for elements of up to 8 bytes, `u128` above.
trait Word: Copy + From<u64> {
    const ZERO: Self;
    /// `self << bits | v`: append the next lo columns' `bits / 8` bytes.
    fn push(self, bits: u32, v: u64) -> Self;
    /// The element `seq << shift | self`.
    fn with_hi(self, seq: u16, shift: u32) -> Self;
    /// Store the low `elem.len()` bytes, little-endian.
    fn store(self, elem: &mut [u8]);
}

macro_rules! word {
    ($($t:ty),*) => {$(
        impl Word for $t {
            const ZERO: Self = 0;
            #[inline(always)]
            fn push(self, bits: u32, v: u64) -> Self {
                self.wrapping_shl(bits) | <$t>::from(v)
            }
            #[inline(always)]
            fn with_hi(self, seq: u16, shift: u32) -> Self {
                <$t>::from(seq).wrapping_shl(shift) | self
            }
            #[inline(always)]
            fn store(self, elem: &mut [u8]) {
                for (d, s) in elem.iter_mut().zip(self.to_le_bytes()) {
                    *d = s;
                }
            }
        }
    )*};
}
word!(u64, u128);

/// Plain, unfused inverses of the encode stages, one pass each: the
/// reference the fused pass and the encode-stage unit tests check against.
#[cfg(test)]
pub(crate) mod reference {
    use crate::idmap::IdMap;

    /// Column-major `rows`×`cols` bytes back to row-major.
    pub(crate) fn to_rows(data: &[u8], rows: usize, cols: usize) -> Vec<u8> {
        let mut out = vec![0u8; data.len()];
        for c in 0..cols {
            for r in 0..rows {
                out[r * cols + c] = data[c * rows + r];
            }
        }
        out
    }

    /// Every ID of a row-major hi matrix replaced by its byte-sequence, or
    /// `None` if an ID is past the map.
    pub(crate) fn decode_hi(map: &IdMap, hi: &[u8], hi_bytes: usize) -> Option<Vec<u8>> {
        let mut out = Vec::with_capacity(hi.len());
        for row in hi.chunks_exact(hi_bytes) {
            let id = row.iter().fold(0u16, |acc, &b| (acc << 8) | u16::from(b));
            let seq = map.seq_of(id)?.to_be_bytes();
            out.extend_from_slice(&seq[2 - hi_bytes..]);
        }
        Some(out)
    }

    /// The row-major `rows`×`cols` lo matrix from its compressible and raw
    /// column groups (the inverse of `isobar::partition`).
    pub(crate) fn unpartition(
        compressible: &[u8],
        raw: &[u8],
        rows: usize,
        cols: usize,
        mask: u16,
    ) -> Vec<u8> {
        let mut out = vec![0u8; rows * cols];
        let (mut ci, mut ri) = (0, 0);
        for c in 0..cols {
            let col = if mask & (1 << c) != 0 {
                ci += 1;
                &compressible[(ci - 1) * rows..ci * rows]
            } else {
                ri += 1;
                &raw[(ri - 1) * rows..ri * rows]
            };
            for r in 0..rows {
                out[r * cols + c] = col[r];
            }
        }
        out
    }

    /// Little-endian elements from row-major hi and lo matrices (the
    /// inverse of `split::split_hi_lo`).
    pub(crate) fn join(hi: &[u8], lo: &[u8], element_size: usize, hi_bytes: usize) -> Vec<u8> {
        let lo_bytes = element_size - hi_bytes;
        let n = hi.len() / hi_bytes;
        let mut out = vec![0u8; n * element_size];
        for r in 0..n {
            for k in 0..hi_bytes {
                out[r * element_size + element_size - 1 - k] = hi[r * hi_bytes + k];
            }
            for k in 0..lo_bytes {
                out[r * element_size + element_size - 1 - hi_bytes - k] = lo[r * lo_bytes + k];
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{IndexPolicy, IsobarConfig, PrimacyConfig};
    use crate::pipeline::{precondition, EncodeScratch};
    use primacy_codecs::CodecKind;
    use std::time::Duration;

    /// Row counts around the tile edges.
    const ROW_COUNTS: [usize; 5] = [1, TILE - 1, TILE, TILE + 1, 3 * TILE + 5];

    fn rng(seed: u64) -> impl FnMut() -> u64 {
        let mut x = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        }
    }

    fn header(es: usize, hb: usize, lin: Linearization, n: usize) -> Header {
        Header {
            element_size: es,
            hi_bytes: hb,
            linearization: lin,
            codec: CodecKind::Zlib,
            total_elements: n as u64,
        }
    }

    /// Every layout the header accepts.
    fn shapes() -> impl Iterator<Item = (usize, usize)> {
        (2..=16).flat_map(|es| (1..=2).filter(move |&hb| hb < es).map(move |hb| (es, hb)))
    }

    /// One chunk's sections, drawn at random: a map of `k` distinct
    /// sequences, `n` IDs below `k` laid out per `lin`, and random lo
    /// column groups split by `mask`.
    struct Case {
        map: IdMap,
        ids: Vec<u8>,
        compressible: Vec<u8>,
        raw: Vec<u8>,
    }

    fn case(es: usize, hb: usize, lin: Linearization, n: usize, mask: u16, seed: u64) -> Case {
        let mut next = rng(seed);
        let domain = 1usize << (8 * hb);
        let k = 1 + (next() as usize % n.min(domain - 2).min(700));
        let mut seqs: Vec<u16> = (0..domain as u32).map(|s| s as u16).collect();
        for i in 0..k {
            let j = i + next() as usize % (domain - i);
            seqs.swap(i, j);
        }
        seqs.truncate(k);
        let mut map = IdMap::placeholder();
        map.load(hb, seqs).unwrap();
        let rows: Vec<u8> = (0..n)
            .flat_map(|_| {
                // Skewed towards low IDs, as the ranking makes them.
                let id = (next() % k as u64).min(next() % k as u64) as u16;
                id.to_be_bytes()[2 - hb..].to_vec()
            })
            .collect();
        let ids = match lin {
            Linearization::Row => rows,
            Linearization::Column => crate::linearize::to_columns(&rows, n, hb),
        };
        let lo_cols = es - hb;
        let mut bytes = |cols: usize| (0..n * cols).map(|_| next() as u8).collect::<Vec<u8>>();
        let compressible = bytes(mask.count_ones() as usize);
        let raw = bytes(lo_cols - mask.count_ones() as usize);
        Case {
            map,
            ids,
            compressible,
            raw,
        }
    }

    /// The plain composition: columns to rows, IDs to sequences,
    /// unpartition, join.
    fn reference(h: &Header, c: &Case, mask: u16) -> Option<Vec<u8>> {
        let (es, hb) = (h.element_size, h.hi_bytes);
        let n = c.ids.len() / hb;
        let rows = match h.linearization {
            Linearization::Row => c.ids.clone(),
            Linearization::Column => reference::to_rows(&c.ids, n, hb),
        };
        let hi = reference::decode_hi(&c.map, &rows, hb)?;
        let lo = reference::unpartition(&c.compressible, &c.raw, n, es - hb, mask);
        Some(reference::join(&hi, &lo, es, hb))
    }

    fn sections<'a>(c: &'a Case, mask: u16) -> Sections<'a> {
        Sections {
            ids: &c.ids,
            mask,
            compressible: &c.compressible,
            raw: &c.raw,
        }
    }

    #[test]
    fn fused_pass_matches_the_plain_composition() {
        let mut seed = 0u64;
        for (es, hb) in shapes() {
            let lo_cols = es - hb;
            let all = (1u16 << lo_cols) - 1;
            for mask in [
                all,
                0,
                all & 0b0101_0101_0101_0101,
                all & 0b0110_1001_1100_1010,
            ] {
                for lin in [Linearization::Row, Linearization::Column] {
                    for n in ROW_COUNTS {
                        seed += 1;
                        let c = case(es, hb, lin, n, mask, seed);
                        let h = header(es, hb, lin, n);
                        let want = reference(&h, &c, mask).unwrap();
                        let what = format!("es {es} hb {hb} {lin:?} mask {mask:#b} n {n}");

                        let mut filled = vec![0xAA; n * es];
                        let steps = reassemble_into(
                            &h,
                            &c.map,
                            &sections(&c, mask),
                            Output::Fill(&mut filled),
                        )
                        .unwrap();
                        assert!(filled == want, "Fill differs: {what}");
                        assert_eq!(steps.codec + steps.frequency_analysis, Duration::ZERO);

                        let mut appended = vec![7u8; 3];
                        reassemble_into(
                            &h,
                            &c.map,
                            &sections(&c, mask),
                            Output::Append(&mut appended),
                        )
                        .unwrap();
                        assert!(
                            appended[..3] == [7, 7, 7] && appended[3..] == want[..],
                            "Append differs: {what}"
                        );
                    }
                }
            }
        }
    }

    /// The encoder and the fused pass invert each other on every shape,
    /// both linearizations, with ISOBAR on and off, and on a second chunk
    /// mapped through the first chunk's index.
    #[test]
    fn the_encoder_and_the_fused_pass_invert_each_other() {
        let mut seed = 2000u64;
        let mut mixed_masks = 0;
        for (es, hb) in shapes() {
            let all = (1u16 << (es - hb)) - 1;
            for lin in [Linearization::Row, Linearization::Column] {
                for enabled in [true, false] {
                    let cfg = PrimacyConfig {
                        element_size: es,
                        hi_bytes: hb,
                        linearization: lin,
                        index_policy: IndexPolicy::Reuse {
                            correlation_threshold: 0.9,
                        },
                        // Stride 1 lets random lo columns read incompressible
                        // at these row counts, so the masks mix.
                        isobar: IsobarConfig {
                            enabled,
                            sample_stride: 1,
                            ..Default::default()
                        },
                        ..Default::default()
                    };
                    for n in ROW_COUNTS {
                        seed += 1;
                        let mut next = rng(seed);
                        // Little-endian elements: skewed hi bytes on top, lo
                        // bytes alternating between random and narrow.
                        let chunk: Vec<u8> = (0..n * es)
                            .map(|i| match i % es {
                                b if b >= es - hb => (next() % 40).min(next() % 40) as u8,
                                b if b % 2 == 0 => next() as u8,
                                _ => (next() % 3) as u8,
                            })
                            .collect();
                        // The same elements in reverse order: the same
                        // frequencies, so the second chunk reuses the index.
                        let reversed: Vec<u8> = chunk.chunks(es).rev().flatten().copied().collect();
                        let header = Header::new(&cfg, n as u64);
                        let mut scratch = EncodeScratch::new();
                        for (second, input) in [(false, &chunk), (true, &reversed)] {
                            let what = format!(
                                "es {es} hb {hb} {lin:?} isobar {enabled} n {n} second {second}"
                            );
                            let pre = precondition(&cfg, input, second, &mut scratch).unwrap();
                            assert_eq!(pre.own_index, !second, "{what}");
                            if !enabled {
                                assert_eq!(pre.mask, all, "{what}");
                            } else if pre.mask != 0 && pre.mask != all {
                                mixed_masks += 1;
                            }
                            let sections = Sections {
                                ids: &pre.ids,
                                mask: pre.mask,
                                compressible: &pre.compressible,
                                raw: &pre.raw,
                            };
                            let mut out = Vec::new();
                            reassemble_into(
                                &header,
                                scratch.map(),
                                &sections,
                                Output::Append(&mut out),
                            )
                            .unwrap();
                            assert!(out == *input, "round trip differs: {what}");
                        }
                    }
                }
            }
        }
        assert!(mixed_masks > 0, "no case split its lo columns");
    }

    #[test]
    fn an_id_past_the_map_fails_typed_in_every_tile_and_layout() {
        let mut seed = 1000u64;
        for (es, hb) in shapes() {
            for lin in [Linearization::Row, Linearization::Column] {
                let n = 3 * TILE + 5;
                let mask = 0b1;
                seed += 1;
                let mut c = case(es, hb, lin, n, mask, seed);
                let k = c.map.len() as u16;
                let h = header(es, hb, lin, n);
                let clean = c.ids.clone();
                for row in [0, TILE - 1, TILE, n - 1] {
                    for bad in [k, (1u32 << (8 * hb)).saturating_sub(1) as u16] {
                        if usize::from(bad) < c.map.len() {
                            continue;
                        }
                        c.ids.clone_from(&clean);
                        let id = bad.to_be_bytes();
                        match (lin, hb) {
                            (_, 1) => c.ids[row] = id[1],
                            (Linearization::Column, _) => {
                                c.ids[row] = id[0];
                                c.ids[n + row] = id[1];
                            }
                            (Linearization::Row, _) => {
                                c.ids[2 * row..2 * row + 2].copy_from_slice(&id)
                            }
                        }
                        assert_eq!(reference(&h, &c, mask), None);
                        let mut out = vec![0u8; n * es];
                        let got = reassemble_into(
                            &h,
                            &c.map,
                            &sections(&c, mask),
                            Output::Fill(&mut out),
                        );
                        assert_eq!(got, Err(ID_PAST_INDEX), "es {es} hb {hb} {lin:?} row {row}");
                        assert_eq!(check_ids(&h, &c.map, &c.ids), Err(ID_PAST_INDEX));
                    }
                }
                assert_eq!(check_ids(&h, &c.map, &clean), Ok(()));
            }
        }
    }

    #[test]
    fn mismatched_sections_and_outputs_fail_typed() {
        let h = header(8, 2, Linearization::Column, 100);
        let c = case(8, 2, Linearization::Column, 100, 0b11, 5);
        let mut out = vec![0u8; 800];
        let ok = sections(&c, 0b11);
        assert!(reassemble_into(&h, &c.map, &ok, Output::Fill(&mut out)).is_ok());
        for bad in [
            Sections {
                ids: &c.ids[1..],
                ..ok
            },
            Sections {
                raw: &c.raw[1..],
                ..ok
            },
            Sections {
                compressible: &c.compressible[..0],
                ..ok
            },
            Sections { mask: 0b111, ..ok },
            Sections {
                mask: 0b100_0000,
                ..ok
            },
        ] {
            assert!(reassemble_into(&h, &c.map, &bad, Output::Fill(&mut out)).is_err());
        }
        assert!(reassemble_into(&h, &c.map, &ok, Output::Fill(&mut out[1..])).is_err());
        for (es, hb) in [(8, 0), (8, 3), (2, 2), (17, 1)] {
            let shape = header(es, hb, Linearization::Column, 100);
            assert!(reassemble_into(&shape, &c.map, &ok, Output::Fill(&mut out)).is_err());
        }
        // An empty chunk writes nothing.
        let empty = Sections {
            ids: &[],
            mask: 0,
            compressible: &[],
            raw: &[],
        };
        let mut v = vec![1u8];
        reassemble_into(&h, &c.map, &empty, Output::Append(&mut v)).unwrap();
        assert_eq!(v, [1]);
    }
}
